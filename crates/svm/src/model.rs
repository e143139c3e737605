//! Trainer builder and the trained SVM model.
//!
//! [`SvmTrainer::train`] validates and scales the data and runs one SMO
//! solve; [`SvmTrainer::train_with_cache`] does the same over a caller's
//! [`DistanceTable`], so a loop that retrains on the same vectors — the
//! hotspot pipeline's iterative `(C, γ)` rounds — computes each squared
//! distance once.

use crate::{smo, DistanceTable, FeatureScaler, Kernel, SmoParams};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error training an SVM.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// No training vectors were given.
    EmptyTrainingSet,
    /// `x` and `y` lengths differ.
    LengthMismatch {
        /// Number of feature vectors.
        x: usize,
        /// Number of labels.
        y: usize,
    },
    /// Feature vectors have inconsistent dimensions.
    DimensionMismatch {
        /// Dimension of the first vector.
        expected: usize,
        /// Index of the offending vector.
        index: usize,
        /// Its dimension.
        found: usize,
    },
    /// A label was not `+1.0` or `−1.0`.
    BadLabel {
        /// Index of the offending label.
        index: usize,
        /// The label value.
        value: f64,
    },
    /// A feature value was NaN or infinite.
    NonFiniteFeature {
        /// Index of the offending vector.
        index: usize,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::EmptyTrainingSet => write!(f, "empty training set"),
            TrainError::LengthMismatch { x, y } => {
                write!(f, "{x} feature vectors but {y} labels")
            }
            TrainError::DimensionMismatch {
                expected,
                index,
                found,
            } => write!(
                f,
                "vector {index} has dimension {found}, expected {expected}"
            ),
            TrainError::BadLabel { index, value } => {
                write!(f, "label {index} is {value}, expected +1 or -1")
            }
            TrainError::NonFiniteFeature { index } => {
                write!(f, "vector {index} contains a non-finite value")
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// Builder for training a two-class C-SVM.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone, PartialEq)]
pub struct SvmTrainer {
    kernel: Kernel,
    params: SmoParams,
    scale: bool,
}

impl SvmTrainer {
    /// Starts a trainer with the given kernel, `C = 1`, `eps = 1e-3`, and
    /// feature scaling enabled.
    pub fn new(kernel: Kernel) -> Self {
        SvmTrainer {
            kernel,
            params: SmoParams::default(),
            scale: true,
        }
    }

    /// Sets both class penalties to `c`.
    pub fn c(mut self, c: f64) -> Self {
        self.params.c_pos = c;
        self.params.c_neg = c;
        self
    }

    /// Sets per-class penalties (`C₊`, `C₋`) for imbalanced data.
    pub fn class_weights(mut self, c_pos: f64, c_neg: f64) -> Self {
        self.params.c_pos = c_pos;
        self.params.c_neg = c_neg;
        self
    }

    /// Sets the KKT stopping tolerance.
    pub fn eps(mut self, eps: f64) -> Self {
        self.params.eps = eps;
        self
    }

    /// Caps the number of SMO iterations (0 = automatic).
    pub fn max_iter(mut self, max_iter: u64) -> Self {
        self.params.max_iter = max_iter;
        self
    }

    /// Enables or disables min-max feature scaling (default on).
    pub fn scale(mut self, scale: bool) -> Self {
        self.scale = scale;
        self
    }

    /// Trains a model.
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] for empty, mismatched, non-finite, or
    /// incorrectly labelled data. A single-class training set is *not* an
    /// error: the resulting model classifies everything as that class.
    pub fn train(&self, x: &[Vec<f64>], y: &[f64]) -> Result<SvmModel, TrainError> {
        self.train_with_cache(x, y, &mut DistanceTable::default())
    }

    /// Like [`train`](SvmTrainer::train), with the solve's RBF kernel rows
    /// built from the squared-distance rows of `distances`, filled on first
    /// use and kept. Successive trainings on the **same** `x` that lend it
    /// the same table share the `O(n²·dim)` distance work. The trained
    /// model is identical to [`train`](SvmTrainer::train)'s.
    ///
    /// # Errors
    ///
    /// Same as [`train`](SvmTrainer::train).
    pub fn train_with_cache(
        &self,
        x: &[Vec<f64>],
        y: &[f64],
        distances: &mut DistanceTable,
    ) -> Result<SvmModel, TrainError> {
        if x.is_empty() {
            return Err(TrainError::EmptyTrainingSet);
        }
        if x.len() != y.len() {
            return Err(TrainError::LengthMismatch {
                x: x.len(),
                y: y.len(),
            });
        }
        let dim = x[0].len();
        for (i, row) in x.iter().enumerate() {
            if row.len() != dim {
                return Err(TrainError::DimensionMismatch {
                    expected: dim,
                    index: i,
                    found: row.len(),
                });
            }
            if row.iter().any(|v| !v.is_finite()) {
                return Err(TrainError::NonFiniteFeature { index: i });
            }
        }
        for (i, &t) in y.iter().enumerate() {
            if t != 1.0 && t != -1.0 {
                return Err(TrainError::BadLabel { index: i, value: t });
            }
        }

        let scaler = if self.scale {
            Some(FeatureScaler::fit(x))
        } else {
            None
        };
        let scaled: Vec<Vec<f64>>;
        let xs: &[Vec<f64>] = match &scaler {
            Some(s) => {
                scaled = s.transform_all(x);
                &scaled
            }
            None => x,
        };

        let sol = smo::solve_with_cache(xs, y, self.kernel, &self.params, distances);

        // Keep only support vectors (α > 0).
        let mut support = Vec::new();
        let mut coef = Vec::new();
        for ((xi, &yi), &ai) in xs.iter().zip(y).zip(&sol.alpha) {
            if ai > 0.0 {
                support.push(xi.clone());
                coef.push(ai * yi);
            }
        }

        Ok(SvmModel {
            kernel: self.kernel,
            support,
            coef,
            rho: sol.rho,
            scaler,
            dim,
            iterations: sol.iterations,
            converged: sol.converged,
        })
    }
}

/// A trained two-class SVM.
///
/// The decision function is `f(x) = Σᵢ coefᵢ k(svᵢ, x) − ρ`; `predict`
/// returns its sign as `±1.0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvmModel {
    kernel: Kernel,
    support: Vec<Vec<f64>>,
    coef: Vec<f64>, // αᵢ yᵢ
    rho: f64,
    scaler: Option<FeatureScaler>,
    dim: usize,
    iterations: u64,
    converged: bool,
}

thread_local! {
    /// Reusable scaling buffer: `decision_value` is called millions of
    /// times per scan, so the reference path must not allocate per call.
    static SCALE_SCRATCH: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

impl SvmModel {
    /// Signed distance-like decision value for a feature vector.
    ///
    /// This is the *reference* implementation the batched engine is pinned
    /// against; for hot loops, [`compile`](Self::compile) the model and
    /// score through a [`crate::BatchEvaluator`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimension.
    pub fn decision_value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        match &self.scaler {
            Some(s) => SCALE_SCRATCH.with(|cell| {
                let mut buf = cell.borrow_mut();
                s.transform_into(x, &mut buf);
                self.decision_value_scaled(&buf)
            }),
            None => self.decision_value_scaled(x),
        }
    }

    /// Decision value over an already-scaled query.
    fn decision_value_scaled(&self, xq: &[f64]) -> f64 {
        self.support
            .iter()
            .zip(&self.coef)
            .map(|(sv, c)| c * self.kernel.eval(sv, xq))
            .sum::<f64>()
            - self.rho
    }

    /// Flattens this model into a [`CompiledModel`](crate::CompiledModel)
    /// for the batched inference engine (contiguous support vectors,
    /// precomputed row norms, baked-in scaling). Compile once — at train
    /// time or after deserialising — and score through a
    /// [`crate::BatchEvaluator`].
    pub fn compile(&self) -> crate::CompiledModel {
        crate::CompiledModel::compile(self)
    }

    /// Predicted class: `+1.0` when the decision value is non-negative.
    ///
    /// Equivalent to [`predict_with_threshold`](Self::predict_with_threshold)
    /// at `threshold = 0.0`: both treat the boundary case
    /// `decision_value == threshold` as positive.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.predict_with_threshold(x, 0.0)
    }

    /// Predicts with a shifted decision threshold: positive when
    /// `decision_value >= threshold`. The paper's `ours_med` / `ours_low`
    /// operating points raise this threshold to trade hits for extras.
    ///
    /// At `threshold = 0.0` this is exactly [`predict`](Self::predict):
    /// the boundary case `decision_value == threshold` counts as positive
    /// under both entry points.
    pub fn predict_with_threshold(&self, x: &[f64], threshold: f64) -> f64 {
        if self.decision_value(x) >= threshold {
            1.0
        } else {
            -1.0
        }
    }

    /// Fraction of `(x, y)` pairs predicted correctly.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn accuracy(&self, x: &[Vec<f64>], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len());
        if x.is_empty() {
            return 1.0;
        }
        let correct = x
            .iter()
            .zip(y)
            .filter(|(xi, &yi)| self.predict(xi) == yi)
            .count();
        correct as f64 / x.len() as f64
    }

    /// Number of support vectors retained.
    pub fn support_vector_count(&self) -> usize {
        self.support.len()
    }

    /// The retained support vectors (scaled, when scaling was enabled).
    pub(crate) fn support_vectors(&self) -> &[Vec<f64>] {
        &self.support
    }

    /// The `αᵢ yᵢ` coefficients, parallel to the support vectors.
    pub(crate) fn coefficients(&self) -> &[f64] {
        &self.coef
    }

    /// The bias term ρ.
    pub(crate) fn rho(&self) -> f64 {
        self.rho
    }

    /// The fitted feature scaler, when scaling was enabled.
    pub(crate) fn scaler(&self) -> Option<&FeatureScaler> {
        self.scaler.as_ref()
    }

    /// The kernel the model was trained with.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Feature dimension expected by `predict`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Checks that the stored parts agree with [`dim`](Self::dim): every
    /// support vector has `dim` values, there is one coefficient per
    /// support vector, and the scaler's minima and spans have `dim` values
    /// each. Training always produces such a model; a hand-edited or
    /// corrupted model file may not, and its compiled form would then read
    /// every later support vector misaligned.
    ///
    /// # Errors
    ///
    /// A message naming the first part of the wrong length.
    pub fn check_shape(&self) -> Result<(), String> {
        let dim = self.dim;
        if let Some(i) = self.support.iter().position(|sv| sv.len() != dim) {
            return Err(format!(
                "support vector {i} has {} values, not {dim}",
                self.support[i].len()
            ));
        }
        if self.coef.len() != self.support.len() {
            return Err(format!(
                "{} coefficients for {} support vectors",
                self.coef.len(),
                self.support.len()
            ));
        }
        if let Some(s) = &self.scaler {
            for (name, values) in [("minima", s.mins()), ("spans", s.spans())] {
                if values.len() != dim {
                    return Err(format!(
                        "scaler {name} have {} values, not {dim}",
                        values.len()
                    ));
                }
            }
        }
        Ok(())
    }

    /// SMO iterations used in training.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// `true` if SMO reached its KKT tolerance.
    pub fn converged(&self) -> bool {
        self.converged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable() -> (Vec<Vec<f64>>, Vec<f64>) {
        let x = vec![
            vec![0.0, 0.1],
            vec![0.1, 0.0],
            vec![0.2, 0.2],
            vec![0.9, 1.0],
            vec![1.0, 0.8],
            vec![0.8, 0.9],
        ];
        let y = vec![-1.0, -1.0, -1.0, 1.0, 1.0, 1.0];
        (x, y)
    }

    #[test]
    fn trains_and_separates() {
        let (x, y) = separable();
        let model = SvmTrainer::new(Kernel::rbf(1.0))
            .c(100.0)
            .train(&x, &y)
            .unwrap();
        assert!(model.converged());
        assert_eq!(model.accuracy(&x, &y), 1.0);
        assert_eq!(model.predict(&[0.05, 0.05]), -1.0);
        assert_eq!(model.predict(&[0.95, 0.95]), 1.0);
    }

    #[test]
    fn check_shape_names_the_part_of_the_wrong_length() {
        let (x, y) = separable();
        let model = SvmTrainer::new(Kernel::rbf(1.0))
            .c(100.0)
            .train(&x, &y)
            .unwrap();
        assert_eq!(model.check_shape(), Ok(()));

        let mut short_sv = model.clone();
        short_sv.support[0].pop();
        let err = short_sv.check_shape().unwrap_err();
        assert!(
            err.contains("support vector 0 has 1 values, not 2"),
            "{err}"
        );

        let mut extra_coef = model.clone();
        extra_coef.coef.push(0.5);
        let err = extra_coef.check_shape().unwrap_err();
        assert!(err.contains("coefficients for"), "{err}");

        let mut short_scaler = model.clone();
        let scaler = short_scaler.scaler.as_ref().expect("scaled by default");
        short_scaler.scaler = Some(FeatureScaler::fit(&[vec![scaler.mins()[0]]]));
        let err = short_scaler.check_shape().unwrap_err();
        assert!(err.contains("scaler minima have 1 values, not 2"), "{err}");
    }

    #[test]
    fn validation_errors() {
        let t = SvmTrainer::new(Kernel::Linear);
        assert_eq!(t.train(&[], &[]), Err(TrainError::EmptyTrainingSet));
        assert_eq!(
            t.train(&[vec![0.0]], &[1.0, -1.0]),
            Err(TrainError::LengthMismatch { x: 1, y: 2 })
        );
        assert_eq!(
            t.train(&[vec![0.0], vec![0.0, 1.0]], &[1.0, -1.0]),
            Err(TrainError::DimensionMismatch {
                expected: 1,
                index: 1,
                found: 2
            })
        );
        assert_eq!(
            t.train(&[vec![0.0], vec![1.0]], &[1.0, 0.5]),
            Err(TrainError::BadLabel {
                index: 1,
                value: 0.5
            })
        );
        assert_eq!(
            t.train(&[vec![f64::NAN]], &[1.0]),
            Err(TrainError::NonFiniteFeature { index: 0 })
        );
    }

    #[test]
    fn single_class_predicts_that_class() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0]];
        let y = vec![1.0, 1.0, 1.0];
        let model = SvmTrainer::new(Kernel::rbf(1.0)).train(&x, &y).unwrap();
        assert_eq!(model.predict(&[10.0]), 1.0);
        assert_eq!(model.accuracy(&x, &y), 1.0);
    }

    #[test]
    fn threshold_shifts_operating_point() {
        let (x, y) = separable();
        let model = SvmTrainer::new(Kernel::rbf(1.0))
            .c(100.0)
            .train(&x, &y)
            .unwrap();
        let q = [0.95, 0.95];
        let f = model.decision_value(&q);
        assert!(f > 0.0);
        assert_eq!(model.predict_with_threshold(&q, f + 0.1), -1.0);
        assert_eq!(model.predict_with_threshold(&q, f - 0.1), 1.0);
    }

    #[test]
    fn predict_and_threshold_share_boundary_semantics() {
        let (x, y) = separable();
        let model = SvmTrainer::new(Kernel::rbf(1.0))
            .c(100.0)
            .train(&x, &y)
            .unwrap();
        for q in [[0.05, 0.05], [0.5, 0.5], [0.95, 0.95]] {
            // threshold = 0 must reproduce predict exactly...
            assert_eq!(model.predict(&q), model.predict_with_threshold(&q, 0.0));
            // ...and the exact boundary counts as positive for both.
            let f = model.decision_value(&q);
            assert_eq!(model.predict_with_threshold(&q, f), 1.0);
        }
    }

    #[test]
    fn scaling_improves_mixed_magnitudes() {
        // One feature in nanometres, one in unit densities; without scaling
        // the nm axis dominates the RBF. The scaled model must separate.
        let x = vec![
            vec![1000.0, 0.1],
            vec![1100.0, 0.15],
            vec![1000.0, 0.9],
            vec![1100.0, 0.85],
        ];
        let y = vec![-1.0, -1.0, 1.0, 1.0];
        let model = SvmTrainer::new(Kernel::rbf(1.0))
            .c(100.0)
            .train(&x, &y)
            .unwrap();
        assert_eq!(model.accuracy(&x, &y), 1.0);
    }

    #[test]
    fn class_weights_bias_the_boundary() {
        // Overlapping clouds; penalising negative slack much harder pulls
        // the boundary toward the positive class.
        let x = vec![
            vec![0.4],
            vec![0.45],
            vec![0.5],
            vec![0.55],
            vec![0.6],
            vec![0.5],
        ];
        let y = vec![-1.0, -1.0, -1.0, 1.0, 1.0, 1.0];
        let balanced = SvmTrainer::new(Kernel::Linear)
            .scale(false)
            .c(1.0)
            .train(&x, &y)
            .unwrap();
        let neg_heavy = SvmTrainer::new(Kernel::Linear)
            .scale(false)
            .class_weights(0.1, 10.0)
            .train(&x, &y)
            .unwrap();
        // With heavy negative penalty the ambiguous 0.5 region leans negative.
        assert!(neg_heavy.decision_value(&[0.5]) <= balanced.decision_value(&[0.5]));
    }

    #[test]
    fn support_vectors_subset_of_training() {
        let (x, y) = separable();
        let model = SvmTrainer::new(Kernel::rbf(1.0))
            .c(10.0)
            .train(&x, &y)
            .unwrap();
        assert!(model.support_vector_count() >= 2);
        assert!(model.support_vector_count() <= x.len());
    }

    #[test]
    fn serde_roundtrip_is_identical() {
        // Serialisable via serde derive; spot-check with a JSON-free format:
        // use bincode-less approach — serde_test is unavailable, so check
        // Debug equality through clone.
        let (x, y) = separable();
        let model = SvmTrainer::new(Kernel::rbf(1.0)).train(&x, &y).unwrap();
        let copy = model.clone();
        assert_eq!(model, copy);
        assert_eq!(
            model.decision_value(&[0.5, 0.5]),
            copy.decision_value(&[0.5, 0.5])
        );
    }

    #[test]
    fn cached_training_matches_uncached() {
        // Scaling stays on: the scaler is deterministic, so the d² rows one
        // table keeps across trainings are consistent, and every γ's model
        // must match a fresh training exactly.
        let (x, y) = separable();
        let mut distances = DistanceTable::default();
        for gamma in [0.5, 1.0, 2.0, 1.0] {
            let trainer = SvmTrainer::new(Kernel::rbf(gamma)).c(100.0);
            let plain = trainer.train(&x, &y).unwrap();
            let cached = trainer.train_with_cache(&x, &y, &mut distances).unwrap();
            assert_eq!(plain, cached, "gamma {gamma}");
        }
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn predict_rejects_wrong_dimension() {
        let (x, y) = separable();
        let model = SvmTrainer::new(Kernel::rbf(1.0)).train(&x, &y).unwrap();
        let _ = model.predict(&[0.0]);
    }
}
