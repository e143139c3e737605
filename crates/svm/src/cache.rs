//! Kernel row tables for the SMO solver.
//!
//! SMO repeatedly needs full kernel rows `K(i, ·)` for the two working-set
//! indices and for gradient updates. For the paper's per-cluster training
//! sets (hundreds of patterns) the whole matrix fits in memory, so a solve
//! keeps every row it has computed.
//!
//! Two tables live here, both dense vectors of `n` optional rows, each
//! filled on first use:
//!
//! - [`DistanceTable`] — the **squared-distance** rows
//!   `d²(i, ·) = ‖xᵢ − x·‖²` of one fit. The iterative learning loop
//!   doubles γ every round but trains on the same vectors, and the RBF
//!   kernel is `K(i, j) = exp(−γ d²(i, j))`, so the round loop owns one
//!   table and lends it to each round's solve: the `O(n² · dim)` distance
//!   work is done once per fit, not once per round.
//! - [`KernelCache`] — the kernel rows of one solve, built from the
//!   distance table for RBF kernels and evaluated directly otherwise.

use crate::Kernel;

/// Squared Euclidean distance between two equal-length vectors.
fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Squared-distance rows over one fixed training set, each computed on
/// first use and kept for every later solve that borrows the table.
///
/// Callers must pass the **same** `x` (same order, same scaling) to every
/// solve that uses one table; rows are keyed by index only.
/// [`crate::SvmTrainer::train_with_cache`] upholds this because its
/// min-max feature scaling is a deterministic function of the training
/// vectors, so every round of iterative learning scales them identically.
#[derive(Debug, Default)]
pub struct DistanceTable {
    rows: Vec<Option<Vec<f64>>>,
}

impl DistanceTable {
    /// The row `d²(i, ·)` over `x`, computed on first use.
    fn row(&mut self, i: usize, x: &[Vec<f64>]) -> &[f64] {
        if self.rows.is_empty() {
            self.rows = vec![None; x.len()];
        }
        debug_assert_eq!(self.rows.len(), x.len(), "one table per training set");
        self.rows[i].get_or_insert_with(|| {
            let xi = &x[i];
            x.iter().map(|xj| squared_distance(xi, xj)).collect()
        })
    }
}

/// Kernel matrix rows over a fixed training set, each computed on first
/// use and kept for the rest of the solve.
pub struct KernelCache<'a> {
    kernel: Kernel,
    x: &'a [Vec<f64>],
    rows: Vec<Option<Vec<f64>>>,
    distances: &'a mut DistanceTable,
}

impl<'a> KernelCache<'a> {
    /// An empty row table over training vectors `x`. RBF rows are built as
    /// `exp(−γ d²)` from `distances`, which must hold rows of this `x`
    /// only; other kernels are evaluated directly.
    pub fn new(kernel: Kernel, x: &'a [Vec<f64>], distances: &'a mut DistanceTable) -> Self {
        KernelCache {
            kernel,
            x,
            rows: vec![None; x.len()],
            distances,
        }
    }

    /// Number of training vectors.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// `true` when the training set is empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Returns the kernel row `K(i, ·)`, computing it on first use.
    pub fn row(&mut self, i: usize) -> &[f64] {
        self.fill(i);
        self.filled(i)
    }

    /// Returns the rows `K(i, ·)` and `K(j, ·)` together, computing each on
    /// first use.
    pub fn rows(&mut self, i: usize, j: usize) -> (&[f64], &[f64]) {
        self.fill(i);
        self.fill(j);
        (self.filled(i), self.filled(j))
    }

    /// Diagonal entry `K(i, i)` without computing a full row.
    pub fn diagonal(&self, i: usize) -> f64 {
        self.kernel.eval(&self.x[i], &self.x[i])
    }

    fn fill(&mut self, i: usize) {
        if self.rows[i].is_none() {
            self.rows[i] = Some(self.compute_row(i));
        }
    }

    fn filled(&self, i: usize) -> &[f64] {
        self.rows[i].as_deref().expect("row filled")
    }

    fn compute_row(&mut self, i: usize) -> Vec<f64> {
        if let Kernel::Rbf { gamma } = self.kernel {
            let d2 = self.distances.row(i, self.x);
            return d2.iter().map(|d| (-gamma * d).exp()).collect();
        }
        let xi = &self.x[i];
        self.x.iter().map(|xj| self.kernel.eval(xi, xj)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Vec<Vec<f64>> {
        (0..6).map(|i| vec![i as f64]).collect()
    }

    #[test]
    fn row_values_match_kernel() {
        let x = data();
        let mut distances = DistanceTable::default();
        let mut cache = KernelCache::new(Kernel::Linear, &x, &mut distances);
        let row = cache.row(3).to_vec();
        for (j, v) in row.iter().enumerate() {
            assert_eq!(*v, (3 * j) as f64);
        }
    }

    #[test]
    fn rows_pair_matches_single_rows() {
        let x = data();
        let mut distances = DistanceTable::default();
        let mut cache = KernelCache::new(Kernel::rbf(0.5), &x, &mut distances);
        let (a, b) = cache.rows(1, 4);
        let (a, b) = (a.to_vec(), b.to_vec());
        assert_eq!(cache.row(1), a.as_slice());
        assert_eq!(cache.row(4), b.as_slice());
        let (c, d) = cache.rows(2, 2);
        assert_eq!(c, d);
    }

    #[test]
    fn diagonal_matches_row() {
        let x = data();
        let mut distances = DistanceTable::default();
        let mut cache = KernelCache::new(Kernel::rbf(0.5), &x, &mut distances);
        for i in 0..x.len() {
            let d = cache.diagonal(i);
            assert!((cache.row(i)[i] - d).abs() < 1e-15);
        }
    }

    #[test]
    fn distance_rows_are_squared_distances() {
        let x = data();
        let mut distances = DistanceTable::default();
        let row = distances.row(2, &x).to_vec();
        for (j, d2) in row.iter().enumerate() {
            let diff = 2.0 - j as f64;
            assert!((d2 - diff * diff).abs() < 1e-12);
        }
        assert_eq!(distances.rows.iter().flatten().count(), 1);
    }

    #[test]
    fn rbf_rows_match_kernel_eval_bit_for_bit() {
        // exp(−γ d²) over a table row is evaluated exactly as Kernel::eval
        // evaluates it, so solves through the table reproduce the models
        // of direct evaluation.
        let x: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![i as f64 * 0.3, (i * i) as f64])
            .collect();
        let kernel = Kernel::rbf(0.37);
        let mut distances = DistanceTable::default();
        let mut cache = KernelCache::new(kernel, &x, &mut distances);
        for i in 0..x.len() {
            let direct: Vec<f64> = x.iter().map(|xj| kernel.eval(&x[i], xj)).collect();
            assert_eq!(cache.row(i), direct.as_slice(), "row {i}");
        }
    }

    #[test]
    fn distance_rows_outlive_one_solve() {
        // A second γ over the same table reuses the first solve's rows.
        let x = data();
        let mut distances = DistanceTable::default();
        KernelCache::new(Kernel::rbf(0.5), &x, &mut distances).rows(0, 1);
        assert_eq!(distances.rows.iter().flatten().count(), 2);
        let mut cache = KernelCache::new(Kernel::rbf(1.0), &x, &mut distances);
        let k01 = cache.row(0)[1];
        assert_eq!(k01, Kernel::rbf(1.0).eval(&x[0], &x[1]));
        assert_eq!(distances.rows.iter().flatten().count(), 2);
    }

    #[test]
    fn non_rbf_kernels_leave_the_distance_table_empty() {
        let x = data();
        let mut distances = DistanceTable::default();
        KernelCache::new(Kernel::Linear, &x, &mut distances).row(3);
        assert!(
            distances.rows.iter().all(Option::is_none),
            "linear kernels must not fill d² rows"
        );
    }
}
