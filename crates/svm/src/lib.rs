//! Two-class soft-margin C-SVM with an RBF kernel, trained by sequential
//! minimal optimisation (SMO).
//!
//! This crate is the from-scratch replacement for LIBSVM \[20\] used by the
//! paper. It solves the dual quadratic program of eq. (3):
//!
//! ```text
//! max f(a) = Σ aₙ − ½ Σₙ Σₘ aₙ aₘ tₙ tₘ k(xₙ, xₘ)
//! s.t.  0 ≤ aₙ ≤ C,   Σ aₙ tₙ = 0,
//!       k(xₙ, xₘ) = exp(−γ ‖xₙ − xₘ‖²)
//! ```
//!
//! using SMO with LIBSVM's second-order working-set selection (WSS2), a
//! kernel row cache, per-class penalty weights (for imbalanced data), and
//! optional min-max feature scaling.
//!
//! For the clip-evaluation hot loop, a trained model can be
//! [compiled](SvmModel::compile) into a flattened [`CompiledModel`] and
//! scored through a [`BatchEvaluator`] with reusable scratch — identical
//! decisions, several times the throughput (see the [`eval`-module
//! docs](CompiledModel)).
//!
//! # Examples
//!
//! ```
//! use hotspot_svm::{Kernel, SvmTrainer};
//!
//! // A linearly separable toy problem.
//! let x = vec![vec![0.0], vec![0.2], vec![0.8], vec![1.0]];
//! let y = vec![-1.0, -1.0, 1.0, 1.0];
//! let model = SvmTrainer::new(Kernel::rbf(0.5))
//!     .c(10.0)
//!     .train(&x, &y)?;
//! assert_eq!(model.predict(&[0.1]), -1.0);
//! assert_eq!(model.predict(&[0.9]), 1.0);
//! # Ok::<(), hotspot_svm::TrainError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod eval;
mod kernel;
mod model;
mod probability;
mod scale;
mod smo;

pub use cache::{DistanceTable, KernelCache};
pub use eval::{BatchEvaluator, CompiledModel};
pub use kernel::Kernel;
pub use model::{SvmModel, SvmTrainer, TrainError};
pub use probability::PlattScaler;
pub use scale::FeatureScaler;
pub use smo::{solve, solve_with_cache, SmoParams, SmoSolution};
