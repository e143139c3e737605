//! Sequential minimal optimisation for the C-SVM dual.
//!
//! Solves (in LIBSVM's minimisation form)
//!
//! ```text
//! min  ½ αᵀQα − eᵀα     s.t.  yᵀα = 0,  0 ≤ αᵢ ≤ C_{yᵢ}
//! ```
//!
//! where `Q_ij = y_i y_j K(x_i, x_j)`, by repeatedly optimising the maximal
//! violating pair (working-set selection WSS1 of Fan, Chen & Lin). This is
//! the optimiser behind eq. (3) of the paper. Kernel rows come from a
//! per-solve [`KernelCache`]; RBF rows are built from a [`DistanceTable`]
//! the caller may share across solves on the same vectors.

use crate::{DistanceTable, Kernel, KernelCache};

/// Solver parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoParams {
    /// Penalty for positive-class slack (`C₊`).
    pub c_pos: f64,
    /// Penalty for negative-class slack (`C₋`).
    pub c_neg: f64,
    /// KKT violation tolerance (stopping threshold).
    pub eps: f64,
    /// Hard iteration cap; `0` means the LIBSVM-style default
    /// `max(10⁷, 100·n)`.
    pub max_iter: u64,
}

impl Default for SmoParams {
    fn default() -> Self {
        SmoParams {
            c_pos: 1.0,
            c_neg: 1.0,
            eps: 1e-3,
            max_iter: 0,
        }
    }
}

/// The solved dual problem.
#[derive(Debug, Clone, PartialEq)]
pub struct SmoSolution {
    /// Lagrange multipliers α (one per training vector).
    pub alpha: Vec<f64>,
    /// Bias term ρ; the decision function is `Σ αᵢ yᵢ K(xᵢ, x) − ρ`.
    pub rho: f64,
    /// Number of working-set iterations performed.
    pub iterations: u64,
    /// `true` if the KKT gap dropped below `eps` before the iteration cap.
    pub converged: bool,
    /// Dual objective value `½ αᵀQα − eᵀα` at the solution.
    pub objective: f64,
}

const TAU: f64 = 1e-12;

/// Runs SMO on the given training set.
///
/// `y` must contain only `+1.0` / `−1.0` (validated by the caller,
/// [`crate::SvmTrainer`]).
pub fn solve(x: &[Vec<f64>], y: &[f64], kernel: Kernel, params: &SmoParams) -> SmoSolution {
    solve_with_cache(x, y, kernel, params, &mut DistanceTable::default())
}

/// Like [`solve`], with RBF kernel rows built from the squared-distance
/// rows of `distances`, which it fills on first use and keeps. Successive
/// solves on the same `x` — the iterative `(C, γ)` rounds — lend it the
/// same table and share the distance work. The solution is bit-identical
/// to [`solve`]'s.
pub fn solve_with_cache(
    x: &[Vec<f64>],
    y: &[f64],
    kernel: Kernel,
    params: &SmoParams,
    distances: &mut DistanceTable,
) -> SmoSolution {
    let n = x.len();
    debug_assert_eq!(n, y.len());
    if n == 0 {
        return SmoSolution {
            alpha: Vec::new(),
            rho: 0.0,
            iterations: 0,
            converged: true,
            objective: 0.0,
        };
    }

    let mut cache = KernelCache::new(kernel, x, distances);
    let qd: Vec<f64> = (0..n).map(|i| cache.diagonal(i)).collect();

    let c_of = |i: usize| {
        if y[i] > 0.0 {
            params.c_pos
        } else {
            params.c_neg
        }
    };

    let mut alpha = vec![0.0f64; n];
    // G_i = (Qα)_i − 1; starts at −1 since α = 0.
    let mut grad = vec![-1.0f64; n];

    let max_iter = if params.max_iter == 0 {
        10_000_000u64.max(100 * n as u64)
    } else {
        params.max_iter
    };

    let mut iterations = 0u64;
    let mut converged = false;
    while iterations < max_iter {
        // Working-set selection WSS2 (Fan, Chen & Lin 2005 — LIBSVM's
        // default): i maximises the violation over I_up; j minimises the
        // second-order gain −b²/a over the violating members of I_low.
        let mut g_max = f64::NEG_INFINITY; // max over I_up of −y G
        let mut g_min = f64::INFINITY; // min over I_low of −y G
        let mut i_sel = usize::MAX;
        for t in 0..n {
            let minus_yg = -y[t] * grad[t];
            let in_up = (y[t] > 0.0 && alpha[t] < c_of(t)) || (y[t] < 0.0 && alpha[t] > 0.0);
            let in_low = (y[t] < 0.0 && alpha[t] < c_of(t)) || (y[t] > 0.0 && alpha[t] > 0.0);
            if in_up && minus_yg > g_max {
                g_max = minus_yg;
                i_sel = t;
            }
            if in_low && minus_yg < g_min {
                g_min = minus_yg;
            }
        }
        if g_max - g_min < params.eps || i_sel == usize::MAX || !g_min.is_finite() {
            converged = true;
            break;
        }
        let i = i_sel;
        let row_i_for_select = cache.row(i);
        let mut j_sel = usize::MAX;
        let mut best_gain = f64::INFINITY; // minimising −b²/a
        for t in 0..n {
            let in_low = (y[t] < 0.0 && alpha[t] < c_of(t)) || (y[t] > 0.0 && alpha[t] > 0.0);
            if !in_low {
                continue;
            }
            let minus_yg = -y[t] * grad[t];
            let b = g_max - minus_yg;
            if b <= 0.0 {
                continue; // not a violating pair with i
            }
            // a = K_ii + K_tt − 2 K_it: the curvature along the feasible
            // update direction (label factors cancel), floored at τ.
            let a = (qd[i] + qd[t] - 2.0 * row_i_for_select[t]).max(TAU);
            let gain = -(b * b) / a;
            if gain < best_gain {
                best_gain = gain;
                j_sel = t;
            }
        }
        if j_sel == usize::MAX {
            converged = true;
            break;
        }
        iterations += 1;

        let j = j_sel;
        let k_ij = row_i_for_select[j];
        let (old_ai, old_aj) = (alpha[i], alpha[j]);
        let (ci, cj) = (c_of(i), c_of(j));

        if y[i] != y[j] {
            let quad = (qd[i] + qd[j] + 2.0 * k_ij).max(TAU);
            let delta = (-grad[i] - grad[j]) / quad;
            let diff = alpha[i] - alpha[j];
            alpha[i] += delta;
            alpha[j] += delta;
            if diff > 0.0 {
                if alpha[j] < 0.0 {
                    alpha[j] = 0.0;
                    alpha[i] = diff;
                }
            } else if alpha[i] < 0.0 {
                alpha[i] = 0.0;
                alpha[j] = -diff;
            }
            if diff > ci - cj {
                if alpha[i] > ci {
                    alpha[i] = ci;
                    alpha[j] = ci - diff;
                }
            } else if alpha[j] > cj {
                alpha[j] = cj;
                alpha[i] = cj + diff;
            }
        } else {
            let quad = (qd[i] + qd[j] - 2.0 * k_ij).max(TAU);
            let delta = (grad[i] - grad[j]) / quad;
            let sum = alpha[i] + alpha[j];
            alpha[i] -= delta;
            alpha[j] += delta;
            if sum > ci {
                if alpha[i] > ci {
                    alpha[i] = ci;
                    alpha[j] = sum - ci;
                }
            } else if alpha[j] < 0.0 {
                alpha[j] = 0.0;
                alpha[i] = sum;
            }
            if sum > cj {
                if alpha[j] > cj {
                    alpha[j] = cj;
                    alpha[i] = sum - cj;
                }
            } else if alpha[i] < 0.0 {
                alpha[i] = 0.0;
                alpha[j] = sum;
            }
        }

        // Gradient update: G_t += Q_ti Δα_i + Q_tj Δα_j.
        let dai = alpha[i] - old_ai;
        let daj = alpha[j] - old_aj;
        if dai != 0.0 || daj != 0.0 {
            let (row_i, row_j) = cache.rows(i, j);
            for t in 0..n {
                grad[t] += y[t] * y[i] * row_i[t] * dai + y[t] * y[j] * row_j[t] * daj;
            }
        }
    }

    let rho = compute_rho(&alpha, &grad, y, params);
    let objective = 0.5
        * alpha
            .iter()
            .zip(&grad)
            .map(|(a, g)| a * (g - 1.0))
            .sum::<f64>();

    SmoSolution {
        alpha,
        rho,
        iterations,
        converged,
        objective,
    }
}

/// Bias from the KKT conditions: average of `y_t G_t` over free support
/// vectors, or the midpoint of the bound-derived interval when none is free.
fn compute_rho(alpha: &[f64], grad: &[f64], y: &[f64], params: &SmoParams) -> f64 {
    let mut upper = f64::INFINITY;
    let mut lower = f64::NEG_INFINITY;
    let mut sum_free = 0.0;
    let mut nr_free = 0usize;
    for t in 0..alpha.len() {
        let c_t = if y[t] > 0.0 {
            params.c_pos
        } else {
            params.c_neg
        };
        let yg = y[t] * grad[t];
        if (alpha[t] - c_t).abs() < TAU {
            if y[t] < 0.0 {
                upper = upper.min(yg);
            } else {
                lower = lower.max(yg);
            }
        } else if alpha[t] < TAU {
            if y[t] > 0.0 {
                upper = upper.min(yg);
            } else {
                lower = lower.max(yg);
            }
        } else {
            nr_free += 1;
            sum_free += yg;
        }
    }
    if nr_free > 0 {
        sum_free / nr_free as f64
    } else if upper.is_finite() && lower.is_finite() {
        (upper + lower) / 2.0
    } else if upper.is_finite() {
        // Single-class (all +1) degenerate case: any ρ ≤ upper satisfies the
        // KKT conditions; take the boundary value.
        upper
    } else if lower.is_finite() {
        lower
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(x: &[Vec<f64>], y: &[f64], sol: &SmoSolution, kernel: Kernel, q: &[f64]) -> f64 {
        x.iter()
            .zip(y)
            .zip(&sol.alpha)
            .map(|((xi, yi), ai)| ai * yi * kernel.eval(xi, q))
            .sum::<f64>()
            - sol.rho
    }

    #[test]
    fn two_point_linear_max_margin() {
        // x = 0 (−1) and x = 1 (+1), linear kernel, large C: the maximum
        // margin separator is f(x) = 2x − 1, so α₀ = α₁ = 2 and ρ = 1.
        let x = vec![vec![0.0], vec![1.0]];
        let y = vec![-1.0, 1.0];
        let params = SmoParams {
            c_pos: 1e6,
            c_neg: 1e6,
            ..Default::default()
        };
        let sol = solve(&x, &y, Kernel::Linear, &params);
        assert!(sol.converged);
        assert!((sol.alpha[0] - 2.0).abs() < 1e-6, "alpha = {:?}", sol.alpha);
        assert!((sol.alpha[1] - 2.0).abs() < 1e-6);
        let f_mid = decision(&x, &y, &sol, Kernel::Linear, &[0.5]);
        assert!(f_mid.abs() < 1e-6, "boundary at midpoint, got {f_mid}");
        assert!(decision(&x, &y, &sol, Kernel::Linear, &[1.0]) > 0.99);
        assert!(decision(&x, &y, &sol, Kernel::Linear, &[0.0]) < -0.99);
    }

    #[test]
    fn xor_with_rbf() {
        let x = vec![
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
        ];
        let y = vec![1.0, 1.0, -1.0, -1.0];
        let params = SmoParams {
            c_pos: 100.0,
            c_neg: 100.0,
            ..Default::default()
        };
        let kernel = Kernel::rbf(1.0);
        let sol = solve(&x, &y, kernel, &params);
        assert!(sol.converged);
        for (xi, yi) in x.iter().zip(&y) {
            let f = decision(&x, &y, &sol, kernel, xi);
            assert!(f * yi > 0.0, "point {xi:?} misclassified ({f})");
        }
    }

    #[test]
    fn equality_constraint_holds() {
        let x: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 7) as f64, (i % 3) as f64])
            .collect();
        let y: Vec<f64> = (0..20)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let sol = solve(&x, &y, Kernel::rbf(0.5), &SmoParams::default());
        let sum: f64 = sol.alpha.iter().zip(&y).map(|(a, t)| a * t).sum();
        assert!(sum.abs() < 1e-9, "Σ αᵢ yᵢ = {sum}");
    }

    #[test]
    fn box_constraints_hold() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![(i as f64).sin()]).collect();
        let y: Vec<f64> = (0..30)
            .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let params = SmoParams {
            c_pos: 2.0,
            c_neg: 0.5,
            ..Default::default()
        };
        let sol = solve(&x, &y, Kernel::rbf(2.0), &params);
        for (a, t) in sol.alpha.iter().zip(&y) {
            let c = if *t > 0.0 { 2.0 } else { 0.5 };
            assert!(*a >= -1e-12 && *a <= c + 1e-9, "α = {a} outside [0, {c}]");
        }
    }

    #[test]
    fn single_class_gives_zero_alphas() {
        // With only +1 labels, yᵀα = 0 forces α = 0.
        let x = vec![vec![0.0], vec![1.0]];
        let y = vec![1.0, 1.0];
        let sol = solve(&x, &y, Kernel::Linear, &SmoParams::default());
        assert!(sol.alpha.iter().all(|a| *a == 0.0));
        // ρ midpoint makes the decision positive everywhere.
        assert!(decision(&x, &y, &sol, Kernel::Linear, &[5.0]) > 0.0);
    }

    #[test]
    fn empty_input() {
        let sol = solve(&[], &[], Kernel::Linear, &SmoParams::default());
        assert!(sol.converged);
        assert!(sol.alpha.is_empty());
    }

    #[test]
    fn objective_decreases_with_more_freedom() {
        // Larger C can only lower (or keep) the optimal objective.
        let x: Vec<Vec<f64>> = (0..12).map(|i| vec![(i % 5) as f64 / 4.0]).collect();
        let y: Vec<f64> = (0..12)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let lo = solve(
            &x,
            &y,
            Kernel::rbf(1.0),
            &SmoParams {
                c_pos: 0.1,
                c_neg: 0.1,
                ..Default::default()
            },
        );
        let hi = solve(
            &x,
            &y,
            Kernel::rbf(1.0),
            &SmoParams {
                c_pos: 10.0,
                c_neg: 10.0,
                ..Default::default()
            },
        );
        assert!(hi.objective <= lo.objective + 1e-9);
    }

    #[test]
    fn iteration_cap_respected() {
        let x: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i as f64 * 0.7).sin(), (i as f64).cos()])
            .collect();
        let y: Vec<f64> = (0..40)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let sol = solve(
            &x,
            &y,
            Kernel::rbf(10.0),
            &SmoParams {
                c_pos: 1e4,
                c_neg: 1e4,
                max_iter: 3,
                ..Default::default()
            },
        );
        assert!(sol.iterations <= 3);
    }
}
