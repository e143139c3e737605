//! Sequential minimal optimisation for the C-SVM dual.
//!
//! Solves (in LIBSVM's minimisation form)
//!
//! ```text
//! min  ½ αᵀQα − eᵀα     s.t.  yᵀα = 0,  0 ≤ αᵢ ≤ C_{yᵢ}
//! ```
//!
//! where `Q_ij = y_i y_j K(x_i, x_j)`, by repeatedly optimising a pair
//! chosen by the second-order working-set selection WSS2 of Fan, Chen &
//! Lin (LIBSVM's default): `i` is the maximal violator in `I_up`, `j` the
//! violating member of `I_low` with the largest second-order gain. This is
//! the optimiser behind eq. (3) of the paper. Kernel rows come from a
//! per-solve [`KernelCache`]; RBF rows are built from a [`DistanceTable`]
//! the caller may share across solves on the same vectors.
//!
//! An iteration costs two passes over the `n` vectors. The index sets are
//! kept in step with α (only `i` and `j` move), the solver keeps
//! `mg_t = −y_t G_t` rather than the gradient `G`, and the pass that
//! updates `mg` also selects the next iteration's `i`. Labels are exactly
//! ±1, so every sign folded into `mg` is exact and the solution is the
//! one a plain loop over `G` computes, bit for bit (DESIGN.md, "SMO
//! iterations").

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

    // C_t and the index-set memberships, refreshed only for the two
    // multipliers a step moves.
    let c: Vec<f64> = y
        .iter()
        .map(|&t| if t > 0.0 { params.c_pos } else { params.c_neg })
        .collect();
    let mut alpha = vec![0.0f64; n];
    let mut status: Vec<Status> = y
        .iter()
        .zip(&c)
        .map(|(&t, &c_t)| Status::of(t, 0.0, c_t))
        .collect();
    // mg_t = −y_t G_t, where G_t = (Qα)_t − 1 starts at −1 since α = 0.
    let mut mg: Vec<f64> = y.to_vec();

    let max_iter = if params.max_iter == 0 {
        10_000_000u64.max(100 * n as u64)
    } else {
        params.max_iter
    };

    let mut sel = Selection::default();
    for (t, (&m, &s)) in mg.iter().zip(&status).enumerate() {
        sel.visit(t, m, s);
    }
    let mut iterations = 0u64;
    let mut converged = false;
    while iterations < max_iter {
        // Working-set selection WSS2 (Fan, Chen & Lin 2005 — LIBSVM's
        // default): i maximises the violation over I_up (chosen by the
        // previous pass over mg); j minimises the second-order gain −b²/a
        // over the violating members of I_low.
        let Selection { g_max, g_min, i } = sel;
        if g_max - g_min < params.eps || i == usize::MAX || !g_min.is_finite() {
            converged = true;
            break;
        }
        let row_i_for_select = cache.row(i);
        let mut j_sel = usize::MAX;
        let mut best_gain = f64::INFINITY; // minimising −b²/a
        let candidates = status.iter().zip(&mg).zip(qd.iter().zip(row_i_for_select));
        for (t, ((s, &m), (&qd_t, &k_it))) in candidates.enumerate() {
            if !s.low {
                continue;
            }
            let b = g_max - m;
            if b <= 0.0 {
                continue; // not a violating pair with i
            }
            // a = K_ii + K_tt − 2 K_it: the curvature along the feasible
            // update direction (label factors cancel), floored at τ.
            let a = (qd[i] + qd_t - 2.0 * k_it).max(TAU);
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
        let (ci, cj) = (c[i], c[j]);
        // G_i and G_j, but for the sign of a zero: each step's numerator
        // below is ±b ≠ 0, so it has the bits it would have from G.
        let (grad_i, grad_j) = (-y[i] * mg[i], -y[j] * mg[j]);

        if y[i] != y[j] {
            let quad = (qd[i] + qd[j] + 2.0 * k_ij).max(TAU);
            let delta = (-grad_i - grad_j) / quad;
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
            let delta = (grad_i - grad_j) / quad;
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
        status[i] = Status::of(y[i], alpha[i], ci);
        status[j] = Status::of(y[j], alpha[j], cj);

        // Gradient update G_t += Q_ti Δα_i + Q_tj Δα_j, as
        // mg_t += K_ti (−y_i Δα_i) + K_tj (−y_j Δα_j), fused with the next
        // iteration's i-selection. With α unchanged, so are mg and the
        // index sets, and the selection just made stands.
        let dai = alpha[i] - old_ai;
        let daj = alpha[j] - old_aj;
        if dai != 0.0 || daj != 0.0 {
            let (wi, wj) = (-y[i] * dai, -y[j] * daj);
            let (row_i, row_j) = cache.rows(i, j);
            sel = Selection::default();
            let columns = mg.iter_mut().zip(&status).zip(row_i.iter().zip(row_j));
            for (t, ((m, &s), (&k_ti, &k_tj))) in columns.enumerate() {
                *m += k_ti * wi + k_tj * wj;
                sel.visit(t, *m, s);
            }
        }
    }

    // G_t = −y_t mg_t. G starts at −1 and only ever has terms added, and
    // a sum is −0 only when both terms are, so an exact zero of G is +0:
    // a zero mg maps to +0, not to −y_t · 0.
    let grad: Vec<f64> = mg
        .iter()
        .zip(y)
        .map(|(&m, &t)| if m == 0.0 { 0.0 } else { -t * m })
        .collect();
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

/// One multiplier's index-set memberships, LIBSVM's `alpha_status`:
/// `t ∈ I_up` when α_t can move to raise `y_t α_t`, `t ∈ I_low` when it
/// can move to lower it.
#[derive(Debug, Clone, Copy)]
struct Status {
    up: bool,
    low: bool,
}

impl Status {
    fn of(y: f64, alpha: f64, c: f64) -> Self {
        Status {
            up: (y > 0.0 && alpha < c) || (y < 0.0 && alpha > 0.0),
            low: (y < 0.0 && alpha < c) || (y > 0.0 && alpha > 0.0),
        }
    }
}

/// The first half of a WSS2 selection: `i` is the first index of I_up
/// with the largest `mg`, `g_max` that value, and `g_min` the smallest
/// `mg` over I_low.
#[derive(Debug, Clone, Copy)]
struct Selection {
    g_max: f64,
    g_min: f64,
    i: usize,
}

impl Default for Selection {
    fn default() -> Self {
        Selection {
            g_max: f64::NEG_INFINITY,
            g_min: f64::INFINITY,
            i: usize::MAX,
        }
    }
}

impl Selection {
    /// Folds in index `t`, visited in increasing order: strict
    /// comparisons keep the first of tied candidates. A vector outside
    /// `I_up` competes as −∞, which never beats `g_max`, and one outside
    /// `I_low` as +∞: a select in place of an unpredictable branch on the
    /// membership flags.
    #[inline(always)]
    fn visit(&mut self, t: usize, mg: f64, s: Status) {
        let up = if s.up { mg } else { f64::NEG_INFINITY };
        if up > self.g_max {
            self.g_max = up;
            self.i = t;
        }
        let low = if s.low { mg } else { f64::INFINITY };
        if low < self.g_min {
            self.g_min = low;
        }
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
