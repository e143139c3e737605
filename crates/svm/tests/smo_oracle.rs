//! Property tests pinning `hotspot_svm::solve_with_cache` to the plain SMO
//! loop it replaced. The oracle below recomputes both index sets for every
//! vector in both selection passes, keeps the gradient `G` itself and
//! updates it in a pass of its own; production keeps the index sets in
//! step with α, keeps `−y G` and fuses its update with the next
//! `i`-selection. Labels are exactly ±1, so both must agree bit for bit:
//! α, ρ, objective, iteration count and convergence flag.

use hotspot_svm::{solve_with_cache, DistanceTable, Kernel, KernelCache, SmoParams, SmoSolution};
use proptest::prelude::*;
use proptest::{TestCaseError, TestRng};

const TAU: f64 = 1e-12;

/// The solver as it was before the index sets and the fused update: one
/// pass for `i`, one for `j`, one for the gradient, each re-deriving the
/// index sets from α.
fn oracle_solve(
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

/// Fails unless `got` equals `want` bit for bit.
fn assert_identical(got: &SmoSolution, want: &SmoSolution) -> Result<(), TestCaseError> {
    let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(got.iterations, want.iterations);
    prop_assert_eq!(got.converged, want.converged);
    prop_assert_eq!(
        bits(&got.alpha),
        bits(&want.alpha),
        "α {:?} vs {:?}",
        got.alpha,
        want.alpha
    );
    prop_assert_eq!(
        got.rho.to_bits(),
        want.rho.to_bits(),
        "ρ {} vs {}",
        got.rho,
        want.rho
    );
    prop_assert_eq!(
        got.objective.to_bits(),
        want.objective.to_bits(),
        "objective {} vs {}",
        got.objective,
        want.objective
    );
    Ok(())
}

/// Solves once with each solver, each on a fresh distance table.
fn check(
    x: &[Vec<f64>],
    y: &[f64],
    kernel: Kernel,
    params: &SmoParams,
) -> Result<(), TestCaseError> {
    let got = solve_with_cache(x, y, kernel, params, &mut DistanceTable::default());
    let want = oracle_solve(x, y, kernel, params, &mut DistanceTable::default());
    assert_identical(&got, &want)
}

fn label(positive: bool) -> f64 {
    if positive {
        1.0
    } else {
        -1.0
    }
}

/// One of `values`, uniformly.
fn pick<T: Copy>(values: &[T], rng: &mut TestRng) -> T {
    values[(0..values.len()).generate(rng)]
}

/// The linear kernel or an RBF kernel over four decades of γ.
struct AnyKernel;

impl Strategy for AnyKernel {
    type Value = Kernel;
    fn generate(&self, rng: &mut TestRng) -> Kernel {
        let kernels = [
            Kernel::Linear,
            Kernel::rbf(0.01),
            Kernel::rbf(0.1),
            Kernel::rbf(1.0),
            Kernel::rbf(8.0),
        ];
        pick(&kernels, rng)
    }
}

/// Penalties drawn independently per class, so C₊ ≠ C₋ in most cases,
/// up to 10¹⁶; iteration caps from 1 to 2,000. A tolerance of 0 or 10⁻⁹
/// runs solves on until steps fall below one ulp of α and leave it
/// unchanged.
struct AnyParams;

impl Strategy for AnyParams {
    type Value = SmoParams;
    fn generate(&self, rng: &mut TestRng) -> SmoParams {
        let cs = [0.05, 1.0, 10.0, 1000.0, 1e8, 1e16];
        SmoParams {
            c_pos: pick(&cs, rng),
            c_neg: pick(&cs, rng),
            eps: pick(&[1e-3, 1e-3, 1e-9, 0.0], rng),
            max_iter: pick(&[1, 2, 3, 7, 40, 2_000, 2_000], rng),
        }
    }
}

/// 1 to `max_n` labelled vectors of 1–3 coordinates on a grid of
/// `1/steps`. Coarse grids repeat vectors, so duplicates (with equal or
/// opposite labels) and tied kernel entries are common.
struct Problem {
    max_n: usize,
}

impl Strategy for Problem {
    type Value = (Vec<Vec<f64>>, Vec<f64>);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let dim = (1usize..4).generate(rng);
        let steps = pick(&[1u32, 2, 4, 1024], rng);
        let n = (1..self.max_n + 1).generate(rng);
        (0..n)
            .map(|_| {
                let v = (0..dim)
                    .map(|_| f64::from((0..steps + 1).generate(rng)) / f64::from(steps))
                    .collect();
                (v, label(proptest::bool::ANY.generate(rng)))
            })
            .unzip()
    }
}

/// The regime of SMO's long tail in detector training: a first-round fit
/// (C = 1000, γ = 0.01) of 1–7 near-duplicate hotspots against 40–55
/// non-hotspots, with features in `[0, 1]` as min-max scaling leaves
/// them. Some hotspots repeat the first one exactly, as upsampling does.
struct Tail;

impl Strategy for Tail {
    type Value = (Vec<Vec<f64>>, Vec<f64>);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let dim = (8usize..40).generate(rng);
        let positives = (1usize..8).generate(rng);
        let negatives = (40usize..56).generate(rng);
        let unit = |rng: &mut TestRng| -> Vec<f64> {
            (0..dim).map(|_| (0.0f64..1.0).generate(rng)).collect()
        };
        let base = unit(rng);
        let mut x: Vec<Vec<f64>> = (0..positives)
            .map(|_| {
                let exact = proptest::bool::ANY.generate(rng);
                base.iter()
                    .map(|&b| {
                        let d = if exact {
                            0.0
                        } else {
                            (-1e-3f64..1e-3).generate(rng)
                        };
                        (b + d).clamp(0.0, 1.0)
                    })
                    .collect()
            })
            .collect();
        x.extend((0..negatives).map(|_| unit(rng)));
        let mut y = vec![1.0; positives];
        y.resize(positives + negatives, -1.0);
        (x, y)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn small_problems_match_the_oracle(
        (x, y) in Problem { max_n: 24 },
        kernel in AnyKernel,
        params in AnyParams,
    ) {
        check(&x, &y, kernel, &params)?;
    }

    #[test]
    fn single_class_problems_match_the_oracle(
        (x, _) in Problem { max_n: 12 },
        positive in proptest::bool::ANY,
        kernel in AnyKernel,
        params in AnyParams,
    ) {
        let y = vec![label(positive); x.len()];
        check(&x, &y, kernel, &params)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The iterative rounds double γ on one shared distance table, as
    /// `SvmTrainer::train_with_cache` lends it; the oracle starts each
    /// round on a fresh table.
    #[test]
    fn long_tail_rounds_match_the_oracle((x, y) in Tail, cap in 0usize..4) {
        let params = SmoParams {
            c_pos: 1000.0,
            c_neg: 1000.0,
            max_iter: [0, 0, 5, 500][cap],
            ..Default::default()
        };
        let mut shared = DistanceTable::default();
        for gamma in [0.01, 0.02] {
            let kernel = Kernel::rbf(gamma);
            let got = solve_with_cache(&x, &y, kernel, &params, &mut shared);
            let want = oracle_solve(&x, &y, kernel, &params, &mut DistanceTable::default());
            assert_identical(&got, &want)?;
        }
    }
}

/// Every one- and two-vector problem over a few coordinates, labels and
/// penalties, duplicates included. Among them, `x = −1, 1` with opposite
/// labels under the linear kernel at C = 0.5 ends with both multipliers
/// at C and both gradients exactly zero, where ρ must come out +0. Some
/// opposite-label linear pairs at C = 1000 never converge and would run
/// to the automatic cap of 10⁷ iterations, so the grid caps them lower.
#[test]
fn one_and_two_vectors_match_the_oracle() {
    let coords = [-1.0, 0.0, 0.5, 1.0];
    let cs = [0.05, 0.5, 1000.0];
    let kernels = [Kernel::Linear, Kernel::rbf(0.01), Kernel::rbf(1.0)];
    let mut pairs = 0;
    for kernel in kernels {
        for (c_pos, c_neg) in cs.iter().flat_map(|&a| cs.iter().map(move |&b| (a, b))) {
            let params = SmoParams {
                c_pos,
                c_neg,
                max_iter: 5_000,
                ..Default::default()
            };
            for a in coords {
                for ya in [true, false] {
                    check(&[vec![a]], &[label(ya)], kernel, &params).unwrap();
                    for b in coords {
                        for yb in [true, false] {
                            let (x, y) = ([vec![a], vec![b]], [label(ya), label(yb)]);
                            check(&x, &y, kernel, &params).unwrap();
                            pairs += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(pairs, 3 * 9 * 8 * 8);
}

/// Some tail-regime problems do run long, so the comparison covers
/// solves thousands of iterations deep, not only short ones.
#[test]
fn the_tail_regime_runs_thousands_of_iterations() {
    let params = SmoParams {
        c_pos: 1000.0,
        c_neg: 1000.0,
        ..Default::default()
    };
    let deepest = (0..24)
        .map(|case| {
            let (x, y) = Tail.generate(&mut TestRng::for_case("tail depth", case));
            let mut distances = DistanceTable::default();
            solve_with_cache(&x, &y, Kernel::rbf(0.01), &params, &mut distances).iterations
        })
        .max()
        .unwrap();
    assert!(
        deepest >= 1000,
        "deepest tail solve took {deepest} iterations"
    );
}
