//! Kernel row caches for the SMO solver.
//!
//! SMO repeatedly needs full kernel rows `K(i, ·)` for the two working-set
//! indices and for gradient updates. For the paper's per-cluster training
//! sets (hundreds of patterns) the whole matrix fits in memory, so a solve
//! keeps every row it has computed.
//!
//! Two caches live here:
//!
//! - [`KernelCache`] — the private per-solve row table every SMO call owns.
//! - [`SharedKernelCache`] — a `parking_lot`-guarded cache of **squared
//!   distance** rows `d²(i, ·) = ‖xᵢ − x·‖²`. The iterative learning loop
//!   doubles γ every round but trains on the same vectors, and the RBF
//!   kernel is `K(i, j) = exp(−γ d²(i, j))`, so the γ-independent distances
//!   are what's worth sharing: rounds trained concurrently (and sequential
//!   re-trainings) reuse each other's rows instead of recomputing the
//!   `O(n² · dim)` distance work per round.

use crate::Kernel;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

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

/// A thread-safe LRU cache of squared-distance rows over a fixed training
/// set, shared by concurrent SMO solves on the same vectors.
///
/// Callers must pass the **same** `x` (same order, same scaling) to every
/// [`row`](SharedKernelCache::row) call; the cache is keyed by row index
/// only. [`crate::SvmTrainer::train_with_cache`] upholds this because its
/// min-max feature scaling is a deterministic function of the training
/// vectors, so every round of iterative learning scales them identically.
#[derive(Debug, Default)]
pub struct SharedKernelCache {
    state: Mutex<SharedState>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct SharedState {
    rows: HashMap<usize, Arc<Vec<f64>>>,
    lru: Vec<usize>, // most recent last
    hits: u64,
    misses: u64,
}

impl SharedKernelCache {
    /// A cache holding at most `capacity_rows` distance rows (floored at 2;
    /// pass the training-set size to cache the full matrix).
    pub fn new(capacity_rows: usize) -> Self {
        SharedKernelCache {
            state: Mutex::new(SharedState::default()),
            capacity: capacity_rows.max(2),
        }
    }

    /// The squared-distance row `d²(i, ·)` over `x`, computed and cached on
    /// miss. The row is returned as an `Arc` so concurrent solves share one
    /// allocation.
    pub fn row(&self, i: usize, x: &[Vec<f64>]) -> Arc<Vec<f64>> {
        if let Some(row) = self.lookup(i) {
            return row;
        }
        // Compute outside the lock: rows are O(n · dim) work and concurrent
        // rounds would serialise on the mutex otherwise. A racing thread may
        // duplicate the computation; the insert below is idempotent.
        let xi = &x[i];
        let row: Arc<Vec<f64>> = Arc::new(x.iter().map(|xj| squared_distance(xi, xj)).collect());
        let mut state = self.state.lock();
        if let Some(existing) = state.rows.get(&i) {
            return Arc::clone(existing);
        }
        if state.rows.len() >= self.capacity {
            let victim = state.lru.remove(0);
            state.rows.remove(&victim);
        }
        state.rows.insert(i, Arc::clone(&row));
        state.lru.push(i);
        row
    }

    fn lookup(&self, i: usize) -> Option<Arc<Vec<f64>>> {
        let mut state = self.state.lock();
        if let Some(row) = state.rows.get(&i).map(Arc::clone) {
            state.hits += 1;
            if let Some(pos) = state.lru.iter().position(|&t| t == i) {
                state.lru.remove(pos);
            }
            state.lru.push(i);
            Some(row)
        } else {
            state.misses += 1;
            None
        }
    }

    /// `(hits, misses)` counters, for diagnostics and tests.
    pub fn stats(&self) -> (u64, u64) {
        let state = self.state.lock();
        (state.hits, state.misses)
    }

    /// Number of rows currently resident.
    pub fn len(&self) -> usize {
        self.state.lock().rows.len()
    }

    /// `true` when no rows are resident.
    pub fn is_empty(&self) -> bool {
        self.state.lock().rows.is_empty()
    }
}

/// Kernel matrix rows over a fixed training set, each computed on first
/// use and kept for the rest of the solve.
pub struct KernelCache<'a> {
    kernel: Kernel,
    x: &'a [Vec<f64>],
    rows: Vec<Option<Vec<f64>>>,
    shared: Option<&'a SharedKernelCache>,
}

impl<'a> KernelCache<'a> {
    /// An empty row table over training vectors `x`.
    pub fn new(kernel: Kernel, x: &'a [Vec<f64>]) -> Self {
        KernelCache {
            kernel,
            x,
            rows: vec![None; x.len()],
            shared: None,
        }
    }

    /// Like [`new`](KernelCache::new), but rows of RBF kernels are computed
    /// from `shared` squared-distance rows (`K = exp(−γ d²)`) instead of
    /// recomputing distances. Non-RBF kernels fall back to direct
    /// evaluation.
    pub fn with_shared(kernel: Kernel, x: &'a [Vec<f64>], shared: &'a SharedKernelCache) -> Self {
        KernelCache {
            shared: Some(shared),
            ..Self::new(kernel, x)
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

    fn compute_row(&self, i: usize) -> Vec<f64> {
        if let (Kernel::Rbf { gamma }, Some(shared)) = (self.kernel, self.shared) {
            let d2 = shared.row(i, self.x);
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
        let mut cache = KernelCache::new(Kernel::Linear, &x);
        let row = cache.row(3).to_vec();
        for (j, v) in row.iter().enumerate() {
            assert_eq!(*v, (3 * j) as f64);
        }
    }

    #[test]
    fn rows_pair_matches_single_rows() {
        let x = data();
        let mut cache = KernelCache::new(Kernel::rbf(0.5), &x);
        let (a, b) = cache.rows(1, 4);
        let (a, b) = (a.to_vec(), b.to_vec());
        assert_eq!(cache.row(1), a.as_slice());
        assert_eq!(cache.row(4), b.as_slice());
        let (c, d) = cache.rows(2, 2);
        assert_eq!(c, d);
    }

    #[test]
    fn each_row_is_computed_once() {
        // The shared cache sees one request per row the table computes.
        let x = data();
        let shared = SharedKernelCache::new(x.len());
        let mut cache = KernelCache::with_shared(Kernel::rbf(0.5), &x, &shared);
        for _ in 0..3 {
            cache.row(0);
            cache.rows(0, 1);
        }
        assert_eq!(shared.stats(), (0, 2));
    }

    #[test]
    fn diagonal_matches_row() {
        let x = data();
        let mut cache = KernelCache::new(Kernel::rbf(0.5), &x);
        for i in 0..x.len() {
            let d = cache.diagonal(i);
            assert!((cache.row(i)[i] - d).abs() < 1e-15);
        }
    }

    #[test]
    fn shared_rows_are_squared_distances() {
        let x = data();
        let shared = SharedKernelCache::new(x.len());
        let row = shared.row(2, &x);
        for (j, d2) in row.iter().enumerate() {
            let diff = 2.0 - j as f64;
            assert!((d2 - diff * diff).abs() < 1e-12);
        }
        let (hits, misses) = shared.stats();
        assert_eq!((hits, misses), (0, 1));
        shared.row(2, &x);
        assert_eq!(shared.stats(), (1, 1));
    }

    #[test]
    fn shared_cache_serves_rbf_rows_exactly() {
        // A with_shared cache must produce bit-identical rows to a private
        // one: exp(−γ d²) is evaluated the same way in Kernel::eval.
        let x = data();
        let gamma = 0.37;
        let shared = SharedKernelCache::new(x.len());
        let mut plain = KernelCache::new(Kernel::rbf(gamma), &x);
        let mut cached = KernelCache::with_shared(Kernel::rbf(gamma), &x, &shared);
        for i in 0..x.len() {
            assert_eq!(plain.row(i), cached.row(i), "row {i}");
        }
        let (_, misses) = shared.stats();
        assert_eq!(misses, x.len() as u64);
    }

    #[test]
    fn shared_cache_is_concurrently_usable() {
        let x: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64, (i * i) as f64]).collect();
        let shared = SharedKernelCache::new(x.len());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut cache = KernelCache::with_shared(Kernel::rbf(0.5), &x, &shared);
                    for i in 0..x.len() {
                        let row = cache.row(i).to_vec();
                        assert!((row[i] - 1.0).abs() < 1e-12);
                    }
                });
            }
        });
        let (hits, misses) = shared.stats();
        assert_eq!(hits + misses, 4 * x.len() as u64);
        assert!(shared.len() <= x.len());
    }

    #[test]
    fn shared_cache_evicts_at_capacity() {
        let x = data();
        let shared = SharedKernelCache::new(2);
        shared.row(0, &x);
        shared.row(1, &x);
        shared.row(2, &x); // evicts 0
        assert_eq!(shared.len(), 2);
        shared.row(0, &x); // miss again
        let (_, misses) = shared.stats();
        assert_eq!(misses, 4);
    }

    #[test]
    fn non_rbf_kernels_ignore_shared_cache() {
        let x = data();
        let shared = SharedKernelCache::new(x.len());
        let mut cache = KernelCache::with_shared(Kernel::Linear, &x, &shared);
        let row = cache.row(3).to_vec();
        for (j, v) in row.iter().enumerate() {
            assert_eq!(*v, (3 * j) as f64);
        }
        assert!(
            shared.is_empty(),
            "linear kernels must not populate d² rows"
        );
    }
}
