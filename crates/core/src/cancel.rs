//! Cooperative cancellation for long-running scans.
//!
//! A [`CancelToken`] is a dependency-free, clonable flag shared between
//! the party requesting a stop (a CLI SIGINT handler, the scan's own
//! deadline watchdog, an embedding service's shutdown path) and the
//! workers doing the stopping. Cancellation is *cooperative*: nothing is
//! killed. Workers poll the token at cheap, deterministic boundaries —
//! once per in-flight batch in the streaming scan loop, before each task
//! pop in [`crate::engine::Executor`], and once per clip inside a tile's
//! evaluation batch — and wind down by declining further work, so every
//! tile either completes (and is appended to the tile cache) or never
//! starts (and is recomputed by a re-run). That placement is what keeps an
//! aborted scan byte-resumable: the cache only ever gains whole-tile
//! entries, and [`crate::ScanReport::digest`] of a scan re-run from that
//! cache is bit-identical to an uninterrupted run's.
//!
//! The flag is a relaxed atomic: cancellation needs no ordering with the
//! data the workers produce (aborted work is discarded, completed work was
//! already published through the batch loop's own synchronisation), so a
//! poll costs one uncontended load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A clonable, thread-safe cancellation flag.
///
/// All clones share one flag: cancelling any clone cancels them all.
/// Polling is a single relaxed atomic load; see the [module
/// docs](crate::cancel) for where the scan stack polls it.
///
/// # Examples
///
/// ```
/// use hotspot_core::CancelToken;
///
/// let token = CancelToken::new();
/// let worker_view = token.clone();
/// assert!(!worker_view.is_cancelled());
/// token.cancel();
/// assert!(worker_view.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trips the flag. Idempotent; cancellation cannot be undone.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether any clone of this token has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Tokens compare by *identity* (shared flag), not by state: a clone is
/// equal to its source, two independently created tokens are not. This is
/// what [`crate::ScanConfig`]'s derived `PartialEq` sees.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Why a scan stopped early. Carried on
/// [`crate::ScanReport::aborted`]; excluded from the report digest, like
/// every other provenance field, so an aborted scan re-run from its cache
/// digests identically to an uninterrupted one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AbortReason {
    /// The [`crate::ScanConfig::deadline`] wall-clock budget expired.
    DeadlineExceeded,
    /// The caller's [`crate::ScanConfig::cancel`] token was tripped
    /// (e.g. the CLI's SIGINT handler).
    Interrupted,
}

impl AbortReason {
    /// Stable lower-snake name, used in telemetry and event payloads.
    pub fn name(self) -> &'static str {
        match self {
            AbortReason::DeadlineExceeded => "deadline_exceeded",
            AbortReason::Interrupted => "interrupted",
        }
    }
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Panic payload a tile task unwinds with when it observes cancellation
/// mid-tile. The executor recognises it and reports the task as
/// *skipped* — not failed, not retried, not quarantined.
pub(crate) struct CancelPanic;

/// Panic payload a tile task unwinds with when it exceeds its soft
/// per-tile budget ([`crate::ScanConfig::tile_timeout`]). Deliberately
/// carries the *budget*, not the measured elapsed time: the quarantine
/// reason string built from it must be deterministic so report digests
/// stay thread-count- and wall-clock-invariant.
pub(crate) struct TimeoutPanic {
    /// The exceeded soft budget, in milliseconds.
    pub budget_ms: u64,
}

impl TimeoutPanic {
    /// The deterministic quarantine reason for a tile that blew this
    /// budget.
    pub fn reason(&self) -> String {
        format!(
            "tile exceeded its soft time budget of {} ms",
            self.budget_ms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
    }

    #[test]
    fn equality_is_identity_not_state() {
        let a = CancelToken::new();
        let b = a.clone();
        let c = CancelToken::new();
        assert_eq!(a, b);
        assert_ne!(a, c);
        c.cancel();
        a.cancel();
        assert_ne!(a, c, "same state, still different tokens");
    }

    #[test]
    fn abort_reason_round_trips_and_names_are_stable() {
        let json = serde_json::to_string(&AbortReason::DeadlineExceeded).unwrap();
        let back: AbortReason = serde_json::from_str(&json).unwrap();
        assert_eq!(back, AbortReason::DeadlineExceeded);
        // Telemetry and event payloads use the stable snake names, not the
        // serde variant names.
        assert_eq!(AbortReason::DeadlineExceeded.name(), "deadline_exceeded");
        assert_eq!(AbortReason::Interrupted.to_string(), "interrupted");
    }

    #[test]
    fn timeout_reason_is_deterministic() {
        let p = TimeoutPanic { budget_ms: 150 };
        assert_eq!(p.reason(), "tile exceeded its soft time budget of 150 ms");
    }
}
