//! Cooperative cancellation for long-running scans.
//!
//! A [`CancelToken`] is the scan's one stop value: a clonable flag shared
//! between the party requesting a stop (the CLI's SIGINT handler, an
//! embedding service's shutdown path) and the workers, which inside a scan
//! also reads cancelled once the [`crate::ScanConfig::deadline`] has passed.
//! Nothing is killed: workers poll the token at cheap, deterministic
//! boundaries — once per batch in the scan loop, before each task pop in
//! [`crate::engine::Executor`], and at every stage boundary and per clip
//! inside a tile — so every tile either completes (and is cached) or never
//! lands (and a re-run computes it). The cache thus only gains whole-tile
//! entries, and [`crate::ScanReport::digest`] of a scan re-run from it is
//! bit-identical to an uninterrupted run's.
//!
//! The flag is a relaxed atomic: aborted work is discarded and completed
//! work is published through the batch loop's own synchronisation, so a
//! poll needs no ordering — one uncontended load, plus a clock read when a
//! deadline is set.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A clonable, thread-safe cancellation flag, optionally bounded by a
/// deadline. All clones share one flag: cancelling any clone cancels them
/// all.
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
#[derive(Debug, Clone)]
pub struct CancelToken {
    flag: Flag,
    /// When set, the token also reads cancelled from this instant on.
    deadline: Option<Instant>,
}

/// A token's own flag, or a process-global one such as a signal handler's.
#[derive(Debug, Clone)]
enum Flag {
    Shared(Arc<AtomicBool>),
    Static(&'static AtomicBool),
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken {
            flag: Flag::Shared(Arc::default()),
            deadline: None,
        }
    }
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token over a process-global flag, so a signal handler — which may
    /// only store into an atomic — trips the token directly.
    pub fn from_static(flag: &'static AtomicBool) -> Self {
        CancelToken {
            flag: Flag::Static(flag),
            deadline: None,
        }
    }

    /// This token's flag, additionally bounded by `deadline`.
    pub(crate) fn with_deadline(self, deadline: Option<Instant>) -> Self {
        CancelToken { deadline, ..self }
    }

    fn flag(&self) -> &AtomicBool {
        match &self.flag {
            Flag::Shared(flag) => flag,
            Flag::Static(flag) => flag,
        }
    }

    /// Trips the flag. Idempotent; cancellation cannot be undone.
    pub fn cancel(&self) {
        self.flag().store(true, Ordering::Relaxed);
    }

    /// Whether any clone of this token has been cancelled, or its
    /// deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.abort_reason().is_some()
    }

    /// Why the token reads cancelled: the flag outranks the deadline.
    pub(crate) fn abort_reason(&self) -> Option<AbortReason> {
        if self.flag().load(Ordering::Relaxed) {
            Some(AbortReason::Interrupted)
        } else if self.deadline.is_some_and(|at| Instant::now() >= at) {
            Some(AbortReason::DeadlineExceeded)
        } else {
            None
        }
    }
}

/// Tokens compare by *identity* (shared flag and deadline), not by state:
/// a clone is equal to its source, two independently created tokens are
/// not. This is what [`crate::ScanConfig`]'s derived `PartialEq` sees.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.flag(), other.flag()) && self.deadline == other.deadline
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
    fn deadline_token_shares_the_flag_and_the_flag_outranks_the_deadline() {
        let external = CancelToken::new();
        let future = external
            .clone()
            .with_deadline(Some(Instant::now() + std::time::Duration::from_secs(3600)));
        assert_eq!(future.abort_reason(), None);
        let past = external.clone().with_deadline(Some(Instant::now()));
        assert_eq!(past.abort_reason(), Some(AbortReason::DeadlineExceeded));
        assert!(past.is_cancelled() && !external.is_cancelled());
        assert_ne!(past, external, "a deadline makes a different token");
        external.cancel();
        assert_eq!(future.abort_reason(), Some(AbortReason::Interrupted));
        assert_eq!(past.abort_reason(), Some(AbortReason::Interrupted));
    }

    #[test]
    fn static_tokens_read_their_flag_and_compare_by_it() {
        static FLAG: AtomicBool = AtomicBool::new(false);
        let a = CancelToken::from_static(&FLAG);
        assert_eq!(a, CancelToken::from_static(&FLAG));
        assert_ne!(a, CancelToken::new());
        assert!(!a.is_cancelled());
        FLAG.store(true, Ordering::Relaxed);
        assert_eq!(a.abort_reason(), Some(AbortReason::Interrupted));
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
