//! Deterministic fault injection for the fault-tolerance harness.
//!
//! A [`FaultPlan`] describes, as pure data, which pipeline tasks should
//! fail and how: persistent panics (fail on every attempt), transient
//! panics (fail on the first attempt only, succeeding when retried), stalls,
//! and a simulated tile-cache append I/O error. Faults are keyed by a *stable task index*
//! (the global tile id in `scan_layout`) and
//! decided by a seeded hash — never by wall clock or scheduling — so an
//! injected failure set is bit-identical across runs and thread counts,
//! which is what lets the tests assert exact quarantine lists.
//!
//! The empty plan is the production configuration: every injection site
//! first checks [`FaultPlan::is_empty`], a handful of integer compares
//! hoisted out of the per-clip hot loops, so real scans pay nothing.

use serde::{Deserialize, Serialize};

/// Pipeline sites where a [`FaultPlan`] can inject a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FaultSite {
    /// At the density-prefilter boundary, before any tile work.
    Prefilter,
    /// After prefiltering, at the clip-extraction boundary.
    Extraction,
    /// After extraction, at the kernel-evaluation boundary (the default —
    /// the deepest point, so the most state is in flight when it fires).
    #[default]
    Evaluation,
}

impl FaultSite {
    /// Stable name used in injected panic payloads.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Prefilter => "density_prefilter",
            FaultSite::Extraction => "clip_extraction",
            FaultSite::Evaluation => "kernel_evaluation",
        }
    }
}

/// A seeded, deterministic fault-injection plan.
///
/// Threaded through [`crate::ScanConfig::fault_plan`]; the default plan
/// injects nothing.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed mixed into every per-index fault decision.
    #[serde(default)]
    pub seed: u64,
    /// Per-mille probability (0–1000) that a task index fails
    /// *persistently* — on the first attempt and on the retry.
    #[serde(default)]
    pub panic_per_mille: u16,
    /// Per-mille probability (0–1000) that a task index fails
    /// *transiently* — on the first attempt only, succeeding when retried.
    /// Indices already chosen as persistent are not also transient.
    #[serde(default)]
    pub transient_per_mille: u16,
    /// Explicit task indices that always fail persistently.
    #[serde(default)]
    pub panic_tasks: Vec<usize>,
    /// Explicit task indices that always fail transiently.
    #[serde(default)]
    pub transient_tasks: Vec<usize>,
    /// Where in the tile pipeline the injected panic fires.
    #[serde(default)]
    pub site: FaultSite,
    /// Simulated I/O fault: the tile cache returns an error when asked to
    /// append its N-th entry of the scan (0-based) — the deterministic
    /// stand-in for a kill mid-scan. The name predates the cache becoming
    /// the scan's only durable store.
    #[serde(default)]
    pub fail_journal_at: Option<usize>,
    /// Explicit task indices that always *stall* for
    /// [`stall_ms`](Self::stall_ms) at the injection site — on every
    /// attempt, so a stalled tile blows a soft per-tile budget on the
    /// retry too. The deterministic stand-in for a pathological tile.
    #[serde(default)]
    pub stall_tasks: Vec<usize>,
    /// Per-mille probability (0–1000) that a task index stalls. Keyed by
    /// the stable task index like the panic rolls, so the stalled set is
    /// identical across runs and thread counts.
    #[serde(default)]
    pub stall_per_mille: u16,
    /// How long an injected stall sleeps, in milliseconds. A plan that
    /// selects stall indices but leaves this at 0 injects nothing.
    #[serde(default)]
    pub stall_ms: u64,
}

/// SplitMix64 — a tiny, high-quality mixer for the per-index fault roll.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Whether the plan injects nothing — the production fast path.
    pub fn is_empty(&self) -> bool {
        self.panic_per_mille == 0
            && self.transient_per_mille == 0
            && self.panic_tasks.is_empty()
            && self.transient_tasks.is_empty()
            && self.fail_journal_at.is_none()
            && self.stall_tasks.is_empty()
            && self.stall_per_mille == 0
    }

    /// Validates the plan's probabilities.
    ///
    /// # Errors
    ///
    /// Returns a message when a per-mille rate exceeds 1000.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("panic_per_mille", self.panic_per_mille),
            ("transient_per_mille", self.transient_per_mille),
            ("stall_per_mille", self.stall_per_mille),
        ] {
            if v > 1000 {
                return Err(format!("{name} must be at most 1000, got {v}"));
            }
        }
        Ok(())
    }

    /// The seeded roll for `index`, stratified by a per-kind salt.
    fn roll(&self, index: usize, salt: u64) -> u16 {
        (splitmix64(self.seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F) ^ index as u64) % 1000)
            as u16
    }

    /// Whether `index` fails persistently (every attempt).
    pub fn persistent(&self, index: usize) -> bool {
        self.panic_tasks.contains(&index) || self.roll(index, 1) < self.panic_per_mille
    }

    /// Whether `index` fails transiently (first attempt only). Persistent
    /// indices are excluded so the two fault kinds are disjoint.
    pub fn transient(&self, index: usize) -> bool {
        !self.persistent(index)
            && (self.transient_tasks.contains(&index)
                || self.roll(index, 2) < self.transient_per_mille)
    }

    /// Whether the attempt `attempt` (0 = first, 1 = retry) of task
    /// `index` should panic.
    pub fn fails(&self, index: usize, attempt: u32) -> bool {
        if self.is_empty() {
            return false;
        }
        self.persistent(index) || (attempt == 0 && self.transient(index))
    }

    /// Whether `index` stalls for [`stall_ms`](Self::stall_ms) at the
    /// injection site (every attempt — stalls are persistent).
    pub fn stalls(&self, index: usize) -> bool {
        self.stall_ms > 0
            && (self.stall_tasks.contains(&index) || self.roll(index, 3) < self.stall_per_mille)
    }

    /// Injection hook: stalls and/or panics iff the plan marks (`index`,
    /// `attempt`) at `site`. The stall fires first, so a stalled-and-
    /// panicking index loses its time before it fails — the worst case a
    /// watchdog has to handle. Call sites gate on
    /// [`is_empty`](Self::is_empty) first so the empty plan costs nothing.
    pub fn inject(&self, site: FaultSite, index: usize, attempt: u32) {
        if site == self.site && self.stalls(index) {
            std::thread::sleep(std::time::Duration::from_millis(self.stall_ms));
        }
        if site == self.site && self.fails(index, attempt) {
            panic!(
                "injected fault at {} (task {index}, attempt {attempt})",
                site.name()
            );
        }
    }

    /// Whether the `record`-th tile-cache append should fail with a
    /// simulated I/O error.
    pub fn fails_journal_at(&self, record: usize) -> bool {
        self.fail_journal_at == Some(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fails() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        for i in 0..1000 {
            assert!(!plan.fails(i, 0));
        }
    }

    #[test]
    fn explicit_indices_fail_as_configured() {
        let plan = FaultPlan {
            panic_tasks: vec![3],
            transient_tasks: vec![5],
            ..Default::default()
        };
        assert!(plan.fails(3, 0) && plan.fails(3, 1), "persistent on retry");
        assert!(plan.fails(5, 0) && !plan.fails(5, 1), "transient recovers");
        assert!(!plan.fails(4, 0));
    }

    #[test]
    fn seeded_rates_are_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan {
            seed: 42,
            panic_per_mille: 100,
            ..Default::default()
        };
        let hits: Vec<usize> = (0..10_000).filter(|&i| plan.persistent(i)).collect();
        let again: Vec<usize> = (0..10_000).filter(|&i| plan.persistent(i)).collect();
        assert_eq!(hits, again, "same seed, same failure set");
        // 10% nominal rate over 10k trials: allow a generous band.
        assert!((700..=1300).contains(&hits.len()), "{} hits", hits.len());
        // A different seed picks a different set.
        let other = FaultPlan { seed: 43, ..plan };
        let other_hits: Vec<usize> = (0..10_000).filter(|&i| other.persistent(i)).collect();
        assert_ne!(hits, other_hits);
    }

    #[test]
    fn persistent_and_transient_are_disjoint() {
        let plan = FaultPlan {
            seed: 7,
            panic_per_mille: 300,
            transient_per_mille: 300,
            ..Default::default()
        };
        for i in 0..5_000 {
            assert!(
                !(plan.persistent(i) && plan.transient(i)),
                "index {i} both persistent and transient"
            );
        }
    }

    #[test]
    fn validation_bounds_rates() {
        let bad = FaultPlan {
            panic_per_mille: 1001,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        assert!(FaultPlan::default().validate().is_ok());
    }

    #[test]
    fn inject_respects_the_site() {
        let plan = FaultPlan {
            panic_tasks: vec![0],
            site: FaultSite::Evaluation,
            ..Default::default()
        };
        // Wrong site: no panic.
        plan.inject(FaultSite::Prefilter, 0, 0);
        let caught = std::panic::catch_unwind(|| plan.inject(FaultSite::Evaluation, 0, 0));
        assert!(caught.is_err());
    }

    #[test]
    fn stalls_are_deterministic_and_need_a_duration() {
        let plan = FaultPlan {
            seed: 3,
            stall_per_mille: 100,
            stall_ms: 10,
            ..Default::default()
        };
        assert!(!plan.is_empty());
        let hits: Vec<usize> = (0..10_000).filter(|&i| plan.stalls(i)).collect();
        let again: Vec<usize> = (0..10_000).filter(|&i| plan.stalls(i)).collect();
        assert_eq!(hits, again, "same seed, same stalled set");
        assert!((700..=1300).contains(&hits.len()), "{} hits", hits.len());
        // The stall roll is salted independently of the panic roll.
        let panics: Vec<usize> = (0..10_000)
            .filter(|&i| {
                FaultPlan {
                    panic_per_mille: 100,
                    ..plan.clone()
                }
                .persistent(i)
            })
            .collect();
        assert_ne!(hits, panics);
        // stall_ms of 0 disarms the stall indices entirely.
        let disarmed = FaultPlan {
            stall_ms: 0,
            stall_tasks: vec![1],
            ..plan
        };
        assert!(!disarmed.stalls(1));
    }

    #[test]
    fn stall_validation_bounds_rate() {
        let bad = FaultPlan {
            stall_per_mille: 1001,
            ..Default::default()
        };
        assert!(bad.validate().unwrap_err().contains("stall_per_mille"));
    }

    #[test]
    fn serde_round_trip() {
        let plan = FaultPlan {
            seed: 9,
            panic_per_mille: 50,
            transient_per_mille: 20,
            panic_tasks: vec![1, 2],
            transient_tasks: vec![3],
            site: FaultSite::Extraction,
            fail_journal_at: Some(4),
            stall_tasks: vec![5],
            stall_per_mille: 10,
            stall_ms: 25,
        };
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
        // Older configs without the fault fields deserialise to the empty plan.
        let legacy: FaultPlan = serde_json::from_str("{}").unwrap();
        assert!(legacy.is_empty());
    }
}
