//! Machine-learning-based lithography hotspot detection — the framework of
//! Yu, Lin, Jiang & Chiang (DAC 2013 / TCAD 2015), reimplemented in Rust.
//!
//! The pipeline (Fig. 3 of the paper):
//!
//! **Training** — hotspot patterns are upsampled by data shifting
//! ([`balance`]), all patterns are classified by topology (string-based,
//! then density-based — [`training`]), nonhotspots are downsampled to
//! cluster medoids, one C-SVM kernel is trained per hotspot cluster with
//! iterative `(C, γ)` adaptation, and a **feedback kernel** ([`feedback`])
//! is trained on the ambit features of self-evaluation false alarms.
//!
//! **Evaluation** — layout clips are extracted by polygon dissection with
//! density filtering ([`extraction`]), each clip is classified by the
//! multiple kernels and the feedback kernel, and reported hotspots pass
//! **redundant clip removal** ([`removal`]): merging, reframing, discarding
//! and shifting. [`metrics`] implements the contest's hit/extra scoring.
//!
//! The [`engine`] module houses the instrumented pipeline machinery: the
//! eight canonical stages, the shared-cursor executor both phases schedule
//! on, and the serialisable [`PipelineTelemetry`] they produce. For
//! production-scale layouts, [`scan`] streams tiles through the evaluation
//! pipeline with a density prefilter and bounded memory
//! ([`HotspotDetector::scan_layout`](detector::HotspotDetector::scan_layout)),
//! and [`obs`] watches long runs live — lock-free progress counters, a
//! Prometheus `/metrics` endpoint and an NDJSON event log — without
//! changing a single output bit.
//!
//! The one-stop API is [`HotspotDetector`], configured by one
//! [`DetectorConfig`] (the paper's settings by default):
//!
//! ```no_run
//! use hotspot_core::{DetectorConfig, HotspotDetector, TrainingSet};
//! use hotspot_layout::{LayerId, Layout};
//!
//! # fn get_training_set() -> TrainingSet { unimplemented!() }
//! # fn get_layout() -> Layout { unimplemented!() }
//! let training: TrainingSet = get_training_set();
//! let layout: Layout = get_layout();
//! let config = DetectorConfig {
//!     threads: 4,
//!     ..Default::default()
//! };
//! let detector = HotspotDetector::train(&training, config)?;
//! let report = detector.detect(&layout, LayerId::METAL1)?;
//! println!("{} hotspots reported", report.reported.len());
//! # Ok::<(), hotspot_core::DetectError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod balance;
pub mod cancel;
pub mod config;
pub mod detector;
pub mod engine;
pub mod extraction;
pub mod feedback;
pub mod journal;
mod memo;
pub mod metrics;
pub mod multilayer;
pub mod obs;
pub mod pattern;
pub mod patterning;
pub mod removal;
pub mod scan;
pub mod tile_cache;
pub mod training;

pub use cancel::{AbortReason, CancelToken};
pub use config::{AblationSwitches, AdmissionParams, DetectorConfig, DistributionFilter, EvalMode};
pub use detector::{DetectError, HotspotDetector};
pub use engine::{
    FaultPlan, FaultSite, PipelineTelemetry, StageTelemetry, TaskFailure, TELEMETRY_SCHEMA_VERSION,
};
pub use extraction::{extract_clips, RectIndex};
pub use feedback::{EvalEngine, EvalScratch};
pub use hotspot_geom::RasterMode;
pub use metrics::{score, Evaluation};
pub use multilayer::{MultilayerDetector, MultilayerPattern, MultilayerTrainingSet};
pub use obs::{
    CounterSnapshot, MetricsServer, NdjsonSink, ObsEvent, ObsHub, ObsRecord, ObsSink, ProgressSink,
    Sampler, OBS_SCHEMA_VERSION,
};
pub use pattern::{Label, Pattern, TrainingSet};
pub use patterning::{DecomposedPattern, DoublePatterningDetector};
pub use scan::{FailureKind, FailurePolicy, QuarantinedTile, ScanConfig, ScanReport};
pub use tile_cache::{CacheEntry, CacheHeader, CacheLoadStats, TileCache};
pub use training::{ClusterKernel, PatternCluster};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FaultSite;
    use crate::journal::TileOutcomeRecord;
    use serde::{de::DeserializeOwned, Serialize};
    use std::fmt::Debug;

    /// `value` serialises to `wire` and `wire` parses back to `value`.
    fn pin<T: Serialize + DeserializeOwned + PartialEq + Debug>(value: T, wire: &str) {
        assert_eq!(serde_json::to_string(&value).expect("serialise"), wire);
        assert_eq!(serde_json::from_str::<T>(wire).expect("parse"), value);
    }

    /// Model files, tile caches and reports hold these enums by their
    /// declared variant names; a serde change that renamed them would make
    /// every existing file unreadable.
    #[test]
    fn enums_keep_their_declared_wire_names() {
        pin(EvalMode::Compiled, r#""Compiled""#);
        pin(RasterMode::Sat, r#""Sat""#);
        pin(AbortReason::DeadlineExceeded, r#""DeadlineExceeded""#);
        pin(AbortReason::Interrupted, r#""Interrupted""#);
        pin(FailureKind::Panicked, r#""Panicked""#);
        pin(FailureKind::TimedOut, r#""TimedOut""#);
        pin(FailurePolicy::Abort, r#""Abort""#);
        pin(
            FailurePolicy::SkipAndRecord {
                max_failed_tiles: 3,
            },
            r#"{"SkipAndRecord":{"max_failed_tiles":3}}"#,
        );
        pin(FaultSite::Prefilter, r#""Prefilter""#);
        pin(FaultSite::Extraction, r#""Extraction""#);
        pin(FaultSite::Evaluation, r#""Evaluation""#);
        pin(TileOutcomeRecord::Prefiltered, r#""Prefiltered""#);
        pin(
            TileOutcomeRecord::Evaluated {
                clips: 4,
                flagged: 2,
                reclaimed: 1,
                flagged_cores: Vec::new(),
            },
            r#"{"Evaluated":{"clips":4,"flagged":2,"reclaimed":1,"flagged_cores":[]}}"#,
        );
    }
}
