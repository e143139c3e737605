//! Instrumented parallel pipeline engine.
//!
//! This module factors the mechanics shared by the pipeline phases
//! out of [`crate::detector`] and [`crate::training`]:
//!
//! - [`StageId`] / [`StageRecorder`] ([`stage`]) name the eight canonical
//!   stages (topological classification → population balancing → kernel
//!   training → feedback training → density prefilter → clip extraction →
//!   kernel evaluation → clip removal) and time them,
//! - [`Executor`] ([`executor`]) is the shared-cursor task scheduler used
//!   by kernel training and the scan's tile windows; its task bodies run
//!   under `catch_unwind`, so a panicking task surfaces as a typed
//!   [`TaskFailure`] instead of aborting the process,
//! - [`FaultPlan`] ([`fault`]) is the seeded, deterministic
//!   fault-injection plan the fault-tolerance tests and the CI smoke use
//!   to prove the isolation, retry, and quarantine paths,
//! - [`PipelineTelemetry`] ([`telemetry`]) is the serialisable record the
//!   two phases produce, carried on
//!   [`crate::detector::TrainingSummary`] and
//!   [`crate::scan::ScanReport`] and merged by the CLI's
//!   `scan --telemetry`.

pub mod executor;
pub mod fault;
pub mod stage;
pub mod telemetry;

pub use executor::{Executor, ExecutorStats, TaskFailure, TaskResult};
pub use fault::{FaultPlan, FaultSite};
pub use stage::{StageId, StageRecorder};
pub use telemetry::{PipelineTelemetry, StageTelemetry, TELEMETRY_SCHEMA_VERSION};
