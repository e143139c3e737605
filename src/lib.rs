//! Facade crate re-exporting the whole hotspot-detection workspace.
//!
//! This workspace reproduces *Machine-Learning-Based Hotspot Detection
//! Using Topological Classification and Critical Feature Extraction*
//! (Yu, Lin, Jiang, Chiang — DAC 2013 / TCAD 2015) in Rust. See the
//! individual crates:
//!
//! - [`core`] — the detection framework (training + evaluation pipelines),
//! - [`geom`] — integer-nanometre rectilinear geometry,
//! - [`layout`] — layout database and GDSII stream I/O,
//! - [`svm`] — C-SVM with RBF kernel trained by SMO,
//! - [`topo`] — topological classification and critical feature extraction,
//! - [`benchgen`] — synthetic ICCAD-2012-style benchmarks with a
//!   lithography oracle,
//! - [`baselines`] — single-kernel SVM, fuzzy pattern matching, and the
//!   window-scan extraction baseline.
//!
//! # Examples
//!
//! See `examples/quickstart.rs` for the end-to-end flow:
//!
//! ```no_run
//! use hotspot_suite::benchgen::{Benchmark, iccad_suite, SuiteScale};
//! use hotspot_suite::core::{DetectorConfig, HotspotDetector};
//!
//! let spec = iccad_suite(SuiteScale::Tiny).remove(0);
//! let bm = Benchmark::generate(spec);
//! let detector = HotspotDetector::train(&bm.training, DetectorConfig::default())?;
//! let report = detector.detect(&bm.layout, bm.layer)?;
//! println!("{} hotspots reported", report.reported.len());
//! # Ok::<(), hotspot_suite::core::DetectError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hotspot_baselines as baselines;
pub use hotspot_benchgen as benchgen;
pub use hotspot_core as core;
pub use hotspot_geom as geom;
pub use hotspot_layout as layout;
pub use hotspot_svm as svm;
pub use hotspot_topo as topo;
