//! Absolute output pins. Every other equivalence test is relative (scan
//! vs oracle, 1 thread vs 4, one mode vs another), so a change that moves
//! both sides passes them silently. This test pins the tiny-scale suite's
//! outputs to a committed record instead: any behaviour change must
//! update `tests/golden/tiny_suite.txt` explicitly.
//!
//! Per benchmark, one line records the FNV-1a hash of the trained model's
//! kernels and feedback kernel JSON; `detect`'s extracted/flagged/reclaimed
//! clip counts and the hash of its reported windows; the hit/extra score
//! against the ground truth; and the hash of the default scan's
//! `ScanReport::digest()`. On a mismatch the test prints the benchmark's
//! line as computed, ready to paste over the file when the change is
//! deliberate.

use hotspot_suite::benchgen::{iccad_suite, Benchmark, SuiteScale};
use hotspot_suite::core::HotspotDetector;

const RECORD: &str = include_str!("golden/tiny_suite.txt");

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn record_line(bm: &Benchmark) -> String {
    let detector = HotspotDetector::builder()
        .threads(2)
        .train(&bm.training)
        .expect("training");
    let model = format!(
        "{}{}",
        serde_json::to_string(detector.kernels()).expect("kernels serialise"),
        serde_json::to_string(&detector.feedback()).expect("feedback serialises"),
    );
    // `detect` is the scan at `ScanConfig::default()`, so its report is
    // the default scan's too.
    let report = detector.detect(&bm.layout, bm.layer).expect("detect");
    let reported = serde_json::to_string(&report.reported).expect("windows serialise");
    let eval = report.score_against(&bm.actual, 0.2, bm.area_um2());
    format!(
        "{} model={:016x} clips={} flagged={} reclaimed={} reported={}:{:016x} hits={} extras={} scan_digest={:016x}",
        bm.spec.name,
        fnv1a(model.as_bytes()),
        report.clips_extracted,
        report.clips_flagged,
        report.feedback_reclaimed,
        report.reported.len(),
        fnv1a(reported.as_bytes()),
        eval.hits,
        eval.extras,
        fnv1a(report.digest().as_bytes()),
    )
}

/// Checks one benchmark's line of the record; one test per benchmark, so
/// the harness runs them in parallel.
fn check(name: &str) {
    let spec = iccad_suite(SuiteScale::Tiny)
        .into_iter()
        .find(|s| s.name == name)
        .expect("suite benchmark");
    let computed = record_line(&Benchmark::generate(spec));
    let expected = RECORD
        .lines()
        .find(|l| l.split(' ').next() == Some(name))
        .expect("benchmark in the record");
    assert!(
        computed == expected,
        "golden record mismatch; computed line:\n{computed}"
    );
}

#[test]
fn array_benchmark1_matches_the_record() {
    check("array_benchmark1");
}

#[test]
fn array_benchmark2_matches_the_record() {
    check("array_benchmark2");
}

#[test]
fn array_benchmark3_matches_the_record() {
    check("array_benchmark3");
}

#[test]
fn array_benchmark4_matches_the_record() {
    check("array_benchmark4");
}

#[test]
fn array_benchmark5_matches_the_record() {
    check("array_benchmark5");
}

#[test]
fn mx_blind_partial_matches_the_record() {
    check("mx_blind_partial");
}
