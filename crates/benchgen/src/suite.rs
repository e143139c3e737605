//! The six Table-I-shaped benchmarks.
//!
//! Mirrors the statistics of the ICCAD-2012 suite (Table I of the paper) at
//! a configurable linear scale. At `SuiteScale::Paper` the layout areas
//! match Table I; the default `Small` scale shrinks areas 16× (4× linear)
//! and training counts 4× so the whole suite runs in CI time, preserving
//! the hotspot/nonhotspot imbalance ratios. `EXPERIMENTS.md` documents the
//! scaling.

use crate::generator::BenchmarkSpec;
use crate::litho::LithoOracle;
use hotspot_layout::ClipShape;
use serde::{Deserialize, Serialize};

/// Linear scale of the generated suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SuiteScale {
    /// 1/8 linear — smoke tests.
    Tiny,
    /// 1/4 linear — the default experiment scale.
    Small,
    /// 1/2 linear, half the Table-I training counts — between the
    /// experiment scale and full Table I.
    Medium,
    /// Full Table-I areas.
    Paper,
    /// 2× linear (4× Table-I area) with 1/4 training counts — a large
    /// layout for stressing the tiled scan's throughput and memory bound,
    /// not for accuracy experiments.
    Huge,
}

impl SuiteScale {
    /// The linear scale factor.
    pub fn linear(self) -> f64 {
        match self {
            SuiteScale::Tiny => 0.125,
            SuiteScale::Small => 0.25,
            SuiteScale::Medium => 0.5,
            SuiteScale::Paper => 1.0,
            SuiteScale::Huge => 2.0,
        }
    }

    /// Scale factor applied to pattern counts (linear, not area, so the
    /// training sets stay statistically meaningful). `Huge` keeps the small
    /// training set — the point of that scale is layout area, not model
    /// quality.
    pub fn count(self) -> f64 {
        match self {
            SuiteScale::Tiny => 0.08,
            SuiteScale::Small | SuiteScale::Huge => 0.25,
            SuiteScale::Medium => 0.5,
            SuiteScale::Paper => 1.0,
        }
    }
}

impl std::str::FromStr for SuiteScale {
    type Err = String;

    /// Parses a scale name: `tiny`, `small`, `medium`, `paper` or `huge`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tiny" => Ok(SuiteScale::Tiny),
            "small" => Ok(SuiteScale::Small),
            "medium" => Ok(SuiteScale::Medium),
            "paper" => Ok(SuiteScale::Paper),
            "huge" => Ok(SuiteScale::Huge),
            other => Err(format!(
                "unknown scale `{other}` (tiny|small|medium|paper|huge)"
            )),
        }
    }
}

/// Row of Table I: name, process, training counts, testing stats.
struct TableRow {
    name: &'static str,
    process_nm: u32,
    train_hs: usize,
    train_nhs: usize,
    test_hs: usize,
    width_um: f64,
    height_um: f64,
    seed: u64,
}

const TABLE1: [TableRow; 6] = [
    TableRow {
        name: "array_benchmark1",
        process_nm: 32,
        train_hs: 99,
        train_nhs: 340,
        test_hs: 226,
        width_um: 110.0,
        height_um: 115.0,
        seed: 0x1001,
    },
    TableRow {
        name: "array_benchmark2",
        process_nm: 28,
        train_hs: 176,
        train_nhs: 5285,
        test_hs: 499,
        width_um: 327.0,
        height_um: 327.0,
        seed: 0x1002,
    },
    TableRow {
        name: "array_benchmark3",
        process_nm: 28,
        train_hs: 923,
        train_nhs: 4643,
        test_hs: 1847,
        width_um: 350.0,
        height_um: 350.0,
        seed: 0x1003,
    },
    TableRow {
        name: "array_benchmark4",
        process_nm: 28,
        train_hs: 98,
        train_nhs: 4452,
        test_hs: 192,
        width_um: 286.0,
        height_um: 286.0,
        seed: 0x1004,
    },
    TableRow {
        name: "array_benchmark5",
        process_nm: 28,
        train_hs: 26,
        train_nhs: 2716,
        test_hs: 42,
        width_um: 222.0,
        height_um: 222.0,
        seed: 0x1005,
    },
    TableRow {
        name: "mx_blind_partial",
        process_nm: 32,
        train_hs: 99, // evaluated with benchmark1's training data
        train_nhs: 340,
        test_hs: 55,
        width_um: 750.0,
        height_um: 299.0,
        seed: 0x1006,
    },
];

/// Builds the six benchmark specs at the given scale.
///
/// Areas scale with `scale.linear()²`, planted-hotspot counts with the same
/// area factor (density preserved), training counts with `scale.count()`.
pub fn iccad_suite(scale: SuiteScale) -> Vec<BenchmarkSpec> {
    let lin = scale.linear();
    let area_factor = lin * lin;
    let cnt = scale.count();
    TABLE1
        .iter()
        .map(|row| {
            let cell = ClipShape::ICCAD2012.clip_side() as f64;
            // Round dimensions to whole cells so the layout tiles exactly.
            let width = ((row.width_um * 1000.0 * lin / cell).round().max(3.0) * cell) as i64;
            let height = ((row.height_um * 1000.0 * lin / cell).round().max(3.0) * cell) as i64;
            BenchmarkSpec {
                name: row.name.to_string(),
                process_nm: row.process_nm,
                width,
                height,
                // Floors keep even the smallest scaled benchmark trainable:
                // the generator draws from five motif families, so a
                // handful of examples per family is the minimum useful set.
                train_hotspots: ((row.train_hs as f64 * cnt).round() as usize).max(16),
                train_nonhotspots: ((row.train_nhs as f64 * cnt).round() as usize).max(48),
                test_hotspots: ((row.test_hs as f64 * area_factor).round() as usize).max(3),
                seed: row.seed,
                clip_shape: ClipShape::ICCAD2012,
                oracle: LithoOracle::default(),
                background_fill: 0.55,
                ambit_filler: true,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_names_parse() {
        for (name, scale) in [
            ("tiny", SuiteScale::Tiny),
            ("small", SuiteScale::Small),
            ("medium", SuiteScale::Medium),
            ("paper", SuiteScale::Paper),
            ("huge", SuiteScale::Huge),
        ] {
            assert_eq!(name.parse::<SuiteScale>(), Ok(scale));
        }
        let err = "Small".parse::<SuiteScale>().unwrap_err();
        assert_eq!(err, "unknown scale `Small` (tiny|small|medium|paper|huge)");
    }

    #[test]
    fn suite_has_six_benchmarks() {
        let suite = iccad_suite(SuiteScale::Small);
        assert_eq!(suite.len(), 6);
        let names: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"array_benchmark1"));
        assert!(names.contains(&"mx_blind_partial"));
    }

    #[test]
    fn imbalance_preserved() {
        for s in iccad_suite(SuiteScale::Small) {
            if s.name == "array_benchmark2" {
                let ratio = s.train_nonhotspots as f64 / s.train_hotspots as f64;
                // Paper ratio is ~30; scaling keeps it.
                assert!((25.0..=40.0).contains(&ratio), "ratio {ratio}");
            }
        }
    }

    #[test]
    fn paper_scale_matches_table1_counts() {
        let suite = iccad_suite(SuiteScale::Paper);
        let bm3 = suite.iter().find(|s| s.name == "array_benchmark3").unwrap();
        assert_eq!(bm3.train_hotspots, 923);
        assert_eq!(bm3.train_nonhotspots, 4643);
        assert_eq!(bm3.test_hotspots, 1847);
    }

    #[test]
    fn dimensions_are_cell_aligned() {
        for s in iccad_suite(SuiteScale::Tiny) {
            assert_eq!(s.width % s.clip_shape.clip_side(), 0, "{}", s.name);
            assert_eq!(s.height % s.clip_shape.clip_side(), 0, "{}", s.name);
            assert!(s.width >= 3 * s.clip_shape.clip_side());
        }
    }

    #[test]
    fn scales_are_ordered() {
        assert!(SuiteScale::Tiny.linear() < SuiteScale::Small.linear());
        assert!(SuiteScale::Small.linear() < SuiteScale::Medium.linear());
        assert!(SuiteScale::Medium.linear() < SuiteScale::Paper.linear());
        assert!(SuiteScale::Paper.linear() < SuiteScale::Huge.linear());
        assert_eq!(SuiteScale::Paper.count(), 1.0);
        assert!(SuiteScale::Small.count() < SuiteScale::Medium.count());
    }

    #[test]
    fn huge_scale_grows_area_not_training() {
        let small = iccad_suite(SuiteScale::Small);
        let huge = iccad_suite(SuiteScale::Huge);
        for (s, h) in small.iter().zip(&huge) {
            assert!(h.width >= 8 * s.width - s.clip_shape.clip_side() * 8);
            assert_eq!(h.train_hotspots, s.train_hotspots);
            assert_eq!(h.train_nonhotspots, s.train_nonhotspots);
            assert!(h.test_hotspots > s.test_hotspots);
        }
    }
}
