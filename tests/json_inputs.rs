//! No-panic checks for the JSON artifacts the CLI reads back: the
//! serialised detector (`--model`) and training set (`--training`) of a
//! tiny-scale suite benchmark. A truncated artifact must be an `Err`, and
//! a damaged one must be `Ok` or `Err`, never a panic.

use hotspot_suite::benchgen::{iccad_suite, Benchmark, SuiteScale};
use hotspot_suite::core::{DetectorConfig, HotspotDetector, TrainingSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::de::DeserializeOwned;
use std::sync::OnceLock;

/// The compact JSON of the tiny `array_benchmark1` training set and of the
/// detector trained on it, exactly as `hotspot generate`/`train` write them.
fn artifacts() -> &'static (String, String) {
    static ARTIFACTS: OnceLock<(String, String)> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let bm = Benchmark::generate(iccad_suite(SuiteScale::Tiny).remove(0));
        let detector =
            HotspotDetector::train(&bm.training, DetectorConfig::default()).expect("training");
        (
            serde_json::to_string(&detector).expect("model json"),
            serde_json::to_string(&bm.training).expect("training json"),
        )
    })
}

fn model_json() -> &'static str {
    &artifacts().0
}

fn training_json() -> &'static str {
    &artifacts().1
}

/// Prefixes of `json` fail to load as `T`. A load costs time linear in
/// the cut, so checking all cuts of a ~400 KB model would be quadratic.
/// Every cut is checked where the artifact opens and closes its nesting
/// (the first 4 KiB and the last 32 bytes), plus 64 seeded cuts between.
fn assert_prefixes_fail<T: DeserializeOwned>(json: &str, seed: u64) {
    const HEAD: usize = 4096;
    const TAIL: usize = 32;
    let bytes = json.as_bytes();
    let n = bytes.len();
    serde_json::from_slice::<T>(bytes).expect("the whole artifact loads");
    let mut rng = StdRng::seed_from_u64(seed);
    let middle: Vec<usize> = (0..64).map(|_| rng.random_range(HEAD..n - TAIL)).collect();
    for cut in (0..HEAD).chain(middle).chain(n - TAIL..n) {
        assert!(
            serde_json::from_slice::<T>(&bytes[..cut]).is_err(),
            "prefix of {cut} of {n} bytes loaded"
        );
    }
}

/// Loads `flips` copies of `json`, each with one seeded byte XOR-ed by a
/// seeded nonzero mask. Returns how many still loaded; a panic fails.
fn load_byte_flips<T: DeserializeOwned>(json: &str, seed: u64, flips: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bytes = json.as_bytes().to_vec();
    let mut loaded = 0;
    for _ in 0..flips {
        let at = rng.random_range(0..bytes.len());
        let mask = rng.random_range(1..=255u8);
        bytes[at] ^= mask;
        loaded += usize::from(serde_json::from_slice::<T>(&bytes).is_ok());
        bytes[at] ^= mask;
    }
    loaded
}

#[test]
fn model_prefixes_are_errors() {
    assert_prefixes_fail::<HotspotDetector>(model_json(), 0x5eed_0001);
}

#[test]
fn training_set_prefixes_are_errors() {
    assert_prefixes_fail::<TrainingSet>(training_json(), 0x5eed_0002);
}

#[test]
fn model_byte_flips_never_panic() {
    let loaded = load_byte_flips::<HotspotDetector>(model_json(), 0x5eed_0003, 500);
    assert!(loaded < 500, "every damaged model still loaded");
}

#[test]
fn training_set_byte_flips_never_panic() {
    let loaded = load_byte_flips::<TrainingSet>(training_json(), 0x5eed_0004, 2_000);
    assert!(loaded < 2_000, "every damaged training set still loaded");
}
