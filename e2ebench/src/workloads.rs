//! The three workloads, their inputs, and their untraced and traced runs.
//!
//! Inputs are generated from the seed (harness set-up, outside every
//! metric) and reach the measured code only in the formats the `hotspot`
//! CLI reads: model JSON and GDSII bytes for the scans, training-set JSON
//! for training.

use crate::metrics::{Checks, Values, SCAN_LAYERS, TRAIN_LAYERS};
use crate::replay::{self, Compiled, ReplayCache};
use crate::stats::{median, peak_rss_mb, process_cpu_time, reset_peak_rss};
use crate::trace::Tracer;
use hotspot_benchgen::{iccad_suite, Benchmark, BenchmarkSpec, SuiteScale};
use hotspot_core::engine::StageId;
use hotspot_core::{
    score, DetectorConfig, EvalMode, HotspotDetector, Pattern, ScanConfig, ScanReport, TrainingSet,
};
use hotspot_geom::Rect;
use hotspot_layout::gdsii;
use hotspot_layout::scan::{TileScanner, TileSpec};
use hotspot_layout::{ClipWindow, LayerId, Layout};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Worker threads of every measured operation.
pub const THREADS: usize = 2;
/// Fewest set-ups per run; `setup_s` is the fastest. The traced run also
/// repeats them for at least `SETUP_MIN_SECS` and reports their medians.
/// With 3, `train` ran only 3 or 4 set-ups a run and `setup_s` spread 14%
/// over ten seeds.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECS: f64 = 1.0;
/// Past `SETUP_MIN_REPS`, the measured phase repeats the set-up before an
/// operation while set-ups have taken at most this share of the operations'
/// time, so set-up samples spread over the whole run like the operations.
/// At 0.5 the scan workloads ran only 7 to 11 set-ups in 15 s, and
/// `setup_s` spread 12-20% over ten seeds.
const SETUP_SHARE: f64 = 1.0;
/// Fewest measured operations per run, however long they take.
const MIN_OPS: usize = 5;
/// Side of the seeded squares (layout perturbations and re-scan edits), in nm.
const SQUARE_SIDE: i64 = 300;
/// Seeded squares added to a scan workload's generated layout.
const SEEDED_SQUARES: usize = 4;
/// Unmeasured edited re-scans that settle the cache before timing.
const RESCAN_WARMUP: usize = 3;
/// Clip overlap a reported window needs to hit an actual hotspot (the
/// contest's scoring rule, as `hotspot score` applies it).
const MIN_HIT_OVERLAP: f64 = 0.2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanCold,
    RescanEdit,
    Train,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ScanCold, Workload::RescanEdit, Workload::Train];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanCold => "scan_cold",
            Workload::RescanEdit => "rescan_edit",
            Workload::Train => "train",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Suite benchmark and scale the workload's inputs come from.
    fn source(self, tiny: bool) -> (&'static str, SuiteScale) {
        let (name, scale) = match self {
            Workload::ScanCold | Workload::RescanEdit => ("array_benchmark1", SuiteScale::Paper),
            Workload::Train => ("array_benchmark2", SuiteScale::Small),
        };
        (name, if tiny { SuiteScale::Tiny } else { scale })
    }
}

/// How one run is driven.
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Run every workload at the suite's tiny scale (the self-test).
    pub tiny: bool,
    /// Directory for trace files and the re-scan tile caches.
    pub out_dir: PathBuf,
}

impl RunSpec {
    fn suite_spec(&self) -> BenchmarkSpec {
        let (name, scale) = self.workload.source(self.tiny);
        iccad_suite(scale)
            .into_iter()
            .find(|s| s.name == name)
            .expect("suite benchmark exists")
    }

    fn trace_path(&self) -> PathBuf {
        self.out_dir
            .join(format!("trace-{}.csv", self.workload.name()))
    }

    fn cache_path(&self, tag: &str) -> PathBuf {
        self.out_dir.join(format!(
            "cache-{}-{}-{tag}.bin",
            self.workload.name(),
            std::process::id()
        ))
    }

    /// Whether the measured phase has run long enough after `ops` operations
    /// and `setups` set-ups.
    fn done(&self, started: Instant, ops: usize, setups: usize) -> bool {
        ops >= MIN_OPS
            && setups >= SETUP_MIN_REPS
            && started.elapsed().as_secs_f64() >= self.seconds
    }
}

fn detector_config() -> DetectorConfig {
    DetectorConfig {
        threads: THREADS,
        ..Default::default()
    }
}

/// FNV-1a 64 of `bytes`: the replay's tile-cache model fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Inputs of the scan workloads: the suite benchmark at its Table-I seed.
/// The model is trained on its training set, like a shipped production
/// model; the testing layout is its layout plus `SEEDED_SQUARES` squares
/// placed by the run's seed.
struct ScanInputs {
    model_json: Vec<u8>,
    gds: Vec<u8>,
    layer: LayerId,
    actual: Vec<ClipWindow>,
    area_um2: f64,
}

impl ScanInputs {
    fn generate(run: &RunSpec) -> ScanInputs {
        let started = Instant::now();
        let bench = Benchmark::generate(run.suite_spec());
        let detector =
            HotspotDetector::train(&bench.training, detector_config()).expect("scan model trains");
        let mut layout = bench.layout.clone();
        let mut squares = Squares::new(run.seed, 0, layout.bbox().expect("non-empty layout"));
        for _ in 0..SEEDED_SQUARES {
            layout.add_rect(bench.layer, squares.next());
        }
        eprintln!("inputs generated in {:.1?}", started.elapsed());
        ScanInputs {
            model_json: serde_json::to_vec(&detector).expect("model serialises"),
            gds: gdsii::write_bytes(&layout).expect("layout encodes as GDSII"),
            layer: bench.layer,
            actual: bench.actual,
            area_um2: bench.spec.area_um2(),
        }
    }

    fn model_fingerprint(&self) -> u64 {
        fnv1a(&self.model_json)
    }
}

/// What `hotspot scan` holds after set-up.
struct Loaded {
    detector: HotspotDetector,
    layout: Layout,
}

/// Parses the model, compiles its engine and reads the layout, as
/// `hotspot scan` does before its first tile; returns the load and the time
/// of each of the three steps.
fn load(inputs: &ScanInputs) -> (Loaded, [Duration; 3]) {
    let t = Instant::now();
    let detector: HotspotDetector =
        serde_json::from_slice(&inputs.model_json).expect("model JSON parses");
    let detector = detector.with_threads(THREADS);
    let model_load = t.elapsed();
    let t = Instant::now();
    black_box(detector.eval_engine());
    let compile = t.elapsed();
    let t = Instant::now();
    let layout = gdsii::read_bytes(&inputs.gds).expect("GDSII parses");
    let gds_read = t.elapsed();
    (Loaded { detector, layout }, [model_load, compile, gds_read])
}

/// Whether set-up has been repeated enough after `reps` repeats since
/// `started`.
fn setup_done(started: Instant, reps: usize) -> bool {
    reps >= SETUP_MIN_REPS && started.elapsed().as_secs_f64() >= SETUP_MIN_SECS
}

/// Repeats set-up for the traced run; returns the last load and the median
/// time of each step in milliseconds.
fn setup(inputs: &ScanInputs) -> (Loaded, [f64; 3]) {
    let mut steps: Vec<[Duration; 3]> = Vec::new();
    let mut loaded = None;
    let started = Instant::now();
    while !setup_done(started, steps.len()) {
        let (l, t) = load(inputs);
        drop(loaded.replace(l));
        steps.push(t);
    }
    let step_ms = |i: usize| median(&steps.iter().map(|t| ms(t[i])).collect::<Vec<_>>());
    (
        loaded.expect("at least one set-up"),
        [step_ms(0), step_ms(1), step_ms(2)],
    )
}

/// Timings of one measured phase.
struct Measured {
    /// Wall of every completed operation.
    walls: Vec<Duration>,
    /// CPU time of the fastest set-up, in seconds.
    setup_s: f64,
    /// Highest peak RSS over the operations, each measured from a `VmHWM`
    /// reset just before it, so set-ups do not count; `None` without procfs.
    peak_rss_mb: Option<f64>,
}

/// The measured phase: operations for `run.seconds` and at least `MIN_OPS`,
/// with timed set-ups interleaved — before each of the first
/// `SETUP_MIN_REPS` operations, then whenever set-ups have taken at most
/// `SETUP_SHARE` of the operations' time. `setup` builds a fresh state; it
/// replaces `state`, and runs first if `state` is empty. `op` runs one
/// operation on the state and returns its wall, or `None` if it failed.
///
/// A set-up is timed by the process's CPU time, not wall time: set-up is
/// single-threaded and reads from memory, so on a quiet machine the two
/// agree, but on a shared host wall time also counts the host taking the
/// CPU away, which moved single set-ups by up to 1.8x within a run. CPU
/// time in any thread counts, so work moved into set-up threads shows too.
///
/// The run reports the fastest set-up and the fastest operation, not the
/// medians. The work is deterministic, so the fastest sample is the one the
/// other tenants of a shared host disturbed least. Over a 150 s `scan_cold`
/// run on a 2-vCPU virtual machine, the medians of 15 s windows ranged from
/// 514 to 767 ms (set-up, CPU time) and from 302 to 404 ms (scan), while
/// their minima stayed within 486-534 ms and 250-314 ms.
fn measure<S>(
    run: &RunSpec,
    state: &mut Option<S>,
    mut setup: impl FnMut() -> S,
    mut op: impl FnMut(&S) -> Option<Duration>,
) -> Measured {
    let mut setups: Vec<f64> = Vec::new();
    let mut walls = Vec::new();
    let mut peak: Option<f64> = None;
    let (mut setup_total, mut op_total) = (0.0, 0.0);
    let started = Instant::now();
    for ops in 0.. {
        if run.done(started, ops, setups.len()) {
            break;
        }
        if state.is_none() || setups.len() < SETUP_MIN_REPS || setup_total <= SETUP_SHARE * op_total
        {
            let (wall, cpu) = (Instant::now(), process_cpu_time());
            let fresh = setup();
            let t = match (cpu, process_cpu_time()) {
                (Some(start), Some(end)) => end - start,
                _ => wall.elapsed(),
            };
            drop(state.replace(fresh));
            setups.push(t.as_secs_f64());
            setup_total += t.as_secs_f64();
        }
        let rss_reset = reset_peak_rss();
        let Some(wall) = op(state.as_ref().expect("set up above")) else {
            continue;
        };
        if let Some(mb) = peak_rss_mb().filter(|_| rss_reset) {
            peak = Some(peak.map_or(mb, |p| p.max(mb)));
        }
        op_total += wall.as_secs_f64();
        walls.push(wall);
    }
    eprintln!(
        "measured {} operations and {} set-ups in {:.1?}",
        walls.len(),
        setups.len(),
        started.elapsed()
    );
    Measured {
        walls,
        setup_s: setups.iter().copied().fold(f64::INFINITY, f64::min),
        peak_rss_mb: peak,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A deterministic stream of `SQUARE_SIDE` squares inside a bounding box
/// (splitmix64 of the seed and a stream number).
struct Squares {
    state: u64,
    bbox: Rect,
}

impl Squares {
    fn new(seed: u64, stream: u64, bbox: Rect) -> Squares {
        Squares {
            state: seed ^ stream.rotate_left(32),
            bbox,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next(&mut self) -> Rect {
        self.next_in(self.bbox)
    }

    /// The next square inside `within` (at its corner if it is too small).
    fn next_in(&mut self, within: Rect) -> Rect {
        let span_x = (within.width() - SQUARE_SIDE).max(1) as u64;
        let span_y = (within.height() - SQUARE_SIDE).max(1) as u64;
        let x = within.min().x + (self.next_u64() % span_x) as i64;
        let y = within.min().y + (self.next_u64() % span_y) as i64;
        Rect::from_extents(x, y, x + SQUARE_SIDE, y + SQUARE_SIDE)
    }
}

/// The re-scan edits: one square per operation, in the scan's tiles taken
/// in turn from a seeded first tile, each at a seeded place at least a halo
/// from its tile's edges and inside the layer's bounding box. So an edit
/// changes exactly one tile, and a re-scan recomputes exactly that tile and
/// the previous edit's (which reverts to the base); cycling through the
/// tiles keeps the mix of recomputed tiles the same in every run, whatever
/// the seed. Randomly placed edits touched 1 to 6 tiles, and the median
/// re-scan wall jumped between those counts from seed to seed.
struct Edits {
    squares: Squares,
    /// Where each tile takes its edits, in grid order.
    interiors: Vec<Rect>,
    next: usize,
}

impl Edits {
    fn new(
        seed: u64,
        det: &HotspotDetector,
        base: &Layout,
        layer: LayerId,
        scan: &ScanConfig,
    ) -> Edits {
        let shape = det.config().clip_shape;
        let spec = TileSpec::new(
            shape.core_side() * scan.tile_cores as i64,
            shape.ambit() + shape.core_side(),
        )
        .expect("valid tile spec");
        let scanner = TileScanner::new(base, layer, spec);
        let bbox = scanner.index().bbox().expect("non-empty layer");
        let grid = scanner.grid();
        let mut interiors = Vec::new();
        for iy in 0..grid.rows() {
            for ix in 0..grid.cols() {
                let inner = grid.region(ix, iy).inflate(-spec.halo());
                if let Some(r) = inner.intersection(&bbox) {
                    if r.width() >= SQUARE_SIDE && r.height() >= SQUARE_SIDE {
                        interiors.push(r);
                    }
                }
            }
        }
        if interiors.is_empty() {
            // Tiles too small to hold an edit away from their neighbours
            // (the self-test's tiny layout): edit anywhere.
            interiors.push(bbox);
        }
        let mut squares = Squares::new(seed, 1, bbox);
        let next = (squares.next_u64() % interiors.len() as u64) as usize;
        Edits {
            squares,
            interiors,
            next,
        }
    }

    /// `base` plus the next square: one re-scan edit.
    fn edit(&mut self, base: &Layout, layer: LayerId) -> Layout {
        let within = self.interiors[self.next];
        self.next = (self.next + 1) % self.interiors.len();
        let mut edited = base.clone();
        edited.add_rect(layer, self.squares.next_in(within));
        edited
    }
}

/// Runs one scan and checks it completed.
fn scan_op(
    det: &HotspotDetector,
    layout: &Layout,
    layer: LayerId,
    scan: &ScanConfig,
    checks: &mut Checks,
) -> Option<(ScanReport, Duration)> {
    let t = Instant::now();
    let result = det.scan_layout(layout, layer, scan);
    let wall = t.elapsed();
    match result {
        Ok(report) => {
            checks.check(
                report.aborted.is_none() && report.failed_tiles.is_empty(),
                || "scan did not complete cleanly".into(),
            );
            Some((report, wall))
        }
        Err(e) => {
            checks.check(false, || format!("scan failed: {e}"));
            None
        }
    }
}

fn accuracy(values: &mut Values, inputs: &ScanInputs, report: &ScanReport) {
    let eval = score(
        &report.reported,
        &inputs.actual,
        MIN_HIT_OVERLAP,
        inputs.area_um2,
        Duration::ZERO,
    );
    values.insert(
        "hit_rate".into(),
        eval.hits as f64 / eval.actual.max(1) as f64,
    );
    values.insert("extras".into(), eval.extras as f64);
}

fn op_metrics(values: &mut Values, measured: &Measured, clips_per_op: usize) {
    values.insert("setup_s".into(), measured.setup_s);
    if let Some(mb) = measured.peak_rss_mb {
        values.insert("peak_rss_mb".into(), mb);
    }
    if measured.walls.is_empty() {
        return;
    }
    let walls_ms: Vec<f64> = measured.walls.iter().map(|&d| ms(d)).collect();
    let fastest = walls_ms.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!(
        "operation wall: fastest {fastest:.1} ms, median {:.1} ms",
        median(&walls_ms)
    );
    values.insert("op_ms_min".into(), fastest);
    values.insert("clips_per_s".into(), clips_per_op as f64 / (fastest / 1e3));
}

/// The untraced run: end-to-end metrics.
pub fn run(run: &RunSpec, checks: &mut Checks) -> Values {
    match run.workload {
        Workload::ScanCold => run_scan(run, checks),
        Workload::RescanEdit => run_rescan(run, checks),
        Workload::Train => run_train(run, checks),
    }
}

fn run_scan(run: &RunSpec, checks: &mut Checks) -> Values {
    let inputs = ScanInputs::generate(run);
    let mut values = Values::new();
    let scan = ScanConfig::default();

    // An unmeasured set-up and scan settle allocations; the scan gives the
    // reference digest.
    let mut loaded = Some(load(&inputs).0);
    let reference = loaded
        .as_ref()
        .and_then(|l| scan_op(&l.detector, &l.layout, inputs.layer, &scan, checks));
    let Some((reference, _)) = reference else {
        return values;
    };
    let digest = reference.digest();
    accuracy(&mut values, &inputs, &reference);

    let measured = measure(
        run,
        &mut loaded,
        || load(&inputs).0,
        |l| {
            let (report, wall) = scan_op(&l.detector, &l.layout, inputs.layer, &scan, checks)?;
            checks.check(report.digest() == digest, || {
                "scan digest differs from the first scan".into()
            });
            Some(wall)
        },
    );
    op_metrics(&mut values, &measured, reference.clips_extracted);
    eprintln!(
        "{}: {} scans, {} clips, {} flagged, {} reported",
        run.workload.name(),
        measured.walls.len(),
        reference.clips_extracted,
        reference.clips_flagged,
        reference.reported.len()
    );
    values
}

fn run_rescan(run: &RunSpec, checks: &mut Checks) -> Values {
    let inputs = ScanInputs::generate(run);
    let mut values = Values::new();
    let cache_path = run.cache_path("scan");
    let _ = std::fs::remove_file(&cache_path);
    let scan = ScanConfig {
        cache: Some(cache_path.clone()),
        ..Default::default()
    };

    // Warm the cache with a cold scan of the base layout and a few edits,
    // after an unmeasured set-up.
    let mut loaded = Some(load(&inputs).0);
    let l = loaded.as_ref().expect("loaded above");
    let Some((warm, _)) = scan_op(&l.detector, &l.layout, inputs.layer, &scan, checks) else {
        return values;
    };
    accuracy(&mut values, &inputs, &warm);
    let mut edits = Edits::new(run.seed, &l.detector, &l.layout, inputs.layer, &scan);
    for _ in 0..RESCAN_WARMUP {
        let edited = edits.edit(&l.layout, inputs.layer);
        scan_op(&l.detector, &edited, inputs.layer, &scan, checks);
    }

    let mut last: Option<(Layout, ScanReport)> = None;
    let measured = measure(
        run,
        &mut loaded,
        || load(&inputs).0,
        |l| {
            let edited = edits.edit(&l.layout, inputs.layer);
            let (report, wall) = scan_op(&l.detector, &edited, inputs.layer, &scan, checks)?;
            last = Some((edited, report));
            Some(wall)
        },
    );
    let _ = std::fs::remove_file(&cache_path);
    if let (Some((edited, report)), Some(l)) = (&last, &loaded) {
        // The last edited re-scan must match a cache-free scan of the same
        // edited layout.
        if let Some((fresh, _)) = scan_op(
            &l.detector,
            edited,
            inputs.layer,
            &ScanConfig::default(),
            checks,
        ) {
            checks.check(fresh.digest() == report.digest(), || {
                "cached re-scan digest differs from a cache-free scan".into()
            });
        }
        op_metrics(&mut values, &measured, report.clips_extracted);
        eprintln!(
            "rescan_edit: {} re-scans, last recomputed {} of {} tiles",
            measured.walls.len(),
            report.cache_misses,
            report.tiles_scanned
        );
    }
    values
}

/// The trained model's content as bytes: kernels, feedback kernel and
/// configuration (the persisted telemetry carries wall times).
fn model_bytes(det: &HotspotDetector) -> (String, String, String) {
    (
        serde_json::to_string(det.kernels()).expect("kernels serialise"),
        serde_json::to_string(&det.feedback()).expect("feedback kernel serialises"),
        serde_json::to_string(det.config()).expect("config serialises"),
    )
}

/// The suite's training set at its Table-I seed, moved by a seeded offset,
/// as training-set JSON. Training works in clip-relative coordinates, so
/// every seed trains the same model from different bytes.
fn training_inputs(run: &RunSpec) -> Vec<u8> {
    let started = Instant::now();
    // The generator draws the training clips before the layout, so the
    // smallest layout it accepts leaves them unchanged and costs nothing.
    let spec = run.suite_spec();
    let cell = spec.clip_shape.clip_side();
    let mut training = Benchmark::generate(BenchmarkSpec {
        width: 3 * cell,
        height: 3 * cell,
        test_hotspots: 1,
        ..spec
    })
    .training;
    let corner = Squares::new(run.seed, 2, Rect::from_extents(0, 0, 1_000_000, 1_000_000))
        .next()
        .min();
    for p in training
        .hotspots
        .iter_mut()
        .chain(&mut training.nonhotspots)
    {
        p.window = ClipWindow {
            core: p.window.core.translate(corner),
            clip: p.window.clip.translate(corner),
        };
        for r in &mut p.rects {
            *r = r.translate(corner);
        }
    }
    eprintln!("inputs generated in {:.1?}", started.elapsed());
    serde_json::to_vec(&training).expect("training set serialises")
}

/// Parses the training-set JSON as `hotspot train` does; returns the set
/// and the parse time.
fn load_training(json: &[u8]) -> (TrainingSet, Duration) {
    let t = Instant::now();
    let parsed: TrainingSet = serde_json::from_slice(json).expect("training JSON parses");
    (parsed, t.elapsed())
}

/// Repeats [`load_training`] like [`setup`]; returns the last parse and the
/// median parse time in seconds.
fn setup_training(json: &[u8]) -> (TrainingSet, f64) {
    let mut secs = Vec::new();
    let mut training = None;
    let started = Instant::now();
    while !setup_done(started, secs.len()) {
        let (parsed, t) = load_training(json);
        secs.push(t.as_secs_f64());
        drop(training.replace(parsed));
    }
    (training.expect("at least one parse"), median(&secs))
}

fn train_op(training: &TrainingSet, checks: &mut Checks) -> Option<(HotspotDetector, Duration)> {
    let t = Instant::now();
    let result = HotspotDetector::train(training, detector_config());
    let wall = t.elapsed();
    checks.check(result.is_ok(), || "training failed".into());
    result.ok().map(|det| (det, wall))
}

fn run_train(run: &RunSpec, checks: &mut Checks) -> Values {
    let json = training_inputs(run);
    let mut values = Values::new();
    let mut training = None;
    let mut reference: Option<(HotspotDetector, (String, String, String))> = None;
    let measured = measure(
        run,
        &mut training,
        || load_training(&json).0,
        |training| {
            let (det, wall) = train_op(training, checks)?;
            let bytes = model_bytes(&det);
            match &reference {
                None => reference = Some((det, bytes)),
                Some((_, first)) => checks.check(&bytes == first, || {
                    "trained model differs from the first training run".into()
                }),
            }
            Some(wall)
        },
    );
    let training = training.expect("set up by the measured phase");
    let clips = training.hotspots.len() + training.nonhotspots.len();
    op_metrics(&mut values, &measured, clips);
    let Some((reference, _)) = reference else {
        return values;
    };
    // Table II scoring on the training set itself: hotspots the model
    // flags, and nonhotspots it flags (extras).
    let flagged = |patterns: &[Pattern]| patterns.iter().filter(|p| reference.classify(p)).count();
    let hits = flagged(&training.hotspots);
    let extras = flagged(&training.nonhotspots);
    values.insert(
        "hit_rate".into(),
        hits as f64 / training.hotspots.len().max(1) as f64,
    );
    values.insert("extras".into(), extras as f64);
    eprintln!(
        "train: {} runs, {} kernels, feedback {}, training-set hits {hits}, extras {extras}",
        measured.walls.len(),
        reference.kernels().len(),
        reference.feedback().is_some()
    );
    values
}

/// The traced run: per-layer metrics.
pub fn run_traced(run: &RunSpec, checks: &mut Checks) -> Values {
    let mut values = match run.workload {
        Workload::Train => trace_train(run, checks),
        _ => trace_scan(run, checks),
    };
    for (name, _) in crate::metrics::PER_LAYER {
        values.entry((*name).to_string()).or_insert(0.0);
    }
    values
}

/// One traced iteration: the untraced operation's wall in milliseconds,
/// the iteration's metrics, and its spans.
type Iteration = (f64, Values, Tracer);

/// Keeps the iteration of median untraced wall (the lower middle of an
/// even count), writes its spans out, and returns its metrics. One whole
/// iteration, not per-metric medians, so its layer times and overhead add
/// up to its wall.
fn median_iteration(run: &RunSpec, mut iterations: Vec<Iteration>, checks: &mut Checks) -> Values {
    iterations.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mid = iterations.len().saturating_sub(1) / 2;
    let Some((_, values, tr)) = iterations.into_iter().nth(mid) else {
        return Values::new();
    };
    let path = run.trace_path();
    let written = tr.write_csv(&path);
    checks.check(written.is_ok(), || {
        format!("writing {} failed: {written:?}", path.display())
    });
    values
}

fn layer_times(values: &mut Values, tr: &Tracer, layers: &[&str]) -> f64 {
    let own = tr.self_ms();
    let mut sum = 0.0;
    for layer in layers {
        let t = own.get(layer).copied().unwrap_or(0.0);
        sum += t;
        values.insert(format!("{layer}_ms"), t);
    }
    sum
}

fn trace_scan(run: &RunSpec, checks: &mut Checks) -> Values {
    let inputs = ScanInputs::generate(run);
    let (loaded, [model_load, compile, gds_read]) = setup(&inputs);
    let mut setup_values = Values::new();
    setup_values.insert("core.detector.model_load_ms".into(), model_load);
    setup_values.insert("core.detector.compile_ms".into(), compile);
    setup_values.insert("layout.gdsii.read_ms".into(), gds_read);
    setup_values.insert(
        "core.detector.model_bytes".into(),
        inputs.model_json.len() as f64,
    );
    setup_values.insert("layout.gdsii.bytes".into(), inputs.gds.len() as f64);
    let det = &loaded.detector;
    assert_eq!(
        det.config().eval_mode,
        EvalMode::Compiled,
        "the replay mirrors the compiled evaluation engine"
    );
    let base = &loaded.layout;
    let layer = inputs.layer;
    let compiled = Compiled::new(det);
    let single = det.clone().with_threads(1);
    let rescan = run.workload == Workload::RescanEdit;

    // Executor utilisation of the untraced 2-thread scan, from its report.
    if let Some((report, _)) = scan_op(det, base, layer, &ScanConfig::default(), checks) {
        let t = &report.telemetry;
        let stage = |id| t.stage(id).map_or(0.0, |s| s.wall_ms);
        let busy_ms = stage(StageId::DensityPrefilter)
            + stage(StageId::ClipExtraction)
            + stage(StageId::KernelEvaluation);
        setup_values.insert(
            "core.engine.executor.busy_ratio".into(),
            busy_ms / (THREADS as f64 * ms(report.scan_time)),
        );
        setup_values.insert(
            "core.engine.executor.tasks_stolen".into(),
            t.stage(StageId::KernelEvaluation)
                .map_or(0, |s| s.tasks_stolen) as f64,
        );
    }

    let scan_cache = run.cache_path("scan");
    let replay_cache = run.cache_path("replay");
    let scan = ScanConfig {
        cache: rescan.then(|| scan_cache.clone()),
        ..Default::default()
    };
    let model_fingerprint = inputs.model_fingerprint();
    let replay_cache_of = || {
        rescan.then(|| ReplayCache {
            path: &replay_cache,
            model_fingerprint,
        })
    };
    let mut edits = Edits::new(run.seed, det, base, layer, &scan);
    if rescan {
        // Warm both caches on the base layout.
        let _ = std::fs::remove_file(&scan_cache);
        let _ = std::fs::remove_file(&replay_cache);
        scan_op(&single, base, layer, &scan, checks);
        let mut warm = Tracer::new();
        replay::scan(
            &mut warm,
            det,
            &compiled,
            base,
            layer,
            scan.tile_cores,
            replay_cache_of(),
        );
    }

    let mut iterations: Vec<Iteration> = Vec::new();
    let started = Instant::now();
    while iterations.is_empty() || started.elapsed().as_secs_f64() < run.seconds {
        let edited;
        let layout = if rescan {
            edited = edits.edit(base, layer);
            &edited
        } else {
            base
        };
        let Some((report, wall)) = scan_op(&single, layout, layer, &scan, checks) else {
            break;
        };
        let mut tr = Tracer::new();
        let replayed = replay::scan(
            &mut tr,
            det,
            &compiled,
            layout,
            layer,
            scan.tile_cores,
            replay_cache_of(),
        );
        let c = &replayed.counts;
        let eval = report.telemetry.stage(StageId::KernelEvaluation);
        checks.check(
            replayed.reported == report.reported
                && c.tiles == report.tiles_scanned
                && c.tiles_prefiltered == report.tiles_prefiltered
                && c.clips == report.clips_extracted
                && c.flagged == report.clips_flagged
                && c.reclaimed == report.feedback_reclaimed
                && c.eval_batches == report.eval_batches
                && c.cache_hits == report.cache_hits
                && c.cache_misses == report.cache_misses
                && eval.is_some_and(|s| {
                    s.admissions == c.decisions as u64
                        && s.admission_skips == c.route.rows_pruned() as u64
                }),
            || "traced replay differs from the untraced scan".into(),
        );

        let mut v = Values::new();
        let layer_sum = layer_times(&mut v, &tr, SCAN_LAYERS);
        let wall_ms = ms(wall);
        v.insert("core.scan.wall_1t_ms".into(), wall_ms);
        v.insert("core.scan.overhead_ms".into(), wall_ms - layer_sum);
        v.insert(
            "trace.replay_vs_scan_ratio".into(),
            tr.wall_ms(replay::SCAN_ROOT) / wall_ms,
        );
        v.insert("layout.scan.tiles".into(), c.tiles as f64);
        v.insert("core.extraction.clips".into(), c.clips as f64);
        v.insert("geom.sat.fallbacks".into(), c.raster_fallbacks as f64);
        v.insert(
            "topo.route.rows_considered".into(),
            c.route.rows_considered as f64,
        );
        v.insert(
            "topo.route.rows_pruned".into(),
            c.route.rows_pruned() as f64,
        );
        v.insert("topo.route.admissions".into(), c.route.admitted as f64);
        v.insert(
            "topo.route.admit_ratio".into(),
            c.route.admitted as f64 / c.route.rows_considered.max(1) as f64,
        );
        v.insert(
            "core.training.feature_extractions".into(),
            c.feature_extractions as f64,
        );
        v.insert("svm.eval.decisions".into(), c.decisions as f64);
        v.insert("svm.eval.sv_dot_gflop".into(), c.sv_dot_flops as f64 / 1e9);
        v.insert("core.feedback.calls".into(), c.feedback_calls as f64);
        v.insert("core.feedback.reclaimed".into(), c.reclaimed as f64);
        v.insert("core.removal.flagged_in".into(), c.removal_in as f64);
        v.insert(
            "core.removal.reported_out".into(),
            replayed.reported.len() as f64,
        );
        v.insert("core.tile_cache.bytes".into(), c.cache_bytes as f64);
        v.insert("core.tile_cache.hits".into(), c.cache_hits as f64);
        v.insert("core.tile_cache.misses".into(), c.cache_misses as f64);
        iterations.push((wall_ms, v, tr));
    }
    let _ = std::fs::remove_file(&scan_cache);
    let _ = std::fs::remove_file(&replay_cache);
    eprintln!(
        "{}: {} traced iterations",
        run.workload.name(),
        iterations.len()
    );
    let mut values = median_iteration(run, iterations, checks);
    values.extend(setup_values);
    values
}

fn trace_train(run: &RunSpec, checks: &mut Checks) -> Values {
    let json = training_inputs(run);
    let (training, load_s) = setup_training(&json);
    let mut setup_values = Values::new();
    setup_values.insert("core.training.set_load_ms".into(), load_s * 1e3);
    setup_values.insert("core.training.set_bytes".into(), json.len() as f64);
    let config = detector_config();

    let mut iterations: Vec<Iteration> = Vec::new();
    let started = Instant::now();
    while iterations.is_empty() || started.elapsed().as_secs_f64() < run.seconds {
        let Some((det, wall)) = train_op(&training, checks) else {
            break;
        };
        let mut tr = Tracer::new();
        let Ok(replayed) = replay::train(&mut tr, &training, &config) else {
            checks.check(false, || "training replay failed".into());
            break;
        };
        let (kernels, feedback, _) = model_bytes(&det);
        checks.check(
            replayed.kernels_json == kernels && replayed.feedback_json == feedback,
            || "traced training replay differs from HotspotDetector::train".into(),
        );
        let mut v = Values::new();
        layer_times(&mut v, &tr, TRAIN_LAYERS);
        v.insert("svm.smo.iterations".into(), replayed.smo_iterations as f64);
        v.insert(
            "trace.replay_vs_scan_ratio".into(),
            tr.wall_ms(replay::TRAIN_ROOT) / ms(wall),
        );
        iterations.push((ms(wall), v, tr));
    }
    let mut values = median_iteration(run, iterations, checks);
    values.extend(setup_values);
    values
}
