//! Implementation of the `hotspot` command-line interface.
//!
//! Subcommands:
//!
//! - `generate` — build a synthetic benchmark and write its artifacts
//!   (`layout.gds`, `training.json`, `actual.json`, `spec.json`),
//! - `train` — train the framework on a training set and persist the model,
//! - `scan` (also spelled `detect`) — run a trained model over a GDSII
//!   layout through the tiled, density-prefiltered scan and write the
//!   report, optionally with live observability (`--progress`,
//!   `--metrics-addr`, `--events`),
//! - `score` — score a report against ground truth,
//! - `info` — print layout statistics,
//! - `events` — validate and summarise an NDJSON observability event log.
//!
//! Every command is a pure function from arguments to an output string, so
//! the whole surface is unit-testable without spawning processes.

// `deny` rather than `forbid` so the `sigint` module alone can opt back
// in for the two-line `signal(2)` shim; everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod sigint;

use hotspot_benchgen::{iccad_suite, Benchmark, SuiteScale};
use hotspot_core::{
    CancelToken, DetectError, DetectorConfig, FailurePolicy, FaultPlan, HotspotDetector,
    MetricsServer, NdjsonSink, ObsEvent, ObsHub, ProgressSink, Sampler, ScanConfig, TrainingSet,
};
use hotspot_layout::{gdsii, ClipWindow, LayerId};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Error running a CLI command.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments; the message explains usage.
    Usage(String),
    /// Filesystem failure.
    Io(std::io::Error),
    /// JSON (de)serialisation failure.
    Json(serde_json::Error),
    /// GDSII parse/serialise failure.
    Gds(gdsii::GdsError),
    /// Detector pipeline failure (training or evaluation).
    Pipeline(DetectError),
}

impl CliError {
    /// Process exit code for this error: each variant maps to a distinct
    /// non-zero code so scripts can tell failure classes apart.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Json(_)
            | CliError::Pipeline(DetectError::InvalidModel(_))
            | CliError::Pipeline(DetectError::InvalidPattern { .. }) => 4,
            CliError::Gds(_) => 5,
            CliError::Pipeline(_) => 6,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Json(e) => write!(f, "json error: {e}"),
            // Exit 4 like malformed JSON, so they carry that class's prefix.
            CliError::Pipeline(
                e @ (DetectError::InvalidModel(_) | DetectError::InvalidPattern { .. }),
            ) => write!(f, "json error: {e}"),
            CliError::Gds(e) => write!(f, "gdsii error: {e}"),
            CliError::Pipeline(e) => write!(f, "pipeline error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}
impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Json(e)
    }
}
impl From<gdsii::GdsError> for CliError {
    fn from(e: gdsii::GdsError) -> Self {
        CliError::Gds(e)
    }
}
impl From<DetectError> for CliError {
    fn from(e: DetectError) -> Self {
        CliError::Pipeline(e)
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
hotspot — machine-learning lithography hotspot detection

USAGE:
  hotspot generate --name <benchmark> [--scale tiny|small|medium|paper|huge] --out <dir>
  hotspot train    --training <training.json> --out <model.json> [--threads N]
                   [--telemetry <telemetry.json>]
  hotspot scan     --model <model.json> --layout <layout.gds> --out <report.json>
                   [--layer N] [--threshold X] [--threads N] [--tile-cores N]
                   [--max-in-flight N] [--tile-density X] [--json]
                   [--telemetry <telemetry.json>]
                   [--cache <cache.bin>] [--cache-verify] [--max-failed-tiles N]
                   [--deadline DUR] [--tile-timeout DUR]
                   [--fault-seed N] [--fault-panic-per-mille N]
                   [--fault-transient-per-mille N]
                   [--fault-stall-tasks I,J,..] [--fault-stall-per-mille N]
                   [--fault-stall-ms N]
                   [--progress] [--metrics-addr <host:port>]
                   [--events <events.ndjson>] [--obs-interval-ms N]
                   [--metrics-linger-ms N]
  hotspot score    --report <report.json> --actual <actual.json> --area-um2 <X>
                   [--min-overlap X] [--json]
  hotspot info     --layout <layout.gds>
  hotspot events   --file <events.ndjson> [--json]
  hotspot render   --layout <layout.gds> --out <image.svg>
                   [--report <report.json>] [--actual <actual.json>]

Benchmarks: array_benchmark1..5, mx_blind_partial.
`hotspot detect` is another name for `hotspot scan`: same flags, same
report and summary.
--threads 0 means one worker per core. `scan` `--telemetry` merges the
model's training telemetry with the run into an eight-stage record.
`scan` streams the layout tile by tile: --max-in-flight bounds memory
(0 = 2x threads), --tile-cores sets the tile stride in core sides, and
--tile-density enables the aggressive mean-coverage prefilter.
--cache keeps a content-addressed tile result cache across scans: a warm
re-scan replays unchanged tiles by content fingerprint and recomputes only
edited ones, with a report byte-identical to a cold scan. Each batch of
computed tiles is appended to it with one fsync, so a killed or aborted
scan re-run with the same --cache recomputes only the missing tiles.
Retraining or changing detector/scan config invalidates the whole cache;
corrupt entries are dropped individually. --cache-verify also recomputes
every hit and fails if any stored entry disagrees (debugging/CI).
--max-failed-tiles quarantines panicking tiles instead of aborting, up to
the given bound. The --fault-* flags drive the deterministic
fault-injection harness (testing only); the --fault-stall-* flags stall
chosen tiles so timeout handling can be rehearsed.
--deadline caps the whole scan's wall-clock budget and --tile-timeout
caps each tile's. Durations take a unit suffix (30s, 500ms, 2m); a bare
number means seconds. A scan that outlives its deadline — or is
interrupted with Ctrl-C — stops admitting tiles, drains its in-flight
window, syncs the cache, writes the partial report, and exits with code
8; re-running with the same --cache <path> finishes it with a report
identical to an uninterrupted run. A tile that outlives
--tile-timeout is quarantined like a panicking one (needs
--max-failed-tiles).
`scan` observability (pure observation — the report is bit-identical with
or without it): --progress renders a live tiles/clips/ETA line to stderr,
--metrics-addr serves Prometheus text format on http://<host:port>/metrics
for the duration of the scan (--metrics-linger-ms keeps it up that much
longer so scrapers can catch the final totals), and --events appends every
structured pipeline event to a schema-versioned NDJSON log.
--obs-interval-ms sets the counter sampling period (default 1000).
`events` validates such a log line by line and summarises it; a log
that is truncated mid-record, corrupt, not UTF-8, or names an unknown
event exits 3.

Exit codes: 0 ok, 2 usage, 3 i/o, 4 json (malformed JSON, or an
inconsistent model: feature lengths off their SVMs, support vectors,
coefficients, scaler or centroids of the wrong size, or the retired
eval_mode \"reference\"; or a training pattern whose core or clip window
is empty or whose core lies outside its clip; the message starts
`json error:`),
5 gdsii, 6 pipeline (also a layer extent too large to tile), 7 completed
with quarantined tiles, 8 aborted by deadline or Ctrl-C (finished tiles cached; re-run with the
same --cache <path>).";

/// Exit code for a scan that completed but quarantined one or more tiles.
pub const EXIT_QUARANTINED: i32 = 7;

/// Exit code for a scan stopped early by its `--deadline` or by SIGINT:
/// the report written is partial but valid, the `--cache` holds every
/// finished tile, and re-running with the same `--cache <path>` completes
/// the scan bit-identically.
/// Takes precedence over [`EXIT_QUARANTINED`] when both apply.
pub const EXIT_ABORTED: i32 = 8;

/// Runs a CLI invocation (without the program name) and returns its stdout.
///
/// Degraded-mode outcomes (a scan that completed with quarantined tiles)
/// are reported as success here; use [`run_with_status`] to observe the
/// non-zero advisory exit code.
///
/// # Errors
///
/// Returns [`CliError`] for bad arguments or failing I/O.
pub fn run(args: &[String]) -> Result<String, CliError> {
    run_with_status(args).map(|(out, _)| out)
}

/// Runs a CLI invocation and returns its stdout plus the process exit code.
///
/// The code is `0` for a clean run and [`EXIT_QUARANTINED`] when a scan
/// completed under `--max-failed-tiles` with at least one quarantined tile.
///
/// # Errors
///
/// Returns [`CliError`] for bad arguments or failing I/O.
pub fn run_with_status(args: &[String]) -> Result<(String, i32), CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::Usage(USAGE.into()));
    };
    // Each subcommand with the flags it reads; any other flag is a usage
    // error, so a misspelt or retired flag cannot be silently ignored.
    type Handler = fn(&Opts) -> Result<(String, i32), CliError>;
    let (handler, flags): (Handler, &[&str]) = match command.as_str() {
        "generate" => (|o| cmd_generate(o).map(clean), &["name", "scale", "out"]),
        "train" => (
            |o| cmd_train(o).map(clean),
            &["training", "out", "threads", "telemetry"],
        ),
        "detect" | "scan" => (cmd_scan, SCAN_FLAGS),
        "score" => (
            |o| cmd_score(o).map(clean),
            &["report", "actual", "area-um2", "min-overlap", "json"],
        ),
        "info" => (|o| cmd_info(o).map(clean), &["layout"]),
        "events" => (|o| cmd_events(o).map(clean), &["file", "json"]),
        "render" => (
            |o| cmd_render(o).map(clean),
            &["layout", "out", "report", "actual"],
        ),
        "help" | "--help" | "-h" => return Ok(clean(USAGE.to_string())),
        other => {
            return Err(CliError::Usage(format!(
                "unknown command `{other}`\n\n{USAGE}"
            )))
        }
    };
    handler(&parse_flags(command, rest, flags)?)
}

/// The flags `hotspot scan` (alias `detect`) reads.
const SCAN_FLAGS: &[&str] = &[
    "model",
    "layout",
    "out",
    "layer",
    "threshold",
    "threads",
    "tile-cores",
    "max-in-flight",
    "tile-density",
    "json",
    "telemetry",
    "cache",
    "cache-verify",
    "max-failed-tiles",
    "deadline",
    "tile-timeout",
    "fault-seed",
    "fault-panic-per-mille",
    "fault-transient-per-mille",
    "fault-stall-tasks",
    "fault-stall-per-mille",
    "fault-stall-ms",
    "progress",
    "metrics-addr",
    "events",
    "obs-interval-ms",
    "metrics-linger-ms",
];

fn clean(out: String) -> (String, i32) {
    (out, 0)
}

/// Flag map: `--key value` pairs, plus valueless boolean switches.
struct Opts(Vec<(String, String)>);

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["json", "progress", "cache-verify"];

impl Opts {
    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| k == key)
    }

    fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{key}\n\n{USAGE}")))
    }

    fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("invalid value `{v}` for --{key}"))),
        }
    }
}

/// Parses `command`'s arguments, accepting only the flags in `allowed`.
fn parse_flags(command: &str, args: &[String], allowed: &[&str]) -> Result<Opts, CliError> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return Err(CliError::Usage(format!("expected a --flag, got `{flag}`")));
        };
        if !allowed.contains(&key) {
            return Err(CliError::Usage(format!(
                "unknown flag --{key} for `hotspot {command}`\n\n{USAGE}"
            )));
        }
        if BOOL_FLAGS.contains(&key) {
            out.push((key.to_string(), String::new()));
            continue;
        }
        let Some(value) = it.next() else {
            return Err(CliError::Usage(format!("flag --{key} needs a value")));
        };
        out.push((key.to_string(), value.clone()));
    }
    Ok(Opts(out))
}

fn cmd_generate(opts: &Opts) -> Result<String, CliError> {
    let name = opts.require("name")?;
    let out_dir = PathBuf::from(opts.require("out")?);
    let scale: SuiteScale = opts
        .get("scale")
        .unwrap_or("small")
        .parse()
        .map_err(CliError::Usage)?;
    let spec = iccad_suite(scale)
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| CliError::Usage(format!("unknown benchmark `{name}`")))?;
    let benchmark = Benchmark::generate(spec);

    std::fs::create_dir_all(&out_dir)?;
    gdsii::write_file(&benchmark.layout, out_dir.join("layout.gds"))?;
    write_json(out_dir.join("training.json"), &benchmark.training)?;
    write_json(out_dir.join("actual.json"), &benchmark.actual)?;
    write_json(out_dir.join("spec.json"), &benchmark.spec)?;

    Ok(format!(
        "generated `{}` into {}\n  layout.gds    {} polygons, {:.0} um^2\n  training.json {} hotspots / {} nonhotspots\n  actual.json   {} ground-truth hotspots",
        benchmark.spec.name,
        out_dir.display(),
        benchmark.layout.polygon_count(),
        benchmark.area_um2(),
        benchmark.training.hotspots.len(),
        benchmark.training.nonhotspots.len(),
        benchmark.actual.len(),
    ))
}

fn cmd_train(opts: &Opts) -> Result<String, CliError> {
    let training: TrainingSet = read_json(opts.require("training")?)?;
    let out = PathBuf::from(opts.require("out")?);
    let config = DetectorConfig {
        threads: opts.parse("threads", 0usize)?,
        ..Default::default()
    };
    let detector = HotspotDetector::train(&training, config)?;
    write_json(&out, &detector)?;
    let s = detector.summary();
    if let Some(path) = opts.get("telemetry") {
        write_json(path, &s.telemetry)?;
    }
    Ok(format!(
        "trained {} kernels ({} hotspot clusters, {} nonhotspot medoids, feedback: {}) in {:.2?}\nmodel written to {}",
        detector.kernels().len(),
        s.hotspot_clusters,
        s.nonhotspot_medoids,
        s.feedback_trained,
        s.training_time,
        out.display(),
    ))
}

/// Parses an optional duration flag: `30s`, `500ms`, `2m`, or a bare
/// integer meaning seconds. Bad values are usage errors (exit code 2).
fn parse_opt_duration(opts: &Opts, key: &str) -> Result<Option<Duration>, CliError> {
    let Some(raw) = opts.get(key) else {
        return Ok(None);
    };
    let (digits, unit_ms) = if let Some(n) = raw.strip_suffix("ms") {
        (n, 1u64)
    } else if let Some(n) = raw.strip_suffix('s') {
        (n, 1_000)
    } else if let Some(n) = raw.strip_suffix('m') {
        (n, 60_000)
    } else {
        (raw, 1_000)
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(unit_ms))
        .map(|ms| Some(Duration::from_millis(ms)))
        .ok_or_else(|| {
            CliError::Usage(format!(
                "invalid duration `{raw}` for --{key} (try 30s, 500ms, or 2m)"
            ))
        })
}

/// Parses an optional comma-separated list of task indices
/// (e.g. `--fault-stall-tasks 3,17`).
fn parse_opt_indices(opts: &Opts, key: &str) -> Result<Vec<usize>, CliError> {
    let Some(raw) = opts.get(key) else {
        return Ok(Vec::new());
    };
    raw.split(',')
        .map(|part| part.trim().parse::<usize>())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| {
            CliError::Usage(format!(
                "invalid value `{raw}` for --{key} (expected comma-separated indices)"
            ))
        })
}

fn cmd_scan(opts: &Opts) -> Result<(String, i32), CliError> {
    let cache = opts.get("cache").map(PathBuf::from);
    if opts.has("cache-verify") && cache.is_none() {
        return Err(CliError::Usage(
            "--cache-verify needs --cache to name the cache to check".into(),
        ));
    }
    let mut detector: HotspotDetector = read_json(opts.require("model")?)?;
    detector.validate()?;
    let layout = gdsii::read_file(opts.require("layout")?)?;
    let out = PathBuf::from(opts.require("out")?);
    let layer = LayerId::new(opts.parse("layer", 1u16)?);
    let threshold = opts.parse("threshold", detector.config().decision_threshold)?;
    if let Some(threads) = opts.get("threads") {
        let threads: usize = threads
            .parse()
            .map_err(|_| CliError::Usage(format!("invalid value `{threads}` for --threads")))?;
        detector = detector.with_threads(threads);
    }
    let failure_policy = match opts.get("max-failed-tiles") {
        None => FailurePolicy::Abort,
        Some(v) => FailurePolicy::SkipAndRecord {
            max_failed_tiles: v.parse().map_err(|_| {
                CliError::Usage(format!("invalid value `{v}` for --max-failed-tiles"))
            })?,
        },
    };
    let fault_plan = FaultPlan {
        seed: opts.parse("fault-seed", 0u64)?,
        panic_per_mille: opts.parse("fault-panic-per-mille", 0u16)?,
        transient_per_mille: opts.parse("fault-transient-per-mille", 0u16)?,
        stall_tasks: parse_opt_indices(opts, "fault-stall-tasks")?,
        stall_per_mille: opts.parse("fault-stall-per-mille", 0u16)?,
        stall_ms: opts.parse("fault-stall-ms", 0u64)?,
        ..Default::default()
    };
    // Graceful Ctrl-C: the handler's flag is the scan's token, so the scan
    // drains and reports `aborted`, and we exit with EXIT_ABORTED below.
    // In unit tests the global handler stays uninstalled so concurrently
    // running scans cannot be cancelled by a sibling test's interrupt; the
    // real binary path is exercised end-to-end by the CI SIGINT smoke.
    let (cancel, _sigint) = if cfg!(test) {
        (CancelToken::new(), None)
    } else {
        let (token, guard) = sigint::install();
        (token, Some(guard))
    };
    let defaults = ScanConfig::default();
    let scan =
        ScanConfig {
            tile_cores: opts.parse("tile-cores", defaults.tile_cores)?,
            max_in_flight: opts.parse("max-in-flight", defaults.max_in_flight)?,
            tile_density: match opts.get("tile-density") {
                None => None,
                Some(v) => Some(v.parse().map_err(|_| {
                    CliError::Usage(format!("invalid value `{v}` for --tile-density"))
                })?),
            },
            failure_policy,
            fault_plan,
            cache,
            cache_verify: opts.has("cache-verify"),
            deadline: parse_opt_duration(opts, "deadline")?,
            tile_timeout: parse_opt_duration(opts, "tile-timeout")?,
            cancel: Some(cancel),
        };

    // Live observability: build the hub and its sinks before the scan and
    // tear them down after. The hub observes only — the report below is
    // bit-identical whether or not any sink is installed.
    let events_path = opts.get("events").map(PathBuf::from);
    let metrics_addr = opts.get("metrics-addr");
    let obs_interval = opts.parse("obs-interval-ms", 1000u64)?.max(10);
    let linger_ms = opts.parse("metrics-linger-ms", 0u64)?;
    let hub =
        (events_path.is_some() || metrics_addr.is_some() || opts.has("progress")).then(ObsHub::new);
    let mut server = None;
    let mut sampler = None;
    if let Some(hub) = &hub {
        if let Some(path) = &events_path {
            hub.register(Box::new(NdjsonSink::create(path)?));
        }
        if opts.has("progress") {
            hub.register(Box::new(ProgressSink::new()));
        }
        if let Some(addr) = metrics_addr {
            server = Some(MetricsServer::bind(addr, Arc::clone(hub))?);
        }
        sampler = Some(Sampler::start(
            Arc::clone(hub),
            Duration::from_millis(obs_interval),
        ));
        detector = detector.with_obs(Arc::clone(hub));
    }
    let metrics_local = server.as_ref().map(MetricsServer::local_addr);

    let report = detector.scan_layout_with_threshold(&layout, layer, &scan, threshold)?;

    // Final snapshot first, then give scrapers a chance to read the
    // totals before the listener goes away.
    if let Some(sampler) = sampler {
        sampler.stop();
    }
    if let Some(server) = server {
        if linger_ms > 0 {
            std::thread::sleep(Duration::from_millis(linger_ms));
        }
        server.shutdown();
    }
    write_json(&out, &report.reported)?;
    if let Some(path) = opts.get("telemetry") {
        let merged = detector.summary().telemetry.merge(&report.telemetry);
        write_json(path, &merged)?;
    }
    // An abort outranks quarantined tiles: the scan is incomplete, and
    // that is the fact a calling script must react to first.
    let status = if report.aborted.is_some() {
        EXIT_ABORTED
    } else if report.failed_tiles.is_empty() {
        0
    } else {
        EXIT_QUARANTINED
    };
    if opts.has("json") {
        return Ok((serde_json::to_string_pretty(&report)?, status));
    }
    let mut text = format!(
        "scanned {} of {} tiles ({} prefiltered), {} clips in {} eval batches, flagged {}, reported {} hotspots in {:.2?} ({:.0} clips/s, peak {} tiles in flight)",
        report.tiles_scanned,
        report.tiles_total,
        report.tiles_prefiltered,
        report.clips_extracted,
        report.eval_batches,
        report.clips_flagged,
        report.reported.len(),
        report.scan_time,
        report.clips_per_second(),
        report.peak_in_flight,
    );
    if report.cache_hits > 0 || report.cache_misses > 0 {
        text.push_str(&format!(
            "\ncache: {} hit(s), {} miss(es)",
            report.cache_hits, report.cache_misses
        ));
    }
    if report.retries > 0 {
        text.push_str(&format!("\nretried {} tile(s) once", report.retries));
    }
    if !report.failed_tiles.is_empty() {
        text.push_str(&format!(
            "\nquarantined {} tile(s):",
            report.failed_tiles.len()
        ));
        for failed in &report.failed_tiles {
            text.push_str(&format!("\n  tile {}: {}", failed.tile, failed.reason));
        }
    }
    if let Some(reason) = report.aborted {
        text.push_str(&format!(
            "\nscan aborted ({reason}) after {} of {} tiles; the report is partial — \
             re-run with the same --cache <path> to finish it",
            report.tiles_scanned, report.tiles_total,
        ));
    }
    if let Some(addr) = metrics_local {
        text.push_str(&format!("\nmetrics were served at http://{addr}/metrics"));
    }
    if let Some(path) = &events_path {
        text.push_str(&format!("\nevent log written to {}", path.display()));
    }
    text.push_str(&format!("\nreport written to {}", out.display()));
    Ok((text, status))
}

fn cmd_score(opts: &Opts) -> Result<String, CliError> {
    let reported: Vec<ClipWindow> = read_json(opts.require("report")?)?;
    let actual: Vec<ClipWindow> = read_json(opts.require("actual")?)?;
    let area: f64 = opts
        .require("area-um2")?
        .parse()
        .map_err(|_| CliError::Usage("--area-um2 must be a number".into()))?;
    let min_overlap = opts.parse("min-overlap", 0.2f64)?;
    let eval = hotspot_core::score(
        &reported,
        &actual,
        min_overlap,
        area,
        std::time::Duration::ZERO,
    );
    if opts.has("json") {
        return Ok(serde_json::to_string_pretty(&eval)?);
    }
    Ok(format!(
        "{eval}\nfalse alarm: {:.6} extras/um^2",
        eval.false_alarm()
    ))
}

fn cmd_info(opts: &Opts) -> Result<String, CliError> {
    let layout = gdsii::read_file(opts.require("layout")?)?;
    let mut out = format!(
        "layout `{}`: {} polygons on {} layer(s)\ntelemetry schema: v{}\n",
        layout.name(),
        layout.polygon_count(),
        layout.layers().count(),
        hotspot_core::TELEMETRY_SCHEMA_VERSION,
    );
    if let Some(bbox) = layout.bbox() {
        out.push_str(&format!(
            "bbox: {} — {} ({:.1} x {:.1} um)\n",
            bbox.min(),
            bbox.max(),
            bbox.width() as f64 / 1000.0,
            bbox.height() as f64 / 1000.0
        ));
    }
    for layer in layout.layers() {
        out.push_str(&format!(
            "  {layer}: {} polygons, {:.1} um^2 of metal\n",
            layout.polygons(layer).len(),
            layout.layer_area(layer) as f64 / 1e6
        ));
    }
    Ok(out)
}

fn cmd_events(opts: &Opts) -> Result<String, CliError> {
    let path = opts.require("file")?;
    // `read_events` rejects unknown schema versions and malformed lines
    // with an InvalidData error naming the offending line, which surfaces
    // here as a non-zero exit.
    let records = hotspot_core::obs::read_events(path)?;
    if opts.has("json") {
        return Ok(serde_json::to_string_pretty(&records)?);
    }
    let mut scans = 0usize;
    let mut batches = 0usize;
    let mut snapshots = 0usize;
    let mut quarantined = 0usize;
    let mut cache_hits = 0usize;
    let mut cache_misses = 0usize;
    let mut aborted = 0usize;
    let mut timed_out = 0usize;
    for record in &records {
        match record.event {
            ObsEvent::ScanStarted { .. } => scans += 1,
            ObsEvent::BatchCompleted { .. } => batches += 1,
            ObsEvent::Snapshot { .. } => snapshots += 1,
            ObsEvent::TileQuarantined { .. } => quarantined += 1,
            ObsEvent::CacheHit { .. } => cache_hits += 1,
            ObsEvent::CacheMiss { .. } => cache_misses += 1,
            ObsEvent::ScanAborted { .. } => aborted += 1,
            ObsEvent::TileTimedOut { .. } => timed_out += 1,
            _ => {}
        }
    }
    // An empty (or header-only) log is a valid summary, not an error: a
    // scan aborted right after opening its sink leaves exactly that.
    Ok(format!(
        "{} event(s), schema v{}: {} scan(s), {} batch(es), {} snapshot(s), {} quarantined tile(s), {} timed-out tile(s), {} aborted scan(s), {} cache hit(s), {} cache miss(es)",
        records.len(),
        hotspot_core::OBS_SCHEMA_VERSION,
        scans,
        batches,
        snapshots,
        quarantined,
        timed_out,
        aborted,
        cache_hits,
        cache_misses,
    ))
}

fn cmd_render(opts: &Opts) -> Result<String, CliError> {
    let layout = gdsii::read_file(opts.require("layout")?)?;
    let out = PathBuf::from(opts.require("out")?);
    let mut options = hotspot_layout::svg::RenderOptions::default();
    if let Some(path) = opts.get("report") {
        options.reported = read_json(path)?;
    }
    if let Some(path) = opts.get("actual") {
        options.actual = read_json(path)?;
    }
    hotspot_layout::svg::render_to_file(&layout, &options, &out)?;
    Ok(format!(
        "rendered {} polygons (+{} reported, {} actual windows) to {}",
        layout.polygon_count(),
        options.reported.len(),
        options.actual.len(),
        out.display(),
    ))
}

fn write_json<T: serde::Serialize>(path: impl AsRef<Path>, value: &T) -> Result<(), CliError> {
    let file = std::fs::File::create(path)?;
    serde_json::to_writer(std::io::BufWriter::new(file), value)?;
    Ok(())
}

fn read_json<T: serde::de::DeserializeOwned>(path: impl AsRef<Path>) -> Result<T, CliError> {
    let file = std::fs::File::open(path)?;
    Ok(serde_json::from_reader(std::io::BufReader::new(file))?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn workdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hotspot_cli_{name}"));
        std::fs::create_dir_all(&dir).expect("tempdir");
        dir
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&argv(&["help"])).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let err = run(&argv(&["frobnicate"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        // Retired flags, a misspelt one, and another command's flag: all
        // used to be ignored (or, for --resume, read).
        for (args, flag) in [
            (&["scan", "--eval-mode", "compiled"][..], "--eval-mode"),
            (&["scan", "--resume"], "--resume"),
            (
                &["generate", "--name", "array_benchmark1", "--scael", "tiny"],
                "--scael",
            ),
            (&["info", "--layout", "x.gds", "--json"], "--json"),
        ] {
            let err = run(&argv(args)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{args:?}");
            assert!(
                err.to_string().contains(&format!("unknown flag {flag}")),
                "{err}"
            );
        }
    }

    #[test]
    fn missing_flags_error() {
        let err = run(&argv(&["generate", "--name", "array_benchmark1"])).unwrap_err();
        assert!(err.to_string().contains("--out"));
        let err = run(&argv(&["generate", "--name"])).unwrap_err();
        assert!(err.to_string().contains("needs a value"));
    }

    #[test]
    fn unknown_benchmark_errors() {
        let dir = workdir("unknown_bm");
        let err = run(&argv(&[
            "generate",
            "--name",
            "bogus",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("unknown benchmark"));
        let err = run(&argv(&[
            "generate",
            "--name",
            "array_benchmark1",
            "--scale",
            "giant",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert_eq!(
            err.to_string(),
            "usage error: unknown scale `giant` (tiny|small|medium|paper|huge)"
        );
    }

    #[test]
    fn full_cli_round_trip() {
        // generate -> train -> detect -> score, all through the public CLI.
        let dir = workdir("roundtrip");
        let out = run(&argv(&[
            "generate",
            "--name",
            "array_benchmark1",
            "--scale",
            "tiny",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("generated"));

        let model = dir.join("model.json");
        let out = run(&argv(&[
            "train",
            "--training",
            dir.join("training.json").to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--threads",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("trained"), "{out}");

        let report = dir.join("report.json");
        let telemetry = dir.join("telemetry.json");
        let out = run(&argv(&[
            "detect",
            "--model",
            model.to_str().unwrap(),
            "--layout",
            dir.join("layout.gds").to_str().unwrap(),
            "--out",
            report.to_str().unwrap(),
            "--threads",
            "2",
            "--telemetry",
            telemetry.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("reported"), "{out}");

        // `detect` is another name for `scan`: another tiling writes the
        // same hotspot set.
        let scan_report = dir.join("scan_report.json");
        let out = run(&argv(&[
            "scan",
            "--model",
            model.to_str().unwrap(),
            "--layout",
            dir.join("layout.gds").to_str().unwrap(),
            "--out",
            scan_report.to_str().unwrap(),
            "--threads",
            "2",
            "--tile-cores",
            "8",
            "--max-in-flight",
            "4",
        ]))
        .unwrap();
        assert!(out.contains("scanned"), "{out}");
        assert_eq!(
            std::fs::read_to_string(&report).unwrap(),
            std::fs::read_to_string(&scan_report).unwrap(),
            "scan and detect must write identical reports"
        );

        // --json emits the full machine-readable scan report.
        let out = run(&argv(&[
            "scan",
            "--json",
            "--model",
            model.to_str().unwrap(),
            "--layout",
            dir.join("layout.gds").to_str().unwrap(),
            "--out",
            scan_report.to_str().unwrap(),
            "--threads",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("\"tiles_scanned\""), "{out}");
        assert!(out.contains("\"peak_in_flight\""), "{out}");

        // The telemetry file is the merged training + scan record: valid
        // JSON covering all eight pipeline stages.
        let t: hotspot_core::PipelineTelemetry =
            serde_json::from_str(&std::fs::read_to_string(&telemetry).unwrap()).unwrap();
        assert_eq!(t.schema_version, hotspot_core::TELEMETRY_SCHEMA_VERSION);
        assert_eq!(t.stages.len(), 8, "expected all eight stages: {t:?}");
        assert!(t
            .stages
            .iter()
            .all(|s| s.threads_used >= 1 || s.items_in == 0));

        let out = run(&argv(&[
            "score",
            "--report",
            report.to_str().unwrap(),
            "--actual",
            dir.join("actual.json").to_str().unwrap(),
            "--area-um2",
            "207",
        ]))
        .unwrap();
        assert!(out.contains("#hit"), "{out}");

        // --json switches score output to machine-readable form.
        let out = run(&argv(&[
            "score",
            "--json",
            "--report",
            report.to_str().unwrap(),
            "--actual",
            dir.join("actual.json").to_str().unwrap(),
            "--area-um2",
            "207",
        ]))
        .unwrap();
        assert!(out.trim_start().starts_with('{'), "{out}");
        assert!(out.contains("\"hits\""), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_cache_rerun_and_quarantine_flags() {
        let dir = workdir("fault_flags");
        run(&argv(&[
            "generate",
            "--name",
            "array_benchmark1",
            "--scale",
            "tiny",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let model = dir.join("model.json");
        run(&argv(&[
            "train",
            "--training",
            dir.join("training.json").to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--threads",
            "2",
        ]))
        .unwrap();

        // A cached scan, then a re-run: same report, exit 0, and the
        // re-run serves every tile from the cache.
        let cache = dir.join("scan.cache");
        let report = dir.join("report.json");
        let scan_args = |extra: &[&str]| {
            let mut args = argv(&[
                "scan",
                "--model",
                model.to_str().unwrap(),
                "--layout",
                dir.join("layout.gds").to_str().unwrap(),
                "--out",
                report.to_str().unwrap(),
                "--threads",
                "2",
                "--cache",
                cache.to_str().unwrap(),
            ]);
            args.extend(extra.iter().map(|s| s.to_string()));
            args
        };
        let (out, status) = run_with_status(&scan_args(&[])).unwrap();
        assert_eq!(status, 0, "{out}");
        let first = std::fs::read_to_string(&report).unwrap();

        let (out, status) = run_with_status(&scan_args(&[])).unwrap();
        assert_eq!(status, 0, "{out}");
        assert!(out.contains(" 0 miss(es)"), "{out}");
        assert_eq!(std::fs::read_to_string(&report).unwrap(), first);

        // Injected panics on every tile + quarantine: completes with the
        // advisory exit code and lists the quarantined tiles.
        let fresh_cache = dir.join("faulted.cache");
        let (out, status) = run_with_status(&argv(&[
            "scan",
            "--model",
            model.to_str().unwrap(),
            "--layout",
            dir.join("layout.gds").to_str().unwrap(),
            "--out",
            report.to_str().unwrap(),
            "--threads",
            "2",
            "--cache",
            fresh_cache.to_str().unwrap(),
            "--max-failed-tiles",
            "10000",
            "--fault-seed",
            "42",
            "--fault-panic-per-mille",
            "1000",
        ]))
        .unwrap();
        assert_eq!(status, EXIT_QUARANTINED, "{out}");
        assert!(out.contains("quarantined"), "{out}");
        assert!(out.contains("injected fault"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_cache_flags_warm_rescan_is_identical() {
        let dir = workdir("cache_flags");
        run(&argv(&[
            "generate",
            "--name",
            "array_benchmark1",
            "--scale",
            "tiny",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let model = dir.join("model.json");
        run(&argv(&[
            "train",
            "--training",
            dir.join("training.json").to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--threads",
            "2",
        ]))
        .unwrap();

        // --cache-verify without --cache is a usage error.
        let err = run(&argv(&[
            "scan",
            "--cache-verify",
            "--model",
            "x",
            "--layout",
            "y",
            "--out",
            "z",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--cache"), "{err}");

        let cache = dir.join("tiles.cache");
        let report = dir.join("report.json");
        let scan_args = |extra: &[&str]| {
            let mut args = argv(&[
                "scan",
                "--model",
                model.to_str().unwrap(),
                "--layout",
                dir.join("layout.gds").to_str().unwrap(),
                "--out",
                report.to_str().unwrap(),
                "--threads",
                "2",
                "--cache",
                cache.to_str().unwrap(),
            ]);
            args.extend(extra.iter().map(|s| s.to_string()));
            args
        };

        // Cold scan populates the cache; all tiles miss.
        let (out, status) = run_with_status(&scan_args(&[])).unwrap();
        assert_eq!(status, 0, "{out}");
        assert!(out.contains("miss(es)"), "{out}");
        assert!(cache.exists());
        let cold = std::fs::read_to_string(&report).unwrap();

        // Warm re-scan: every tile hits, report byte-identical.
        let (out, status) = run_with_status(&scan_args(&[])).unwrap();
        assert_eq!(status, 0, "{out}");
        assert!(out.contains("cache:"), "{out}");
        assert!(out.contains(" 0 miss(es)"), "{out}");
        assert_eq!(std::fs::read_to_string(&report).unwrap(), cold);

        // Paranoid verify recomputes hits and still agrees.
        let (out, status) = run_with_status(&scan_args(&["--cache-verify"])).unwrap();
        assert_eq!(status, 0, "{out}");
        assert_eq!(std::fs::read_to_string(&report).unwrap(), cold);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_observability_flags_leave_report_identical() {
        let dir = workdir("obs_flags");
        run(&argv(&[
            "generate",
            "--name",
            "array_benchmark1",
            "--scale",
            "tiny",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let model = dir.join("model.json");
        run(&argv(&[
            "train",
            "--training",
            dir.join("training.json").to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--threads",
            "2",
        ]))
        .unwrap();

        let report = dir.join("report.json");
        let base_args = |report: &Path, extra: &[&str]| {
            let mut args = argv(&[
                "scan",
                "--model",
                model.to_str().unwrap(),
                "--layout",
                dir.join("layout.gds").to_str().unwrap(),
                "--out",
                report.to_str().unwrap(),
                "--threads",
                "2",
            ]);
            args.extend(extra.iter().map(|s| s.to_string()));
            args
        };

        // Sink-less baseline.
        run(&base_args(&report, &[])).unwrap();
        let baseline = std::fs::read_to_string(&report).unwrap();

        // Full observability: NDJSON events, progress, and a metrics
        // endpoint on an ephemeral port. The written report must not
        // change by a single byte.
        let observed = dir.join("observed.json");
        let events = dir.join("events.ndjson");
        let out = run(&base_args(
            &observed,
            &[
                "--events",
                events.to_str().unwrap(),
                "--progress",
                "--metrics-addr",
                "127.0.0.1:0",
                "--obs-interval-ms",
                "50",
            ],
        ))
        .unwrap();
        assert!(out.contains("event log written"), "{out}");
        assert!(out.contains("/metrics"), "{out}");
        assert_eq!(std::fs::read_to_string(&observed).unwrap(), baseline);

        // The event log round-trips through the schema-versioned reader.
        let out = run(&argv(&["events", "--file", events.to_str().unwrap()])).unwrap();
        assert!(out.contains("1 scan(s)"), "{out}");
        assert!(out.contains("schema v1"), "{out}");
        let out = run(&argv(&[
            "events",
            "--json",
            "--file",
            events.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("\"ScanStarted\""), "{out}");

        // A corrupt log is an error, not a silent success.
        std::fs::write(&events, "not json\n").unwrap();
        let err = run(&argv(&["events", "--file", events.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exit_codes_distinguish_error_classes() {
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        assert_eq!(
            CliError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "x")).exit_code(),
            3
        );
        assert_eq!(
            CliError::Pipeline(hotspot_core::DetectError::NoHotspots).exit_code(),
            6
        );
        // An inconsistent model is a malformed model file, like bad JSON:
        // same exit code, same message prefix.
        let invalid = CliError::Pipeline(hotspot_core::DetectError::InvalidModel("x".into()));
        assert_eq!(invalid.exit_code(), 4);
        assert_eq!(invalid.to_string(), "json error: inconsistent model: x");
        let cache = CliError::Pipeline(hotspot_core::DetectError::Cache("x".into()));
        assert_eq!(cache.exit_code(), 6);
        assert!(cache.to_string().starts_with("pipeline error: "));
        // A missing model file surfaces as an I/O error, not usage.
        let err = run(&argv(&[
            "detect",
            "--model",
            "/nonexistent/model.json",
            "--layout",
            "/nonexistent/layout.gds",
            "--out",
            "/tmp/out.json",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn train_rejects_a_pattern_with_an_empty_core_window() {
        let dir = workdir("empty_core");
        run(&argv(&[
            "generate",
            "--name",
            "array_benchmark1",
            "--scale",
            "tiny",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let path = dir.join("training.json");
        let mut training: TrainingSet =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let core = &mut training.hotspots[1].window.core;
        *core = hotspot_geom::Rect::from_extents(
            core.min().x,
            core.min().y,
            core.min().x,
            core.max().y,
        );
        std::fs::write(&path, serde_json::to_string(&training).unwrap()).unwrap();
        let err = run(&argv(&[
            "train",
            "--training",
            path.to_str().unwrap(),
            "--out",
            dir.join("model.json").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 4);
        assert_eq!(
            err.to_string(),
            "json error: training hotspot pattern 1: empty core window"
        );
        assert!(!dir.join("model.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn info_prints_telemetry_schema_version() {
        let dir = workdir("schema");
        run(&argv(&[
            "generate",
            "--name",
            "array_benchmark1",
            "--scale",
            "tiny",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&argv(&[
            "info",
            "--layout",
            dir.join("layout.gds").to_str().unwrap(),
        ]))
        .unwrap();
        assert!(
            out.contains(&format!(
                "telemetry schema: v{}",
                hotspot_core::TELEMETRY_SCHEMA_VERSION
            )),
            "{out}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn render_produces_svg() {
        let dir = workdir("render");
        run(&argv(&[
            "generate",
            "--name",
            "array_benchmark1",
            "--scale",
            "tiny",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let svg = dir.join("layout.svg");
        let out = run(&argv(&[
            "render",
            "--layout",
            dir.join("layout.gds").to_str().unwrap(),
            "--actual",
            dir.join("actual.json").to_str().unwrap(),
            "--out",
            svg.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("rendered"), "{out}");
        let content = std::fs::read_to_string(&svg).unwrap();
        assert!(content.contains("data-overlay=\"actual\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duration_and_stall_index_flag_parsing() {
        let opts = parse_flags(
            "scan",
            &argv(&[
                "--deadline",
                "30s",
                "--tile-timeout",
                "500ms",
                "--fault-stall-tasks",
                "3, 17",
            ]),
            SCAN_FLAGS,
        )
        .unwrap();
        assert_eq!(
            parse_opt_duration(&opts, "deadline").unwrap(),
            Some(Duration::from_secs(30))
        );
        assert_eq!(
            parse_opt_duration(&opts, "tile-timeout").unwrap(),
            Some(Duration::from_millis(500))
        );
        assert_eq!(
            parse_opt_indices(&opts, "fault-stall-tasks").unwrap(),
            [3, 17]
        );
        // Absent flags parse to their empty defaults.
        assert_eq!(parse_opt_duration(&opts, "absent").unwrap(), None);
        assert!(parse_opt_indices(&opts, "absent").unwrap().is_empty());

        // `2m` is minutes, a bare integer is seconds, `0` is legal.
        let opts = parse_flags(
            "scan",
            &argv(&["--deadline", "2m", "--tile-timeout", "45"]),
            SCAN_FLAGS,
        )
        .unwrap();
        assert_eq!(
            parse_opt_duration(&opts, "deadline").unwrap(),
            Some(Duration::from_secs(120))
        );
        assert_eq!(
            parse_opt_duration(&opts, "tile-timeout").unwrap(),
            Some(Duration::from_secs(45))
        );
        let opts = parse_flags("scan", &argv(&["--deadline", "0"]), SCAN_FLAGS).unwrap();
        assert_eq!(
            parse_opt_duration(&opts, "deadline").unwrap(),
            Some(Duration::ZERO)
        );

        // Garbage is a usage error naming the flag.
        for bad in ["1.5s", "10x", "ms", "s", "-3s", ""] {
            let opts = parse_flags("scan", &argv(&["--deadline", bad]), SCAN_FLAGS).unwrap();
            let err = parse_opt_duration(&opts, "deadline").unwrap_err();
            assert_eq!(err.exit_code(), 2, "`{bad}` must be a usage error");
            assert!(err.to_string().contains("--deadline"), "{err}");
        }
        let opts = parse_flags("scan", &argv(&["--fault-stall-tasks", "3,x"]), SCAN_FLAGS).unwrap();
        let err = parse_opt_indices(&opts, "fault-stall-tasks").unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn scan_deadline_aborts_resumably_with_exit_8() {
        let dir = workdir("deadline_flags");
        run(&argv(&[
            "generate",
            "--name",
            "array_benchmark1",
            "--scale",
            "tiny",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let model = dir.join("model.json");
        run(&argv(&[
            "train",
            "--training",
            dir.join("training.json").to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--threads",
            "2",
        ]))
        .unwrap();

        let cache = dir.join("deadline.cache");
        let report = dir.join("report.json");
        let events = dir.join("events.ndjson");
        let scan_args = |extra: &[&str]| {
            let mut args = argv(&[
                "scan",
                "--model",
                model.to_str().unwrap(),
                "--layout",
                dir.join("layout.gds").to_str().unwrap(),
                "--out",
                report.to_str().unwrap(),
                "--threads",
                "2",
                "--cache",
                cache.to_str().unwrap(),
            ]);
            args.extend(extra.iter().map(|s| s.to_string()));
            args
        };

        // A zero deadline aborts before the first batch: exit 8, the
        // message names the reason and points at re-running with --cache.
        let (out, status) = run_with_status(&scan_args(&[
            "--deadline",
            "0",
            "--events",
            events.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(status, EXIT_ABORTED, "{out}");
        assert!(out.contains("scan aborted (deadline_exceeded)"), "{out}");
        assert!(out.contains("re-run with the same --cache"), "{out}");
        assert!(out.contains("scanned 0 of"), "{out}");

        // The event log records the abort and summarises cleanly.
        let out = run(&argv(&["events", "--file", events.to_str().unwrap()])).unwrap();
        assert!(out.contains("1 aborted scan(s)"), "{out}");

        // Re-running without a deadline finishes the scan: exit 0 and a
        // report byte-identical to a never-interrupted scan's.
        let (out, status) = run_with_status(&scan_args(&[])).unwrap();
        assert_eq!(status, 0, "{out}");
        let rerun = std::fs::read_to_string(&report).unwrap();
        let clean_report = dir.join("clean.json");
        run(&argv(&[
            "scan",
            "--model",
            model.to_str().unwrap(),
            "--layout",
            dir.join("layout.gds").to_str().unwrap(),
            "--out",
            clean_report.to_str().unwrap(),
            "--threads",
            "2",
        ]))
        .unwrap();
        assert_eq!(std::fs::read_to_string(&clean_report).unwrap(), rerun);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_tile_timeout_quarantines_stalled_tiles() {
        let dir = workdir("timeout_flags");
        run(&argv(&[
            "generate",
            "--name",
            "array_benchmark1",
            "--scale",
            "tiny",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let model = dir.join("model.json");
        run(&argv(&[
            "train",
            "--training",
            dir.join("training.json").to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--threads",
            "2",
        ]))
        .unwrap();

        // Stall every tile well past its soft budget: the scan completes
        // (exit 7, not 8 — no abort) with every tile quarantined as a
        // timeout, and the summary prints the deterministic reason.
        let report = dir.join("report.json");
        let (out, status) = run_with_status(&argv(&[
            "scan",
            "--model",
            model.to_str().unwrap(),
            "--layout",
            dir.join("layout.gds").to_str().unwrap(),
            "--out",
            report.to_str().unwrap(),
            "--threads",
            "2",
            "--max-failed-tiles",
            "10000",
            "--tile-timeout",
            "50ms",
            "--fault-stall-per-mille",
            "1000",
            "--fault-stall-ms",
            "150",
        ]))
        .unwrap();
        assert_eq!(status, EXIT_QUARANTINED, "{out}");
        assert!(out.contains("quarantined"), "{out}");
        assert!(out.contains("soft time budget of 50 ms"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn events_summary_tolerates_empty_and_header_only_logs() {
        let dir = workdir("events_empty");
        let log = dir.join("empty.ndjson");
        std::fs::write(&log, "").unwrap();
        let out = run(&argv(&["events", "--file", log.to_str().unwrap()])).unwrap();
        assert!(out.contains("0 event(s)"), "{out}");
        assert!(out.contains("0 aborted scan(s)"), "{out}");
        // Blank lines only ("header-only" log from a scan killed right
        // after the sink opened) summarise the same way.
        std::fs::write(&log, "\n\n").unwrap();
        let out = run(&argv(&["events", "--file", log.to_str().unwrap()])).unwrap();
        assert!(out.contains("0 event(s)"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_logs_with_watchdog_ticks_still_read_and_summarise() {
        // Scans no longer emit `WatchdogTick`, but v1 logs written while
        // they did must still read and summarise.
        let dir = workdir("events_watchdog");
        let log = dir.join("v1.ndjson");
        std::fs::write(
            &log,
            concat!(
                r#"{"v":1,"seq":0,"event":{"ScanStarted":{"tiles_total":9,"threads":2,"window":4}}}"#,
                "\n",
                r#"{"v":1,"seq":1,"event":{"WatchdogTick":{"in_flight":3,"deadline_remaining_ms":1200}}}"#,
                "\n",
                r#"{"v":1,"seq":2,"event":{"WatchdogTick":{"in_flight":0,"deadline_remaining_ms":null}}}"#,
                "\n",
                r#"{"v":1,"seq":3,"event":{"ScanAborted":{"reason":"deadline_exceeded","tiles_scanned":4}}}"#,
                "\n",
            ),
        )
        .unwrap();
        let records = hotspot_core::obs::read_events(&log).unwrap();
        assert_eq!(
            records[1].event,
            ObsEvent::WatchdogTick {
                in_flight: 3,
                deadline_remaining_ms: Some(1200),
            }
        );
        let (out, status) =
            run_with_status(&argv(&["events", "--file", log.to_str().unwrap()])).unwrap();
        assert_eq!(status, 0);
        assert!(out.starts_with("4 event(s), schema v1: 1 scan(s)"), "{out}");
        assert!(out.contains("1 aborted scan(s)"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn info_reports_layout_stats() {
        let dir = workdir("info");
        run(&argv(&[
            "generate",
            "--name",
            "array_benchmark5",
            "--scale",
            "tiny",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&argv(&[
            "info",
            "--layout",
            dir.join("layout.gds").to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("polygons"), "{out}");
        assert!(out.contains("bbox"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
