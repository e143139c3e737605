//! Live observability: span events, lock-free progress counters and
//! pluggable sinks (Prometheus `/metrics`, NDJSON event log, stderr
//! progress reporter).
//!
//! Everything in this module is *observation only*: installing an
//! [`ObsHub`] never changes what the pipeline computes. Reports, digests
//! and telemetry contents stay bit-identical with and without sinks — the
//! hub is how you *watch* a long scan, not how you steer it.
//!
//! # Architecture
//!
//! * [`ObsHub`] is a fan-out registry. Pipeline code holds an
//!   `Option<Arc<ObsHub>>`; when it is `None` every instrumentation point
//!   is a single branch and nothing else.
//! * [`Counters`] is one bank of `AtomicU64` slots bumped with
//!   `Ordering::Relaxed` — no locks, no allocation. A scan writes its
//!   counts once per batch, from the same per-batch numbers it folds into
//!   the report and the telemetry stage rows, so the three cannot
//!   disagree. The only other writers are the per-tile started/done pair
//!   (live progress) and the tile cache's append, sync and invalidate
//!   counts.
//! * Cooler paths (per stage, per batch, per journal sync) emit
//!   [`ObsEvent`]s through [`ObsHub::emit`], which builds the event only
//!   when at least one sink is registered.
//! * A [`Sampler`] thread snapshots the counters at a configurable
//!   interval into a [`CounterSnapshot`] and broadcasts it to every sink
//!   (and as an [`ObsEvent::Snapshot`] record), decoupling reporting
//!   frequency from pipeline work.
//!
//! # Shipped sinks
//!
//! * [`NdjsonSink`] — appends one schema-versioned JSON object per line
//!   ([`ObsRecord`], `v = `[`OBS_SCHEMA_VERSION`]); [`read_events`] is the
//!   matching reader.
//! * [`MetricsServer`] — a tiny blocking TCP listener answering HTTP
//!   `GET /metrics` with Prometheus text exposition format
//!   ([`render_prometheus`]).
//! * [`ProgressSink`] — renders tiles done / in flight / quarantined,
//!   clips/sec and an ETA to stderr.

use crate::engine::stage::StageId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, IsTerminal, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Schema version stamped into every [`ObsRecord`]; [`read_events`]
/// rejects logs written by a different version.
///
/// * v1 — initial schema: externally tagged [`ObsEvent`] wrapped in
///   `{"v": 1, "seq": N, "event": {...}}`.
pub const OBS_SCHEMA_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Pipeline-global monotonic counters recorded on hot paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Tiles handed to a scan worker (prefilter + evaluation started).
    TilesStarted,
    /// Tiles the scan is done with: evaluated, prefiltered away,
    /// quarantined, or served from the cache. On a completed
    /// scan this equals [`ScanReport::tiles_scanned`](crate::ScanReport).
    /// On an aborted scan it also counts the tiles the stop dropped
    /// mid-body, which have no outcome, so it can exceed `tiles_scanned`
    /// by up to one in-flight window; either way no tile is left in flight
    /// once the scan returns.
    TilesDone,
    /// Tiles skipped by the conservative density prefilter.
    TilesPrefiltered,
    /// Tiles quarantined after exhausting the retry budget.
    TilesQuarantined,
    /// Clips extracted from tile cores.
    ClipsExtracted,
    /// Clips flagged as hotspots (pre-removal).
    ClipsFlagged,
    /// Clips of the tiles a scan computed, each pushed through the
    /// multi-kernel evaluation engine; tiles served from the tile cache
    /// add none.
    ClipsEvaluated,
    /// Flagged clips reclaimed by the feedback kernel.
    ClipsReclaimed,
    /// Clip batches evaluated: one per scan tile with at least one clip,
    /// as [`crate::ScanReport::eval_batches`] counts them.
    EvalBatches,
    /// Failed tile tasks re-attempted once before quarantine.
    TaskRetries,
    /// Scan tile tasks the executor ran to completion or to a panic
    /// (the `kernel_evaluation` row's `tasks_executed`).
    ExecutorTasks,
    /// Entries a scan appended to its tile cache (the name predates the
    /// cache becoming the scan's only durable store).
    JournalAppends,
    /// `fsync` barriers the tile cache issued, one per batch that appended.
    JournalSyncs,
    /// Tiles served from the content-addressed result cache.
    CacheHits,
    /// Tiles the cache could not serve (new, edited, or lost).
    CacheMisses,
    /// Cache entries invalidated: stale fingerprints, corrupt lines, or a
    /// wholesale header-mismatch discard.
    CacheInvalidated,
    /// Tiles quarantined because they exceeded the soft per-tile budget
    /// ([`crate::ScanConfig::tile_timeout`]) — a subset of
    /// [`Counter::TilesQuarantined`].
    TilesTimedOut,
}

/// Number of [`Counter`] variants (global slot count).
const GLOBAL_SLOTS: usize = 17;

/// Per-stage counter families recorded alongside the global counters,
/// each mirroring a field of the stage's telemetry row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageCounter {
    /// Tasks executed in this stage (`tasks_executed`).
    Tasks,
    /// Failed task attempts in this stage (`failures`).
    Failures,
    /// Clip-kernel pairs admitted to SVM evaluation.
    Admissions,
    /// Centroid-orientation rows pruned by the compiled admission router.
    AdmissionSkips,
}

/// Number of [`StageCounter`] variants per stage.
const STAGE_SLOTS: usize = 4;

/// Total atomic slots: globals then `8 × 4` per-stage slots.
const SLOT_COUNT: usize = GLOBAL_SLOTS + StageId::ALL.len() * STAGE_SLOTS;

impl Counter {
    fn slot(self) -> usize {
        self as usize
    }
}

fn stage_slot(stage: StageId, counter: StageCounter) -> usize {
    GLOBAL_SLOTS + stage.index() * STAGE_SLOTS + counter as usize
}

/// Lock-free pipeline counters: one bank of slots.
///
/// Recording is a single `fetch_add(Relaxed)` — zero allocation, no
/// locking, no ordering constraints on the pipeline's own memory accesses.
/// Relaxed ordering is sufficient because the counters carry no
/// synchronisation duty: readers ([`Counters::snapshot`]) only need
/// eventually-consistent totals for display, never happens-before edges,
/// and each `AtomicU64` is individually coherent so no increment is ever
/// lost. The busiest writer adds once per tile, so workers sharing one bank
/// do not contend.
#[derive(Debug)]
pub struct Counters {
    slots: [AtomicU64; SLOT_COUNT],
}

impl Counters {
    fn new() -> Counters {
        Counters {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Adds `n` to a global counter.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.slots[counter.slot()].fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` to a per-stage counter.
    #[inline]
    pub fn add_stage(&self, stage: StageId, counter: StageCounter, n: u64) {
        self.slots[stage_slot(stage, counter)].fetch_add(n, Ordering::Relaxed);
    }

    fn total(&self, slot: usize) -> u64 {
        self.slots[slot].load(Ordering::Relaxed)
    }

    /// Reads every slot into a serialisable snapshot. `uptime_ms` stamps
    /// how long the owning hub has been alive (used for rate estimates).
    pub fn snapshot(&self, uptime_ms: u64) -> CounterSnapshot {
        let g = |c: Counter| self.total(c.slot());
        CounterSnapshot {
            uptime_ms,
            tiles_started: g(Counter::TilesStarted),
            tiles_done: g(Counter::TilesDone),
            tiles_prefiltered: g(Counter::TilesPrefiltered),
            tiles_quarantined: g(Counter::TilesQuarantined),
            clips_extracted: g(Counter::ClipsExtracted),
            clips_flagged: g(Counter::ClipsFlagged),
            clips_evaluated: g(Counter::ClipsEvaluated),
            clips_reclaimed: g(Counter::ClipsReclaimed),
            eval_batches: g(Counter::EvalBatches),
            task_retries: g(Counter::TaskRetries),
            executor_tasks: g(Counter::ExecutorTasks),
            journal_appends: g(Counter::JournalAppends),
            journal_syncs: g(Counter::JournalSyncs),
            cache_hits: g(Counter::CacheHits),
            cache_misses: g(Counter::CacheMisses),
            cache_invalidated: g(Counter::CacheInvalidated),
            tiles_timed_out: g(Counter::TilesTimedOut),
            deadline_remaining_ms: None,
            stages: StageId::ALL
                .iter()
                .map(|&stage| StageCounterSnapshot {
                    stage: stage.name().to_string(),
                    tasks: self.total(stage_slot(stage, StageCounter::Tasks)),
                    failures: self.total(stage_slot(stage, StageCounter::Failures)),
                    admissions: self.total(stage_slot(stage, StageCounter::Admissions)),
                    admission_skips: self.total(stage_slot(stage, StageCounter::AdmissionSkips)),
                })
                .collect(),
        }
    }
}

/// Point-in-time totals of every counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Milliseconds since the owning [`ObsHub`] was created.
    pub uptime_ms: u64,
    /// Tiles handed to a scan worker.
    pub tiles_started: u64,
    /// Tiles the scan is done with (see [`Counter::TilesDone`]).
    pub tiles_done: u64,
    /// Tiles skipped by the density prefilter.
    pub tiles_prefiltered: u64,
    /// Tiles quarantined after exhausting the retry budget.
    pub tiles_quarantined: u64,
    /// Clips extracted from tile cores.
    pub clips_extracted: u64,
    /// Clips flagged as hotspots (pre-removal).
    pub clips_flagged: u64,
    /// Clips of computed (not cache-served) tiles ([`Counter::ClipsEvaluated`]).
    pub clips_evaluated: u64,
    /// Flagged clips reclaimed by the feedback kernel.
    pub clips_reclaimed: u64,
    /// Clip batches evaluated ([`Counter::EvalBatches`]).
    pub eval_batches: u64,
    /// Failed tile tasks re-attempted before quarantine.
    pub task_retries: u64,
    /// Scan tile tasks the executor ran ([`Counter::ExecutorTasks`]).
    pub executor_tasks: u64,
    /// Entries appended to the tile cache ([`Counter::JournalAppends`]).
    pub journal_appends: u64,
    /// `fsync` barriers the tile cache issued ([`Counter::JournalSyncs`]).
    pub journal_syncs: u64,
    /// Tiles served from the content-addressed result cache. Absent in
    /// pre-cache snapshots, which deserialise with 0.
    #[serde(default)]
    pub cache_hits: u64,
    /// Tiles the cache could not serve. Absent in pre-cache snapshots.
    #[serde(default)]
    pub cache_misses: u64,
    /// Cache entries invalidated (stale, corrupt, or discarded). Absent
    /// in pre-cache snapshots.
    #[serde(default)]
    pub cache_invalidated: u64,
    /// Tiles quarantined for blowing the soft per-tile budget. Absent in
    /// pre-deadline snapshots, which deserialise with 0.
    #[serde(default)]
    pub tiles_timed_out: u64,
    /// Wall-clock budget left before the scan's
    /// [`crate::ScanConfig::deadline`] expires, stamped by the owning
    /// [`ObsHub`] ([`ObsHub::set_deadline_remaining_ms`]). `None` when no
    /// deadline is armed (and in pre-deadline snapshots).
    #[serde(default)]
    pub deadline_remaining_ms: Option<u64>,
    /// Per-stage counter families in canonical stage order.
    pub stages: Vec<StageCounterSnapshot>,
}

impl CounterSnapshot {
    /// Tiles currently in flight (started but not yet done).
    pub fn tiles_in_flight(&self) -> u64 {
        self.tiles_started.saturating_sub(self.tiles_done)
    }
}

/// Per-stage slice of a [`CounterSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageCounterSnapshot {
    /// Stable snake_case stage name ([`StageId::name`]).
    pub stage: String,
    /// Tasks executed in this stage ([`StageCounter::Tasks`]).
    pub tasks: u64,
    /// Failed task attempts in this stage ([`StageCounter::Failures`]).
    pub failures: u64,
    /// Clip-kernel pairs admitted to SVM evaluation.
    pub admissions: u64,
    /// Centroid-orientation rows pruned by the admission router.
    pub admission_skips: u64,
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// A structured pipeline event, delivered to every registered sink.
///
/// Serialised externally tagged with the variant name as the key
/// (`{"StageBegin": {...}}`) — the NDJSON line format is stable under
/// [`OBS_SCHEMA_VERSION`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ObsEvent {
    /// A streaming layout scan started.
    ScanStarted {
        /// Total tiles the grid will visit.
        tiles_total: usize,
        /// Executor worker threads.
        threads: usize,
        /// Bounded in-flight tile window.
        window: usize,
    },
    /// A scan batch's pending tiles went to the executor (span open).
    StageBegin {
        /// Stage label: `scan_tile`.
        stage: String,
        /// Tiles scheduled into the batch.
        items: usize,
    },
    /// The executor finished a scan batch (span close).
    StageEnd {
        /// Stage label, matching the paired [`ObsEvent::StageBegin`].
        stage: String,
        /// Tiles scheduled into the batch.
        items: usize,
        /// First attempts that panicked and were isolated (before their
        /// retry).
        failures: usize,
    },
    /// A bounded scan window (batch) of tiles completed.
    BatchCompleted {
        /// Tiles processed in this batch.
        tiles: usize,
        /// Clips extracted in this batch.
        clips: usize,
        /// Clips flagged in this batch.
        flagged: usize,
        /// Clip-kernel pairs admitted to SVM evaluation in this batch.
        admissions: u64,
        /// Router-pruned centroid rows in this batch.
        admission_skips: u64,
    },
    /// A tile was quarantined after its retry failed.
    TileQuarantined {
        /// Stable row-major tile id.
        tile: u64,
        /// Stage label of the failing task.
        stage: String,
    },
    /// The tile cache made a batch's appended entries durable (the name
    /// predates the cache becoming the scan's only durable store).
    JournalSynced {
        /// Entries the scan has appended to the cache so far.
        appended: usize,
    },
    /// A tile was served from the content-addressed result cache.
    CacheHit {
        /// Stable row-major tile id.
        tile: u64,
    },
    /// A tile could not be served from the cache and was recomputed.
    CacheMiss {
        /// Stable row-major tile id.
        tile: u64,
        /// `true` when a stored entry existed but its content fingerprint
        /// no longer matched (the tile was edited).
        invalidated: bool,
    },
    /// The cache store was (partly) invalidated at open time.
    CacheInvalidated {
        /// Entries that survived loading (0 on a wholesale discard).
        entries: usize,
        /// Corrupt entry lines rejected individually.
        rejected: usize,
        /// `true` when the whole store was discarded (header mismatch:
        /// different model, grid, layer, or threshold).
        discarded: bool,
    },
    /// A tile was quarantined for exceeding the soft per-tile budget
    /// ([`crate::ScanConfig::tile_timeout`]). Paired with a
    /// [`ObsEvent::TileQuarantined`] for the same tile.
    TileTimedOut {
        /// Stable row-major tile id.
        tile: u64,
        /// The exceeded soft budget, in milliseconds.
        budget_ms: u64,
    },
    /// Periodic heartbeat from the scan's watchdog thread.
    WatchdogTick {
        /// Tiles currently in flight on executor workers.
        in_flight: u64,
        /// Milliseconds left before the global deadline, when one is
        /// armed.
        deadline_remaining_ms: Option<u64>,
    },
    /// A streaming layout scan stopped early — deadline, watchdog, or a
    /// caller's cancel token — after draining its in-flight window and
    /// syncing the tile cache, leaving a resumable prefix.
    ScanAborted {
        /// Stable [`crate::AbortReason::name`] string.
        reason: String,
        /// Tiles fully processed before the abort.
        tiles_scanned: usize,
    },
    /// A streaming layout scan finished.
    ScanCompleted {
        /// Tiles fully evaluated.
        tiles_scanned: usize,
        /// Hotspots reported after redundant-clip removal.
        reported: usize,
        /// Tiles quarantined by the failure policy.
        quarantined: usize,
    },
    /// A periodic counter snapshot from the [`Sampler`].
    Snapshot {
        /// The counter totals at sampling time.
        counters: CounterSnapshot,
    },
}

/// A schema-versioned, sequence-numbered envelope around an [`ObsEvent`]
/// — exactly one NDJSON line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsRecord {
    /// Event-log schema version ([`OBS_SCHEMA_VERSION`]).
    pub v: u32,
    /// Monotonic per-hub sequence number.
    pub seq: u64,
    /// The event payload.
    pub event: ObsEvent,
}

// ---------------------------------------------------------------------------
// Sink trait + hub
// ---------------------------------------------------------------------------

/// A destination for pipeline events and counter snapshots.
///
/// Sinks must be infallible from the pipeline's point of view: I/O errors
/// are swallowed (observability must never fail a scan) and
/// implementations must be `Send + Sync` because events arrive from
/// worker and sampler threads.
///
/// ```
/// use hotspot_core::obs::{ObsEvent, ObsHub, ObsRecord, ObsSink};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// #[derive(Default)]
/// struct CountingSink(AtomicUsize);
///
/// impl ObsSink for CountingSink {
///     fn name(&self) -> &str {
///         "counting"
///     }
///     fn on_event(&self, _record: &ObsRecord) {
///         self.0.fetch_add(1, Ordering::Relaxed);
///     }
/// }
///
/// let hub = ObsHub::new();
/// hub.register(Box::new(CountingSink::default()));
/// hub.emit(|| ObsEvent::ScanStarted { tiles_total: 4, threads: 1, window: 2 });
/// assert_eq!(hub.sink_names(), vec!["counting".to_string()]);
/// ```
pub trait ObsSink: Send + Sync {
    /// Short stable sink name, recorded in telemetry (schema v6).
    fn name(&self) -> &str;

    /// Called for every emitted event (from pipeline and sampler threads).
    fn on_event(&self, record: &ObsRecord);

    /// Called by the [`Sampler`] with each periodic counter snapshot.
    /// Default: ignored.
    fn on_snapshot(&self, snapshot: &CounterSnapshot) {
        let _ = snapshot;
    }
}

/// Fan-out registry: owns the [`Counters`], assigns sequence numbers and
/// broadcasts events/snapshots to every registered [`ObsSink`].
pub struct ObsHub {
    seq: AtomicU64,
    counters: Counters,
    sinks: RwLock<Vec<Box<dyn ObsSink>>>,
    endpoint_names: Mutex<Vec<String>>,
    started: Instant,
    /// Milliseconds left on an armed scan deadline; negative = no
    /// deadline. Written by the scan watchdog, read into snapshots.
    deadline_remaining_ms: AtomicI64,
}

impl ObsHub {
    /// Creates a hub with no sinks. Until a sink is registered,
    /// [`emit`](Self::emit) is a read-lock plus an empty check and no
    /// event is constructed.
    pub fn new() -> Arc<ObsHub> {
        Arc::new(ObsHub {
            seq: AtomicU64::new(0),
            counters: Counters::new(),
            sinks: RwLock::new(Vec::new()),
            endpoint_names: Mutex::new(Vec::new()),
            started: Instant::now(),
            deadline_remaining_ms: AtomicI64::new(-1),
        })
    }

    /// Registers a sink; it receives every subsequent event and snapshot.
    pub fn register(&self, sink: Box<dyn ObsSink>) {
        self.sinks
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .push(sink);
    }

    /// Records a pull-based endpoint (e.g. the Prometheus
    /// [`MetricsServer`]) by name only, so it appears in
    /// [`sink_names`](Self::sink_names) and telemetry without receiving
    /// pushed events.
    pub fn register_endpoint(&self, name: &str) {
        lock(&self.endpoint_names).push(name.to_string());
    }

    /// The hub's shared counters, for hot-path recording.
    #[inline]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Milliseconds since the hub was created.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Builds and delivers an event to all sinks. The closure runs only
    /// when at least one sink is registered, so event construction (and
    /// its allocations) is skipped entirely on unobserved runs.
    pub fn emit(&self, make: impl FnOnce() -> ObsEvent) {
        let sinks = self.sinks.read().unwrap_or_else(PoisonError::into_inner);
        if sinks.is_empty() {
            return;
        }
        let record = ObsRecord {
            v: OBS_SCHEMA_VERSION,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            event: make(),
        };
        for sink in sinks.iter() {
            sink.on_event(&record);
        }
    }

    /// Arms (or refreshes) the `hotspot_deadline_remaining_seconds`
    /// gauge. Called periodically by the scan's watchdog thread while a
    /// [`crate::ScanConfig::deadline`] is set.
    pub fn set_deadline_remaining_ms(&self, remaining_ms: u64) {
        self.deadline_remaining_ms
            .store(remaining_ms.min(i64::MAX as u64) as i64, Ordering::Relaxed);
    }

    /// Disarms the deadline gauge (no deadline, or the scan ended).
    pub fn clear_deadline_remaining(&self) {
        self.deadline_remaining_ms.store(-1, Ordering::Relaxed);
    }

    /// Sums the counters into a snapshot stamped with the hub uptime.
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut snapshot = self.counters.snapshot(self.uptime_ms());
        let remaining = self.deadline_remaining_ms.load(Ordering::Relaxed);
        if remaining >= 0 {
            snapshot.deadline_remaining_ms = Some(remaining as u64);
        }
        snapshot
    }

    /// Takes a snapshot and delivers it to every sink — both as an
    /// [`ObsEvent::Snapshot`] record and via [`ObsSink::on_snapshot`].
    pub fn broadcast_snapshot(&self) {
        let sinks = self.sinks.read().unwrap_or_else(PoisonError::into_inner);
        if sinks.is_empty() {
            return;
        }
        let snapshot = self.snapshot();
        let record = ObsRecord {
            v: OBS_SCHEMA_VERSION,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            event: ObsEvent::Snapshot {
                counters: snapshot.clone(),
            },
        };
        for sink in sinks.iter() {
            sink.on_event(&record);
            sink.on_snapshot(&snapshot);
        }
    }

    /// Names of all registered sinks and endpoints, in registration
    /// order — recorded into `PipelineTelemetry::obs_sinks` (schema v6).
    pub fn sink_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .sinks
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|s| s.name().to_string())
            .collect();
        names.extend(lock(&self.endpoint_names).iter().cloned());
        names
    }
}

impl fmt::Debug for ObsHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsHub")
            .field("sinks", &self.sink_names())
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Locks `mutex`, ignoring poison: a sink that panicked mid-event must not
/// silence every later event.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// NDJSON sink + reader
// ---------------------------------------------------------------------------

/// Appends every event as one JSON object per line (NDJSON).
///
/// The file is opened in append mode so one event log can span a killed
/// scan and its re-run without clobbering earlier records. Each line is flushed as written; write errors are
/// swallowed (observability never fails the pipeline).
pub struct NdjsonSink {
    out: Mutex<BufWriter<File>>,
}

impl NdjsonSink {
    /// Opens (or creates) `path` for appending.
    pub fn create(path: impl AsRef<Path>) -> io::Result<NdjsonSink> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(NdjsonSink {
            out: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl fmt::Debug for NdjsonSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NdjsonSink").finish_non_exhaustive()
    }
}

impl ObsSink for NdjsonSink {
    fn name(&self) -> &str {
        "ndjson"
    }

    fn on_event(&self, record: &ObsRecord) {
        if let Ok(line) = serde_json::to_string(record) {
            let mut out = lock(&self.out);
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
        }
    }
}

/// Reads an NDJSON event log back, validating the schema version of
/// every record. Blank lines are skipped; a malformed line or a record
/// from a different [`OBS_SCHEMA_VERSION`] yields `InvalidData` naming
/// the 1-based line number.
pub fn read_events(path: impl AsRef<Path>) -> io::Result<Vec<ObsRecord>> {
    let reader = BufReader::new(File::open(path)?);
    let mut records = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let record: ObsRecord = serde_json::from_str(&line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("events line {}: {e}", idx + 1),
            )
        })?;
        if record.v != OBS_SCHEMA_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "events line {}: schema v{} unsupported (reader expects v{})",
                    idx + 1,
                    record.v,
                    OBS_SCHEMA_VERSION
                ),
            ));
        }
        records.push(record);
    }
    Ok(records)
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

/// Renders a snapshot in Prometheus text exposition format (v0.0.4):
/// one `hotspot_*_total` counter family per global counter, a
/// `hotspot_tiles_in_flight` gauge, and `stage`-labelled families
/// `hotspot_stage_{tasks,failures,admissions,admission_skips}_total`.
pub fn render_prometheus(snapshot: &CounterSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(4096);
    let globals: [(&str, &str, u64); 17] = [
        (
            "hotspot_tiles_started_total",
            "Tiles handed to a scan worker.",
            snapshot.tiles_started,
        ),
        (
            "hotspot_tiles_done_total",
            "Tiles done with: evaluated, prefiltered, quarantined, served, or dropped by an abort.",
            snapshot.tiles_done,
        ),
        (
            "hotspot_tiles_prefiltered_total",
            "Tiles skipped by the density prefilter.",
            snapshot.tiles_prefiltered,
        ),
        (
            "hotspot_tiles_quarantined_total",
            "Tiles quarantined after exhausting the retry budget.",
            snapshot.tiles_quarantined,
        ),
        (
            "hotspot_clips_extracted_total",
            "Clips extracted from tile cores.",
            snapshot.clips_extracted,
        ),
        (
            "hotspot_clips_flagged_total",
            "Clips flagged as hotspots before redundant-clip removal.",
            snapshot.clips_flagged,
        ),
        (
            "hotspot_clips_evaluated_total",
            "Clips of computed (not cache-served) tiles, evaluated by the multi-kernel engine.",
            snapshot.clips_evaluated,
        ),
        (
            "hotspot_clips_reclaimed_total",
            "Flagged clips reclaimed by the feedback kernel.",
            snapshot.clips_reclaimed,
        ),
        (
            "hotspot_eval_batches_total",
            "Clip batches evaluated (one per tile with clips in a scan).",
            snapshot.eval_batches,
        ),
        (
            "hotspot_task_retries_total",
            "Failed tile tasks re-attempted before quarantine.",
            snapshot.task_retries,
        ),
        (
            "hotspot_executor_tasks_total",
            "Scan tile tasks the executor ran.",
            snapshot.executor_tasks,
        ),
        (
            "hotspot_journal_appends_total",
            "Entries appended to the scan's tile cache.",
            snapshot.journal_appends,
        ),
        (
            "hotspot_journal_syncs_total",
            "fsync barriers issued by the scan's tile cache.",
            snapshot.journal_syncs,
        ),
        (
            "hotspot_cache_hits_total",
            "Tiles served from the content-addressed result cache.",
            snapshot.cache_hits,
        ),
        (
            "hotspot_cache_misses_total",
            "Tiles the result cache could not serve.",
            snapshot.cache_misses,
        ),
        (
            "hotspot_cache_invalidated_total",
            "Cache entries invalidated (stale, corrupt, or discarded).",
            snapshot.cache_invalidated,
        ),
        (
            "hotspot_tiles_timed_out_total",
            "Tiles quarantined for exceeding the soft per-tile budget.",
            snapshot.tiles_timed_out,
        ),
    ];
    for (name, help, value) in globals {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    let _ = writeln!(
        out,
        "# HELP hotspot_tiles_in_flight Tiles started but not yet done."
    );
    let _ = writeln!(out, "# TYPE hotspot_tiles_in_flight gauge");
    let _ = writeln!(
        out,
        "hotspot_tiles_in_flight {}",
        snapshot.tiles_in_flight()
    );
    let _ = writeln!(
        out,
        "# HELP hotspot_obs_uptime_seconds Seconds since the observability hub was created."
    );
    let _ = writeln!(out, "# TYPE hotspot_obs_uptime_seconds gauge");
    let _ = writeln!(
        out,
        "hotspot_obs_uptime_seconds {:.3}",
        snapshot.uptime_ms as f64 / 1e3
    );
    // Gauge present only while a scan deadline is armed, so dashboards
    // can alert on "remaining budget" without special-casing idle runs.
    if let Some(remaining_ms) = snapshot.deadline_remaining_ms {
        let _ = writeln!(
            out,
            "# HELP hotspot_deadline_remaining_seconds Wall-clock budget left before the scan deadline."
        );
        let _ = writeln!(out, "# TYPE hotspot_deadline_remaining_seconds gauge");
        let _ = writeln!(
            out,
            "hotspot_deadline_remaining_seconds {:.3}",
            remaining_ms as f64 / 1e3
        );
    }
    type Pick = fn(&StageCounterSnapshot) -> u64;
    let families: [(&str, &str, Pick); 4] = [
        (
            "hotspot_stage_tasks_total",
            "Tasks executed, by stage (the telemetry row's tasks_executed).",
            |s| s.tasks,
        ),
        (
            "hotspot_stage_failures_total",
            "Failed task attempts, by stage (the telemetry row's failures).",
            |s| s.failures,
        ),
        (
            "hotspot_stage_admissions_total",
            "Clip-kernel pairs admitted to SVM evaluation, by stage.",
            |s| s.admissions,
        ),
        (
            "hotspot_stage_admission_skips_total",
            "Centroid rows pruned by the admission router, by stage.",
            |s| s.admission_skips,
        ),
    ];
    for (name, help, pick) in families {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        for stage in &snapshot.stages {
            let _ = writeln!(out, "{name}{{stage=\"{}\"}} {}", stage.stage, pick(stage));
        }
    }
    out
}

/// A minimal blocking HTTP/1.0 listener serving `GET /metrics` with the
/// Prometheus text rendering of the hub's live counters.
///
/// One request is served at a time (scrapes are cheap: one pass over the
/// counter bank).
/// Binding registers a `"prometheus"` endpoint name on the hub so the
/// run's telemetry records that the exposition was active. The server
/// shuts down on [`shutdown`](Self::shutdown) or drop.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9184"`, port `0` for ephemeral) and
    /// starts the accept loop on a background thread.
    pub fn bind(addr: impl ToSocketAddrs, hub: Arc<ObsHub>) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        hub.register_endpoint("prometheus");
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("hotspot-metrics".to_string())
            .spawn(move || serve(&listener, &hub, &thread_stop))?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port `0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. Idempotent;
    /// also performed on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            // Unblock the accept loop with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn serve(listener: &TcpListener, hub: &Arc<ObsHub>, stop: &AtomicBool) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        // Symmetric 500 ms bounds on both directions: a client that
        // neither sends a request nor drains the response cannot wedge
        // the single-threaded accept loop (or block shutdown) for longer
        // than one timeout.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
        let path = read_request_path(&mut stream);
        let response = match path.as_deref() {
            Some("/metrics") | Some("/") => http_response(
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &render_prometheus(&hub.snapshot()),
            ),
            _ => http_response("404 Not Found", "text/plain; charset=utf-8", "not found\n"),
        };
        let _ = stream.write_all(response.as_bytes());
        let _ = stream.flush();
    }
}

fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    let mut buf = [0u8; 1024];
    let mut data = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                data.extend_from_slice(&buf[..n]);
                if data.windows(4).any(|w| w == b"\r\n\r\n") || data.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&data);
    let mut parts = text.lines().next()?.split_whitespace();
    let _method = parts.next()?;
    parts.next().map(str::to_string)
}

fn http_response(status: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

// ---------------------------------------------------------------------------
// Progress reporter
// ---------------------------------------------------------------------------

/// Renders live scan progress to stderr from sampler snapshots: tiles
/// done / in flight / quarantined, clip throughput and an ETA.
///
/// On a terminal the line redraws in place (`\r`); otherwise each
/// snapshot prints a full line so logs stay readable.
pub struct ProgressSink {
    state: Mutex<ProgressState>,
}

struct ProgressState {
    tiles_total: Option<u64>,
    tty: bool,
    redrawing: bool,
}

impl ProgressSink {
    /// Creates a reporter writing to this process's stderr.
    pub fn new() -> ProgressSink {
        ProgressSink {
            state: Mutex::new(ProgressState {
                tiles_total: None,
                tty: io::stderr().is_terminal(),
                redrawing: false,
            }),
        }
    }
}

impl Default for ProgressSink {
    fn default() -> Self {
        ProgressSink::new()
    }
}

impl fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgressSink").finish_non_exhaustive()
    }
}

/// Formats `seconds` as a compact ETA (`42s`, `3m07s`, `2h05m`).
fn format_eta(seconds: f64) -> String {
    let s = seconds.round() as u64;
    if s < 60 {
        format!("{s}s")
    } else if s < 3600 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    }
}

/// Renders one progress line from a snapshot (exposed for testing).
pub fn render_progress(snapshot: &CounterSnapshot, tiles_total: Option<u64>) -> String {
    let done = snapshot.tiles_done;
    let secs = snapshot.uptime_ms as f64 / 1e3;
    let clip_rate = if secs > 0.0 {
        snapshot.clips_extracted as f64 / secs
    } else {
        0.0
    };
    let total = match tiles_total {
        Some(t) => format!("/{t}"),
        None => String::new(),
    };
    let eta = match tiles_total {
        Some(t) if done > 0 && secs > 0.0 && t > done => {
            let tile_rate = done as f64 / secs;
            format!(" · ETA {}", format_eta((t - done) as f64 / tile_rate))
        }
        _ => String::new(),
    };
    format!(
        "scan {done}{total} tiles · {} in flight · {} prefiltered · {} quarantined · {} clips ({clip_rate:.0}/s){eta}",
        snapshot.tiles_in_flight(),
        snapshot.tiles_prefiltered,
        snapshot.tiles_quarantined,
        snapshot.clips_extracted,
    )
}

impl ObsSink for ProgressSink {
    fn name(&self) -> &str {
        "progress"
    }

    fn on_event(&self, record: &ObsRecord) {
        match &record.event {
            ObsEvent::ScanStarted { tiles_total, .. } => {
                lock(&self.state).tiles_total = Some(*tiles_total as u64);
            }
            ObsEvent::ScanCompleted {
                tiles_scanned,
                reported,
                quarantined,
            } => {
                let mut state = lock(&self.state);
                let prefix = if state.redrawing { "\r\x1b[2K" } else { "" };
                state.redrawing = false;
                eprintln!(
                    "{prefix}scan complete: {tiles_scanned} tiles evaluated, {reported} hotspots reported, {quarantined} quarantined"
                );
            }
            _ => {}
        }
    }

    fn on_snapshot(&self, snapshot: &CounterSnapshot) {
        let mut state = lock(&self.state);
        let line = render_progress(snapshot, state.tiles_total);
        if state.tty {
            state.redrawing = true;
            eprint!("\r\x1b[2K{line}");
            let _ = io::stderr().flush();
        } else {
            eprintln!("{line}");
        }
    }
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

/// Background thread that broadcasts counter snapshots at a fixed
/// interval, so sinks see progress even while the pipeline is deep in a
/// long stage. [`stop`](Self::stop) (or drop) joins the thread and
/// broadcasts one final snapshot so short runs still report totals.
pub struct Sampler {
    hub: Arc<ObsHub>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Starts sampling `hub` every `interval` (clamped to ≥ 10 ms).
    pub fn start(hub: Arc<ObsHub>, interval: Duration) -> Sampler {
        let interval = interval.max(Duration::from_millis(10));
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread_hub = Arc::clone(&hub);
        let handle = thread::Builder::new()
            .name("hotspot-obs-sampler".to_string())
            .spawn(move || {
                let tick = interval.min(Duration::from_millis(25));
                let mut since_sample = Duration::ZERO;
                while !thread_stop.load(Ordering::Acquire) {
                    thread::sleep(tick);
                    since_sample += tick;
                    if since_sample >= interval {
                        since_sample = Duration::ZERO;
                        thread_hub.broadcast_snapshot();
                    }
                }
            })
            .expect("spawn obs sampler thread");
        Sampler {
            hub,
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the sampler, joins its thread and broadcasts a final
    /// snapshot. Idempotent; also performed on drop.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            let _ = handle.join();
            self.hub.broadcast_snapshot();
        }
    }
}

impl fmt::Debug for Sampler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sampler").finish_non_exhaustive()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[derive(Default)]
    struct RecordingSink {
        events: Mutex<Vec<ObsRecord>>,
        snapshots: AtomicUsize,
    }

    impl ObsSink for RecordingSink {
        fn name(&self) -> &str {
            "recording"
        }
        fn on_event(&self, record: &ObsRecord) {
            self.events.lock().unwrap().push(record.clone());
        }
        fn on_snapshot(&self, _snapshot: &CounterSnapshot) {
            self.snapshots.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn counters_lose_no_increment_across_threads() {
        let hub = ObsHub::new();
        let threads = 8;
        let per_thread = 1000u64;
        thread::scope(|scope| {
            for _ in 0..threads {
                let hub = &hub;
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        hub.counters().add(Counter::ClipsExtracted, 1);
                        hub.counters()
                            .add_stage(StageId::KernelEvaluation, StageCounter::Tasks, 2);
                    }
                });
            }
        });
        let snap = hub.snapshot();
        assert_eq!(snap.clips_extracted, threads * per_thread);
        let eval = snap
            .stages
            .iter()
            .find(|s| s.stage == "kernel_evaluation")
            .unwrap();
        assert_eq!(eval.tasks, threads * per_thread * 2);
        assert_eq!(snap.stages.len(), 8);
    }

    #[test]
    fn emit_skips_event_construction_without_sinks() {
        let hub = ObsHub::new();
        let mut built = false;
        hub.emit(|| {
            built = true;
            ObsEvent::JournalSynced { appended: 1 }
        });
        assert!(!built, "event closure must not run with no sinks");
        assert_eq!(hub.sink_names(), Vec::<String>::new());
    }

    #[test]
    fn hub_fans_out_events_with_increasing_seq() {
        let hub = ObsHub::new();
        let sink = Arc::new(RecordingSink::default());
        struct Forward(Arc<RecordingSink>);
        impl ObsSink for Forward {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn on_event(&self, record: &ObsRecord) {
                self.0.on_event(record);
            }
            fn on_snapshot(&self, snapshot: &CounterSnapshot) {
                self.0.on_snapshot(snapshot);
            }
        }
        hub.register(Box::new(Forward(Arc::clone(&sink))));
        hub.emit(|| ObsEvent::StageBegin {
            stage: "scan_tile".to_string(),
            items: 5,
        });
        hub.emit(|| ObsEvent::StageEnd {
            stage: "scan_tile".to_string(),
            items: 5,
            failures: 0,
        });
        hub.broadcast_snapshot();
        let events = sink.events.lock().unwrap();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(matches!(events[2].event, ObsEvent::Snapshot { .. }));
        assert_eq!(sink.snapshots.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn ndjson_round_trips_through_reader() {
        let path = std::env::temp_dir().join(format!(
            "hotspot_obs_ndjson_{}_{:?}.ndjson",
            std::process::id(),
            thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let hub = ObsHub::new();
        hub.register(Box::new(NdjsonSink::create(&path).unwrap()));
        hub.counters().add(Counter::TilesDone, 3);
        hub.emit(|| ObsEvent::ScanStarted {
            tiles_total: 9,
            threads: 2,
            window: 4,
        });
        hub.broadcast_snapshot();
        hub.emit(|| ObsEvent::ScanCompleted {
            tiles_scanned: 9,
            reported: 1,
            quarantined: 0,
        });
        let records = read_events(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert!(records.iter().all(|r| r.v == OBS_SCHEMA_VERSION));
        assert_eq!(
            records[0].event,
            ObsEvent::ScanStarted {
                tiles_total: 9,
                threads: 2,
                window: 4
            }
        );
        match &records[1].event {
            ObsEvent::Snapshot { counters } => assert_eq!(counters.tiles_done, 3),
            other => panic!("expected snapshot, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reader_rejects_foreign_schema_and_garbage() {
        let path = std::env::temp_dir().join(format!(
            "hotspot_obs_badschema_{}_{:?}.ndjson",
            std::process::id(),
            thread::current().id()
        ));
        std::fs::write(
            &path,
            "{\"v\":999,\"seq\":0,\"event\":{\"JournalSynced\":{\"appended\":1}}}\n",
        )
        .unwrap();
        let err = read_events(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("schema v999"));
        std::fs::write(&path, "not json at all\n").unwrap();
        let err = read_events(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 1"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn prometheus_rendering_has_all_families() {
        let hub = ObsHub::new();
        hub.counters().add(Counter::ClipsExtracted, 42);
        hub.counters().add(Counter::TilesStarted, 7);
        hub.counters().add(Counter::TilesDone, 5);
        hub.counters()
            .add_stage(StageId::KernelEvaluation, StageCounter::Admissions, 11);
        let text = render_prometheus(&hub.snapshot());
        assert!(text.contains("# TYPE hotspot_clips_extracted_total counter"));
        assert!(text.contains("hotspot_clips_extracted_total 42"));
        assert!(text.contains("hotspot_tiles_in_flight 2"));
        assert!(text.contains("hotspot_stage_admissions_total{stage=\"kernel_evaluation\"} 11"));
        assert!(text.contains("hotspot_stage_tasks_total{stage=\"density_prefilter\"} 0"));
        assert!(text.contains("hotspot_stage_failures_total{stage=\"clip_removal\"} 0"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample line: {line}"
            );
            assert!(parts.next().is_some());
        }
    }

    #[test]
    fn metrics_server_serves_metrics_and_404() {
        let hub = ObsHub::new();
        hub.counters().add(Counter::EvalBatches, 6);
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&hub)).unwrap();
        assert_eq!(hub.sink_names(), vec!["prometheus".to_string()]);
        let addr = server.local_addr();
        let body = http_get(addr, "/metrics");
        assert!(body.starts_with("HTTP/1.0 200 OK"));
        assert!(body.contains("hotspot_eval_batches_total 6"));
        let missing = http_get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.0 404"));
        server.shutdown();
        // The port is released after shutdown: a second bind succeeds.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok());
    }

    #[test]
    fn wedged_client_cannot_block_shutdown() {
        let hub = ObsHub::new();
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&hub)).unwrap();
        let addr = server.local_addr();
        // A client that connects, sends a request, then never reads the
        // response (nor closes): both the read path (no request bytes on
        // the second socket) and the write path (unread response) must
        // time out instead of wedging the accept loop.
        let mut wedged_writer = TcpStream::connect(addr).unwrap();
        write!(wedged_writer, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let _wedged_reader = TcpStream::connect(addr).unwrap();
        let begun = Instant::now();
        server.shutdown();
        assert!(
            begun.elapsed() < Duration::from_secs(5),
            "shutdown wedged for {:?}",
            begun.elapsed()
        );
    }

    #[test]
    fn deadline_gauge_appears_only_when_armed() {
        let hub = ObsHub::new();
        let idle = render_prometheus(&hub.snapshot());
        assert!(!idle.contains("hotspot_deadline_remaining_seconds"));
        assert!(hub.snapshot().deadline_remaining_ms.is_none());
        hub.set_deadline_remaining_ms(2500);
        let armed = render_prometheus(&hub.snapshot());
        assert!(armed.contains("hotspot_deadline_remaining_seconds 2.500"));
        assert_eq!(hub.snapshot().deadline_remaining_ms, Some(2500));
        hub.clear_deadline_remaining();
        assert!(hub.snapshot().deadline_remaining_ms.is_none());
    }

    #[test]
    fn timed_out_counter_reaches_snapshot_and_prometheus() {
        let hub = ObsHub::new();
        hub.counters().add(Counter::TilesTimedOut, 3);
        let snap = hub.snapshot();
        assert_eq!(snap.tiles_timed_out, 3);
        let text = render_prometheus(&snap);
        assert!(text.contains("hotspot_tiles_timed_out_total 3"));
        // Back-compat: a pre-deadline snapshot JSON (no tiles_timed_out,
        // no deadline_remaining_ms) deserialises with the defaults.
        let legacy = serde_json::to_string(&snap)
            .unwrap()
            .replace(",\"tiles_timed_out\":3", "")
            .replace(",\"deadline_remaining_ms\":null", "");
        assert!(!legacy.contains("tiles_timed_out"), "{legacy}");
        assert!(!legacy.contains("deadline_remaining_ms"), "{legacy}");
        let back: CounterSnapshot = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.tiles_timed_out, 0);
        assert!(back.deadline_remaining_ms.is_none());
    }

    #[test]
    fn abort_and_watchdog_events_round_trip() {
        for event in [
            ObsEvent::ScanAborted {
                reason: "deadline_exceeded".to_string(),
                tiles_scanned: 12,
            },
            ObsEvent::TileTimedOut {
                tile: 9,
                budget_ms: 150,
            },
            ObsEvent::WatchdogTick {
                in_flight: 4,
                deadline_remaining_ms: Some(900),
            },
            ObsEvent::WatchdogTick {
                in_flight: 0,
                deadline_remaining_ms: None,
            },
        ] {
            let record = ObsRecord {
                v: OBS_SCHEMA_VERSION,
                seq: 0,
                event,
            };
            let json = serde_json::to_string(&record).unwrap();
            let back: ObsRecord = serde_json::from_str(&json).unwrap();
            assert_eq!(back, record);
        }
    }

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        body
    }

    #[test]
    fn sampler_broadcasts_and_final_snapshot_on_stop() {
        let hub = ObsHub::new();
        let sink = Arc::new(RecordingSink::default());
        struct Forward(Arc<RecordingSink>);
        impl ObsSink for Forward {
            fn name(&self) -> &str {
                "forward"
            }
            fn on_event(&self, record: &ObsRecord) {
                self.0.on_event(record);
            }
            fn on_snapshot(&self, snapshot: &CounterSnapshot) {
                self.0.on_snapshot(snapshot);
            }
        }
        hub.register(Box::new(Forward(Arc::clone(&sink))));
        let sampler = Sampler::start(Arc::clone(&hub), Duration::from_millis(20));
        thread::sleep(Duration::from_millis(120));
        sampler.stop();
        let n = sink.snapshots.load(Ordering::Relaxed);
        assert!(n >= 2, "expected periodic + final snapshots, got {n}");
    }

    #[test]
    fn progress_rendering_includes_counts_and_eta() {
        let mut snap = ObsHub::new().snapshot();
        snap.uptime_ms = 2000;
        snap.tiles_started = 14;
        snap.tiles_done = 10;
        snap.tiles_prefiltered = 3;
        snap.tiles_quarantined = 1;
        snap.clips_extracted = 500;
        let line = render_progress(&snap, Some(30));
        assert!(line.contains("scan 10/30 tiles"), "line: {line}");
        assert!(line.contains("4 in flight"), "line: {line}");
        assert!(line.contains("3 prefiltered"), "line: {line}");
        assert!(line.contains("1 quarantined"), "line: {line}");
        assert!(line.contains("500 clips (250/s)"), "line: {line}");
        assert!(line.contains("ETA 4s"), "line: {line}");
        let open_ended = render_progress(&snap, None);
        assert!(open_ended.contains("scan 10 tiles"), "line: {open_ended}");
        assert!(!open_ended.contains("ETA"), "line: {open_ended}");
        assert_eq!(format_eta(59.0), "59s");
        assert_eq!(format_eta(187.0), "3m07s");
        assert_eq!(format_eta(7500.0), "2h05m");
    }

    #[test]
    fn event_serde_shape_is_stable() {
        let record = ObsRecord {
            v: OBS_SCHEMA_VERSION,
            seq: 3,
            event: ObsEvent::TileQuarantined {
                tile: 17,
                stage: "scan_tile".to_string(),
            },
        };
        let json = serde_json::to_string(&record).unwrap();
        assert_eq!(
            json,
            "{\"v\":1,\"seq\":3,\"event\":{\"TileQuarantined\":{\"tile\":17,\"stage\":\"scan_tile\"}}}"
        );
        let back: ObsRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, record);
    }
}
