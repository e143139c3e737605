//! Content-addressed tile result cache: incremental re-scans, and the
//! scan's one durable store.
//!
//! A cached scan ([`crate::ScanConfig::cache`]) persists one entry per
//! successfully processed tile: the tile's stable id, a **content
//! fingerprint** of the geometry visible to the tile
//! ([`hotspot_layout::scan::Tile::content_fingerprint`] — order- and
//! translation-invariant FNV-1a 64 over the canonicalised tile-local
//! rects of the core + halo window), and the canonical
//! [`TileOutcomeRecord`] with its flagged cores stored **tile-local**
//! (window-relative), so a cached result replays correctly even if the
//! whole layout translated between scans.
//!
//! On a re-scan, a tile whose id and fingerprint match a cache entry is a
//! **hit**: its stored outcome is folded into the report without running
//! prefilter, extraction, or evaluation. Everything else — new tiles,
//! edited tiles, entries lost to corruption — is a miss and is recomputed.
//!
//! # Durability and resume
//!
//! Each batch appends the entries it computed (not the ones it served) to
//! the file and fsyncs once; a batch served entirely from the cache writes
//! nothing. The first append of a scan recreates the file under the
//! current header when it was missing or discarded, and otherwise
//! truncates a torn final line and appends after the last whole one. When
//! the scan completes, [`store`](TileCache::store) compacts the file
//! atomically (temp file + rename) to exactly this scan's tiles. Creating
//! the file and renaming it into place both `fsync` the directory as
//! well, so a power cut cannot lose the file's entry. An
//! aborted, killed or failed scan leaves its log in place, so re-running
//! the same scan with the same cache serves every tile it finished and
//! recomputes only the rest — with a report bit-identical to an
//! uninterrupted run. There is no separate resume mode.
//!
//! # Invalidation
//!
//! The header fingerprints everything that can change a tile's outcome
//! besides its geometry: a model fingerprint (kernels, feedback kernel,
//! full detector config minus the thread count), the tile grid's
//! `tile_cores`, the scanned layer, the decision-threshold bits, and the
//! tile-density override bits. A cache whose header disagrees with the
//! current scan is discarded wholesale; per-tile geometry changes are
//! caught by the content fingerprint. Thread count is deliberately
//! excluded everywhere — scans are thread-count-invariant.
//!
//! # On-disk format
//!
//! Line-oriented, in the [`crate::journal`] framing: every line is
//! `<fnv1a64 of payload, 16 hex digits> <payload JSON>\n`. The first
//! payload is a [`CacheHeader`], the rest are [`CacheEntry`] lines: in
//! tile-id order from the last compaction, then in completion order for
//! each append since. The reader **skips bad lines individually** (a bad
//! checksum, a malformed payload, a torn final line) and keeps going: a
//! flipped bit costs exactly the damaged entries, which are recomputed. A
//! later line for the same tile wins. A corrupt, version-skewed, or
//! mismatched header discards the whole cache — never trusted, never an
//! error.

use crate::engine::FaultPlan;
use crate::journal::{fnv1a, framed, sync_parent_dir, unframe, JournalWriter, TileOutcomeRecord};
use crate::obs::ObsHub;
use hotspot_geom::Point;
use hotspot_layout::LayerId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic string identifying a tile result cache.
pub const CACHE_MAGIC: &str = "hotspot-tile-cache";

/// Version of the cache record format.
pub const CACHE_VERSION: u32 = 1;

/// The header payload fingerprinting the detector + scan configuration a
/// cache's entries were computed under. Any mismatch invalidates the whole
/// store.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheHeader {
    /// Always [`CACHE_MAGIC`].
    pub magic: String,
    /// Always [`CACHE_VERSION`].
    pub version: u32,
    /// Fingerprint of the trained model and its evaluation config (kernel
    /// set, feedback kernel, scaling, admission params, eval mode, grids —
    /// everything in [`crate::DetectorConfig`] except the thread count).
    pub model_fingerprint: u64,
    /// The scan's [`crate::ScanConfig::tile_cores`] (fixes the grid).
    pub tile_cores: usize,
    /// The scanned layer.
    pub layer: LayerId,
    /// Bit pattern of the decision threshold the scan evaluates at.
    pub threshold_bits: u64,
    /// Bit pattern of [`crate::ScanConfig::tile_density`], when set.
    pub tile_density_bits: Option<u64>,
}

impl CacheHeader {
    /// Builds the header for the given model/scan identity.
    pub fn new(
        model_fingerprint: u64,
        tile_cores: usize,
        layer: LayerId,
        threshold: f64,
        tile_density: Option<f64>,
    ) -> Self {
        CacheHeader {
            magic: CACHE_MAGIC.to_string(),
            version: CACHE_VERSION,
            model_fingerprint,
            tile_cores,
            layer,
            threshold_bits: threshold.to_bits(),
            tile_density_bits: tile_density.map(f64::to_bits),
        }
    }
}

/// One cache line: a tile id, its content fingerprint, and its canonical
/// outcome with flagged cores in tile-local (window-relative) coordinates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// Stable tile id (`iy * grid_cols + ix`), thread-count-invariant.
    pub tile: usize,
    /// [`hotspot_layout::scan::Tile::content_fingerprint`] at compute time.
    pub fingerprint: u64,
    /// The tile's outcome, cores translated by `-window.min()`.
    pub outcome: TileOutcomeRecord,
}

/// Translates a record's flagged cores by `delta` — used to store cores
/// tile-locally (`delta = -window.min()`) and to rebase them onto the
/// current grid on a hit (`delta = window.min()`).
pub(crate) fn translate_record(record: &TileOutcomeRecord, delta: Point) -> TileOutcomeRecord {
    match record {
        TileOutcomeRecord::Prefiltered => TileOutcomeRecord::Prefiltered,
        TileOutcomeRecord::Evaluated {
            clips,
            flagged,
            reclaimed,
            flagged_cores,
        } => TileOutcomeRecord::Evaluated {
            clips: *clips,
            flagged: *flagged,
            reclaimed: *reclaimed,
            flagged_cores: flagged_cores.iter().map(|r| r.translate(delta)).collect(),
        },
    }
}

/// What [`TileCache::open`] found on disk, for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheLoadStats {
    /// Tiles loaded and usable (a later line for a tile replaces an
    /// earlier one).
    pub loaded: usize,
    /// Lines skipped for a bad checksum, a malformed payload, or a torn
    /// final line.
    pub rejected: usize,
    /// Whether the whole store was discarded (missing file counts as a
    /// clean empty store, not a discard).
    pub discarded: bool,
}

/// An open tile result cache: the entries read from disk, the entries
/// recorded during the current scan, and the append log.
#[derive(Debug)]
pub struct TileCache {
    path: PathBuf,
    header: CacheHeader,
    loaded: HashMap<usize, (u64, TileOutcomeRecord)>,
    fresh: BTreeMap<usize, (u64, TileOutcomeRecord)>,
    stats: CacheLoadStats,
    /// Where the first append continues the file: after its last whole
    /// line when it holds this scan's header, `None` to recreate it.
    append_at: Option<u64>,
    /// The append writer, opened by the first [`append`](Self::append).
    log: Option<JournalWriter>,
    obs: Option<Arc<ObsHub>>,
}

impl TileCache {
    /// Opens the cache at `path` against the current scan's `header`.
    ///
    /// Never fails: a missing file yields an empty cache, a corrupt or
    /// mismatched header discards every entry, and individually corrupt
    /// entry lines are skipped. The outcome is reported in
    /// [`load_stats`](Self::load_stats). Nothing is written until the
    /// scan's first append.
    pub fn open(path: &Path, header: CacheHeader) -> TileCache {
        let mut cache = TileCache {
            path: path.to_path_buf(),
            header,
            loaded: HashMap::new(),
            fresh: BTreeMap::new(),
            stats: CacheLoadStats::default(),
            append_at: None,
            log: None,
            obs: None,
        };
        if let Ok(bytes) = fs::read(path) {
            cache.load(&bytes);
        }
        cache
    }

    /// Loads the entries of a cache file's `bytes`, or discards them all
    /// when the header line does not match.
    fn load(&mut self, bytes: &[u8]) {
        let text = String::from_utf8_lossy(bytes);
        let mut lines = text.split_inclusive('\n');
        let header_ok = lines
            .next()
            .and_then(|l| l.strip_suffix('\n'))
            .and_then(unframe)
            .and_then(|p| serde_json::from_str::<CacheHeader>(p).ok())
            .is_some_and(|h| h == self.header);
        if !header_ok {
            self.stats.discarded = true;
            return;
        }
        for line in lines {
            let entry = line
                .strip_suffix('\n')
                .and_then(unframe)
                .and_then(|p| serde_json::from_str::<CacheEntry>(p).ok());
            match entry {
                Some(e) => {
                    self.loaded.insert(e.tile, (e.fingerprint, e.outcome));
                }
                None => self.stats.rejected += 1,
            }
        }
        self.stats.loaded = self.loaded.len();
        let whole = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        self.append_at = Some(whole as u64);
    }

    /// Counts this cache's appends and fsyncs into `hub`
    /// ([`crate::obs::Counter::JournalAppends`] and
    /// [`crate::obs::Counter::JournalSyncs`]).
    pub(crate) fn set_obs(&mut self, hub: Arc<ObsHub>) {
        self.obs = Some(hub);
    }

    /// What [`open`](Self::open) found on disk.
    pub fn load_stats(&self) -> CacheLoadStats {
        self.stats
    }

    /// The stored outcome for `tile` iff its fingerprint matches — a hit.
    /// Cores in the returned record are tile-local.
    pub fn lookup(&self, tile: usize, fingerprint: u64) -> Option<&TileOutcomeRecord> {
        match self.loaded.get(&tile) {
            Some((fp, outcome)) if *fp == fingerprint => Some(outcome),
            _ => None,
        }
    }

    /// Whether an entry for `tile` exists but its fingerprint disagrees —
    /// the tile's geometry (or its halo's) changed since it was cached.
    pub fn is_stale(&self, tile: usize, fingerprint: u64) -> bool {
        matches!(self.loaded.get(&tile), Some((fp, _)) if *fp != fingerprint)
    }

    /// Records a tile's outcome (cores already tile-local) for the
    /// compaction at scan completion, without writing it — for tiles the
    /// cache served. Only successfully processed tiles may be recorded —
    /// quarantined tiles must never reach the cache.
    pub fn record(&mut self, tile: usize, fingerprint: u64, outcome: TileOutcomeRecord) {
        self.fresh.insert(tile, (fingerprint, outcome));
    }

    /// [`record`](Self::record)s a tile this scan computed and appends it
    /// to the file. Durability is deferred to [`sync`](Self::sync).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error, or the simulated one `fault`
    /// injects ([`FaultPlan::fail_journal_at`], counted over this cache's
    /// appends).
    pub(crate) fn append(
        &mut self,
        tile: usize,
        fingerprint: u64,
        outcome: TileOutcomeRecord,
        fault: &FaultPlan,
    ) -> io::Result<()> {
        let log = match self.log.take() {
            Some(log) => log,
            None => match self.append_at {
                Some(len) => JournalWriter::resume(&self.path, len, self.obs.clone())?,
                None => JournalWriter::create(&self.path, &self.header, self.obs.clone())?,
            },
        };
        let entry = CacheEntry {
            tile,
            fingerprint,
            outcome,
        };
        self.log.insert(log).append(&entry, fault)?;
        self.record(tile, fingerprint, entry.outcome);
        Ok(())
    }

    /// Makes this batch's appends durable with one `fsync`; a no-op when
    /// nothing was appended since the last sync.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.log.as_mut().map_or(Ok(()), JournalWriter::sync)
    }

    /// Compacts the file to this scan's entries (header plus every
    /// [`record`](Self::record)ed tile, in tile-id order) atomically, via a
    /// sibling temp file and rename, then an `fsync` of the directory so
    /// the renamed entry survives a power cut — the last call on a cache,
    /// made when the scan completes. Entries for tiles the current scan
    /// never produced are dropped — the store then mirrors the last scan.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn store(&self) -> io::Result<()> {
        let mut out = framed(&self.header)?;
        for (&tile, (fingerprint, outcome)) in &self.fresh {
            let entry = CacheEntry {
                tile,
                fingerprint: *fingerprint,
                outcome: outcome.clone(),
            };
            out.push_str(&framed(&entry)?);
        }
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        let mut file = fs::File::create(&tmp)?;
        file.write_all(out.as_bytes())?;
        file.sync_data()?;
        drop(file);
        fs::rename(&tmp, &self.path)?;
        sync_parent_dir(&self.path)
    }
}

/// The model half of [`model_fingerprint`]: FNV-1a 64 over the canonical
/// JSON of the kernels, xor the same over the feedback kernel's.
pub(crate) fn model_hash(kernels_json: &str, feedback_json: &str) -> u64 {
    fnv1a(kernels_json.as_bytes()) ^ fnv1a(feedback_json.as_bytes())
}

/// Fingerprints a trained model + evaluation identity: the
/// [`model_hash`] folded with FNV-1a 64 over the canonical JSON of the
/// detector config with its thread count zeroed (scans are
/// thread-count-invariant, so threads must not invalidate the cache).
pub(crate) fn model_fingerprint(model_hash: u64, config_json: &str) -> u64 {
    let mut h = model_hash.wrapping_mul(0x0000_0100_0000_01B3);
    h ^= fnv1a(config_json.as_bytes());
    h.wrapping_mul(0x0000_0100_0000_01B3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_geom::Rect;
    use proptest::prelude::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hotspot-cache-test-{}-{name}", std::process::id()));
        p
    }

    fn sample_header() -> CacheHeader {
        CacheHeader::new(0xDEAD_BEEF, 8, LayerId::METAL1, 0.5, None)
    }

    fn sample_outcome() -> TileOutcomeRecord {
        TileOutcomeRecord::Evaluated {
            clips: 4,
            flagged: 2,
            reclaimed: 1,
            flagged_cores: vec![Rect::from_extents(10, 10, 60, 60)],
        }
    }

    #[test]
    fn round_trips_entries_by_fingerprint() {
        let path = temp_path("round-trip");
        let mut cache = TileCache::open(&path, sample_header());
        assert_eq!(cache.load_stats(), CacheLoadStats::default());
        cache.record(3, 111, sample_outcome());
        cache.record(7, 222, TileOutcomeRecord::Prefiltered);
        cache.store().unwrap();

        let reopened = TileCache::open(&path, sample_header());
        assert_eq!(reopened.load_stats().loaded, 2);
        assert_eq!(reopened.lookup(3, 111), Some(&sample_outcome()));
        assert_eq!(
            reopened.lookup(7, 222),
            Some(&TileOutcomeRecord::Prefiltered)
        );
        // Fingerprint mismatch is a miss, and stale.
        assert_eq!(reopened.lookup(3, 999), None);
        assert!(reopened.is_stale(3, 999));
        assert!(!reopened.is_stale(4, 999));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_mismatch_discards_the_whole_store() {
        let path = temp_path("mismatch");
        let mut cache = TileCache::open(&path, sample_header());
        cache.record(0, 1, TileOutcomeRecord::Prefiltered);
        cache.store().unwrap();

        let other = CacheHeader::new(0xBAD, 8, LayerId::METAL1, 0.5, None);
        let reopened = TileCache::open(&path, other);
        assert!(reopened.load_stats().discarded);
        assert_eq!(reopened.lookup(0, 1), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_entries_are_rejected_individually() {
        let path = temp_path("corrupt");
        let mut cache = TileCache::open(&path, sample_header());
        cache.record(0, 10, TileOutcomeRecord::Prefiltered);
        cache.record(1, 11, sample_outcome());
        cache.record(2, 12, TileOutcomeRecord::Prefiltered);
        cache.store().unwrap();

        // Flip a byte inside the *middle* entry's payload: unlike the
        // journal, only that entry is lost.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let mut damaged = lines.clone();
        let tampered = lines[2].replace("11", "13");
        damaged[2] = &tampered;
        std::fs::write(&path, damaged.join("\n") + "\n").unwrap();

        let reopened = TileCache::open(&path, sample_header());
        assert_eq!(reopened.load_stats().loaded, 2);
        assert_eq!(reopened.load_stats().rejected, 1);
        assert!(reopened.lookup(0, 10).is_some());
        assert!(reopened.lookup(1, 11).is_none(), "damaged entry dropped");
        assert!(reopened.lookup(2, 12).is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn store_drops_entries_not_recorded_this_scan() {
        let path = temp_path("prune");
        let mut cache = TileCache::open(&path, sample_header());
        cache.record(0, 1, TileOutcomeRecord::Prefiltered);
        cache.record(1, 2, TileOutcomeRecord::Prefiltered);
        cache.store().unwrap();

        let mut next = TileCache::open(&path, sample_header());
        assert_eq!(next.load_stats().loaded, 2);
        next.record(1, 2, TileOutcomeRecord::Prefiltered);
        next.store().unwrap();

        let last = TileCache::open(&path, sample_header());
        assert_eq!(last.load_stats().loaded, 1);
        assert!(last.lookup(0, 1).is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn translate_record_round_trips() {
        let rec = sample_outcome();
        let local = translate_record(&rec, -Point::new(100, 200));
        assert_ne!(local, rec);
        assert_eq!(translate_record(&local, Point::new(100, 200)), rec);
        assert_eq!(
            translate_record(&TileOutcomeRecord::Prefiltered, Point::new(5, 5)),
            TileOutcomeRecord::Prefiltered
        );
    }

    #[test]
    fn appends_open_the_log_lazily_and_a_later_line_wins() {
        let path = temp_path("append");
        let none = FaultPlan::default();
        let mut cache = TileCache::open(&path, sample_header());
        cache.sync().unwrap();
        assert!(!path.exists(), "nothing is written before the first append");
        cache.append(3, 111, sample_outcome(), &none).unwrap();
        cache
            .append(1, 222, TileOutcomeRecord::Prefiltered, &none)
            .unwrap();
        cache.sync().unwrap();
        drop(cache);

        // No compaction ran, yet the log reopens with both entries; a
        // second scan's append for tile 3 supersedes the first.
        let mut again = TileCache::open(&path, sample_header());
        assert_eq!(again.load_stats().loaded, 2);
        assert_eq!(again.lookup(3, 111), Some(&sample_outcome()));
        again
            .append(3, 333, TileOutcomeRecord::Prefiltered, &none)
            .unwrap();
        again.sync().unwrap();
        let last = TileCache::open(&path, sample_header());
        assert_eq!(last.load_stats().loaded, 2);
        assert!(last.is_stale(3, 111));
        assert_eq!(last.lookup(3, 333), Some(&TileOutcomeRecord::Prefiltered));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn the_first_append_truncates_a_torn_tail() {
        let path = temp_path("torn");
        let none = FaultPlan::default();
        let mut cache = TileCache::open(&path, sample_header());
        cache.append(0, 10, sample_outcome(), &none).unwrap();
        cache.append(1, 11, sample_outcome(), &none).unwrap();
        cache.sync().unwrap();
        drop(cache);
        let whole = std::fs::read(&path).unwrap();
        std::fs::write(&path, &whole[..whole.len() - 9]).unwrap();

        let mut torn = TileCache::open(&path, sample_header());
        assert_eq!(torn.load_stats().loaded, 1);
        assert_eq!(torn.load_stats().rejected, 1, "the torn line");
        torn.append(1, 11, sample_outcome(), &none).unwrap();
        torn.sync().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), whole, "healed byte for byte");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn the_first_append_recreates_a_discarded_file() {
        let path = temp_path("recreate");
        std::fs::write(&path, "not a cache\nat all").unwrap();
        let mut cache = TileCache::open(&path, sample_header());
        assert!(cache.load_stats().discarded);
        cache
            .append(5, 55, sample_outcome(), &FaultPlan::default())
            .unwrap();
        cache.sync().unwrap();
        let reopened = TileCache::open(&path, sample_header());
        assert_eq!(
            reopened.load_stats(),
            CacheLoadStats {
                loaded: 1,
                rejected: 0,
                discarded: false,
            }
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// Up to eight entries over tiles 0..12, so some tiles repeat.
    fn arb_entries() -> impl Strategy<Value = Vec<(usize, u64, TileOutcomeRecord)>> {
        proptest::collection::vec((0usize..12, 0u64..u64::MAX, 0usize..4, 0i64..5_000), 0..8)
            .prop_map(|raw| {
                raw.into_iter()
                    .map(|(tile, fp, clips, x)| {
                        let outcome = match clips {
                            0 => TileOutcomeRecord::Prefiltered,
                            _ => TileOutcomeRecord::Evaluated {
                                clips,
                                flagged: clips - 1,
                                reclaimed: usize::from(clips > 2),
                                flagged_cores: vec![Rect::from_extents(x, 0, x + 1_200, 1_200)],
                            },
                        };
                        (tile, fp, outcome)
                    })
                    .collect()
            })
    }

    /// A cache loaded from `bytes` rather than a file.
    fn load_bytes(bytes: &[u8]) -> TileCache {
        let mut cache = TileCache::open(&temp_path("never-written"), sample_header());
        cache.load(bytes);
        cache
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every prefix and every single-byte flip of a compacted cache
        /// plus appended lines opens without a panic and loads only
        /// entries that were written; the whole file round-trips with the
        /// later line for a tile winning.
        #[test]
        fn cut_or_flipped_caches_load_only_written_entries(
            stored in arb_entries(),
            appended in arb_entries(),
            mask in 1u8..255,
        ) {
            let path = temp_path(&format!("fuzz-{mask}-{}", stored.len()));
            let none = FaultPlan::default();
            let mut cache = TileCache::open(&path, sample_header());
            for (tile, fp, outcome) in &stored {
                cache.record(*tile, *fp, outcome.clone());
            }
            cache.store().unwrap();
            let mut cache = TileCache::open(&path, sample_header());
            for (tile, fp, outcome) in &appended {
                cache.append(*tile, *fp, outcome.clone(), &none).unwrap();
            }
            cache.sync().unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).unwrap();

            // The compaction keeps the last record per tile; the appends
            // follow in order, each superseding what came before.
            let mut expected: BTreeMap<usize, (u64, TileOutcomeRecord)> = BTreeMap::new();
            let mut written = Vec::new();
            for (tile, fp, outcome) in &stored {
                expected.insert(*tile, (*fp, outcome.clone()));
            }
            written.extend(expected.iter().map(|(t, (f, o))| (*t, *f, o.clone())));
            for (tile, fp, outcome) in &appended {
                expected.insert(*tile, (*fp, outcome.clone()));
                written.push((*tile, *fp, outcome.clone()));
            }
            let whole = load_bytes(&bytes);
            prop_assert_eq!(whole.load_stats().rejected, 0);
            prop_assert_eq!(whole.loaded.clone().into_iter().collect::<BTreeMap<_, _>>(), expected);

            let only_written = |cache: &TileCache| {
                cache.loaded.iter().all(|(tile, (fp, outcome))| {
                    written.iter().any(|(t, f, o)| t == tile && f == fp && o == outcome)
                })
            };
            for cut in 0..=bytes.len() {
                let cache = load_bytes(&bytes[..cut]);
                prop_assert!(only_written(&cache), "cut at {}", cut);
                let lines = bytes[..cut].iter().filter(|&&b| b == b'\n').count();
                if lines == 0 {
                    prop_assert!(cache.load_stats().discarded);
                } else {
                    let torn = bytes[..cut].last() != Some(&b'\n');
                    prop_assert_eq!(cache.load_stats().rejected, usize::from(torn));
                    let complete: std::collections::HashSet<usize> =
                        written[..lines - 1].iter().map(|e| e.0).collect();
                    prop_assert_eq!(cache.load_stats().loaded, complete.len());
                }
            }
            let mut flipped = bytes.clone();
            for i in 0..bytes.len() {
                flipped[i] ^= mask;
                let cache = load_bytes(&flipped);
                prop_assert!(only_written(&cache), "flip at {}", i);
                flipped[i] = bytes[i];
            }
        }
    }
}
