//! Content-addressed tile result cache for incremental re-scans.
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
//! edited tiles, entries lost to corruption — is recomputed and written
//! back. The store is rewritten atomically (temp file + rename) at the end
//! of every cached scan, so it always reflects exactly the last scan's
//! tiles.
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
//! Line-oriented, reusing the scan journal's framing: every line is
//! `<fnv1a64 of payload, 16 hex digits> <payload JSON>\n`. The first
//! payload is a [`CacheHeader`], the rest are [`CacheEntry`] lines. Unlike
//! the journal (which stops at the first bad line, because its tail is a
//! torn append), the cache reader **skips corrupt entries individually**
//! and keeps going: a flipped bit costs exactly the damaged entries, which
//! are recomputed and rewritten. A corrupt, version-skewed, or mismatched
//! header discards the whole cache — never trusted, never an error.

use crate::journal::{fnv1a, frame, unframe, TileOutcomeRecord};
use hotspot_geom::Point;
use hotspot_layout::LayerId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

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
    /// Entries loaded and usable.
    pub loaded: usize,
    /// Lines skipped for a bad checksum or malformed payload.
    pub rejected: usize,
    /// Whether the whole store was discarded (missing file counts as a
    /// clean empty store, not a discard).
    pub discarded: bool,
}

/// An open tile result cache: the entries read from disk plus the
/// write-back set accumulated during the current scan.
#[derive(Debug)]
pub struct TileCache {
    path: PathBuf,
    header: CacheHeader,
    loaded: HashMap<usize, (u64, TileOutcomeRecord)>,
    fresh: BTreeMap<usize, (u64, TileOutcomeRecord)>,
    stats: CacheLoadStats,
}

impl TileCache {
    /// Opens the cache at `path` against the current scan's `header`.
    ///
    /// Never fails: a missing file yields an empty cache, a corrupt or
    /// mismatched header discards every entry, and individually corrupt
    /// entry lines are skipped. The outcome is reported in
    /// [`load_stats`](Self::load_stats).
    pub fn open(path: &Path, header: CacheHeader) -> TileCache {
        let mut cache = TileCache {
            path: path.to_path_buf(),
            header,
            loaded: HashMap::new(),
            fresh: BTreeMap::new(),
            stats: CacheLoadStats::default(),
        };
        let mut bytes = Vec::new();
        let read = fs::File::open(path).and_then(|mut f| f.read_to_end(&mut bytes));
        if read.is_err() {
            return cache;
        }
        let text = String::from_utf8_lossy(&bytes);
        let mut lines = text.split_inclusive('\n');
        let header_ok = lines
            .next()
            .filter(|l| l.ends_with('\n'))
            .and_then(|l| unframe(l.trim_end_matches('\n')))
            .and_then(|p| serde_json::from_str::<CacheHeader>(p).ok())
            .is_some_and(|h| h == cache.header);
        if !header_ok {
            cache.stats.discarded = true;
            return cache;
        }
        for line in lines {
            if !line.ends_with('\n') {
                cache.stats.rejected += 1;
                continue;
            }
            let entry = unframe(line.trim_end_matches('\n'))
                .and_then(|p| serde_json::from_str::<CacheEntry>(p).ok());
            match entry {
                Some(e) => {
                    cache.loaded.insert(e.tile, (e.fingerprint, e.outcome));
                    cache.stats.loaded += 1;
                }
                None => cache.stats.rejected += 1,
            }
        }
        cache
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

    /// Records a tile's outcome (cores already tile-local) for write-back.
    /// Only successfully processed tiles may be recorded — quarantined
    /// tiles must never reach the cache.
    pub fn record(&mut self, tile: usize, fingerprint: u64, outcome: TileOutcomeRecord) {
        self.fresh.insert(tile, (fingerprint, outcome));
    }

    /// Entries recorded for write-back so far.
    pub fn recorded(&self) -> usize {
        self.fresh.len()
    }

    /// Atomically rewrites the store with this scan's entries (header plus
    /// every [`record`](Self::record)ed tile, in tile-id order), via a
    /// sibling temp file and rename. Entries for tiles the current scan
    /// never produced are dropped — the store always mirrors the last scan.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn store(&self) -> io::Result<()> {
        let mut out = String::new();
        let header = serde_json::to_string(&self.header)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        out.push_str(&frame(&header));
        for (&tile, (fingerprint, outcome)) in &self.fresh {
            let entry = CacheEntry {
                tile,
                fingerprint: *fingerprint,
                outcome: outcome.clone(),
            };
            let payload = serde_json::to_string(&entry)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            out.push_str(&frame(&payload));
        }
        let tmp = self.path.with_file_name(format!(
            "{}.tmp",
            self.path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "tile-cache".to_string())
        ));
        let mut file = fs::File::create(&tmp)?;
        file.write_all(out.as_bytes())?;
        file.sync_data()?;
        drop(file);
        fs::rename(&tmp, &self.path)
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
}
