//! Checksummed line framing and the append-only writer behind the tile
//! cache's on-disk log ([`crate::tile_cache`]).
//!
//! # Line format
//!
//! Every line — a header included — is
//!
//! ```text
//! <fnv1a64 of payload, 16 lowercase hex digits> <payload JSON>\n
//! ```
//!
//! A reader checks each line's checksum on its own, so a torn final write
//! from a kill or a flipped bit costs exactly the damaged line.
//!
//! # Appending
//!
//! The crate's `JournalWriter` either creates a file with its header line
//! or reopens one after its last whole line, truncating a torn tail. It
//! appends framed payloads and makes them durable with one `fsync` per
//! sync — once per scan batch.

use crate::engine::FaultPlan;
use crate::obs::{Counter, ObsEvent, ObsHub};
use hotspot_geom::Rect;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write as _};
use std::path::Path;
use std::sync::Arc;

/// The canonical result of one successfully processed tile.
///
/// This is exactly the tile state `scan_layout` folds into its report —
/// replaying it is equivalent to re-running the tile, which is why a scan
/// served from the tile cache is bit-identical to one that recomputes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TileOutcomeRecord {
    /// The tile was discarded by the density prefilter.
    Prefiltered,
    /// The tile's clips were extracted and evaluated.
    Evaluated {
        /// Candidate clips extracted from the tile.
        clips: usize,
        /// Clips flagged hotspot by the multiple kernels.
        flagged: usize,
        /// Flags reclaimed to nonhotspot by the feedback kernel.
        reclaimed: usize,
        /// Core rectangles of the surviving flags, in extraction order.
        flagged_cores: Vec<Rect>,
    },
}

/// FNV-1a 64-bit hash of `bytes` — the per-line checksum, also the model
/// half of the tile cache fingerprint.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Parses one framed line (without its trailing newline) back into its
/// payload, verifying the checksum. `None` when malformed or corrupt.
pub(crate) fn unframe(line: &str) -> Option<&str> {
    let (hex, payload) = line.split_at_checked(17)?;
    let (hex, sep) = hex.split_at_checked(16)?;
    if sep != " " {
        return None;
    }
    let expected = u64::from_str_radix(hex, 16).ok()?;
    (fnv1a(payload.as_bytes()) == expected).then_some(payload)
}

/// Serialises `value` as one checksummed line.
pub(crate) fn framed(value: &impl Serialize) -> io::Result<String> {
    let payload =
        serde_json::to_string(value).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(format!("{:016x} {payload}\n", fnv1a(payload.as_bytes())))
}

/// Makes the directory entry of the file at `path` durable by `fsync`ing
/// its parent directory: without it, a power cut after the file is
/// created or renamed into place can lose the entry even though the
/// file's data was synced. No test can cut the power, so tests see only
/// that the call succeeds. A no-op off Unix, where a directory cannot be
/// opened as a file.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub(crate) fn sync_parent_dir(path: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// Append-only writer of framed lines with per-batch durability.
#[derive(Debug)]
pub(crate) struct JournalWriter {
    file: File,
    appended: usize,
    dirty: bool,
    obs: Option<Arc<ObsHub>>,
}

impl JournalWriter {
    fn new(file: File, obs: Option<Arc<ObsHub>>) -> Self {
        JournalWriter {
            file,
            appended: 0,
            dirty: false,
            obs,
        }
    }

    /// Creates (or truncates) the file at `path` and writes `header` as its
    /// first line, durably: the file's data and its directory entry
    /// ([`sync_parent_dir`]). Appends and syncs are counted into `obs`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub(crate) fn create(
        path: &Path,
        header: &impl Serialize,
        obs: Option<Arc<ObsHub>>,
    ) -> io::Result<Self> {
        let mut file = File::create(path)?;
        file.write_all(framed(header)?.as_bytes())?;
        file.sync_data()?;
        sync_parent_dir(path)?;
        Ok(JournalWriter::new(file, obs))
    }

    /// Reopens the file at `path` for appending after its first
    /// `valid_len` bytes: truncates everything past them (a torn tail)
    /// and seeks to the end. Appends and syncs are counted into `obs`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub(crate) fn resume(
        path: &Path,
        valid_len: u64,
        obs: Option<Arc<ObsHub>>,
    ) -> io::Result<Self> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(JournalWriter::new(file, obs))
    }

    /// Appends `payload` as one framed line. Durability is deferred to
    /// [`sync`](Self::sync), called once per batch.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error — or a simulated one when `fault`
    /// marks this append ([`FaultPlan::fails_journal_at`], counted from 0
    /// over this writer's lifetime).
    pub(crate) fn append(&mut self, payload: &impl Serialize, fault: &FaultPlan) -> io::Result<()> {
        let index = self.appended;
        self.appended += 1;
        if fault.fails_journal_at(index) {
            return Err(io::Error::other(format!(
                "injected journal fault at record {index}"
            )));
        }
        self.file.write_all(framed(payload)?.as_bytes())?;
        self.dirty = true;
        if let Some(hub) = &self.obs {
            hub.counters().add(Counter::JournalAppends, 1);
        }
        Ok(())
    }

    /// Flushes appended lines to durable storage (`fsync`), a no-op when
    /// nothing was appended since the last sync.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        if self.dirty {
            self.file.flush()?;
            self.file.sync_data()?;
            self.dirty = false;
            if let Some(hub) = &self.obs {
                hub.counters().add(Counter::JournalSyncs, 1);
                let appended = self.appended;
                hub.emit(|| ObsEvent::JournalSynced { appended });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hotspot-journal-test-{}-{name}",
            std::process::id()
        ));
        p
    }

    fn sample_record(clips: usize) -> TileOutcomeRecord {
        TileOutcomeRecord::Evaluated {
            clips,
            flagged: 1,
            reclaimed: 0,
            flagged_cores: vec![Rect::from_extents(0, 0, 100, 100)],
        }
    }

    /// The payloads of the file's whole, checksum-valid lines.
    fn read_lines(path: &Path) -> Vec<String> {
        fs::read_to_string(path)
            .unwrap()
            .split_inclusive('\n')
            .filter_map(|l| l.strip_suffix('\n').and_then(unframe))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn write_then_read_round_trips() {
        let path = temp_path("round-trip");
        let mut w = JournalWriter::create(&path, &"header", None).unwrap();
        w.append(&sample_record(3), &FaultPlan::default()).unwrap();
        w.append(&TileOutcomeRecord::Prefiltered, &FaultPlan::default())
            .unwrap();
        w.sync().unwrap();
        drop(w);

        let lines = read_lines(&path);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "\"header\"");
        let back: TileOutcomeRecord = serde_json::from_str(&lines[1]).unwrap();
        assert_eq!(back, sample_record(3));
        let back: TileOutcomeRecord = serde_json::from_str(&lines[2]).unwrap();
        assert_eq!(back, TileOutcomeRecord::Prefiltered);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn parent_dir_sync_resolves_bare_names_and_reports_missing_dirs() {
        // A bare file name lives in the working directory.
        sync_parent_dir(Path::new("cache.log")).unwrap();
        sync_parent_dir(&temp_path("dir-sync")).unwrap();
        if cfg!(unix) {
            let missing = temp_path("no-such-dir").join("cache.log");
            let err = sync_parent_dir(&missing).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::NotFound);
        }
    }

    #[test]
    fn resume_truncates_a_torn_tail_and_appends_cleanly() {
        let path = temp_path("truncated");
        let mut w = JournalWriter::create(&path, &"header", None).unwrap();
        w.append(&sample_record(0), &FaultPlan::default()).unwrap();
        w.append(&sample_record(1), &FaultPlan::default()).unwrap();
        w.sync().unwrap();
        drop(w);

        // Tear the final line mid-write, as a kill would.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        assert_eq!(read_lines(&path).len(), 2, "torn line excluded");

        // Reopening after the last whole line drops the tail; appending
        // the lost record heals the file byte for byte.
        let whole = bytes[..bytes.len() - 7]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        let mut w = JournalWriter::resume(&path, whole as u64, None).unwrap();
        w.append(&sample_record(1), &FaultPlan::default()).unwrap();
        w.sync().unwrap();
        drop(w);
        assert_eq!(fs::read(&path).unwrap(), bytes, "healed file is identical");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_journal_fault_fails_the_chosen_append() {
        let path = temp_path("fault");
        let plan = FaultPlan {
            fail_journal_at: Some(1),
            ..Default::default()
        };
        let mut w = JournalWriter::create(&path, &"header", None).unwrap();
        assert!(w.append(&sample_record(0), &plan).is_ok());
        assert!(w.append(&sample_record(1), &plan).is_err());
        assert!(
            w.append(&sample_record(2), &plan).is_ok(),
            "only the chosen record fails"
        );
        w.sync().unwrap();
        assert_eq!(read_lines(&path).len(), 3, "header plus two records");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checksum_framing_rejects_tampering() {
        let line = framed(&"x1").unwrap();
        assert_eq!(unframe(line.trim_end()), Some("\"x1\""));
        let tampered = line.replace("x1", "x2");
        assert_eq!(unframe(tampered.trim_end()), None);
        assert_eq!(unframe("short"), None);
        assert_eq!(unframe("zzzzzzzzzzzzzzzz \"x1\""), None);
    }
}
