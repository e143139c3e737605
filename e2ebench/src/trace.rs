//! In-memory span recorder for the traced replay.
//!
//! A span is one call into a layer's public function: its name (the layer),
//! start and end offsets from the recorder's epoch, the span that caused it,
//! and the request it served (the scan tile id, or `NO_REQUEST`). Spans stay
//! in memory while the replay runs and are written out once, when the run
//! ends. A layer's self time is its spans' durations minus the parts their
//! child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Request id of spans that serve the whole scan rather than one tile.
pub const NO_REQUEST: i64 = -1;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: i64,
}

/// A single-threaded span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(u32);

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: i64) -> Open {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes the innermost open span, which must be `span`.
    pub fn end(&mut self, span: Open) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(span.0), "spans must close innermost-first");
        self.spans[span.0 as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, request: i64, f: impl FnOnce() -> R) -> R {
        let span = self.begin(name, request);
        let out = f();
        self.end(span);
        out
    }

    /// Wall time of the first span named `name`, in milliseconds.
    pub fn wall_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e6)
    }

    /// Summed self time per span name, in milliseconds.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        assert!(self.open.is_empty(), "self times need every span closed");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*children);
            *out.entry(s.name).or_default() += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one CSV line: id, parent, name, request, start
    /// and end in nanoseconds since the recorder's epoch.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,request,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id},{parent},{},{},{},{}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.begin("root", NO_REQUEST);
        t.leaf("child", 3, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(root);
        let own = t.self_ms();
        assert!(own["child"] >= 5.0);
        assert!(own["root"] < own["child"]);
        let total = t.wall_ms("root");
        assert!((own["root"] + own["child"] - total).abs() < 1e-6);
    }
}
