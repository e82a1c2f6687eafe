//! In-memory spans for the traced run: `(layer, start, end, parent)`
//! kept in a vector, written out as JSON lines when the run ends, and
//! folded into per-layer self time.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Ids start at 1; parent 0 is "no parent".
#[derive(Clone, Debug)]
pub struct Span {
    /// This span's id.
    pub id: u32,
    /// The enclosing span's id, 0 for a root.
    pub parent: u32,
    /// The layer the timed call belongs to, e.g. `core.ingest`.
    pub layer: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// A span recorder around calls the benchmark makes into each layer.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, layer: &'static str, parent: u32) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            layer,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Time `f` as one span.
    pub fn span<R>(&mut self, layer: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let id = self.begin(layer, parent);
        let r = std::hint::black_box(f());
        self.end(id);
        r
    }

    /// Every span recorded.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per layer: `(total ns, self ns, span count)`, where self time is
    /// the span's duration minus the part its child spans cover.
    pub fn layer_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let d = s.end_ns - s.start_ns;
            let e = out.entry(s.layer).or_default();
            e.0 += d;
            e.1 += d.saturating_sub(child_ns[s.id as usize]);
            e.2 += 1;
        }
        out
    }

    /// Total ns of one layer's spans.
    pub fn total_ns(&self, layer: &str) -> u64 {
        self.layer_times().get(layer).map_or(0, |t| t.0)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                f,
                "{{\"id\": {}, \"parent\": {}, \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.layer, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}
