//! Outside-in spans: the benchmark times each call it makes into a layer's
//! public functions. Spans live in memory and are written out at exit.
//!
//! A span's layer is the prefix of its name before the first `.`
//! (`ir.validate` belongs to `ir`). A span's self time is its duration
//! minus the durations of its child spans; children never overlap, since
//! one recorder belongs to one thread and spans nest by call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The layers a span may belong to, in report order.
pub const LAYERS: [&str; 11] = [
    "ir",
    "transform",
    "codegen",
    "machine",
    "interp",
    "core",
    "search",
    "rl",
    "library",
    "serve",
    "util",
];

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    /// Nanoseconds since the run's epoch.
    pub end: u64,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
    /// The request (job or query) the span served.
    pub request: u64,
}

impl Span {
    /// The span's layer.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// Records the spans of one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Recorder {
    /// An empty recording with timestamps relative to `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Attribute the following spans to `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as span `name`; spans `f` records become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let request = self.request;
        self.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent,
            request,
        });
        self.open.push(index);
        self.spans[index].start = self.now();
        let out = f(self);
        self.spans[index].end = self.now();
        self.open.pop();
        out
    }

    /// Time `f` as a childless span `name`.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, |_| f())
    }

    /// Append another thread's recording (same epoch).
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64 * 1e-9)
            .collect()
    }

    /// Per-span self time in nanoseconds.
    fn self_nanos(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::nanos).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.nanos());
            }
        }
        own
    }

    /// Per-layer count, self time and p50 span duration, in [`LAYERS`]
    /// order (layers without spans report zeros).
    pub fn layer_table(&self) -> Vec<LayerRow> {
        let own = self.self_nanos();
        let mut rows: BTreeMap<&str, (u64, f64, Vec<f64>)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(own) {
            let row = rows.entry(s.layer()).or_default();
            row.0 += 1;
            row.1 += self_ns as f64 * 1e-9;
            row.2.push(s.nanos() as f64 * 1e-9);
        }
        LAYERS
            .iter()
            .map(|&layer| {
                let (count, self_s, durations) = rows.remove(layer).unwrap_or_default();
                LayerRow {
                    layer,
                    count,
                    self_s,
                    p50_s: crate::stats::per_call(&durations),
                }
            })
            .collect()
    }

    /// Spans whose layer is not in [`LAYERS`] (a naming bug).
    pub fn unknown_layers(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self
            .spans
            .iter()
            .filter(|s| !LAYERS.contains(&s.layer()))
            .map(|s| s.name)
            .collect();
        names.dedup();
        names
    }

    /// Write every span as a tab-separated line: index, parent (-1 for
    /// none), request, name, start ns, end ns.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// One row of the per-layer table.
#[derive(Clone, Debug)]
pub struct LayerRow {
    /// Layer name.
    pub layer: &'static str,
    /// Spans recorded.
    pub count: u64,
    /// Self time, seconds.
    pub self_s: f64,
    /// Typical span duration, seconds ([`crate::stats::per_call`]).
    pub p50_s: f64,
}
