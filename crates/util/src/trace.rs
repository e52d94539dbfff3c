//! Structured, deterministic telemetry: a line-oriented JSONL event sink.
//!
//! Search and training loops (`perfdojo-search`, `perfdojo-rl`,
//! `perfdojo-library`) emit one JSON object per line describing each
//! trajectory step. The sink is deliberately *clock-free*: events carry a
//! monotonic step counter and whatever the caller records (evaluations,
//! costs, accept decisions) but never wall-clock time, so two fixed-seed
//! runs — or an uninterrupted run vs a checkpointed-and-resumed one —
//! produce byte-identical traces that CI can `cmp`.
//!
//! The module also hosts the small persistence vocabulary the checkpoint
//! formats share: [`atomic_write`] (write a private temporary, fsync,
//! rename),
//! the bit-exact float codecs ([`f64_to_hex`] / [`f64_from_hex`] and the
//! `f32` twins) that keep serialized costs and weights exactly
//! round-trippable, the `rng` and `f32`-vector line writers
//! ([`push_rng`], [`push_f32s`]), and [`Lines`], the one cursor every
//! checkpoint text is parsed through. A count read from disk never sizes
//! an allocation: [`Lines::repeat`] pushes items one by one, so a count
//! larger than the text fails at the first missing line.

use crate::rng::Rng;
use std::io::Write as _;
use std::path::Path;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Render an `f64` as its 16-hex-digit bit pattern (bit-exact, locale-free).
pub fn f64_to_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Parse a [`f64_to_hex`] bit pattern back into an `f64`.
pub fn f64_from_hex(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Render an `f32` as its 8-hex-digit bit pattern.
pub fn f32_to_hex(x: f32) -> String {
    format!("{:08x}", x.to_bits())
}

/// Parse a [`f32_to_hex`] bit pattern back into an `f32`.
pub fn f32_from_hex(s: &str) -> Option<f32> {
    u32::from_str_radix(s, 16).ok().map(f32::from_bits)
}

/// Atomically write `text` to `path`: write a temporary file beside it,
/// fsync, rename.
///
/// A crash mid-save leaves either the old file or the new one, never a
/// torn mixture — the durability primitive under every checkpoint and
/// trace save in the workspace. Every call writes its own temporary
/// (`<stem>.<pid>-<n>.tmp`), so concurrent writers of one path — two
/// fleet workers running the same job — each rename a complete file and
/// the last rename wins; a shared name would let one writer rename
/// another's half-written file and fail its own rename.
pub fn atomic_write(path: &Path, text: &str) -> std::io::Result<()> {
    // a unique id, publishing no other data
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("{}-{n}.tmp", std::process::id()));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Append the `rng <w0> <w1> <w2> <w3> <spare>` line: the four xoshiro
/// state words in hex and the cached Box–Muller spare as its bit pattern
/// (`-` when there is none), read back by [`Lines::rng`].
pub fn push_rng(out: &mut String, rng: &Rng) {
    let (s, spare) = rng.state();
    out.push_str(&format!(
        "rng {:016x} {:016x} {:016x} {:016x} {}\n",
        s[0],
        s[1],
        s[2],
        s[3],
        spare.map_or_else(|| "-".to_string(), f64_to_hex)
    ));
}

/// Append `key <hex> <hex> ...` with every `f32` as its exact bit pattern,
/// read back by [`Lines::f32s`].
pub fn push_f32s(out: &mut String, key: &str, v: &[f32]) {
    out.push_str(key);
    for x in v {
        out.push(' ');
        out.push_str(&f32_to_hex(*x));
    }
    out.push('\n');
}

/// A cursor over checkpoint text, one `<key> <fields>` line at a time.
/// Every error names the line it hit.
pub struct Lines<'a> {
    it: std::str::Lines<'a>,
    n: usize,
}

impl<'a> Lines<'a> {
    /// A cursor before the first line of `text`.
    pub fn new(text: &'a str) -> Lines<'a> {
        Lines { it: text.lines(), n: 0 }
    }

    /// Consume the next line.
    fn line(&mut self) -> Result<&'a str, String> {
        self.n += 1;
        self.it.next().ok_or_else(|| format!("line {}: unexpected end of checkpoint", self.n))
    }

    /// An error message naming the last consumed line.
    pub fn err(&self, msg: &str) -> String {
        format!("line {}: {msg}", self.n)
    }

    /// Consume a line that must read exactly `want` (a header, `end`).
    pub fn exact(&mut self, want: &str) -> Result<(), String> {
        let line = self.line()?;
        if line != want {
            return Err(self.err(&format!("expected {want:?}, got {line:?}")));
        }
        Ok(())
    }

    /// Consume `key <rest>` (or a bare `key`) and return `rest`.
    pub fn keyed(&mut self, key: &str) -> Result<&'a str, String> {
        let line = self.line()?;
        line.strip_prefix(key)
            .and_then(|r| if r.is_empty() { Some(r) } else { r.strip_prefix(' ') })
            .ok_or_else(|| self.err(&format!("expected `{key} ...`, got {line:?}")))
    }

    /// Consume `key <n>`.
    pub fn count<T: FromStr + Copy + Default>(&mut self, key: &str) -> Result<T, String> {
        let [n] = self.ints(key)?;
        Ok(n)
    }

    /// Consume `key <n1> ... <nN>`: exactly `N` decimal integers.
    pub fn ints<T: FromStr + Copy + Default, const N: usize>(
        &mut self,
        key: &str,
    ) -> Result<[T; N], String> {
        let rest = self.keyed(key)?;
        let mut words = rest.split_whitespace();
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = words
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| self.err(&format!("`{key}` needs {N} integers, got {rest:?}")))?;
        }
        if words.next().is_some() {
            return Err(self.err(&format!("`{key}` needs {N} integers, got {rest:?}")));
        }
        Ok(out)
    }

    /// Consume `key <f64-hex>`.
    pub fn hexf(&mut self, key: &str) -> Result<f64, String> {
        let rest = self.keyed(key)?;
        f64_from_hex(rest.trim())
            .ok_or_else(|| self.err(&format!("bad f64 bits in `{key} {rest}`")))
    }

    /// Consume a [`push_f32s`] line holding exactly `n` values.
    pub fn f32s(&mut self, key: &str, n: usize) -> Result<Vec<f32>, String> {
        let rest = self.keyed(key)?;
        let v: Option<Vec<f32>> = rest.split_whitespace().map(f32_from_hex).collect();
        let v = v.ok_or_else(|| self.err(&format!("bad f32 bits in `{key}` line")))?;
        if v.len() != n {
            return Err(self.err(&format!("`{key}` expects {n} values, got {}", v.len())));
        }
        Ok(v)
    }

    /// Consume a [`push_rng`] line.
    pub fn rng(&mut self) -> Result<Rng, String> {
        let rest = self.keyed("rng")?;
        let parts: Vec<&str> = rest.split_whitespace().collect();
        if parts.len() != 5 {
            return Err(self.err("rng needs 4 state words + spare"));
        }
        let mut s = [0u64; 4];
        for (i, p) in parts[..4].iter().enumerate() {
            s[i] = u64::from_str_radix(p, 16).map_err(|_| self.err("bad rng word"))?;
        }
        let spare = match parts[4] {
            "-" => None,
            h => Some(f64_from_hex(h).ok_or_else(|| self.err("bad rng spare"))?),
        };
        Ok(Rng::from_state(s, spare))
    }

    /// `a * b` for a dimension product read from disk, or an error when it
    /// overflows.
    pub fn product(&self, a: usize, b: usize) -> Result<usize, String> {
        a.checked_mul(b).ok_or_else(|| self.err(&format!("dimension product {a} x {b} overflows")))
    }

    /// Parse `n` items, each consuming at least one line. Items are pushed
    /// one by one, never pre-allocated: a count read from disk that is
    /// larger than the text fails at the first missing line.
    pub fn repeat<T>(
        &mut self,
        n: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Consume a `key <n>` line, then [`Lines::repeat`] `n` items.
    pub fn list<T>(
        &mut self,
        key: &str,
        item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let n = self.count(key)?;
        self.repeat(n, item)
    }
}

/// A line-oriented JSONL event sink with a monotonic step counter.
///
/// Events accumulate in memory; [`TraceSink::to_text`] renders them (one
/// JSON object per line) and [`TraceSink::save`] persists atomically. The
/// step counter survives checkpoint/resume via [`TraceSink::with_start`] /
/// [`TraceSink::from_text`], so a resumed run continues numbering exactly
/// where the interrupted one stopped.
#[derive(Clone, Debug, Default)]
pub struct TraceSink {
    lines: Vec<String>,
    next_step: u64,
}

impl TraceSink {
    /// An empty sink starting at step 0.
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    /// An empty sink whose next event gets step number `step` (resume).
    pub fn with_start(step: u64) -> TraceSink {
        TraceSink { lines: Vec::new(), next_step: step }
    }

    /// A sink pre-loaded with previously-emitted trace text; new events
    /// append after it and continue its step numbering. Used when resuming
    /// a checkpointed run whose trace file already holds a prefix.
    pub fn from_text(text: &str) -> TraceSink {
        let lines: Vec<String> =
            text.lines().filter(|l| !l.is_empty()).map(str::to_string).collect();
        let next_step = lines.len() as u64;
        TraceSink { lines, next_step }
    }

    /// Number of emitted events.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when no events were emitted.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The step number the next emitted event will carry.
    pub fn next_step(&self) -> u64 {
        self.next_step
    }

    /// Start an event of kind `ev`; finish it with [`EventBuilder::emit`].
    pub fn event(&mut self, ev: &str) -> EventBuilder<'_> {
        let mut buf = String::with_capacity(96);
        buf.push_str("{\"step\":");
        buf.push_str(&self.next_step.to_string());
        buf.push_str(",\"ev\":\"");
        json_escape_into(&mut buf, ev);
        buf.push('"');
        EventBuilder { sink: self, buf }
    }

    /// All events, one JSON object per line, `\n`-terminated.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// Atomically persist the full trace to `path`.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        atomic_write(path, &self.to_text())
    }
}

/// In-flight event being assembled; call [`EventBuilder::emit`] to commit.
pub struct EventBuilder<'a> {
    sink: &'a mut TraceSink,
    buf: String,
}

impl EventBuilder<'_> {
    fn key(&mut self, k: &str) {
        self.buf.push_str(",\"");
        json_escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    /// Add an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Add a float field (shortest-roundtrip decimal; non-finite → `null`).
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            self.buf.push_str(&format!("{v:?}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Add a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Add a string field (JSON-escaped).
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        json_escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    /// Commit the event to the sink (assigns its step number).
    pub fn emit(self) {
        let mut line = self.buf;
        line.push('}');
        self.sink.lines.push(line);
        self.sink.next_step += 1;
    }
}

/// Escape `s` for inclusion inside a JSON string literal.
fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Remove every occurrence of a scalar field `"name":<value>` from JSONL
/// `text` — used by CI to strip the one legitimately non-resume-invariant
/// field (`cache_hit`, which depends on the process-local cache) before
/// byte-comparing traces. Only scalar values (numbers, booleans, `null`,
/// comma-free strings) are supported.
pub fn strip_field(text: &str, name: &str) -> String {
    let needle = format!("\"{name}\":");
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let mut rest = line;
        let mut kept = String::with_capacity(line.len());
        while let Some(pos) = rest.find(&needle) {
            // include a preceding comma in the cut when present
            let cut_start = if pos > 0 && rest.as_bytes()[pos - 1] == b',' { pos - 1 } else { pos };
            kept.push_str(&rest[..cut_start]);
            let after_key = &rest[pos + needle.len()..];
            let val_end = after_key
                .find([',', '}'])
                .unwrap_or(after_key.len());
            rest = &after_key[val_end..];
            // when the field was first and a comma follows, drop that comma
            if cut_start == pos && rest.starts_with(',') {
                rest = &rest[1..];
            }
        }
        kept.push_str(rest);
        out.push_str(&kept);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_number_monotonically_and_render_as_json_lines() {
        let mut s = TraceSink::new();
        s.event("sa").u64("evals", 3).f64("cost", 1.5).bool("accept", true).emit();
        s.event("sa").str("action", "split @ @0").emit();
        let text = s.to_text();
        assert_eq!(
            text,
            "{\"step\":0,\"ev\":\"sa\",\"evals\":3,\"cost\":1.5,\"accept\":true}\n\
             {\"step\":1,\"ev\":\"sa\",\"action\":\"split @ @0\"}\n"
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s.next_step(), 2);
    }

    #[test]
    fn resume_continues_numbering_byte_identically() {
        let mut full = TraceSink::new();
        for i in 0..5u64 {
            full.event("e").u64("i", i).emit();
        }
        // interrupted after 3 events, resumed from the persisted prefix
        let mut prefix = TraceSink::new();
        for i in 0..3u64 {
            prefix.event("e").u64("i", i).emit();
        }
        let mut resumed = TraceSink::from_text(&prefix.to_text());
        assert_eq!(resumed.next_step(), 3);
        for i in 3..5u64 {
            resumed.event("e").u64("i", i).emit();
        }
        assert_eq!(resumed.to_text(), full.to_text());
    }

    #[test]
    fn escaping_and_nonfinite_floats() {
        let mut s = TraceSink::new();
        s.event("x").str("msg", "a\"b\\c\nd").f64("bad", f64::NAN).emit();
        let t = s.to_text();
        assert!(t.contains("a\\\"b\\\\c\\nd"), "{t}");
        assert!(t.contains("\"bad\":null"), "{t}");
    }

    #[test]
    fn float_display_round_trips_bits() {
        // {:?} on f64 prints the shortest decimal that parses back exactly
        for x in [1.0 / 3.0, 1e-300, 6.02e23, f64::MIN_POSITIVE] {
            let mut s = TraceSink::new();
            s.event("x").f64("v", x).emit();
            let t = s.to_text();
            let printed = t.split("\"v\":").nth(1).unwrap().trim_end_matches("}\n");
            assert_eq!(printed.parse::<f64>().unwrap().to_bits(), x.to_bits(), "{t}");
        }
    }

    #[test]
    fn hex_codecs_are_bit_exact() {
        for x in [0.0f64, -0.0, 1.0 / 3.0, f64::INFINITY, f64::MAX] {
            assert_eq!(f64_from_hex(&f64_to_hex(x)).unwrap().to_bits(), x.to_bits());
        }
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        assert_eq!(f64_from_hex(&f64_to_hex(nan)).unwrap().to_bits(), nan.to_bits());
        for x in [0.25f32, -1.5e-30, f32::NEG_INFINITY] {
            assert_eq!(f32_from_hex(&f32_to_hex(x)).unwrap().to_bits(), x.to_bits());
        }
        assert_eq!(f64_from_hex("zz"), None);
        assert_eq!(f32_from_hex(""), None);
    }

    #[test]
    fn strip_field_removes_only_the_named_scalar() {
        let t = "{\"step\":0,\"cache_hit\":true,\"cost\":1.5}\n\
                 {\"step\":1,\"cost\":2.0,\"cache_hit\":false}\n\
                 {\"cache_hit\":true}\n";
        let s = strip_field(t, "cache_hit");
        assert_eq!(s, "{\"step\":0,\"cost\":1.5}\n{\"step\":1,\"cost\":2.0}\n{}\n");
        // stripping a field changes nothing when absent
        assert_eq!(strip_field(t, "missing"), t);
    }

    #[test]
    fn cursor_reads_back_what_the_writers_wrote() {
        let mut rng = Rng::seed_from_u64(3);
        rng.normal(0.0, 1.0); // leaves a Box–Muller spare
        let mut text = String::from("head v1\n");
        push_rng(&mut text, &rng);
        push_f32s(&mut text, "w", &[0.5, -1.25]);
        push_f32s(&mut text, "b", &[]);
        text.push_str("dims 3 4\nitems 2\nx 0000000000000000\nx 3ff0000000000000\nend\n");
        let mut l = Lines::new(&text);
        l.exact("head v1").unwrap();
        assert_eq!(l.rng().unwrap().state(), rng.state());
        assert_eq!(l.f32s("w", 2).unwrap(), vec![0.5, -1.25]);
        assert_eq!(l.f32s("b", 0).unwrap(), Vec::<f32>::new());
        let [a, b]: [usize; 2] = l.ints("dims").unwrap();
        assert_eq!(l.product(a, b).unwrap(), 12);
        assert_eq!(l.list("items", |l| l.hexf("x")).unwrap(), vec![0.0, 1.0]);
        l.exact("end").unwrap();
        assert!(l.line().is_err(), "past the last line");
    }

    #[test]
    fn cursor_errors_name_the_line_and_never_trust_counts() {
        // a count larger than the text fails at the first missing item
        let mut l = Lines::new("items 18446744073709551615\nx 0000000000000000\n");
        let err = l.list("items", |l| l.hexf("x")).unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        // an overflowing dimension product is an error, not a panic
        let l = Lines::new("");
        assert!(l.product(usize::MAX, 2).is_err());
        // a key is a whole word, and field counts are exact
        assert!(Lines::new("best 2\n").keyed("b").is_err());
        assert!(Lines::new("dims 3\n").ints::<usize, 2>("dims").is_err());
        assert!(Lines::new("dims 3 4 5\n").ints::<usize, 2>("dims").is_err());
        assert!(Lines::new("w 3f800000\n").f32s("w", 2).is_err());
        assert!(Lines::new("rng 1 2 3 4\n").rng().is_err());
        assert!(Lines::new("rng 1 2 3 zz -\n").rng().is_err());
    }

    #[test]
    fn atomic_write_and_save_round_trip() {
        let dir = std::env::temp_dir().join(format!("pd-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let mut s = TraceSink::new();
        s.event("a").u64("n", 1).emit();
        s.save(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, s.to_text());
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 1, "tmp renamed away");
        let resumed = TraceSink::from_text(&back);
        assert_eq!(resumed.next_step(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_atomic_writes_of_one_path_all_land() {
        let dir = std::env::temp_dir().join(format!("pd-trace-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("part");
        let start = std::sync::Barrier::new(4);
        for round in 0..8 {
            let text = format!("round {round}\n").repeat(1000);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        start.wait();
                        atomic_write(&path, &text).expect("a racing writer failed");
                    });
                }
            });
            assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "a temporary was left");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
