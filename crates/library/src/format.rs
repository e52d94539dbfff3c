//! The on-disk schedule-library format.
//!
//! Zero-dependency, versioned, line-oriented and human-auditable — no
//! serde, per the workspace policy (DESIGN.md). A library file is a header
//! line followed by entry blocks:
//!
//! ```text
//! perfdojo-library v1
//! entry 0a1b…|4x8x4x8|f32|x86
//! label softmax
//! model m1-t1
//! prov heuristic 94837 150
//! cost 3f2e02e85c0898b4 3f4202e85c0898b4  # 2.29e-4 s, naive 5.50e-4 s
//! step join_scopes @ @0.1
//! step reuse_dims @ t#1
//! end
//! ```
//!
//! Costs are serialized as exact `f64` bit patterns (hex) with a derived
//! human-readable comment, so `save → load → save` is byte-identical.
//! Loading is corrupt-tolerant at block granularity: a malformed line
//! invalidates only its entry block, which is counted and skipped; every
//! well-formed block survives. Saves are atomic (write a temporary, then
//! rename) so a crashed writer never truncates a served library.

use crate::sig::KernelSig;
use perfdojo_transform::{parse_action, Action};
use std::fmt;

/// On-disk format version; the header line is `perfdojo-library v1`.
pub const FORMAT_VERSION: u32 = 1;

fn header() -> String {
    format!("perfdojo-library v{FORMAT_VERSION}")
}

/// Where a tuned schedule came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// Tuning strategy name (`heuristic`, `anneal`, `perfllm`).
    pub strategy: String,
    /// Seed the strategy ran under.
    pub seed: u64,
    /// Evaluation budget the strategy was given.
    pub budget: u64,
}

/// One persisted tuned schedule: the replayable edit sequence plus
/// everything needed to trust, rank, and invalidate it.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleRecord {
    /// Canonical signature (also the entry key).
    pub sig: KernelSig,
    /// Human label (`softmax`, `batchnorm 1`, …) for reports.
    pub label: String,
    /// The transformation edit sequence, replayable through
    /// `perfdojo_transform::replay` on the naive program.
    pub steps: Vec<Action>,
    /// Predicted runtime of the tuned schedule, seconds.
    pub cost: f64,
    /// Predicted runtime of the naive program, seconds.
    pub naive_cost: f64,
    /// Machine-model/IR-format version the record was tuned under.
    pub model_version: String,
    /// Strategy, seed and budget that produced it.
    pub provenance: Provenance,
}

impl ScheduleRecord {
    /// Speedup of the tuned schedule over the naive program.
    pub fn speedup(&self) -> f64 {
        self.naive_cost / self.cost
    }

    /// Render this record as its on-disk entry block.
    pub fn to_block(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("entry {}\n", self.sig.key()));
        s.push_str(&format!("label {}\n", self.label));
        s.push_str(&format!("model {}\n", self.model_version));
        s.push_str(&format!(
            "prov {} {} {}\n",
            self.provenance.strategy, self.provenance.seed, self.provenance.budget
        ));
        s.push_str(&format!(
            "cost {:016x} {:016x}  # {:.3e} s, naive {:.3e} s\n",
            self.cost.to_bits(),
            self.naive_cost.to_bits(),
            self.cost,
            self.naive_cost
        ));
        for a in &self.steps {
            s.push_str(&format!("step {a}\n"));
        }
        s.push_str("end\n");
        s
    }
}

/// Load failure (the whole file is unusable — individual bad lines are
/// tolerated and reported in [`LoadStats`] instead).
#[derive(Debug)]
pub enum FormatError {
    /// I/O failure reading the file.
    Io(std::io::Error),
    /// Missing or incompatible `perfdojo-library v<N>` header.
    BadHeader(String),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "io: {e}"),
            FormatError::BadHeader(h) => {
                write!(f, "bad header {h:?} (expected {:?})", header())
            }
        }
    }
}

impl std::error::Error for FormatError {}

impl From<std::io::Error> for FormatError {
    fn from(e: std::io::Error) -> Self {
        FormatError::Io(e)
    }
}

/// What a tolerant load observed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Entry blocks dropped because a line inside them was malformed.
    pub corrupt_entries: usize,
    /// Stray non-blank, non-comment lines outside any entry block.
    pub stray_lines: usize,
}

/// Serialize records (already in the desired order) to the full file text.
pub fn render<'a>(records: impl IntoIterator<Item = &'a ScheduleRecord>) -> String {
    let mut s = header();
    s.push('\n');
    for r in records {
        s.push_str(&r.to_block());
    }
    s
}

/// Parse the full file text. Returns the surviving records plus tolerance
/// stats; fails only on a missing/incompatible header.
pub fn parse(text: &str) -> Result<(Vec<ScheduleRecord>, LoadStats), FormatError> {
    let mut lines = text.lines();
    let head = loop {
        match lines.next() {
            None => return Err(FormatError::BadHeader(String::new())),
            Some(l) if l.trim().is_empty() => continue,
            Some(l) => break l.trim().to_string(),
        }
    };
    if head != header() {
        return Err(FormatError::BadHeader(head));
    }

    let mut records = Vec::new();
    let mut stats = LoadStats::default();
    let mut block: Option<Vec<String>> = None;
    for raw in lines {
        let line = raw.trim_end();
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match (&mut block, trimmed) {
            (None, t) if t.starts_with("entry ") => block = Some(vec![t.to_string()]),
            (None, _) => stats.stray_lines += 1,
            (Some(b), "end") => {
                match parse_block(b) {
                    Some(rec) => records.push(rec),
                    None => stats.corrupt_entries += 1,
                }
                block = None;
            }
            (Some(b), t) if t.starts_with("entry ") => {
                // a new entry opened before `end`: the previous block is
                // truncated/corrupt
                stats.corrupt_entries += 1;
                *b = vec![t.to_string()];
            }
            (Some(b), t) => b.push(t.to_string()),
        }
    }
    if block.is_some() {
        stats.corrupt_entries += 1; // trailing unterminated block
    }
    Ok((records, stats))
}

/// Parse one accumulated `entry … end` block (without the `end` line).
fn parse_block(lines: &[String]) -> Option<ScheduleRecord> {
    let mut sig = None;
    let mut label = None;
    let mut model = None;
    let mut prov = None;
    let mut cost = None;
    let mut steps = Vec::new();
    for l in lines {
        let (tag, rest) = l.split_once(' ')?;
        match tag {
            "entry" => sig = Some(KernelSig::parse_key(rest.trim())?),
            "label" => label = Some(rest.trim().to_string()),
            "model" => model = Some(rest.trim().to_string()),
            "prov" => {
                let mut p = rest.split_whitespace();
                prov = Some(Provenance {
                    strategy: p.next()?.to_string(),
                    seed: p.next()?.parse().ok()?,
                    budget: p.next()?.parse().ok()?,
                });
                if p.next().is_some() {
                    return None;
                }
            }
            "cost" => {
                // strip the derived human-readable comment
                let data = rest.split('#').next()?.trim();
                let mut c = data.split_whitespace();
                let tuned = f64::from_bits(u64::from_str_radix(c.next()?, 16).ok()?);
                let naive = f64::from_bits(u64::from_str_radix(c.next()?, 16).ok()?);
                if c.next().is_some() || !tuned.is_finite() || !naive.is_finite() {
                    return None;
                }
                cost = Some((tuned, naive));
            }
            "step" => steps.push(parse_action(rest.trim())?),
            _ => return None,
        }
    }
    let (cost, naive_cost) = cost?;
    Some(ScheduleRecord {
        sig: sig?,
        label: label?,
        steps,
        cost,
        naive_cost,
        model_version: model?,
        provenance: prov?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdojo_ir::Path as IrPath;
    use perfdojo_transform::{Loc, Transform};

    fn record(cols: usize, cost: f64) -> ScheduleRecord {
        ScheduleRecord {
            sig: KernelSig::of(&perfdojo_kernels::softmax(4, cols), "x86"),
            label: "softmax".into(),
            steps: vec![
                Action { transform: Transform::SplitScope { tile: 2 }, loc: Loc::Node(IrPath::from([0, 0])) },
                Action { transform: Transform::Unroll, loc: Loc::Node(IrPath::from([0, 0, 0])) },
            ],
            cost,
            naive_cost: cost * 2.0,
            model_version: "m1-t1".into(),
            provenance: Provenance { strategy: "heuristic".into(), seed: 7, budget: 150 },
        }
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let recs = vec![record(8, 1.25e-6), record(16, 3.0e-5)];
        let text = render(recs.iter());
        let (back, stats) = parse(&text).unwrap();
        assert_eq!(back, recs);
        assert_eq!(stats, LoadStats::default());
        // and re-rendering is byte-identical
        assert_eq!(render(back.iter()), text);
    }

    #[test]
    fn cost_bits_survive_exactly() {
        // a cost whose decimal printing would lose bits
        let c = f64::from_bits(0x3FE5_5555_5555_5555);
        let text = render([&record(8, c)].into_iter());
        let (back, _) = parse(&text).unwrap();
        assert_eq!(back[0].cost.to_bits(), c.to_bits());
    }

    #[test]
    fn corrupt_line_drops_only_its_block() {
        let recs = vec![record(8, 1.0e-6), record(16, 2.0e-6), record(32, 3.0e-6)];
        let text = render(recs.iter());
        // corrupt the middle block's cost line
        let broken = text.replace(&format!("cost {:016x}", (2.0e-6f64).to_bits()), "cost zzzz");
        let (back, stats) = parse(&broken).unwrap();
        assert_eq!(stats.corrupt_entries, 1);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], recs[0]);
        assert_eq!(back[1], recs[2]);
    }

    #[test]
    fn unterminated_and_stray_lines_tolerated() {
        let r = record(8, 1.0e-6);
        let mut text = header();
        text.push('\n');
        text.push_str("stray garbage\n");
        text.push_str(&r.to_block());
        text.push_str("entry truncated-nonsense\nlabel x\n"); // no end
        let (back, stats) = parse(&text).unwrap();
        assert_eq!(back, vec![r]);
        assert_eq!(stats.stray_lines, 1);
        assert_eq!(stats.corrupt_entries, 1);
    }

    #[test]
    fn bad_header_rejected() {
        assert!(matches!(parse(""), Err(FormatError::BadHeader(_))));
        assert!(matches!(parse("perfdojo-library v999\n"), Err(FormatError::BadHeader(_))));
        assert!(matches!(parse("not a library\n"), Err(FormatError::BadHeader(_))));
    }
}
