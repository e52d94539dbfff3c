//! The result line, metric naming, and failed-op accounting.

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+` starting with a letter or digit.
    pub name: String,
    /// Unit (`s`, `ms`, `us`, `1/s`, `x`, `MB`, `count`, `ratio`).
    pub unit: &'static str,
    /// The measured value, as measured.
    pub value: f64,
}

impl Metric {
    /// A metric called `name` in `unit`.
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// True when `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Ops attempted and failed, with a reason per failure.
///
/// An op is one tune job on tune workloads, and one generated query or one
/// drain on serve workloads. Each failure counts exactly once.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed (shed, wrong output, error).
    pub failed: u64,
    /// One line per failure, for the log.
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one op that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Count one op that failed, and why.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(why);
    }

    /// Count one op: failed when `problem` is set.
    pub fn record(&mut self, problem: Option<String>) {
        match problem {
            Some(why) => self.fail(why),
            None => self.ok(),
        }
    }
}

/// The result of one benchmark run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every output check passed (and, traced, every mirror matched).
    pub correct: bool,
    /// The op tally.
    pub tally: Tally,
    /// Digest of the run's deterministic facts (see [`crate::Digest`]);
    /// empty for traced runs.
    pub digest: String,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The one-line JSON result. A non-finite value (written as 0), an
    /// invalid name or a run that attempted nothing (written as 1 attempt)
    /// makes the result incorrect, never invalid JSON.
    pub fn to_json(&self) -> String {
        let mut correct = self.correct && self.tally.failed == 0 && self.tally.attempted > 0;
        let mut fields = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            let value = if m.value.is_finite() {
                m.value
            } else {
                correct = false;
                0.0
            };
            correct &= valid_name(&m.name);
            fields.push(format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.attempted.max(1),
            self.tally.failed,
            fields.join(", ")
        )
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
