//! Seeded end-to-end benchmark of the PerfDojo library.
//!
//! Three workloads drive the library's public entry points from one
//! process: `tune-anneal` builds a schedule library with `LibraryBuilder`
//! (simulated annealing); `serve-hot` and `serve-wide` serve schedules
//! through `Server` (hot repeated keys with PerfLLM tune drains, wide
//! unique shapes in bursts). Every run checks its outputs
//! against an independent reference outside the timed phase. A traced run
//! re-drives the same work through the layers' public functions one call
//! at a time and reports per-layer numbers. See `NOTES.md` beside this
//! crate for the workloads, the metrics and how to run them.

pub mod clock;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod tune;

use report::{Metric, Outcome, Tally};
use stats::per_call;
use std::time::Instant;
use trace::Recorder;

/// The timed phase runs this many identical passes. `wall_s` is the
/// median pass, and an item's (job's, query's or burst's) latency is its
/// mean over the passes, so no one pass, and no one spell of a slower
/// host, sets a number.
pub const PASSES: usize = 3;

/// Before each pass the set-up is repeated for at least this long, and at
/// least [`SETUP_MIN_REPEATS`] times, each set-up timed on its own at the
/// reference speed (see [`clock`]); `setup_s` is the median of all the
/// set-ups of the run, so neither the first, cold one nor a slow spell
/// sets it.
pub const SETUP_BLOCK_S: f64 = 0.1;

/// See [`SETUP_BLOCK_S`].
pub const SETUP_MIN_REPEATS: usize = 5;

/// Time one block of set-ups (see [`SETUP_BLOCK_S`]). Returns the seconds
/// of each set-up and the last set-up's result.
pub fn time_setup<T>(mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut clock = clock::Clock::normalized();
    let t0 = Instant::now();
    let mut seconds = Vec::new();
    loop {
        let (value, s) = clock.time(|| std::hint::black_box(setup()));
        seconds.push(s);
        if seconds.len() >= SETUP_MIN_REPEATS && t0.elapsed().as_secs_f64() >= SETUP_BLOCK_S {
            return (seconds, value);
        }
    }
}

/// What the identical passes of an untraced run timed.
#[derive(Clone, Debug, Default)]
pub struct PassTimes {
    /// Every set-up's time, seconds.
    setups: Vec<f64>,
    /// Each pass's timed phase, seconds.
    walls: Vec<f64>,
    /// Each pass's latency per item (job, query or burst), seconds, in the
    /// same item order in every pass.
    items: Vec<Vec<f64>>,
    /// `VmHWM` right after the first pass, MB: the peak of the set-ups and
    /// one pass of load. Later passes repeat the set-up in the same process
    /// and add only allocator fragmentation, which varied by 2 MB from run
    /// to run (see `NOTES.md`).
    peak_rss_mb: f64,
}

impl PassTimes {
    /// Add one pass: the set-ups before it, its wall and its items.
    pub fn push(&mut self, setups: &[f64], wall: f64, items: &[f64]) {
        if self.walls.is_empty() {
            self.peak_rss_mb = report::peak_rss_mb();
        }
        self.setups.extend_from_slice(setups);
        self.walls.push(wall);
        self.items.push(items.to_vec());
    }

    /// Each item's mean latency over the passes, milliseconds.
    pub fn item_means_ms(&self) -> Vec<f64> {
        let n = self.items.iter().map(Vec::len).min().unwrap_or(0);
        (0..n)
            .map(|i| {
                let sum: f64 = self.items.iter().map(|pass| pass[i]).sum();
                sum / self.items.len() as f64 * 1e3
            })
            .collect()
    }

    /// The end-to-end metrics of a run whose passes each completed
    /// `ops_per_pass` ops, and whether both latency percentiles had the
    /// samples they need.
    pub fn end_to_end(&self, ops_per_pass: usize, speedup_geomean: f64) -> (Vec<Metric>, bool) {
        let wall = stats::median(&self.walls).unwrap_or(0.0);
        eprintln!(
            "pass walls {:?} s; {} set-ups, fastest {:?} s",
            self.walls,
            self.setups.len(),
            self.setups.iter().copied().reduce(f64::min)
        );
        let ms = self.item_means_ms();
        let (p50, p99) = (stats::percentile(&ms, 0.5), stats::percentile(&ms, 0.99));
        if p99.is_none() {
            eprintln!("{} latency samples are too few for a p99", ms.len());
        }
        let metrics = vec![
            Metric::new("setup_s", "s", stats::median(&self.setups).unwrap_or(0.0)),
            Metric::new("wall_s", "s", wall),
            Metric::new("ops_per_s", "1/s", ops_per_pass as f64 / wall),
            Metric::new("lat_p50_ms", "ms", p50.unwrap_or(0.0)),
            Metric::new("lat_p99_ms", "ms", p99.unwrap_or(0.0)),
            Metric::new("model_speedup_geomean", "x", speedup_geomean),
            Metric::new("peak_rss_mb", "MB", self.peak_rss_mb),
        ];
        (metrics, p50.is_some() && p99.is_some())
    }
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `anneal:<budget>` build over 16 kernels × {x86, gh200, snitch}.
    TuneAnneal,
    /// One-in-flight Zipf client over an 8-key interpretable universe.
    ServeHot,
    /// Bursts of unique paper-scale queries over 12 operator families.
    ServeWide,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::TuneAnneal,
        Workload::ServeHot,
        Workload::ServeWide,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TuneAnneal => "tune-anneal",
            Workload::ServeHot => "serve-hot",
            Workload::ServeWide => "serve-wide",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Nominal run length; the amount of work is derived from it (never
    /// from the clock), so one seed always does the same work.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl RunConfig {
    /// Parse `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<RunConfig, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(value).ok_or_else(|| {
                        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {value}; one of {}", names.join(", "))
                    })?)
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(RunConfig {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Run one workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    match cfg.workload {
        Workload::TuneAnneal => tune::run(cfg),
        Workload::ServeHot | Workload::ServeWide => serve::run(cfg),
    }
}

/// Order-sensitive FNV-1a digest of a run's deterministic facts (tier
/// counts, evaluations, drain results, library text, speedup bits): two
/// runs with one seed must print the same digest.
#[derive(Clone, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold `s` (and a separator) into the digest.
    pub fn add(&mut self, s: &str) {
        for b in s.bytes().chain(std::iter::once(0xff)) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Counters a traced run takes from the program (not from spans).
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Machine-model evaluations, summed over jobs.
    pub evaluations: u64,
    /// Cost-cache hits and misses, summed over jobs.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// SA proposals evaluated and accepted.
    pub sa_proposals: u64,
    /// See `sa_proposals`.
    pub sa_accepts: u64,
    /// PerfLLM environment steps.
    pub env_steps: u64,
    /// `dispatch_stats()` delta over the served phase.
    pub dispatch: perfdojo_library::DispatchStats,
    /// Drains that swapped, and their tuned / unimproved jobs.
    pub swaps: u64,
    /// See `swaps`.
    pub drain_tuned: u64,
    /// See `swaps`.
    pub drain_unimproved: u64,
    /// Queries shed at admission.
    pub shed: u64,
}

/// Timed calls: (metric, span name, unit scale, unit).
const CALLS: [(&str, &str, f64, &str); 23] = [
    ("ir.fingerprint_us", "ir.fingerprint", 1e6, "us"),
    ("ir.arena_build_us", "ir.arena_build", 1e6, "us"),
    ("ir.validate_us", "ir.validate", 1e6, "us"),
    ("transform.actions_us", "transform.actions", 1e6, "us"),
    ("transform.replay_us", "transform.replay", 1e6, "us"),
    ("codegen.lower_us", "codegen.lower", 1e6, "us"),
    ("machine.evaluate_us", "machine.evaluate", 1e6, "us"),
    ("interp.verify_ms", "interp.verify", 1e3, "ms"),
    ("search.sa_iter_us", "search.sa_iter", 1e6, "us"),
    (
        "search.heuristic_pass_ms",
        "search.heuristic_pass",
        1e3,
        "ms",
    ),
    ("library.tune_job_ms", "library.tune_job", 1e3, "ms"),
    ("library.merge_ms", "library.merge", 1e3, "ms"),
    ("library.load_ms", "library.load", 1e3, "ms"),
    ("library.sig_us", "library.sig", 1e6, "us"),
    ("library.transfer_fit_us", "library.transfer_fit", 1e6, "us"),
    ("serve.submit_us", "serve.submit", 1e6, "us"),
    ("serve.batch_ms", "serve.batch", 1e3, "ms"),
    ("serve.drain_ms", "serve.drain", 1e3, "ms"),
    ("util.par_fanout_us", "util.par_fanout", 1e6, "us"),
    ("rl.episode_ms", "rl.episode", 1e3, "ms"),
    ("rl.embed_us", "rl.embed", 1e6, "us"),
    ("rl.q_values_us", "rl.q_values", 1e6, "us"),
    ("rl.train_step_us", "rl.train_step", 1e6, "us"),
];

/// Every per-layer metric of a traced run, in report order: counters,
/// per-call timings, then count / self time / p50 per layer.
pub fn layer_metrics(rec: &Recorder, c: &Counts) -> Vec<Metric> {
    let m = Metric::new;
    let d = &c.dispatch;
    let mut out = vec![
        m("core.evaluations", "count", c.evaluations as f64),
        m(
            "core.cache_hit_ratio",
            "ratio",
            stats::ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
        ),
        m(
            "interp.verify_calls",
            "count",
            rec.durations("interp.verify").len() as f64,
        ),
        m(
            "search.sa_accept_ratio",
            "ratio",
            stats::ratio(c.sa_accepts as f64, c.sa_proposals as f64),
        ),
        m("library.tier.exact", "count", d.exact_hits as f64),
        m(
            "library.tier.parameterized",
            "count",
            d.parameterized_hits as f64,
        ),
        m("library.tier.nearest", "count", d.replay_hits as f64),
        m("library.tier.heuristic", "count", d.heuristic_serves as f64),
        m("library.tier.naive", "count", d.naive_serves as f64),
        m(
            "library.parameterized_accept_ratio",
            "ratio",
            stats::ratio(
                d.parameterized_hits as f64,
                (d.parameterized_hits + d.parameterized_rejects) as f64,
            ),
        ),
        m(
            "serve.drain_useful_ratio",
            "ratio",
            stats::ratio(
                c.drain_tuned as f64,
                (c.drain_tuned + c.drain_unimproved) as f64,
            ),
        ),
        m("serve.swaps", "count", c.swaps as f64),
        m("serve.shed", "count", c.shed as f64),
        m("rl.env_steps", "count", c.env_steps as f64),
    ];
    for (name, span, scale, unit) in CALLS {
        out.push(m(name, unit, per_call(&rec.durations(span)) * scale));
    }
    for row in rec.layer_table() {
        out.push(m(
            &format!("{}.spans", row.layer),
            "count",
            row.count as f64,
        ));
        out.push(m(&format!("{}.self_ms", row.layer), "ms", row.self_s * 1e3));
        out.push(m(&format!("{}.p50_us", row.layer), "us", row.p50_s * 1e6));
    }
    out
}

/// The traced phase's wall, its span coverage and the tracing overhead.
///
/// Coverage is the self time of the phase's spans (every span recorded
/// from index `first` on) over `wall × workers`, the thread time the phase
/// had. Overhead is the traced wall minus `untraced_wall`, the wall of the
/// same work without spans, measured in the same process.
pub fn trace_summary(
    rec: &Recorder,
    first: usize,
    wall: f64,
    workers: usize,
    untraced_wall: f64,
) -> Vec<Metric> {
    let covered: f64 = rec.spans()[first..]
        .iter()
        .filter(|s| s.parent.is_none_or(|p| p < first))
        .map(|s| s.nanos() as f64 * 1e-9)
        .sum();
    vec![
        Metric::new("trace.wall_s", "s", wall),
        Metric::new(
            "trace.coverage",
            "ratio",
            stats::ratio(covered, wall * workers as f64),
        ),
        Metric::new("trace.overhead_s", "s", wall - untraced_wall),
    ]
}

/// A traced run must attribute at least this share of its traced wall to
/// layer spans.
pub const MIN_COVERAGE: f64 = 0.9;

/// Whether a traced run's spans are sound: every span belongs to a known
/// layer and `trace.coverage` (see [`trace_summary`]) is at least
/// [`MIN_COVERAGE`].
pub fn trace_verdict(rec: &Recorder, metrics: &[Metric]) -> bool {
    rec.unknown_layers().is_empty() && coverage(metrics) >= MIN_COVERAGE
}

/// The `trace.coverage` value among `metrics`, 0 when absent.
fn coverage(metrics: &[Metric]) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == "trace.coverage")
        .map_or(0.0, |m| m.value)
}

/// Finish a traced run: write the spans, print the layer table, and
/// assemble the outcome.
pub fn finish_trace(
    cfg: &RunConfig,
    rec: &Recorder,
    tally: Tally,
    metrics: Vec<Metric>,
) -> Outcome {
    let path = std::path::PathBuf::from(".perfbench_out").join(format!(
        "{}-seed{}.spans.tsv",
        cfg.workload.name(),
        cfg.seed
    ));
    if let Err(e) = rec.write_tsv(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
    eprintln!(
        "{:<10} {:>9} {:>12} {:>12}",
        "layer", "spans", "self_ms", "p50_us"
    );
    for row in rec.layer_table() {
        eprintln!(
            "{:<10} {:>9} {:>12.3} {:>12.3}",
            row.layer,
            row.count,
            row.self_s * 1e3,
            row.p50_s * 1e6
        );
    }
    let unknown = rec.unknown_layers();
    if !unknown.is_empty() {
        eprintln!("spans outside the known layers: {unknown:?}");
    }
    let coverage = coverage(&metrics);
    eprintln!(
        "coverage {coverage:.4}{}",
        if coverage < MIN_COVERAGE {
            " (below the required minimum)"
        } else {
            ""
        }
    );
    Outcome {
        correct: trace_verdict(rec, &metrics),
        tally,
        digest: String::new(),
        metrics,
    }
}
