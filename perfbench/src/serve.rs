//! The serve workloads: a `Server` resolving queries through the tiered
//! dispatch of a pre-tuned library.
//!
//! - `serve-hot`: one closed-loop client with one query in flight, Zipf
//!   (s = 1.1) over an 8-key universe of small, interpretable kernels.
//!   Every cached reply is numerically verified, hot keys repeat, and
//!   rounds are separated by in-memory tune drains (the write path).
//! - `serve-wide`: closed-loop bursts of 32 unique paper-scale queries over
//!   12 operator families (9 pre-tuned at two shapes each, 3 never tuned),
//!   served on the worker pool, with no drains. Every query is above the
//!   verification limit, so dispatch never interprets.
//!
//! The seed only draws the queries; the pre-tuned library is fixed.

use crate::clock::Clock;
use crate::report::{Outcome, Tally};
use crate::stats::geomean;
use crate::trace::Recorder;
use crate::{Counts, Digest, PassTimes, RunConfig, Workload};
use perfdojo_core::{Dojo, Target};
use perfdojo_interp::verify_equivalent;
use perfdojo_ir::{fingerprint::fnv1a, validate, Program};
use perfdojo_kernels::KernelInstance;
use perfdojo_library::{
    dispatch_stats, DispatchStats, KernelSig, Library, LibraryBuilder, ServeConfig, ServeQuery,
    ServeReply, ServeSnapshot, Server, Strategy, TuneProgress,
};
use perfdojo_transform::{replay, replay_sequence, Action};
use perfdojo_util::rng::Rng;
use perfdojo_util::zipf::Zipf;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Dispatch numerically verifies a served schedule only at or below this
/// many dynamic op instances (the library's private `VERIFY_WORK_LIMIT`).
pub const VERIFY_WORK_LIMIT: u64 = 2_000_000;

/// Interpreter trials dispatch runs per verified candidate.
const DISPATCH_VERIFY_TRIALS: usize = 2;

/// Trials and seed of the output checks' own interpretation (a seed
/// dispatch never uses: it hashes the tier tag).
const CHECK_TRIALS: usize = 2;
const CHECK_SEED: u64 = 0x5E12_C4EC;

/// Seed of the heuristic pre-tuning build (fixed: the library is set-up,
/// not input).
const PRETUNE_SEED: u64 = 3;

/// Zipf exponent of the `serve-hot` client.
const ZIPF_S: f64 = 1.1;

/// The `serve-hot` universe, hottest first: tuned shapes (exact hits),
/// unseen shapes of tuned operators (nearest or parameterized), and
/// operators never tuned (misses that a drain tunes).
const HOT_UNIVERSE: [(&str, &[usize]); 8] = [
    ("softmax", &[32, 32]),
    ("matmul", &[16, 16, 16]),
    ("softmax", &[48, 32]),
    ("layernorm 1", &[32, 32]),
    ("matmul", &[24, 12, 16]),
    ("rmsnorm", &[32, 32]),
    ("reducemean", &[32, 32]),
    ("relu", &[32, 64]),
];

/// Kernels pre-tuned into the `serve-hot` library.
const HOT_PRETUNED: [(&str, &[usize]); 3] = [
    ("softmax", &[32, 32]),
    ("matmul", &[16, 16, 16]),
    ("layernorm 1", &[32, 32]),
];

/// Kernels pre-tuned into the `serve-wide` library: two paper-scale shapes
/// for each of nine operator families.
const WIDE_PRETUNED: [(&str, &[usize]); 18] = [
    ("add", &[3072, 4096]),
    ("add", &[1024, 8192]),
    ("mul", &[2048, 4096]),
    ("mul", &[6144, 2048]),
    ("relu", &[4096, 4096]),
    ("relu", &[2048, 8192]),
    ("layernorm", &[16384, 1024]),
    ("layernorm", &[4096, 4096]),
    ("softmax", &[24576, 512]),
    ("softmax", &[8192, 1024]),
    ("rmsnorm", &[3072, 4096]),
    ("rmsnorm", &[8192, 2048]),
    ("reducemean", &[4096, 4096]),
    ("reducemean", &[2048, 8192]),
    ("matmul", &[768, 1024, 1024]),
    ("matmul", &[512, 2048, 512]),
    ("batchnorm", &[8, 64, 300, 300]),
    ("batchnorm", &[8, 16, 512, 512]),
];

/// The `serve-wide` shape space: per family, an inclusive range per
/// constructor dimension. The first nine families are pre-tuned; `relu_ffn`,
/// `swiglu` and `bmm` never are, so they always miss.
pub const WIDE_FAMILIES: [(&str, &[(usize, usize)]); 12] = [
    ("add", &[(512, 16384), (512, 8192)]),
    ("mul", &[(512, 16384), (512, 8192)]),
    ("relu", &[(512, 16384), (512, 8192)]),
    ("layernorm", &[(512, 32768), (256, 8192)]),
    ("softmax", &[(512, 32768), (256, 4096)]),
    ("rmsnorm", &[(512, 16384), (256, 8192)]),
    ("reducemean", &[(512, 16384), (256, 8192)]),
    ("matmul", &[(128, 2048), (128, 2048), (128, 2048)]),
    ("batchnorm", &[(1, 16), (3, 128), (32, 512), (32, 512)]),
    ("relu_ffn", &[(1, 16), (8, 128), (28, 224), (28, 224)]),
    ("swiglu", &[(1, 2), (64, 512), (512, 4096), (128, 1024)]),
    ("bmm", &[(2, 64), (32, 512), (32, 512), (32, 512)]),
];

/// Queries `serve-hot` sends per pass in a run of `seconds`: at 15, the
/// 1000+ queries a p99 needs.
fn hot_queries(seconds: u64) -> usize {
    70 * seconds as usize
}

/// Rounds of `serve-hot` (each followed by a drain).
const HOT_ROUNDS: usize = 4;

/// Bursts `serve-wide` sends per pass in a run of `seconds`: at 15, the
/// 1000+ bursts a p99 needs.
pub fn wide_bursts(seconds: u64) -> usize {
    70 * seconds as usize
}

/// PerfLLM episodes per `serve-hot` drain job.
const HOT_DRAIN_EPISODES: usize = 2;

/// The server configuration of a workload: `serve-hot` drains tune its
/// misses with PerfLLM (so the agent is measured on the write path);
/// `serve-wide` never drains.
fn config(workload: Workload) -> ServeConfig {
    match workload {
        Workload::ServeHot => ServeConfig {
            strategy: Strategy::PerfLlm {
                episodes: HOT_DRAIN_EPISODES,
            },
            ..ServeConfig::default()
        },
        _ => ServeConfig::default(),
    }
}

/// Queries per `serve-wide` burst: the server's own batch size.
pub fn wide_burst_size() -> usize {
    ServeConfig::default().batch_size
}

/// A query as the load generator knows it: label and dimensions.
type QuerySpec = (String, Vec<usize>);

/// Draws `serve-wide` queries from the seeded shape space.
pub struct WideGenerator {
    rng: Rng,
}

impl WideGenerator {
    /// A generator for benchmark seed `seed`.
    pub fn new(seed: u64) -> WideGenerator {
        WideGenerator {
            rng: Rng::seed_from_u64(seed ^ 0x5E12_01DE),
        }
    }

    /// The next query: a uniformly drawn family, dimensions drawn in
    /// multiples of their range's granularity, redrawn until the program is
    /// strictly above [`VERIFY_WORK_LIMIT`] (a query just under it would
    /// spend seconds in the interpreter).
    pub fn next_query(&mut self) -> ServeQuery {
        let (label, ranges) =
            WIDE_FAMILIES[self.rng.next_below(WIDE_FAMILIES.len() as u64) as usize];
        loop {
            let dims: Vec<usize> = ranges
                .iter()
                .map(|&(lo, hi)| {
                    let step = if lo >= 256 { 32 } else { 1 };
                    let d = lo + step * self.rng.next_below(((hi - lo) / step + 1) as u64) as usize;
                    d.min(hi)
                })
                .collect();
            let q = ServeQuery::of(label, &dims).expect("family and arity are valid");
            if q.program.dynamic_op_instances() > VERIFY_WORK_LIMIT {
                return q;
            }
        }
    }
}

/// Kernel instances for a pre-tuned list.
fn kernels(list: &[(&str, &[usize])]) -> Vec<KernelInstance> {
    list.iter()
        .map(|(label, dims)| {
            let program =
                perfdojo_kernels::by_label_with_shape(label, dims).expect("valid pre-tuned kernel");
            KernelInstance {
                label: label.to_string(),
                shape: dims
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("x"),
                description: String::from("benchmark pre-tuned"),
                program: program.clone(),
                verify_program: program,
            }
        })
        .collect()
}

/// The set-up of a serve run: pre-tune the seed library with the heuristic
/// strategy (`tune_kernel` per kernel and one keep-best merge, as
/// `LibraryBuilder::build_into` does), round-trip it through the on-disk
/// text format (the daemon's start-from-disk path), and start the server.
///
/// With a recorder (the traced run) every step is a span and the kernels
/// are tuned one by one on this thread; without, they are tuned on the
/// worker pool as `build_into` tunes them.
fn setup(workload: Workload, mut rec: Option<&mut Recorder>) -> Result<Server, String> {
    let list: &[(&str, &[usize])] = if workload == Workload::ServeHot {
        &HOT_PRETUNED
    } else {
        &WIDE_PRETUNED
    };
    let target = Target::x86();
    let builder = LibraryBuilder::new(Strategy::Heuristic, PRETUNE_SEED);
    let kernels = kernels(list);
    let outcomes = match rec.as_deref_mut() {
        Some(rec) => kernels
            .iter()
            .map(|k| rec.leaf("library.tune_job", || builder.tune_kernel(k, &target)))
            .collect(),
        None => perfdojo_util::par::par_map(kernels.iter().collect(), |k| {
            builder.tune_kernel(k, &target)
        }),
    };
    let mut lib = Library::new();
    step(&mut rec, "library.merge", || {
        lib.merge(outcomes.into_iter().filter_map(|o| o.record))
    });
    let text = step(&mut rec, "library.to_text", || lib.to_text());
    let (loaded, stats) =
        step(&mut rec, "library.load", || Library::from_text(&text)).map_err(|e| e.to_string())?;
    if stats.corrupt_entries != 0 || loaded.len() != lib.len() {
        return Err(format!("library reload lost entries: {stats:?}"));
    }
    Ok(step(&mut rec, "serve.new", || {
        Server::new(loaded, target, config(workload))
    }))
}

/// `f()`, as span `name` when there is a recorder.
fn step<R>(rec: &mut Option<&mut Recorder>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(rec) => rec.leaf(name, f),
        None => f(),
    }
}

/// The reporting tag of a dispatch disposition tag.
fn tier_of(disposition_tag: &str) -> &'static str {
    match disposition_tag {
        "exact-hit" => "exact",
        "parameterized" => "parameterized",
        "fallback-replay" => "nearest",
        "fallback-heuristic" => "heuristic",
        _ => "naive",
    }
}

/// Check the reply served for `query` at the snapshot `snap`: re-resolve
/// it there, strict-replay the steps, validate, re-price, and interpret
/// when the query is small enough. `None` when every check passes.
fn check_reply(
    snap: &ServeSnapshot,
    query: &ServeQuery,
    reply: &ServeReply,
    target: &Target,
) -> Option<String> {
    let who = &reply.key;
    let r = snap.library.lookup(&query.program, target);
    if tier_of(r.disposition.tag()) != reply.tier.tag() {
        return Some(format!(
            "{who}: re-resolved as {}, served as {}",
            r.disposition.tag(),
            reply.tier.tag()
        ));
    }
    if r.steps.len() != reply.steps
        || r.cost.to_bits() != reply.cost.to_bits()
        || r.naive_cost.to_bits() != reply.naive_cost.to_bits()
    {
        return Some(format!(
            "{who}: re-resolved schedule differs from the reply"
        ));
    }
    let program = match replay(&query.program, &r.steps) {
        Ok(p) => p,
        Err(e) => return Some(format!("{who}: strict replay failed: {e:?}")),
    };
    if program != r.program {
        return Some(format!(
            "{who}: strict replay does not reproduce the served program"
        ));
    }
    if let Err(e) = validate(&program) {
        return Some(format!("{who}: served program invalid: {e:?}"));
    }
    let price = |p| target.machine.evaluate(p).map(|e| e.seconds);
    let (Ok(cost), Ok(naive)) = (price(&program), price(&query.program)) else {
        return Some(format!("{who}: machine model refused the program"));
    };
    if cost.to_bits() != reply.cost.to_bits() || naive.to_bits() != reply.naive_cost.to_bits() {
        return Some(format!("{who}: re-priced cost differs from the reply"));
    }
    if !(cost.is_finite() && cost <= naive) {
        return Some(format!(
            "{who}: cost {cost:e} is not finite and at most naive {naive:e}"
        ));
    }
    if query.program.dynamic_op_instances() <= VERIFY_WORK_LIMIT
        && !verify_equivalent(&query.program, &program, CHECK_TRIALS, CHECK_SEED).is_equivalent()
    {
        return Some(format!("{who}: served program computes different values"));
    }
    None
}

/// A served reply and the query it answered.
struct Served {
    spec: usize,
    reply: ServeReply,
}

/// Everything one serve run recorded.
#[derive(Default)]
struct Log {
    /// Distinct query specs, indexed by `Served::spec`.
    specs: Vec<QuerySpec>,
    spec_index: BTreeMap<QuerySpec, usize>,
    served: Vec<Served>,
    /// Per-query (serve-hot) or per-burst (serve-wide) latency, seconds
    /// on the run's clock.
    latencies: Vec<f64>,
    /// Sum of the timed segments, seconds on the run's clock.
    wall: f64,
    shed: u64,
    drains: Vec<Result<TuneProgress, String>>,
    snapshots: BTreeMap<u64, Arc<ServeSnapshot>>,
    dispatch: DispatchStats,
}

impl Log {
    fn spec(&mut self, q: &ServeQuery) -> usize {
        let spec = (q.label.clone(), q.dims.clone());
        if let Some(&i) = self.spec_index.get(&spec) {
            return i;
        }
        self.specs.push(spec.clone());
        self.spec_index.insert(spec, self.specs.len() - 1);
        self.specs.len() - 1
    }
}

/// How a run makes the served calls: the traced run wraps them in spans
/// and mirrors their work.
trait Probe {
    /// `Server::submit`; true when admitted.
    fn submit(&mut self, server: &Server, query: ServeQuery) -> bool;
    /// `Server::serve_batch`.
    fn batch(&mut self, server: &Server) -> Vec<ServeReply>;
    /// `Server::drain_tunes`.
    fn drain(&mut self, server: &Server) -> Result<TuneProgress, String>;
    /// After a batch, still inside the timed segment; `admitted[i]` tells
    /// whether `queries[i]` got into the batch (replies follow that order).
    fn after_batch(
        &mut self,
        server: &Server,
        queries: &[(u64, ServeQuery)],
        admitted: &[bool],
        replies: &[ServeReply],
    );
}

/// The untraced run: the calls alone.
struct Plain;

impl Probe for Plain {
    fn submit(&mut self, server: &Server, query: ServeQuery) -> bool {
        server.submit(query).is_ok()
    }
    fn batch(&mut self, server: &Server) -> Vec<ServeReply> {
        server.serve_batch()
    }
    fn drain(&mut self, server: &Server) -> Result<TuneProgress, String> {
        server.drain_tunes()
    }
    fn after_batch(&mut self, _: &Server, _: &[(u64, ServeQuery)], _: &[bool], _: &[ServeReply]) {}
}

/// Submit `queries` (ids with queries), serve them in one batch, and log
/// the replies. Returns the timed segment's duration; copying the queries
/// and logging happen outside it.
fn serve_burst(
    server: &Server,
    queries: Vec<(u64, ServeQuery)>,
    log: &mut Log,
    probe: &mut dyn Probe,
) -> f64 {
    let specs: Vec<usize> = queries.iter().map(|(_, q)| log.spec(q)).collect();
    let owned: Vec<ServeQuery> = queries.iter().map(|(_, q)| q.clone()).collect();
    let t0 = Instant::now();
    let admitted: Vec<bool> = owned.into_iter().map(|q| probe.submit(server, q)).collect();
    let replies = probe.batch(server);
    probe.after_batch(server, &queries, &admitted, &replies);
    let elapsed = t0.elapsed().as_secs_f64();
    log.shed += admitted.iter().filter(|a| !**a).count() as u64;
    let admitted_specs = specs
        .into_iter()
        .zip(&admitted)
        .filter(|(_, a)| **a)
        .map(|(s, _)| s);
    for (spec, reply) in admitted_specs.zip(replies) {
        log.served.push(Served { spec, reply });
    }
    elapsed
}

/// The `serve-hot` key sequence of `total` queries: each key of
/// [`HOT_UNIVERSE`] as often as its Zipf (s = [`ZIPF_S`]) share of `total`
/// (largest remainders rounded up), in an order shuffled by `seed`. Every
/// seed sends the same mix, so the seed moves which query meets which
/// library generation, not how much work a run does.
pub fn hot_deck(seed: u64, total: usize) -> Vec<usize> {
    let zipf = Zipf::new(HOT_UNIVERSE.len(), ZIPF_S);
    let shares: Vec<f64> = (0..zipf.len())
        .map(|k| zipf.mass(k) * total as f64)
        .collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..counts.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (shares[b] - shares[b].floor()).total_cmp(&(shares[a] - shares[a].floor()))
    });
    let short = total - counts.iter().sum::<usize>();
    for &k in by_remainder.iter().take(short) {
        counts[k] += 1;
    }
    let mut deck: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &n)| std::iter::repeat_n(k, n))
        .collect();
    Rng::seed_from_u64(seed ^ 0x5E12_0407).shuffle(&mut deck);
    deck
}

/// Drive the workload's load against `server`, logging every reply and
/// timing each burst and drain on `clock`.
fn drive(cfg: &RunConfig, server: &Server, probe: &mut dyn Probe, clock: &mut Clock) -> Log {
    let mut log = Log::default();
    log.snapshots.insert(0, server.snapshot(0));
    let before = dispatch_stats();
    let mut next_id = 0u64;
    match cfg.workload {
        Workload::ServeHot => {
            let universe: Vec<ServeQuery> = HOT_UNIVERSE
                .iter()
                .map(|(l, d)| ServeQuery::of(l, d).expect("valid universe query"))
                .collect();
            let total = hot_queries(cfg.seconds);
            let mut deck = hot_deck(cfg.seed, total).into_iter();
            for round in 0..HOT_ROUNDS {
                let n = total / HOT_ROUNDS + usize::from(round < total % HOT_ROUNDS);
                for _ in 0..n {
                    let q = universe[deck.next().expect("one key per query")].clone();
                    let dt = clock.scale(serve_burst(server, vec![(next_id, q)], &mut log, probe));
                    next_id += 1;
                    log.latencies.push(dt);
                    log.wall += dt;
                }
                let (drained, dt) = clock.time(|| probe.drain(server));
                log.wall += dt;
                if let Ok(TuneProgress::Swapped { generation, .. }) = &drained {
                    log.snapshots.insert(*generation, server.snapshot(0));
                }
                log.drains.push(drained);
            }
        }
        _ => {
            let mut gen = WideGenerator::new(cfg.seed);
            for _ in 0..wide_bursts(cfg.seconds) {
                let burst: Vec<(u64, ServeQuery)> = (0..wide_burst_size())
                    .map(|_| {
                        next_id += 1;
                        (next_id - 1, gen.next_query())
                    })
                    .collect();
                let dt = clock.scale(serve_burst(server, burst, &mut log, probe));
                log.latencies.push(dt);
                log.wall += dt;
            }
        }
    }
    let after = dispatch_stats();
    log.dispatch = DispatchStats {
        exact_hits: after.exact_hits - before.exact_hits,
        parameterized_hits: after.parameterized_hits - before.parameterized_hits,
        parameterized_rejects: after.parameterized_rejects - before.parameterized_rejects,
        replay_hits: after.replay_hits - before.replay_hits,
        empty_record_skips: after.empty_record_skips - before.empty_record_skips,
        heuristic_serves: after.heuristic_serves - before.heuristic_serves,
        naive_serves: after.naive_serves - before.naive_serves,
    };
    log
}

/// The output-check verdict of every reply of a pass: one check per
/// distinct (generation, query), run on the worker pool. A query answered
/// differently at one generation fails every reply it got.
fn check_replies(log: &Log, target: &Target) -> Vec<Option<String>> {
    let mut distinct: BTreeMap<(u64, usize), &ServeReply> = BTreeMap::new();
    let mut inconsistent = Vec::new();
    for s in &log.served {
        let first = distinct
            .entry((s.reply.generation, s.spec))
            .or_insert(&s.reply);
        if !same_reply(first, &s.reply) {
            inconsistent.push((s.reply.generation, s.spec));
        }
    }
    let work: Vec<((u64, usize), &ServeReply)> = distinct.into_iter().collect();
    let verdicts: BTreeMap<(u64, usize), Option<String>> =
        perfdojo_util::par::par_map(work, |(key, reply)| {
            let verdict = match log.snapshots.get(&key.0) {
                None => Some(format!(
                    "{}: no snapshot saved for generation {}",
                    reply.key, key.0
                )),
                Some(snap) => {
                    let (label, dims) = &log.specs[key.1];
                    let query = ServeQuery::of(label, dims).expect("logged queries are valid");
                    check_reply(snap, &query, reply, target)
                }
            };
            (key, verdict)
        })
        .into_iter()
        .collect();
    log.served
        .iter()
        .map(|s| {
            let key = (s.reply.generation, s.spec);
            if inconsistent.contains(&key) {
                Some(format!(
                    "{}: one query served two different replies at one generation",
                    s.reply.key
                ))
            } else {
                verdicts[&key].clone()
            }
        })
        .collect()
}

/// Two replies serve the same schedule at the same generation.
fn same_reply(a: &ServeReply, b: &ServeReply) -> bool {
    a.key == b.key
        && a.tier == b.tier
        && a.generation == b.generation
        && a.steps == b.steps
        && a.cost.to_bits() == b.cost.to_bits()
        && a.naive_cost.to_bits() == b.naive_cost.to_bits()
}

/// Verdicts of a repeated pass: the first pass's verdict where a reply is
/// the same as the first pass's, a failure where it differs.
fn repeat_verdicts(
    first: &Log,
    first_verdicts: &[Option<String>],
    log: &Log,
) -> Vec<Option<String>> {
    log.served
        .iter()
        .enumerate()
        .map(|(i, s)| match first.served.get(i) {
            Some(f) if same_reply(&f.reply, &s.reply) => first_verdicts[i].clone(),
            _ => Some(format!(
                "{}: reply {i} differs from the first pass",
                s.reply.key
            )),
        })
        .collect()
}

/// Count a pass's ops: each reply with its verdict, each shed query and
/// each drain.
fn tally_pass(log: &Log, verdicts: &[Option<String>], tally: &mut Tally) {
    for v in verdicts {
        tally.record(v.clone());
    }
    for _ in 0..log.shed {
        tally.fail("query shed at admission".into());
    }
    for d in &log.drains {
        tally.record(d.as_ref().err().map(|e| format!("drain failed: {e}")));
    }
}

/// Fold a pass's deterministic facts into `digest`: replies, drain
/// results, tier counts and the final library.
fn digest_pass(log: &Log, digest: &mut Digest) {
    for s in &log.served {
        digest.add(&format!(
            "{}|{}|{}|{:016x}",
            s.reply.key,
            s.reply.tier.tag(),
            s.reply.generation,
            s.reply.cost.to_bits()
        ));
    }
    for d in &log.drains {
        digest.add(&format!("{d:?}"));
    }
    digest.add(&format!("{:?}", log.dispatch));
    if let Some(snap) = log.snapshots.values().last() {
        digest.add(&snap.library.to_text());
    }
}

/// Run a serve workload: [`crate::PASSES`] identical passes, each on a
/// freshly set-up server.
pub fn run(cfg: &RunConfig) -> Outcome {
    if cfg.trace {
        return traced(cfg);
    }
    run_passes(cfg, &mut || setup(cfg.workload, None))
}

/// Measure [`crate::PASSES`] passes, each on a server from `new_server`
/// (the set-up, timed before each pass), and check them: the first pass
/// against the independent reference, the others against the first.
pub fn run_passes(
    cfg: &RunConfig,
    new_server: &mut dyn FnMut() -> Result<Server, String>,
) -> Outcome {
    let mut tally = Tally::default();
    let mut times = PassTimes::default();
    let mut first: Option<(Log, Vec<Option<String>>)> = None;
    for _ in 0..crate::PASSES {
        let (setups, server) = crate::time_setup(&mut *new_server);
        let server = match server {
            Ok(s) => s,
            Err(e) => return failed_setup(e),
        };
        let log = drive(cfg, &server, &mut Plain, &mut Clock::normalized());
        times.push(&setups, log.wall, &log.latencies);
        let verdicts = match &first {
            None => check_replies(&log, server.target()),
            Some((f, fv)) => repeat_verdicts(f, fv, &log),
        };
        tally_pass(&log, &verdicts, &mut tally);
        if first.is_none() {
            first = Some((log, verdicts));
        }
    }
    let (log, _) = first.expect("at least one pass");
    let mut digest = Digest::default();
    digest_pass(&log, &mut digest);
    let speedups: Vec<f64> = log
        .served
        .iter()
        .map(|s| s.reply.naive_cost / s.reply.cost)
        .collect();
    let geo = geomean(&speedups);
    digest.add(&format!("{:016x}", geo.to_bits()));
    let (metrics, percentiles_ok) = times.end_to_end(log.served.len(), geo);
    Outcome {
        correct: percentiles_ok,
        tally,
        digest: digest.hex(),
        metrics,
    }
}

fn failed_setup(e: String) -> Outcome {
    let mut tally = Tally::default();
    tally.fail(format!("set-up failed: {e}"));
    Outcome {
        correct: false,
        tally,
        digest: String::new(),
        metrics: Vec::new(),
    }
}

/// What the dispatch mirror resolved for one query.
#[derive(Clone, Debug, PartialEq)]
struct Mirrored {
    /// Reporting tier tag (`exact`, `parameterized`, …).
    tier: &'static str,
    /// Served cost.
    cost: f64,
    /// Steps served.
    steps: usize,
}

/// Price `p` on `target` as `Machine::evaluate` does (lower, then cost
/// the lowered kernel), timing both calls.
fn price(rec: &mut Recorder, target: &Target, p: &Program) -> Option<f64> {
    rec.span("machine.evaluate", |rec| {
        let lowered = rec
            .leaf("codegen.lower", || perfdojo_codegen::lower(p))
            .ok()?;
        target
            .machine
            .evaluate_lowered(&lowered)
            .ok()
            .map(|e| e.seconds)
    })
}

/// The acceptance checks of dispatch, stage by stage.
fn mirror_accept(
    rec: &mut Recorder,
    tag: &'static str,
    steps: usize,
    program: &Program,
    query: &Program,
    target: &Target,
    naive: f64,
) -> Option<Mirrored> {
    rec.leaf("ir.validate", || validate(program)).ok()?;
    let cost = price(rec, target, program)?;
    if !cost.is_finite() || cost > naive {
        return None;
    }
    if query.dynamic_op_instances() <= VERIFY_WORK_LIMIT {
        let seed = fnv1a(tag.as_bytes());
        let ok = rec.leaf("interp.verify", || {
            verify_equivalent(query, program, DISPATCH_VERIFY_TRIALS, seed).is_equivalent()
        });
        if !ok {
            return None;
        }
    }
    Some(Mirrored {
        tier: tier_of(tag),
        cost,
        steps,
    })
}

/// Steps of `steps` that a lenient replay did not skip.
fn applied(steps: &[Action], skipped: &[usize]) -> Vec<Action> {
    steps
        .iter()
        .enumerate()
        .filter(|(i, _)| !skipped.contains(i))
        .map(|(_, a)| a.clone())
        .collect()
}

/// `Library::lookup`, re-driven stage by stage through public calls:
/// signature → exact get → family fit → nearest → replay → validate →
/// evaluate → verify → heuristic pass → naive.
fn mirror_lookup(rec: &mut Recorder, lib: &Library, query: &Program, target: &Target) -> Mirrored {
    rec.span("library.lookup", |rec| {
        let sig = rec.leaf("library.sig", || KernelSig::of(query, &target.name));
        let naive = price(rec, target, query).unwrap_or(f64::INFINITY);
        if let Some(m) = mirror_cached(rec, lib, &sig, query, target) {
            return m;
        }
        if let Ok(mut dojo) = rec.leaf("core.dojo_new", || Dojo::for_target(query.clone(), target))
        {
            let cost = rec.leaf("search.heuristic_pass", || {
                perfdojo_search::heuristic_pass(&mut dojo)
            });
            let steps = dojo.history.steps.len();
            if steps > 0 && cost < naive {
                if let Some(m) = mirror_accept(
                    rec,
                    "fallback-heuristic",
                    steps,
                    dojo.current(),
                    query,
                    target,
                    naive,
                ) {
                    return m;
                }
            }
        }
        Mirrored {
            tier: "naive",
            cost: naive,
            steps: 0,
        }
    })
}

/// `Library::lookup_cached`, stage by stage.
fn mirror_cached(
    rec: &mut Recorder,
    lib: &Library,
    sig: &KernelSig,
    query: &Program,
    target: &Target,
) -> Option<Mirrored> {
    let naive = price(rec, target, query).unwrap_or(f64::INFINITY);
    if let Some(r) = rec.leaf("library.get", || lib.get(sig)) {
        if let Ok(p) = rec.leaf("transform.replay", || replay(query, &r.steps)) {
            if let Some(m) =
                mirror_accept(rec, "exact-hit", r.steps.len(), &p, query, target, naive)
            {
                return Some(m);
            }
        }
    }
    if let Some(ps) = rec.leaf("library.transfer_fit", || {
        perfdojo_library::fit_for(lib, sig)
    }) {
        let steps = rec.leaf("library.materialize", || ps.materialize(&sig.shape));
        let rep = rec.leaf("transform.replay", || replay_sequence(query, &steps));
        let kept = applied(&steps, &rep.skipped);
        if !kept.is_empty() {
            if let Some(m) = mirror_accept(
                rec,
                "parameterized",
                kept.len(),
                &rep.program,
                query,
                target,
                naive,
            ) {
                return Some(m);
            }
        }
    }
    if let Some((r, _)) = rec.leaf("library.nearest", || lib.nearest(sig)) {
        if !r.steps.is_empty() {
            let rep = rec.leaf("transform.replay", || replay_sequence(query, &r.steps));
            if rep.skipped.len() < r.steps.len() {
                let kept = applied(&r.steps, &rep.skipped).len();
                if let Some(m) = mirror_accept(
                    rec,
                    "fallback-replay",
                    kept,
                    &rep.program,
                    query,
                    target,
                    naive,
                ) {
                    return Some(m);
                }
            }
        }
    }
    None
}

/// The traced run's hooks: spans around the served calls, the fan-out
/// probe, the dispatch mirror of every reply, and the tune mirror of every
/// drained job.
struct Traced {
    rec: Recorder,
    mismatches: Vec<String>,
    /// The server's tune-miss queue as the replies imply it: keys ever
    /// queued and not forgotten, and the jobs waiting for the next drain.
    seen: std::collections::BTreeSet<String>,
    pending: Vec<ServeQuery>,
    /// Mirrored drain jobs.
    jobs: Vec<crate::tune::MirrorJob>,
}

impl Traced {
    /// Mirror the jobs a drain just ran, from the snapshot it started on,
    /// and compare with what it published.
    fn mirror_drain(
        &mut self,
        server: &Server,
        before: &ServeSnapshot,
        drained: &Result<TuneProgress, String>,
    ) {
        let jobs = std::mem::take(&mut self.pending);
        let cfg = config(Workload::ServeHot);
        let builder = LibraryBuilder::new(cfg.strategy, cfg.seed).with_warm_from(&before.library);
        let after = server.snapshot(0);
        let mut tuned = 0;
        for q in &jobs {
            let kernel = KernelInstance {
                label: q.label.clone(),
                shape: q
                    .dims
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("x"),
                description: String::from("serve tune-miss"),
                program: q.program.clone(),
                verify_program: q.program.clone(),
            };
            let job = crate::tune::mirror_job(&mut self.rec, &builder, &kernel, server.target());
            let key = q.key(server.target());
            match &job.outcome.record {
                Some(r) => {
                    tuned += 1;
                    let published = after.library.get(&r.sig);
                    if published
                        .is_none_or(|p| p.cost.to_bits() != r.cost.to_bits() || p.steps != r.steps)
                    {
                        self.mismatches.push(format!(
                            "{key}: drain mirror record differs from the published one"
                        ));
                    }
                }
                None => {
                    self.seen.remove(&key);
                }
            }
            self.jobs.push(job);
        }
        let expected = match jobs.len() {
            0 => TuneProgress::Idle,
            n => TuneProgress::Swapped {
                generation: before.generation + 1,
                tuned,
                unimproved: n - tuned,
            },
        };
        if drained.as_ref() != Ok(&expected) {
            self.mismatches.push(format!(
                "drain mirror expected {expected:?}, drain returned {drained:?}"
            ));
        }
    }
}

impl Probe for Traced {
    fn submit(&mut self, server: &Server, query: ServeQuery) -> bool {
        self.rec
            .leaf("serve.submit", || server.submit(query).is_ok())
    }
    fn batch(&mut self, server: &Server) -> Vec<ServeReply> {
        self.rec.leaf("serve.batch", || server.serve_batch())
    }
    fn drain(&mut self, server: &Server) -> Result<TuneProgress, String> {
        let before = server.snapshot(0);
        let drained = self.rec.leaf("serve.drain", || server.drain_tunes());
        self.mirror_drain(server, &before, &drained);
        drained
    }
    fn after_batch(
        &mut self,
        server: &Server,
        queries: &[(u64, ServeQuery)],
        admitted: &[bool],
        replies: &[ServeReply],
    ) {
        let n = replies.len();
        self.rec.leaf("util.par_fanout", || {
            black_box(perfdojo_util::par::par_map(vec![(); n], |x| x))
        });
        let snap = server.snapshot(0);
        let served = queries
            .iter()
            .zip(admitted)
            .filter(|(_, a)| **a)
            .map(|(q, _)| q);
        for ((id, q), reply) in served.zip(replies) {
            self.rec.set_request(*id);
            let m = mirror_lookup(&mut self.rec, &snap.library, &q.program, server.target());
            let same = snap.generation == reply.generation
                && m.tier == reply.tier.tag()
                && m.cost.to_bits() == reply.cost.to_bits()
                && m.steps == reply.steps;
            if !same {
                self.mismatches.push(format!(
                    "{}: mirror {m:?}, reply {} {:e} {}",
                    reply.key,
                    reply.tier.tag(),
                    reply.cost,
                    reply.steps
                ));
            }
            if reply.tier.is_miss() && self.seen.insert(reply.key.clone()) {
                self.pending.push(q.clone());
            }
        }
    }
}

/// The traced run: set up once with spans, serve with spans around every
/// served call and the dispatch mirror after every batch, then check.
fn traced(cfg: &RunConfig) -> Outcome {
    let mut rec = Recorder::new(Instant::now());
    let server = match setup(cfg.workload, Some(&mut rec)) {
        Ok(s) => s,
        Err(e) => return failed_setup(e),
    };

    let first = rec.spans().len();
    let mut probe = Traced {
        rec,
        mismatches: Vec::new(),
        seen: Default::default(),
        pending: Vec::new(),
        jobs: Vec::new(),
    };
    let log = drive(cfg, &server, &mut probe, &mut Clock::raw());
    let Traced {
        rec,
        mismatches,
        jobs,
        ..
    } = probe;
    let real: f64 = ["serve.submit", "serve.batch", "serve.drain"]
        .iter()
        .map(|n| {
            rec.spans()[first..]
                .iter()
                .filter(|s| s.name == *n)
                .map(|s| s.nanos() as f64 * 1e-9)
                .sum::<f64>()
        })
        .sum();
    let summary = crate::trace_summary(&rec, first, log.wall, 1, real);

    let mut tally = Tally::default();
    tally_pass(&log, &check_replies(&log, server.target()), &mut tally);
    for m in mismatches.iter().take(10) {
        eprintln!("mirror differs: {m}");
    }
    if !mismatches.is_empty() {
        tally.fail(format!(
            "traced mirrors differed {} times",
            mismatches.len()
        ));
    }
    let (mut swaps, mut tuned, mut unimproved) = (0, 0, 0);
    for d in &log.drains {
        if let Ok(TuneProgress::Swapped {
            tuned: t,
            unimproved: u,
            ..
        }) = d
        {
            swaps += 1;
            tuned += *t as u64;
            unimproved += *u as u64;
        }
    }
    let sum = |f: fn(&crate::tune::MirrorJob) -> u64| jobs.iter().map(f).sum::<u64>();
    let counts = Counts {
        evaluations: sum(|j| j.outcome.evaluations),
        cache_hits: sum(|j| j.hits),
        cache_misses: sum(|j| j.misses),
        env_steps: sum(|j| j.env_steps),
        dispatch: log.dispatch,
        swaps,
        drain_tuned: tuned,
        drain_unimproved: unimproved,
        shed: log.shed,
        ..Counts::default()
    };
    let mut metrics = crate::layer_metrics(&rec, &counts);
    metrics.extend(summary);
    crate::finish_trace(cfg, &rec, tally, metrics)
}
