//! The tune workload `tune-anneal`: a `LibraryBuilder` `anneal:<budget>`
//! build over a grid of the 16 tune-suite operators, each at
//! [`SHAPES_PER_KERNEL`] scaled medium shapes, on x86, gh200 and snitch
//! (1008 jobs on the worker pool), the path `perfdojo-lib build` takes. The
//! evaluation stack does nearly all the work, and all three cost models are
//! priced.
//!
//! The seed is the builder's search seed; the grid is fixed, so seeds
//! differ in the search trajectories, not in the programs tuned.
//!
//! The traced mirror of a tune job ([`mirror_job`]) also serves the
//! `serve-hot` drains, whose jobs run PerfLLM.

use crate::clock::Clock;
use crate::report::{Outcome, Tally};
use crate::stats::geomean;
use crate::trace::Recorder;
use crate::{Counts, Digest, PassTimes, RunConfig};
use perfdojo_core::{Dojo, Target};
use perfdojo_interp::verify_equivalent;
use perfdojo_ir::{exact_fp128, validate, Arena};
use perfdojo_kernels::KernelInstance;
use perfdojo_library::{
    current_model_version, KernelSig, Library, LibraryBuilder, Provenance, ScheduleRecord,
    Strategy, TuneOutcome,
};
use perfdojo_search::{anneal_resume, AnnealProgress, AnnealState, HeuristicSpace};
use perfdojo_transform::{available_actions, replay, Action};
use perfdojo_util::trace::TraceSink;
use std::hint::black_box;
use std::time::Instant;

/// Targets of `tune-anneal`: one CPU, one GPU and the Snitch cluster, so
/// every cost model is priced.
const ANNEAL_TARGETS: [&str; 3] = ["x86", "gh200", "snitch"];

/// Shapes per tune-suite operator: 1008 jobs per pass, the 1000+ jobs a
/// p99 needs.
pub const SHAPES_PER_KERNEL: usize = FIRST_SCALES.len() * OTHER_SCALES.len();

/// Scale factors (numerator, denominator) of the grid's shapes: shape `i`
/// of an operator scales its first tune-suite dimension of at least 8 by
/// `FIRST_SCALES[i % 7]` and its other dimensions of at least 8 by
/// `OTHER_SCALES[i / 7]`, rounded to the nearest integer. Every operator
/// has two such dimensions, the smallest being 12, so the 21 shapes are
/// distinct; smaller dimensions (batch, channels, filter size) stay as
/// they are.
const FIRST_SCALES: [(usize, usize); 7] = [(1, 2), (2, 3), (5, 6), (1, 1), (7, 6), (4, 3), (3, 2)];

/// See [`FIRST_SCALES`].
const OTHER_SCALES: [(usize, usize); 3] = [(3, 4), (1, 1), (5, 4)];

/// SA evaluation budget per job for a run of `seconds`.
fn anneal_budget(seconds: u64) -> u64 {
    20 * seconds
}

/// Interpreter trials and seed of the output checks. The seed differs from
/// the ones dispatch (hash of the tier tag) and the Dojo (`0xD0`) use, so
/// the check draws its own random inputs.
const CHECK_TRIALS: usize = 2;
const CHECK_SEED: u64 = 0xC4EC_5EED;

/// In a traced anneal job, every this many SA iterations the current state
/// is also timed through the evaluation stack's public calls.
const PROBE_EVERY: u64 = 32;

/// The set-up of a tune run: the kernel grid and its targets.
struct Grid {
    /// Kernels, in grid order.
    kernels: Vec<KernelInstance>,
    /// Targets, in grid order.
    targets: Vec<Target>,
}

/// Build the grid: every tune-suite operator at [`SHAPES_PER_KERNEL`]
/// scaled shapes, on every [`ANNEAL_TARGETS`] target.
fn grid() -> Grid {
    let mut kernels = Vec::new();
    for k in perfdojo_kernels::tune_suite() {
        let base: Vec<usize> = k
            .shape
            .split('x')
            .map(|d| d.parse().expect("numeric shape"))
            .collect();
        for i in 0..SHAPES_PER_KERNEL {
            let mut scales = std::iter::once(FIRST_SCALES[i % FIRST_SCALES.len()])
                .chain(std::iter::repeat(OTHER_SCALES[i / FIRST_SCALES.len()]));
            let dims: Vec<usize> = base
                .iter()
                .map(|&d| match d {
                    0..8 => d,
                    _ => {
                        let (num, den) = scales.next().expect("endless scales");
                        (d * num + den / 2) / den
                    }
                })
                .collect();
            let program =
                perfdojo_kernels::by_label_with_shape(&k.label, &dims).expect("suite operator");
            let shape = dims
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("x");
            // a label per instance: the builder derives each job's search
            // seed from label and target, so shapes get independent searches
            kernels.push(KernelInstance {
                label: format!("{}@{shape}", k.label),
                shape,
                description: k.description.clone(),
                program: program.clone(),
                verify_program: program,
            });
        }
    }
    Grid {
        kernels,
        targets: ANNEAL_TARGETS
            .iter()
            .map(|t| perfdojo_library::target_by_name(t).expect("known target"))
            .collect(),
    }
}

/// The labels of the grid's kernel instances, in grid order.
pub fn grid_labels() -> Vec<String> {
    grid().kernels.into_iter().map(|k| k.label).collect()
}

/// The builder of a run of `seconds` with benchmark seed `seed`.
fn builder(seed: u64, seconds: u64) -> LibraryBuilder {
    LibraryBuilder::new(
        Strategy::Anneal {
            budget: anneal_budget(seconds),
        },
        builder_seed(seed),
    )
}

/// The builder's global seed for a benchmark seed (mixed, so nearby seeds
/// give unrelated job seeds).
fn builder_seed(seed: u64) -> u64 {
    let mut s = seed ^ 0x7E57_B0A7;
    perfdojo_util::rng::splitmix64(&mut s)
}

/// Jobs in grid order (kernels major, targets minor), as `build_into` runs them.
fn jobs(g: &Grid) -> Vec<(&KernelInstance, &Target)> {
    g.kernels
        .iter()
        .flat_map(|k| g.targets.iter().map(move |t| (k, t)))
        .collect()
}

/// Check one tune outcome against an independent reference. `None` when
/// it passes; a job with no record passes (nothing was served).
pub fn check_outcome(o: &TuneOutcome, kernel: &KernelInstance, target: &Target) -> Option<String> {
    if let Some(e) = &o.error {
        return Some(format!("{}|{}: tune error: {e}", o.label, o.target));
    }
    o.record
        .as_ref()
        .and_then(|rec| check_record(rec, kernel, target))
}

/// Check a tuned record: it strict-replays on its kernel, the result
/// validates, re-prices bit-identically, is finite and cheaper than naive,
/// and computes the same values as the untransformed kernel.
fn check_record(rec: &ScheduleRecord, kernel: &KernelInstance, target: &Target) -> Option<String> {
    let who = format!("{}|{}", rec.label, target.name);
    if rec.sig != KernelSig::of(&kernel.program, &target.name) {
        return Some(format!("{who}: record signature is not the kernel's"));
    }
    let program = match replay(&kernel.program, &rec.steps) {
        Ok(p) => p,
        Err(e) => return Some(format!("{who}: strict replay failed: {e:?}")),
    };
    if let Err(e) = validate(&program) {
        return Some(format!("{who}: replayed program invalid: {e:?}"));
    }
    let price = |p| target.machine.evaluate(p).map(|e| e.seconds);
    let (Ok(cost), Ok(naive)) = (price(&program), price(&kernel.program)) else {
        return Some(format!("{who}: machine model refused the program"));
    };
    if cost.to_bits() != rec.cost.to_bits() || naive.to_bits() != rec.naive_cost.to_bits() {
        return Some(format!(
            "{who}: re-priced cost {cost:e}/{naive:e} differs from recorded {:e}/{:e}",
            rec.cost, rec.naive_cost
        ));
    }
    if !(cost.is_finite() && cost < naive) {
        return Some(format!(
            "{who}: cost {cost:e} is not finite and below naive {naive:e}"
        ));
    }
    if !verify_equivalent(&kernel.program, &program, CHECK_TRIALS, CHECK_SEED).is_equivalent() {
        return Some(format!("{who}: tuned program computes different values"));
    }
    None
}

/// One build of the grid.
struct Build {
    library: Library,
    outcomes: Vec<TuneOutcome>,
    /// Seconds each job's `tune_kernel` took at the reference speed (see
    /// [`crate::clock`]), in grid order.
    job_times: Vec<f64>,
    /// Seconds the whole build took at the reference speed.
    wall: f64,
    /// Seconds the whole build took.
    raw_wall: f64,
}

/// Build the grid as `LibraryBuilder::build_into` does — `tune_kernel` for
/// every job on the worker pool (or, with `pool` false, job by job on this
/// thread), then one keep-best merge — calling the two steps directly so
/// each job can be timed.
fn build(builder: &LibraryBuilder, g: &Grid, pool: bool) -> Build {
    let t0 = Instant::now();
    let job = |(k, t)| {
        let t1 = Instant::now();
        let outcome = builder.tune_kernel(k, t);
        let raw = t1.elapsed().as_secs_f64();
        (outcome, raw, Clock::normalized().scale(raw))
    };
    let timed: Vec<(TuneOutcome, f64, f64)> = if pool {
        perfdojo_util::par::par_map(jobs(g), job)
    } else {
        jobs(g).into_iter().map(job).collect()
    };
    let mut library = Library::new();
    library.merge(timed.iter().filter_map(|(o, _, _)| o.record.clone()));
    let raw_wall = t0.elapsed().as_secs_f64();
    // the build's wall at the reference speed its jobs ran at, on average
    let (raw_jobs, scaled_jobs) = timed
        .iter()
        .fold((0.0, 0.0), |(r, s), (_, raw, scaled)| (r + raw, s + scaled));
    let wall = raw_wall * crate::stats::ratio(scaled_jobs, raw_jobs);
    let (outcomes, job_times) = timed.into_iter().map(|(o, _, t)| (o, t)).unzip();
    Build {
        library,
        outcomes,
        job_times,
        wall,
        raw_wall,
    }
}

/// The output-check verdict of every job of a build, on the worker pool.
fn check_build(b: &Build, g: &Grid) -> Vec<Option<String>> {
    let work: Vec<(&TuneOutcome, (&KernelInstance, &Target))> =
        b.outcomes.iter().zip(jobs(g)).collect();
    perfdojo_util::par::par_map(work, |(o, (k, t))| check_outcome(o, k, t))
}

/// Fold a build's deterministic facts into `digest`.
fn digest_build(b: &Build, digest: &mut Digest) {
    for o in &b.outcomes {
        digest.add(&format!("{}|{}|{}", o.label, o.target, o.evaluations));
    }
    digest.add(&b.library.to_text());
    digest.add(&format!(
        "{:016x}",
        geomean(&speedups(&b.outcomes)).to_bits()
    ));
}

/// Model speedup of each job: naive / tuned cost, 1.0 without a record.
fn speedups(outcomes: &[TuneOutcome]) -> Vec<f64> {
    outcomes
        .iter()
        .map(|o| o.record.as_ref().map_or(1.0, |r| r.naive_cost / r.cost))
        .collect()
}

/// Run `tune-anneal`: [`crate::PASSES`] identical builds, each after its
/// own set-up (the kernel grid and its targets). The first is checked
/// against the independent reference, the others against the first.
pub fn run(cfg: &RunConfig) -> Outcome {
    let builder = builder(cfg.seed, cfg.seconds);
    let passes = if cfg.trace { 1 } else { crate::PASSES };
    let mut times = PassTimes::default();
    let mut builds = Vec::with_capacity(passes);
    let mut g = None;
    for _ in 0..passes {
        let (setups, pass_grid) = crate::time_setup(grid);
        let b = build(&builder, &pass_grid, true);
        times.push(&setups, b.wall, &b.job_times);
        builds.push(b);
        g = Some(pass_grid);
    }
    let g = g.expect("at least one pass");
    let first = &builds[0];
    let first_text = first.library.to_text();

    let verdicts = check_build(first, &g);
    let mut tally = Tally::default();
    for b in &builds {
        let same = b.library.to_text() == first_text;
        for (i, v) in verdicts.iter().enumerate() {
            tally.record(
                match same && b.outcomes[i].evaluations == first.outcomes[i].evaluations {
                    true => v.clone(),
                    false => Some(format!(
                        "{}|{}: job differs from the first build",
                        b.outcomes[i].label, b.outcomes[i].target
                    )),
                },
            );
        }
    }
    let mut digest = Digest::default();
    digest_build(first, &mut digest);
    if cfg.trace {
        return traced(cfg, &g, &builder, first, tally);
    }

    let evaluations: u64 = first.outcomes.iter().map(|o| o.evaluations).sum();
    let (metrics, percentiles_ok) =
        times.end_to_end(evaluations as usize, geomean(&speedups(&first.outcomes)));
    Outcome {
        correct: percentiles_ok,
        tally,
        digest: digest.hex(),
        metrics,
    }
}

/// The determinism digest of the same build run job by job on one thread
/// (the 1-worker path).
pub fn sequential_digest(seed: u64, seconds: u64) -> String {
    let mut digest = Digest::default();
    digest_build(&build(&builder(seed, seconds), &grid(), false), &mut digest);
    digest.hex()
}

/// What the mirror of one job produced.
pub(crate) struct MirrorJob {
    pub(crate) outcome: TuneOutcome,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) accepts: u64,
    pub(crate) proposals: u64,
    pub(crate) env_steps: u64,
}

/// Time the evaluation stack's public calls on one search state.
fn probe_state(rec: &mut Recorder, dojo: &Dojo, target: &Target) {
    let p = dojo.current();
    rec.leaf("ir.fingerprint", || black_box(exact_fp128(p)));
    rec.leaf("ir.arena_build", || black_box(Arena::build(p)));
    rec.leaf("transform.actions", || {
        black_box(available_actions(p, dojo.library()))
    });
    rec.span("machine.evaluate", |rec| {
        let lowered = rec.leaf("codegen.lower", || perfdojo_codegen::lower(p));
        black_box(lowered.ok().map(|k| target.machine.evaluate_lowered(&k)))
    });
}

/// Time the agent's public calls after one episode: embeddings of the
/// current state and a few successors, their Q-values, and one training
/// step on a copy of the agent (the run's own agent is left untouched).
/// The state's cost-cache key and arena, which every evaluation of an
/// episode builds, are timed too.
fn probe_agent(rec: &mut Recorder, dojo: &Dojo, st: &perfdojo_rl::TrainState) {
    let p = dojo.current();
    rec.leaf("ir.fingerprint", || black_box(exact_fp128(p)));
    rec.leaf("ir.arena_build", || black_box(Arena::build(p)));
    let state = rec.leaf("rl.embed", || perfdojo_rl::embed(p));
    let actions = rec.leaf("transform.actions", || available_actions(p, dojo.library()));
    let mut candidates = vec![state.clone()];
    for a in actions.iter().take(8) {
        if let Ok(next) = rec.leaf("transform.apply", || a.apply(p)) {
            candidates.push(rec.leaf("rl.embed", || perfdojo_rl::embed(&next)));
        }
    }
    rec.leaf("rl.q_values", || {
        black_box(st.agent.q_values(&state, &candidates))
    });
    let copy = rec.leaf("rl.checkpoint", || {
        perfdojo_rl::parse_train(&perfdojo_rl::serialize_train(st))
    });
    if let Ok(mut copy) = copy {
        rec.leaf("rl.train_step", || black_box(copy.agent.train_step()));
    }
}

/// The events of kind `ev` in a trace sink's text, one JSON line each.
fn events<'a>(text: &'a str, ev: &str) -> Vec<&'a str> {
    let kind = format!("\"ev\":\"{ev}\"");
    text.lines().filter(|l| l.contains(&kind)).collect()
}

/// Re-run one `tune_kernel` job through public calls, one SA iteration or
/// one RL episode at a time, timing each call.
pub(crate) fn mirror_job(
    rec: &mut Recorder,
    builder: &LibraryBuilder,
    kernel: &KernelInstance,
    target: &Target,
) -> MirrorJob {
    rec.span("library.tune_job", |rec| {
        let mut job = MirrorJob {
            outcome: TuneOutcome {
                record: None,
                label: kernel.label.clone(),
                target: target.name.clone(),
                evaluations: 0,
                error: None,
            },
            hits: 0,
            misses: 0,
            accepts: 0,
            proposals: 0,
            env_steps: 0,
        };
        let mut dojo = match rec.leaf("core.dojo_new", || {
            Dojo::for_target(kernel.program.clone(), target)
        }) {
            Ok(d) => d,
            Err(e) => {
                job.outcome.error = Some(e.to_string());
                return job;
            }
        };
        let naive = dojo.initial_runtime();
        let seed = builder.job_seed(&kernel.label, &target.name);
        let warm: Vec<Action> = builder.warm_steps(kernel, target);
        let mut sink = TraceSink::new();
        let (steps, cost) = match builder.strategy {
            Strategy::Anneal { budget } => {
                // `HeuristicSpace::initial` runs the heuristic pass inside
                let mut st = rec.leaf("search.sa_start", || {
                    AnnealState::start_with_warm(&mut dojo, &HeuristicSpace, seed, &warm)
                });
                let mut iterations = 0u64;
                loop {
                    let progress = rec.leaf("search.sa_iter", || {
                        anneal_resume(
                            &mut dojo,
                            &HeuristicSpace,
                            budget,
                            &mut st,
                            Some(&mut sink),
                            Some(1),
                        )
                    });
                    if progress == AnnealProgress::Finished {
                        break;
                    }
                    iterations += 1;
                    if iterations.is_multiple_of(PROBE_EVERY) {
                        probe_state(rec, &dojo, target);
                    }
                }
                let text = sink.to_text();
                let sa = events(&text, "sa");
                job.proposals = sa.len() as u64;
                job.accepts = sa.iter().filter(|l| l.contains("\"accept\":true")).count() as u64;
                let r = st.into_result();
                (r.best_steps, r.best_runtime)
            }
            Strategy::PerfLlm { episodes } => {
                let cfg = perfdojo_rl::PerfLlmConfig {
                    episodes,
                    ..Default::default()
                };
                let mut st = rec.leaf("rl.start", || {
                    perfdojo_rl::TrainState::start_warm(&mut dojo, &cfg, seed, &warm)
                });
                while st.episodes_done < cfg.episodes {
                    rec.leaf("rl.episode", || {
                        perfdojo_rl::train_episodes(
                            &mut dojo,
                            &cfg,
                            &mut st,
                            Some(1),
                            Some(&mut sink),
                        )
                    });
                    probe_agent(rec, &dojo, &st);
                }
                job.env_steps = events(&sink.to_text(), "rl").len() as u64;
                let r = st.into_result();
                (r.best_steps, r.best_runtime)
            }
            other => panic!("tune workloads run anneal or perfllm, not {other:?}"),
        };
        job.outcome.evaluations = dojo.evaluations();
        let stats = dojo.cache_stats();
        (job.hits, job.misses) = (stats.hits, stats.misses);
        if !steps.is_empty() && cost < naive {
            let sig = rec.leaf("library.sig", || {
                KernelSig::of(&kernel.program, &target.name)
            });
            job.outcome.record = Some(ScheduleRecord {
                sig,
                label: kernel.label.clone(),
                steps,
                cost,
                naive_cost: naive,
                model_version: current_model_version(),
                provenance: Provenance {
                    strategy: builder.strategy.name().to_string(),
                    seed,
                    budget: builder.strategy.budget(),
                },
            });
        }
        job
    })
}

/// The traced run: mirror every job on the builder's worker pool, check
/// that each mirror reproduces the real job bit for bit, and report the
/// per-layer metrics.
fn traced(
    cfg: &RunConfig,
    g: &Grid,
    builder: &LibraryBuilder,
    real: &Build,
    mut tally: Tally,
) -> Outcome {
    let untraced_wall = real.raw_wall;
    let epoch = Instant::now();
    let grid_jobs: Vec<(usize, (&KernelInstance, &Target))> =
        jobs(g).into_iter().enumerate().collect();
    let workers = perfdojo_util::par::cores().min(grid_jobs.len()).max(1);
    let t0 = Instant::now();
    let mirrored = perfdojo_util::par::par_map(grid_jobs, |(i, (k, t))| {
        let mut rec = Recorder::new(epoch);
        rec.set_request(i as u64);
        let job = mirror_job(&mut rec, builder, k, t);
        (job, rec)
    });
    let mut rec = Recorder::new(epoch);
    let mut jobs_out = Vec::with_capacity(mirrored.len());
    for (job, r) in mirrored {
        rec.absorb(r);
        jobs_out.push(job);
    }
    rec.set_request(u64::MAX);
    let mut library = Library::new();
    rec.leaf("library.merge", || {
        library.merge(jobs_out.iter().filter_map(|j| j.outcome.record.clone()))
    });
    let traced_wall = t0.elapsed().as_secs_f64();
    let summary = crate::trace_summary(&rec, 0, traced_wall, workers, untraced_wall);

    // fan-out probe: the builder's one par_map spawn and join, over no-ops
    let n = jobs_out.len();
    for _ in 0..32 {
        rec.leaf("util.par_fanout", || {
            black_box(perfdojo_util::par::par_map(vec![(); n], |x| x))
        });
    }

    let mut faithful = library.to_text() == real.library.to_text();
    for (m, o) in jobs_out.iter().zip(&real.outcomes) {
        let same = m.outcome.evaluations == o.evaluations
            && match (&m.outcome.record, &o.record) {
                (Some(a), Some(b)) => a.cost.to_bits() == b.cost.to_bits() && a.steps == b.steps,
                (None, None) => true,
                _ => false,
            };
        if !same {
            eprintln!(
                "mirror differs from tune_kernel on {}|{}",
                o.label, o.target
            );
            faithful = false;
        }
    }
    if !faithful {
        tally.fail("traced mirror did not reproduce the build".into());
    }

    let sum = |f: fn(&MirrorJob) -> u64| jobs_out.iter().map(f).sum::<u64>();
    let counts = Counts {
        evaluations: sum(|j| j.outcome.evaluations),
        cache_hits: sum(|j| j.hits),
        cache_misses: sum(|j| j.misses),
        sa_proposals: sum(|j| j.proposals),
        sa_accepts: sum(|j| j.accepts),
        env_steps: sum(|j| j.env_steps),
        ..Counts::default()
    };
    let mut metrics = crate::layer_metrics(&rec, &counts);
    metrics.extend(summary);
    crate::finish_trace(cfg, &rec, tally, metrics)
}
