//! Concurrent library tuning driver.
//!
//! [`LibraryBuilder`] fans a kernel suite × target set over the workspace
//! thread pool (`perfdojo_util::par`), runs the configured tuning strategy
//! per job, and merges the results keep-best into a [`Library`]. One job
//! runner turns a [`Strategy`] into a schedule for plain builds,
//! checkpointed builds, serve drains and fleet jobs alike. Builds are
//! deterministic: each job's seed is derived from the global seed and the
//! job identity (`label|target`), and `par_map` preserves input order, so
//! two same-seed builds produce byte-identical libraries regardless of
//! thread scheduling.

use crate::checkpoint::{job_id, BuildCheckpoint};
use crate::format::{Provenance, ScheduleRecord};
use crate::library::{current_model_version, Library, MergeReport};
use crate::sig::KernelSig;
use perfdojo_core::{Dojo, Target};
use perfdojo_ir::fingerprint::fnv1a;
use perfdojo_ir::Program;
use perfdojo_kernels::KernelInstance;
use perfdojo_rl::{train_episodes, PerfLlmConfig, TrainProgress, TrainState};
use perfdojo_search::checkpoint::{parse_anneal, parse_chains, serialize_anneal, serialize_chains};
use perfdojo_search::{anneal_chains, anneal_resume, AnnealState, HeuristicSpace, SearchResult};
use perfdojo_transform::Action;
use perfdojo_util::lru::LruCache;
use perfdojo_util::trace::TraceSink;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Which tuner a build runs per (kernel, target) job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// The deterministic heuristic pass (fast, no search).
    Heuristic,
    /// Simulated annealing over the heuristic edit space.
    Anneal {
        /// Evaluation budget per job.
        budget: u64,
    },
    /// K independent SA chains per job, run concurrently on the
    /// incremental engine and merged keep-best (`perfdojo-search`'s
    /// `anneal_chains`) — parallelism *within* a kernel on top of the
    /// builder's across-kernel fan-out.
    AnnealMulti {
        /// Evaluation budget per chain.
        budget: u64,
        /// Independent deterministically-seeded chains.
        chains: usize,
    },
    /// The PerfLLM RL driver (§3.4).
    PerfLlm {
        /// Training episodes per job.
        episodes: usize,
    },
}

impl Strategy {
    /// Provenance name of the strategy.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Heuristic => "heuristic",
            Strategy::Anneal { .. } => "anneal",
            Strategy::AnnealMulti { .. } => "anneal-multi",
            Strategy::PerfLlm { .. } => "perfllm",
        }
    }

    /// The evaluation budget recorded in provenance.
    pub fn budget(&self) -> u64 {
        match self {
            Strategy::Heuristic => 0,
            Strategy::Anneal { budget } => *budget,
            Strategy::AnnealMulti { budget, chains } => budget * *chains as u64,
            Strategy::PerfLlm { episodes } => *episodes as u64,
        }
    }

    /// Render the canonical spec string [`Strategy::parse`] accepts —
    /// `Strategy::parse(&s.spec()) == Some(s)` for every strategy. This is
    /// how fleet job files persist the strategy.
    pub fn spec(&self) -> String {
        match self {
            Strategy::Heuristic => "heuristic".to_string(),
            Strategy::Anneal { budget } => format!("anneal:{budget}"),
            Strategy::AnnealMulti { budget, chains } => format!("anneal:{budget}:{chains}"),
            Strategy::PerfLlm { episodes } => format!("perfllm:{episodes}"),
        }
    }

    /// Parse a CLI strategy spec: `heuristic`, `anneal[:budget]`,
    /// `anneal:<budget>:<chains>` (multi-chain), `perfllm[:episodes]`.
    pub fn parse(s: &str) -> Option<Strategy> {
        let (name, arg) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        match name {
            "heuristic" if arg.is_none() => Some(Strategy::Heuristic),
            "anneal" => match arg {
                None => Some(Strategy::Anneal { budget: 150 }),
                Some(a) => match a.split_once(':') {
                    None => Some(Strategy::Anneal { budget: a.parse().ok()? }),
                    Some((b, c)) => Some(Strategy::AnnealMulti {
                        budget: b.parse().ok()?,
                        chains: {
                            let chains: usize = c.parse().ok()?;
                            if chains == 0 {
                                return None;
                            }
                            chains
                        },
                    }),
                },
            },
            "perfllm" => Some(Strategy::PerfLlm {
                episodes: match arg {
                    Some(a) => a.parse().ok()?,
                    None => 4,
                },
            }),
            _ => None,
        }
    }
}

/// Look up a tuning target by name (`x86`, `arm`, `gh200`, `mi300a`,
/// `snitch`, `riscv`).
pub fn target_by_name(name: &str) -> Option<Target> {
    if name == "riscv" {
        return Some(Target::riscv_scalar());
    }
    Target::all().into_iter().find(|t| t.name == name)
}

/// One (kernel, target) tuning outcome.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// The produced record, when tuning found any valid schedule.
    pub record: Option<ScheduleRecord>,
    /// Kernel label.
    pub label: String,
    /// Target name.
    pub target: String,
    /// Evaluations the job spent.
    pub evaluations: u64,
    /// Error text when the Dojo could not even be constructed.
    pub error: Option<String>,
}

/// Everything a tune job's outcome depends on besides its target's machine
/// model: the kernel, the strategy, the global seed (the job seed derives
/// from it, the label and the target) and the warm start.
#[derive(Debug, PartialEq)]
struct JobInput {
    label: String,
    shape: String,
    program: Program,
    target: String,
    strategy: Strategy,
    seed: u64,
    warm: Vec<Action>,
}

impl JobInput {
    /// The job identity the memo keeps one input under.
    fn key(&self) -> String {
        format!("{}|{}|{}", self.label, self.shape, self.target)
    }
}

/// A bounded memo of tune jobs known to produce no record: per job
/// identity, the complete input of the last job that ran start to finish
/// without one, and the evaluations it spent.
///
/// Jobs are deterministic, so a job whose input equals its entry would fail
/// again; a builder holding the memo ([`LibraryBuilder::with_failure_memo`])
/// returns the recorded outcome instead of running it. The input names its
/// target by name only, so one memo serves one machine model per target
/// name, as one server's drains do. A job resumed from in-flight state is
/// never skipped and never recorded: that state is an input the memo does
/// not hold.
#[derive(Debug)]
pub struct FailureMemo {
    entries: Mutex<LruCache<String, Arc<(JobInput, u64)>>>,
    skipped: AtomicU64,
}

impl FailureMemo {
    /// An empty memo keeping at most `capacity` jobs; the least recently
    /// used is evicted.
    pub fn new(capacity: usize) -> FailureMemo {
        FailureMemo { entries: Mutex::new(LruCache::new(capacity)), skipped: AtomicU64::new(0) }
    }

    /// Jobs not run so far because the memo knew their outcome.
    pub fn skipped(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    /// The evaluations of the recorded failure whose input equals `input`,
    /// counted as a skip.
    fn recall(&self, input: &JobInput) -> Option<u64> {
        let key = input.key();
        let entry = Arc::clone(self.entries.lock().expect("failure memo poisoned").get(&key)?);
        (entry.0 == *input).then(|| {
            self.skipped.fetch_add(1, Ordering::Relaxed);
            entry.1
        })
    }

    /// Keep `input` as its job's known failure, replacing whatever input
    /// the job had before.
    fn record(&self, input: JobInput, evaluations: u64) {
        let key = input.key();
        let evicted = self
            .entries
            .lock()
            .expect("failure memo poisoned")
            .insert(key, Arc::new((input, evaluations)));
        drop(evicted); // freed outside the lock
    }
}

/// Concurrent suite × targets tuning driver.
#[derive(Clone, Debug)]
pub struct LibraryBuilder {
    /// Tuning strategy per job.
    pub strategy: Strategy,
    /// Global seed; per-job seeds are derived from it.
    pub seed: u64,
    /// Donor library used to warm-start search-based jobs: each job's
    /// search begins from its family's schedule fit over the donor
    /// ([`crate::transfer::fit_for`]), materialized at the job's shape,
    /// instead of the empty program. `None` tunes cold, as does a job whose
    /// family does not fit. The donor is part of a job's identity —
    /// rebuilding or resuming with a different donor is a different build.
    pub warm: Option<Arc<Library>>,
    /// Jobs known to produce no record, consulted and filled by every job.
    failures: Option<Arc<FailureMemo>>,
}

impl LibraryBuilder {
    /// A builder with the given strategy and global seed (cold: no
    /// transfer warm-starting).
    pub fn new(strategy: Strategy, seed: u64) -> LibraryBuilder {
        LibraryBuilder { strategy, seed, warm: None, failures: None }
    }

    /// Warm-start search-based jobs from parameterized schedules fit over
    /// `lib`'s records (a no-op for an empty library).
    pub fn with_warm_from(mut self, lib: &Library) -> LibraryBuilder {
        if !lib.is_empty() {
            self.warm = Some(Arc::new(lib.clone()));
        }
        self
    }

    /// Skip every job whose complete input `memo` holds as a failure, and
    /// record in it every job that runs start to finish without producing
    /// a record. Outcomes, libraries and checkpoints are those of running
    /// the skipped jobs, apart from the steps they would have taken; the
    /// trace holds one `skipped` event in place of a skipped job's events.
    pub fn with_failure_memo(mut self, memo: Arc<FailureMemo>) -> LibraryBuilder {
        self.failures = Some(memo);
        self
    }

    /// The warm-start sequence for one job: the schedule of the job's
    /// family fit over the donor, materialized at the job's shape; empty
    /// when there is no donor or the family does not fit.
    pub fn warm_steps(&self, kernel: &KernelInstance, target: &Target) -> Vec<Action> {
        let Some(donor) = &self.warm else { return Vec::new() };
        let sig = KernelSig::of(&kernel.program, &target.name);
        crate::transfer::fit_for(donor, &sig).map_or_else(Vec::new, |ps| ps.materialize(&sig.shape))
    }

    /// Seed for one job, mixed from the global seed and job identity so a
    /// build is insensitive to suite/target ordering.
    pub fn job_seed(&self, label: &str, target: &str) -> u64 {
        self.seed ^ fnv1a(format!("{label}|{target}").as_bytes())
    }

    /// Tune one kernel on one target: the job runner (see
    /// [`LibraryBuilder::build_into_checkpointed`]) with a fresh job slot,
    /// no in-flight state, no step cap and no trace, so it runs the job to
    /// completion in one call.
    pub fn tune_kernel(&self, kernel: &KernelInstance, target: &Target) -> TuneOutcome {
        match self.run_job(kernel, target, &mut None, None, None, None) {
            Ok((Sliced::Done(out), _)) => out,
            // neither arises without in-flight state to parse or a step
            // cap to pause at; reported rather than trusted
            Ok((Sliced::Paused(_), _)) => failed(kernel, target, "job paused without a step cap"),
            Err(e) => failed(kernel, target, &e),
        }
    }

    /// Build the [`ScheduleRecord`] for a tuning result. Only schedules
    /// that actually transform and actually help are kept — a no-op or
    /// regressing schedule would just waste dispatch time — and only at
    /// costs a library can load back: both finite (`format::parse` refuses
    /// any other) and the tuned one below naive (`Library::gc` drops any
    /// other).
    fn make_record(
        &self,
        kernel: &KernelInstance,
        target: &Target,
        seed: u64,
        naive_cost: f64,
        steps: Vec<Action>,
        cost: f64,
    ) -> Option<ScheduleRecord> {
        if steps.is_empty() || !(cost.is_finite() && naive_cost.is_finite() && cost < naive_cost) {
            return None;
        }
        Some(ScheduleRecord {
            sig: KernelSig::of(&kernel.program, &target.name),
            label: kernel.label.clone(),
            steps,
            cost,
            naive_cost,
            model_version: current_model_version(),
            provenance: Provenance {
                strategy: self.strategy.name().to_string(),
                seed,
                budget: self.strategy.budget(),
            },
        })
    }

    /// Tune the full `kernels` × `targets` grid concurrently and merge the
    /// produced records into `lib` keep-best. The outcomes come back in grid
    /// order (kernels major, targets minor).
    pub fn build_into(
        &self,
        lib: &mut Library,
        kernels: &[KernelInstance],
        targets: &[Target],
    ) -> (MergeReport, Vec<TuneOutcome>) {
        let jobs: Vec<(KernelInstance, Target)> = kernels
            .iter()
            .flat_map(|k| targets.iter().map(move |t| (k.clone(), t.clone())))
            .collect();
        let outcomes = perfdojo_util::par::par_map(jobs, |(k, t)| self.tune_kernel(&k, &t));
        let report = lib.merge(outcomes.iter().filter_map(|o| o.record.clone()));
        (report, outcomes)
    }

    /// Crash-safe build: tune the grid **sequentially** in grid order,
    /// keeping every job in `ckpt`'s job store under its full id
    /// ([`job_id`]), so a killed build resumes where it stopped instead of
    /// starting over.
    ///
    /// - A job whose part is valid is done: its records are merged and it
    ///   does not run. A finished job writes its part, then the trace, then
    ///   clears its in-flight state.
    /// - A job interrupted mid-search resumes from its own in-flight state
    ///   bit-identically (same RNG words, same best-so-far, same budget
    ///   spend) — see `perfdojo-search`/`perfdojo-rl` checkpoints.
    /// - `step_limit` bounds the tuning steps executed in *this call*: one
    ///   annealing iteration, one RL episode, or one whole SA chain /
    ///   heuristic pass each count as one step. When the limit runs out
    ///   the build saves the running job's state and the trace and pauses
    ///   cleanly, leaving `lib` as it was (this is also how tests exercise
    ///   the kill/resume path without signals).
    /// - Trajectory events append to the checkpoint's `trace.jsonl` with
    ///   continuing step numbers: the finished trace of a paused+resumed
    ///   build is byte-identical to an uninterrupted one, except the
    ///   `cache_hit` field (a resumed process starts with a cold
    ///   evaluation cache; values and decisions are unaffected).
    ///
    /// Every job runs through the same runner as [`LibraryBuilder::tune_kernel`],
    /// here with the in-flight state, the steps left and the trace sink
    /// supplied, so a checkpointed build yields the plain build's bytes and
    /// per-job evaluations. Jobs run sequentially because per-job
    /// parallelism cannot persist incrementally; `Strategy::AnnealMulti`
    /// still fans out the chains a slice grants. Returns the progress, the
    /// report of merging every grid job's records into `lib` (empty on a
    /// pause) and the outcomes of jobs completed in this call.
    pub fn build_into_checkpointed(
        &self,
        lib: &mut Library,
        kernels: &[KernelInstance],
        targets: &[Target],
        ckpt: &BuildCheckpoint,
        step_limit: Option<u64>,
    ) -> Result<(BuildProgress, MergeReport, Vec<TuneOutcome>), String> {
        let mut sink = ckpt.load_trace();
        let mut left = step_limit;
        let mut records = Vec::new();
        let mut outcomes = Vec::new();
        let io_err = |e: std::io::Error| format!("checkpoint dir {}: {e}", ckpt.dir().display());
        for kernel in kernels {
            for target in targets {
                let id =
                    job_id(&kernel.label, &kernel.shape, &target.name, self.strategy, self.seed);
                if let Some((_, part)) = ckpt.part(&id) {
                    records.extend(part.records().cloned());
                    continue;
                }
                let inflight = ckpt.load_inflight(&id);
                let (sliced, ran) =
                    self.run_job(kernel, target, &mut None, inflight, left, Some(&mut sink))?;
                left = left.map(|n| n - ran);
                match sliced {
                    Sliced::Done(out) => {
                        let mut part = Library::new();
                        part.merge(out.record.clone());
                        ckpt.write_part(&id, out.evaluations, &part).map_err(io_err)?;
                        ckpt.save_trace(&sink).map_err(io_err)?;
                        ckpt.clear_inflight(&id).map_err(io_err)?;
                        records.extend(out.record.clone());
                        outcomes.push(out);
                    }
                    Sliced::Paused(state) => {
                        if let Some(text) = state {
                            ckpt.save_inflight(&id, &text).map_err(io_err)?;
                        }
                        ckpt.save_trace(&sink).map_err(io_err)?;
                        return Ok((BuildProgress::Paused, MergeReport::default(), outcomes));
                    }
                }
            }
        }
        ckpt.save_trace(&sink).map_err(io_err)?;
        Ok((BuildProgress::Finished, lib.merge(records), outcomes))
    }

    /// The one job runner: every build, drain and fleet job turns its
    /// [`Strategy`] into a schedule here, one slice of at most `cap` tuning
    /// steps at a time (no cap: to completion). An empty `slot` opens the
    /// job, fresh or from its serialized `inflight` state; a held one
    /// continues the job it holds, and keeps it while the job is paused.
    /// Returns the slice's outcome and the steps it ran; `sink` receives the
    /// job's trajectory events.
    pub(crate) fn run_job(
        &self,
        kernel: &KernelInstance,
        target: &Target,
        slot: &mut Option<OpenJob>,
        inflight: Option<String>,
        cap: Option<u64>,
        mut sink: Option<&mut TraceSink>,
    ) -> Result<(Sliced, u64), String> {
        // pausing before a slice runs needs no state at all
        if cap == Some(0) {
            return Ok((Sliced::Paused(None), 0));
        }
        let job = match slot {
            Some(job) => job,
            None => {
                let seed = self.job_seed(&kernel.label, &target.name);
                let warm = self.warm_steps(kernel, target);
                // the input is complete here, unless in-flight state is part of it
                let known = (self.failures.is_some() && inflight.is_none()).then(|| JobInput {
                    label: kernel.label.clone(),
                    shape: kernel.shape.clone(),
                    program: kernel.program.clone(),
                    target: target.name.clone(),
                    strategy: self.strategy,
                    seed: self.seed,
                    warm: warm.clone(),
                });
                let recalled = self.failures.as_ref().zip(known.as_ref());
                if let Some(evaluations) = recalled.and_then(|(memo, input)| memo.recall(input)) {
                    if let Some(sink) = sink {
                        sink.event("skipped")
                            .str("kernel", &kernel.label)
                            .str("target", &target.name)
                            .u64("evals", evaluations)
                            .emit();
                    }
                    return Ok((Sliced::Done(outcome(kernel, target, None, evaluations)), 0));
                }
                let mut dojo = match Dojo::for_target(kernel.program.clone(), target) {
                    Ok(d) => d,
                    Err(e) => return Ok((Sliced::Done(failed(kernel, target, &e.to_string())), 0)),
                };
                let ctx = |e: String| format!("{} on {}: {e}", kernel.label, target.name);
                if let (None, Some(sink)) = (&inflight, sink.as_deref_mut()) {
                    sink.event("job")
                        .str("kernel", &kernel.label)
                        .str("target", &target.name)
                        .str("strategy", self.strategy.name())
                        .emit();
                }
                let (naive_cost, base_evals) = (dojo.initial_runtime(), dojo.evaluations());
                let search = match (self.strategy, inflight) {
                    (Strategy::Heuristic, _) => Search::Heuristic,
                    (Strategy::Anneal { budget: 0 }, _) => Search::Noop,
                    (Strategy::Anneal { budget }, Some(text)) => {
                        let state = parse_anneal(&text).map_err(ctx)?;
                        state.reattach(&mut dojo);
                        Search::Anneal { budget, state }
                    }
                    (Strategy::Anneal { budget }, None) => {
                        let space = &HeuristicSpace;
                        let state = AnnealState::start_with_warm(&mut dojo, space, seed, &warm);
                        Search::Anneal { budget, state }
                    }
                    (Strategy::AnnealMulti { budget, chains }, inflight) => Search::Chains {
                        budget,
                        chains,
                        done: match inflight {
                            Some(text) => parse_chains(&text).map_err(ctx)?,
                            None => Vec::new(),
                        },
                    },
                    (Strategy::PerfLlm { episodes }, inflight) => {
                        let cfg = PerfLlmConfig { episodes, ..PerfLlmConfig::default() };
                        let state = match inflight {
                            Some(text) => perfdojo_rl::parse_train(&text).map_err(ctx)?,
                            None => TrainState::start_warm(&mut dojo, &cfg, seed, &warm),
                        };
                        Search::PerfLlm { cfg, state: Box::new(state) }
                    }
                };
                slot.insert(OpenJob { dojo, naive_cost, base_evals, seed, warm, known, search })
            }
        };
        // `evaluations` is the strategy's own spend, as checkpoints persist
        // it: a resumed job does not count its re-attach evaluation
        let grant = |want: u64| cap.map_or(want, |c| want.min(c));
        let mut ran = 0;
        let (steps, cost, evaluations) = match &mut job.search {
            Search::Heuristic => {
                ran = 1;
                let runtime = perfdojo_search::heuristic_pass(&mut job.dojo);
                (job.dojo.history.steps.clone(), runtime, job.dojo.evaluations())
            }
            Search::Noop => (Vec::new(), job.naive_cost, job.base_evals),
            Search::Anneal { budget, state } => {
                // one step per iteration; every segment leaves `spent` current
                while state.spent < *budget {
                    if cap == Some(ran) {
                        return Ok((Sliced::Paused(Some(serialize_anneal(state))), ran));
                    }
                    ran += 1;
                    let sink = sink.as_deref_mut();
                    anneal_resume(&mut job.dojo, &HeuristicSpace, *budget, state, sink, Some(1));
                }
                (state.best_steps.clone(), state.best_runtime, job.base_evals + state.spent)
            }
            Search::Chains { budget, chains, done } => {
                // one step per chain; the granted chains fan out together
                ran = grant(chains.saturating_sub(done.len()) as u64);
                let upto = done.len() + ran as usize;
                let best = anneal_chains(
                    &mut job.dojo,
                    &HeuristicSpace,
                    upto,
                    *budget,
                    job.seed,
                    &job.warm,
                    done,
                    sink.as_deref_mut(),
                );
                if done.len() < *chains {
                    return Ok((Sliced::Paused(Some(serialize_chains(done))), ran));
                }
                let chain_evals: u64 =
                    done.iter().map(|r| r.trace.last().map_or(0, |t| t.0)).sum();
                (best.best_steps, best.best_runtime, job.base_evals + chain_evals)
            }
            Search::PerfLlm { cfg, state } => {
                // one step per episode
                ran = grant(cfg.episodes.saturating_sub(state.episodes_done) as u64);
                let (episodes, sink) = (Some(ran as usize), sink.as_deref_mut());
                let progress = train_episodes(&mut job.dojo, cfg, state, episodes, sink);
                if progress == TrainProgress::Paused {
                    return Ok((Sliced::Paused(Some(perfdojo_rl::serialize_train(state))), ran));
                }
                (state.best_steps.clone(), state.best_runtime, state.spent)
            }
        };
        if let Some(sink) = sink {
            sink.event("tuned")
                .str("kernel", &kernel.label)
                .str("target", &target.name)
                .u64("evals", evaluations)
                .f64("cost", cost)
                .emit();
        }
        let record = self.make_record(kernel, target, job.seed, job.naive_cost, steps, cost);
        if let (Some(memo), Some(input), None) = (&self.failures, job.known.take(), &record) {
            memo.record(input, evaluations);
        }
        *slot = None;
        Ok((Sliced::Done(outcome(kernel, target, record, evaluations)), ran))
    }
}

/// Whether a checkpointed build ran to completion or paused at the step
/// limit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildProgress {
    /// Every grid job is done and the checkpoint is complete.
    Finished,
    /// The step limit ran out; call again (or rerun the CLI) to continue.
    Paused,
}

/// One slice of a tune job: the job completed, or paused with the state to
/// persist (`None`: paused before the slice ran anything).
pub(crate) enum Sliced {
    Done(TuneOutcome),
    Paused(Option<String>),
}

/// A tune job [`LibraryBuilder::run_job`] has opened: its Dojo and search
/// state, held between slices.
pub(crate) struct OpenJob {
    dojo: Dojo,
    naive_cost: f64,
    base_evals: u64,
    seed: u64,
    warm: Vec<Action>,
    /// The job's complete input, for the failure memo to record.
    known: Option<JobInput>,
    search: Search,
}

/// Where an open job's search stands.
enum Search {
    /// The heuristic pass: one step.
    Heuristic,
    /// A zero-budget anneal: a no-op, as `simulated_annealing` defines it.
    Noop,
    Anneal { budget: u64, state: AnnealState },
    Chains { budget: u64, chains: usize, done: Vec<SearchResult> },
    PerfLlm { cfg: PerfLlmConfig, state: Box<TrainState> },
}

/// The outcome of a job that ran without error (or is known to).
fn outcome(
    kernel: &KernelInstance,
    target: &Target,
    record: Option<ScheduleRecord>,
    evaluations: u64,
) -> TuneOutcome {
    let (label, target) = (kernel.label.clone(), target.name.clone());
    TuneOutcome { record, label, target, evaluations, error: None }
}

/// The outcome of a job that produced no schedule because of `error`.
fn failed(kernel: &KernelInstance, target: &Target, error: &str) -> TuneOutcome {
    TuneOutcome { error: Some(error.to_string()), ..outcome(kernel, target, None, 0) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tune(labels: &[&str]) -> Vec<KernelInstance> {
        perfdojo_kernels::tune_suite()
            .into_iter()
            .filter(|k| labels.contains(&k.label.as_str()))
            .collect()
    }

    #[test]
    fn strategy_parse() {
        assert_eq!(Strategy::parse("heuristic"), Some(Strategy::Heuristic));
        assert_eq!(Strategy::parse("anneal:40"), Some(Strategy::Anneal { budget: 40 }));
        assert_eq!(Strategy::parse("anneal"), Some(Strategy::Anneal { budget: 150 }));
        assert_eq!(
            Strategy::parse("anneal:40:4"),
            Some(Strategy::AnnealMulti { budget: 40, chains: 4 })
        );
        assert_eq!(Strategy::parse("perfllm:2"), Some(Strategy::PerfLlm { episodes: 2 }));
        assert_eq!(Strategy::parse("bogus"), None);
        assert_eq!(Strategy::parse("anneal:x"), None);
        assert_eq!(Strategy::parse("anneal:40:0"), None);
        assert_eq!(Strategy::parse("anneal:40:x"), None);
        assert_eq!(Strategy::parse("heuristic:3"), None);
    }

    #[test]
    fn strategy_spec_round_trips_through_parse() {
        for s in [
            Strategy::Heuristic,
            Strategy::Anneal { budget: 40 },
            Strategy::AnnealMulti { budget: 8, chains: 3 },
            Strategy::PerfLlm { episodes: 2 },
        ] {
            assert_eq!(Strategy::parse(&s.spec()), Some(s), "{}", s.spec());
        }
    }

    #[test]
    fn anneal_multi_builds_deterministically_and_beats_or_matches_naive() {
        let kernels = tune(&["softmax"]);
        let targets = [Target::x86()];
        let run = || {
            let mut lib = Library::new();
            LibraryBuilder::new(Strategy::AnnealMulti { budget: 30, chains: 3 }, 5)
                .build_into(&mut lib, &kernels, &targets);
            lib.to_text()
        };
        let a = run();
        assert_eq!(a, run(), "multi-chain builds must be reproducible");
        // provenance records the summed budget and the multi name
        assert!(a.contains("anneal-multi"), "{a}");
    }

    #[test]
    fn target_lookup() {
        assert_eq!(target_by_name("x86").map(|t| t.name), Some("x86".into()));
        assert_eq!(target_by_name("riscv").map(|t| t.name), Some("riscv".into()));
        assert!(target_by_name("z80").is_none());
    }

    #[test]
    fn heuristic_build_produces_improving_records() {
        let builder = LibraryBuilder::new(Strategy::Heuristic, 11);
        let mut lib = Library::new();
        let kernels = tune(&["softmax", "matmul"]);
        assert_eq!(kernels.len(), 2);
        let (report, outcomes) =
            builder.build_into(&mut lib, &kernels, &[Target::x86(), Target::gh200()]);
        assert_eq!(outcomes.len(), 4);
        // softmax on gh200 may legitimately find no improving schedule at
        // this shape; both x86 jobs and matmul/gh200 must
        assert!(report.inserted >= 3, "{report:?}");
        for r in lib.records() {
            assert!(r.cost < r.naive_cost, "{}: no speedup recorded", r.label);
            assert!(!r.steps.is_empty());
            assert_eq!(r.model_version, current_model_version());
        }
    }

    #[test]
    fn a_nan_priced_schedule_is_not_recorded() {
        // every Estimate.seconds is NaN, so tuned and naive costs both are
        let mut poisoned = Target::x86();
        poisoned.machine.config.clock_ghz = f64::NAN;
        let softmax = &tune(&["softmax"])[0];
        for strategy in [Strategy::Heuristic, Strategy::Anneal { budget: 20 }] {
            let out = LibraryBuilder::new(strategy, 3).tune_kernel(softmax, &poisoned);
            assert_eq!(out.error, None, "{strategy:?}");
            assert!(out.record.is_none(), "{strategy:?} kept {:?}", out.record);
            let mut lib = Library::new();
            let (report, _) = LibraryBuilder::new(strategy, 3).build_into(
                &mut lib,
                std::slice::from_ref(softmax),
                std::slice::from_ref(&poisoned),
            );
            assert_eq!((report.inserted, lib.is_empty()), (0, true), "{strategy:?}");
        }
    }

    #[test]
    fn same_seed_builds_are_identical() {
        let kernels = tune(&["softmax"]);
        let targets = [Target::x86()];
        let run = || {
            let mut lib = Library::new();
            LibraryBuilder::new(Strategy::Anneal { budget: 30 }, 5)
                .build_into(&mut lib, &kernels, &targets);
            lib.to_text()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn job_seed_depends_on_identity_not_order() {
        let b = LibraryBuilder::new(Strategy::Heuristic, 42);
        assert_ne!(b.job_seed("softmax", "x86"), b.job_seed("softmax", "gh200"));
        assert_ne!(b.job_seed("softmax", "x86"), b.job_seed("matmul", "x86"));
        assert_eq!(b.job_seed("softmax", "x86"), b.job_seed("softmax", "x86"));
    }

    fn ckpt_tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("pdl-bld-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Run a checkpointed build to completion in `step_limit`-sized slices,
    /// returning the final library text and the cache_hit-stripped trace.
    fn run_checkpointed(
        builder: &LibraryBuilder,
        kernels: &[KernelInstance],
        targets: &[Target],
        dir: &std::path::Path,
        step_limit: Option<u64>,
    ) -> (String, String) {
        let ckpt = BuildCheckpoint::open(dir).unwrap();
        loop {
            let mut lib = Library::new();
            let (progress, ..) = builder
                .build_into_checkpointed(&mut lib, kernels, targets, &ckpt, step_limit)
                .unwrap();
            if progress == BuildProgress::Finished {
                let trace = std::fs::read_to_string(ckpt.trace_path()).unwrap();
                return (lib.to_text(), perfdojo_util::trace::strip_field(&trace, "cache_hit"));
            }
        }
    }

    #[test]
    fn paused_and_resumed_build_is_byte_identical_to_uninterrupted() {
        let kernels = tune(&["softmax", "matmul"]);
        let targets = [Target::x86()];
        let strategy = Strategy::Anneal { budget: 10 };

        let builder = LibraryBuilder::new(strategy, 5);
        let full_dir = ckpt_tmpdir("full");
        let (full_lib, full_trace) =
            run_checkpointed(&builder, &kernels, &targets, &full_dir, None);

        let sliced_dir = ckpt_tmpdir("sliced");
        let (sliced_lib, sliced_trace) =
            run_checkpointed(&builder, &kernels, &targets, &sliced_dir, Some(3));

        assert_eq!(full_lib, sliced_lib, "library bytes must not depend on pausing");
        assert_eq!(full_trace, sliced_trace, "trace (minus cache_hit) must not depend on pausing");
        std::fs::remove_dir_all(&full_dir).unwrap();
        std::fs::remove_dir_all(&sliced_dir).unwrap();
    }

    /// A transfer index fit over a heuristic-tuned layernorm family (two
    /// shapes), for warm-starting builds over the same kernels.
    fn layernorm_warm_builder(strategy: Strategy) -> LibraryBuilder {
        let kernels = tune(&["layernorm 1", "layernorm 2"]);
        let mut donor = Library::new();
        LibraryBuilder::new(Strategy::Heuristic, 7).build_into(
            &mut donor,
            &kernels,
            &[Target::x86()],
        );
        let builder = LibraryBuilder::new(strategy, 5).with_warm_from(&donor);
        assert!(builder.warm.is_some(), "layernorm family must fit");
        builder
    }

    #[test]
    fn warm_from_empty_library_is_cold() {
        let builder = LibraryBuilder::new(Strategy::Anneal { budget: 10 }, 5)
            .with_warm_from(&Library::new());
        assert!(builder.warm.is_none());
        // a donor with no family that fits (one record per family) tunes
        // every job byte-identically to a cold build
        let kernels = tune(&["layernorm 1"]);
        let targets = [Target::x86()];
        let mut donor = Library::new();
        LibraryBuilder::new(Strategy::Heuristic, 7).build_into(&mut donor, &kernels, &targets);
        let build = |builder: LibraryBuilder| {
            let mut lib = Library::new();
            builder.build_into(&mut lib, &kernels, &targets);
            lib.to_text()
        };
        let strategy = Strategy::PerfLlm { episodes: 2 };
        assert_eq!(
            build(LibraryBuilder::new(strategy, 5).with_warm_from(&donor)),
            build(LibraryBuilder::new(strategy, 5))
        );
    }

    #[test]
    fn warm_build_is_deterministic_and_never_worse_than_cold() {
        let kernels = tune(&["layernorm 1", "layernorm 2"]);
        let targets = [Target::x86()];
        let strategy = Strategy::Anneal { budget: 25 };

        let mut cold = Library::new();
        LibraryBuilder::new(strategy, 5).build_into(&mut cold, &kernels, &targets);

        let warm_builder = layernorm_warm_builder(strategy);
        let run = || {
            let mut lib = Library::new();
            warm_builder.build_into(&mut lib, &kernels, &targets);
            lib
        };
        let warm = run();
        assert_eq!(warm.to_text(), run().to_text(), "warm builds must be reproducible");
        for rec in warm.records() {
            let cold_rec = cold
                .records()
                .find(|r| r.sig.key() == rec.sig.key())
                .expect("cold build tuned the same kernel");
            assert!(
                rec.cost <= cold_rec.cost,
                "{}: warm {} worse than cold {}",
                rec.label,
                rec.cost,
                cold_rec.cost
            );
        }
    }

    #[test]
    fn warm_paused_and_resumed_build_is_byte_identical() {
        // the exit-4 path: a warm-started checkpointed build killed at a
        // step limit must resume to the exact bytes of an uninterrupted one
        let kernels = tune(&["layernorm 1", "layernorm 2"]);
        let targets = [Target::x86()];
        let builder = layernorm_warm_builder(Strategy::Anneal { budget: 10 });

        let full_dir = ckpt_tmpdir("warm-full");
        let (full_lib, full_trace) =
            run_checkpointed(&builder, &kernels, &targets, &full_dir, None);

        let sliced_dir = ckpt_tmpdir("warm-sliced");
        let (sliced_lib, sliced_trace) =
            run_checkpointed(&builder, &kernels, &targets, &sliced_dir, Some(3));

        assert_eq!(full_lib, sliced_lib, "warm library bytes must not depend on pausing");
        assert_eq!(full_trace, sliced_trace);

        // and the checkpointed warm build equals the plain warm build
        let mut plain = Library::new();
        builder.build_into(&mut plain, &kernels, &targets);
        assert_eq!(plain.to_text(), full_lib);
        std::fs::remove_dir_all(&full_dir).unwrap();
        std::fs::remove_dir_all(&sliced_dir).unwrap();
    }

    /// Run the checkpointed build of `kernels` twice in `dir` (resetting the
    /// job progress between), in `step_limit` slices, with one failure
    /// memo. Returns the memo's skips, the evaluations each build reported
    /// and the event kinds of the trace.
    fn build_twice_with_memo(
        builder: LibraryBuilder,
        kernels: &[KernelInstance],
        dir: &std::path::Path,
        step_limit: Option<u64>,
    ) -> (u64, Vec<u64>, Vec<String>) {
        let memo = Arc::new(FailureMemo::new(4));
        let builder = builder.with_failure_memo(Arc::clone(&memo));
        let ckpt = BuildCheckpoint::open(dir).unwrap();
        let targets = [Target::x86()];
        let mut evaluations = Vec::new();
        for _ in 0..2 {
            let mut lib = Library::new();
            let outcome = loop {
                let (progress, _, mut outcomes) = builder
                    .build_into_checkpointed(&mut lib, kernels, &targets, &ckpt, step_limit)
                    .unwrap();
                if progress == BuildProgress::Finished {
                    break outcomes.pop().expect("one job");
                }
            };
            assert!(outcome.record.is_none() && lib.is_empty(), "the job must fail");
            evaluations.push(outcome.evaluations);
            ckpt.reset().unwrap();
        }
        let trace = std::fs::read_to_string(ckpt.trace_path()).unwrap();
        let kinds = trace
            .lines()
            .filter_map(|l| Some(l.split("\"ev\":\"").nth(1)?.split('"').next()?.to_string()))
            .filter(|ev| ["job", "tuned", "skipped"].contains(&ev.as_str()))
            .collect();
        (memo.skipped(), evaluations, kinds)
    }

    #[test]
    fn a_failure_memo_skips_an_unchanged_failed_job_unless_it_resumed() {
        // PerfLLM finds no improving schedule for this kernel in 2 episodes
        let dims = [32, 32];
        let program = perfdojo_kernels::by_label_with_shape("rmsnorm", &dims).unwrap();
        let kernels = [KernelInstance::at("rmsnorm", &dims, program)];
        let builder = LibraryBuilder::new(Strategy::PerfLlm { episodes: 2 }, 0);
        let dir = ckpt_tmpdir("memo-whole");
        let (skipped, evals, kinds) = build_twice_with_memo(builder.clone(), &kernels, &dir, None);
        assert_eq!(skipped, 1);
        assert_eq!(evals[0], evals[1], "a skip reports the recorded evaluations");
        assert_eq!(kinds, ["job", "tuned", "skipped"], "the second build ran the job");
        std::fs::remove_dir_all(&dir).unwrap();
        // one episode per slice: the job resumes in-flight state, so it is
        // never recorded, and the second build runs it again
        let dir = ckpt_tmpdir("memo-sliced");
        let (skipped, evals, kinds) = build_twice_with_memo(builder, &kernels, &dir, Some(1));
        assert_eq!((skipped, evals[0]), (0, evals[1]));
        assert_eq!(kinds, ["job", "tuned", "job", "tuned"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn paused_and_resumed_perfllm_build_is_byte_identical() {
        let kernels = tune(&["softmax"]);
        let targets = [Target::x86()];
        let strategy = Strategy::PerfLlm { episodes: 3 };

        let builder = LibraryBuilder::new(strategy, 5);
        let full_dir = ckpt_tmpdir("llm-full");
        let (full_lib, full_trace) =
            run_checkpointed(&builder, &kernels, &targets, &full_dir, None);

        let sliced_dir = ckpt_tmpdir("llm-sliced");
        let (sliced_lib, sliced_trace) =
            run_checkpointed(&builder, &kernels, &targets, &sliced_dir, Some(1));

        assert_eq!(full_lib, sliced_lib);
        assert_eq!(full_trace, sliced_trace);
        std::fs::remove_dir_all(&full_dir).unwrap();
        std::fs::remove_dir_all(&sliced_dir).unwrap();
    }
}
