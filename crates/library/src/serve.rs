//! The schedule-serving tier: a long-running, concurrent front end over a
//! shared read-mostly [`Library`].
//!
//! This is the paper's end product made operational: applications query a
//! *generated ML library* at runtime, so the batch `perfdojo-lib` pipeline
//! grows a daemon-shaped core here. The moving parts:
//!
//! - **Shared snapshot** — the current library lives in an immutable
//!   [`ServeSnapshot`] behind one `RwLock<Arc<_>>`, read once per batch:
//!   a reader clones the `Arc` and resolves against that complete
//!   snapshot, a hot swap replaces the pointer, so no reader can see a
//!   half-merged library, and every read after a publish returns the new
//!   snapshot.
//! - **Batched admission** — queries enter through a bounded
//!   [`AdmissionQueue`] and are served in batches on the workspace thread
//!   pool (`perfdojo_util::par`). At capacity the server sheds load
//!   instead of buffering unboundedly.
//! - **Tune-miss queue** — queries that resolved below the replay tiers
//!   (fresh heuristic or naive) are queued as tune jobs, deduplicated by
//!   signature key. A
//!   background drain runs the normal [`LibraryBuilder`] — optionally
//!   through the crash-safe checkpoint layer, so tuning is preemptible —
//!   then merges keep-best and **hot-swaps**: the merged library is
//!   written with the atomic write-tmp-rename idiom and published to the
//!   snapshot slot. Readers are never blocked on a build; they keep
//!   serving the old snapshot until the swap instant. A drain forgets the
//!   key of every job that produced no record, so the next miss queues
//!   it again; the server's [`FailureMemo`] keeps the complete input of
//!   each such job, and the job runner returns the known outcome of a
//!   job whose input has not changed instead of running it again
//!   ([`ServeStats::tune_skipped`]). Another strategy or a warm start
//!   from a newly published family changes the input, and the job runs.
//! - **Reply memo** — dispatch is a pure function of (library snapshot,
//!   query program, target), so each [`ServeSnapshot`] keeps a bounded
//!   LRU from the query's signature key, computed once at admission, to
//!   the query program last dispatched under it and the reply it got. A
//!   repeat is served from it, skipping replay, validation, pricing and
//!   numeric verification; a hit must match the stored program exactly
//!   (the key erases names and constants). A batch consults and fills the
//!   memo in admission order and dispatches only the rest in parallel, so
//!   which replies are memo hits depends on the query log alone, never on
//!   thread timing. The memo lives inside the immutable snapshot, so a hot
//!   swap drops it with the old generation and nothing is ever
//!   invalidated.
//! - **Deterministic latency** — wall-clock latency of an in-process
//!   dispatch is noise; reports need byte-reproducibility. Every reply
//!   carries [`latency_units`], a deterministic work proxy derived from
//!   the dispatch tier and replayed step count, so two fixed-seed load
//!   runs produce identical p50/p99 numbers. A memo hit carries the units
//!   of the dispatch that produced the memoized reply: the proxy describes
//!   the resolution a reply came from, so reports do not depend on what
//!   the memo happened to hold.

use crate::admission::{AdmissionError, AdmissionQueue, TuneQueue};
use crate::builder::{BuildProgress, FailureMemo, LibraryBuilder, Strategy};
use crate::checkpoint::BuildCheckpoint;
use crate::dispatch::{DispatchResult, Disposition};
use crate::library::Library;
use crate::sig::KernelSig;
use perfdojo_core::Target;
use perfdojo_ir::Program;
use perfdojo_kernels::KernelInstance;
use perfdojo_util::lru::LruCache;
use perfdojo_util::par::par_map;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Serving configuration: admission, batching and background tuning.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Admission queue bound; queries beyond it are shed.
    pub queue_capacity: usize,
    /// Queries drained per serving batch (clamped to at least 1).
    pub batch_size: usize,
    /// Strategy for background tune-miss builds.
    pub strategy: Strategy,
    /// Seed for background builds (per-job seeds derive from it).
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 256,
            batch_size: 32,
            strategy: Strategy::Heuristic,
            seed: 0,
        }
    }
}

/// Replies one snapshot's memo keeps; the least recently used is evicted.
const MEMO_CAPACITY: usize = 256;

/// Tune jobs the server's failure memo keeps; the least recently used is
/// evicted.
const FAILURE_MEMO_CAPACITY: usize = 256;

/// An immutable published view of the library, plus the memo of the
/// replies served from it.
///
/// The library and generation never change after publish. The memo only
/// records what dispatch against this library already determined, so it
/// is private to the snapshot and dies with it: every publish starts an
/// empty memo, and no entry outlives its generation. A reply served from
/// the memo is not a dispatch: it counts in [`ServeStats::memo_hits`] and
/// leaves [`crate::dispatch_stats`] alone.
#[derive(Debug)]
pub struct ServeSnapshot {
    /// The library this snapshot serves.
    pub library: Library,
    /// Publish generation: 0 for the initial snapshot, +1 per hot swap.
    pub generation: u64,
    /// Signature key → the query program last dispatched under it and
    /// what the dispatch determined.
    memo: Mutex<LruCache<String, Arc<(Program, Resolution)>>>,
}

impl ServeSnapshot {
    fn new(library: Library, generation: u64) -> ServeSnapshot {
        ServeSnapshot { library, generation, memo: Mutex::new(LruCache::new(MEMO_CAPACITY)) }
    }

    /// The memoized resolution of `program` under `key`. A hit needs the
    /// stored program to equal `program`: the key erases what `Program`'s
    /// equality sees (names, constants), so a key match alone is never
    /// trusted.
    fn recall(&self, key: &str, program: &Program) -> Option<Resolution> {
        let entry = Arc::clone(self.memo.lock().expect("serve memo poisoned").get(key)?);
        (entry.0 == *program).then_some(entry.1)
    }

    /// Keep `resolution` as the answer to `program` under `key`, replacing
    /// whatever the key held.
    fn memoize(&self, key: String, program: Program, resolution: Resolution) {
        let evicted = self
            .memo
            .lock()
            .expect("serve memo poisoned")
            .insert(key, Arc::new((program, resolution)));
        drop(evicted); // freed outside the lock
    }
}

/// How a batch answers one of its queries (see [`Server::serve_batch`]).
enum Plan {
    /// From the snapshot's memo.
    Memo(Resolution),
    /// From the dispatch of the batch's earlier query at this index, which
    /// has the same key and program.
    Twin(usize),
    /// By a dispatch.
    Dispatch,
}

/// One query: a kernel label plus constructor dimensions, resolved to the
/// naive program to serve a schedule for.
#[derive(Clone, Debug)]
pub struct ServeQuery {
    /// Tune-suite kernel label (`softmax`, `matmul`, …).
    pub label: String,
    /// Constructor dimensions (the `by_label_with_shape` arity).
    pub dims: Vec<usize>,
    /// The naive query program.
    pub program: Program,
}

impl ServeQuery {
    /// Build a query for `label` at `dims`; `None` where
    /// `perfdojo_kernels::by_label_with_shape` has no program (an unknown
    /// label, wrong arity, a zero dimension, a convolution image smaller
    /// than its filter).
    pub fn of(label: &str, dims: &[usize]) -> Option<ServeQuery> {
        let program = perfdojo_kernels::by_label_with_shape(label, dims)?;
        Some(ServeQuery { label: label.to_string(), dims: dims.to_vec(), program })
    }

    /// The signature of this query on `target`.
    pub fn sig(&self, target: &Target) -> KernelSig {
        KernelSig::of(&self.program, &target.name)
    }

    /// The signature key of this query on `target`.
    pub fn key(&self, target: &Target) -> String {
        self.sig(target).key()
    }
}

/// How a served query resolved, collapsed to the reporting tiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HitTier {
    /// Exact-signature record replayed.
    Exact,
    /// Parameterized family schedule materialized at the query shape.
    Parameterized,
    /// Nearest-shape record replayed.
    Nearest,
    /// Fresh heuristic pass (a cache miss — enqueues a tune job).
    Heuristic,
    /// Untransformed program served (a cache miss — enqueues a tune job).
    Naive,
}

impl HitTier {
    /// Reporting tag (`exact` / `parameterized` / `nearest` / `heuristic`
    /// / `naive`).
    pub fn tag(&self) -> &'static str {
        match self {
            HitTier::Exact => "exact",
            HitTier::Parameterized => "parameterized",
            HitTier::Nearest => "nearest",
            HitTier::Heuristic => "heuristic",
            HitTier::Naive => "naive",
        }
    }

    /// True for the tiers that mean "the library had nothing cached".
    pub fn is_miss(&self) -> bool {
        matches!(self, HitTier::Heuristic | HitTier::Naive)
    }

    fn of(d: &Disposition) -> HitTier {
        match d {
            Disposition::ExactHit => HitTier::Exact,
            Disposition::Parameterized { .. } => HitTier::Parameterized,
            Disposition::FallbackReplay { .. } => HitTier::Nearest,
            Disposition::FallbackHeuristic => HitTier::Heuristic,
            Disposition::Naive => HitTier::Naive,
        }
    }
}

/// Deterministic dispatch-work proxy for one resolved query, in abstract
/// "steps": the unit latency the serve reports aggregate into p50/p99.
///
/// Wall-clock numbers would make every report timing-dependent; this
/// proxy counts what dispatch *did* — tier fixed cost plus replayed edit
/// steps — and is a pure function of the dispatch result, so fixed-seed
/// load runs reproduce byte-identical latency distributions.
pub fn latency_units(r: &DispatchResult) -> u64 {
    let steps = r.steps.len() as u64;
    match &r.disposition {
        // index probe + strict replay of the recorded steps
        Disposition::ExactHit => 1 + steps,
        // family fit + materialization + lenient replay
        Disposition::Parameterized { .. } => 6 + steps,
        // nearest scan + lenient replay, including the skipped attempts
        Disposition::FallbackReplay { skipped, .. } => 4 + steps + *skipped as u64,
        // a fresh tuning pass is an order of magnitude above a replay
        Disposition::FallbackHeuristic => 32 + 2 * steps,
        // every tier was tried and rejected before giving up
        Disposition::Naive => 16,
    }
}

/// Nearest-rank percentile `q` (0 to 1) of ascending `sorted` values: the
/// element at rank `round((len - 1) * q)`, or 0 for no values. Serve
/// reports aggregate [`latency_units`] with it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Everything a reply reports about how its query resolved; what the
/// snapshot memo keeps per query.
#[derive(Clone, Copy, Debug)]
struct Resolution {
    tier: HitTier,
    latency_units: u64,
    cost: f64,
    naive_cost: f64,
    steps: usize,
}

impl Resolution {
    fn of(r: &DispatchResult) -> Resolution {
        Resolution {
            tier: HitTier::of(&r.disposition),
            latency_units: latency_units(r),
            cost: r.cost,
            naive_cost: r.naive_cost,
            steps: r.steps.len(),
        }
    }

    fn reply(self, label: String, key: String, generation: u64) -> ServeReply {
        ServeReply {
            label,
            key,
            tier: self.tier,
            latency_units: self.latency_units,
            cost: self.cost,
            naive_cost: self.naive_cost,
            steps: self.steps,
            generation,
        }
    }
}

/// One served reply.
#[derive(Clone, Debug)]
pub struct ServeReply {
    /// Kernel label of the query.
    pub label: String,
    /// Signature key of the query.
    pub key: String,
    /// Resolution tier.
    pub tier: HitTier,
    /// Deterministic dispatch-work proxy (see [`latency_units`]).
    pub latency_units: u64,
    /// Served schedule cost (machine-model seconds).
    pub cost: f64,
    /// Naive cost of the query.
    pub naive_cost: f64,
    /// Edit steps in the served schedule.
    pub steps: usize,
    /// Generation of the snapshot that served this reply.
    pub generation: u64,
}

/// Counters over everything the server did so far.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries admitted into the queue.
    pub submitted: u64,
    /// Queries shed because the queue was full.
    pub rejected: u64,
    /// Queries served (batched + direct), memo hits included.
    pub served: u64,
    /// Replies answered from the snapshot's reply memo without a dispatch
    /// (each also counts in `served` and its tier). Dispatches actually
    /// run are the [`crate::dispatch_stats`] deltas: served = memo hits +
    /// dispatches.
    pub memo_hits: u64,
    /// Exact-hit replies.
    pub exact: u64,
    /// Parameterized-schedule replies.
    pub parameterized: u64,
    /// Nearest-shape replies.
    pub nearest: u64,
    /// Fresh-heuristic replies.
    pub heuristic: u64,
    /// Naive replies.
    pub naive: u64,
    /// Tune jobs admitted to the miss queue.
    pub tune_jobs: u64,
    /// Completed tune jobs that produced a library record.
    pub tuned: u64,
    /// Tune jobs a drain did not run because the server's failure memo
    /// held their complete input: a run of the same input produced no
    /// record before, so the outcome was known (each still counts as
    /// unimproved).
    pub tune_skipped: u64,
    /// Hot swaps published.
    pub swaps: u64,
}

#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    served: AtomicU64,
    memo_hits: AtomicU64,
    /// Replies per tier, indexed by `HitTier as usize`.
    tiers: [AtomicU64; HitTier::Naive as usize + 1],
    tune_jobs: AtomicU64,
    tuned: AtomicU64,
}

impl Counters {
    fn count(&self, tier: HitTier) {
        self.tiers[tier as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn tier(&self, tier: HitTier) -> u64 {
        self.tiers[tier as usize].load(Ordering::Relaxed)
    }
}

/// Outcome of one background drain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TuneProgress {
    /// No pending jobs; nothing happened.
    Idle,
    /// The checkpointed build hit its step limit; the old snapshot keeps
    /// serving, rerun the drain to continue.
    Paused,
    /// Jobs tuned and merged; the snapshot at this generation now serves.
    Swapped {
        /// Generation of the published snapshot.
        generation: u64,
        /// Jobs whose tuning produced a record.
        tuned: usize,
        /// Jobs that found no improving schedule (still marked done).
        unimproved: usize,
    },
}

/// The schedule-serving daemon core.
///
/// All methods take `&self`: a `Server` is shared across serving threads
/// as-is (or behind an `Arc`). A batch takes the snapshot's read lock once,
/// and a publish takes its write lock once, for the pointer swap; the
/// other serialization points are the queue mutexes, each snapshot's memo
/// mutex, the failure memo's mutex and the writer mutex around merge+swap.
pub struct Server {
    /// The snapshot every read returns; its `generation` counts the swaps.
    snapshot: RwLock<Arc<ServeSnapshot>>,
    /// Admitted queries with the signature computed at admission.
    admission: AdmissionQueue<(KernelSig, ServeQuery)>,
    /// Missed queries awaiting a tune job, one per signature key.
    tunes: TuneQueue<ServeQuery>,
    /// Serializes merge+publish so concurrent drains cannot lose updates,
    /// and holds the jobs (with their queue keys) a drain took but has not
    /// merged: they survive a paused checkpointed drain so the resume
    /// re-runs the same job list, and the keys let a completed drain forget
    /// jobs that produced nothing.
    writer: Mutex<Vec<(String, ServeQuery)>>,
    /// The complete inputs of tune jobs that produced no record, which
    /// every drain's builder consults and fills.
    failures: Arc<FailureMemo>,
    target: Target,
    config: ServeConfig,
    /// On-disk home of the library; hot swaps persist here atomically.
    disk: Option<PathBuf>,
    counters: Counters,
}

impl Server {
    /// A server over `library` for `target`.
    pub fn new(library: Library, target: Target, mut config: ServeConfig) -> Server {
        // a batch of none would leave every admitted query unanswered
        config.batch_size = config.batch_size.max(1);
        Server {
            snapshot: RwLock::new(Arc::new(ServeSnapshot::new(library, 0))),
            admission: AdmissionQueue::new(config.queue_capacity),
            tunes: TuneQueue::new(),
            writer: Mutex::new(Vec::new()),
            failures: Arc::new(FailureMemo::new(FAILURE_MEMO_CAPACITY)),
            target,
            config,
            disk: None,
            counters: Counters::default(),
        }
    }

    /// Persist hot swaps to `path` (atomic write-tmp-rename on every
    /// publish). The file is *not* written until the first swap.
    pub fn with_disk(mut self, path: PathBuf) -> Server {
        self.disk = Some(path);
        self
    }

    /// The serving target.
    pub fn target(&self) -> &Target {
        &self.target
    }

    /// Replace the tuning strategy for subsequent drains — the operator
    /// move after a drain produced no improvement: retry the same misses
    /// (their keys were forgotten by the failed drain) with a bigger
    /// budget. The strategy is part of the input the failure memo
    /// compares, so the retried jobs run rather than being skipped as known
    /// failures.
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.config.strategy = strategy;
    }

    /// The current snapshot: the latest publish, or the initial library
    /// before any. The argument is ignored.
    pub fn snapshot(&self, _hint: u64) -> Arc<ServeSnapshot> {
        Arc::clone(&self.snapshot.read().expect("serve snapshot poisoned"))
    }

    /// Generation of the latest published snapshot, which is the number of
    /// hot swaps so far.
    pub fn generation(&self) -> u64 {
        self.snapshot.read().expect("serve snapshot poisoned").generation
    }

    /// Queries waiting in the admission queue.
    pub fn queued(&self) -> usize {
        self.admission.len()
    }

    /// Tune jobs waiting for the next drain.
    pub fn pending_tunes(&self) -> usize {
        self.tunes.pending()
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> ServeStats {
        let c = &self.counters;
        ServeStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            served: c.served.load(Ordering::Relaxed),
            memo_hits: c.memo_hits.load(Ordering::Relaxed),
            exact: c.tier(HitTier::Exact),
            parameterized: c.tier(HitTier::Parameterized),
            nearest: c.tier(HitTier::Nearest),
            heuristic: c.tier(HitTier::Heuristic),
            naive: c.tier(HitTier::Naive),
            tune_jobs: c.tune_jobs.load(Ordering::Relaxed),
            tuned: c.tuned.load(Ordering::Relaxed),
            tune_skipped: self.failures.skipped(),
            swaps: self.generation(),
        }
    }

    /// Admit one query, or shed it when the queue is at capacity.
    pub fn submit(&self, query: ServeQuery) -> Result<(), AdmissionError> {
        let sig = query.sig(&self.target);
        match self.admission.try_enqueue(sig.key(), (sig, query)) {
            Ok(()) => {
                self.counters.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Drain up to one batch from the admission queue and resolve it
    /// against one snapshot. Replies come back in admission order; misses
    /// are enqueued (deduplicated) for the next background drain.
    ///
    /// The batch consults and fills the memo in admission order, as if it
    /// served one query at a time: a query is answered from the memo, or
    /// from the dispatch of an earlier query in the batch with the same key
    /// and program, and only the rest are dispatched, concurrently on the
    /// workspace thread pool. So which replies are memo hits depends on the
    /// query log alone, never on thread timing.
    pub fn serve_batch(&self) -> Vec<ServeReply> {
        self.resolve(self.admission.drain_batch(self.config.batch_size))
    }

    /// Resolve one query immediately, bypassing admission (used by tests
    /// and interactive `query`-style callers). Misses still enqueue tune
    /// jobs.
    pub fn lookup_now(&self, query: &ServeQuery) -> ServeReply {
        let sig = query.sig(&self.target);
        let mut replies = self.resolve(vec![(sig.key(), (sig, query.clone()))]);
        replies.pop().expect("one reply per query")
    }

    /// Queue the missed query `job` builds for tuning under `key`, unless
    /// the key was queued before (then `job` never runs).
    fn enqueue_tune(&self, key: &str, job: impl FnOnce() -> ServeQuery) {
        if self.tunes.enqueue_with(key, job) {
            self.counters.tune_jobs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Resolve `batch` (keys, signatures computed at admission, queries)
    /// as [`Server::serve_batch`] describes.
    fn resolve(&self, batch: Vec<(String, (KernelSig, ServeQuery))>) -> Vec<ServeReply> {
        let snap = self.snapshot(0);
        let plans = plan(&snap, &batch);
        let todo: Vec<usize> =
            (0..batch.len()).filter(|&i| matches!(plans[i], Plan::Dispatch)).collect();
        let mut dispatched = par_map(todo, |i| {
            let (_, (sig, query)) = &batch[i];
            Resolution::of(&snap.library.lookup_sig(sig, &query.program, &self.target))
        })
        .into_iter();
        // settle in admission order, so the memo's contents and the tune
        // queue are functions of the query log
        let mut resolved: Vec<Resolution> = Vec::with_capacity(batch.len());
        let mut replies = Vec::with_capacity(batch.len());
        for ((key, (_, query)), plan) in batch.into_iter().zip(plans) {
            let ServeQuery { label, dims, program } = query;
            let (resolution, memo_hit) = match plan {
                Plan::Memo(r) => (r, true),
                Plan::Twin(j) => (resolved[j], true),
                Plan::Dispatch => (dispatched.next().expect("one result per dispatch"), false),
            };
            if memo_hit {
                self.counters.memo_hits.fetch_add(1, Ordering::Relaxed);
            }
            self.counters.served.fetch_add(1, Ordering::Relaxed);
            self.counters.count(resolution.tier);
            if resolution.tier.is_miss() {
                self.enqueue_tune(&key, || ServeQuery {
                    label: label.clone(),
                    dims,
                    program: program.clone(),
                });
            }
            if !memo_hit {
                snap.memoize(key.clone(), program, resolution);
            }
            resolved.push(resolution);
            replies.push(resolution.reply(label, key, snap.generation));
        }
        replies
    }

    /// Drain the tune-miss queue: tune every pending job with the
    /// configured strategy, merge keep-best into the current library, and
    /// hot-swap the result (atomic on-disk save when a disk home is set,
    /// then snapshot publish). Readers keep serving the old snapshot for
    /// the whole build.
    pub fn drain_tunes(&self) -> Result<TuneProgress, String> {
        self.drain_tunes_inner(None, None)
    }

    /// As [`Server::drain_tunes`], but the build runs through the
    /// crash-safe checkpoint layer: progress persists in `ckpt`, and
    /// `step_limit` bounds the tuning steps spent in this call. When the
    /// limit runs out the drain returns [`TuneProgress::Paused`] with the
    /// snapshot and the on-disk library untouched — call again (or rerun
    /// the process against the same checkpoint dir) to continue. A drain
    /// that completes resets the checkpoint's job progress (its parts and
    /// in-flight states), so one directory serves every drain of a
    /// long-running server in sequence.
    pub fn drain_tunes_checkpointed(
        &self,
        ckpt: &BuildCheckpoint,
        step_limit: Option<u64>,
    ) -> Result<TuneProgress, String> {
        self.drain_tunes_inner(Some(ckpt), step_limit)
    }

    fn drain_tunes_inner(
        &self,
        ckpt: Option<&BuildCheckpoint>,
        step_limit: Option<u64>,
    ) -> Result<TuneProgress, String> {
        let mut jobs = self.writer.lock().expect("serve writer poisoned");
        // a paused drain left jobs in flight: finish those before new ones
        if jobs.is_empty() {
            *jobs = self.tunes.drain();
        }
        if jobs.is_empty() {
            return Ok(TuneProgress::Idle);
        }
        let kernels: Vec<KernelInstance> = jobs
            .iter()
            .map(|(_, q)| KernelInstance::at(&q.label, &q.dims, q.program.clone()))
            .collect();
        let targets = [self.target.clone()];
        // the snapshot this drain warms from and merges into; holding
        // `writer`, nothing can publish over it
        let current = self.snapshot(0);
        // warm-start tune jobs from the served snapshot's family schedules:
        // a miss near a tuned family begins from the transferred schedule
        // instead of the empty program. Jobs already in flight from a paused
        // drain resume from their checkpointed search state, which embeds
        // the warm start they began with. The failure memo is consulted
        // per job by the job runner, not by filtering `jobs`, so plain,
        // checkpointed and step-limited drains decide alike for one input.
        let builder = LibraryBuilder::new(self.config.strategy, self.config.seed)
            .with_warm_from(&current.library)
            .with_failure_memo(Arc::clone(&self.failures));

        // build into a scratch library so the served snapshot is untouched
        // until the merge below publishes a complete replacement; it ends up
        // holding every job's record (a checkpointed drain reads the jobs
        // its earlier slices finished from their parts)
        let mut scratch = Library::new();
        match ckpt {
            None => {
                builder.build_into(&mut scratch, &kernels, &targets);
            }
            Some(ckpt) => {
                let (progress, ..) = builder.build_into_checkpointed(
                    &mut scratch,
                    &kernels,
                    &targets,
                    ckpt,
                    step_limit,
                )?;
                if progress == BuildProgress::Paused {
                    return Ok(TuneProgress::Paused);
                }
            }
        }

        // jobs that produced no record keep the shape re-tunable: forget
        // their queue keys after this drain completes, so a future miss can
        // enqueue them again. A later drain runs such a job only if its
        // input changed (another strategy, a warm start from a newly
        // published family); else the failure memo knows the outcome
        let failed_keys: Vec<String> = jobs
            .iter()
            .filter(|(_, j)| scratch.get(&KernelSig::of(&j.program, &self.target.name)).is_none())
            .map(|(k, _)| k.clone())
            .collect();
        let unimproved = failed_keys.len();
        let tuned = jobs.len() - unimproved;
        let mut merged = current.library.clone();
        merged.merge(scratch.records().cloned());
        self.counters.tuned.fetch_add(tuned as u64, Ordering::Relaxed);
        let generation = self.publish_locked(merged)?;
        // this drain is merged and published: clear the checkpoint's job
        // progress, since a later drain may queue a job of the same id
        // under another warm start
        if let Some(ckpt) = ckpt {
            ckpt.reset()
                .map_err(|e| format!("checkpoint dir {}: {e}", ckpt.dir().display()))?;
        }
        for key in &failed_keys {
            self.tunes.forget(key);
        }
        jobs.clear();
        Ok(TuneProgress::Swapped { generation, tuned, unimproved })
    }

    /// Publish `library` as the new snapshot (atomic on-disk save first
    /// when a disk home is configured). Callers outside the drain path —
    /// e.g. an external rebuild — use this to hot-swap directly.
    pub fn publish(&self, library: Library) -> Result<u64, String> {
        let _writer = self.writer.lock().expect("serve writer poisoned");
        self.publish_locked(library)
    }

    /// Save and publish `library` as the next generation; the caller holds
    /// `writer`, so the current generation cannot move under it.
    fn publish_locked(&self, library: Library) -> Result<u64, String> {
        if let Some(path) = &self.disk {
            library.save(path).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let generation = self.generation() + 1;
        let next = Arc::new(ServeSnapshot::new(library, generation));
        let old =
            std::mem::replace(&mut *self.snapshot.write().expect("serve snapshot poisoned"), next);
        drop(old); // freed outside the lock
        Ok(generation)
    }
}

/// Plan each query of `batch` on `snap`, in admission order: a query is
/// answered from the memo, from an earlier query of the batch planned for
/// dispatch under the same key with an equal program, or by a dispatch of
/// its own.
fn plan(snap: &ServeSnapshot, batch: &[(String, (KernelSig, ServeQuery))]) -> Vec<Plan> {
    // per key, the latest query of the batch planned for dispatch: what the
    // memo will hold for the key once the batch settles that far
    let mut planned: HashMap<&str, usize> = HashMap::new();
    let mut plans = Vec::with_capacity(batch.len());
    for (i, (key, (_, query))) in batch.iter().enumerate() {
        let answer = match planned.get(key.as_str()) {
            Some(&j) => (batch[j].1 .1.program == query.program).then_some(Plan::Twin(j)),
            None => snap.recall(key, &query.program).map(Plan::Memo),
        };
        plans.push(answer.unwrap_or_else(|| {
            planned.insert(key, i);
            Plan::Dispatch
        }));
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuned_server(config: ServeConfig) -> Server {
        let target = Target::x86();
        let kernels: Vec<KernelInstance> = perfdojo_kernels::tune_suite()
            .into_iter()
            .filter(|k| ["softmax", "matmul"].contains(&k.label.as_str()))
            .collect();
        let mut lib = Library::new();
        LibraryBuilder::new(Strategy::Heuristic, 3).build_into(
            &mut lib,
            &kernels,
            std::slice::from_ref(&target),
        );
        assert!(!lib.is_empty());
        Server::new(lib, target, config)
    }

    #[test]
    fn batch_serving_hits_all_tiers_and_queues_misses() {
        let server = tuned_server(ServeConfig::default());
        // exact (tuned shape), nearest (unseen softmax shape), miss
        // (rmsnorm was never tuned)
        for (label, dims) in
            [("softmax", vec![64, 64]), ("softmax", vec![96, 64]), ("rmsnorm", vec![64, 64])]
        {
            server.submit(ServeQuery::of(label, &dims).unwrap()).unwrap();
        }
        let replies = server.serve_batch();
        assert_eq!(replies.len(), 3);
        assert_eq!(replies[0].tier, HitTier::Exact);
        assert_eq!(replies[1].tier, HitTier::Nearest);
        assert!(replies[2].tier.is_miss(), "{:?}", replies[2].tier);
        assert!(replies.iter().all(|r| r.generation == 0));
        // replay costs replayed; miss latency dominates cached latency
        assert!(replies[2].latency_units > replies[0].latency_units);
        assert_eq!(server.pending_tunes(), 1);
        let s = server.stats();
        assert_eq!((s.submitted, s.served, s.exact, s.nearest), (3, 3, 1, 1));
        assert_eq!(s.tune_jobs, 1);
    }

    #[test]
    fn admission_sheds_load_at_capacity() {
        let server = tuned_server(ServeConfig { queue_capacity: 2, ..ServeConfig::default() });
        let q = ServeQuery::of("softmax", &[64, 64]).unwrap();
        server.submit(q.clone()).unwrap();
        server.submit(q.clone()).unwrap();
        assert_eq!(server.submit(q.clone()), Err(AdmissionError::Full));
        assert_eq!(server.stats().rejected, 1);
        assert_eq!(server.serve_batch().len(), 2);
        server.submit(q).unwrap();
    }

    #[test]
    fn a_zero_batch_size_still_answers() {
        let server = tuned_server(ServeConfig { batch_size: 0, ..ServeConfig::default() });
        server.submit(ServeQuery::of("softmax", &[64, 64]).unwrap()).unwrap();
        let replies = server.serve_batch();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].tier, HitTier::Exact);
        assert_eq!(server.queued(), 0);
    }

    #[test]
    fn drain_tunes_swaps_and_converts_miss_to_exact() {
        let server = tuned_server(ServeConfig::default());
        let q = ServeQuery::of("rmsnorm", &[64, 64]).unwrap();
        assert!(server.lookup_now(&q).tier.is_miss());
        assert_eq!(server.pending_tunes(), 1);
        let progress = server.drain_tunes().unwrap();
        match progress {
            TuneProgress::Swapped { generation, tuned, .. } => {
                assert_eq!(generation, 1);
                assert_eq!(tuned, 1);
            }
            p => panic!("expected swap, got {p:?}"),
        }
        // the same query now resolves from the swapped snapshot
        let r = server.lookup_now(&q);
        assert_eq!(r.tier, HitTier::Exact);
        assert_eq!(r.generation, 1);
        // and a repeat drain has nothing to do (miss deduped, now a hit)
        assert_eq!(server.drain_tunes().unwrap(), TuneProgress::Idle);
    }

    /// A [`tuned_server`] whose drains tune with a zero-budget anneal,
    /// under which every job fails.
    fn failing_server() -> Server {
        tuned_server(ServeConfig {
            strategy: Strategy::Anneal { budget: 0 },
            ..ServeConfig::default()
        })
    }

    /// Serve `q` as a miss, which queues its tune job, then drain.
    fn miss_and_drain(server: &Server, q: &ServeQuery) -> TuneProgress {
        assert!(server.lookup_now(q).tier.is_miss(), "{} must miss", q.label);
        server.drain_tunes().unwrap()
    }

    #[test]
    fn a_known_failure_is_not_run_again() {
        let q = ServeQuery::of("rmsnorm", &[32, 32]).unwrap();
        let server = failing_server();
        let first = miss_and_drain(&server, &q);
        assert_eq!(first, TuneProgress::Swapped { generation: 1, tuned: 0, unimproved: 1 });
        assert_eq!(server.stats().tune_skipped, 0);
        // the drain forgot the failed key, so the next miss queues the same
        // job, and the next drain knows its outcome
        let second = miss_and_drain(&server, &q);
        assert_eq!(second, TuneProgress::Swapped { generation: 2, tuned: 0, unimproved: 1 });
        let s = server.stats();
        assert_eq!((s.tune_jobs, s.tuned, s.tune_skipped), (2, 0, 1));
        let fresh = failing_server();
        miss_and_drain(&fresh, &q);
        assert_eq!(server.snapshot(0).library.to_text(), fresh.snapshot(0).library.to_text());
    }

    #[test]
    fn a_known_failure_runs_again_under_another_strategy() {
        let q = ServeQuery::of("rmsnorm", &[32, 32]).unwrap();
        let mut server = failing_server();
        miss_and_drain(&server, &q);
        server.set_strategy(Strategy::Heuristic);
        let retried = miss_and_drain(&server, &q);
        assert_eq!(retried, TuneProgress::Swapped { generation: 2, tuned: 1, unimproved: 0 });
        assert_eq!(server.stats().tune_skipped, 0);
        assert_eq!(server.lookup_now(&q).tier, HitTier::Exact);
    }

    #[test]
    fn a_known_failure_runs_again_once_its_family_fits() {
        let q = ServeQuery::of("rmsnorm", &[32, 32]).unwrap();
        let server = failing_server();
        miss_and_drain(&server, &q);
        // queued again, then a publish gives the rmsnorm family a fit, so
        // the job's warm start (and with it its input) changes
        assert!(server.lookup_now(&q).tier.is_miss());
        let family: Vec<KernelInstance> = [[64, 64], [16, 64]]
            .iter()
            .map(|dims| {
                let program = perfdojo_kernels::by_label_with_shape("rmsnorm", dims).unwrap();
                KernelInstance::at("rmsnorm", dims, program)
            })
            .collect();
        let mut lib = server.snapshot(0).library.clone();
        LibraryBuilder::new(Strategy::Heuristic, 3).build_into(
            &mut lib,
            &family,
            std::slice::from_ref(server.target()),
        );
        let job = KernelInstance::at("rmsnorm", &[32, 32], q.program.clone());
        let warm = LibraryBuilder::new(Strategy::Heuristic, 0).with_warm_from(&lib);
        assert!(!warm.warm_steps(&job, server.target()).is_empty(), "the family must fit");
        assert_eq!(server.publish(lib).unwrap(), 2);
        let rerun = server.drain_tunes().unwrap();
        assert_eq!(rerun, TuneProgress::Swapped { generation: 3, tuned: 0, unimproved: 1 });
        assert_eq!(server.stats().tune_skipped, 0);
    }

    #[test]
    fn duplicate_misses_dedupe_to_one_tune_job() {
        let server = tuned_server(ServeConfig::default());
        for _ in 0..4 {
            server.submit(ServeQuery::of("rmsnorm", &[64, 64]).unwrap()).unwrap();
        }
        let replies = server.serve_batch();
        assert_eq!(replies.len(), 4);
        assert_eq!(server.pending_tunes(), 1, "miss storm must collapse to one job");
        assert_eq!(server.stats().tune_jobs, 1);
    }

    #[test]
    fn hot_swap_persists_to_disk_atomically() {
        let dir = std::env::temp_dir().join(format!("pdl-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.pdl");
        let server = tuned_server(ServeConfig::default()).with_disk(path.clone());
        assert!(!path.exists(), "no swap yet, no file yet");
        server.lookup_now(&ServeQuery::of("rmsnorm", &[64, 64]).unwrap());
        server.drain_tunes().unwrap();
        let (ondisk, stats) = Library::load(&path).unwrap();
        assert_eq!(stats.corrupt_entries, 0);
        assert_eq!(ondisk.to_text(), server.snapshot(0).library.to_text());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Submit `query` alone and serve it as a batch of one.
    fn serve_one(server: &Server, query: &ServeQuery) -> ServeReply {
        server.submit(query.clone()).unwrap();
        let mut replies = server.serve_batch();
        assert_eq!(replies.len(), 1);
        replies.pop().unwrap()
    }

    /// Every reply field, costs as bit patterns.
    fn fields(r: &ServeReply) -> (String, String, HitTier, u64, u64, u64, usize, u64) {
        (
            r.label.clone(),
            r.key.clone(),
            r.tier,
            r.latency_units,
            r.cost.to_bits(),
            r.naive_cost.to_bits(),
            r.steps,
            r.generation,
        )
    }

    #[test]
    fn memo_repeats_replies_and_counts_them_like_dispatches() {
        const K: u64 = 5;
        let server = tuned_server(ServeConfig::default());
        let queries: Vec<ServeQuery> =
            [("softmax", vec![64, 64]), ("softmax", vec![96, 64]), ("rmsnorm", vec![64, 64])]
                .iter()
                .map(|(label, dims)| ServeQuery::of(label, dims).unwrap())
                .collect();
        let mut first: Vec<ServeReply> = Vec::new();
        for round in 0..K {
            for q in &queries {
                server.submit(q.clone()).unwrap();
            }
            let replies = server.serve_batch();
            if round == 0 {
                let tiers: Vec<HitTier> = replies.iter().map(|r| r.tier).collect();
                assert_eq!(tiers, [HitTier::Exact, HitTier::Nearest, HitTier::Heuristic]);
                first = replies;
                continue;
            }
            for (a, b) in first.iter().zip(&replies) {
                assert_eq!(fields(a), fields(b), "round {round}: a repeat differs from the first");
            }
        }
        let s = server.stats();
        assert_eq!(s.served, 3 * K);
        assert_eq!(s.memo_hits, 3 * (K - 1), "every repeat must come from the memo");
        assert_eq!((s.exact, s.nearest, s.heuristic), (K, K, K), "memo hits count their tier");
        assert_eq!((s.parameterized, s.naive), (0, 0));
        assert_eq!(s.tune_jobs, 1);
        assert_eq!(server.pending_tunes(), 1);
    }

    #[test]
    fn memo_entries_do_not_outlive_their_generation() {
        let server = tuned_server(ServeConfig::default());
        let q = ServeQuery::of("rmsnorm", &[64, 64]).unwrap();
        let miss = serve_one(&server, &q);
        assert!(miss.tier.is_miss(), "{:?}", miss.tier);
        assert_eq!(miss.generation, 0);
        assert_eq!(fields(&serve_one(&server, &q)), fields(&miss));
        assert_eq!(server.stats().memo_hits, 1);
        let swapped = server.drain_tunes().unwrap();
        assert!(matches!(swapped, TuneProgress::Swapped { generation: 1, .. }), "{swapped:?}");
        // the swap dropped generation 0's memo: the miss is not replayed
        let hit = serve_one(&server, &q);
        assert_eq!((hit.tier, hit.generation), (HitTier::Exact, 1));
        assert_eq!(server.stats().memo_hits, 1);
        // generation 1 memoizes its own answer
        assert_eq!(fields(&serve_one(&server, &q)), fields(&hit));
        assert_eq!(server.stats().memo_hits, 2);
    }

    #[test]
    fn memo_hit_requires_the_same_program() {
        let server = tuned_server(ServeConfig::default());
        let a = ServeQuery::of("softmax", &[64, 64]).unwrap();
        let mut b = a.clone();
        b.program.name = String::from("softmax_renamed");
        // the signature erases the kernel name; program equality does not
        assert_eq!(a.key(server.target()), b.key(server.target()));
        assert_ne!(a.program, b.program);
        let hits = || server.stats().memo_hits;
        serve_one(&server, &a);
        serve_one(&server, &b);
        assert_eq!(hits(), 0, "b was served from a's entry");
        serve_one(&server, &b);
        assert_eq!(hits(), 1, "b's repeat must hit");
        // a key holds one program: b's dispatch replaced a's entry
        serve_one(&server, &a);
        assert_eq!(hits(), 1, "a was served from b's entry");
        serve_one(&server, &a);
        assert_eq!(hits(), 2, "a's repeat must hit");
        assert_eq!(server.stats().served, 5);
    }

    #[test]
    fn a_batch_answers_repeats_in_admission_order() {
        // two batches of [a, a, a', a, r, a, n, r] x 4, where a' is a with
        // another name (same key, different program): within a batch, a
        // copy is answered by the dispatch of the latest earlier query
        // under its key if that query's program is equal, so the count of
        // memo hits is a function of the log, whatever the thread timing
        let run = || {
            let server = tuned_server(ServeConfig::default());
            let a = ServeQuery::of("softmax", &[64, 64]).unwrap();
            let mut renamed = a.clone();
            renamed.program.name = String::from("softmax_renamed");
            let r = ServeQuery::of("rmsnorm", &[64, 64]).unwrap();
            let n = ServeQuery::of("softmax", &[96, 64]).unwrap();
            let log = [&a, &a, &renamed, &a, &r, &a, &n, &r];
            let mut replies = Vec::new();
            for _ in 0..2 {
                for _ in 0..4 {
                    for q in log {
                        server.submit(q.clone()).unwrap();
                    }
                }
                let batch = server.serve_batch();
                assert_eq!(batch.len(), 32);
                replies.extend(batch.iter().map(fields));
            }
            (server.stats(), replies)
        };
        let (stats, replies) = run();
        // batch 1 dispatches a, a', a, r and n, then a' and a in each later
        // round (21 hits); batch 2 finds a, r and n in the memo and
        // dispatches a' and a per round (24 hits)
        assert_eq!(stats.served, 64);
        assert_eq!(stats.memo_hits, 21 + 24);
        assert_eq!((stats.exact, stats.nearest, stats.heuristic), (40, 8, 16));
        assert_eq!(stats.tune_jobs, 1);
        for (i, reply) in replies.iter().enumerate() {
            // every copy of a query gets the same reply
            assert_eq!(*reply, replies[i % 8], "reply {i}");
        }
        for _ in 0..3 {
            assert_eq!(run(), (stats.clone(), replies.clone()), "a rerun served differently");
        }
    }

    #[test]
    fn latency_units_are_tiered() {
        let server = tuned_server(ServeConfig::default());
        let exact = server.lookup_now(&ServeQuery::of("softmax", &[64, 64]).unwrap());
        let nearest = server.lookup_now(&ServeQuery::of("softmax", &[96, 64]).unwrap());
        let miss = server.lookup_now(&ServeQuery::of("rmsnorm", &[64, 64]).unwrap());
        assert!(exact.latency_units >= 1 + exact.steps as u64);
        assert!(nearest.latency_units > exact.steps as u64);
        assert!(miss.latency_units > nearest.latency_units.min(exact.latency_units));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 0.5), 51);
        assert_eq!(percentile(&v, 1.0), 100);
    }
}
