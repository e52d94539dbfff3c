//! The schedule-serving tier: a long-running, concurrent front end over a
//! shared read-mostly [`Library`].
//!
//! This is the paper's end product made operational: applications query a
//! *generated ML library* at runtime, so the batch `perfdojo-lib` pipeline
//! grows a daemon-shaped core here. The moving parts:
//!
//! - **Shared snapshot** — the current library lives in an immutable
//!   [`ServeSnapshot`] behind a [`ShardedSlot`]: readers resolve against
//!   whatever complete snapshot their shard holds; a hot swap can never
//!   expose a half-merged library.
//! - **Batched admission** — queries enter through a bounded
//!   [`AdmissionQueue`] and are served in batches on the workspace thread
//!   pool (`perfdojo_util::par`). At capacity the server sheds load
//!   instead of buffering unboundedly.
//! - **Tune-miss queue** — queries that resolved below the replay tiers
//!   (fresh heuristic or naive) become deduplicated [`TuneJob`]s. A
//!   background drain runs the normal [`LibraryBuilder`] — optionally
//!   through the crash-safe checkpoint layer, so tuning is preemptible —
//!   then merges keep-best and **hot-swaps**: the merged library is
//!   written with the atomic write-tmp-rename idiom and published to the
//!   snapshot slot. Readers are never blocked on a build; they keep
//!   serving the old snapshot until the swap instant.
//! - **Deterministic latency** — wall-clock latency of an in-process
//!   dispatch is noise; reports need byte-reproducibility. Every reply
//!   carries [`latency_units`], a deterministic work proxy derived from
//!   the dispatch tier and replayed step count, so two fixed-seed load
//!   runs produce identical p50/p99 numbers.

use crate::admission::{AdmissionError, AdmissionQueue, TuneQueue};
use crate::builder::{BuildProgress, LibraryBuilder, Strategy};
use crate::checkpoint::BuildCheckpoint;
use crate::dispatch::{DispatchResult, Disposition};
use crate::library::Library;
use crate::sig::KernelSig;
use perfdojo_core::Target;
use perfdojo_ir::fingerprint::fnv1a;
use perfdojo_ir::Program;
use perfdojo_kernels::KernelInstance;
use perfdojo_util::par::par_map;
use perfdojo_util::sharded::ShardedSlot;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Serving configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Lock shards for the snapshot slot.
    pub shards: usize,
    /// Admission queue bound; queries beyond it are shed.
    pub queue_capacity: usize,
    /// Queries drained per serving batch.
    pub batch_size: usize,
    /// Strategy for background tune-miss builds.
    pub strategy: Strategy,
    /// Seed for background builds (per-job seeds derive from it).
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: 8,
            queue_capacity: 256,
            batch_size: 32,
            strategy: Strategy::Heuristic,
            seed: 0,
        }
    }
}

/// An immutable published view of the library.
#[derive(Clone, Debug)]
pub struct ServeSnapshot {
    /// The library this snapshot serves.
    pub library: Library,
    /// Publish generation: 0 for the initial snapshot, +1 per hot swap.
    pub generation: u64,
}

/// The graph-tier half of a block query: the structural subgraph
/// fingerprint to dispatch on, plus the per-node queries to fall back to
/// when the library has no block record.
#[derive(Clone, Debug)]
pub struct BlockQuery {
    /// Structural subgraph fingerprint (`perfdojo_graph::fingerprint`).
    pub fingerprint: u64,
    /// Composed-program shape vector (flattened buffer extents).
    pub shape: Vec<usize>,
    /// Per-node queries in canonical order, for the fallback path.
    pub parts: Vec<ServeQuery>,
    /// Edge-materialization cost the per-node path pays (model seconds).
    pub edge_cost: f64,
}

/// One query: a kernel label plus constructor dimensions, resolved to the
/// naive program to serve a schedule for. A query carrying a
/// [`BlockQuery`] asks for a whole subgraph instead: it dispatches on the
/// block's subgraph signature and falls back to per-node dispatch on a
/// block miss.
#[derive(Clone, Debug)]
pub struct ServeQuery {
    /// Tune-suite kernel label (`softmax`, `matmul`, …) or `graph:<name>`.
    pub label: String,
    /// Constructor dimensions (the `by_label_with_shape` arity), or the
    /// composed shape vector for block queries.
    pub dims: Vec<usize>,
    /// The naive query program (the composed program for block queries).
    pub program: Program,
    /// Present for block (subgraph) queries.
    pub block: Option<BlockQuery>,
}

impl ServeQuery {
    /// Build a query for `label` at `dims`; `None` for unknown labels or
    /// wrong arity.
    pub fn of(label: &str, dims: &[usize]) -> Option<ServeQuery> {
        let program = perfdojo_kernels::by_label_with_shape(label, dims)?;
        Some(ServeQuery { label: label.to_string(), dims: dims.to_vec(), program, block: None })
    }

    /// Build a block query for a composed subgraph. `parts` are the
    /// per-node fallback queries in canonical order; `edge_cost` is what
    /// the per-node path pays to materialize the interior edges.
    pub fn block(
        label: &str,
        program: Program,
        fingerprint: u64,
        shape: Vec<usize>,
        parts: Vec<ServeQuery>,
        edge_cost: f64,
    ) -> ServeQuery {
        ServeQuery {
            label: label.to_string(),
            dims: shape.clone(),
            program,
            block: Some(BlockQuery { fingerprint, shape, parts, edge_cost }),
        }
    }

    /// The signature of this query on `target` (subgraph-class for block
    /// queries).
    pub fn sig(&self, target: &Target) -> KernelSig {
        match &self.block {
            Some(b) => KernelSig::subgraph(b.fingerprint, b.shape.clone(), &target.name),
            None => KernelSig::of(&self.program, &target.name),
        }
    }

    /// The signature key of this query on `target`.
    pub fn key(&self, target: &Target) -> String {
        self.sig(target).key()
    }
}

/// How a served query resolved, collapsed to the reporting tiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
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
    /// Queries served (batched + direct).
    pub served: u64,
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
    /// Hot swaps published.
    pub swaps: u64,
    /// Block queries answered by an exact subgraph record.
    pub block_exact: u64,
    /// Block queries answered by a nearest-shape subgraph record.
    pub block_nearest: u64,
    /// Block queries that fell back to per-node dispatch.
    pub block_fallback: u64,
}

#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    served: AtomicU64,
    /// Replies per tier, indexed by `HitTier as usize`.
    tiers: [AtomicU64; HitTier::Naive as usize + 1],
    tune_jobs: AtomicU64,
    tuned: AtomicU64,
    block_exact: AtomicU64,
    block_nearest: AtomicU64,
    block_fallback: AtomicU64,
}

impl Counters {
    fn count(&self, tier: HitTier) {
        self.tiers[tier as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn tier(&self, tier: HitTier) -> u64 {
        self.tiers[tier as usize].load(Ordering::Relaxed)
    }
}

/// A deferred tune job for one missed query.
#[derive(Clone, Debug)]
pub struct TuneJob {
    /// Kernel label.
    pub label: String,
    /// Constructor dimensions.
    pub dims: Vec<usize>,
    /// The naive program to tune.
    pub program: Program,
    /// When set, the produced record is re-keyed under this signature
    /// instead of the program's own — block (subgraph) jobs tune the
    /// composed program but must land under the subgraph key.
    pub sig_override: Option<KernelSig>,
}

impl TuneJob {
    /// The signature the job's record must be keyed under.
    fn final_sig(&self, target: &Target) -> KernelSig {
        self.sig_override.clone().unwrap_or_else(|| KernelSig::of(&self.program, &target.name))
    }

    fn kernel(&self) -> KernelInstance {
        let shape =
            self.dims.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("x");
        KernelInstance {
            label: self.label.clone(),
            shape,
            description: String::from("serve tune-miss"),
            program: self.program.clone(),
            verify_program: self.program.clone(),
        }
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
/// as-is (or behind an `Arc`). Reads go through the sharded snapshot
/// slot; the only internal serialization points are the queue mutexes and
/// the writer mutex around merge+swap.
pub struct Server {
    slot: ShardedSlot<ServeSnapshot>,
    admission: AdmissionQueue<ServeQuery>,
    tunes: TuneQueue<TuneJob>,
    /// Jobs (with their queue keys) drained but not yet merged (survives a
    /// paused checkpointed drain so the resume re-runs the same job list;
    /// the keys let a completed drain forget jobs that produced nothing).
    inflight: Mutex<Vec<(String, TuneJob)>>,
    /// Serializes merge+publish so concurrent drains cannot lose updates.
    writer: Mutex<()>,
    target: Target,
    config: ServeConfig,
    /// On-disk home of the library; hot swaps persist here atomically.
    disk: Option<PathBuf>,
    counters: Counters,
}

impl Server {
    /// A server over `library` for `target`.
    pub fn new(library: Library, target: Target, config: ServeConfig) -> Server {
        let snapshot = ServeSnapshot { library, generation: 0 };
        Server {
            slot: ShardedSlot::new(snapshot, config.shards),
            admission: AdmissionQueue::new(config.queue_capacity),
            tunes: TuneQueue::new(),
            inflight: Mutex::new(Vec::new()),
            writer: Mutex::new(()),
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
    /// budget.
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.config.strategy = strategy;
    }

    /// The current snapshot (readers pass a spread hint; see
    /// [`ShardedSlot::read`]).
    pub fn snapshot(&self, hint: u64) -> Arc<ServeSnapshot> {
        self.slot.read(hint)
    }

    /// Generation of the latest published snapshot.
    pub fn generation(&self) -> u64 {
        self.slot.generation()
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
            exact: c.tier(HitTier::Exact),
            parameterized: c.tier(HitTier::Parameterized),
            nearest: c.tier(HitTier::Nearest),
            heuristic: c.tier(HitTier::Heuristic),
            naive: c.tier(HitTier::Naive),
            tune_jobs: c.tune_jobs.load(Ordering::Relaxed),
            tuned: c.tuned.load(Ordering::Relaxed),
            swaps: self.slot.generation(),
            block_exact: c.block_exact.load(Ordering::Relaxed),
            block_nearest: c.block_nearest.load(Ordering::Relaxed),
            block_fallback: c.block_fallback.load(Ordering::Relaxed),
        }
    }

    /// Admit one query, or shed it when the queue is at capacity.
    pub fn submit(&self, query: ServeQuery) -> Result<(), AdmissionError> {
        let key = query.key(&self.target);
        match self.admission.try_enqueue(key, query) {
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
    /// concurrently on the workspace thread pool. Replies come back in
    /// admission order; misses are enqueued (deduplicated) for the next
    /// background drain.
    pub fn serve_batch(&self) -> Vec<ServeReply> {
        let batch = self.admission.drain_batch(self.config.batch_size);
        if batch.is_empty() {
            return Vec::new();
        }
        let replies = par_map(batch, |(key, query)| self.resolve(&key, &query));
        // enqueue misses in reply (admission) order so the tune queue is
        // deterministic under a deterministic query log (resolve returns a
        // job exactly when the query missed its cached tier)
        for (reply, job) in &replies {
            if let Some(job) = job {
                if self.tunes.enqueue(reply.key.clone(), job.clone()) {
                    self.counters.tune_jobs.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        replies.into_iter().map(|(reply, _)| reply).collect()
    }

    /// Resolve one query immediately, bypassing admission (used by tests
    /// and interactive `query`-style callers). Misses still enqueue tune
    /// jobs.
    pub fn lookup_now(&self, query: &ServeQuery) -> ServeReply {
        let key = query.key(&self.target);
        let (reply, job) = self.resolve(&key, query);
        if let Some(job) = job {
            if self.tunes.enqueue(key, job) {
                self.counters.tune_jobs.fetch_add(1, Ordering::Relaxed);
            }
        }
        reply
    }

    fn resolve(&self, key: &str, query: &ServeQuery) -> (ServeReply, Option<TuneJob>) {
        if query.block.is_some() {
            return self.resolve_block(key, query);
        }
        let snap = self.slot.read(fnv1a(key.as_bytes()));
        let r = snap.library.lookup(&query.program, &self.target);
        let tier = HitTier::of(&r.disposition);
        self.counters.served.fetch_add(1, Ordering::Relaxed);
        self.counters.count(tier);
        let job = tier.is_miss().then(|| TuneJob {
            label: query.label.clone(),
            dims: query.dims.clone(),
            program: query.program.clone(),
            sig_override: None,
        });
        let reply = ServeReply {
            label: query.label.clone(),
            key: key.to_string(),
            tier,
            latency_units: latency_units(&r),
            cost: r.cost,
            naive_cost: r.naive_cost,
            steps: r.steps.len(),
            generation: snap.generation,
        };
        (reply, job)
    }

    /// Resolve a block (subgraph) query: try the cached replay tiers under
    /// the subgraph signature first; on a block miss, answer by per-node
    /// dispatch over the query's parts (each node through the full tier
    /// stack, edges priced at the caller-supplied materialization cost)
    /// and enqueue a block tune job so the next drain learns the block.
    fn resolve_block(&self, key: &str, query: &ServeQuery) -> (ServeReply, Option<TuneJob>) {
        let block = query.block.as_ref().expect("resolve_block without block");
        let sig = query.sig(&self.target);
        let snap = self.slot.read(fnv1a(key.as_bytes()));
        self.counters.served.fetch_add(1, Ordering::Relaxed);
        if let Some(r) = snap.library.lookup_cached(&sig, &query.program, &self.target) {
            // the cached tiers only: exact, parameterized or nearest
            let tier = HitTier::of(&r.disposition);
            self.counters.count(tier);
            match tier {
                HitTier::Exact => &self.counters.block_exact,
                _ => &self.counters.block_nearest,
            }
            .fetch_add(1, Ordering::Relaxed);
            let reply = ServeReply {
                label: query.label.clone(),
                key: key.to_string(),
                tier,
                latency_units: latency_units(&r),
                cost: r.cost,
                naive_cost: r.naive_cost,
                steps: r.steps.len(),
                generation: snap.generation,
            };
            return (reply, None);
        }
        // block miss: per-node tiered dispatch, aggregated
        self.counters.block_fallback.fetch_add(1, Ordering::Relaxed);
        let mut cost = block.edge_cost;
        let mut naive_cost = block.edge_cost;
        let mut latency = 2; // block probe + fallback decision
        let mut steps = 0usize;
        let mut tier = HitTier::Exact;
        for part in &block.parts {
            let r = snap.library.lookup(&part.program, &self.target);
            let t = HitTier::of(&r.disposition);
            self.counters.count(t);
            cost += r.cost;
            naive_cost += r.naive_cost;
            latency += latency_units(&r);
            steps += r.steps.len();
            tier = tier.max(t); // worst tier wins the aggregate
        }
        // a block miss always schedules block tuning, even when every part
        // replayed: the block record (fusion + layout) is what's missing
        let job = Some(TuneJob {
            label: query.label.clone(),
            dims: query.dims.clone(),
            program: query.program.clone(),
            sig_override: Some(sig),
        });
        let reply = ServeReply {
            label: query.label.clone(),
            key: key.to_string(),
            tier,
            latency_units: latency,
            cost,
            naive_cost,
            steps,
            generation: snap.generation,
        };
        (reply, job)
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
    /// that completes resets the checkpoint's job progress (done list,
    /// partial library, in-flight state), so one directory serves every
    /// drain of a long-running server in sequence.
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
        let _writer = self.writer.lock().expect("serve writer poisoned");
        // a paused drain left jobs in flight: finish those before new ones
        let jobs: Vec<(String, TuneJob)> = {
            let mut inflight = self.inflight.lock().expect("serve inflight poisoned");
            if inflight.is_empty() {
                *inflight = self.tunes.drain();
            }
            inflight.clone()
        };
        if jobs.is_empty() {
            return Ok(TuneProgress::Idle);
        }
        let kernels: Vec<KernelInstance> = jobs.iter().map(|(_, j)| j.kernel()).collect();
        let targets = [self.target.clone()];
        // warm-start tune jobs from the served snapshot's family schedules:
        // a miss near a tuned family begins from the transferred schedule
        // instead of the empty program. Jobs already in flight from a paused
        // drain resume from their checkpointed search state, which embeds
        // the warm start they began with.
        let builder = LibraryBuilder::new(self.config.strategy, self.config.seed)
            .with_warm_from(&self.snapshot(0).library);

        // build into a scratch library so the served snapshot is untouched
        // until the merge below publishes a complete replacement; it ends up
        // holding every job's record (a checkpointed drain's earlier slices
        // reload from the checkpoint's partial library)
        let mut scratch = Library::new();
        match ckpt {
            None => {
                builder.build_into(&mut scratch, &kernels, &targets);
            }
            Some(ckpt) => {
                let (progress, _, _) = builder.build_into_checkpointed(
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

        // re-key block jobs: their record was tuned under the composed
        // program's own signature but must land under the subgraph key
        for (_, j) in &jobs {
            if let Some(sig) = &j.sig_override {
                let own = KernelSig::of(&j.program, &self.target.name);
                if let Some(mut rec) = scratch.remove(&own) {
                    rec.sig = sig.clone();
                    scratch.merge([rec]);
                }
            }
        }

        // count this drain's jobs only: a checkpoint's partial library
        // could still hold records from a drain that crashed between
        // publish and checkpoint reset. Jobs that produced no record keep
        // the shape re-tunable: forget their queue keys after this drain
        // completes, so a future miss can enqueue them again (a later drain
        // may run with budget, a fixed strategy, or a model version bump)
        let failed_keys: Vec<String> = jobs
            .iter()
            .filter(|(_, j)| scratch.get(&j.final_sig(&self.target)).is_none())
            .map(|(k, _)| k.clone())
            .collect();
        let unimproved = failed_keys.len();
        let tuned = jobs.len() - unimproved;
        let snap = self.slot.read(0);
        let mut merged = snap.library.clone();
        merged.merge(scratch.records().cloned());
        self.counters.tuned.fetch_add(tuned as u64, Ordering::Relaxed);
        let generation = self.publish_locked(merged)?;
        // this drain is merged and published: clear the checkpoint's job
        // progress so the next drain (new jobs, possibly re-using an
        // identity) starts fresh instead of reloading this drain's partial
        // library and skipping over its done entries
        if let Some(ckpt) = ckpt {
            ckpt.reset()
                .map_err(|e| format!("checkpoint dir {}: {e}", ckpt.dir().display()))?;
        }
        for key in &failed_keys {
            self.tunes.forget(key);
        }
        self.inflight.lock().expect("serve inflight poisoned").clear();
        Ok(TuneProgress::Swapped { generation, tuned, unimproved })
    }

    /// Publish `library` as the new snapshot (atomic on-disk save first
    /// when a disk home is configured). Callers outside the drain path —
    /// e.g. an external rebuild — use this to hot-swap directly.
    pub fn publish(&self, library: Library) -> Result<u64, String> {
        let _writer = self.writer.lock().expect("serve writer poisoned");
        self.publish_locked(library)
    }

    fn publish_locked(&self, library: Library) -> Result<u64, String> {
        if let Some(path) = &self.disk {
            library.save(path).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let generation = self.slot.generation() + 1;
        Ok(self.slot.publish(Arc::new(ServeSnapshot { library, generation })))
    }
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
}
