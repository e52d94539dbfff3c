//! # The Dojo: PerfDojo's optimization game environment
//!
//! PerfDojo frames code optimization as a game (paper §2): states are
//! program variants, moves are `(transformation, location)` actions whose
//! applicability is detected (and semantic validity guaranteed) by
//! `perfdojo-transform`, and the score is the simulated runtime from
//! `perfdojo-machine`. The reward follows §3.1: `r = c / T` with `c` scaled
//! so the initial program earns reward 1 — rewarding *states*, not
//! improvements, which avoids the cyclic degrade-recover exploit the paper
//! describes.
//!
//! [`Dojo`] is consumed by the heuristic passes and classical searches
//! (`perfdojo-search`), by PerfLLM (`perfdojo-rl`), and by the baselines.

pub mod target;

pub use target::Target;

use perfdojo_interp::{verify_equivalent, VerifyReport, VERIFY_WORK_LIMIT};
use perfdojo_ir::{exact_fp128, validate, Arena, Fp128, Program};
use perfdojo_machine::{Machine, MachineError};
use perfdojo_transform::{
    available_actions, available_actions_in, Action, History, Loc, Transform, TransformError,
    TransformLibrary,
};
use perfdojo_util::lru::LruCache;
use std::fmt;

/// Dojo construction/step failure.
#[derive(Debug)]
pub enum DojoError {
    /// The initial program is not well-formed.
    Invalid(perfdojo_ir::ValidateError),
    /// The program cannot be evaluated on the target machine.
    Machine(MachineError),
    /// A move was not applicable.
    Transform(TransformError),
    /// Numerical verification caught a semantics change (this indicates a
    /// bug in an applicability rule — the paper validates rules empirically
    /// exactly this way).
    VerificationFailed(VerifyReport),
}

impl fmt::Display for DojoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DojoError::Invalid(e) => write!(f, "invalid program: {e}"),
            DojoError::Machine(e) => write!(f, "machine: {e}"),
            DojoError::Transform(e) => write!(f, "transform: {e}"),
            DojoError::VerificationFailed(r) => write!(f, "verification failed: {r:?}"),
        }
    }
}

impl std::error::Error for DojoError {}

/// Result of one move.
#[derive(Clone, Debug)]
pub struct StepResult {
    /// Simulated runtime of the new state, seconds.
    pub runtime: f64,
    /// Reward `r = c / T` (1.0 for the initial program's runtime).
    pub reward: f64,
    /// Speedup of the new state relative to the initial program.
    pub speedup: f64,
}

/// How much numerical verification the Dojo performs per step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyMode {
    /// Trust the applicability rules (production mode; the rules are
    /// validated by the test suite instead).
    Off,
    /// Verify each step against the initial program on `trials` random
    /// inputs — only when the program is small enough to interpret.
    Sampled {
        /// Random input trials per step.
        trials: usize,
    },
}

/// Default capacity of the fingerprint-keyed cost cache. Sized so the
/// working set of a multi-thousand-evaluation SA run fits; keys are 128-bit
/// program fingerprints ([`perfdojo_ir::exact_fp128`]), so a chain's clone
/// carries kilobytes of keys, not megabytes of program text.
pub const DEFAULT_COST_CACHE_CAPACITY: usize = 2048;

/// Capacity of the applicable-actions memo ([`Dojo::actions`]).
/// Entries are whole action vectors — hundreds of `(Transform, Loc)` pairs
/// on deep states — so each entry is a few KiB; at this capacity the memo
/// tops out around the same working set as the cost cache (a few MiB),
/// which keeps the finder sweep off the hot path for revisited states.
pub const DEFAULT_ACTIONS_MEMO_CAPACITY: usize = 2048;

/// Which evaluation engine the Dojo runs.
///
/// `Incremental` (the default) is the production engine: prefix-replay
/// `load_sequence`, fingerprint-keyed cost caching, snapshot-restoring
/// `undo`. `Naive` is the pre-incremental engine kept as a measurable
/// baseline for the `searchperf` experiment and the A/B determinism suite:
/// full replay from the initial program, a second re-apply pass while
/// recording history, re-evaluation on undo, no cache. Both engines
/// produce bit-identical search results; only the work they spend differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Full replay, no caching (pre-incremental baseline).
    Naive,
    /// Prefix replay + cost cache (default).
    Incremental,
}

/// Counters of the Dojo's cost cache.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Evaluations answered from the cache (no lower + cost pass).
    pub hits: u64,
    /// Evaluations that ran the machine model (and populated the cache).
    pub misses: u64,
    /// Audited hits whose stored program text did not match the probe — a
    /// 128-bit fingerprint collision, counted and answered by a real
    /// evaluation instead of a wrong cached cost. Expected to stay 0.
    pub collisions: u64,
    /// Live cached entries.
    pub entries: usize,
    /// Configured cache capacity (0 when the cache is disabled).
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of evaluations served from cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cost-cache entry: the modelled runtime plus, under audit, the exact
/// program text the key was derived from (used to detect collisions).
#[derive(Clone)]
struct CacheEntry {
    cost: f64,
    text: Option<String>,
}

/// Fingerprint-keyed cost cache: [`Fp128`] exact-program fingerprint →
/// model runtime. Probing hashes the program in place (24-byte key) instead
/// of rendering its full text, which was the single largest per-evaluation
/// cost of the old text-keyed cache. Collisions at 128 bits + length are
/// astronomically unlikely but not assumed away: in audit mode every hit
/// re-renders the exact text and compares it against the stored text; a
/// mismatch is counted ([`CacheStats::collisions`]) and treated as a miss,
/// so a collision can degrade the hit rate but never the results.
#[derive(Clone)]
struct CostCache {
    lru: LruCache<Fp128, CacheEntry>,
    hits: u64,
    misses: u64,
    collisions: u64,
    /// Compare exact program text on every hit. On by default in debug
    /// builds; [`Dojo::with_cache_audit`] forces it on in release.
    audit: bool,
    /// Test hook: collapse every key to one constant fingerprint so the
    /// collision-audit path is exercised deterministically.
    truncated_keys: bool,
}

impl CostCache {
    fn new(capacity: usize) -> Self {
        CostCache {
            lru: LruCache::new(capacity),
            hits: 0,
            misses: 0,
            collisions: 0,
            audit: cfg!(debug_assertions),
            truncated_keys: false,
        }
    }

    fn key(&self, p: &Program) -> Fp128 {
        if self.truncated_keys {
            Fp128 { hi: 0, lo: 0, len: 0 }
        } else {
            exact_fp128(p)
        }
    }

    /// Warm the cache with a known cost without touching the hit/miss
    /// counters (the initial program's evaluation is accounted by the
    /// constructor, not the cache).
    fn seed(&mut self, p: &Program, cost: f64) {
        let key = self.key(p);
        let text = self.audit.then(|| perfdojo_ir::exact_text(p));
        self.lru.insert(key, CacheEntry { cost, text });
    }

    fn effective_key(&self, key: Fp128) -> Fp128 {
        if self.truncated_keys {
            Fp128 { hi: 0, lo: 0, len: 0 }
        } else {
            key
        }
    }

    /// Probe for a cached cost. Audited hits re-render `p`'s exact text and
    /// compare: a mismatch (distinct programs on one fingerprint) counts a
    /// collision and reports a miss, so a collision can degrade the hit
    /// rate but never the results.
    fn probe(&mut self, key: Fp128, p: &Program) -> Option<f64> {
        let key = self.effective_key(key);
        if let Some(entry) = self.lru.get(&key) {
            let collided = self.audit
                && entry
                    .text
                    .as_deref()
                    .is_some_and(|t| t != perfdojo_ir::exact_text(p));
            if !collided {
                self.hits += 1;
                return Some(entry.cost);
            }
            self.collisions += 1;
            debug_assert!(
                self.truncated_keys,
                "128-bit cost-cache key collision on distinct programs"
            );
        }
        None
    }

    /// Record a freshly evaluated cost (counts the miss; overwrites a
    /// collided entry).
    fn record(&mut self, key: Fp128, p: &Program, cost: f64) {
        let key = self.effective_key(key);
        self.misses += 1;
        let text = self.audit.then(|| perfdojo_ir::exact_text(p));
        self.lru.insert(key, CacheEntry { cost, text });
    }

    fn lookup(&mut self, key: Fp128, machine: &Machine, p: &Program) -> Result<f64, MachineError> {
        if let Some(cost) = self.probe(key, p) {
            return Ok(cost);
        }
        let cost = machine.evaluate(p)?.seconds;
        self.record(key, p, cost);
        Ok(cost)
    }
}

/// The optimization game for one kernel on one target.
#[derive(Clone)]
pub struct Dojo {
    /// Transformation history (also holds the initial + current programs).
    pub history: History,
    machine: Machine,
    library: TransformLibrary,
    verify: VerifyMode,
    initial_runtime: f64,
    current_runtime: f64,
    best: (Program, f64),
    evaluations: u64,
    engine: Engine,
    /// Fingerprint-keyed cost cache (`None` under the naive engine).
    cache: Option<CostCache>,
    /// Memoized fingerprint of `history.current()`, reset by every
    /// state-changing method. Nothing in the workspace mutates the public
    /// `history` field directly (all mutation goes through [`Dojo::step`],
    /// [`Dojo::undo`], [`Dojo::reset`] and [`Dojo::load_sequence`]); code
    /// that does so anyway must not expect memoized state to track it.
    current_fp: Option<Fp128>,
    /// Memoized flat arena view of `history.current()`, built lazily and
    /// invalidated with `current_fp`. Cost-miss lowering and actions-miss
    /// finder sweeps share it, so each state is flattened at most once.
    current_arena: Option<Arena>,
    /// Applicable-actions memo keyed by exact fingerprint (incremental
    /// engine only). Search loops re-query unchanged states constantly —
    /// every rejected SA move queries the same state again — and a memo hit
    /// skips the full finder sweep.
    actions_memo: Option<LruCache<Fp128, Vec<Action>>>,
    /// Scratch slot backing [`Dojo::actions`] when the memo is off.
    actions_scratch: Vec<Action>,
    /// `prior_runtimes[i]` is the runtime of the state *before* history
    /// step `i` — `None` when that state was reached via `load_sequence`
    /// (intermediate states are not evaluated there). `undo` restores from
    /// this instead of re-evaluating.
    prior_runtimes: Vec<Option<f64>>,
}

impl Dojo {
    /// Open a game: validate the kernel and score the starting state.
    pub fn new(program: Program, machine: Machine, library: TransformLibrary) -> Result<Self, DojoError> {
        validate(&program).map_err(DojoError::Invalid)?;
        let runtime = machine.evaluate(&program).map_err(DojoError::Machine)?.seconds;
        Ok(Dojo::opened(program, machine, library, runtime))
    }

    /// Open a game for a [`Target`].
    pub fn for_target(program: Program, target: &Target) -> Result<Self, DojoError> {
        Dojo::new(program, target.machine.clone(), target.library.clone())
    }

    /// [`Dojo::for_target`] for a program the caller has already priced:
    /// `seconds` must be `target.machine.evaluate(&program)`'s runtime
    /// (debug builds assert it bit for bit). The program is still
    /// validated, and the game is the one `for_target` opens, its initial
    /// evaluation counted the same way; only the lowering is not repeated.
    pub fn for_target_priced(program: Program, target: &Target, seconds: f64) -> Result<Self, DojoError> {
        validate(&program).map_err(DojoError::Invalid)?;
        debug_assert!(
            target.machine.evaluate(&program).is_ok_and(|e| e.seconds.to_bits() == seconds.to_bits()),
            "for_target_priced: {seconds:e} is not the target's price of the program"
        );
        Ok(Dojo::opened(program, target.machine.clone(), target.library.clone(), seconds))
    }

    /// The game at a validated `program` whose runtime is `runtime`,
    /// counted as one evaluation (a cost-cache miss).
    fn opened(program: Program, machine: Machine, library: TransformLibrary, runtime: f64) -> Self {
        let mut cache = CostCache::new(DEFAULT_COST_CACHE_CAPACITY);
        cache.misses = 1; // the initial evaluation
        cache.seed(&program, runtime);
        Dojo {
            history: History::new(program.clone()),
            machine,
            library,
            verify: VerifyMode::Off,
            initial_runtime: runtime,
            current_runtime: runtime,
            best: (program, runtime),
            evaluations: 1,
            engine: Engine::Incremental,
            cache: Some(cache),
            current_fp: None,
            current_arena: None,
            actions_memo: Some(LruCache::new(DEFAULT_ACTIONS_MEMO_CAPACITY)),
            actions_scratch: Vec::new(),
            prior_runtimes: Vec::new(),
        }
    }

    /// Enable per-step numerical verification (paper §2.2's empirical
    /// validation of the applicability rules).
    pub fn with_verification(mut self, trials: usize) -> Self {
        self.verify = VerifyMode::Sampled { trials };
        self
    }

    /// Run the pre-incremental evaluation engine: full replays, no cost
    /// cache, re-evaluating undo. Exists as the measurable baseline for
    /// `figures --exp searchperf` and the A/B determinism suite — both
    /// engines produce bit-identical search results by construction.
    pub fn with_naive_engine(mut self) -> Self {
        self.engine = Engine::Naive;
        self.cache = None;
        self.actions_memo = None;
        self
    }

    /// Override the cost-cache capacity (entries). A tiny capacity still
    /// yields correct (bit-identical) results — it only lowers the hit
    /// rate; eviction correctness is pinned by tests.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        if self.engine == Engine::Incremental {
            let mut cache = CostCache::new(capacity);
            if let Some(old) = &self.cache {
                cache.hits = old.hits;
                cache.misses = old.misses;
                cache.collisions = old.collisions;
                cache.audit = old.audit;
                cache.truncated_keys = old.truncated_keys;
            }
            cache.seed(&self.history.initial, self.initial_runtime);
            self.cache = Some(cache);
        }
        self
    }

    /// Force the collision audit on (it defaults to on only in debug
    /// builds): every cache hit re-renders the exact program text and
    /// compares it against the text stored with the entry, so a 128-bit
    /// fingerprint collision is detected and counted
    /// ([`CacheStats::collisions`]) instead of silently returning a wrong
    /// cost.
    pub fn with_cache_audit(mut self) -> Self {
        if let Some(c) = self.cache.as_mut() {
            c.audit = true;
            // re-store the seed entry so it carries its audit text
            c.seed(&self.history.initial, self.initial_runtime);
        }
        self
    }

    /// Test hook: collapse every cache key to one constant fingerprint so
    /// distinct programs are guaranteed to collide, exercising the audit
    /// path deterministically. Implies [`Dojo::with_cache_audit`].
    #[doc(hidden)]
    pub fn with_truncated_cache_keys(mut self) -> Self {
        if let Some(c) = self.cache.as_mut() {
            c.truncated_keys = true;
            c.audit = true;
            // drop entries stored under real keys; everything now shares one
            c.lru = LruCache::new(c.lru.capacity());
            c.seed(&self.history.initial, self.initial_runtime);
        }
        self
    }

    /// The active evaluation engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Cost-cache counters (all zero under the naive engine).
    pub fn cache_stats(&self) -> CacheStats {
        match &self.cache {
            Some(c) => CacheStats {
                hits: c.hits,
                misses: c.misses,
                collisions: c.collisions,
                entries: c.lru.len(),
                capacity: c.lru.capacity(),
            },
            None => CacheStats::default(),
        }
    }

    /// Charge `n` machine evaluations that happened outside this Dojo to
    /// its budget — the multi-chain searches (`perfdojo-search`) run K
    /// cloned dojos in parallel and account their spend back here so
    /// callers like `LibraryBuilder` see the true total.
    pub fn charge_evaluations(&mut self, n: u64) {
        self.evaluations += n;
    }

    /// Cached cost lookup (static so callers can split borrows against
    /// `self.history`): 128-bit exact-program fingerprint → model runtime.
    /// A hit skips the whole lower + analytical-cost pass, and a probe
    /// hashes the program in place instead of rendering its full text. The
    /// audit path compares exact text on hits, so a fingerprint collision
    /// is detected and re-evaluated rather than silently wrong — cached and
    /// uncached engines agree bit-for-bit either way.
    fn cost_lookup(
        cache: &mut Option<CostCache>,
        machine: &Machine,
        p: &Program,
    ) -> Result<f64, MachineError> {
        match cache.as_mut() {
            Some(c) => c.lookup(exact_fp128(p), machine, p),
            None => machine.evaluate(p).map(|e| e.seconds),
        }
    }

    /// Drop every per-state memo (fingerprint, arena). Called by every
    /// state-changing method.
    fn invalidate_state_memos(&mut self) {
        self.current_fp = None;
        self.current_arena = None;
    }

    /// Fingerprint of the current state, memoized until the next state
    /// change (the same state is fingerprinted several times per search
    /// step: cost probe, actions memo, repeat probes on rejected moves).
    fn fp_of_current(&mut self) -> Fp128 {
        match self.current_fp {
            Some(f) => f,
            None => {
                let f = exact_fp128(self.history.current());
                self.current_fp = Some(f);
                f
            }
        }
    }

    /// Build (or reuse) the flat arena view of the current state.
    fn ensure_arena(&mut self) {
        if self.current_arena.is_none() {
            self.current_arena = Some(Arena::build(self.history.current()));
        }
    }

    /// Cost of the current history state through the cache. A miss lowers
    /// from the shared per-state arena ([`Machine::evaluate_arena`]) so the
    /// flattening pass is not repeated by a following actions query.
    fn cost_of_current(&mut self) -> Result<f64, MachineError> {
        if self.cache.is_none() {
            return self.machine.evaluate(self.history.current()).map(|e| e.seconds);
        }
        let key = self.fp_of_current();
        if let Some(cost) = self.cache.as_mut().expect("checked above").probe(key, self.history.current()) {
            return Ok(cost);
        }
        self.ensure_arena();
        let est = self.machine.evaluate_arena(self.current_arena.as_ref().expect("just built"))?;
        self.cache.as_mut().expect("checked above").record(key, self.history.current(), est.seconds);
        Ok(est.seconds)
    }

    /// The current program state.
    pub fn current(&self) -> &Program {
        self.history.current()
    }

    /// The untransformed kernel.
    pub fn initial(&self) -> &Program {
        &self.history.initial
    }

    /// Simulated runtime of the current state, seconds.
    pub fn runtime(&self) -> f64 {
        self.current_runtime
    }

    /// Simulated runtime of the initial program, seconds.
    pub fn initial_runtime(&self) -> f64 {
        self.initial_runtime
    }

    /// Best state seen so far and its runtime.
    pub fn best(&self) -> (&Program, f64) {
        (&self.best.0, self.best.1)
    }

    /// Number of machine evaluations performed (the search budget metric
    /// used by Figures 10–12).
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// The target's machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The target's transformation library.
    pub fn library(&self) -> &TransformLibrary {
        &self.library
    }

    /// All applicable moves at the current state (paper: "numbering in the
    /// hundreds"): the full [`available_actions`] result, in its order.
    ///
    /// The incremental engine memoizes the list by exact program
    /// fingerprint, so a revisited state (every rejected SA move re-queries
    /// its unchanged state) skips the finder sweep, and a miss scans the
    /// arena a cost miss already built for the same state. The naive engine
    /// has no memo and recomputes on every call, keeping it an honest
    /// baseline. [`Dojo::locations`] lists one transform's part of it.
    pub fn actions(&mut self) -> &[Action] {
        if self.actions_memo.is_none() {
            self.actions_scratch = available_actions(self.history.current(), &self.library);
            return &self.actions_scratch;
        }
        let key = self.fp_of_current();
        if self.actions_memo.as_mut().expect("checked above").get(&key).is_none() {
            self.ensure_arena();
            let acts = available_actions_in(
                self.current_arena.as_ref().expect("just built"),
                &self.library,
            );
            self.actions_memo.as_mut().expect("checked above").insert(key, acts);
        }
        self.actions_memo
            .as_mut()
            .expect("checked above")
            .get(&key)
            .expect("present or just inserted")
    }

    /// Where `t` applies at the current state: exactly the locations of the
    /// `t` entries of [`Dojo::actions`], in their order, when `t` is in the
    /// library, found without running the other transforms' finders. The
    /// incremental engine scans the state's memoized arena (the one a cost
    /// miss or an actions miss of the same state builds); the naive engine
    /// builds a fresh arena on every call, as its `actions` does.
    pub fn locations(&mut self, t: &Transform) -> Vec<Loc> {
        if self.actions_memo.is_none() {
            return t.find_locations(self.history.current());
        }
        self.ensure_arena();
        t.find_locations_in(self.current_arena.as_ref().expect("just built"))
    }

    /// Reward for a runtime: `r = c/T`, normalized so the initial state's
    /// reward is 1 (§3.1).
    pub fn reward_of(&self, runtime: f64) -> f64 {
        self.initial_runtime / runtime
    }

    /// Score a candidate program without committing to it. A cache hit
    /// still counts one evaluation: the paper's budgets (Figs. 10–12) are
    /// *evaluation* budgets, and keeping the accounting identical between
    /// cached and uncached engines is what makes their traces bit-equal.
    pub fn evaluate(&mut self, p: &Program) -> Result<f64, DojoError> {
        self.evaluations += 1;
        Self::cost_lookup(&mut self.cache, &self.machine, p).map_err(DojoError::Machine)
    }

    /// Preview a move: the runtime it would lead to (counts one
    /// evaluation, as in the paper's evaluation budgets).
    pub fn peek(&mut self, action: &Action) -> Result<(Program, f64), DojoError> {
        let next = action.apply(self.current()).map_err(DojoError::Transform)?;
        let runtime = self.evaluate(&next)?;
        Ok((next, runtime))
    }

    /// Play a move.
    pub fn step(&mut self, action: Action) -> Result<StepResult, DojoError> {
        let prior_runtime = self.current_runtime;
        self.history.push(action).map_err(DojoError::Transform)?;
        self.invalidate_state_memos();
        if let VerifyMode::Sampled { trials } = self.verify {
            let small = self.history.initial.dynamic_op_instances() <= VERIFY_WORK_LIMIT;
            if small {
                let rep = verify_equivalent(&self.history.initial, self.current(), trials, 0xD0);
                if !rep.is_equivalent() {
                    // roll back the corrupted state (O(1) snapshot restore)
                    self.history.pop();
                    return Err(DojoError::VerificationFailed(rep));
                }
            }
        }
        let runtime = match self.cost_of_current() {
            Ok(rt) => {
                self.evaluations += 1;
                rt
            }
            Err(e) => {
                self.history.pop();
                return Err(DojoError::Machine(e));
            }
        };
        self.prior_runtimes.push(Some(prior_runtime));
        self.current_runtime = runtime;
        if runtime < self.best.1 {
            self.best = (self.current().clone(), runtime);
        }
        Ok(StepResult {
            runtime,
            reward: self.reward_of(runtime),
            speedup: self.initial_runtime / runtime,
        })
    }

    /// Undo the last move (the non-destructive property, §2).
    ///
    /// The incremental engine restores the runtime recorded when the step
    /// was played — no machine evaluation, no budget spend. Only a state
    /// whose prior runtime was never measured (reached via
    /// [`Dojo::load_sequence`], which does not evaluate intermediate
    /// states) is re-evaluated, and that evaluation is *counted*: the
    /// naive engine's silent, uncounted re-evaluation here was a budget
    /// undercounting bug.
    pub fn undo(&mut self) -> Option<Action> {
        let a = self.history.pop()?;
        self.invalidate_state_memos();
        let recorded = self.prior_runtimes.pop().flatten();
        self.current_runtime = match (self.engine, recorded) {
            (Engine::Incremental, Some(rt)) => rt,
            (Engine::Incremental, None) => {
                self.evaluations += 1;
                self.cost_of_current().unwrap_or(self.current_runtime)
            }
            (Engine::Naive, _) => {
                // pre-PR behaviour, kept as the measurable baseline: a full
                // re-evaluation that never hit the budget counter
                self.machine
                    .evaluate(self.history.current())
                    .map(|e| e.seconds)
                    .unwrap_or(self.current_runtime)
            }
        };
        Some(a)
    }

    /// Restart the game from the initial program (keeps the best record
    /// and the cost cache — RL episodes reset every episode and profit
    /// from earlier episodes' evaluations).
    pub fn reset(&mut self) {
        self.history.truncate_to(0);
        self.invalidate_state_memos();
        self.prior_runtimes.clear();
        self.current_runtime = self.initial_runtime;
    }

    /// Replace the whole transformation sequence (used by sequence-mutating
    /// searches, §4.2.1's *heuristic* space). Inapplicable steps are
    /// skipped; returns the resulting runtime.
    ///
    /// The incremental engine diffs `steps` against the applied history,
    /// undoes back to the longest common prefix (O(1) per dropped step —
    /// the §2 non-destructive property) and applies only the suffix,
    /// instead of replaying everything from the initial program and then
    /// re-applying it all a second time while recording history. On an
    /// evaluation error the dojo rolls back to the pre-call sequence, so a
    /// rejected candidate can never leave the environment stranded at a
    /// partially-applied state.
    pub fn load_sequence(&mut self, steps: &[Action]) -> Result<f64, DojoError> {
        match self.engine {
            Engine::Naive => self.load_sequence_naive(steps),
            Engine::Incremental => self.load_sequence_incremental(steps),
        }
    }

    /// The pre-incremental `load_sequence`: full replay to find skips, a
    /// second full application pass to record history. Kept verbatim as
    /// the `searchperf` baseline.
    fn load_sequence_naive(&mut self, steps: &[Action]) -> Result<f64, DojoError> {
        let replay = perfdojo_transform::history::replay_sequence(&self.history.initial, steps);
        let runtime = self.evaluate(&replay.program)?;
        let mut h = History::new(self.history.initial.clone());
        for (i, s) in steps.iter().enumerate() {
            if !replay.skipped.contains(&i) {
                h.push(s.clone()).map_err(DojoError::Transform)?;
            }
        }
        self.prior_runtimes = vec![None; h.len()];
        self.history = h;
        self.invalidate_state_memos();
        self.current_runtime = runtime;
        if runtime < self.best.1 {
            self.best = (self.current().clone(), runtime);
        }
        Ok(runtime)
    }

    /// Prefix-replay `load_sequence`: because applications are pure, the
    /// state after the shared prefix is identical whether reached by full
    /// replay or by truncation, and each remaining step's skip decision
    /// depends only on the current program — so the reached program, the
    /// recorded (filtered) history and the evaluated cost are all exactly
    /// what the naive engine produces.
    fn load_sequence_incremental(&mut self, steps: &[Action]) -> Result<f64, DojoError> {
        let k = self
            .history
            .steps
            .iter()
            .zip(steps.iter())
            .take_while(|(applied, requested)| applied == requested)
            .count();
        // the part of the applied sequence the diff will drop, kept so a
        // failed evaluation can roll the dojo back to the pre-call sequence
        let undone_steps = self.history.steps[k..].to_vec();
        let undone_runtimes = self.prior_runtimes[k..].to_vec();
        // only a real change invalidates the fingerprint memo: reloading the
        // already-applied sequence (the search loops' no-op probe of their
        // unchanged current state) keeps it warm
        if self.history.len() > k {
            self.invalidate_state_memos();
        }
        self.history.truncate_to(k);
        self.prior_runtimes.truncate(k);
        for s in &steps[k..] {
            // skip-on-inapplicable, matching `replay_sequence` semantics;
            // intermediate runtimes are unknown (not evaluated)
            if self.history.push(s.clone()).is_ok() {
                self.invalidate_state_memos();
                self.prior_runtimes.push(None);
            }
        }
        self.evaluations += 1;
        let runtime = match self.cost_of_current() {
            Ok(rt) => rt,
            Err(e) => {
                // roll back: rewind to the shared prefix and re-apply the
                // dropped suffix — pure applications that already succeeded
                // once from this exact prefix state, so they succeed again
                self.history.truncate_to(k);
                self.prior_runtimes.truncate(k);
                for s in undone_steps {
                    let reapplied = self.history.push(s);
                    debug_assert!(reapplied.is_ok(), "rollback replays a previously-applied step");
                }
                self.invalidate_state_memos();
                self.prior_runtimes.extend(undone_runtimes);
                return Err(DojoError::Machine(e));
            }
        };
        self.current_runtime = runtime;
        if runtime < self.best.1 {
            self.best = (self.current().clone(), runtime);
        }
        Ok(runtime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn softmax_dojo() -> Dojo {
        let k = perfdojo_kernels::small_suite()
            .into_iter()
            .find(|k| k.label == "softmax")
            .unwrap();
        Dojo::for_target(k.program, &Target::x86()).unwrap()
    }

    #[test]
    fn initial_reward_is_one() {
        let d = softmax_dojo();
        assert!((d.reward_of(d.runtime()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn failed_load_sequence_rolls_back_to_pre_call_sequence() {
        let mut d = softmax_dojo();
        let a = d.actions()[0].clone();
        d.step(a).unwrap();
        let steps_before = d.history.steps.clone();
        let program_before = d.current().clone();
        let runtime_before = d.runtime();

        // a GPU binding applies structurally but is unschedulable on x86,
        // so the machine evaluation inside load_sequence fails
        let gpu = Transform::BindGpu(perfdojo_ir::ScopeKind::GpuGrid);
        let loc = gpu.find_locations(d.current()).into_iter().next().unwrap();
        let mut bad_seq = steps_before.clone();
        bad_seq.push(Action { transform: gpu, loc });

        assert!(d.load_sequence(&bad_seq).is_err());
        assert_eq!(d.history.steps, steps_before, "history must roll back");
        assert_eq!(d.current(), &program_before);
        assert_eq!(d.runtime().to_bits(), runtime_before.to_bits());
        assert_eq!(d.prior_runtimes.len(), d.history.len());
        // and the dojo stays fully usable: reloading the good sequence is
        // a no-op replay that reproduces the pre-failure runtime
        let rt = d.load_sequence(&steps_before).unwrap();
        assert_eq!(rt.to_bits(), runtime_before.to_bits());
    }

    #[test]
    fn step_updates_state_and_best() {
        let mut d = softmax_dojo();
        let actions = d.actions();
        assert!(actions.len() >= 30);
        let a = actions[0].clone();
        let r = d.step(a).unwrap();
        assert!(r.runtime > 0.0);
        assert_eq!(d.history.len(), 1);
        assert!(d.best().1 <= d.initial_runtime());
    }

    #[test]
    fn undo_restores_previous_state() {
        let mut d = softmax_dojo();
        let initial = d.current().clone();
        let a = d.actions()[0].clone();
        d.step(a).unwrap();
        assert_ne!(d.current(), &initial);
        d.undo().unwrap();
        assert_eq!(d.current(), &initial);
        assert!((d.runtime() - d.initial_runtime()).abs() < 1e-15);
    }

    #[test]
    fn verification_mode_accepts_valid_moves() {
        let mut d = softmax_dojo().with_verification(2);
        let first: Vec<Action> = d.actions().iter().take(8).cloned().collect();
        for a in first {
            d.step(a).unwrap();
            d.undo();
        }
    }

    #[test]
    fn load_sequence_skips_stale_steps() {
        let mut d = softmax_dojo();
        let a0 = d.actions()[0].clone();
        d.step(a0.clone()).unwrap();
        // sequence with a duplicate (second application may be stale)
        let steps = vec![a0.clone(), a0.clone(), a0];
        let rt = d.load_sequence(&steps).unwrap();
        assert!(rt > 0.0);
    }

    #[test]
    fn cache_hits_on_revisit_and_still_counts_budget() {
        let mut d = softmax_dojo();
        let a = d.actions()[0].clone();
        d.step(a.clone()).unwrap();
        let seq = d.history.steps.clone();
        let evals = d.evaluations();
        let s0 = d.cache_stats();
        // revisit the exact same state twice: both must hit the cache and
        // both must still consume evaluation budget
        d.load_sequence(&seq).unwrap();
        d.load_sequence(&seq).unwrap();
        let s1 = d.cache_stats();
        assert_eq!(d.evaluations(), evals + 2, "cached hits must still count");
        assert_eq!(s1.hits, s0.hits + 2);
        assert_eq!(s1.misses, s0.misses);
        assert!(s1.hit_rate() > 0.0);
    }

    #[test]
    fn naive_engine_has_no_cache() {
        let mut d = softmax_dojo().with_naive_engine();
        assert_eq!(d.engine(), Engine::Naive);
        let a = d.actions()[0].clone();
        d.step(a).unwrap();
        let s = d.cache_stats();
        assert_eq!((s.hits, s.misses, s.entries, s.capacity), (0, 0, 0, 0));
    }

    #[test]
    fn undo_after_step_restores_recorded_runtime_without_evaluating() {
        let mut d = softmax_dojo();
        let rt0 = d.runtime();
        let a = d.actions()[0].clone();
        d.step(a).unwrap();
        let evals = d.evaluations();
        d.undo().unwrap();
        assert_eq!(d.evaluations(), evals, "undo of a stepped move is free");
        assert_eq!(d.runtime(), rt0);
    }

    #[test]
    fn undo_after_load_sequence_counts_its_evaluation() {
        // intermediate states of a loaded sequence were never evaluated, so
        // undoing into one is a real (counted) evaluation — the naive
        // engine's silent re-evaluation here undercounted budgets
        let mut d = softmax_dojo();
        let mut seq = Vec::new();
        for _ in 0..2 {
            let a = d.actions()[0].clone();
            d.step(a.clone()).unwrap();
            seq.push(a);
        }
        d.reset();
        d.load_sequence(&seq).unwrap();
        let evals = d.evaluations();
        d.undo().unwrap();
        assert_eq!(d.evaluations(), evals + 1, "unknown prior runtime must be re-measured on budget");
    }

    #[test]
    fn tiny_cache_capacity_is_still_exact() {
        // capacity 2 forces constant eviction; results must not drift
        let mut small = softmax_dojo().with_cache_capacity(2);
        let mut naive = softmax_dojo().with_naive_engine();
        for round in 0..3 {
            let a = small.actions()[round].clone();
            let r1 = small.step(a.clone()).unwrap();
            let r2 = naive.step(a).unwrap();
            assert_eq!(r1.runtime.to_bits(), r2.runtime.to_bits());
            small.undo().unwrap();
            naive.undo().unwrap();
            assert_eq!(small.runtime().to_bits(), naive.runtime().to_bits());
        }
        assert!(small.cache_stats().entries <= 2);
    }

    #[test]
    fn reset_keeps_cache_warm() {
        let mut d = softmax_dojo();
        let a = d.actions()[0].clone();
        d.step(a.clone()).unwrap();
        d.reset();
        assert_eq!(d.history.len(), 0);
        assert_eq!(d.runtime(), d.initial_runtime());
        let misses_before = d.cache_stats().misses;
        d.step(a).unwrap(); // same state again: must be a hit
        assert_eq!(d.cache_stats().misses, misses_before);
    }

    #[test]
    fn forced_key_collision_is_detected_and_stays_exact() {
        // Collapse every cache key to one fingerprint: distinct programs
        // now collide by construction, and the text audit must catch each
        // one, count it, and fall back to a real evaluation.
        let mut d = softmax_dojo().with_truncated_cache_keys();
        let mut naive = softmax_dojo().with_naive_engine();
        for i in 0..3 {
            let a = d.actions()[i].clone();
            let r1 = d.step(a.clone()).unwrap();
            let r2 = naive.step(a).unwrap();
            assert_eq!(r1.runtime.to_bits(), r2.runtime.to_bits());
        }
        let s = d.cache_stats();
        assert!(s.collisions > 0, "distinct programs on one key must collide");
        assert_eq!(s.entries, 1, "all entries share the truncated key");
    }

    #[test]
    fn audited_cache_reports_no_collisions_under_real_keys() {
        let mut d = softmax_dojo().with_cache_audit();
        let a = d.actions()[0].clone();
        d.step(a.clone()).unwrap();
        d.undo().unwrap();
        d.step(a).unwrap(); // revisit: a hit whose audit must pass
        let s = d.cache_stats();
        assert_eq!(s.collisions, 0);
        assert!(s.hits >= 1);
    }

    #[test]
    fn charge_evaluations_adds_to_budget() {
        let mut d = softmax_dojo();
        let e = d.evaluations();
        d.charge_evaluations(41);
        assert_eq!(d.evaluations(), e + 41);
    }

    #[test]
    fn reward_grows_as_runtime_shrinks() {
        let d = softmax_dojo();
        let r_fast = d.reward_of(d.initial_runtime() / 4.0);
        let r_slow = d.reward_of(d.initial_runtime() * 2.0);
        assert!(r_fast > 1.0 && r_slow < 1.0);
        assert!((r_fast - 4.0).abs() < 1e-12);
    }

    #[test]
    fn gpu_unschedulable_step_rolls_back() {
        // On an x86 dojo no GPU actions are offered; force one manually and
        // check the environment rejects it without corrupting state.
        let mut d = softmax_dojo();
        let bad = Action {
            transform: Transform::SplitScope { tile: 7 },
            loc: Loc::Node(perfdojo_ir::Path::from([0])),
        };
        let before = d.current().clone();
        assert!(d.step(bad).is_err());
        assert_eq!(d.current(), &before);
        assert_eq!(d.history.len(), 0);
    }
}
