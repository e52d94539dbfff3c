//! Dispatch: serving a schedule for a query program.
//!
//! `Library::lookup` resolves a query in tiers:
//!
//! 1. **Exact hit** — a record at the query's exact [`KernelSig`]: replay
//!    its edits strictly.
//! 2. **Parameterized** — the query's kernel family (same operator, any
//!    shape) fit a parameterized schedule ([`crate::transfer`]):
//!    materialize it at the query shape and replay leniently.
//! 3. **Fallback replay** — the nearest same-operator shape: replay its
//!    edits leniently (steps whose locations no longer exist at the new
//!    shape are skipped), then re-validate. The paper's transformations are
//!    location-addressed, so a schedule tuned at 24576x512 usually applies
//!    verbatim at 128x64.
//! 4. **Fallback heuristic** — nothing replayable: run the deterministic
//!    heuristic pass fresh, from the naive price tiers 1–3 already took
//!    (the Dojo opens through [`Dojo::for_target_priced`]); the pass's
//!    Dojo priced every state it played, so its result is not priced
//!    again.
//! 5. **Naive** — even the heuristic found nothing; serve the program
//!    untransformed.
//!
//! Every served schedule is re-validated (`perfdojo_ir::validate`), must
//! not regress the machine-model cost versus naive, and — when the query
//! is small enough to interpret — is numerically verified against the
//! naive program via `perfdojo_interp::verify_equivalent`. A replay that
//! fails any check falls through to the next tier instead of being served.
//! The serving tier (`crate::serve`) memoizes replies per library
//! snapshot, so a repeated query reuses a schedule that passed these
//! checks against the same snapshot.

use crate::library::Library;
use crate::sig::KernelSig;
use perfdojo_core::{Dojo, Target};
use perfdojo_interp::VERIFY_WORK_LIMIT;
use perfdojo_ir::{validate, Program};
use perfdojo_transform::{replay, replay_sequence, Action};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Trials for numeric verification of a served schedule.
const VERIFY_TRIALS: usize = 2;

/// How a dispatch was resolved.
#[derive(Clone, Debug, PartialEq)]
pub enum Disposition {
    /// An exact-signature record replayed cleanly.
    ExactHit,
    /// A parameterized family schedule materialized at the query shape.
    Parameterized {
        /// Key of the record that donated the schedule skeleton.
        donor: String,
        /// Records the parameter fit was taken over.
        support: usize,
        /// Worst per-parameter log residual of the fit.
        residual: f64,
    },
    /// A nearest-shape record replayed (possibly with skipped steps).
    FallbackReplay {
        /// Key of the record the schedule was borrowed from.
        from: String,
        /// Shape distance between query and donor.
        distance: f64,
        /// Steps dropped as inapplicable at the query shape.
        skipped: usize,
    },
    /// No usable record; the heuristic pass tuned the query fresh.
    FallbackHeuristic,
    /// Nothing helped; the naive program is served.
    Naive,
}

impl fmt::Display for Disposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Disposition::ExactHit => write!(f, "exact-hit"),
            Disposition::Parameterized { donor, support, residual } => {
                write!(f, "parameterized from {donor} (support {support}, residual {residual:.3})")
            }
            Disposition::FallbackReplay { from, distance, skipped } => {
                write!(f, "fallback-replay from {from} (distance {distance:.3}, {skipped} skipped)")
            }
            Disposition::FallbackHeuristic => write!(f, "fallback-heuristic"),
            Disposition::Naive => write!(f, "naive"),
        }
    }
}

impl Disposition {
    /// Short machine-greppable tag (`exact-hit`, `fallback-replay`, …).
    pub fn tag(&self) -> &'static str {
        match self {
            Disposition::ExactHit => "exact-hit",
            Disposition::Parameterized { .. } => "parameterized",
            Disposition::FallbackReplay { .. } => "fallback-replay",
            Disposition::FallbackHeuristic => "fallback-heuristic",
            Disposition::Naive => "naive",
        }
    }
}

/// A resolved dispatch: the schedule to run and how it was obtained.
#[derive(Clone, Debug)]
pub struct DispatchResult {
    /// How the query resolved.
    pub disposition: Disposition,
    /// The edit sequence that was applied (empty for `Naive`).
    pub steps: Vec<Action>,
    /// The transformed program to execute.
    pub program: Program,
    /// Machine-model cost of `program`, seconds.
    pub cost: f64,
    /// Machine-model cost of the naive query, seconds.
    pub naive_cost: f64,
    /// Numeric verification outcome: `Some(true)` verified equivalent,
    /// `Some(false)` never served (such candidates are rejected), `None`
    /// when the query was too large to interpret.
    pub verified: Option<bool>,
}

impl DispatchResult {
    /// Speedup of the served schedule over naive.
    pub fn speedup(&self) -> f64 {
        self.naive_cost / self.cost
    }
}

/// A candidate schedule produced by one dispatch tier, before checks.
struct Candidate {
    disposition: Disposition,
    steps: Vec<Action>,
    program: Program,
    /// The machine-model cost of `program` when the tier already has it
    /// (the heuristic tier's Dojo priced every state it played); `None`
    /// has [`accept`] price it.
    cost: Option<f64>,
}

static EXACT_HITS: AtomicU64 = AtomicU64::new(0);
static PARAMETERIZED_HITS: AtomicU64 = AtomicU64::new(0);
static PARAMETERIZED_REJECTS: AtomicU64 = AtomicU64::new(0);
static REPLAY_HITS: AtomicU64 = AtomicU64::new(0);
static EMPTY_RECORD_SKIPS: AtomicU64 = AtomicU64::new(0);
static HEURISTIC_SERVES: AtomicU64 = AtomicU64::new(0);
static NAIVE_SERVES: AtomicU64 = AtomicU64::new(0);

/// Process-wide dispatch counters, one per tier outcome (see
/// [`dispatch_stats`] for what counts as a dispatch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Tier-1 serves (exact-signature replay accepted).
    pub exact_hits: u64,
    /// Tier-2 serves (parameterized family schedule accepted).
    pub parameterized_hits: u64,
    /// Parameterized candidates that failed the acceptance checks.
    pub parameterized_rejects: u64,
    /// Tier-3 serves (nearest-shape lenient replay accepted).
    pub replay_hits: u64,
    /// Nearest records with no steps at all — nothing to replay, so the
    /// tier is skipped (explicitly, and visibly here).
    pub empty_record_skips: u64,
    /// Tier-4 serves (fresh heuristic pass accepted).
    pub heuristic_serves: u64,
    /// Tier-5 serves (naive program, nothing else helped).
    pub naive_serves: u64,
}

/// Snapshot of the process-wide dispatch counters. Compare deltas, not
/// absolute values — other tests and serving threads dispatch concurrently.
///
/// The counters count dispatches that actually ran the tier walk, not
/// replies served: a reply the serving tier answers from its per-snapshot
/// memo ([`crate::serve::ServeStats::memo_hits`]) is not a dispatch, so
/// replies served = memo hits + dispatches.
pub fn dispatch_stats() -> DispatchStats {
    DispatchStats {
        exact_hits: EXACT_HITS.load(Ordering::Relaxed),
        parameterized_hits: PARAMETERIZED_HITS.load(Ordering::Relaxed),
        parameterized_rejects: PARAMETERIZED_REJECTS.load(Ordering::Relaxed),
        replay_hits: REPLAY_HITS.load(Ordering::Relaxed),
        empty_record_skips: EMPTY_RECORD_SKIPS.load(Ordering::Relaxed),
        heuristic_serves: HEURISTIC_SERVES.load(Ordering::Relaxed),
        naive_serves: NAIVE_SERVES.load(Ordering::Relaxed),
    }
}

impl Library {
    /// Resolve a schedule for `query` (a naive program) on `target`.
    ///
    /// Never fails: the worst case is the naive program served as-is. The
    /// `target`'s machine model prices candidates; its transformation
    /// library drives the heuristic fallback tier.
    pub fn lookup(&self, query: &Program, target: &Target) -> DispatchResult {
        self.lookup_sig(&KernelSig::of(query, &target.name), query, target)
    }

    /// [`Library::lookup`] with the query's signature already computed:
    /// `sig` must be `KernelSig::of(query, &target.name)`. The serving tier
    /// computes it once at admission and carries it here.
    pub(crate) fn lookup_sig(
        &self,
        sig: &KernelSig,
        query: &Program,
        target: &Target,
    ) -> DispatchResult {
        let naive = target.machine.evaluate(query).ok().map(|e| e.seconds);
        let naive_cost = naive.unwrap_or(f64::INFINITY);

        // Tiers 1–3: cached records (exact, parameterized, nearest-shape).
        if let Some(result) = self.cached_tiers(sig, query, target, naive_cost) {
            return result;
        }

        // Tier 4: heuristic pass, tuned fresh for this query from its naive
        // price (a query the machine cannot price opens no game).
        let dojo = naive.map(|seconds| Dojo::for_target_priced(query.clone(), target, seconds));
        if let Some(Ok(mut dojo)) = dojo {
            let cost = perfdojo_search::heuristic_pass(&mut dojo);
            let steps = dojo.history.steps.clone();
            if !steps.is_empty() && cost < naive_cost {
                let cand = Candidate {
                    disposition: Disposition::FallbackHeuristic,
                    steps,
                    program: dojo.current().clone(),
                    cost: Some(cost),
                };
                if let Some(result) = accept(cand, query, target, naive_cost) {
                    HEURISTIC_SERVES.fetch_add(1, Ordering::Relaxed);
                    return result;
                }
            }
        }

        // Tier 5: naive.
        NAIVE_SERVES.fetch_add(1, Ordering::Relaxed);
        DispatchResult {
            disposition: Disposition::Naive,
            steps: Vec::new(),
            program: query.clone(),
            cost: naive_cost,
            naive_cost,
            verified: Some(true),
        }
    }

    /// The cached tiers of [`Library::lookup`] alone: exact hit (strict
    /// replay), then a parameterized family schedule ([`crate::transfer`]),
    /// then nearest-shape fallback (lenient replay), all behind the full
    /// acceptance checks. `None` means "nothing cached replayed" —
    /// the caller decides the fallback (full `lookup` runs the heuristic
    /// and naive tiers; `perfdojo-lib graph-query` instead prices the
    /// graph per node).
    ///
    /// Callers pass the signature explicitly because it is not always
    /// `KernelSig::of(query)`: subgraph queries are keyed by the graph
    /// fingerprint ([`KernelSig::subgraph`]) while `query` is the composed
    /// program the steps replay against.
    pub fn lookup_cached(
        &self,
        sig: &KernelSig,
        query: &Program,
        target: &Target,
    ) -> Option<DispatchResult> {
        let naive_cost = target.machine.evaluate(query).map(|e| e.seconds).unwrap_or(f64::INFINITY);
        self.cached_tiers(sig, query, target, naive_cost)
    }

    /// [`Library::lookup_cached`] with the naive program already priced,
    /// so a full [`Library::lookup`] prices it once.
    fn cached_tiers(
        &self,
        sig: &KernelSig,
        query: &Program,
        target: &Target,
        naive_cost: f64,
    ) -> Option<DispatchResult> {
        // Tier 1: exact hit, strict replay.
        if let Some(rec) = self.get(sig) {
            if let Ok(program) = replay(query, &rec.steps) {
                let cand = Candidate {
                    disposition: Disposition::ExactHit,
                    steps: rec.steps.clone(),
                    program,
                    cost: None,
                };
                if let Some(result) = accept(cand, query, target, naive_cost) {
                    EXACT_HITS.fetch_add(1, Ordering::Relaxed);
                    return Some(result);
                }
            }
        }

        // Tier 2: parameterized family schedule, materialized at the query
        // shape and replayed leniently.
        if let Some(ps) = crate::transfer::fit_for(self, sig) {
            let steps = ps.materialize(&sig.shape);
            let rep = replay_sequence(query, &steps);
            let applied = rep.applied(&steps);
            let served = if applied.is_empty() {
                None
            } else {
                let cand = Candidate {
                    disposition: Disposition::Parameterized {
                        donor: ps.donor.clone(),
                        support: ps.support,
                        residual: ps.residual,
                    },
                    steps: applied,
                    program: rep.program,
                    cost: None,
                };
                accept(cand, query, target, naive_cost)
            };
            match served {
                Some(result) => {
                    PARAMETERIZED_HITS.fetch_add(1, Ordering::Relaxed);
                    return Some(result);
                }
                None => {
                    PARAMETERIZED_REJECTS.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        // Tier 3: nearest-shape fallback, lenient replay.
        if let Some((rec, distance)) = self.nearest(sig) {
            if rec.steps.is_empty() {
                // a zero-step record has nothing to replay; without this
                // branch `skipped < rec.steps.len()` is vacuously false and
                // the tier vanished with no stats trace
                EMPTY_RECORD_SKIPS.fetch_add(1, Ordering::Relaxed);
            } else {
                let rep = replay_sequence(query, &rec.steps);
                let skipped = rep.skipped.len();
                if skipped < rec.steps.len() {
                    let steps = rep.applied(&rec.steps);
                    let cand = Candidate {
                        disposition: Disposition::FallbackReplay {
                            from: rec.sig.key(),
                            distance,
                            skipped,
                        },
                        steps,
                        program: rep.program,
                        cost: None,
                    };
                    if let Some(result) = accept(cand, query, target, naive_cost) {
                        REPLAY_HITS.fetch_add(1, Ordering::Relaxed);
                        return Some(result);
                    }
                }
            }
        }
        None
    }
}

/// Run the acceptance checks on a candidate: IR validity, no cost
/// regression versus naive, and numeric equivalence when interpretable.
/// `None` means "rejected — try the next tier".
fn accept(
    cand: Candidate,
    query: &Program,
    target: &Target,
    naive_cost: f64,
) -> Option<DispatchResult> {
    if validate(&cand.program).is_err() {
        return None;
    }
    let cost = match cand.cost {
        Some(cost) => {
            debug_assert!(
                target.machine.evaluate(&cand.program).is_ok_and(|e| e.seconds.to_bits() == cost.to_bits()),
                "a {} candidate's cost {cost:e} is not the target's price of its program",
                cand.disposition
            );
            cost
        }
        None => target.machine.evaluate(&cand.program).ok()?.seconds,
    };
    // a poisoned or degenerate machine model can price a candidate at NaN;
    // `cost > naive_cost` is false for NaN, so finiteness must be explicit
    if !cost.is_finite() || cost > naive_cost {
        return None;
    }
    let verified = if query.dynamic_op_instances() <= VERIFY_WORK_LIMIT {
        let seed = perfdojo_ir::fingerprint::fnv1a(cand.disposition.tag().as_bytes());
        let ok = perfdojo_interp::verify_equivalent(query, &cand.program, VERIFY_TRIALS, seed)
            .is_equivalent();
        if !ok {
            return None;
        }
        Some(true)
    } else {
        None
    };
    Some(DispatchResult {
        disposition: cand.disposition,
        steps: cand.steps,
        program: cand.program,
        cost,
        naive_cost,
        verified,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{LibraryBuilder, Strategy};

    fn tuned_library() -> (Library, Target) {
        let target = Target::x86();
        let kernels: Vec<_> = perfdojo_kernels::tune_suite()
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
        (lib, target)
    }

    #[test]
    fn exact_hit_for_tuned_shape() {
        let (lib, target) = tuned_library();
        // exactly the shape the library was built at (tune_suite softmax)
        let query = perfdojo_kernels::softmax(64, 64);
        let r = lib.lookup(&query, &target);
        assert_eq!(r.disposition.tag(), "exact-hit");
        assert!(r.cost < r.naive_cost, "hit must improve on naive");
        assert_eq!(r.verified, Some(true), "small query must be verified");
        assert!(!r.steps.is_empty());
        // the served program really is the recorded replay, and dispatch
        // reproduces the cost the tuning run recorded, bit for bit
        assert_eq!(replay(&query, &r.steps).unwrap(), r.program);
        let rec = lib.get(&crate::sig::KernelSig::of(&query, &target.name)).unwrap();
        assert_eq!(r.cost.to_bits(), rec.cost.to_bits());
        assert_eq!(r.steps, rec.steps);
    }

    #[test]
    fn fallback_replay_for_new_shape() {
        let (lib, target) = tuned_library();
        // softmax at a shape the library has never seen
        let query = perfdojo_kernels::by_label_with_shape("softmax", &[96, 64]).unwrap();
        let r = lib.lookup(&query, &target);
        assert_eq!(r.disposition.tag(), "fallback-replay", "{}", r.disposition);
        assert!(r.speedup() >= 1.0);
        assert_eq!(r.verified, Some(true));
        if let Disposition::FallbackReplay { from, distance, .. } = &r.disposition {
            assert!(from.contains("|x86"));
            assert!(*distance > 0.0);
        }
    }

    #[test]
    fn heuristic_fallback_for_unknown_operator() {
        let (lib, target) = tuned_library();
        // rmsnorm was never tuned: no same-structure record exists
        let query = perfdojo_kernels::by_label_with_shape("rmsnorm", &[64, 64]).unwrap();
        let r = lib.lookup(&query, &target);
        assert_eq!(r.disposition.tag(), "fallback-heuristic", "{}", r.disposition);
        assert!(r.cost <= r.naive_cost);
        assert_eq!(r.verified, Some(true));
    }

    #[test]
    fn degenerate_query_serves_naive() {
        let lib = Library::new();
        let target = Target::x86();
        // at a few hundred ops the naive program is already optimal, so
        // even the heuristic tier finds nothing — dispatch must not fail
        let query = perfdojo_kernels::by_label("mul").unwrap().verify_program;
        let r = lib.lookup(&query, &target);
        assert!(r.cost <= r.naive_cost);
        assert!(
            matches!(r.disposition, Disposition::FallbackHeuristic | Disposition::Naive),
            "{}",
            r.disposition
        );
        assert_eq!(r.steps.is_empty(), r.disposition == Disposition::Naive);
    }

    #[test]
    fn empty_library_serves_heuristic() {
        let lib = Library::new();
        let target = Target::x86();
        let query = perfdojo_kernels::by_label_with_shape("mul", &[64, 256]).unwrap();
        let r = lib.lookup(&query, &target);
        assert_eq!(r.disposition.tag(), "fallback-heuristic", "{}", r.disposition);
        assert!(r.cost < r.naive_cost);
        assert_eq!(r.verified, Some(true));
    }

    #[test]
    fn heuristic_replies_carry_the_machine_prices_bit_for_bit() {
        // tier 4 opens its game at the naive price tiers 1–3 took and reads
        // the served cost off the game: both must be the machine's prices
        let lib = Library::new();
        for target in [Target::x86(), Target::gh200(), Target::snitch()] {
            let price = |p: &Program| target.machine.evaluate(p).unwrap().seconds.to_bits();
            let mut heuristic = 0;
            for k in perfdojo_kernels::tune_suite() {
                let r = lib.lookup(&k.program, &target);
                let at = format!("{} on {}: {}", k.label, target.name, r.disposition);
                assert_eq!(r.naive_cost.to_bits(), price(&k.program), "{at}");
                assert_eq!(r.cost.to_bits(), price(&r.program), "{at}");
                heuristic += usize::from(r.disposition == Disposition::FallbackHeuristic);
            }
            assert!(heuristic > 0, "no tier-4 reply on {}", target.name);
        }
    }

    #[test]
    fn wrong_target_never_replays_foreign_records() {
        let (lib, _) = tuned_library();
        let query = perfdojo_kernels::softmax(64, 64);
        let r = lib.lookup(&query, &Target::gh200());
        assert_ne!(r.disposition.tag(), "exact-hit");
        assert_ne!(r.disposition.tag(), "fallback-replay", "x86 records must not serve gh200");
    }

    #[test]
    fn large_query_skips_numeric_verification() {
        let (lib, target) = tuned_library();
        let query = perfdojo_kernels::by_label("softmax").unwrap().program; // 24576x512
        let r = lib.lookup(&query, &target);
        assert!(query.dynamic_op_instances() > 2_000_000);
        assert_eq!(r.verified, None);
        assert!(r.cost <= r.naive_cost);
    }

    #[test]
    fn overflowing_query_shape_returns_unverified() {
        // 2^32 x 2^32: the op count saturates past the verify limit instead
        // of wrapping to 0, so the query is never interpreted
        let target = Target::x86();
        let mut lib = Library::new();
        let relu: Vec<_> =
            perfdojo_kernels::tune_suite().into_iter().filter(|k| k.label == "relu").collect();
        LibraryBuilder::new(Strategy::Heuristic, 3).build_into(
            &mut lib,
            &relu,
            std::slice::from_ref(&target),
        );
        let query = perfdojo_kernels::by_label_with_shape("relu", &[1 << 32, 1 << 32]).unwrap();
        let r = lib.lookup(&query, &target);
        assert_eq!(r.verified, None);
    }

    /// Library tuned over a two-shape family, queried at a third shape.
    fn family_library() -> (Library, Target) {
        let target = Target::x86();
        let kernels: Vec<_> = perfdojo_kernels::tune_suite()
            .into_iter()
            .filter(|k| k.label.starts_with("layernorm"))
            .collect();
        let mut lib = Library::new();
        LibraryBuilder::new(Strategy::Heuristic, 3).build_into(
            &mut lib,
            &kernels,
            std::slice::from_ref(&target),
        );
        (lib, target)
    }

    #[test]
    fn parameterized_tier_serves_family_fit() {
        let (lib, target) = family_library();
        let query = perfdojo_kernels::by_label_with_shape("layernorm 1", &[96, 48]).unwrap();
        let before = dispatch_stats();
        let r = lib.lookup(&query, &target);
        assert_eq!(r.disposition.tag(), "parameterized", "{}", r.disposition);
        assert!(r.speedup() >= 1.0);
        assert_eq!(r.verified, Some(true), "the tier is numerically verified like the others");
        assert!(!r.steps.is_empty());
        let Disposition::Parameterized { donor, support, residual } = &r.disposition else {
            panic!("tag/variant mismatch");
        };
        assert!(donor.contains("|x86"), "donor key names a library record: {donor}");
        assert!(*support >= 1);
        assert!(residual.is_finite());
        let after = dispatch_stats();
        assert!(after.parameterized_hits > before.parameterized_hits);
    }

    #[test]
    fn poisoned_machine_model_serves_naive() {
        let (lib, target) = tuned_library();
        let mut poisoned = target.clone();
        poisoned.machine.config.clock_ghz = f64::NAN; // every Estimate.seconds is NaN
        let query = perfdojo_kernels::softmax(64, 64);
        let r = lib.lookup(&query, &poisoned);
        // before the finiteness guard, `cost > naive_cost` was false for
        // NaN and the exact-hit tier served a NaN-cost schedule
        assert_eq!(r.disposition, Disposition::Naive, "{}", r.disposition);
        assert!(r.steps.is_empty());
        assert!(r.cost.is_nan());
    }

    #[test]
    fn zero_step_nearest_record_is_counted_in_stats() {
        use crate::format::{Provenance, ScheduleRecord};
        let target = Target::x86();
        let mut lib = Library::new();
        // a zero-step record (loadable from disk: step lines are optional)
        lib.merge([ScheduleRecord {
            sig: KernelSig::of(&perfdojo_kernels::softmax(4, 8), &target.name),
            label: "softmax".into(),
            steps: Vec::new(),
            cost: 1.0e-9,
            naive_cost: 2.0e-9,
            model_version: crate::library::current_model_version(),
            provenance: Provenance { strategy: "test".into(), seed: 0, budget: 1 },
        }]);
        let query = perfdojo_kernels::softmax(4, 16);
        let before = dispatch_stats();
        let r = lib.lookup(&query, &target);
        let after = dispatch_stats();
        assert!(
            after.empty_record_skips > before.empty_record_skips,
            "the empty-record skip must leave a stats trace"
        );
        // the tier falls through instead of serving the empty schedule
        assert_ne!(r.disposition.tag(), "fallback-replay", "{}", r.disposition);
        assert!(r.cost <= r.naive_cost || r.disposition == Disposition::Naive);
    }

    #[test]
    fn dispatch_stats_count_every_tier() {
        let (lib, target) = tuned_library();
        let before = dispatch_stats();
        lib.lookup(&perfdojo_kernels::softmax(64, 64), &target); // exact
        lib.lookup(
            &perfdojo_kernels::by_label_with_shape("softmax", &[96, 64]).unwrap(),
            &target,
        ); // replay
        lib.lookup(&perfdojo_kernels::by_label_with_shape("rmsnorm", &[64, 64]).unwrap(), &target); // heuristic
        let after = dispatch_stats();
        assert!(after.exact_hits > before.exact_hits);
        assert!(after.replay_hits > before.replay_hits);
        assert!(after.heuristic_serves > before.heuristic_serves);
    }
}
