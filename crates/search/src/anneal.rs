//! Simulated annealing (paper §4.2.2, second strategy).
//!
//! Unlike the sampling strategy, SA defines a candidate's cost directly as
//! its own runtime. The neighborhood structure is pluggable
//! ([`crate::SearchSpace`]): *edges*-based or *heuristic*-based — the
//! comparison of Fig. 12.
//!
//! The loop is factored into an explicit, serializable [`AnnealState`]
//! (RNG words, current/best sequences, spend, cooling constants) driven by
//! [`anneal_resume`], so a run can emit per-step trajectory events, pause
//! at a step limit, be checkpointed to disk (`crate::checkpoint`) and later
//! continue bit-identically to an uninterrupted run.
//! [`simulated_annealing`] is the thin uninterrupted cold-start wrapper;
//! `perfdojo-library`'s job runner drives the state machine directly.

use crate::{SearchResult, SearchSpace, TracePoint};
use perfdojo_core::Dojo;
use perfdojo_transform::Action;
use perfdojo_util::rng::Rng;
use perfdojo_util::trace::TraceSink;

/// The full, resumable state of one simulated-annealing run.
///
/// Everything the loop needs to continue is here — except the `Dojo`,
/// which a resumer re-establishes with [`AnnealState::reattach`]. The cost
/// cache is deliberately *not* part of the state: a resumed process starts
/// cold, which changes `cache_hit` telemetry but no value or decision
/// (cache hits return the exact value the machine model would compute).
#[derive(Clone, Debug)]
pub struct AnnealState {
    /// Search RNG (serialized via its xoshiro state words).
    pub rng: Rng,
    /// Current candidate sequence.
    pub current: Vec<Action>,
    /// Runtime of the current candidate.
    pub current_cost: f64,
    /// Best sequence seen so far.
    pub best_steps: Vec<Action>,
    /// Best runtime seen so far.
    pub best_runtime: f64,
    /// Evaluations spent so far (resume-invariant: tracked by deltas, so
    /// the restore evaluation of a resumed run is not charged).
    pub spent: u64,
    /// Cooling start temperature.
    pub t0: f64,
    /// Cooling end temperature.
    pub t_end: f64,
    /// Convergence trace accumulated so far.
    pub trace: Vec<TracePoint>,
    /// Trajectory events emitted so far (trace-sink step counter).
    pub events: u64,
}

/// Whether [`anneal_resume`] ran the budget dry or paused at a step limit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnnealProgress {
    /// The evaluation budget is exhausted; the state holds the final result.
    Finished,
    /// The step limit was reached first; checkpoint and continue later.
    Paused,
}

impl AnnealState {
    /// Start a fresh run: seed the RNG, take the space's initial candidate
    /// and evaluate it, charging that work to `spent`. A non-empty `warm`
    /// (a transferred schedule) is then leniently replayed and its applied
    /// sequence adopted when it beats the initial cost; the extra
    /// evaluation(s) are deterministic and charged to `spent` too, so warm
    /// runs checkpoint and resume exactly like cold ones. Pass `&[]` for a
    /// cold start.
    pub fn start_with_warm(
        dojo: &mut Dojo,
        space: &dyn SearchSpace,
        seed: u64,
        warm: &[Action],
    ) -> AnnealState {
        let rng = Rng::seed_from_u64(seed);
        let start_evals = dojo.evaluations();
        let mut current = space.initial(dojo);
        let mut current_cost = match dojo.load_sequence(&current) {
            Ok(rt) => rt,
            Err(_) => dojo.initial_runtime(),
        };
        if !warm.is_empty() {
            match dojo.load_sequence(warm) {
                Ok(rt) if rt < current_cost => {
                    // adopt the *applied* sequence (lenient replay may have
                    // skipped steps) so the dojo and `current` stay in sync
                    current = dojo.history.steps.clone();
                    current_cost = rt;
                }
                _ => {
                    // reposition the dojo on the initial candidate
                    let _ = dojo.load_sequence(&current);
                }
            }
        }
        let spent = dojo.evaluations() - start_evals;
        AnnealState {
            rng,
            best_steps: current.clone(),
            best_runtime: current_cost,
            current,
            current_cost,
            spent,
            // geometric cooling from a temperature that accepts ~50% of 2x
            // regressions down to near-greedy behaviour
            t0: current_cost,
            t_end: current_cost * 1e-3,
            trace: vec![(spent, current_cost)],
            events: 0,
        }
    }

    /// Re-establish a restored state on a fresh `Dojo`: load the current
    /// sequence so neighbor generation sees the right program. The one
    /// evaluation this costs is *not* charged to `spent` — the
    /// uninterrupted run never spent it — keeping resumed accounting
    /// bit-identical.
    pub fn reattach(&self, dojo: &mut Dojo) {
        let _ = dojo.load_sequence(&self.current);
    }

    /// Consume the state into a [`SearchResult`].
    pub fn into_result(self) -> SearchResult {
        SearchResult {
            best_steps: self.best_steps,
            best_runtime: self.best_runtime,
            trace: self.trace,
        }
    }
}

/// Drive an [`AnnealState`] forward until the budget is spent, or until
/// `max_steps` loop iterations have run (for step-limited checkpointing).
///
/// Each evaluated candidate appends a trace point and, when `sink` is
/// given, one `"sa"` trajectory event (action, cost, temperature,
/// accept/reject, best-so-far, cache hit). All decisions are pure
/// functions of the state, so interrupt-and-resume replays the identical
/// trajectory.
pub fn anneal_resume(
    dojo: &mut Dojo,
    space: &dyn SearchSpace,
    budget: u64,
    state: &mut AnnealState,
    mut sink: Option<&mut TraceSink>,
    max_steps: Option<u64>,
) -> AnnealProgress {
    // `spent` is advanced by deltas of the dojo's counter relative to this
    // segment's start, mirroring the historical `evals - start_evals`.
    let base = state.spent;
    let seg0 = dojo.evaluations();
    let mut steps_done = 0u64;
    loop {
        state.spent = base + (dojo.evaluations() - seg0);
        if state.spent >= budget {
            return AnnealProgress::Finished;
        }
        if max_steps.is_some_and(|m| steps_done >= m) {
            return AnnealProgress::Paused;
        }
        steps_done += 1;
        let progress = state.spent as f64 / budget.max(1) as f64;
        let temp = state.t0 * (state.t_end / state.t0).powf(progress);

        // The candidate is `state.current` edited in place — cloning a
        // hundreds-of-actions sequence every iteration was a measurable
        // slice of the incremental engine's hot loop. Rejection (and the
        // unreplayable-candidate path) reverts the edit instead.
        let undo = space.propose(&mut state.current, dojo, &mut state.rng);
        let hits_before = dojo.cache_stats().hits;
        let Ok(cost) = dojo.load_sequence(&state.current) else {
            crate::space::revert(&mut state.current, undo);
            continue;
        };
        let cache_hit = dojo.cache_stats().hits > hits_before;
        let accept = cost <= state.current_cost || {
            let d = (cost - state.current_cost) / temp.max(1e-30);
            state.rng.random_bool((-d).exp().clamp(0.0, 1.0))
        };
        if accept {
            state.current_cost = cost;
        } else {
            crate::space::revert(&mut state.current, undo);
        }
        if cost < state.best_runtime {
            state.best_runtime = cost;
            // the *applied* sequence: lenient `load_sequence` may have
            // skipped steps of the edited candidate, and records built from
            // `best_steps` must replay strictly
            state.best_steps = dojo.history.steps.clone();
        }
        state.spent = base + (dojo.evaluations() - seg0);
        state.trace.push((state.spent, state.best_runtime));
        if let Some(sink) = sink.as_deref_mut() {
            sink.event("sa")
                .u64("evals", state.spent)
                .str("action", &state.current.last().map_or_else(String::new, |a| a.to_string()))
                .u64("seq", state.current.len() as u64)
                .f64("cost", cost)
                .f64("temp", temp)
                .bool("accept", accept)
                .f64("best", state.best_runtime)
                .bool("cache_hit", cache_hit)
                .emit();
            state.events = sink.next_step();
        }
    }
}

/// Run simulated annealing for `budget` evaluations from a cold start.
///
/// A zero budget is a no-op by definition: the initial program is returned
/// untouched, with no evaluations spent and no NaN temperatures computed
/// (the cooling schedule divides by the budget).
pub fn simulated_annealing(
    dojo: &mut Dojo,
    space: &dyn SearchSpace,
    budget: u64,
    seed: u64,
) -> SearchResult {
    anneal_chain(dojo, space, budget, seed, &[])
}

/// One uninterrupted, possibly warm-started run: the state machine driven
/// to completion, with the zero-budget no-op of [`simulated_annealing`]
/// (a no-op spends nothing, warm or cold).
pub(crate) fn anneal_chain(
    dojo: &mut Dojo,
    space: &dyn SearchSpace,
    budget: u64,
    seed: u64,
    warm: &[Action],
) -> SearchResult {
    if budget == 0 {
        let rt = dojo.initial_runtime();
        return SearchResult { best_steps: Vec::new(), best_runtime: rt, trace: vec![(0, rt)] };
    }
    let mut state = AnnealState::start_with_warm(dojo, space, seed, warm);
    anneal_resume(dojo, space, budget, &mut state, None, None);
    state.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgesSpace, HeuristicSpace};
    use perfdojo_core::Target;

    #[test]
    fn heuristic_space_converges_faster_than_edges() {
        // The decisive Fig. 12 effect: expert-structured neighborhoods find
        // good implementations in fewer evaluations.
        let mk = || {
            let p = perfdojo_kernels::softmax(16, 32);
            Dojo::for_target(p, &Target::x86()).unwrap()
        };
        let budget = 120;
        let mut d = mk();
        let edges = simulated_annealing(&mut d, &EdgesSpace, budget, 5);
        let mut d = mk();
        let heur = simulated_annealing(&mut d, &HeuristicSpace, budget, 5);
        assert!(
            heur.best_runtime <= edges.best_runtime,
            "heuristic {} vs edges {}",
            heur.best_runtime,
            edges.best_runtime
        );
    }

    #[test]
    fn anneal_beats_or_matches_initial() {
        let p = perfdojo_kernels::mul(8, 64);
        let mut d = Dojo::for_target(p, &Target::x86()).unwrap();
        let init = d.initial_runtime();
        let r = simulated_annealing(&mut d, &EdgesSpace, 100, 21);
        assert!(r.best_runtime <= init);
    }

    #[test]
    fn deterministic_under_seed() {
        let mk = || {
            let p = perfdojo_kernels::reducemean(8, 32);
            let mut d = Dojo::for_target(p, &Target::x86()).unwrap();
            simulated_annealing(&mut d, &EdgesSpace, 80, 17).best_runtime
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn zero_budget_returns_initial_program_untouched() {
        // the historical loop computed progress = spent / budget, a 0/0 NaN
        // at budget 0; now a zero budget must spend nothing, transform
        // nothing and report the initial program
        let p = perfdojo_kernels::softmax(8, 16);
        let mut d = Dojo::for_target(p.clone(), &Target::x86()).unwrap();
        let evals_before = d.evaluations();
        for space in [&EdgesSpace as &dyn SearchSpace, &HeuristicSpace] {
            let r = simulated_annealing(&mut d, space, 0, 42);
            assert!(r.best_steps.is_empty(), "no steps may be taken at budget 0");
            assert_eq!(r.best_runtime.to_bits(), d.initial_runtime().to_bits());
            assert!(r.best_runtime.is_finite());
            assert_eq!(r.trace, vec![(0, d.initial_runtime())]);
        }
        assert_eq!(d.evaluations(), evals_before, "budget 0 must spend nothing");
        assert_eq!(d.current(), &p, "the dojo must be left untransformed");
    }

    #[test]
    fn warm_start_adopts_better_sequence_and_charges_it() {
        // Tune once to get a known-good sequence, then warm-start a fresh
        // run from it: the state must begin at (or below) the warm cost.
        let mk = || {
            let p = perfdojo_kernels::softmax(16, 32);
            Dojo::for_target(p, &Target::x86()).unwrap()
        };
        let mut d = mk();
        let donor = simulated_annealing(&mut d, &HeuristicSpace, 120, 5);
        assert!(!donor.best_steps.is_empty());

        let mut d = mk();
        let st = AnnealState::start_with_warm(&mut d, &HeuristicSpace, 5, &donor.best_steps);
        assert!(
            st.current_cost <= donor.best_runtime,
            "warm start {} must not be worse than the donor {}",
            st.current_cost,
            donor.best_runtime
        );
        assert!(st.spent > 0, "warm evaluation must be charged");
        // determinism: the same warm start twice is bit-identical
        let mut d2 = mk();
        let st2 = AnnealState::start_with_warm(&mut d2, &HeuristicSpace, 5, &donor.best_steps);
        assert_eq!(st.current_cost.to_bits(), st2.current_cost.to_bits());
        assert_eq!(st.current, st2.current);
        assert_eq!(st.spent, st2.spent);
    }

    #[test]
    fn resumable_driver_matches_wrapper_bit_for_bit() {
        // run the thin wrapper and the explicit state machine side by side
        let mk = || {
            let p = perfdojo_kernels::softmax(8, 16);
            Dojo::for_target(p, &Target::x86()).unwrap()
        };
        let (budget, seed) = (90, 13);
        let mut d1 = mk();
        let a = simulated_annealing(&mut d1, &EdgesSpace, budget, seed);
        let mut d2 = mk();
        let mut st = AnnealState::start_with_warm(&mut d2, &EdgesSpace, seed, &[]);
        let p = anneal_resume(&mut d2, &EdgesSpace, budget, &mut st, None, None);
        assert_eq!(p, AnnealProgress::Finished);
        let b = st.into_result();
        assert_eq!(a.best_runtime.to_bits(), b.best_runtime.to_bits());
        assert_eq!(a.best_steps, b.best_steps);
        assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.trace.iter().zip(&b.trace) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
        assert_eq!(d1.evaluations(), d2.evaluations());
    }

    #[test]
    fn step_limit_pauses_and_plain_continue_finishes_identically() {
        let mk = || {
            let p = perfdojo_kernels::mul(8, 32);
            Dojo::for_target(p, &Target::x86()).unwrap()
        };
        let (budget, seed) = (80, 3);
        let mut d1 = mk();
        let full = simulated_annealing(&mut d1, &EdgesSpace, budget, seed);

        let mut d2 = mk();
        let mut st = AnnealState::start_with_warm(&mut d2, &EdgesSpace, seed, &[]);
        let mut pauses = 0;
        while anneal_resume(&mut d2, &EdgesSpace, budget, &mut st, None, Some(7))
            == AnnealProgress::Paused
        {
            pauses += 1;
            assert!(pauses < 1000, "must terminate");
        }
        assert!(pauses > 0, "a 7-step limit must pause at least once");
        let r = st.into_result();
        assert_eq!(full.best_runtime.to_bits(), r.best_runtime.to_bits());
        assert_eq!(full.best_steps, r.best_steps);
        assert_eq!(full.trace, r.trace);
    }
}
