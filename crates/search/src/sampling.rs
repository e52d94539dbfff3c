//! Global random sampling (paper §4.2.2, first strategy).
//!
//! Samples over *all previously encountered programs*, with selection
//! probabilities based on past evaluations; the cost of a sequence is "the
//! runtime of its parent in the search graph", which avoids spending budget
//! on children of weakly performing candidates.
//!
//! Like annealing, the loop is factored into a resumable
//! [`SamplingState`] (RNG words, the candidate pool, best-so-far, spend)
//! driven by [`sampling_resume`], so runs can emit trajectory events,
//! pause and resume bit-identically. It has no checkpoint text: no
//! library build strategy runs random sampling.

use crate::{SearchResult, TracePoint};
use perfdojo_core::Dojo;
use perfdojo_transform::Action;
use perfdojo_util::rng::{IndexedRandom, Rng};
use perfdojo_util::trace::TraceSink;

/// One encountered program in the sampling pool.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Transformation sequence reaching it.
    pub steps: Vec<Action>,
    /// Own measured runtime.
    pub runtime: f64,
    /// Parent's runtime (the §4.2.2 cost).
    pub cost: f64,
}

/// The full, resumable state of one random-sampling run.
///
/// Self-contained: unlike [`crate::AnnealState`] no dojo reattachment is
/// needed, because every iteration re-loads its parent sequence from
/// scratch.
#[derive(Clone, Debug)]
pub struct SamplingState {
    /// Search RNG.
    pub rng: Rng,
    /// Pool of all encountered programs.
    pub pool: Vec<Candidate>,
    /// Best sequence seen so far.
    pub best_steps: Vec<Action>,
    /// Best runtime seen so far.
    pub best_runtime: f64,
    /// Evaluations spent so far.
    pub spent: u64,
    /// Convergence trace accumulated so far.
    pub trace: Vec<TracePoint>,
    /// Trajectory events emitted so far.
    pub events: u64,
}

impl SamplingState {
    /// Start a fresh run: seed the RNG and the pool with the untransformed
    /// program (spends nothing).
    pub fn start(dojo: &Dojo, seed: u64) -> SamplingState {
        let initial_runtime = dojo.initial_runtime();
        SamplingState {
            rng: Rng::seed_from_u64(seed),
            pool: vec![Candidate {
                steps: Vec::new(),
                runtime: initial_runtime,
                cost: initial_runtime,
            }],
            best_steps: Vec::new(),
            best_runtime: initial_runtime,
            spent: 0,
            trace: vec![(0, initial_runtime)],
            events: 0,
        }
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

/// Whether [`sampling_resume`] ran the budget dry or paused early.
pub use crate::anneal::AnnealProgress as SamplingProgress;

/// Drive a [`SamplingState`] forward until the budget is spent, or until
/// `max_steps` iterations have run. Emits one `"rs"` event per expanded
/// candidate when `sink` is given.
pub fn sampling_resume(
    dojo: &mut Dojo,
    budget: u64,
    state: &mut SamplingState,
    mut sink: Option<&mut TraceSink>,
    max_steps: Option<u64>,
) -> SamplingProgress {
    let base = state.spent;
    let seg0 = dojo.evaluations();
    let mut steps_done = 0u64;
    loop {
        state.spent = base + (dojo.evaluations() - seg0);
        if state.spent >= budget {
            return SamplingProgress::Finished;
        }
        if max_steps.is_some_and(|m| steps_done >= m) {
            return SamplingProgress::Paused;
        }
        steps_done += 1;
        // selection ∝ 1/cost (cheaper parents more likely)
        let weights: Vec<f64> = state.pool.iter().map(|c| 1.0 / c.cost).collect();
        let total: f64 = weights.iter().sum();
        let mut pick = state.rng.random_range(0.0..total);
        let mut idx = 0;
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                idx = i;
                break;
            }
            pick -= w;
        }
        let parent_steps = state.pool[idx].steps.clone();
        let parent_runtime = state.pool[idx].runtime;
        if dojo.load_sequence(&parent_steps).is_err() {
            continue;
        }
        let Some(a) = dojo.actions_cached().choose(&mut state.rng).cloned() else { continue };
        let hits_before = dojo.cache_stats().hits;
        let Ok(step) = dojo.step(a.clone()) else { continue };
        let cache_hit = dojo.cache_stats().hits > hits_before;
        let mut steps = parent_steps;
        steps.push(a.clone());
        if step.runtime < state.best_runtime {
            state.best_runtime = step.runtime;
            state.best_steps = steps.clone();
        }
        state.spent = base + (dojo.evaluations() - seg0);
        state.trace.push((state.spent, state.best_runtime));
        if let Some(sink) = sink.as_deref_mut() {
            sink.event("rs")
                .u64("evals", state.spent)
                .u64("parent", idx as u64)
                .str("action", &a.to_string())
                .f64("cost", step.runtime)
                .f64("best", state.best_runtime)
                .bool("cache_hit", cache_hit)
                .emit();
            state.events = sink.next_step();
        }
        state.pool.push(Candidate { steps, runtime: step.runtime, cost: parent_runtime });
    }
}

/// Run parent-cost-weighted random sampling for `budget` evaluations.
pub fn random_sampling(dojo: &mut Dojo, budget: u64, seed: u64) -> SearchResult {
    let mut state = SamplingState::start(dojo, seed);
    sampling_resume(dojo, budget, &mut state, None, None);
    state.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdojo_core::Target;

    #[test]
    fn sampling_improves_relu_on_x86() {
        let p = perfdojo_kernels::relu(256, 256);
        let mut d = Dojo::for_target(p, &Target::x86()).unwrap();
        let init = d.initial_runtime();
        let r = random_sampling(&mut d, 150, 11);
        assert!(r.best_runtime < init, "no improvement found");
        assert!(r.trace.last().unwrap().1 <= r.trace.first().unwrap().1);
    }

    #[test]
    fn trace_is_monotone_nonincreasing() {
        let p = perfdojo_kernels::softmax(8, 16);
        let mut d = Dojo::for_target(p, &Target::x86()).unwrap();
        let r = random_sampling(&mut d, 80, 3);
        for w in r.trace.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mk = || {
            let p = perfdojo_kernels::rmsnorm(4, 16);
            let mut d = Dojo::for_target(p, &Target::x86()).unwrap();
            random_sampling(&mut d, 60, 99).best_runtime
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn zero_budget_spends_nothing() {
        let p = perfdojo_kernels::softmax(8, 16);
        let mut d = Dojo::for_target(p, &Target::x86()).unwrap();
        let before = d.evaluations();
        let r = random_sampling(&mut d, 0, 1);
        assert!(r.best_steps.is_empty());
        assert_eq!(r.best_runtime.to_bits(), d.initial_runtime().to_bits());
        assert_eq!(d.evaluations(), before);
    }

    #[test]
    fn paused_and_resumed_matches_uninterrupted() {
        let mk = || {
            let p = perfdojo_kernels::rmsnorm(4, 16);
            Dojo::for_target(p, &Target::x86()).unwrap()
        };
        let (budget, seed) = (70, 4);
        let mut d1 = mk();
        let full = random_sampling(&mut d1, budget, seed);

        let mut d2 = mk();
        let mut st = SamplingState::start(&d2, seed);
        while sampling_resume(&mut d2, budget, &mut st, None, Some(5))
            == SamplingProgress::Paused
        {}
        let r = st.into_result();
        assert_eq!(full.best_runtime.to_bits(), r.best_runtime.to_bits());
        assert_eq!(full.best_steps, r.best_steps);
        assert_eq!(full.trace, r.trace);
    }
}
