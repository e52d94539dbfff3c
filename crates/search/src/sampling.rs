//! Global random sampling (paper §4.2.2, first strategy).
//!
//! Samples over *all previously encountered programs*, with selection
//! probabilities based on past evaluations; the cost of a sequence is "the
//! runtime of its parent in the search graph", which avoids spending budget
//! on children of weakly performing candidates.
//!
//! A run is one uninterrupted call: no library build strategy runs random
//! sampling, so nothing pauses, resumes or traces it.

use crate::SearchResult;
use perfdojo_core::Dojo;
use perfdojo_transform::Action;
use perfdojo_util::rng::{IndexedRandom, Rng};

/// One encountered program in the sampling pool.
struct Candidate {
    /// Transformation sequence reaching it.
    steps: Vec<Action>,
    /// Own measured runtime.
    runtime: f64,
    /// Parent's runtime (the §4.2.2 cost).
    cost: f64,
}

/// Run parent-cost-weighted random sampling for `budget` evaluations.
pub fn random_sampling(dojo: &mut Dojo, budget: u64, seed: u64) -> SearchResult {
    let initial_runtime = dojo.initial_runtime();
    let mut rng = Rng::seed_from_u64(seed);
    let mut pool =
        vec![Candidate { steps: Vec::new(), runtime: initial_runtime, cost: initial_runtime }];
    let mut result = SearchResult {
        best_steps: Vec::new(),
        best_runtime: initial_runtime,
        trace: vec![(0, initial_runtime)],
    };
    let start = dojo.evaluations();
    let spent = |dojo: &Dojo| dojo.evaluations() - start;
    while spent(dojo) < budget {
        // selection ∝ 1/cost (cheaper parents more likely)
        let weights: Vec<f64> = pool.iter().map(|c| 1.0 / c.cost).collect();
        let total: f64 = weights.iter().sum();
        let mut pick = rng.random_range(0.0..total);
        let mut idx = 0;
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                idx = i;
                break;
            }
            pick -= w;
        }
        let mut steps = pool[idx].steps.clone();
        let parent_runtime = pool[idx].runtime;
        if dojo.load_sequence(&steps).is_err() {
            continue;
        }
        let Some(a) = dojo.actions().choose(&mut rng).cloned() else { continue };
        let Ok(step) = dojo.step(a.clone()) else { continue };
        steps.push(a);
        if step.runtime < result.best_runtime {
            result.best_runtime = step.runtime;
            result.best_steps = steps.clone();
        }
        result.trace.push((spent(dojo), result.best_runtime));
        pool.push(Candidate { steps, runtime: step.runtime, cost: parent_runtime });
    }
    result
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
}
