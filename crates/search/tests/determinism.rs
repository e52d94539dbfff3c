//! Seed determinism of the classical search strategies: the same seed must
//! reproduce the *entire* trajectory — every trace point, the winning
//! sequence, and the bit-exact best runtime. Reproducible searches are what
//! make the paper figures and the tuned-library artifacts re-derivable.

use perfdojo_core::{Dojo, Target};
use perfdojo_search::{
    random_sampling, simulated_annealing, EdgesSpace, HeuristicSpace, SearchResult,
};

fn dojo() -> Dojo {
    Dojo::for_target(perfdojo_kernels::softmax(16, 32), &Target::x86()).unwrap()
}

fn assert_identical(label: &str, a: &SearchResult, b: &SearchResult) {
    assert_eq!(a.trace, b.trace, "{label}: trace diverged under the same seed");
    assert_eq!(a.best_steps, b.best_steps, "{label}: best sequence diverged");
    assert!(
        a.best_runtime == b.best_runtime,
        "{label}: best runtime diverged: {} vs {}",
        a.best_runtime,
        b.best_runtime
    );
}

#[test]
fn annealing_trajectory_is_seed_deterministic() {
    let a = simulated_annealing(&mut dojo(), &HeuristicSpace, 120, 7);
    let b = simulated_annealing(&mut dojo(), &HeuristicSpace, 120, 7);
    assert_identical("anneal heuristic space", &a, &b);

    let a = simulated_annealing(&mut dojo(), &EdgesSpace, 120, 7);
    let b = simulated_annealing(&mut dojo(), &EdgesSpace, 120, 7);
    assert_identical("anneal edges space", &a, &b);
}

#[test]
fn random_sampling_trajectory_is_seed_deterministic() {
    let a = random_sampling(&mut dojo(), 120, 7);
    let b = random_sampling(&mut dojo(), 120, 7);
    assert_identical("random_sampling", &a, &b);
}

#[test]
fn different_seeds_explore_differently() {
    // the seed must actually steer the search: two seeds may converge to
    // the same optimum, but their step-by-step traces should not coincide
    let a = simulated_annealing(&mut dojo(), &HeuristicSpace, 120, 7);
    let b = simulated_annealing(&mut dojo(), &HeuristicSpace, 120, 8);
    assert_ne!(a.trace, b.trace, "seed has no effect on the annealing trajectory");
}
