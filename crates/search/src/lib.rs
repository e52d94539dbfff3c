//! # Search over the PerfDojo game
//!
//! Implements the paper's §4.1 optimization passes (*naive*, *greedy*,
//! *heuristic*) and the §4.2 classical searches: global random sampling
//! (parent-cost weighted) and simulated annealing, each over either the
//! *edges*-structured or the *heuristic*-structured search space
//! (§4.2.1–4.2.2, Fig. 12).

pub mod anneal;
pub mod checkpoint;
pub mod manual;
pub mod parallel;
pub mod passes;
pub mod sampling;
pub mod space;

pub use anneal::{anneal_resume, simulated_annealing, AnnealProgress, AnnealState};
pub use parallel::{anneal_chains, chain_seed};
pub use passes::{greedy_pass, heuristic_pass, naive_pass};
pub use sampling::random_sampling;
pub use space::{revert, EdgesSpace, HeuristicSpace, SearchSpace, Undo};

/// One point of a convergence curve: (evaluations so far, best runtime).
pub type TracePoint = (u64, f64);

/// Result of a search run.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// Best transformation sequence found.
    pub best_steps: Vec<perfdojo_transform::Action>,
    /// Best runtime in seconds.
    pub best_runtime: f64,
    /// Convergence trace (for Fig. 12).
    pub trace: Vec<TracePoint>,
}

#[cfg(test)]
mod tests {
    use perfdojo_core::{Dojo, Target};

    fn dojo(label: &str) -> Dojo {
        let k = perfdojo_kernels::small_suite()
            .into_iter()
            .find(|k| k.label == label)
            .unwrap();
        Dojo::for_target(k.program, &Target::x86()).unwrap()
    }

    #[test]
    fn searches_never_worsen_best() {
        let mut d = dojo("softmax");
        let init = d.initial_runtime();
        let r = crate::random_sampling(&mut d, 60, 42);
        assert!(r.best_runtime <= init);
        let mut d = dojo("softmax");
        let r = crate::simulated_annealing(&mut d, &crate::EdgesSpace, 60, 43);
        assert!(r.best_runtime <= init);
    }

    #[test]
    fn search_result_replays_to_reported_runtime() {
        let mut d = dojo("rmsnorm");
        let r = crate::random_sampling(&mut d, 80, 7);
        let mut d2 = dojo("rmsnorm");
        let rt = d2.load_sequence(&r.best_steps).unwrap();
        assert!((rt - r.best_runtime).abs() / r.best_runtime < 1e-9);
    }
}
