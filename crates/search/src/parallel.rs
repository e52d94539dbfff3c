//! Parallel multi-chain search: K independent, deterministically-seeded
//! chains of a classical search run concurrently over cloned dojos, merged
//! keep-best.
//!
//! This parallelizes *within* a kernel the way `perfdojo-library`'s
//! `LibraryBuilder` already parallelizes *across* kernels: each chain owns
//! a full `Dojo` clone (history, cost cache and all), runs on
//! `perfdojo_util::par::par_map`'s scoped thread pool — or in a plain loop
//! when `par::cores()` reports a single core, where a pool could only slow
//! the same serialized work down — and derives its seed purely from the
//! caller's seed and its chain index. Because chains come back in input
//! order on either path and per-chain work is
//! self-contained, the merged result is a pure function of
//! `(dojo, chains, budget, seed)` — the same no matter how many worker
//! threads the machine offers.
//!
//! Chain evaluations are charged back to the caller's dojo
//! ([`perfdojo_core::Dojo::charge_evaluations`]) so its budget accounting
//! stays truthful; the caller's dojo itself is left where it was.

use crate::anneal::anneal_chain;
use crate::{SearchResult, SearchSpace};
use perfdojo_core::Dojo;
use perfdojo_ir::fingerprint::fnv1a;
use perfdojo_transform::Action;
use perfdojo_util::par::{cores, par_map};
use perfdojo_util::trace::TraceSink;

/// Seed for one chain: mixed from the global seed and the chain index so
/// chains are decorrelated and insensitive to how work lands on threads.
pub fn chain_seed(seed: u64, chain: usize) -> u64 {
    seed ^ fnv1a(format!("chain|{chain}").as_bytes())
}

/// Merge per-chain results keep-best. Ties break toward the lowest chain
/// index (strict `<`), so the merge is deterministic; the winning chain's
/// convergence trace is kept, and `evaluations` reports the summed spend.
pub fn merge_chains(results: Vec<SearchResult>) -> (SearchResult, u64) {
    let total_evals: u64 = results.iter().map(|r| r.trace.last().map_or(0, |t| t.0)).sum();
    let mut best: Option<SearchResult> = None;
    for r in results {
        match &best {
            Some(b) if r.best_runtime >= b.best_runtime => {}
            _ => best = Some(r),
        }
    }
    (best.expect("at least one chain"), total_evals)
}

/// Run `chains` independent simulated-annealing chains of
/// `budget_per_chain` evaluations each, concurrently, and keep the best.
///
/// Chain `c` is seeded by [`chain_seed`]`(seed, c)`, starts from `warm`
/// (a transferred schedule, when it replays and beats the space's initial
/// candidate; `&[]` for a cold start) and runs on its own clone of `dojo`,
/// so results are bit-reproducible regardless of thread count. A zero
/// per-chain budget makes every chain the no-op of
/// [`crate::simulated_annealing`].
///
/// The run is resumable at chain granularity: `completed` holds the
/// results of chains already finished by an earlier (interrupted) run —
/// typically restored via `crate::checkpoint::parse_chains` — and only the
/// remaining chains `completed.len()..chains` are executed. Each
/// newly-finished chain is appended to `completed` (serialize it after
/// this returns to advance the checkpoint) and, when `sink` is given,
/// emits one `"chain"` event, so the concatenated event stream of an
/// interrupted + resumed run is byte-identical to an uninterrupted one.
/// Chains restored from `completed` were warm-started (or not) by the
/// process that ran them; as long as the same `warm` sequence is passed on
/// every resume — it is part of the job's identity, like `seed` — the two
/// stay byte-identical. Only the newly-run chains' spend is charged to
/// `dojo` (the interrupted process already accounted for its own).
#[allow(clippy::too_many_arguments)]
pub fn anneal_chains(
    dojo: &mut Dojo,
    space: &dyn SearchSpace,
    chains: usize,
    budget_per_chain: u64,
    seed: u64,
    warm: &[Action],
    completed: &mut Vec<SearchResult>,
    sink: Option<&mut TraceSink>,
) -> SearchResult {
    let chains = chains.max(1);
    completed.truncate(chains);
    let start = completed.len();
    let run = |c: usize| {
        let mut chain_dojo = dojo.clone();
        anneal_chain(&mut chain_dojo, space, budget_per_chain, chain_seed(seed, c), warm)
    };
    // on one core a pool only adds scheduling and synchronization to the
    // same serialized work; either way each chain is cloned, run and
    // collected in chain order, so the results are identical
    let ids = (start..chains).collect::<Vec<_>>();
    let fresh: Vec<SearchResult> =
        if cores() == 1 { ids.into_iter().map(run).collect() } else { par_map(ids, run) };
    let fresh_evals: u64 = fresh.iter().map(|r| r.trace.last().map_or(0, |t| t.0)).sum();
    dojo.charge_evaluations(fresh_evals);
    if let Some(sink) = sink {
        for (i, r) in fresh.iter().enumerate() {
            sink.event("chain")
                .u64("chain", (start + i) as u64)
                .u64("evals", r.trace.last().map_or(0, |t| t.0))
                .f64("best", r.best_runtime)
                .u64("steps", r.best_steps.len() as u64)
                .emit();
        }
    }
    completed.extend(fresh);
    merge_chains(completed.clone()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgesSpace, HeuristicSpace};
    use perfdojo_core::Target;

    fn dojo(label: &str) -> Dojo {
        let k = perfdojo_kernels::small_suite()
            .into_iter()
            .find(|k| k.label == label)
            .unwrap();
        Dojo::for_target(k.program, &Target::x86()).unwrap()
    }

    /// Cold, uninterrupted, untraced multi-chain SA.
    fn chains_cold(
        d: &mut Dojo,
        space: &dyn SearchSpace,
        chains: usize,
        budget: u64,
        seed: u64,
    ) -> SearchResult {
        anneal_chains(d, space, chains, budget, seed, &[], &mut Vec::new(), None)
    }

    #[test]
    fn parallel_anneal_matches_best_sequential_chain() {
        let chains = 3;
        let (budget, seed) = (60, 9);
        let mut d = dojo("softmax");
        let par = chains_cold(&mut d, &EdgesSpace, chains, budget, seed);
        // the merged best must equal the min over the same chains run
        // sequentially with the same derived seeds
        let mut best = f64::INFINITY;
        for c in 0..chains {
            let mut dc = dojo("softmax");
            let r = crate::simulated_annealing(&mut dc, &EdgesSpace, budget, chain_seed(seed, c));
            best = best.min(r.best_runtime);
        }
        assert_eq!(par.best_runtime.to_bits(), best.to_bits());
    }

    #[test]
    fn parallel_anneal_is_seed_deterministic() {
        let run = || {
            let mut d = dojo("rmsnorm");
            let r = chains_cold(&mut d, &HeuristicSpace, 4, 40, 123);
            (r.best_runtime.to_bits(), r.best_steps, d.evaluations())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn chain_spend_is_charged_to_the_caller() {
        let mut d = dojo("softmax");
        let init = d.initial_runtime();
        let evals_before = d.evaluations();
        let r = chains_cold(&mut d, &EdgesSpace, 3, 40, 7);
        assert!(r.best_runtime <= init);
        assert!(
            d.evaluations() >= evals_before + 3 * 40,
            "summed chain spend must be charged to the parent dojo"
        );
    }

    #[test]
    fn zero_chains_clamps_to_one() {
        let mut d = dojo("rmsnorm");
        let r = chains_cold(&mut d, &EdgesSpace, 0, 30, 5);
        assert!(r.best_runtime <= d.initial_runtime());
    }

    #[test]
    fn zero_budget_chains_are_no_ops() {
        let mut d = dojo("softmax");
        let evals_before = d.evaluations();
        let r = chains_cold(&mut d, &HeuristicSpace, 3, 0, 5);
        assert!(r.best_steps.is_empty());
        assert_eq!(r.best_runtime.to_bits(), d.initial_runtime().to_bits());
        assert_eq!(d.evaluations(), evals_before, "zero-budget chains must spend nothing");
    }

    #[test]
    fn resumable_parallel_matches_uninterrupted_and_events_concatenate() {
        use crate::checkpoint::{parse_chains, serialize_chains};
        let (chains, budget, seed) = (3, 40, 9);

        // uninterrupted run with events
        let mut d1 = dojo("softmax");
        let mut full_sink = TraceSink::new();
        let full = anneal_chains(
            &mut d1,
            &EdgesSpace,
            chains,
            budget,
            seed,
            &[],
            &mut Vec::new(),
            Some(&mut full_sink),
        );

        // interrupted after chain 0, checkpointed, resumed elsewhere
        let mut d2 = dojo("softmax");
        let mut part_sink = TraceSink::new();
        let mut done = Vec::new();
        anneal_chains(
            &mut d2,
            &EdgesSpace,
            1, // only the first chain "fits" before the interruption
            budget,
            seed,
            &[],
            &mut done,
            Some(&mut part_sink),
        );
        let ckpt = serialize_chains(&done);

        let mut d3 = dojo("softmax");
        let mut restored = parse_chains(&ckpt).unwrap();
        let mut resume_sink = TraceSink::with_start(part_sink.next_step());
        let resumed = anneal_chains(
            &mut d3,
            &EdgesSpace,
            chains,
            budget,
            seed,
            &[],
            &mut restored,
            Some(&mut resume_sink),
        );

        assert_eq!(full.best_runtime.to_bits(), resumed.best_runtime.to_bits());
        assert_eq!(full.best_steps, resumed.best_steps);
        assert_eq!(full.trace, resumed.trace);
        let concatenated = format!("{}{}", part_sink.to_text(), resume_sink.to_text());
        assert_eq!(concatenated, full_sink.to_text());
    }
}
