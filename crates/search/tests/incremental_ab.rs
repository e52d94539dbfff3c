//! A/B determinism suite: the incremental evaluation engine (prefix
//! replay + fingerprint-keyed cost cache) must be *bit-identical* to the
//! naive engine on every search strategy and every tuning-suite kernel —
//! same convergence trace (evaluation counts and runtimes), same best
//! sequence, same best runtime. Caching and prefix reuse may only change
//! how much work an evaluation costs, never what it returns or whether it
//! counts against the budget.

use perfdojo_core::{Dojo, Target};
use perfdojo_search::{
    random_sampling, simulated_annealing, EdgesSpace, HeuristicSpace, SearchResult,
};

fn dojos_for(label: &str, program: perfdojo_ir::Program) -> (Dojo, Dojo) {
    let t = Target::x86();
    let naive = Dojo::for_target(program.clone(), &t)
        .unwrap_or_else(|e| panic!("{label}: {e}"))
        .with_naive_engine();
    let incremental = Dojo::for_target(program, &t).unwrap_or_else(|e| panic!("{label}: {e}"));
    (naive, incremental)
}

fn assert_identical(label: &str, strategy: &str, a: &SearchResult, b: &SearchResult) {
    assert_eq!(
        a.best_runtime.to_bits(),
        b.best_runtime.to_bits(),
        "{label}/{strategy}: best runtime diverged ({} vs {})",
        a.best_runtime,
        b.best_runtime
    );
    assert_eq!(a.best_steps, b.best_steps, "{label}/{strategy}: best sequence diverged");
    assert_eq!(a.trace.len(), b.trace.len(), "{label}/{strategy}: trace length diverged");
    for (i, (ta, tb)) in a.trace.iter().zip(b.trace.iter()).enumerate() {
        assert_eq!(ta.0, tb.0, "{label}/{strategy}: trace[{i}] evaluation count diverged");
        assert_eq!(
            ta.1.to_bits(),
            tb.1.to_bits(),
            "{label}/{strategy}: trace[{i}] runtime diverged"
        );
    }
}

/// Every tune-suite kernel, every strategy: cached+incremental ≡ naive.
#[test]
fn cached_engine_is_bit_identical_to_naive_across_tune_suite() {
    let budget = 60;
    for k in perfdojo_kernels::tune_suite() {
        let label = k.label.clone();

        let (mut n, mut i) = dojos_for(&label, k.program.clone());
        let seed = 0xA11CE;
        assert_identical(
            &label,
            "anneal_edges",
            &simulated_annealing(&mut n, &EdgesSpace, budget, seed),
            &simulated_annealing(&mut i, &EdgesSpace, budget, seed),
        );
        assert_eq!(n.evaluations(), i.evaluations(), "{label}: budget accounting diverged");

        let (mut n, mut i) = dojos_for(&label, k.program.clone());
        assert_identical(
            &label,
            "anneal_heuristic",
            &simulated_annealing(&mut n, &HeuristicSpace, budget, seed),
            &simulated_annealing(&mut i, &HeuristicSpace, budget, seed),
        );
        assert_eq!(n.evaluations(), i.evaluations(), "{label}: budget accounting diverged");

        let (mut n, mut i) = dojos_for(&label, k.program);
        assert_identical(
            &label,
            "random_sampling",
            &random_sampling(&mut n, budget, seed),
            &random_sampling(&mut i, budget, seed),
        );
        assert_eq!(n.evaluations(), i.evaluations(), "{label}: budget accounting diverged");
    }
}

/// The cache must actually fire during annealing — EdgesSpace's
/// retract/re-extend makes exact revisits the common case, so a zero hit
/// count would mean the cache is dead weight.
#[test]
fn annealing_produces_cache_hits() {
    let k = perfdojo_kernels::tune_suite()
        .into_iter()
        .find(|k| k.label == "softmax")
        .unwrap();
    let mut d = Dojo::for_target(k.program, &Target::x86()).unwrap();
    simulated_annealing(&mut d, &EdgesSpace, 150, 7);
    let stats = d.cache_stats();
    assert!(stats.hits > 0, "no cache hits in 150 SA evaluations: {stats:?}");
    assert!(stats.hit_rate() > 0.0 && stats.hit_rate() < 1.0, "{stats:?}");
}

/// A tiny cache capacity (forcing constant LRU eviction) may cost hit
/// rate but must not change any result.
#[test]
fn tiny_cache_is_bit_identical_too() {
    let k = perfdojo_kernels::tune_suite()
        .into_iter()
        .find(|k| k.label == "matmul")
        .unwrap();
    let t = Target::x86();
    let mut tiny = Dojo::for_target(k.program.clone(), &t).unwrap().with_cache_capacity(3);
    let mut naive = Dojo::for_target(k.program, &t).unwrap().with_naive_engine();
    let a = simulated_annealing(&mut tiny, &HeuristicSpace, 80, 3);
    let b = simulated_annealing(&mut naive, &HeuristicSpace, 80, 3);
    assert_identical("matmul", "anneal_heuristic/tiny-cache", &a, &b);
    assert!(tiny.cache_stats().entries <= 3);
}

/// The gap this closes: multi-chain SA (`anneal:<budget>:<chains>`) feeding
/// `Library::lookup` end-to-end. Tuning three tune-suite kernels through
/// the multi-chain strategy must produce a library whose dispatch returns
/// each tuned schedule as an exact hit whose cost replays bit-identically
/// on a fresh dojo — and the whole build must be deterministic, so two
/// independent builds serve byte-identical libraries.
#[test]
fn multi_chain_tunes_round_trip_through_library_lookup() {
    use perfdojo_library::{Disposition, Library, LibraryBuilder};
    let target = Target::x86();
    let picks = ["softmax", "matmul", "rmsnorm"];
    let kernels: Vec<_> = perfdojo_kernels::tune_suite()
        .into_iter()
        .filter(|k| picks.contains(&k.label.as_str()))
        .collect();
    assert_eq!(kernels.len(), picks.len(), "tune suite lost a kernel");

    let build = || {
        let strategy = perfdojo_library::Strategy::parse("anneal:40:2").unwrap();
        let mut lib = Library::new();
        LibraryBuilder::new(strategy, 0xD0).build_into(
            &mut lib,
            &kernels,
            std::slice::from_ref(&target),
        );
        lib
    };
    let lib = build();
    assert_eq!(lib.len(), picks.len(), "a multi-chain tune produced no record");
    assert_eq!(
        lib.to_text(),
        build().to_text(),
        "multi-chain library build is not deterministic"
    );

    for k in &kernels {
        let r = lib.lookup(&k.program, &target);
        assert_eq!(r.disposition, Disposition::ExactHit, "{}: wrong tier", k.label);
        assert!(r.cost < r.naive_cost, "{}: tuned cost did not improve", k.label);
        assert!(!r.steps.is_empty(), "{}: exact hit with no schedule", k.label);
        // the served schedule replays to the recorded cost, bit for bit
        let mut d = Dojo::for_target(k.program.clone(), &target).unwrap();
        let replayed = d.load_sequence(&r.steps).unwrap();
        assert_eq!(
            replayed.to_bits(),
            r.cost.to_bits(),
            "{}: served cost diverged from replay",
            k.label
        );
    }
}

/// Multi-chain seed stability: the merged best is a pure function of
/// (kernel, chains, budget, seed) — re-running must reproduce it exactly,
/// and it must equal the best of the same chains run one at a time (i.e.
/// independent of how the thread pool schedules them).
#[test]
fn multi_chain_merge_is_seed_stable() {
    use perfdojo_search::{anneal_chains, chain_seed};
    let kernel = || {
        perfdojo_kernels::tune_suite()
            .into_iter()
            .find(|k| k.label == "layernorm 1")
            .unwrap()
            .program
    };
    let (chains, budget, seed) = (4, 40, 0xBEEF);
    let run = || {
        let mut d = Dojo::for_target(kernel(), &Target::x86()).unwrap();
        let r = anneal_chains(
            &mut d,
            &HeuristicSpace,
            chains,
            budget,
            seed,
            &[],
            &mut Vec::new(),
            None,
        );
        (r.best_runtime.to_bits(), r.best_steps)
    };
    let first = run();
    assert_eq!(first, run(), "same seeds must merge to the same best");

    // sequential reference: chain c alone, same derived seed
    let mut best = f64::INFINITY;
    for c in 0..chains {
        let mut d = Dojo::for_target(kernel(), &Target::x86()).unwrap();
        let r = simulated_annealing(&mut d, &HeuristicSpace, budget, chain_seed(seed, c));
        best = best.min(r.best_runtime);
    }
    assert_eq!(first.0, best.to_bits(), "merge must equal the best sequential chain");
}
