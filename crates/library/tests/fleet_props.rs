//! Property tests for the fleet's deterministic merge and wire formats
//! (`perfdojo_util::proptest_lite`): the keep-best merge is a lattice
//! join — associative, commutative, idempotent, arrival-order-invariant
//! to the byte — and job/part files round-trip through every header
//! mutation the protocol can legally apply to them.

use perfdojo_core::Target;
use perfdojo_library::fleet::{beats, join, join_libraries, parse_part, render_part, FleetJob};
use perfdojo_library::{Library, LibraryBuilder, ScheduleRecord, Strategy};
use perfdojo_util::proptest_lite::prelude::*;
use perfdojo_util::rng::Rng;
use std::sync::OnceLock;

/// A pool of real schedule records with deliberate key overlap and cost
/// ties: the same kernels tuned under two strategies (different steps and
/// costs for the same keys), plus cost-tied clones of cross-strategy
/// pairs (identical cost bits, different step text) to force the
/// tiebreak path. Built once; properties draw random sub-multisets.
fn record_pool() -> &'static Vec<ScheduleRecord> {
    static POOL: OnceLock<Vec<ScheduleRecord>> = OnceLock::new();
    POOL.get_or_init(|| {
        let labels = ["softmax", "matmul", "relu", "rmsnorm", "reducemean", "mul"];
        let kernels: Vec<perfdojo_kernels::KernelInstance> = perfdojo_kernels::tune_suite()
            .into_iter()
            .filter(|k| labels.contains(&k.label.as_str()))
            .collect();
        assert_eq!(kernels.len(), labels.len());
        let target = Target::x86();
        let mut pool = Vec::new();
        for (strategy, seed) in
            [(Strategy::Heuristic, 0), (Strategy::Anneal { budget: 10 }, 11)]
        {
            let mut lib = Library::new();
            LibraryBuilder::new(strategy, seed).build_into(
                &mut lib,
                &kernels,
                std::slice::from_ref(&target),
            );
            pool.extend(lib.records().cloned());
        }
        // cost-tied pairs: for keys present under both strategies with
        // different step text, equalize the cost bits so only the
        // to_block tiebreak can order them
        let snapshot = pool.clone();
        for a in &snapshot {
            if let Some(b) = snapshot
                .iter()
                .find(|b| b.sig.key() == a.sig.key() && b.to_block() != a.to_block())
            {
                let mut tied = b.clone();
                tied.cost = a.cost;
                pool.push(tied);
            }
        }
        assert!(pool.len() >= 10, "pool too small: {}", pool.len());
        pool
    })
}

/// A random sub-multiset of the pool (indices may repeat), shuffled by
/// `shuffle_seed`.
fn draw(indices: &[usize], shuffle_seed: u64) -> Vec<ScheduleRecord> {
    let pool = record_pool();
    let mut out: Vec<ScheduleRecord> =
        indices.iter().map(|i| pool[i % pool.len()].clone()).collect();
    let mut rng = Rng::seed_from_u64(shuffle_seed);
    rng.shuffle(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Arrival order is unobservable: any shuffle of any sub-multiset
    /// joins to byte-identical library text.
    #[test]
    fn join_is_arrival_order_invariant(
        indices in vec(0usize..64, 1..24),
        s1 in 0u64..1u64 << 48,
        s2 in 0u64..1u64 << 48,
    ) {
        let a = join(draw(&indices, s1));
        let b = join(draw(&indices, s2));
        prop_assert_eq!(a.to_text(), b.to_text(), "shuffles {s1} vs {s2} diverged");
    }

    /// Lattice laws on whole libraries: associativity, commutativity, and
    /// idempotence of the library-level join, all to the byte.
    #[test]
    fn join_is_a_lattice_join(
        xs in vec(0usize..64, 0..12),
        ys in vec(0usize..64, 0..12),
        zs in vec(0usize..64, 0..12),
    ) {
        let (x, y, z) = (draw(&xs, 1), draw(&ys, 2), draw(&zs, 3));
        let jx = join(x.clone());
        let jy = join(y.clone());
        let jz = join(z.clone());
        // commutative
        prop_assert_eq!(
            join_libraries([jx.clone(), jy.clone()]).to_text(),
            join_libraries([jy.clone(), jx.clone()]).to_text(),
            "x+y != y+x"
        );
        // associative
        let left = join_libraries([join_libraries([jx.clone(), jy.clone()]), jz.clone()]);
        let right = join_libraries([jx.clone(), join_libraries([jy, jz])]);
        prop_assert_eq!(left.to_text(), right.to_text(), "(x+y)+z != x+(y+z)");
        // idempotent
        prop_assert_eq!(
            join_libraries([jx.clone(), jx.clone()]).to_text(),
            jx.to_text(),
            "x+x != x"
        );
        // and flat join of everything equals the fold of partials
        let flat = join(x.into_iter().chain(draw(&ys, 2)).chain(draw(&zs, 3)));
        prop_assert_eq!(left.to_text(), flat.to_text(), "fold != flat join");
    }

    /// `beats` is a strict total order on same-key records: for any pair,
    /// exactly one direction wins unless the records are byte-identical.
    #[test]
    fn beats_totally_orders_same_key_records(i in 0usize..64, j in 0usize..64) {
        let pool = record_pool();
        let a = &pool[i % pool.len()];
        let b = &pool[j % pool.len()];
        if a.sig.key() == b.sig.key() {
            if a.to_block() == b.to_block() {
                prop_assert!(!beats(a, b) && !beats(b, a), "identical records ordered");
            } else {
                prop_assert!(beats(a, b) != beats(b, a), "no strict winner");
            }
        }
    }

    /// Job blocks (what `jobs.list` holds) round-trip through
    /// render/parse, and through one and two lines the parser does not
    /// know above the body (the owner headers older fleets stamped on
    /// claimed, reclaimed and re-claimed job files).
    #[test]
    fn job_files_survive_the_claim_lifecycle(
        k in 0usize..16,
        strat in 0u8..4,
        budget in 0u64..64,
        seed in 0u64..1u64 << 48,
    ) {
        let suite = perfdojo_kernels::tune_suite();
        let inst = &suite[k % suite.len()];
        let dims: Vec<usize> = inst.shape.split('x').map(|d| d.parse().unwrap()).collect();
        let chains = (budget % 4 + 1) as usize;
        let strategy = match strat {
            0 => Strategy::Heuristic,
            1 => Strategy::Anneal { budget },
            2 => Strategy::AnnealMulti { budget, chains },
            _ => Strategy::PerfLlm { episodes: budget as usize },
        };
        let job = FleetJob { label: inst.label.clone(), dims, target: "x86".into(), strategy, seed };
        prop_assert_eq!(&FleetJob::parse(&job.render()).unwrap(), &job);
        let wrapped = format!("owner w{} beat 0\n{}", seed % 8, job.render());
        prop_assert_eq!(&FleetJob::parse(&wrapped).unwrap(), &job);
        let rewrapped = format!("owner w9 beat 0\n{wrapped}");
        prop_assert_eq!(&FleetJob::parse(&rewrapped).unwrap(), &job);
        // the job reconstructs its kernel
        prop_assert!(job.kernel().is_ok());
    }

    /// Part files round-trip intact and are rejected at EVERY proper
    /// prefix — a torn write can never smuggle records into a merge.
    #[test]
    fn part_files_reject_all_truncations(
        indices in vec(0usize..64, 0..6),
        evals in 0u64..10_000,
        cut in 0usize..10_000,
    ) {
        let lib = join(draw(&indices, 4));
        let text = render_part("job-x", evals, &lib.to_text());
        let (e, back) = parse_part("job-x", &text).expect("intact part must parse");
        prop_assert_eq!(e, evals);
        prop_assert_eq!(back.to_text(), lib.to_text());
        prop_assert!(parse_part("job-y", &text).is_none(), "foreign id accepted");
        let cut = cut % text.len();
        if cut < text.len() {
            prop_assert!(parse_part("job-x", &text[..cut]).is_none(), "torn at {cut} accepted");
        }
    }
}
