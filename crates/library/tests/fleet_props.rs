//! Property tests for the keep-best merge the fleet folds its parts with
//! and for the fleet's wire formats (`perfdojo_util::proptest_lite`):
//! `Library::merge` is a lattice join — associative, commutative,
//! idempotent, arrival-order-invariant to the byte — job files round-trip
//! and refuse any line `render` does not write, and part files reject
//! every truncation.

use perfdojo_core::Target;
use perfdojo_library::checkpoint::{parse_part, render_part};
use perfdojo_library::{FleetJob, Library, LibraryBuilder, ScheduleRecord, Strategy};
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

/// `records` merged, in order, into an empty library.
fn merged(records: impl IntoIterator<Item = ScheduleRecord>) -> Library {
    let mut lib = Library::new();
    lib.merge(records);
    lib
}

/// `a` with `b`'s records merged into it.
fn join(a: &Library, b: &Library) -> Library {
    let mut out = a.clone();
    out.merge(b.records().cloned());
    out
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
    /// merges to byte-identical library text.
    #[test]
    fn join_is_arrival_order_invariant(
        indices in vec(0usize..64, 1..24),
        s1 in 0u64..1u64 << 48,
        s2 in 0u64..1u64 << 48,
    ) {
        let a = merged(draw(&indices, s1));
        let b = merged(draw(&indices, s2));
        prop_assert_eq!(a.to_text(), b.to_text(), "shuffles {s1} vs {s2} diverged");
    }

    /// Lattice laws on whole libraries: associativity, commutativity, and
    /// idempotence of merging one library into another, all to the byte.
    #[test]
    fn join_is_a_lattice_join(
        xs in vec(0usize..64, 0..12),
        ys in vec(0usize..64, 0..12),
        zs in vec(0usize..64, 0..12),
    ) {
        let (x, y, z) = (draw(&xs, 1), draw(&ys, 2), draw(&zs, 3));
        let jx = merged(x.clone());
        let jy = merged(y.clone());
        let jz = merged(z.clone());
        // commutative
        prop_assert_eq!(join(&jx, &jy).to_text(), join(&jy, &jx).to_text(), "x+y != y+x");
        // associative
        let left = join(&join(&jx, &jy), &jz);
        let right = join(&jx, &join(&jy, &jz));
        prop_assert_eq!(left.to_text(), right.to_text(), "(x+y)+z != x+(y+z)");
        // idempotent
        prop_assert_eq!(join(&jx, &jx).to_text(), jx.to_text(), "x+x != x");
        // and one flat merge of everything equals the fold of partials
        let flat = merged(x.into_iter().chain(y).chain(z));
        prop_assert_eq!(left.to_text(), flat.to_text(), "fold != flat merge");
    }

    /// Job blocks (what `jobs.list` holds) round-trip through
    /// render/parse, and a block with the owner header older fleets
    /// stamped on claimed job files, once or twice, is an error that
    /// quotes the header.
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
        let owner = format!("owner w{} beat 0", seed % 8);
        let wrapped = format!("{owner}\n{}", job.render());
        let err = FleetJob::parse(&wrapped).unwrap_err();
        prop_assert!(err.contains(&format!("{owner:?}")), "{err}");
        let rewrapped = format!("owner w9 beat 0\n{wrapped}");
        let err = FleetJob::parse(&rewrapped).unwrap_err();
        prop_assert!(err.contains("\"owner w9 beat 0\""), "{err}");
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
        let lib = merged(draw(&indices, 4));
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
