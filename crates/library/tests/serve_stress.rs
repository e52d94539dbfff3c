//! Concurrency stress test for the serving tier: N reader threads hammer
//! `Server::lookup_now` while a writer hot-swaps K library generations
//! under them.
//!
//! The invariants — checked against a sequentially precomputed oracle:
//!
//! 1. **Never torn**: every observed reply must be *exactly* what a
//!    sequential dispatch against that reply's snapshot generation
//!    produces (same tier, same step count, same bit-exact costs, same
//!    latency units). A half-swapped library would break this.
//! 2. **Monotonicity**: a reader never sees the generation go backwards,
//!    whichever keys it queries: once a publish lands, every read returns
//!    the new snapshot.
//! 3. **No lost updates**: after the writer finishes, the served snapshot
//!    is the last published generation, byte-identical to the final
//!    library.
//!
//! Together 1–3 say the concurrent run is equivalent to a sequential
//! replay of the same query log annotated with observed generations.
//!
//! The race is forced, not left to the scheduler: every role runs on its
//! own thread, and the first publish waits on a barrier until every
//! reader has made one whole pass at generation 0. So the generation-0
//! reply memo holds every key when the swaps start, and a reply served
//! past its generation would fail the oracle.
//! Each reader keeps reading until it observes the final generation, so
//! every reader spans at least two generations whatever the core count.

use perfdojo_core::Target;
use perfdojo_kernels::KernelInstance;
use perfdojo_library::{
    HitTier, Library, LibraryBuilder, ServeConfig, ServeQuery, ServeReply, Server, Strategy,
};
use std::collections::BTreeSet;
use std::sync::Barrier;
use std::time::Duration;

const READERS: usize = 4;
/// Upper bound on a reader's passes over the query set; a reader that
/// reaches it never observed the final generation, and the test fails.
const MAX_PASSES: usize = 200_000;

fn kernel(label: &str, dims: &[usize]) -> KernelInstance {
    let program = perfdojo_kernels::by_label_with_shape(label, dims)
        .unwrap_or_else(|| panic!("no kernel {label:?} at {dims:?}"));
    KernelInstance {
        label: label.to_string(),
        shape: dims.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("x"),
        description: String::from("serve stress"),
        program: program.clone(),
        verify_program: program,
    }
}

fn tune(lib: &mut Library, kernels: &[KernelInstance], target: &Target) {
    LibraryBuilder::new(Strategy::Heuristic, 3).build_into(
        lib,
        kernels,
        std::slice::from_ref(target),
    );
}

/// What one lookup observed; everything an oracle dispatch determines.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Fingerprint {
    tier: &'static str,
    latency_units: u64,
    cost_bits: u64,
    naive_bits: u64,
    steps: usize,
}

#[test]
fn readers_never_see_torn_swaps_and_match_sequential_replay() {
    let target = Target::x86();

    // generation 0: softmax + matmul tuned; generations 1..=K add one
    // tuned kernel each, so the tier of the late queries shifts under
    // the readers as swaps land
    let base = [kernel("softmax", &[32, 32]), kernel("matmul", &[16, 16, 16])];
    let extras = [
        kernel("layernorm 1", &[32, 32]),
        kernel("rmsnorm", &[32, 32]),
        kernel("reducemean", &[32, 32]),
        kernel("relu", &[32, 64]),
    ];
    let mut libs: Vec<Library> = Vec::new();
    let mut lib = Library::new();
    tune(&mut lib, &base, &target);
    assert_eq!(lib.len(), 2, "base library incomplete");
    libs.push(lib.clone());
    for extra in &extras {
        tune(&mut lib, std::slice::from_ref(extra), &target);
        libs.push(lib.clone());
    }
    let swaps = libs.len() - 1;

    let queries: Vec<ServeQuery> = [
        ("softmax", vec![32usize, 32]),  // exact at every generation
        ("matmul", vec![16, 16, 16]),    // exact at every generation
        ("softmax", vec![48, 32]),       // nearest at every generation
        ("layernorm 1", vec![32, 32]),   // heuristic until gen 1, then exact
        ("rmsnorm", vec![32, 32]),       // heuristic until gen 2, then exact
    ]
    .iter()
    .map(|(label, dims)| ServeQuery::of(label, dims).expect("query"))
    .collect();

    // the oracle: sequential dispatch per (generation, query)
    let oracle: Vec<Vec<Fingerprint>> = libs
        .iter()
        .map(|l| {
            queries
                .iter()
                .map(|q| {
                    let r = l.lookup(&q.program, &target);
                    Fingerprint {
                        tier: r.disposition.tag(),
                        latency_units: perfdojo_library::latency_units(&r),
                        cost_bits: r.cost.to_bits(),
                        naive_bits: r.naive_cost.to_bits(),
                        steps: r.steps.len(),
                    }
                })
                .collect()
        })
        .collect();
    // the experiment is vacuous unless tiers actually shift across swaps
    assert_ne!(oracle[0][3], oracle[swaps][3], "layernorm tier never shifted");
    assert_ne!(oracle[0][4], oracle[swaps][4], "rmsnorm tier never shifted");

    let server = Server::new(libs[0].clone(), target.clone(), ServeConfig::default());
    let final_gen = swaps as u64;

    // one thread per role: the writer publishes the K swaps, each reader
    // reads through them. Readers check every reply as it arrives and
    // keep only a summary, since how many passes a reader makes depends
    // on the scheduler.
    let first_publish = Barrier::new(READERS + 1);
    let summaries: Vec<Result<ReaderSummary, String>> = std::thread::scope(|scope| {
        scope.spawn(|| {
            first_publish.wait();
            for next in &libs[1..] {
                std::thread::sleep(Duration::from_millis(3));
                server.publish(next.clone()).expect("publish");
            }
        });
        let readers: Vec<_> = (1..=READERS)
            .map(|reader| {
                let (server, queries, oracle) = (&server, &queries, &oracle);
                let first_publish = &first_publish;
                scope.spawn(move || {
                    read_until_final(reader, server, queries, oracle, final_gen, first_publish)
                })
            })
            .collect();
        readers.into_iter().map(|h| h.join().expect("reader panicked")).collect()
    });

    // no lost updates: the last publish won
    assert_eq!(server.generation(), final_gen);
    let snap = server.snapshot(0);
    assert_eq!(snap.generation, final_gen, "stale snapshot");
    assert_eq!(snap.library.to_text(), libs[swaps].to_text(), "snapshot diverged");

    for (i, summary) in summaries.into_iter().enumerate() {
        let summary = summary.unwrap_or_else(|e| panic!("{e}"));
        let reader = i + 1;
        assert_eq!(summary.replies, summary.passes * queries.len(), "reader {reader} lost replies");
        assert!(
            summary.generations.len() >= 2,
            "reader {reader} saw only generations {:?}: it never raced a swap",
            summary.generations
        );
    }
}

/// What one reader observed, once every reply passed the checks.
struct ReaderSummary {
    passes: usize,
    replies: usize,
    generations: BTreeSet<u64>,
}

/// A reader's share of the writer's first-publish barrier: it waits once,
/// at the end of the reader's first pass or, if the reader returns or
/// panics before that, when dropped. Either way the writer and the other
/// readers are released, so a failing reader fails the test instead of
/// hanging it.
struct FirstPublish<'a> {
    barrier: &'a Barrier,
    waited: bool,
}

impl FirstPublish<'_> {
    fn release(&mut self) {
        if !self.waited {
            self.waited = true;
            self.barrier.wait();
        }
    }
}

impl Drop for FirstPublish<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

/// Make passes over `queries` until a whole pass is served at `final_gen`,
/// checking each reply against the oracle for its observed generation and
/// that the generation never goes back across all of this reader's
/// replies. The end of the first pass releases the writer's
/// first publish (even when a reply failed), so that pass is all at
/// generation 0.
fn read_until_final(
    reader: usize,
    server: &Server,
    queries: &[ServeQuery],
    oracle: &[Vec<Fingerprint>],
    final_gen: u64,
    first_publish: &Barrier,
) -> Result<ReaderSummary, String> {
    let mut first_publish = FirstPublish { barrier: first_publish, waited: false };
    let mut summary = ReaderSummary { passes: 0, replies: 0, generations: BTreeSet::new() };
    let mut last_gen = 0;
    loop {
        if summary.passes == MAX_PASSES {
            return Err(format!(
                "reader {reader} made {MAX_PASSES} passes without a whole pass at generation \
                 {final_gen}; it saw {:?}",
                summary.generations
            ));
        }
        let mut all_final = true;
        let mut failure = None;
        for (qi, q) in queries.iter().enumerate() {
            let r = server.lookup_now(q);
            summary.replies += 1;
            summary.generations.insert(r.generation);
            all_final &= r.generation == final_gen;
            if let Err(e) = check_reply(&r, oracle.get(r.generation as usize), qi, &mut last_gen) {
                failure = Some(format!("reader {reader} query {qi}: {e}"));
                break;
            }
        }
        first_publish.release();
        if let Some(e) = failure {
            return Err(e);
        }
        summary.passes += 1;
        if all_final {
            return Ok(summary);
        }
    }
}

/// Check one reply to query `qi`: it is the oracle's answer at its
/// observed generation (`oracle`, `None` past the last one), and that
/// generation is not older than `last_gen`, the reader's previous reply's.
fn check_reply(
    r: &ServeReply,
    oracle: Option<&Vec<Fingerprint>>,
    qi: usize,
    last_gen: &mut u64,
) -> Result<(), String> {
    let g = r.generation;
    let oracle = oracle.ok_or_else(|| format!("generation {g} was never published"))?;
    // never torn / sequential-replay equivalence
    let fp = Fingerprint {
        tier: match r.tier {
            HitTier::Exact => "exact-hit",
            HitTier::Parameterized => "parameterized",
            HitTier::Nearest => "fallback-replay",
            HitTier::Heuristic => "fallback-heuristic",
            HitTier::Naive => "naive",
        },
        latency_units: r.latency_units,
        cost_bits: r.cost.to_bits(),
        naive_bits: r.naive_cost.to_bits(),
        steps: r.steps,
    };
    if fp != oracle[qi] {
        return Err(format!(
            "torn or divergent reply at generation {g}: {fp:?}, oracle {:?}",
            oracle[qi]
        ));
    }
    // monotonicity: no reply is older than the reader's previous one
    if *last_gen > g {
        return Err(format!("generation went {last_gen} -> {g}"));
    }
    *last_gen = g;
    Ok(())
}
