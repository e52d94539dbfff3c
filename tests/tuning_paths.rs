//! One tuning driver: a plain build, a checkpointed build (run whole or in
//! one-step slices), a one-worker fleet and both kinds of serve drain reach
//! the tuners through the same job runner. For every strategy shape, cold
//! and transfer-warmed, they must therefore produce byte-identical
//! libraries and spend the same evaluations on every job.

use perfdojo::kernels::KernelInstance;
use perfdojo::library::{
    run_fleet, BuildCheckpoint, BuildProgress, FaultPlan, FleetDir, FleetJob, ServeConfig,
    ServeQuery, Server, TuneProgress, WorkerConfig,
};
use perfdojo::prelude::*;
use std::path::{Path, PathBuf};

const SEED: u64 = 5;

/// The heuristic pass, zero and small SA budgets, zero and small
/// multi-chain budgets, and PerfLLM — budgets small enough for debug mode.
const SPECS: [&str; 6] =
    ["heuristic", "anneal:0", "anneal:12", "anneal:0:2", "anneal:8:2", "perfllm:2"];

/// Library text plus `(label, evaluations)` per job, in grid order.
type Built = (String, Vec<(String, u64)>);

/// Two small shapes of the softmax family: they fit a transfer schedule,
/// and debug-mode PerfLLM stays quick on them.
fn softmaxes() -> Vec<KernelInstance> {
    [[16, 32], [8, 64]]
        .into_iter()
        .map(|[rows, cols]| {
            KernelInstance::at("softmax", &[rows, cols], perfdojo::kernels::softmax(rows, cols))
        })
        .collect()
}

/// Heuristic-tuned records of `kernels`: their transfer index warm-starts
/// the warm builds.
fn donor(kernels: &[KernelInstance], target: &Target) -> Library {
    let mut lib = Library::new();
    LibraryBuilder::new(LibraryStrategy::Heuristic, 7).build_into(
        &mut lib,
        kernels,
        std::slice::from_ref(target),
    );
    lib
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("perfdojo-paths-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn plain(builder: &LibraryBuilder, kernels: &[KernelInstance], target: &Target) -> Built {
    let mut lib = Library::new();
    let (_, outcomes) = builder.build_into(&mut lib, kernels, std::slice::from_ref(target));
    (lib.to_text(), outcomes.into_iter().map(|o| (o.label, o.evaluations)).collect())
}

/// A checkpointed build rerun until it finishes, `step_limit` steps per
/// call.
fn checkpointed(
    builder: &LibraryBuilder,
    kernels: &[KernelInstance],
    target: &Target,
    dir: &Path,
    step_limit: Option<u64>,
) -> Built {
    let ckpt = BuildCheckpoint::open(dir).unwrap();
    let mut lib = Library::new();
    for _ in 0..1000 {
        let (progress, ..) = builder
            .build_into_checkpointed(
                &mut lib,
                kernels,
                std::slice::from_ref(target),
                &ckpt,
                step_limit,
            )
            .unwrap();
        if progress == BuildProgress::Finished {
            let evals = ckpt.done_jobs().into_iter().map(|(label, _, _, e)| (label, e)).collect();
            return (lib.to_text(), evals);
        }
    }
    panic!("checkpointed build never finished");
}

fn fleet(
    strategy: LibraryStrategy,
    kernels: &[KernelInstance],
    warm: Option<&Library>,
    dir: &Path,
) -> Built {
    let fleet = FleetDir::open(dir);
    let jobs = FleetJob::grid(kernels, &["x86".to_string()], strategy, SEED).unwrap();
    fleet.init(&jobs).unwrap();
    if let Some(lib) = warm {
        assert!(fleet.set_warm_from(lib).unwrap(), "the donor must freeze");
    }
    let report = run_fleet(&fleet, 1, &WorkerConfig::new(""), &FaultPlan::none()).unwrap();
    assert!(report.drained);
    let evals = jobs
        .iter()
        .map(|j| (j.label.clone(), fleet.part(&j.id()).expect("finished job has a part").0))
        .collect();
    (fleet.merge().unwrap().library.to_text(), evals)
}

#[test]
fn every_build_path_agrees_for_every_strategy() {
    let target = Target::x86();
    let kernels = softmaxes();
    let donor = donor(&kernels, &target);
    let own_evals: Vec<u64> = kernels
        .iter()
        .map(|k| Dojo::for_target(k.program.clone(), &target).unwrap().evaluations())
        .collect();
    for (i, spec) in SPECS.iter().enumerate() {
        let strategy = LibraryStrategy::parse(spec).unwrap();
        for warm in [None, Some(&donor)] {
            let tag = format!("{spec} {}", if warm.is_some() { "warm" } else { "cold" });
            let mut builder = LibraryBuilder::new(strategy, SEED);
            if let Some(lib) = warm {
                builder = builder.with_warm_from(lib);
                assert!(builder.warm.is_some(), "{tag}: the softmax family must fit");
            }
            let reference = plain(&builder, &kernels, &target);
            if spec.starts_with("anneal:0") {
                // a zero budget is a no-op: no record, no evaluation beyond
                // the dojo's own
                assert_eq!(reference.0, Library::new().to_text(), "{tag}");
                let evals: Vec<u64> = reference.1.iter().map(|(_, e)| *e).collect();
                assert_eq!(evals, own_evals, "{tag}");
            }
            let dir = tmpdir(&format!("{i}-{}", warm.is_some()));
            let whole = checkpointed(&builder, &kernels, &target, &dir.join("whole"), None);
            assert_eq!(whole, reference, "{tag}: checkpointed build differs from plain");
            let sliced = checkpointed(&builder, &kernels, &target, &dir.join("sliced"), Some(1));
            assert_eq!(sliced, reference, "{tag}: one-step slices differ from plain");
            let fleet = fleet(strategy, &kernels, warm, &dir.join("fleet"));
            assert_eq!(fleet, reference, "{tag}: one-worker fleet differs from plain");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// The library and drain result of each of two rounds, plus the tune jobs
/// the server did not re-run.
type Drained = ([(String, TuneProgress); 2], u64);

#[test]
fn plain_and_checkpointed_drains_publish_the_same_library() {
    let target = Target::x86();
    // the served library carries a fitted softmax family; the queries are
    // outside it, so they miss and queue tune jobs
    let base = donor(&softmaxes(), &target);
    let queries =
        [ServeQuery::of("rmsnorm", &[32, 32]).unwrap(), ServeQuery::of("relu", &[16, 48]).unwrap()];
    for (i, spec) in SPECS.iter().enumerate() {
        let strategy = LibraryStrategy::parse(spec).unwrap();
        let drain = |ckpt: Option<(&Path, Option<u64>)>| -> Drained {
            let config = ServeConfig { strategy, seed: SEED, ..ServeConfig::default() };
            let server = Server::new(base.clone(), target.clone(), config);
            for q in &queries {
                assert!(server.lookup_now(q).tier.is_miss(), "{spec}: {} must miss", q.label);
            }
            let ckpt =
                ckpt.map(|(dir, step_limit)| (BuildCheckpoint::open(dir).unwrap(), step_limit));
            let round = || {
                let progress = match &ckpt {
                    None => server.drain_tunes().unwrap(),
                    Some((ckpt, step_limit)) => (0..1000)
                        .map(|_| server.drain_tunes_checkpointed(ckpt, *step_limit).unwrap())
                        .find(|p| *p != TuneProgress::Paused)
                        .expect("checkpointed drain never finished"),
                };
                (server.snapshot(0).library.to_text(), progress)
            };
            let first = round();
            // a job that produced no record has its key forgotten: its miss
            // queues the same job again
            for q in &queries {
                server.lookup_now(q);
            }
            let second = round();
            ([first, second], server.stats().tune_skipped)
        };
        let reference = drain(None);
        assert!(
            matches!(reference.0[0].1, TuneProgress::Swapped { .. }),
            "{spec}: {:?}",
            reference.0[0].1
        );
        if spec.starts_with("anneal:0") {
            // every job fails, and the second round skips both re-runs
            let expected = TuneProgress::Swapped { generation: 2, tuned: 0, unimproved: 2 };
            assert_eq!((&reference.0[1].1, reference.1), (&expected, 2), "{spec}");
        }
        let dir = tmpdir(&format!("drain-{i}"));
        let whole = drain(Some((&dir.join("whole"), None)));
        assert_eq!(whole, reference, "{spec}: checkpointed drain");
        // a job resumed from in-flight state is never recorded, so one-step
        // slices may re-run a failure the whole drain skips
        let sliced = drain(Some((&dir.join("sliced"), Some(1))));
        assert_eq!(sliced.0, reference.0, "{spec}: sliced drain");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
