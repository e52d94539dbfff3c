//! Hot-swap crash safety for the serving tier.
//!
//! The "kill the merge mid-write" scenario, exercised through the same
//! pause machinery the CLI's `--step-limit`/exit-4 path uses: a
//! checkpointed tune drain that runs out of steps behaves exactly like a
//! build process killed before the swap — and the contract is that
//! nothing observable changed: the served snapshot, its generation, and
//! the on-disk library are all untouched, and rerunning the drain against
//! the same checkpoint resumes and converges to the uninterrupted
//! result. A final section corrupts the on-disk file the way a torn
//! non-atomic writer would, and shows the corrupt-tolerant loader still
//! brings up a serving-capable library from the surviving blocks.

use perfdojo_core::Target;
use perfdojo_kernels::KernelInstance;
use perfdojo_library::{
    BuildCheckpoint, HitTier, KernelSig, Library, LibraryBuilder, ServeConfig, ServeQuery,
    Server, Strategy, TuneProgress,
};
use std::path::PathBuf;

fn kernel(label: &str, dims: &[usize]) -> KernelInstance {
    let program = perfdojo_kernels::by_label_with_shape(label, dims)
        .unwrap_or_else(|| panic!("no kernel {label:?} at {dims:?}"));
    KernelInstance::at(label, dims, program)
}

fn base_library(target: &Target) -> Library {
    let kernels = [kernel("softmax", &[32, 32]), kernel("matmul", &[16, 16, 16])];
    let mut lib = Library::new();
    LibraryBuilder::new(Strategy::Heuristic, 3).build_into(
        &mut lib,
        &kernels,
        std::slice::from_ref(target),
    );
    assert_eq!(lib.len(), 2, "base library incomplete");
    lib
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdl-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// An anneal budget big enough that a tiny step limit interrupts it.
const TUNE_STRATEGY: &str = "anneal:40";
const STEP_LIMIT: u64 = 10;

#[test]
fn paused_drain_leaves_snapshot_and_disk_untouched_then_resumes() {
    let target = Target::x86();
    let dir = scratch_dir("serve-crash");
    let lib_path = dir.join("serve.pdl");
    let base = base_library(&target);
    base.save(&lib_path).expect("save base");
    let disk_before = std::fs::read(&lib_path).expect("read base");

    let strategy = Strategy::parse(TUNE_STRATEGY).expect("strategy");
    let config = ServeConfig { strategy, seed: 11, ..ServeConfig::default() };
    let server =
        Server::new(base.clone(), target.clone(), config.clone()).with_disk(lib_path.clone());

    // two misses become the tune jobs the drain is interrupted over (the
    // in-flight job list must survive the pause for both to land)
    let miss = ServeQuery::of("rmsnorm", &[32, 32]).expect("query");
    let miss2 = ServeQuery::of("reducemean", &[32, 32]).expect("query");
    assert!(server.lookup_now(&miss).tier.is_miss());
    assert!(server.lookup_now(&miss2).tier.is_miss());
    assert_eq!(server.pending_tunes(), 2);

    // the drain dies at the step limit — the simulated mid-merge kill
    let ckpt = BuildCheckpoint::open(&dir.join("ck")).expect("checkpoint");
    let first = server.drain_tunes_checkpointed(&ckpt, Some(STEP_LIMIT)).expect("drain");
    assert_eq!(first, TuneProgress::Paused, "step limit must pause the drain");

    // contract: nothing observable moved
    assert_eq!(server.generation(), 0, "paused drain must not publish");
    let after_pause = server.lookup_now(&miss);
    assert!(after_pause.tier.is_miss(), "old snapshot must keep serving");
    assert_eq!(after_pause.generation, 0);
    assert_eq!(
        std::fs::read(&lib_path).expect("read after pause"),
        disk_before,
        "paused drain must not touch the on-disk library"
    );
    let (reloaded, stats) = Library::load(&lib_path).expect("reload after pause");
    assert_eq!(stats.corrupt_entries, 0);
    assert_eq!(reloaded.to_text(), base.to_text());

    // resume against the same checkpoint until the swap lands
    let mut progress = first;
    for _ in 0..40 {
        if progress != TuneProgress::Paused {
            break;
        }
        progress = server.drain_tunes_checkpointed(&ckpt, Some(STEP_LIMIT)).expect("resume");
    }
    let TuneProgress::Swapped { generation, tuned, .. } = progress else {
        panic!("drain never finished: {progress:?}");
    };
    assert_eq!(generation, 1);
    assert_eq!(tuned, 2);
    let served = server.lookup_now(&miss);
    assert_eq!(served.tier, HitTier::Exact, "tuned miss must now hit");
    assert_eq!(served.generation, 1);
    assert_eq!(server.lookup_now(&miss2).tier, HitTier::Exact);

    // the interrupted path converges to the uninterrupted result
    let control = Server::new(base, target, config);
    assert!(control.lookup_now(&miss).tier.is_miss());
    assert!(control.lookup_now(&miss2).tier.is_miss());
    let ckpt2 = BuildCheckpoint::open(&dir.join("ck-control")).expect("checkpoint");
    match control.drain_tunes_checkpointed(&ckpt2, None).expect("control drain") {
        TuneProgress::Swapped { generation: 1, .. } => {}
        p => panic!("control drain: {p:?}"),
    }
    assert_eq!(
        server.snapshot(0).library.to_text(),
        control.snapshot(0).library.to_text(),
        "interrupted and uninterrupted drains diverged"
    );
    // and the hot swap persisted atomically: the file on disk IS the snapshot
    let (ondisk, stats) = Library::load(&lib_path).expect("reload after swap");
    assert_eq!(stats.corrupt_entries, 0);
    assert_eq!(ondisk.to_text(), server.snapshot(0).library.to_text());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn paused_drain_resumes_both_shapes_of_one_operator() {
    // regression: the checkpoint job identity must include the shape —
    // under a (label, target)-only identity, a drain paused after tuning
    // rmsnorm 32x32 marks "rmsnorm|x86" done and the resume silently
    // skips rmsnorm 64x64 forever, diverging from the uninterrupted run
    let target = Target::x86();
    let dir = scratch_dir("serve-crash-shapes");
    let base = base_library(&target);

    let strategy = Strategy::parse(TUNE_STRATEGY).expect("strategy");
    let config = ServeConfig { strategy, seed: 11, ..ServeConfig::default() };
    let server = Server::new(base.clone(), target.clone(), config.clone());
    let small = ServeQuery::of("rmsnorm", &[32, 32]).expect("query");
    let big = ServeQuery::of("rmsnorm", &[64, 64]).expect("query");
    assert!(server.lookup_now(&small).tier.is_miss());
    assert!(server.lookup_now(&big).tier.is_miss());
    assert_eq!(server.pending_tunes(), 2);

    let ckpt = BuildCheckpoint::open(&dir.join("ck")).expect("checkpoint");
    let mut progress =
        server.drain_tunes_checkpointed(&ckpt, Some(STEP_LIMIT)).expect("drain");
    assert_eq!(progress, TuneProgress::Paused, "step limit must pause the drain");
    for _ in 0..40 {
        if progress != TuneProgress::Paused {
            break;
        }
        progress = server.drain_tunes_checkpointed(&ckpt, Some(STEP_LIMIT)).expect("resume");
    }
    let TuneProgress::Swapped { tuned, .. } = progress else {
        panic!("drain never finished: {progress:?}");
    };
    assert_eq!(tuned, 2, "both shapes of the operator must be tuned");
    // both shapes have their own record now (dispatch may still prefer a
    // sibling-shape replay when tier-1 acceptance rejects a record, so
    // assert on the library contents, not the disposition)
    for q in [&small, &big] {
        let sig = KernelSig::of(&q.program, &target.name);
        assert!(
            server.snapshot(0).library.get(&sig).is_some(),
            "missing record for {:?} at {:?}",
            q.label,
            q.dims
        );
        assert!(!server.lookup_now(q).tier.is_miss());
    }

    // and the interrupted path converges to the uninterrupted result
    let control = Server::new(base, target, config);
    assert!(control.lookup_now(&small).tier.is_miss());
    assert!(control.lookup_now(&big).tier.is_miss());
    control.drain_tunes().expect("control drain");
    assert_eq!(
        server.snapshot(0).library.to_text(),
        control.snapshot(0).library.to_text(),
        "interrupted and uninterrupted drains diverged"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn completed_drain_resets_checkpoint_for_the_next_drain() {
    // a long-running server reuses one checkpoint dir across drains: a
    // completed drain must clear its job progress, or a later drain that
    // queues a job of the same id under another warm start merges the old
    // part instead of running it
    let target = Target::x86();
    let dir = scratch_dir("serve-crash-reset");
    let base = base_library(&target);

    let strategy = Strategy::parse(TUNE_STRATEGY).expect("strategy");
    let config = ServeConfig { strategy, seed: 11, ..ServeConfig::default() };
    let server = Server::new(base, target, config);
    let ckpt = BuildCheckpoint::open(&dir.join("ck")).expect("checkpoint");

    let first = ServeQuery::of("rmsnorm", &[32, 32]).expect("query");
    assert!(server.lookup_now(&first).tier.is_miss());
    match server.drain_tunes_checkpointed(&ckpt, None).expect("first drain") {
        TuneProgress::Swapped { generation: 1, tuned: 1, .. } => {}
        p => panic!("first drain: {p:?}"),
    }
    let ck = dir.join("ck");
    assert!(!ck.join("parts").exists(), "parts must be reset after a swap");
    assert!(!ck.join("ckpt").exists(), "in-flight states must be reset after a swap");

    // the second drain over a fresh job reports only its own work
    let second = ServeQuery::of("reducemean", &[32, 32]).expect("query");
    assert!(server.lookup_now(&second).tier.is_miss());
    match server.drain_tunes_checkpointed(&ckpt, None).expect("second drain") {
        TuneProgress::Swapped { generation: 2, tuned: 1, .. } => {}
        p => panic!("second drain: {p:?}"),
    }
    assert_eq!(server.lookup_now(&first).tier, HitTier::Exact);
    assert_eq!(server.lookup_now(&second).tier, HitTier::Exact);
    assert_eq!(server.stats().tuned, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_drain_resumed_under_another_strategy_publishes_that_strategys_library() {
    // a paused job's in-flight state is kept under an id that names its
    // strategy, so after `set_strategy` the resumed drain tunes its jobs
    // fresh instead of reading the anneal state as PerfLLM state
    let target = Target::x86();
    let dir = scratch_dir("serve-crash-restrategy");
    let base = base_library(&target);
    let misses = [("rmsnorm", [32, 32]), ("reducemean", [32, 32])]
        .map(|(label, dims)| ServeQuery::of(label, &dims).expect("query"));
    let anneal = Strategy::parse(TUNE_STRATEGY).expect("strategy");
    let perfllm = Strategy::PerfLlm { episodes: 2 };
    let config = ServeConfig { strategy: anneal, seed: 11, ..ServeConfig::default() };
    let queue_misses = |server: &Server| {
        for q in &misses {
            assert!(server.lookup_now(q).tier.is_miss());
        }
    };

    let mut server = Server::new(base.clone(), target.clone(), config.clone());
    queue_misses(&server);
    let ckpt = BuildCheckpoint::open(&dir.join("ck")).expect("checkpoint");
    let paused = server.drain_tunes_checkpointed(&ckpt, Some(STEP_LIMIT)).expect("drain");
    assert_eq!(paused, TuneProgress::Paused, "step limit must pause the drain");
    server.set_strategy(perfllm);
    let resumed = server.drain_tunes_checkpointed(&ckpt, None).expect("resume");

    let fresh = Server::new(base, target, ServeConfig { strategy: perfllm, ..config });
    queue_misses(&fresh);
    assert_eq!(resumed, fresh.drain_tunes().expect("fresh drain"));
    assert!(matches!(resumed, TuneProgress::Swapped { tuned: 1.., .. }), "{resumed:?}");
    assert_eq!(
        server.snapshot(0).library.to_text(),
        fresh.snapshot(0).library.to_text(),
        "the resumed drain diverged from a fresh PerfLLM drain"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_on_disk_library_still_loads_and_serves() {
    let target = Target::x86();
    let dir = scratch_dir("serve-torn");
    let lib_path = dir.join("torn.pdl");
    let base = base_library(&target);
    base.save(&lib_path).expect("save base");

    // simulate a writer killed mid-write WITHOUT the atomic rename: the
    // tail of the file is an unterminated half-record
    let mut text = std::fs::read_to_string(&lib_path).expect("read");
    text.push_str("entry garbage|that|never|parses\ncost 0x");
    std::fs::write(&lib_path, text).expect("write torn file");

    let (survivor, stats) = Library::load(&lib_path).expect("corrupt-tolerant load");
    assert!(stats.corrupt_entries > 0, "the torn tail must be counted");
    assert_eq!(survivor.len(), base.len(), "intact blocks must all survive");

    // the survivor is fully serving-capable
    let server = Server::new(survivor, target, ServeConfig::default());
    let hit = server.lookup_now(&ServeQuery::of("softmax", &[32, 32]).expect("query"));
    assert_eq!(hit.tier, HitTier::Exact);
    let near = server.lookup_now(&ServeQuery::of("softmax", &[48, 32]).expect("query"));
    assert_eq!(near.tier, HitTier::Nearest);

    std::fs::remove_dir_all(&dir).ok();
}
