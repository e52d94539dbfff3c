//! Fleet crash matrix: every fault point in the worker loop, exercised
//! through the seeded `FaultPlan` harness, must leave a fleet that
//! resumes to a merged library byte-identical to the uninterrupted run —
//! the PR-5 `cmp` methodology lifted to the multi-worker protocol. Plus
//! the liveness guarantees of the claim lock: a dead worker's job is
//! reclaimed exactly once under concurrent reclaimers, and a live owner's
//! job is never reclaimed, however long it takes.

use perfdojo_library::{
    run_fleet, run_worker, FaultKind, FaultPlan, FaultSite, FleetDir, FleetJob, Strategy,
    WorkerConfig, WorkerExit,
};
use std::path::PathBuf;
use std::time::Duration;

const STRATEGY: Strategy = Strategy::Anneal { budget: 12 };
const SEED: u64 = 5;

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pdl-fleetcrash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn jobs() -> Vec<FleetJob> {
    let labels = ["softmax", "matmul", "relu", "reducemean"];
    let kernels: Vec<perfdojo_kernels::KernelInstance> = perfdojo_kernels::tune_suite()
        .into_iter()
        .filter(|k| labels.contains(&k.label.as_str()))
        .collect();
    assert_eq!(kernels.len(), labels.len());
    FleetJob::grid(&kernels, &["x86".to_string()], STRATEGY, SEED).unwrap()
}

/// Drain a fresh fleet under `plan` (rerunning fault-free if the faults
/// left it undrained, exactly as an operator would) and return the merged
/// library text.
fn drain_under(tag: &str, workers: usize, plan: &FaultPlan) -> String {
    let dir = scratch(tag);
    let fleet = FleetDir::open(&dir).unwrap();
    fleet.init(&jobs()).unwrap();
    let report = run_fleet(&fleet, workers, &WorkerConfig::new(""), plan).unwrap();
    if !report.drained {
        let resumed = run_fleet(&fleet, workers, &WorkerConfig::new(""), &FaultPlan::none())
            .unwrap();
        assert!(resumed.drained, "{tag}: fleet failed to drain after fault-free rerun");
    }
    let merged = fleet.merge();
    assert!(merged.unfinished.is_empty(), "{tag}: unfinished {:?}", merged.unfinished);
    let text = merged.library.to_text();
    assert!(!text.lines().next().unwrap_or("").is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
    text
}

/// The crash matrix proper: kill worker w0 at each fault site on each of
/// its first two visits; every scenario must merge byte-identical to the
/// uninterrupted baseline.
#[test]
fn kill_at_every_fault_site_resumes_byte_identical() {
    let baseline = drain_under("baseline", 2, &FaultPlan::none());
    for site in FaultSite::all() {
        for nth in [1, 2] {
            let plan = FaultPlan::none().kill("w0", site, nth);
            let text = drain_under(&format!("kill-{site:?}-{nth}"), 2, &plan);
            assert_eq!(text, baseline, "kill at {site:?} (visit {nth}) changed the bytes");
        }
    }
}

/// The non-kill fault kinds: dropped claims, duplicated claims (the same
/// job running concurrently on two workers), and torn part writes. All
/// must converge to the baseline bytes.
#[test]
fn claim_and_part_faults_converge_byte_identical() {
    let baseline = drain_under("nk-baseline", 2, &FaultPlan::none());
    let scenarios = [
        ("drop", FaultSite::MidJob, FaultKind::DropClaim),
        ("dup", FaultSite::MidJob, FaultKind::DuplicateClaim),
        ("torn", FaultSite::MidRename, FaultKind::TornPart),
    ];
    for (tag, site, kind) in scenarios {
        let plan = FaultPlan::none().with("w0", site, 1, kind);
        let text = drain_under(&format!("nk-{tag}"), 2, &plan);
        assert_eq!(text, baseline, "{kind:?} at {site:?} changed the bytes");
    }
}

/// Seeded random fault plans (the harness the module doc promises): any
/// seed's combination of kills, drops, duplicates and torn writes must
/// converge to the same bytes.
#[test]
fn seeded_fault_plans_converge_byte_identical() {
    let baseline = drain_under("seed-baseline", 2, &FaultPlan::none());
    let workers = vec!["w0".to_string(), "w1".to_string()];
    for seed in 0..4 {
        let plan = FaultPlan::seeded(seed, &workers);
        assert!(!plan.faults.is_empty(), "seeded plan {seed} is empty");
        let text = drain_under(&format!("seeded-{seed}"), 2, &plan);
        assert_eq!(text, baseline, "seeded plan {seed} ({:?}) changed the bytes", plan.faults);
    }
}

/// A worker killed mid-job leaves its claim unlocked; racing reclaimers
/// must transfer it back to the queue exactly once — the rename-level
/// guarantee, checked with 8 concurrent reclaimers.
#[test]
fn concurrent_reclaimers_reclaim_exactly_once() {
    let dir = scratch("reclaim-race");
    let fleet = FleetDir::open(&dir).unwrap();
    let js = jobs();
    fleet.init(&js).unwrap();
    let id = js[0].id();
    // the claimant dies at once: its lock drops with the returned file
    fleet.try_claim(&id).unwrap().unwrap();

    let wins: Vec<bool> = std::thread::scope(|s| {
        let handles: Vec<_> =
            (0..8).map(|_| s.spawn(|| fleet.try_reclaim(&id).unwrap())).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(wins.iter().filter(|w| **w).count(), 1, "reclaim wins: {wins:?}");
    // no orphan: the job is back in the queue, claimable, and intact
    let _held = fleet.try_claim(&id).unwrap().expect("reclaimed job must be claimable");
    let claim = dir.join("claims").join(format!("{id}.claim"));
    assert_eq!(std::fs::read_to_string(claim).unwrap(), js[0].render());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The full-protocol version: a worker claims a job and dies; a surviving
/// multi-worker fleet must find the unlocked claim, reclaim it exactly
/// once across all scanners, re-run the job once, and drain to the
/// baseline bytes.
#[test]
fn dead_workers_job_is_reclaimed_once_and_retuned() {
    let baseline = drain_under("dead-baseline", 2, &FaultPlan::none());
    let dir = scratch("dead-worker");
    let fleet = FleetDir::open(&dir).unwrap();
    let js = jobs();
    fleet.init(&js).unwrap();
    // the dead worker claimed a job and was kill -9'd: its lock drops with
    // the returned file
    let id = js[0].id();
    fleet.try_claim(&id).unwrap().unwrap();

    let report = run_fleet(&fleet, 3, &WorkerConfig::new(""), &FaultPlan::none()).unwrap();
    assert!(report.drained);
    let reclaims: usize = report.workers.iter().map(|w| w.reclaimed).sum();
    assert_eq!(reclaims, 1, "dead worker's claim reclaimed {reclaims} times, want exactly 1");
    let merged = fleet.merge();
    assert!(merged.unfinished.is_empty());
    assert_eq!(merged.library.to_text(), baseline, "reclaimed re-tune changed the bytes");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Queue bytes never decide what runs: a stray queue file that names no
/// manifest job is never claimed, and a manifest job whose queue file was
/// overwritten with garbage still runs from the manifest. The fleet must
/// drain and merge to the baseline bytes.
#[test]
fn unparseable_queue_files_do_not_wedge_the_fleet() {
    let baseline = drain_under("garbage-baseline", 2, &FaultPlan::none());
    let dir = scratch("garbage-queue");
    let fleet = FleetDir::open(&dir).unwrap();
    let js = jobs();
    fleet.init(&js).unwrap();
    std::fs::write(dir.join("queue").join("aaa.job"), "garbage\n").unwrap();
    std::fs::write(dir.join("queue").join(format!("{}.job", js[1].id())), "garbage\n").unwrap();

    let report = run_fleet(&fleet, 2, &WorkerConfig::new(""), &FaultPlan::none()).unwrap();
    assert!(report.drained);
    let merged = fleet.merge();
    assert!(merged.unfinished.is_empty(), "unfinished {:?}", merged.unfinished);
    assert_eq!(merged.library.to_text(), baseline, "garbage queue bytes changed the merge");
    assert_eq!(fleet.queued_ids(), vec!["aaa".to_string()], "the stray file is left alone");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Liveness is the claim's lock, not a deadline: the test thread claims
/// one of the four jobs and sits on it while a 2-worker fleet drains the
/// other three and then scans idle for over 500 ms (more than 20 scans,
/// twice any slice-sized deadline). The held job must stay claimed and
/// unstarted. Once the test drops it, the fleet must reclaim it exactly
/// once and drain to the baseline bytes.
#[test]
fn slow_live_owner_is_never_reclaimed() {
    let baseline = drain_under("slow-baseline", 2, &FaultPlan::none());
    let dir = scratch("slow-owner");
    let fleet = FleetDir::open(&dir).unwrap();
    let js = jobs();
    fleet.init(&js).unwrap();
    let id = js[0].id();
    let held = fleet.try_claim(&id).unwrap().unwrap();

    let report = std::thread::scope(|s| {
        let run = s.spawn(|| run_fleet(&fleet, 2, &WorkerConfig::new(""), &FaultPlan::none()));
        while fleet.status().done < js.len() - 1 {
            assert!(!run.is_finished(), "fleet stopped before draining the other jobs");
            std::thread::sleep(Duration::from_millis(5));
        }
        // only the held job is left: the workers can do nothing but scan
        std::thread::sleep(Duration::from_millis(500));
        assert_eq!(fleet.claimed_ids(), vec![id.clone()], "held claim moved");
        assert!(fleet.queued_ids().is_empty(), "held job requeued");
        assert!(!fleet.ckpt_path(&id).exists(), "a worker started the held job");
        assert!(fleet.part(&id).is_none());
        drop(held);
        run.join().unwrap().unwrap()
    });
    assert!(report.drained);
    let reclaims: usize = report.workers.iter().map(|w| w.reclaimed).sum();
    assert_eq!(reclaims, 1, "released claim reclaimed {reclaims} times, want exactly 1");
    let merged = fleet.merge();
    assert!(merged.unfinished.is_empty());
    assert_eq!(merged.library.to_text(), baseline, "reclaimed re-tune changed the bytes");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Clean pause vs simulated crash: `step_limit` releases the claim
/// (Paused), `kill_after` leaves it behind unlocked (Killed) — and both
/// resume to the baseline bytes through a fresh worker.
#[test]
fn pause_and_kill_resume_paths_are_byte_identical() {
    let baseline = drain_under("pk-baseline", 2, &FaultPlan::none());
    for (tag, pause) in [("paused", true), ("killed", false)] {
        let dir = scratch(tag);
        let fleet = FleetDir::open(&dir).unwrap();
        fleet.init(&jobs()).unwrap();
        let mut cfg = WorkerConfig::new("w0");
        cfg.slice_steps = 4;
        if pause {
            cfg.step_limit = Some(4);
        } else {
            cfg.kill_after = Some(4);
        }
        let report = run_worker(&fleet, &cfg, &FaultPlan::none()).unwrap();
        let status = fleet.status();
        if pause {
            assert_eq!(report.exit, WorkerExit::Paused);
            assert_eq!(status.claimed, 0, "pause must release the claim");
        } else {
            assert_eq!(report.exit, WorkerExit::Killed);
            assert_eq!(status.claimed, 1, "kill must leave the claim behind");
        }
        let resumed = run_worker(&fleet, &WorkerConfig::new("w1"), &FaultPlan::none()).unwrap();
        assert_eq!(resumed.exit, WorkerExit::Drained);
        assert_eq!(fleet.merge().library.to_text(), baseline, "{tag} resume changed the bytes");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
