//! Fleet crash matrix: every fault point in the worker loop, exercised
//! through the seeded `FaultPlan` harness, must leave a fleet that
//! resumes to a merged library and job traces byte-identical to the
//! uninterrupted run's (traces apart from `cache_hit`) — the checkpoint
//! `cmp` methodology lifted to the multi-worker protocol. Plus
//! the liveness guarantees of the job lock: exactly one of any number of
//! racing claimants owns a job, a dead worker's job is re-run exactly
//! once, a live owner's job is never taken, however long it takes, and
//! deleted lock files lose no job.

use perfdojo_library::{
    run_fleet, run_worker, FaultKind, FaultPlan, FaultSite, FleetDir, FleetJob, FleetRunReport,
    Strategy, WorkerExit,
};
use perfdojo_util::trace::strip_field;
use std::path::PathBuf;
use std::sync::Barrier;
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
/// library text and every job's `cache_hit`-stripped trace, in manifest
/// order.
fn drain_under(tag: &str, workers: usize, plan: &FaultPlan) -> (String, Vec<String>) {
    let dir = scratch(tag);
    let fleet = FleetDir::open(&dir);
    fleet.init(&jobs()).unwrap();
    let report = run_fleet(&fleet, workers, None, plan).unwrap();
    if !report.drained {
        let resumed = run_fleet(&fleet, workers, None, &FaultPlan::none())
            .unwrap();
        assert!(resumed.drained, "{tag}: fleet failed to drain after fault-free rerun");
    }
    let merged = fleet.merge().unwrap();
    assert!(merged.unfinished.is_empty(), "{tag}: unfinished {:?}", merged.unfinished);
    let text = merged.library.to_text();
    assert!(!text.lines().next().unwrap_or("").is_empty());
    let traces = jobs()
        .iter()
        .map(|job| {
            let trace = dir.join("ckpt").join(job.id()).join("trace.jsonl");
            strip_field(&std::fs::read_to_string(trace).unwrap(), "cache_hit")
        })
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    (text, traces)
}

/// The crash matrix proper: kill worker w0 at each fault site on each of
/// its first two visits; every scenario must merge and trace
/// byte-identical to the uninterrupted baseline.
#[test]
fn kill_at_every_fault_site_resumes_byte_identical() {
    let baseline = drain_under("baseline", 2, &FaultPlan::none());
    for site in FaultSite::all() {
        for nth in [1, 2] {
            let plan = FaultPlan::none().kill("w0", site, nth);
            let run = drain_under(&format!("kill-{site:?}-{nth}"), 2, &plan);
            assert_eq!(run.0, baseline.0, "kill at {site:?} (visit {nth}) changed the bytes");
            assert_eq!(run.1, baseline.1, "kill at {site:?} (visit {nth}) changed a trace");
        }
    }
}

/// The non-kill fault kinds: deleted lock files (the same job running
/// concurrently on two workers) and torn part writes. Both must converge
/// to the baseline bytes.
#[test]
fn claim_and_part_faults_converge_byte_identical() {
    let baseline = drain_under("nk-baseline", 2, &FaultPlan::none());
    let scenarios = [
        ("drop", FaultSite::MidJob, FaultKind::DropLock),
        ("torn", FaultSite::MidRename, FaultKind::TornPart),
    ];
    for (tag, site, kind) in scenarios {
        let plan = FaultPlan::none().with("w0", site, 1, kind);
        let run = drain_under(&format!("nk-{tag}"), 2, &plan);
        assert_eq!(run.0, baseline.0, "{kind:?} at {site:?} changed the bytes");
        assert_eq!(run.1, baseline.1, "{kind:?} at {site:?} changed a trace");
    }
}

/// Seeded random fault plans (the harness the module doc promises): any
/// seed's combination of kills, deleted lock files and torn writes must
/// converge to the same bytes.
#[test]
fn seeded_fault_plans_converge_byte_identical() {
    let baseline = drain_under("seed-baseline", 2, &FaultPlan::none());
    let workers = vec!["w0".to_string(), "w1".to_string()];
    for seed in 0..4 {
        let plan = FaultPlan::seeded(seed, &workers);
        assert!(!plan.faults.is_empty(), "seeded plan {seed} is empty");
        let run = drain_under(&format!("seeded-{seed}"), 2, &plan);
        assert_eq!(run.0, baseline.0, "seeded plan {seed} ({:?}) changed the bytes", plan.faults);
        assert_eq!(run.1, baseline.1, "seeded plan {seed} ({:?}) changed a trace", plan.faults);
    }
}

/// A dead owner's lock is free the moment it dies; claimants racing for
/// the job must find exactly one winner, and the next claimant gets in
/// only once the winner drops its lock. Checked with 8 concurrent
/// claimants released together by a barrier.
#[test]
fn concurrent_reclaimers_reclaim_exactly_once() {
    let dir = scratch("reclaim-race");
    let fleet = FleetDir::open(&dir);
    let js = jobs();
    fleet.init(&js).unwrap();
    let id = js[0].id();
    // the first owner dies at once: its lock drops with the returned file
    fleet.try_claim(&id).unwrap().unwrap();

    let start = Barrier::new(8);
    let claims: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    fleet.try_claim(&id).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut winners: Vec<_> = claims.into_iter().flatten().collect();
    assert_eq!(winners.len(), 1, "claim wins: {}", winners.len());
    assert!(fleet.try_claim(&id).unwrap().is_none(), "claimed while the winner holds it");
    drop(winners.pop());
    assert!(fleet.try_claim(&id).unwrap().is_some(), "the winner's drop must free the job");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Without a fault no job runs twice: every manifest id appears exactly
/// once across the workers' completed jobs.
fn assert_each_job_done_once(report: &FleetRunReport, js: &[FleetJob]) {
    let mut done: Vec<&String> = report.workers.iter().flat_map(|w| &w.jobs_done).collect();
    done.sort();
    let mut want: Vec<String> = js.iter().map(FleetJob::id).collect();
    want.sort();
    assert_eq!(done, want.iter().collect::<Vec<_>>(), "jobs not done exactly once");
}

/// The full-protocol version: a worker dies mid-job, leaving a
/// checkpoint; a surviving multi-worker fleet must resume the job, run
/// every job exactly once, and drain to the baseline bytes.
#[test]
fn dead_workers_job_is_retuned_exactly_once() {
    let baseline = drain_under("dead-baseline", 2, &FaultPlan::none()).0;
    let dir = scratch("dead-worker");
    let fleet = FleetDir::open(&dir);
    let js = jobs();
    fleet.init(&js).unwrap();
    // the dead worker took the first job and was kill -9'd one slice in
    let plan = FaultPlan::none().kill("dead", FaultSite::MidJob, 1);
    let dead = run_worker(&fleet, "dead", None, &plan).unwrap();
    assert_eq!((dead.exit, dead.jobs_done.len()), (WorkerExit::Killed, 0));
    assert_eq!(std::fs::read_dir(dir.join("ckpt")).unwrap().count(), 1, "one job started");

    let report = run_fleet(&fleet, 3, None, &FaultPlan::none()).unwrap();
    assert!(report.drained);
    assert_each_job_done_once(&report, &js);
    let merged = fleet.merge().unwrap();
    assert!(merged.unfinished.is_empty());
    assert_eq!(merged.library.to_text(), baseline, "resumed re-tune changed the bytes");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Stray bytes never decide what runs: a lock file that names no manifest
/// job, garbage in a manifest job's lock file, a garbage part (a torn
/// write) for another job, and the `queue/` and `claims/` files an older
/// fleet kept are all harmless. The fleet must drain to the baseline bytes
/// and leave the stray files alone.
#[test]
fn unparseable_queue_files_do_not_wedge_the_fleet() {
    let baseline = drain_under("garbage-baseline", 2, &FaultPlan::none()).0;
    let dir = scratch("garbage-queue");
    let fleet = FleetDir::open(&dir);
    let js = jobs();
    fleet.init(&js).unwrap();
    let stray = [
        dir.join("locks").join("aaa.lock"),
        dir.join("queue").join(format!("{}.job", js[0].id())),
        dir.join("claims").join(format!("{}.claim", js[3].id())),
    ];
    for path in &stray {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, "garbage\n").unwrap();
    }
    std::fs::write(dir.join("locks").join(format!("{}.lock", js[1].id())), "garbage\n").unwrap();
    std::fs::write(dir.join("parts").join(format!("{}.part", js[2].id())), "garbage\n").unwrap();

    let report = run_fleet(&fleet, 2, None, &FaultPlan::none()).unwrap();
    assert!(report.drained);
    assert_eq!(report.workers.iter().map(|w| w.discarded_torn).sum::<usize>(), 1);
    let merged = fleet.merge().unwrap();
    assert!(merged.unfinished.is_empty(), "unfinished {:?}", merged.unfinished);
    assert_eq!(merged.library.to_text(), baseline, "garbage bytes changed the merge");
    for path in &stray {
        assert_eq!(std::fs::read_to_string(path).unwrap(), "garbage\n", "{path:?} touched");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Liveness is the lock, not a deadline: the test thread claims one of
/// the four jobs and sits on it while a 2-worker fleet drains the other
/// three and then scans idle for over 500 ms (more than 20 scans). The
/// held job must stay running and unstarted. Once the test drops it, the
/// fleet must run it exactly once and drain to the baseline bytes.
#[test]
fn slow_live_owner_is_never_reclaimed() {
    let baseline = drain_under("slow-baseline", 2, &FaultPlan::none()).0;
    let dir = scratch("slow-owner");
    let fleet = FleetDir::open(&dir);
    let js = jobs();
    fleet.init(&js).unwrap();
    let id = js[0].id();
    let held = fleet.try_claim(&id).unwrap().unwrap();

    let report = std::thread::scope(|s| {
        let run = s.spawn(|| run_fleet(&fleet, 2, None, &FaultPlan::none()));
        while fleet.status().unwrap().done < js.len() - 1 {
            assert!(!run.is_finished(), "fleet stopped before draining the other jobs");
            std::thread::sleep(Duration::from_millis(5));
        }
        // only the held job is left: the workers can do nothing but scan
        std::thread::sleep(Duration::from_millis(500));
        let status = fleet.status().unwrap();
        assert_eq!((status.running, status.pending), (1, 0), "held job not running");
        assert!(!dir.join("ckpt").join(&id).exists(), "a worker started the held job");
        assert!(fleet.part(&id).is_none());
        drop(held);
        run.join().unwrap().unwrap()
    });
    assert!(report.drained);
    assert_each_job_done_once(&report, &js);
    let merged = fleet.merge().unwrap();
    assert!(merged.unfinished.is_empty());
    assert_eq!(merged.library.to_text(), baseline, "released re-tune changed the bytes");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A lock file can vanish: before the run for a pending job, and under a
/// running job's owner (`DropLock`, which lets a second worker run the
/// job concurrently). Neither loses a job or changes the merged bytes.
#[test]
fn dropped_lock_files_lose_no_job() {
    let baseline = drain_under("droplock-baseline", 2, &FaultPlan::none()).0;
    let dir = scratch("droplock");
    let fleet = FleetDir::open(&dir);
    let js = jobs();
    fleet.init(&js).unwrap();
    drop(fleet.try_claim(&js[1].id()).unwrap());
    std::fs::remove_file(dir.join("locks").join(format!("{}.lock", js[1].id()))).unwrap();

    let plan = FaultPlan::none().with("w0", FaultSite::MidJob, 1, FaultKind::DropLock);
    let report = run_fleet(&fleet, 2, None, &plan).unwrap();
    assert!(report.drained);
    let merged = fleet.merge().unwrap();
    assert!(merged.unfinished.is_empty());
    assert_eq!(merged.library.to_text(), baseline, "dropped lock files changed the bytes");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Clean pause vs simulated crash: `step_limit` pauses (Paused) and a
/// planned kill dies (Killed) mid-job; both drop the lock, leaving the job
/// pending with its checkpoint, and both resume to the baseline bytes
/// through a fresh worker.
#[test]
fn pause_and_kill_resume_paths_are_byte_identical() {
    let baseline = drain_under("pk-baseline", 2, &FaultPlan::none()).0;
    for (tag, pause) in [("paused", true), ("killed", false)] {
        let dir = scratch(tag);
        let fleet = FleetDir::open(&dir);
        fleet.init(&jobs()).unwrap();
        let (step_limit, plan) = if pause {
            (Some(4), FaultPlan::none())
        } else {
            (None, FaultPlan::none().kill("w0", FaultSite::MidJob, 1))
        };
        let report = run_worker(&fleet, "w0", step_limit, &plan).unwrap();
        let want = if pause { WorkerExit::Paused } else { WorkerExit::Killed };
        assert_eq!(report.exit, want);
        let status = fleet.status().unwrap();
        assert_eq!((status.pending, status.running), (4, 0), "{tag}: the job must be pending");
        let resumed = run_worker(&fleet, "w1", None, &FaultPlan::none()).unwrap();
        assert_eq!(resumed.exit, WorkerExit::Drained);
        let merged = fleet.merge().unwrap().library.to_text();
        assert_eq!(merged, baseline, "{tag} resume changed the bytes");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
