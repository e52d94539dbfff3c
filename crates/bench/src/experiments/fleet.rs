//! Fleet scaling experiment: build the tune-suite library through the
//! distributed fleet at several worker counts, plus once with
//! an injected worker kill, and verify the merged library is
//! byte-identical every time.
//!
//! The container this runs in may have a single core, so *measured*
//! wall-clock scaling is noise; the repo's determinism rule applies
//! (`BENCH_serve.json` precedent): the JSON reports scaling from the
//! deterministic work-unit makespan model — per-job evaluation counts
//! (exact, seed-determined) assigned to workers by the LPT greedy rule —
//! and measured wall seconds appear only in the printed table notes,
//! never in the JSON. `BENCH_fleet.json` is therefore byte-identical
//! across runs and machines (ci.sh gate 10 `cmp`s two of them).

use crate::report::Table;
use perfdojo_ir::fingerprint::fnv1a;
use perfdojo_library::{
    run_fleet, FaultPlan, FleetDir, FleetJob, Strategy, WorkerExit,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

const SEED: u64 = 7;
const STRATEGY: Strategy = Strategy::Anneal { budget: 12 };
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
const KILL_AFTER_STEPS: u64 = 8;

fn suite_jobs(labels: Option<&[&str]>) -> Result<Vec<FleetJob>, String> {
    let kernels: Vec<perfdojo_kernels::KernelInstance> = perfdojo_kernels::tune_suite()
        .into_iter()
        .filter(|k| labels.is_none_or(|ls| ls.contains(&k.label.as_str())))
        .collect();
    FleetJob::grid(&kernels, &["x86".to_string()], STRATEGY, SEED)
}

struct FleetRun {
    merged_text: String,
    /// job id -> evaluations spent, the work-unit weights of the
    /// makespan model.
    job_evals: BTreeMap<String, u64>,
    wall: f64, // stdout-only; never in the JSON
}

/// Run a fresh fleet of `workers` over `jobs` in a scratch directory;
/// with `kill`, worker w0 is killed after that many steps and a second
/// (unlimited) fleet run resumes the survivors' work.
fn run_one(
    jobs: &[FleetJob],
    workers: usize,
    kill: Option<u64>,
    tag: &str,
) -> Result<FleetRun, String> {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("perfdojo-bench-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fleet = FleetDir::open(&dir);
    fleet.init(jobs).map_err(|e| format!("fleet init: {e}"))?;

    let t0 = Instant::now();
    let plan = match kill {
        None => FaultPlan::none(),
        Some(steps) => FaultPlan::none().kill_after_steps("w0", steps),
    };
    let report = run_fleet(&fleet, workers, None, &plan)?;
    if kill.is_some() {
        let killed = report.workers.iter().filter(|w| w.exit == WorkerExit::Killed).count();
        if killed != 1 {
            return Err(format!("expected exactly one killed worker, saw {killed}"));
        }
        // the survivors usually resume the job and drain; a 1-worker fleet
        // (or an unlucky schedule) needs the rerun — exactly what an
        // operator does
        if !report.drained {
            run_fleet(&fleet, workers, None, &FaultPlan::none())?;
        }
    } else if !report.drained {
        return Err("fault-free fleet failed to drain".to_string());
    }
    let wall = t0.elapsed().as_secs_f64();

    let merge = fleet.merge()?;
    if !merge.unfinished.is_empty() {
        return Err(format!("unfinished jobs after drain: {:?}", merge.unfinished));
    }
    let mut job_evals = BTreeMap::new();
    for job in fleet.manifest()? {
        let id = job.id();
        let (evals, _) = fleet.part(&id).ok_or_else(|| format!("missing part {id}"))?;
        job_evals.insert(id, evals);
    }
    let merged_text = merge.library.to_text();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(FleetRun { merged_text, job_evals, wall })
}

/// Deterministic makespan of the LPT greedy assignment: jobs sorted by
/// descending work (ties by order), each placed on the least-loaded
/// worker. Work units are per-job evaluation counts.
fn makespan(work: &[u64], workers: usize) -> u64 {
    let mut sorted = work.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut loads = vec![0u64; workers.max(1)];
    for w in sorted {
        let i = loads
            .iter()
            .enumerate()
            .min_by_key(|(i, l)| (**l, *i))
            .map(|(i, _)| i)
            .unwrap_or(0);
        loads[i] += w;
    }
    loads.into_iter().max().unwrap_or(0)
}

struct FleetExperiment {
    jobs: usize,
    total_evals: u64,
    merged_entries: usize,
    merged_hash: u64,
    /// (workers, makespan units, model speedup vs 1 worker, wall secs)
    scaling: Vec<(usize, u64, f64, f64)>,
    kill_resume_identical: bool,
    counts_identical: bool,
    kill_wall: f64,
}

fn run_experiment(labels: Option<&[&str]>) -> Result<FleetExperiment, String> {
    let jobs = suite_jobs(labels)?;
    let mut runs = Vec::new();
    for &n in &WORKER_COUNTS {
        runs.push(run_one(&jobs, n, None, &format!("w{n}"))?);
    }
    let baseline = &runs[0];
    let counts_identical = runs.iter().all(|r| r.merged_text == baseline.merged_text);

    let killed = run_one(&jobs, 4, Some(KILL_AFTER_STEPS), "kill")?;
    let kill_resume_identical = killed.merged_text == baseline.merged_text;

    let work: Vec<u64> = baseline.job_evals.values().copied().collect();
    let m1 = makespan(&work, 1);
    let scaling = WORKER_COUNTS
        .iter()
        .zip(&runs)
        .map(|(&n, r)| {
            let m = makespan(&work, n);
            (n, m, m1 as f64 / m.max(1) as f64, r.wall)
        })
        .collect();

    let mut entries = 0;
    for line in baseline.merged_text.lines() {
        entries += usize::from(line.starts_with("entry "));
    }
    Ok(FleetExperiment {
        jobs: jobs.len(),
        total_evals: work.iter().sum(),
        merged_entries: entries,
        merged_hash: fnv1a(baseline.merged_text.as_bytes()),
        scaling,
        kill_resume_identical,
        counts_identical,
        kill_wall: killed.wall,
    })
}

fn emit_json(e: &FleetExperiment) -> String {
    let mut j = String::from("{\n  \"experiment\": \"fleet\",\n");
    j.push_str(&format!("  \"seed\": {SEED},\n"));
    j.push_str(&format!("  \"strategy\": \"{}\",\n", STRATEGY.spec()));
    j.push_str(&format!("  \"jobs\": {},\n", e.jobs));
    j.push_str(&format!("  \"total_evaluations\": {},\n", e.total_evals));
    j.push_str(&format!("  \"merged_entries\": {},\n", e.merged_entries));
    j.push_str(&format!("  \"merged_hash\": \"{:016x}\",\n", e.merged_hash));
    j.push_str(&format!(
        "  \"merged_identical_across_worker_counts\": {},\n",
        e.counts_identical
    ));
    j.push_str(&format!(
        "  \"injected_kill\": {{ \"worker\": \"w0\", \"after_steps\": {KILL_AFTER_STEPS} }},\n"
    ));
    j.push_str(&format!("  \"kill_resume_identical\": {},\n", e.kill_resume_identical));
    let s4 = e.scaling.iter().find(|(n, ..)| *n == 4).map_or(1.0, |(_, _, s, _)| *s);
    j.push_str(&format!("  \"speedup_1_to_4\": {s4:.3},\n"));
    j.push_str("  \"scaling\": [\n");
    for (i, (n, m, s, _)) in e.scaling.iter().enumerate() {
        j.push_str(&format!(
            "    {{ \"workers\": {n}, \"makespan_units\": {m}, \"speedup\": {s:.3} }}{}\n",
            if i + 1 < e.scaling.len() { "," } else { "" },
        ));
    }
    j.push_str("  ]\n}\n");
    j
}

fn try_run_fleet_exp(json_path: Option<&std::path::Path>) -> Result<String, String> {
    let e = run_experiment(None)?;
    let mut t = Table::new(
        "Tuning fleet: work-queue build farm scaling, byte-identical merges (x86)",
        &["workers", "makespan units", "model speedup", "merged identical"],
    );
    for (n, m, s, _) in &e.scaling {
        t.row(vec![
            n.to_string(),
            m.to_string(),
            format!("{s:.2}x"),
            if e.counts_identical { "yes".into() } else { "NO".into() },
        ]);
    }
    t.note(format!(
        "{} jobs, {} evaluations; merged library {} entries, fnv1a {:016x}",
        e.jobs, e.total_evals, e.merged_entries, e.merged_hash
    ));
    t.note(format!(
        "injected kill: w0 killed after {KILL_AFTER_STEPS} steps in a 4-worker fleet; \
         survivors resumed its checkpoint; merged library \
         byte-identical to the uninterrupted run: {}",
        if e.kill_resume_identical { "yes" } else { "NO" }
    ));
    t.note(format!(
        "makespan model: per-job evaluation counts under LPT assignment — deterministic, \
         core-count independent; measured wall (this machine, wall-clock, not in the JSON): {}; \
         kill+resume run {:.3}s",
        e.scaling
            .iter()
            .map(|(n, _, _, w)| format!("{n}w {w:.3}s"))
            .collect::<Vec<_>>()
            .join(", "),
        e.kill_wall,
    ));
    let json = emit_json(&e);
    if let Some(path) = json_path {
        std::fs::write(path, &json)
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        t.note(format!("wrote {}", path.display()));
    }
    Ok(t.render())
}

/// Fleet scaling experiment: emits the byte-reproducible
/// `BENCH_fleet.json` in the working directory alongside the printed
/// table.
pub fn exp_fleet() -> String {
    match try_run_fleet_exp(Some(std::path::Path::new("BENCH_fleet.json"))) {
        Ok(report) => report,
        Err(e) => format!("error: {e}\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_model_is_lpt() {
        assert_eq!(makespan(&[], 4), 0);
        assert_eq!(makespan(&[10, 10, 10, 10], 1), 40);
        assert_eq!(makespan(&[10, 10, 10, 10], 4), 10);
        // LPT on [7,6,5,4,3] x 2 workers: 7+4+3 | 6+5 (greedy, not optimal)
        assert_eq!(makespan(&[3, 7, 5, 4, 6], 2), 14);
        // near-linear on the even case
        assert!(makespan(&[12; 16], 1) as f64 / makespan(&[12; 16], 4) as f64 >= 3.9);
    }

    #[test]
    fn fleet_experiment_is_reproducible_and_kill_tolerant() {
        // a suite subset keeps the debug-mode test affordable; the full
        // suite runs in release via `figures --exp fleet` (ci gate 10)
        let labels = ["softmax", "matmul", "relu", "reducemean", "rmsnorm", "mul"];
        let a = run_experiment(Some(&labels)).expect("fleet experiment");
        assert!(a.counts_identical, "worker counts changed the merged bytes");
        assert!(a.kill_resume_identical, "kill+resume changed the merged bytes");
        assert_eq!(a.jobs, labels.len());
        assert!(a.merged_entries > 0);
        // the model shows real parallelism on the suite's near-even jobs
        let s4 = a.scaling.iter().find(|(n, ..)| *n == 4).unwrap().2;
        assert!(s4 >= 1.7, "model speedup 1->4 only {s4:.2}x");
        // the JSON is a pure function of the seed (wall time excluded)
        let b = run_experiment(Some(&labels)).expect("fleet experiment repeat");
        assert_eq!(emit_json(&a), emit_json(&b), "fleet JSON not reproducible");
    }
}
