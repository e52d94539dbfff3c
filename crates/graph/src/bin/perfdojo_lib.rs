//! `perfdojo-lib`: build, query, and maintain schedule libraries on disk.
//!
//! ```text
//! perfdojo-lib build --out lib.pdl [--kernels softmax,matmul] \
//!     [--targets x86,gh200] [--strategy heuristic|anneal[:N[:K]]|perfllm[:N]] \
//!     [--seed N] [--paper-shapes]
//! perfdojo-lib query --lib lib.pdl --target x86 --kernel softmax [--shape 128x64]
//! perfdojo-lib stats --lib lib.pdl
//! perfdojo-lib gc --lib lib.pdl
//! perfdojo-lib serve --lib lib.pdl --target x86 [--rounds N] [--requests N] \
//!     [--seed N] [--zipf-s S] [--batch N] [--queue N] [--strategy ...] \
//!     [--checkpoint-dir dir [--step-limit N]] [--report out.json]
//! perfdojo-lib graph-build --out lib.pdl [--target x86] [--graphs ffn,attention] \
//!     [--strategy ...] [--seed N]
//! perfdojo-lib graph-query --lib lib.pdl --target x86 --graph ffn
//! perfdojo-lib graph-check [--seed N] [--count K]
//! ```
//!
//! Arguments are hand-parsed (zero-dependency workspace policy). `build`
//! and `graph-build` merge into an existing `--out` file when one is
//! present, so libraries grow incrementally across runs.

use perfdojo_core::Target;
use perfdojo_kernels::KernelInstance;
use perfdojo_library::{
    run_fleet, run_worker, target_by_name, BuildCheckpoint, BuildProgress, FaultPlan, FleetDir,
    FleetJob, Library, LibraryBuilder, ServeConfig, ServeQuery, Server, Strategy, TuneProgress,
    WorkerConfig, WorkerExit,
};
use perfdojo_util::rng::Rng;
use perfdojo_util::zipf::Zipf;
use std::path::PathBuf;
use std::process::ExitCode;

/// Exit code of a checkpointed build that paused at `--step-limit` (the
/// work is not done, but nothing failed — rerun to continue).
const EXIT_PAUSED: u8 = 4;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("query") => cmd_query(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("stats") => cmd_stats(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("gc") => cmd_gc(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("serve") => cmd_serve(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("graph-build") => cmd_graph_build(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("graph-query") => cmd_graph_query(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("graph-check") => cmd_graph_check(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfdojo-lib: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  perfdojo-lib build --out <file> [--kernels a,b] [--targets x86,gh200]
                     [--strategy heuristic|anneal[:N[:K]]|perfllm[:N]]
                     (anneal:N:K runs K parallel chains of N evals each)
                     [--seed N] [--paper-shapes]
                     [--checkpoint-dir <dir> [--step-limit N]]
                     (crash-safe sequential build: progress persists in
                      <dir>; an interrupted build resumes where it stopped;
                      --step-limit pauses cleanly after N tuning steps,
                      exit code 4)
  perfdojo-lib query --lib <file> --target <name> --kernel <label> [--shape DxD...]
  perfdojo-lib stats --lib <file>
  perfdojo-lib gc    --lib <file>
  perfdojo-lib serve --lib <file> --target <name>
                     [--rounds N] [--requests N] [--seed N] [--zipf-s S]
                     [--batch N] [--queue N]
                     [--strategy heuristic|anneal[:N[:K]]|perfllm[:N]]
                     [--checkpoint-dir <dir> [--step-limit N]]
                     [--report <out.json>]
                     (fixed-seed Zipf load over a built-in query universe;
                      --zipf-s sets the skew exponent, default 1.1, with
                      --zipf kept as an alias; tune-misses drain between
                      rounds and hot-swap --lib atomically; with
                      --checkpoint-dir the drain is crash-safe and
                      --step-limit pauses it cleanly with exit code 4 —
                      rerun the identical command to resume)
  perfdojo-lib fleet init   --dir <fleet-dir> [--kernels a,b] [--targets x86,gh200]
                     [--strategy heuristic|anneal[:N[:K]]|perfllm[:N]] [--seed N]
                     (seed the shared work queue with the kernels x targets
                      job grid and write the jobs.list manifest; idempotent
                      on a live fleet)
  perfdojo-lib fleet run    --dir <fleet-dir> [--workers N] [--step-limit N]
                     [--kill-after N] [--fault-seed N]
                     (run N in-process workers until the queue drains;
                      --step-limit pauses each worker cleanly after N tuning
                      steps, exit code 4 — rerun to continue; --kill-after
                      simulates a kill -9 of worker w0 after N steps,
                      leaving its claim for the survivors to reclaim;
                      --fault-seed injects a seeded random fault plan)
  perfdojo-lib fleet work   --dir <fleet-dir> --worker <id> [--step-limit N]
                     [--kill-after N]
                     (one worker process: claim jobs under an OS file lock,
                      tune under the per-job checkpoint, emit hash-checked
                      parts; a dead worker's claim, even after kill -9, is
                      reclaimed by the next idle worker — launch any number
                      of these against the same dir)
  perfdojo-lib fleet status --dir <fleet-dir>
  perfdojo-lib fleet merge  --dir <fleet-dir> --out <file>
                     (deterministic keep-best join of every valid part;
                      byte-identical output regardless of worker count,
                      arrival order, kills, or duplicated work)
  perfdojo-lib graph-build --out <file> [--target <name>]
                     [--graphs attention,ffn,transformer,cnn_pipe,mlp_block]
                     [--strategy heuristic|anneal[:N[:K]]|perfllm[:N]] [--seed N]
                     (tune whole pipelines as blocks: inter-kernel fusion
                      and edge-layout planning, then intra-block schedule
                      search; records key on the structural subgraph
                      fingerprint so serve answers a block in one query)
  perfdojo-lib graph-query --lib <file> --target <name> --graph <name>
                     (dispatch a whole pipeline: subgraph block hit, or
                      per-node tiered fallback on a block miss)
  perfdojo-lib graph-check [--seed N] [--count K]
                     (random-graph differential smoke: per-node executor
                      vs composed interpreter reference at pinned seeds)
";

/// Pull the value following `--flag` out of `args`, if present.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
            _ => Err(format!("{flag} needs a value")),
        },
    }
}

fn required(args: &[String], flag: &str) -> Result<String, String> {
    flag_value(args, flag)?.ok_or_else(|| format!("{flag} is required"))
}

fn load_library(args: &[String]) -> Result<(Library, PathBuf), String> {
    let path = PathBuf::from(required(args, "--lib")?);
    let (lib, stats) = Library::load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if stats.corrupt_entries > 0 {
        eprintln!("warning: {} corrupt entries skipped", stats.corrupt_entries);
    }
    Ok((lib, path))
}

fn parse_targets(spec: Option<String>) -> Result<Vec<Target>, String> {
    let spec = spec.unwrap_or_else(|| "x86".to_string());
    spec.split(',')
        .map(|n| target_by_name(n.trim()).ok_or_else(|| format!("unknown target {n:?}")))
        .collect()
}

fn cmd_build(args: &[String]) -> Result<ExitCode, String> {
    let out = PathBuf::from(required(args, "--out")?);
    let targets = parse_targets(flag_value(args, "--targets")?)?;
    let strategy = match flag_value(args, "--strategy")? {
        None => Strategy::Heuristic,
        Some(s) => Strategy::parse(&s).ok_or_else(|| format!("bad strategy {s:?}"))?,
    };
    let seed: u64 = match flag_value(args, "--seed")? {
        None => 0,
        Some(s) => s.parse().map_err(|_| format!("bad seed {s:?}"))?,
    };
    let suite = if args.iter().any(|a| a == "--paper-shapes") {
        perfdojo_kernels::paper_suite()
    } else {
        perfdojo_kernels::tune_suite()
    };
    let kernels: Vec<KernelInstance> = match flag_value(args, "--kernels")? {
        None => suite,
        Some(spec) => {
            let wanted: Vec<&str> = spec.split(',').map(str::trim).collect();
            let picked: Vec<KernelInstance> =
                suite.into_iter().filter(|k| wanted.contains(&k.label.as_str())).collect();
            for w in &wanted {
                if !picked.iter().any(|k| k.label == *w) {
                    return Err(format!("unknown kernel {w:?}"));
                }
            }
            picked
        }
    };

    let ckpt_dir = flag_value(args, "--checkpoint-dir")?;
    let step_limit: Option<u64> = match flag_value(args, "--step-limit")? {
        None => None,
        Some(s) => {
            if ckpt_dir.is_none() {
                return Err("--step-limit requires --checkpoint-dir".to_string());
            }
            Some(s.parse().map_err(|_| format!("bad step limit {s:?}"))?)
        }
    };

    let mut lib = match Library::load(&out) {
        Ok((l, _)) => l,
        Err(_) => Library::new(),
    };
    let builder = LibraryBuilder::new(strategy, seed);
    let (progress, report, outcomes) = match &ckpt_dir {
        None => {
            let (report, outcomes) = builder.build_into(&mut lib, &kernels, &targets);
            (BuildProgress::Finished, report, outcomes)
        }
        Some(dir) => {
            let ckpt = BuildCheckpoint::open(std::path::Path::new(dir))
                .map_err(|e| format!("{dir}: {e}"))?;
            builder.build_into_checkpointed(&mut lib, &kernels, &targets, &ckpt, step_limit)?
        }
    };

    let evals: u64 = outcomes.iter().map(|o| o.evaluations).sum();
    for o in outcomes.iter().filter(|o| o.error.is_some()) {
        eprintln!("warning: {} on {}: {}", o.label, o.target, o.error.as_ref().unwrap());
    }
    if progress == BuildProgress::Paused {
        println!(
            "paused {}: {} jobs finished this run, {} evaluations; resume with the same \
             --checkpoint-dir",
            ckpt_dir.as_deref().unwrap_or("?"),
            outcomes.len(),
            evals
        );
        return Ok(ExitCode::from(EXIT_PAUSED));
    }
    lib.save(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "built {}: {} jobs, {} evaluations; +{} inserted, {} improved, {} kept, \
         {} invalidated; {} entries total",
        out.display(),
        outcomes.len(),
        evals,
        report.inserted,
        report.improved,
        report.kept_existing,
        report.invalidated,
        lib.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let (lib, _) = load_library(args)?;
    let target_name = required(args, "--target")?;
    let target = target_by_name(&target_name).ok_or_else(|| format!("unknown target {target_name:?}"))?;
    let label = required(args, "--kernel")?;
    let query = match flag_value(args, "--shape")? {
        None => {
            perfdojo_kernels::by_label(&label)
                .ok_or_else(|| format!("unknown kernel {label:?}"))?
                .verify_program
        }
        Some(spec) => {
            let dims: Vec<usize> = spec
                .split('x')
                .map(|d| d.parse().map_err(|_| format!("bad shape {spec:?}")))
                .collect::<Result<_, _>>()?;
            perfdojo_kernels::by_label_with_shape(&label, &dims)
                .ok_or_else(|| format!("no kernel {label:?} at shape {spec:?}"))?
        }
    };

    let r = lib.lookup(&query, &target);
    println!("kernel:      {label}");
    println!("target:      {}", target.name);
    println!("disposition: {}", r.disposition);
    println!("steps:       {}", r.steps.len());
    println!("cost:        {:.3e} s (naive {:.3e} s, speedup {:.2}x)", r.cost, r.naive_cost, r.speedup());
    println!(
        "verified:    {}",
        match r.verified {
            Some(true) => "yes",
            Some(false) => "no",
            None => "skipped (too large to interpret)",
        }
    );
    for a in &r.steps {
        println!("  {a}");
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let (lib, path) = load_library(args)?;
    let s = lib.stats();
    println!("library:         {}", path.display());
    println!("entries:         {}", s.entries);
    println!("operators:       {}", s.operators);
    println!("stale:           {}", s.stale);
    println!("geomean-speedup: {:.2}x", s.geomean_speedup);
    for (target, n) in &s.per_target {
        println!("  {target}: {n}");
    }
    Ok(())
}

/// The built-in serve load universe, ranked hot-to-cold for the Zipf
/// sampler: tuned shapes (exact hits), unseen shapes of tuned operators
/// (nearest-shape replays), and never-tuned operators (misses that the
/// between-round drains tune and hot-swap in).
fn serve_universe() -> Vec<(&'static str, Vec<usize>)> {
    vec![
        ("softmax", vec![64, 64]),
        ("matmul", vec![48, 48, 48]),
        ("softmax", vec![96, 64]),
        ("layernorm 1", vec![64, 64]),
        ("matmul", vec![64, 32, 48]),
        ("rmsnorm", vec![64, 64]),
        ("reducemean", vec![48, 96]),
        ("relu", vec![96, 192]),
    ]
}

fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let (lib, path) = load_library(args)?;
    let target_name = required(args, "--target")?;
    let target =
        target_by_name(&target_name).ok_or_else(|| format!("unknown target {target_name:?}"))?;
    let parse_num = |flag: &str, default: usize| -> Result<usize, String> {
        match flag_value(args, flag)? {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| format!("bad {flag} value {s:?}")),
        }
    };
    let rounds = parse_num("--rounds", 3)?;
    let requests = parse_num("--requests", 64)?;
    let batch = parse_num("--batch", 32)?;
    let queue = parse_num("--queue", 256)?;
    let seed: u64 = match flag_value(args, "--seed")? {
        None => 0,
        Some(s) => s.parse().map_err(|_| format!("bad seed {s:?}"))?,
    };
    // --zipf-s is the documented spelling; --zipf survives as an alias
    let zipf_spec = match flag_value(args, "--zipf-s")? {
        Some(s) => Some(s),
        None => flag_value(args, "--zipf")?,
    };
    let zipf_s: f64 = match zipf_spec {
        None => 1.1,
        Some(s) => s.parse().map_err(|_| format!("bad zipf exponent {s:?}"))?,
    };
    let strategy = match flag_value(args, "--strategy")? {
        None => Strategy::Heuristic,
        Some(s) => Strategy::parse(&s).ok_or_else(|| format!("bad strategy {s:?}"))?,
    };
    let ckpt_dir = flag_value(args, "--checkpoint-dir")?;
    let step_limit: Option<u64> = match flag_value(args, "--step-limit")? {
        None => None,
        Some(s) => {
            if ckpt_dir.is_none() {
                return Err("--step-limit requires --checkpoint-dir".to_string());
            }
            Some(s.parse().map_err(|_| format!("bad step limit {s:?}"))?)
        }
    };
    let report_path = flag_value(args, "--report")?;

    let config = ServeConfig {
        queue_capacity: queue,
        batch_size: batch,
        strategy,
        seed,
        ..ServeConfig::default()
    };
    let server = Server::new(lib, target, config).with_disk(path.clone());
    let ckpt = match &ckpt_dir {
        None => None,
        Some(dir) => Some(
            BuildCheckpoint::open(std::path::Path::new(dir)).map_err(|e| format!("{dir}: {e}"))?,
        ),
    };

    let queries: Vec<ServeQuery> = serve_universe()
        .iter()
        .map(|(label, dims)| {
            ServeQuery::of(label, dims)
                .ok_or_else(|| format!("no kernel {label:?} at shape {dims:?}"))
        })
        .collect::<Result<_, _>>()?;
    let zipf = Zipf::new(queries.len(), zipf_s);
    let mut rng = Rng::seed_from_u64(seed);

    let mut latencies: Vec<u64> = Vec::new();
    for round in 0..rounds {
        for _ in 0..requests {
            let q = queries[zipf.sample(&mut rng)].clone();
            if server.submit(q).is_err() {
                // the queue is full: serve a batch to make room; this
                // request stays shed (counted in the rejected stat), but
                // the batch's replies are served requests and count in the
                // latency distribution like any other
                latencies.extend(server.serve_batch().iter().map(|r| r.latency_units));
            }
        }
        loop {
            let replies = server.serve_batch();
            if replies.is_empty() {
                break;
            }
            latencies.extend(replies.iter().map(|r| r.latency_units));
        }
        let progress = match &ckpt {
            None => server.drain_tunes()?,
            Some(c) => server.drain_tunes_checkpointed(c, step_limit)?,
        };
        match progress {
            TuneProgress::Paused => {
                println!(
                    "paused in round {round}: tune drain hit --step-limit; the library on \
                     disk and the served snapshot are untouched; rerun the identical \
                     command (same --checkpoint-dir) to resume"
                );
                return Ok(ExitCode::from(EXIT_PAUSED));
            }
            TuneProgress::Swapped { generation, tuned, unimproved } => {
                println!(
                    "round {round}: hot-swapped generation {generation} \
                     (+{tuned} tuned, {unimproved} unimproved)"
                );
            }
            TuneProgress::Idle => {}
        }
    }

    latencies.sort_unstable();
    let s = server.stats();
    let snap = server.snapshot(0);
    let p50 = nearest_rank(&latencies, 0.50);
    let p99 = nearest_rank(&latencies, 0.99);
    println!("served:   {} ({} submitted, {} shed)", s.served, s.submitted, s.rejected);
    println!(
        "tiers:    {} exact, {} nearest, {} heuristic, {} naive",
        s.exact, s.nearest, s.heuristic, s.naive
    );
    if s.block_exact + s.block_nearest + s.block_fallback > 0 {
        println!(
            "blocks:   {} exact, {} nearest, {} fell back to per-node dispatch",
            s.block_exact, s.block_nearest, s.block_fallback
        );
    }
    println!(
        "latency:  p50 {p50}, p99 {p99}, max {} (deterministic dispatch-work units)",
        latencies.last().copied().unwrap_or(0)
    );
    println!(
        "tuning:   {} jobs, {} tuned, {} hot swaps; library now {} entries (gen {})",
        s.tune_jobs,
        s.tuned,
        s.swaps,
        snap.library.len(),
        snap.generation
    );
    if let Some(out) = report_path {
        let mut j = String::from("{\n  \"experiment\": \"perfdojo-lib serve\",\n");
        j.push_str(&format!("  \"seed\": {seed},\n"));
        j.push_str(&format!("  \"rounds\": {rounds},\n"));
        j.push_str(&format!("  \"requests_per_round\": {requests},\n"));
        j.push_str(&format!("  \"zipf_exponent\": {zipf_s},\n"));
        j.push_str(&format!("  \"submitted\": {},\n", s.submitted));
        j.push_str(&format!("  \"rejected\": {},\n", s.rejected));
        j.push_str(&format!("  \"served\": {},\n", s.served));
        j.push_str(&format!(
            "  \"tiers\": {{ \"exact\": {}, \"nearest\": {}, \"heuristic\": {}, \
             \"naive\": {} }},\n",
            s.exact, s.nearest, s.heuristic, s.naive
        ));
        j.push_str(&format!(
            "  \"block_tiers\": {{ \"exact\": {}, \"nearest\": {}, \"fallback\": {} }},\n",
            s.block_exact, s.block_nearest, s.block_fallback
        ));
        j.push_str(&format!(
            "  \"latency_units\": {{ \"p50\": {p50}, \"p99\": {p99}, \"max\": {} }},\n",
            latencies.last().copied().unwrap_or(0)
        ));
        j.push_str(&format!("  \"tune_jobs\": {},\n", s.tune_jobs));
        j.push_str(&format!("  \"tuned\": {},\n", s.tuned));
        j.push_str(&format!("  \"swaps\": {},\n", s.swaps));
        j.push_str(&format!("  \"final_entries\": {},\n", snap.library.len()));
        j.push_str(&format!("  \"final_generation\": {}\n}}\n", snap.generation));
        std::fs::write(&out, j).map_err(|e| format!("{out}: {e}"))?;
        println!("report:   {out}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_fleet(args: &[String]) -> Result<ExitCode, String> {
    let sub = args.first().map(String::as_str);
    let rest = if args.is_empty() { args } else { &args[1..] };
    match sub {
        Some("init") => fleet_init(rest).map(|()| ExitCode::SUCCESS),
        Some("run") => fleet_run(rest),
        Some("work") => fleet_work(rest),
        Some("status") => fleet_status(rest).map(|()| ExitCode::SUCCESS),
        Some("merge") => fleet_merge(rest).map(|()| ExitCode::SUCCESS),
        _ => Err(format!("fleet needs a subcommand: init|run|work|status|merge\n{USAGE}")),
    }
}

fn open_fleet(args: &[String]) -> Result<FleetDir, String> {
    let dir = PathBuf::from(required(args, "--dir")?);
    FleetDir::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))
}

fn fleet_worker_config(args: &[String], worker: &str) -> Result<WorkerConfig, String> {
    let mut cfg = WorkerConfig::new(worker);
    if let Some(s) = flag_value(args, "--step-limit")? {
        cfg.step_limit = Some(s.parse().map_err(|_| format!("bad step limit {s:?}"))?);
    }
    if let Some(s) = flag_value(args, "--kill-after")? {
        cfg.kill_after = Some(s.parse().map_err(|_| format!("bad kill-after {s:?}"))?);
    }
    Ok(cfg)
}

fn fleet_init(args: &[String]) -> Result<(), String> {
    let fleet = open_fleet(args)?;
    let targets = parse_targets(flag_value(args, "--targets")?)?;
    let target_names: Vec<String> = targets.iter().map(|t| t.name.to_string()).collect();
    let strategy = match flag_value(args, "--strategy")? {
        None => Strategy::Heuristic,
        Some(s) => Strategy::parse(&s).ok_or_else(|| format!("bad strategy {s:?}"))?,
    };
    let seed: u64 = match flag_value(args, "--seed")? {
        None => 0,
        Some(s) => s.parse().map_err(|_| format!("bad seed {s:?}"))?,
    };
    let suite = perfdojo_kernels::tune_suite();
    let kernels: Vec<KernelInstance> = match flag_value(args, "--kernels")? {
        None => suite,
        Some(spec) => {
            let wanted: Vec<&str> = spec.split(',').map(str::trim).collect();
            let picked: Vec<KernelInstance> =
                suite.into_iter().filter(|k| wanted.contains(&k.label.as_str())).collect();
            for w in &wanted {
                if !picked.iter().any(|k| k.label == *w) {
                    return Err(format!("unknown kernel {w:?}"));
                }
            }
            picked
        }
    };
    let jobs = FleetJob::grid(&kernels, &target_names, strategy, seed)?;
    let queued = fleet.init(&jobs).map_err(|e| format!("fleet init: {e}"))?;
    println!(
        "fleet init {}: {} jobs in manifest, {} queued ({} already live or done)",
        fleet.root().display(),
        jobs.len(),
        queued,
        jobs.len() - queued
    );
    Ok(())
}

fn fleet_run(args: &[String]) -> Result<ExitCode, String> {
    let fleet = open_fleet(args)?;
    let workers: usize = match flag_value(args, "--workers")? {
        None => 2,
        Some(s) => s.parse().map_err(|_| format!("bad worker count {s:?}"))?,
    };
    let cfg = fleet_worker_config(args, "")?;
    let plan = match flag_value(args, "--fault-seed")? {
        None => FaultPlan::none(),
        Some(s) => {
            let seed: u64 = s.parse().map_err(|_| format!("bad fault seed {s:?}"))?;
            let ids: Vec<String> = (0..workers).map(|i| format!("w{i}")).collect();
            FaultPlan::seeded(seed, &ids)
        }
    };
    let report = run_fleet(&fleet, workers, &cfg, &plan)?;
    for (i, w) in report.workers.iter().enumerate() {
        println!(
            "  w{i}: {:?} — {} jobs done, {} steps, {} reclaimed, {} requeued lost, \
             {} torn parts discarded",
            w.exit,
            w.jobs_done.len(),
            w.steps,
            w.reclaimed,
            w.requeued_lost,
            w.discarded_torn
        );
    }
    let s = fleet.status();
    println!(
        "fleet run {}: {}/{} jobs done ({} queued, {} claimed, {} lost)",
        fleet.root().display(),
        s.done,
        s.total,
        s.queued,
        s.claimed,
        s.lost
    );
    if report.drained {
        Ok(ExitCode::SUCCESS)
    } else {
        println!("fleet not drained; rerun the identical command to continue");
        Ok(ExitCode::from(EXIT_PAUSED))
    }
}

fn fleet_work(args: &[String]) -> Result<ExitCode, String> {
    let fleet = open_fleet(args)?;
    let worker = required(args, "--worker")?;
    let cfg = fleet_worker_config(args, &worker)?;
    let report = run_worker(&fleet, &cfg, &FaultPlan::none())?;
    println!(
        "worker {}: {:?} — {} jobs done, {} steps, {} reclaimed",
        worker,
        report.exit,
        report.jobs_done.len(),
        report.steps,
        report.reclaimed
    );
    match report.exit {
        WorkerExit::Drained => Ok(ExitCode::SUCCESS),
        WorkerExit::Paused | WorkerExit::Killed => Ok(ExitCode::from(EXIT_PAUSED)),
    }
}

fn fleet_status(args: &[String]) -> Result<(), String> {
    let fleet = open_fleet(args)?;
    let s = fleet.status();
    println!("fleet:   {}", fleet.root().display());
    println!("jobs:    {} total", s.total);
    println!("queued:  {}", s.queued);
    println!("claimed: {}", s.claimed);
    println!("done:    {}", s.done);
    println!("lost:    {}", s.lost);
    for id in fleet.claimed_ids() {
        println!("  claimed: {id}");
    }
    Ok(())
}

fn fleet_merge(args: &[String]) -> Result<(), String> {
    let fleet = open_fleet(args)?;
    let out = PathBuf::from(required(args, "--out")?);
    let m = fleet.merge();
    if !m.unfinished.is_empty() {
        for id in &m.unfinished {
            eprintln!("warning: unfinished job {id}");
        }
    }
    m.library.save(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "fleet merge {}: {} parts joined ({} evaluations), {} unfinished; {} entries -> {}",
        fleet.root().display(),
        m.merged_jobs,
        m.evaluations,
        m.unfinished.len(),
        m.library.len(),
        out.display()
    );
    Ok(())
}

fn parse_graphs(spec: Option<String>) -> Result<Vec<perfdojo_graph::KernelGraph>, String> {
    match spec {
        None => Ok(perfdojo_graph::suite::suite()),
        Some(spec) => spec
            .split(',')
            .map(|n| {
                let n = n.trim();
                perfdojo_graph::suite::by_name(n).ok_or_else(|| format!("unknown graph {n:?}"))
            })
            .collect(),
    }
}

fn cmd_graph_build(args: &[String]) -> Result<(), String> {
    let out = PathBuf::from(required(args, "--out")?);
    let target_name = flag_value(args, "--target")?.unwrap_or_else(|| "x86".to_string());
    let target =
        target_by_name(&target_name).ok_or_else(|| format!("unknown target {target_name:?}"))?;
    let graphs = parse_graphs(flag_value(args, "--graphs")?)?;
    let strategy = match flag_value(args, "--strategy")? {
        None => Strategy::Heuristic,
        Some(s) => Strategy::parse(&s).ok_or_else(|| format!("bad strategy {s:?}"))?,
    };
    let seed: u64 = match flag_value(args, "--seed")? {
        None => 0,
        Some(s) => s.parse().map_err(|_| format!("bad seed {s:?}"))?,
    };
    let mut lib = match Library::load(&out) {
        Ok((l, _)) => l,
        Err(_) => Library::new(),
    };
    let (report, outcomes) =
        perfdojo_graph::build_graphs_into(&mut lib, &graphs, &target, strategy, seed);
    for o in outcomes.iter().filter(|o| o.error.is_some()) {
        eprintln!("warning: {}: {}", o.graph, o.error.as_ref().unwrap());
    }
    for o in &outcomes {
        let status = match &o.record {
            Some(r) => format!(
                "block cost {:.3e} s (naive {:.3e} s, {:.2}x), {} steps",
                r.cost,
                r.naive_cost,
                r.naive_cost / r.cost,
                r.steps.len()
            ),
            None => "no improving block schedule".to_string(),
        };
        println!("  {}: {status}", o.graph);
    }
    lib.save(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "graph-build {}: {} graphs; +{} inserted, {} improved, {} kept; {} entries total",
        out.display(),
        outcomes.len(),
        report.inserted,
        report.improved,
        report.kept_existing,
        lib.len()
    );
    Ok(())
}

fn cmd_graph_query(args: &[String]) -> Result<(), String> {
    let (lib, _) = load_library(args)?;
    let target_name = required(args, "--target")?;
    let target =
        target_by_name(&target_name).ok_or_else(|| format!("unknown target {target_name:?}"))?;
    let name = required(args, "--graph")?;
    let g = perfdojo_graph::suite::by_name(&name)
        .ok_or_else(|| format!("unknown graph {name:?}"))?;
    let query = perfdojo_graph::block_query(&g, &target).map_err(|e| e.to_string())?;
    let sig = query.sig(&target);

    println!("graph:       {name} ({} nodes, {} edges)", g.nodes().len(), g.edges().len());
    println!("target:      {}", target.name);
    println!("subgraph:    {:016x}", sig.structure);
    match lib.lookup_cached(&sig, &query.program, &target) {
        Some(r) => {
            println!("dispatch:    block hit ({})", r.disposition);
            println!("steps:       {}", r.steps.len());
            println!(
                "cost:        {:.3e} s (composed naive {:.3e} s, speedup {:.2}x)",
                r.cost,
                r.naive_cost,
                r.speedup()
            );
        }
        None => {
            println!("dispatch:    block miss — per-node fallback");
            let b = perfdojo_graph::per_node_baseline(&g, &target, &lib);
            for (node, cost, naive) in &b.node_costs {
                println!("  {node}: {cost:.3e} s (naive {naive:.3e} s)");
            }
            println!("  edges: {:.3e} s materialization", b.edge_costs.iter().sum::<f64>());
            println!(
                "cost:        {:.3e} s total ({:.3e} s all-naive)",
                b.total, b.naive_total
            );
        }
    }
    Ok(())
}

fn cmd_graph_check(args: &[String]) -> Result<(), String> {
    let seed: u64 = match flag_value(args, "--seed")? {
        None => 0,
        Some(s) => s.parse().map_err(|_| format!("bad seed {s:?}"))?,
    };
    let count: u64 = match flag_value(args, "--count")? {
        None => 12,
        Some(s) => s.parse().map_err(|_| format!("bad count {s:?}"))?,
    };
    for s in seed..seed + count {
        let g = perfdojo_graph::random_graph(s);
        let report = perfdojo_graph::check_graph(&g, s)
            .map_err(|e| format!("seed {s} ({}): differential mismatch: {e}", g.name))?;
        println!(
            "seed {s}: {} ({} nodes, {} edges) ok — {} outputs, {} buffers checked",
            g.name,
            g.nodes().len(),
            g.edges().len(),
            report.checked_outputs,
            report.checked_buffers
        );
    }
    println!("graph-check: {count} random graphs passed the differential oracle");
    Ok(())
}

fn cmd_gc(args: &[String]) -> Result<(), String> {
    let (mut lib, path) = load_library(args)?;
    let removed = lib.gc();
    lib.save(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("gc {}: {removed} removed, {} entries remain", path.display(), lib.len());
    Ok(())
}
