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
//! Each subcommand declares its flags and parses argv once with
//! `perfdojo_util::args` before it reads or writes anything: a flag it
//! does not take, a bare word, a repeated flag or a flag without its value
//! is an error that names the token. `build` and `graph-build` merge into
//! an existing `--out` file when one is present, so libraries grow
//! incrementally across runs; an `--out` that exists but does not load is
//! an error and is left as it is.

use perfdojo_core::Target;
use perfdojo_kernels::KernelInstance;
use perfdojo_library::{
    percentile, run_fleet, run_worker, target_by_name, BuildCheckpoint, BuildProgress, FaultPlan,
    FleetDir, FleetJob, FormatError, Library, LibraryBuilder, ServeConfig, ServeQuery, Server,
    Strategy, TuneProgress, WorkerExit,
};
use perfdojo_util::args::Args;
use perfdojo_util::rng::Rng;
use perfdojo_util::zipf::Zipf;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
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
usage (each flag at most once; every flag but --paper-shapes takes a value):
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
                      --zipf-s sets the skew exponent, default 1.1;
                      --batch must be at least 1; tune-misses drain between
                      rounds and hot-swap --lib atomically; with
                      --checkpoint-dir the drain is crash-safe and
                      --step-limit pauses it cleanly with exit code 4 —
                      rerun the identical command to resume)
  perfdojo-lib fleet init   --dir <fleet-dir> [--kernels a,b] [--targets x86,gh200]
                     [--strategy heuristic|anneal[:N[:K]]|perfllm[:N]] [--seed N]
                     (write the kernels x targets job grid as the jobs.list
                      manifest; safe to rerun on a live fleet)
  perfdojo-lib fleet run    --dir <fleet-dir> [--workers N] [--step-limit N]
                     [--kill-after N]
                     (run N in-process workers until every job is done;
                      --step-limit runs each worker at most N tuning steps
                      and pauses one with a job left, exit code 4 — rerun
                      to continue; --kill-after simulates a kill -9 of
                      worker w0 at its ceil(N/8)-th checkpoint slice
                      boundary, leaving its job for the survivors to resume)
  perfdojo-lib fleet work   --dir <fleet-dir> --worker <id> [--step-limit N]
                     [--kill-after N]
                     (one worker process: own each job through an OS file
                      lock, tune under the per-job checkpoint, emit
                      hash-checked parts; a dead worker's lock, even after
                      kill -9, dies with it and the next idle worker
                      resumes the job — launch any number of these against
                      the same dir)
  perfdojo-lib fleet status --dir <fleet-dir>
  perfdojo-lib fleet merge  --dir <fleet-dir> --out <file>
                     (deterministic keep-best join of every valid part;
                      byte-identical output regardless of worker count,
                      arrival order, kills, or duplicated work; records
                      tuned under another machine model are rejected)
  perfdojo-lib graph-build --out <file> [--target <name>]
                     [--graphs attention,ffn,transformer,cnn_pipe,mlp_block]
                     [--strategy heuristic|anneal[:N[:K]]|perfllm[:N]] [--seed N]
                     (tune whole pipelines as blocks: inter-kernel fusion
                      and edge-layout planning, then intra-block schedule
                      search; records key on the structural subgraph
                      fingerprint so graph-query answers a block in one lookup)
  perfdojo-lib graph-query --lib <file> --target <name> --graph <name>
                     (dispatch a whole pipeline: subgraph block hit, or
                      per-node tiered fallback on a block miss)
  perfdojo-lib graph-check [--seed N] [--count K]
                     (random-graph differential smoke: per-node executor
                      vs composed interpreter reference at pinned seeds)
";

/// Load the library at `path`, warning about the corrupt entries skipped.
fn load(path: &Path) -> Result<Library, FormatError> {
    let (lib, stats) = Library::load(path)?;
    if stats.corrupt_entries > 0 {
        eprintln!("warning: {} corrupt entries skipped", stats.corrupt_entries);
    }
    Ok(lib)
}

fn load_library(a: &Args) -> Result<(Library, PathBuf), String> {
    let path = PathBuf::from(a.required("--lib")?);
    let lib = load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((lib, path))
}

/// The library `build` and `graph-build` merge into and save over: the one
/// at `out`, or an empty one when `out` does not exist yet. Any other load
/// error stops the command, so a file that did not load is never replaced.
fn load_out(out: &Path) -> Result<Library, String> {
    match load(out) {
        Err(FormatError::Io(e)) if e.kind() == ErrorKind::NotFound => Ok(Library::new()),
        loaded => loaded.map_err(|e| format!("{}: {e}; not overwriting it", out.display())),
    }
}

/// `--targets`, a comma-separated list (default `x86`).
fn targets(a: &Args) -> Result<Vec<Target>, String> {
    let spec = a.get("--targets").unwrap_or("x86");
    spec.split(',')
        .map(|n| target_by_name(n.trim()).ok_or_else(|| format!("unknown target {n:?}")))
        .collect()
}

/// The target `--target` names, or `default` when the flag is absent;
/// without a default the flag is required.
fn target(a: &Args, default: Option<&str>) -> Result<Target, String> {
    let name = match default {
        Some(d) => a.get("--target").unwrap_or(d),
        None => a.required("--target")?,
    };
    target_by_name(name).ok_or_else(|| format!("unknown target {name:?}"))
}

/// `--strategy` (default heuristic).
fn strategy(a: &Args) -> Result<Strategy, String> {
    Ok(a.parse_with("--strategy", Strategy::parse)?.unwrap_or(Strategy::Heuristic))
}

/// `--seed` (default 0).
fn seed(a: &Args) -> Result<u64, String> {
    Ok(a.parse("--seed")?.unwrap_or(0))
}

/// The `--kernels` of `suite`, by label (all of `suite` when absent).
fn kernels(a: &Args, suite: Vec<KernelInstance>) -> Result<Vec<KernelInstance>, String> {
    let Some(spec) = a.get("--kernels") else { return Ok(suite) };
    let wanted: Vec<&str> = spec.split(',').map(str::trim).collect();
    if let Some(w) = wanted.iter().find(|w| !suite.iter().any(|k| k.label == **w)) {
        return Err(format!("unknown kernel {w:?}"));
    }
    Ok(suite.into_iter().filter(|k| wanted.contains(&k.label.as_str())).collect())
}

/// `--checkpoint-dir` and the `--step-limit` a checkpointed run pauses
/// at, which needs the directory. The caller opens (and so creates) the
/// directory only once the run starts.
fn checkpoint(a: &Args) -> Result<Option<(&str, Option<u64>)>, String> {
    let step_limit = a.parse("--step-limit")?;
    match a.get("--checkpoint-dir") {
        None if step_limit.is_some() => Err("--step-limit requires --checkpoint-dir".to_string()),
        dir => Ok(dir.map(|d| (d, step_limit))),
    }
}

fn open_checkpoint(dir: &str) -> Result<BuildCheckpoint, String> {
    BuildCheckpoint::open(Path::new(dir)).map_err(|e| format!("{dir}: {e}"))
}

fn cmd_build(argv: &[String]) -> Result<ExitCode, String> {
    let a = Args::new(
        argv,
        &[
            "--out",
            "--kernels",
            "--targets",
            "--strategy",
            "--seed",
            "--checkpoint-dir",
            "--step-limit",
        ],
        &["--paper-shapes"],
    )?;
    let out = PathBuf::from(a.required("--out")?);
    let targets = targets(&a)?;
    let strategy = strategy(&a)?;
    let seed = seed(&a)?;
    let suite = if a.has("--paper-shapes") {
        perfdojo_kernels::paper_suite()
    } else {
        perfdojo_kernels::tune_suite()
    };
    let kernels = kernels(&a, suite)?;
    let ckpt = checkpoint(&a)?;

    let mut lib = load_out(&out)?;
    let builder = LibraryBuilder::new(strategy, seed);
    let (progress, report, outcomes) = match ckpt {
        None => {
            let (report, outcomes) = builder.build_into(&mut lib, &kernels, &targets);
            (BuildProgress::Finished, report, outcomes)
        }
        Some((dir, step_limit)) => builder.build_into_checkpointed(
            &mut lib,
            &kernels,
            &targets,
            &open_checkpoint(dir)?,
            step_limit,
        )?,
    };

    let evals: u64 = outcomes.iter().map(|o| o.evaluations).sum();
    for o in outcomes.iter().filter(|o| o.error.is_some()) {
        eprintln!("warning: {} on {}: {}", o.label, o.target, o.error.as_ref().unwrap());
    }
    if progress == BuildProgress::Paused {
        println!(
            "paused {}: {} jobs finished this run, {} evaluations; resume with the same \
             --checkpoint-dir",
            ckpt.map_or("?", |(dir, _)| dir),
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

fn cmd_query(argv: &[String]) -> Result<(), String> {
    let a = Args::new(argv, &["--lib", "--target", "--kernel", "--shape"], &[])?;
    let target = target(&a, None)?;
    let label = a.required("--kernel")?;
    let dims = |s: &str| s.split('x').map(|d| d.parse().ok()).collect::<Option<Vec<usize>>>();
    let query = match a.parse_with("--shape", dims)? {
        None => {
            perfdojo_kernels::by_label(label)
                .ok_or_else(|| format!("unknown kernel {label:?}"))?
                .verify_program
        }
        Some(dims) => perfdojo_kernels::by_label_with_shape(label, &dims)
            .ok_or_else(|| format!("no kernel {label:?} at shape {dims:?}"))?,
    };
    let (lib, _) = load_library(&a)?;

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

fn cmd_stats(argv: &[String]) -> Result<(), String> {
    let (lib, path) = load_library(&Args::new(argv, &["--lib"], &[])?)?;
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

fn cmd_serve(argv: &[String]) -> Result<ExitCode, String> {
    let a = Args::new(
        argv,
        &[
            "--lib",
            "--target",
            "--rounds",
            "--requests",
            "--seed",
            "--zipf-s",
            "--batch",
            "--queue",
            "--strategy",
            "--checkpoint-dir",
            "--step-limit",
            "--report",
        ],
        &[],
    )?;
    let target = target(&a, None)?;
    let rounds: usize = a.parse("--rounds")?.unwrap_or(3);
    let requests: usize = a.parse("--requests")?.unwrap_or(64);
    let batch: usize = a.parse("--batch")?.unwrap_or(32);
    if batch == 0 {
        return Err("--batch must be at least 1".to_string());
    }
    let queue: usize = a.parse("--queue")?.unwrap_or(256);
    let seed = seed(&a)?;
    let zipf_s: f64 = a.parse("--zipf-s")?.unwrap_or(1.1);
    if !(zipf_s.is_finite() && zipf_s >= 0.0) {
        return Err(format!("--zipf-s must be finite and at least 0, got {zipf_s}"));
    }
    let strategy = strategy(&a)?;
    let ckpt = checkpoint(&a)?;
    let report_path = a.get("--report");

    let (lib, path) = load_library(&a)?;
    let config = ServeConfig { queue_capacity: queue, batch_size: batch, strategy, seed };
    let server = Server::new(lib, target, config).with_disk(path.clone());
    let ckpt = match ckpt {
        None => None,
        Some((dir, step_limit)) => Some((open_checkpoint(dir)?, step_limit)),
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
            Some((c, step_limit)) => server.drain_tunes_checkpointed(c, *step_limit)?,
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
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    println!(
        "served:   {} ({} submitted, {} shed, {} from the reply memo)",
        s.served, s.submitted, s.rejected, s.memo_hits
    );
    println!(
        "tiers:    {} exact, {} parameterized, {} nearest, {} heuristic, {} naive",
        s.exact, s.parameterized, s.nearest, s.heuristic, s.naive
    );
    println!(
        "latency:  p50 {p50}, p99 {p99}, max {} (deterministic dispatch-work units)",
        latencies.last().copied().unwrap_or(0)
    );
    println!(
        "tuning:   {} jobs, {} tuned, {} known failures not re-run, {} hot swaps; \
         library now {} entries (gen {})",
        s.tune_jobs,
        s.tuned,
        s.tune_skipped,
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
        j.push_str(&format!("  \"memo_hits\": {},\n", s.memo_hits));
        j.push_str(&format!(
            "  \"tiers\": {{ \"exact\": {}, \"parameterized\": {}, \"nearest\": {}, \
             \"heuristic\": {}, \"naive\": {} }},\n",
            s.exact, s.parameterized, s.nearest, s.heuristic, s.naive
        ));
        j.push_str(&format!(
            "  \"latency_units\": {{ \"p50\": {p50}, \"p99\": {p99}, \"max\": {} }},\n",
            latencies.last().copied().unwrap_or(0)
        ));
        j.push_str(&format!("  \"tune_jobs\": {},\n", s.tune_jobs));
        j.push_str(&format!("  \"tuned\": {},\n", s.tuned));
        j.push_str(&format!("  \"tune_skipped\": {},\n", s.tune_skipped));
        j.push_str(&format!("  \"swaps\": {},\n", s.swaps));
        j.push_str(&format!("  \"final_entries\": {},\n", snap.library.len()));
        j.push_str(&format!("  \"final_generation\": {}\n}}\n", snap.generation));
        std::fs::write(out, j).map_err(|e| format!("{out}: {e}"))?;
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

fn open_fleet(a: &Args) -> Result<FleetDir, String> {
    Ok(FleetDir::open(Path::new(a.required("--dir")?)))
}

/// The plan `--kill-after N` makes: a simulated `kill -9` of `killed` at its
/// `ceil(N / 8)`-th slice boundary.
fn kill_plan(a: &Args, killed: &str) -> Result<FaultPlan, String> {
    Ok(match a.parse("--kill-after")? {
        None => FaultPlan::none(),
        Some(n) => FaultPlan::none().kill_after_steps(killed, n),
    })
}

fn fleet_init(argv: &[String]) -> Result<(), String> {
    let a = Args::new(argv, &["--dir", "--kernels", "--targets", "--strategy", "--seed"], &[])?;
    let targets = targets(&a)?;
    let target_names: Vec<String> = targets.iter().map(|t| t.name.to_string()).collect();
    let strategy = strategy(&a)?;
    let seed = seed(&a)?;
    let kernels = kernels(&a, perfdojo_kernels::tune_suite())?;
    let fleet = open_fleet(&a)?;
    let jobs = FleetJob::grid(&kernels, &target_names, strategy, seed)?;
    let held = fleet.init(&jobs).map_err(|e| format!("fleet init: {e}"))?;
    println!(
        "fleet init {}: {} jobs in manifest ({} already done)",
        fleet.root().display(),
        jobs.len(),
        fleet.status()?.done
    );
    for id in held {
        println!("  kept {id}: no longer listed, but a worker holds its lock; re-run init later");
    }
    Ok(())
}

fn fleet_run(argv: &[String]) -> Result<ExitCode, String> {
    let a = Args::new(argv, &["--dir", "--workers", "--step-limit", "--kill-after"], &[])?;
    let workers: usize = a.parse("--workers")?.unwrap_or(2);
    let plan = kill_plan(&a, "w0")?;
    let fleet = open_fleet(&a)?;
    let report = run_fleet(&fleet, workers, a.parse("--step-limit")?, &plan)?;
    for (i, w) in report.workers.iter().enumerate() {
        println!(
            "  w{i}: {:?} — {} jobs done, {} steps, {} torn parts discarded",
            w.exit,
            w.jobs_done.len(),
            w.steps,
            w.discarded_torn
        );
    }
    let s = fleet.status()?;
    println!(
        "fleet run {}: {}/{} jobs done ({} pending, {} running)",
        fleet.root().display(),
        s.done,
        s.total,
        s.pending,
        s.running
    );
    if report.drained {
        Ok(ExitCode::SUCCESS)
    } else {
        println!("fleet not drained; rerun the identical command to continue");
        Ok(ExitCode::from(EXIT_PAUSED))
    }
}

fn fleet_work(argv: &[String]) -> Result<ExitCode, String> {
    let a = Args::new(argv, &["--dir", "--worker", "--step-limit", "--kill-after"], &[])?;
    let worker = a.required("--worker")?;
    let plan = kill_plan(&a, worker)?;
    let fleet = open_fleet(&a)?;
    let report = run_worker(&fleet, worker, a.parse("--step-limit")?, &plan)?;
    println!(
        "worker {}: {:?} — {} jobs done, {} steps",
        worker,
        report.exit,
        report.jobs_done.len(),
        report.steps
    );
    match report.exit {
        WorkerExit::Drained => Ok(ExitCode::SUCCESS),
        WorkerExit::Paused | WorkerExit::Killed => Ok(ExitCode::from(EXIT_PAUSED)),
    }
}

fn fleet_status(argv: &[String]) -> Result<(), String> {
    let fleet = open_fleet(&Args::new(argv, &["--dir"], &[])?)?;
    let s = fleet.status()?;
    println!("fleet:   {}", fleet.root().display());
    println!("jobs:    {} total", s.total);
    println!("pending: {}", s.pending);
    println!("running: {}", s.running);
    println!("done:    {}", s.done);
    Ok(())
}

fn fleet_merge(argv: &[String]) -> Result<(), String> {
    let a = Args::new(argv, &["--dir", "--out"], &[])?;
    let out = PathBuf::from(a.required("--out")?);
    let fleet = open_fleet(&a)?;
    let m = fleet.merge()?;
    if !m.unfinished.is_empty() {
        for id in &m.unfinished {
            eprintln!("warning: unfinished job {id}");
        }
    }
    m.library.save(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "fleet merge {}: {} parts joined ({} evaluations), {} unfinished, \
         {} stale records rejected; {} entries -> {}",
        fleet.root().display(),
        m.merged_jobs,
        m.evaluations,
        m.unfinished.len(),
        m.rejected_stale,
        m.library.len(),
        out.display()
    );
    Ok(())
}

/// `--graphs`, a comma-separated list (default: the whole suite).
fn graphs(a: &Args) -> Result<Vec<perfdojo_graph::KernelGraph>, String> {
    match a.get("--graphs") {
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

fn cmd_graph_build(argv: &[String]) -> Result<(), String> {
    let a = Args::new(argv, &["--out", "--target", "--graphs", "--strategy", "--seed"], &[])?;
    let out = PathBuf::from(a.required("--out")?);
    let target = target(&a, Some("x86"))?;
    let graphs = graphs(&a)?;
    let strategy = strategy(&a)?;
    let seed = seed(&a)?;
    let mut lib = load_out(&out)?;
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

fn cmd_graph_query(argv: &[String]) -> Result<(), String> {
    let a = Args::new(argv, &["--lib", "--target", "--graph"], &[])?;
    let target = target(&a, None)?;
    let name = a.required("--graph")?;
    let g =
        perfdojo_graph::suite::by_name(name).ok_or_else(|| format!("unknown graph {name:?}"))?;
    let (lib, _) = load_library(&a)?;
    let composed = perfdojo_graph::compose(&g).map_err(|e| e.to_string())?;
    let sig = perfdojo_graph::fingerprint::subgraph_sig_composed(&g, &composed, &target.name);

    println!("graph:       {name} ({} nodes, {} edges)", g.nodes().len(), g.edges().len());
    println!("target:      {}", target.name);
    println!("subgraph:    {:016x}", sig.structure);
    match lib.lookup_cached(&sig, &composed.program, &target) {
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

fn cmd_graph_check(argv: &[String]) -> Result<(), String> {
    let a = Args::new(argv, &["--seed", "--count"], &[])?;
    let seed = seed(&a)?;
    let count: u64 = a.parse("--count")?.unwrap_or(12);
    let end = seed
        .checked_add(count)
        .ok_or_else(|| format!("--seed {seed} plus --count {count} overflows u64"))?;
    for s in seed..end {
        let g = perfdojo_graph::random_graph(s);
        let report = perfdojo_graph::check_graph(&g, s)
            .map_err(|e| format!("seed {s} ({}): differential mismatch: {e}", g.name))?;
        println!(
            "seed {s}: {} ({} nodes, {} edges) ok — {} outputs checked",
            g.name,
            g.nodes().len(),
            g.edges().len(),
            report.checked_outputs
        );
    }
    println!("graph-check: {count} random graphs passed the differential oracle");
    Ok(())
}

fn cmd_gc(argv: &[String]) -> Result<(), String> {
    let (mut lib, path) = load_library(&Args::new(argv, &["--lib"], &[])?)?;
    let removed = lib.gc();
    lib.save(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("gc {}: {removed} removed, {} entries remain", path.display(), lib.len());
    Ok(())
}
