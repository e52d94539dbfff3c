//! `figures`: regenerate the paper's tables and figures.
//!
//! ```text
//! figures                 # run everything
//! figures --exp fig7      # one experiment
//! figures --list          # list experiment ids
//! PERFDOJO_FULL=1 figures # paper-scale budgets (1000 evals, long RL)
//! ```
//!
//! Arguments parse with `perfdojo_util::args`: anything but one `--list`
//! or one `--exp <id>` (an unknown or repeated flag, a bare word, `--exp`
//! without its id, or both flags at once) is a usage error, exit code 2.
//! An experiment that cannot run reports `error: …` in place of its table;
//! the run goes on with the rest and then exits 1, naming every failure.

use perfdojo_util::args::Args;

const USAGE: &str = "usage: figures [--list | --exp <id>]";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::new(&argv, &["--exp"], &["--list"]).and_then(|a| {
        if a.has("--list") && a.has("--exp") {
            Err("--list and --exp exclude each other".to_string())
        } else {
            Ok(a)
        }
    });
    let args = args.unwrap_or_else(|e| {
        eprintln!("figures: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let experiments = perfdojo_bench::experiments::all_experiments();
    if args.has("--list") {
        for (id, _) in &experiments {
            println!("{id}");
        }
        return;
    }
    let filter = args.get("--exp");
    let scale = if perfdojo_bench::full_scale() { "paper-scale (PERFDOJO_FULL=1)" } else { "quick" };
    println!("# PerfDojo experiment harness — {scale} budgets\n");
    let mut ran = 0;
    let mut failed = Vec::new();
    for (id, run) in experiments {
        if filter.is_some_and(|f| f != id) {
            continue;
        }
        println!("--- {id} ---");
        let start = std::time::Instant::now();
        let report = run();
        println!("{report}");
        println!("[{id} completed in {:.1?}]\n", start.elapsed());
        if report.starts_with("error: ") {
            failed.push(id);
        }
        ran += 1;
    }
    if ran == 0 {
        eprintln!("unknown experiment id; try --list");
        std::process::exit(2);
    }
    if !failed.is_empty() {
        eprintln!("figures: {} of {ran} experiments failed: {}", failed.len(), failed.join(", "));
        std::process::exit(1);
    }
}
