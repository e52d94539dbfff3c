//! Differential fuzzer CLI.
//!
//! Generates random programs, drives random transformation walks over them,
//! differentially checks every step (interpreter vs. reference, lowered ISA
//! vs. interpreter), shrinks any failure and prints a reproducer.
//!
//! The report is **fully deterministic** for a fixed seed and flag set (no
//! timestamps, no machine state): `ci.sh` runs the same invocation twice and
//! requires byte-identical output.
//!
//! ```text
//! fuzz --seed 0xC0FFEE --iters 200
//! fuzz --seed 7 --iters 50 --steps 10 --lib snitch --no-codegen
//! fuzz --seed 1 --iters 20 --sabotage truncate-split   # must find bugs
//! fuzz --seed 1 --iters 20 --write-corpus tests/corpus # save reproducers
//! ```
//!
//! Options parse with `perfdojo_util::args`: an unknown or repeated
//! option, a bare word or an option without its value is a usage error
//! (exit code 2) that runs nothing.

use perfdojo_fuzz::shrink::{shrink_case, Case};
use perfdojo_fuzz::walk::{library_by_name, walk, CheckConfig, Sabotage};
use perfdojo_fuzz::{gen_program, reproducer_text, GenConfig};
use perfdojo_util::args::Args;
use perfdojo_util::rng::{splitmix64, Rng};
use std::process::ExitCode;

struct Opts {
    seed: u64,
    iters: usize,
    steps: usize,
    lib: String,
    max_dims: usize,
    max_trip: usize,
    check_codegen: bool,
    sabotage: Option<Sabotage>,
    shrink_budget: u32,
    write_corpus: Option<String>,
}

const USAGE: &str = "\
usage: fuzz [options]   (each option at most once)
  --seed N|0xHEX     base seed (default 0)
  --iters N          programs to generate (default 100)
  --steps N          max transformation steps per walk (default 8)
  --lib NAME         transform library: cpu|gpu|snitch (default cpu)
  --max-dims N       max iteration dims per program (default 3)
  --max-trip N       max extent per dim (default 6)
  --no-codegen       skip the lowered-ISA differential
  --sabotage NAME    inject a deliberate transform bug: truncate-split
  --shrink-budget N  max shrink probes per finding (default 400)
  --write-corpus DIR write shrunk reproducers as DIR/fuzz-*.repro
";

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_opts(argv: &[String]) -> Result<Opts, String> {
    let a = Args::new(
        argv,
        &[
            "--seed",
            "--iters",
            "--steps",
            "--lib",
            "--max-dims",
            "--max-trip",
            "--sabotage",
            "--shrink-budget",
            "--write-corpus",
        ],
        &["--no-codegen"],
    )?;
    Ok(Opts {
        seed: a.parse_with("--seed", parse_u64)?.unwrap_or(0),
        iters: a.parse("--iters")?.unwrap_or(100),
        steps: a.parse("--steps")?.unwrap_or(8),
        lib: a.get("--lib").unwrap_or("cpu").to_string(),
        max_dims: a.parse("--max-dims")?.unwrap_or(3),
        max_trip: a.parse("--max-trip")?.unwrap_or(6),
        check_codegen: !a.has("--no-codegen"),
        sabotage: a.parse_with("--sabotage", Sabotage::parse)?,
        shrink_budget: a.parse("--shrink-budget")?.unwrap_or(400),
        write_corpus: a.get("--write-corpus").map(str::to_string),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let o = match parse_opts(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fuzz: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(lib) = library_by_name(&o.lib) else {
        eprintln!("fuzz: unknown --lib '{}' (cpu|gpu|snitch)", o.lib);
        return ExitCode::from(2);
    };
    let gen_cfg = GenConfig { max_dims: o.max_dims, max_trip: o.max_trip, ..GenConfig::default() };

    println!(
        "perfdojo-fuzz seed=0x{:X} iters={} steps={} lib={} codegen={} sabotage={}",
        o.seed,
        o.iters,
        o.steps,
        o.lib,
        if o.check_codegen { "on" } else { "off" },
        o.sabotage.map(Sabotage::name).unwrap_or("off"),
    );

    let mut findings = 0usize;
    let mut steps_applied = 0usize;
    for iter in 0..o.iters {
        // Per-iteration seed independent of iteration order.
        let mut mix = o.seed ^ (iter as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let iter_seed = splitmix64(&mut mix);
        let mut rng = Rng::seed_from_u64(iter_seed);
        let name = format!("fz{iter}");
        let program = gen_program(&mut rng, &gen_cfg, &name);
        let cfg = CheckConfig {
            input_seed: iter_seed ^ 0xD1FF,
            check_codegen: o.check_codegen,
            sabotage: o.sabotage,
        };
        let out = walk(&program, &lib, o.steps, &mut rng, &cfg);
        steps_applied += out.applied;
        let domain: Vec<String> = program
            .scope_paths()
            .iter()
            .filter(|p| p.len() == 1)
            .filter_map(|p| program.node(p))
            .filter_map(|n| match n {
                perfdojo_ir::Node::Scope(s) => s.size.as_const().map(|t| t.to_string()),
                _ => None,
            })
            .collect();
        let status = match &out.finding {
            None => format!("applied {}/{} clean", out.applied, out.actions.len()),
            Some(f) => format!("FINDING {f}"),
        };
        println!(
            "iter {iter}: {name} ops={} roots={} {status}",
            program.op_count(),
            domain.join("+"),
        );
        let Some(finding) = out.finding else { continue };
        findings += 1;

        let case = Case { program, actions: out.actions };
        let (min, min_finding, probes) =
            shrink_case(case, finding, &cfg, o.shrink_budget);
        let note = format!(
            "shrunk reproducer (seed 0x{:X}, iter {iter}, {probes} probes)\nfinding: {min_finding}",
            o.seed
        );
        let text = reproducer_text(&min.program, &min.actions, &note);
        println!("  minimized to {} IR lines, {} actions:", perfdojo_ir::text::print_program(&min.program).lines().count(), min.actions.len());
        for line in text.lines() {
            println!("  | {line}");
        }
        if let Some(dir) = &o.write_corpus {
            let path = format!("{dir}/fuzz-{:x}-{iter}.repro", o.seed);
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("fuzz: cannot write {path}: {e}");
            } else {
                println!("  wrote {path}");
            }
        }
    }

    println!("programs {} steps-applied {steps_applied} findings {findings}", o.iters);
    if findings == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
