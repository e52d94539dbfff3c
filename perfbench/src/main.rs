//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. Logs go
//! to standard error. Exits 2 on a bad command line.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match perfdojo_perfbench::RunConfig::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            let names: Vec<&str> = perfdojo_perfbench::Workload::ALL
                .iter()
                .map(|w| w.name())
                .collect();
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    let outcome = perfdojo_perfbench::run(&cfg);
    for p in outcome.tally.problems.iter().take(20) {
        eprintln!("failed op: {p}");
    }
    if !outcome.digest.is_empty() {
        eprintln!("determinism digest {}", outcome.digest);
    }
    println!("{}", outcome.to_json());
}
