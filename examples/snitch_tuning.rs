//! Tuning for novel hardware (paper §4.1): optimize micro-kernels for the
//! Snitch RISC-V core with its SSR/FREP extensions using the naive, greedy
//! and heuristic passes — no assembly knowledge required.
//!
//! ```sh
//! cargo run --release --example snitch_tuning
//! ```

use perfdojo::machine::fraction_of_core_peak;
use perfdojo::prelude::*;

fn main() {
    let target = Target::snitch_core();
    println!("target: {} (SSR + FREP extensions, 4-cycle FPU pipeline)\n", target.name);
    println!(
        "{:<10} {:>8} {:>8} {:>10}  note",
        "kernel", "naive", "greedy", "heuristic"
    );
    let cfg = &target.machine.config;
    for k in perfdojo::kernels::micro_suite() {
        let flops = perfdojo::codegen::lower(&k.program).unwrap().useful_flops();
        let frac = |rt: f64| fraction_of_core_peak(cfg, flops, rt * cfg.clock_ghz * 1e9);
        let mut d = Dojo::for_target(k.program.clone(), &target).unwrap();
        let naive = perfdojo::search::naive_pass(&mut d);
        let mut d = Dojo::for_target(k.program.clone(), &target).unwrap();
        let greedy = perfdojo::search::greedy_pass(&mut d);
        let mut d = Dojo::for_target(k.program.clone(), &target).unwrap();
        let heuristic = perfdojo::search::heuristic_pass(&mut d);
        let note = if (greedy - heuristic).abs() / greedy < 0.05 {
            ""
        } else {
            "latency hidden by tile-4 reduction privatization"
        };
        println!(
            "{:<10} {:>7.0}% {:>7.0}% {:>9.0}%  {note}",
            k.label,
            frac(naive) * 100.0,
            frac(greedy) * 100.0,
            frac(heuristic) * 100.0,
        );
    }
    println!("\n(fractions of the single-core 1 op/cycle peak, as in paper Fig. 7)");

    // show the discovered dot-product schedule: SSR streams + FREP + the
    // 4-wide partial accumulators that hide the FPU latency
    let mut d = Dojo::for_target(perfdojo::kernels::micro::dot(256), &target).unwrap();
    perfdojo::search::heuristic_pass(&mut d);
    println!("\n--- discovered dot-product schedule ---\n{}", d.current());
}
