//! Golden pass outputs: `tests/golden/passes.txt` holds, for every kernel
//! of the tune and paper suites on every target, the steps (in the
//! `transform::serial` text) and cost bits of the naive, greedy and
//! heuristic passes, then the runtimes of the scripted manual softmax
//! process, all written by an earlier build. The passes are deterministic
//! recipes over the Dojo's applicable actions, and libraries, dispatch
//! replies and figures are built from what they play; a change to how a
//! recipe finds its moves must play the same moves, and only text frozen
//! on disk shows that it does.
//!
//! A pass may change its moves only on purpose; the change then
//! regenerates the file with the ignored writer:
//! `cargo test -q --release -p perfdojo-search --test golden_passes -- --ignored`.

use perfdojo_core::{Dojo, Target};
use perfdojo_search::manual::manual_softmax_trajectory;
use perfdojo_search::{greedy_pass, heuristic_pass, naive_pass};
use perfdojo_transform::serial::push_steps;

const GOLDEN: &str = include_str!("golden/passes.txt");

type Pass = fn(&mut Dojo) -> f64;

const PASSES: [(&str, Pass); 3] =
    [("naive", naive_pass), ("greedy", greedy_pass), ("heuristic", heuristic_pass)];

/// Every pass on every suite kernel and target, then the manual process,
/// as one text: a `case` line per kernel and target, then per pass a
/// `<pass> <cost bits> <n>` line and its `n` step lines; per manual run a
/// line per move (index, runtime bits, move name), then the moves played.
fn render() -> String {
    let mut out = String::new();
    let suites = [("tune", perfdojo_kernels::tune_suite()), ("paper", perfdojo_kernels::paper_suite())];
    for (suite, kernels) in &suites {
        for target in Target::all() {
            for k in kernels {
                out.push_str(&format!("case {suite} {} {}\n", target.name, k.label));
                for (name, pass) in PASSES {
                    match Dojo::for_target(k.program.clone(), &target) {
                        Ok(mut d) => {
                            let cost = pass(&mut d);
                            let key = format!("{name} {:016x}", cost.to_bits());
                            push_steps(&mut out, &key, &d.history.steps);
                        }
                        Err(e) => out.push_str(&format!("{name} error {e}\n")),
                    }
                }
            }
        }
    }
    for (rows, cols) in [(4, 16), (64, 128), (512, 256)] {
        for target in [Target::x86(), Target::arm()] {
            out.push_str(&format!("manual softmax {rows}x{cols} {}\n", target.name));
            let p = perfdojo_kernels::softmax(rows, cols);
            let mut d = Dojo::for_target(p, &target).expect("softmax opens on a CPU target");
            for pt in manual_softmax_trajectory(&mut d) {
                out.push_str(&format!("{} {:016x} {}\n", pt.step, pt.runtime.to_bits(), pt.move_name));
            }
            push_steps(&mut out, "played", &d.history.steps);
        }
    }
    out
}

#[test]
fn passes_match_the_golden_file() {
    let fresh = render();
    let mut case = "";
    for (i, (want, got)) in GOLDEN.lines().zip(fresh.lines()).enumerate() {
        if want.starts_with("case ") || want.starts_with("manual ") {
            case = want;
        }
        assert_eq!(got, want, "line {} of the golden file, in {case:?}", i + 1);
    }
    assert_eq!(fresh.lines().count(), GOLDEN.lines().count(), "the golden file's length");
}

#[test]
#[ignore = "writes tests/golden/passes.txt; run only when a pass changes on purpose"]
fn write_golden_passes() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/passes.txt");
    std::fs::write(path, render()).expect("write the golden file");
}
