//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md's per-experiment index).
//!
//! Each `exp_*` function computes the data for one table/figure and
//! returns it as printable rows; the `figures` binary drives them, one
//! registry entry each ([`experiments::all_experiments`]). Wall-clock
//! timing of the system lives in the separate `perfbench` crate. Budgets
//! default to quick settings; set `PERFDOJO_FULL=1` for paper-scale
//! evaluation counts (1000 tuning evaluations, longer RL training).

pub mod experiments;
pub mod report;

pub use experiments::*;
pub use report::{geomean, Table};

/// Evaluation budget (auto-tuning evaluations per kernel): 1000 in the
/// paper, reduced by default so a full `figures` run stays snappy.
pub fn tuning_budget() -> u64 {
    if full_scale() {
        1000
    } else {
        150
    }
}

/// RL training episodes per kernel.
pub fn rl_episodes() -> usize {
    if full_scale() {
        24
    } else {
        6
    }
}

/// True when `PERFDOJO_FULL=1` requests paper-scale budgets.
pub fn full_scale() -> bool {
    std::env::var("PERFDOJO_FULL").is_ok_and(|v| v == "1")
}
