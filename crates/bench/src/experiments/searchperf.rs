//! Search-engine performance experiment: the incremental evaluation
//! engine (prefix replay + fingerprint-keyed cost cache) vs the naive
//! engine on identical SA runs, plus the multi-chain parallel speedup.
//!
//! Correctness is asserted, not assumed: every row re-checks that the two
//! engines return bit-identical results before reporting any timing, and
//! that check (`identical_results`) lands in `BENCH_searchperf.json` so CI
//! can gate on it. Timing fields (`wall_s*`, `evals_per_sec*`,
//! `wall_speedup`, `speedup_target_met`) vary run to run; everything else
//! in the JSON is deterministic under fixed seeds.

use crate::report::{fmt_time, fmt_x, Table};
use perfdojo_core::{Dojo, Target};
use perfdojo_search::{anneal_chains, chain_seed, simulated_annealing, EdgesSpace, SearchResult};
use std::time::Instant;

/// Headline SA budget: the acceptance bar is a >=3x wall-clock speedup at
/// 2000 evaluations on at least one kernel.
const HEADLINE_BUDGET: u64 = 2000;
/// Budget for the non-headline rows (kept small so the experiment is
/// quick; the effect is visible at any budget).
const SIDE_BUDGET: u64 = 400;
/// Chains for the multi-chain row.
const CHAINS: usize = 4;
const SEED: u64 = 0x5EA7C4;

/// One kernel's naive-vs-incremental measurement.
struct EngineRow {
    kernel: String,
    budget: u64,
    evaluations: u64,
    best_runtime: f64,
    identical: bool,
    cache_hits: u64,
    cache_misses: u64,
    cache_hit_rate: f64,
    wall_naive: f64,
    wall_incremental: f64,
}

impl EngineRow {
    fn wall_speedup(&self) -> f64 {
        self.wall_naive / self.wall_incremental.max(1e-12)
    }
}

/// The parallelism the multi-chain row actually ran under: the same number
/// `perfdojo_util::par::par_map` spawns against, not an independent query
/// that could disagree with it.
fn cores() -> usize {
    perfdojo_util::par::cores()
}

/// Geometric mean of the per-kernel wall speedups — the cross-kernel
/// headline (a single kernel's outlier can no longer carry the number).
fn geomean_speedup(rows: &[EngineRow]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = rows.iter().map(|r| r.wall_speedup().max(1e-12).ln()).sum();
    (log_sum / rows.len() as f64).exp()
}

fn results_identical(a: &SearchResult, b: &SearchResult) -> bool {
    a.best_runtime.to_bits() == b.best_runtime.to_bits()
        && a.best_steps == b.best_steps
        && a.trace.len() == b.trace.len()
        && a.trace
            .iter()
            .zip(b.trace.iter())
            .all(|(ta, tb)| ta.0 == tb.0 && ta.1.to_bits() == tb.1.to_bits())
}

fn measure_kernel(kernel: &perfdojo_kernels::KernelInstance, budget: u64) -> EngineRow {
    let target = Target::x86();
    let mk = || Dojo::for_target(kernel.program.clone(), &target).expect("dojo");

    let mut naive = mk().with_naive_engine();
    let t0 = Instant::now();
    let r_naive = simulated_annealing(&mut naive, &EdgesSpace, budget, SEED);
    let wall_naive = t0.elapsed().as_secs_f64();

    let mut inc = mk();
    let t1 = Instant::now();
    let r_inc = simulated_annealing(&mut inc, &EdgesSpace, budget, SEED);
    let wall_incremental = t1.elapsed().as_secs_f64();

    let stats = inc.cache_stats();
    EngineRow {
        kernel: kernel.label.clone(),
        budget,
        evaluations: inc.evaluations(),
        best_runtime: r_inc.best_runtime,
        identical: results_identical(&r_naive, &r_inc)
            && naive.evaluations() == inc.evaluations(),
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        cache_hit_rate: stats.hit_rate(),
        wall_naive,
        wall_incremental,
    }
}

/// Multi-chain measurement: the same chains run one at a time vs fanned
/// out on the thread pool, with a seed-stability re-check.
struct MultiChainRow {
    kernel: String,
    chains: usize,
    budget_per_chain: u64,
    seed_stable: bool,
    matches_sequential_best: bool,
    wall_sequential: f64,
    wall_parallel: f64,
}

fn measure_multi_chain(kernel: &perfdojo_kernels::KernelInstance) -> MultiChainRow {
    let target = Target::x86();
    let budget_per_chain = HEADLINE_BUDGET / CHAINS as u64;
    let mk = || Dojo::for_target(kernel.program.clone(), &target).expect("dojo");
    let parallel = |d: &mut Dojo| {
        anneal_chains(d, &EdgesSpace, CHAINS, budget_per_chain, SEED, &[], &mut Vec::new(), None)
    };

    let t0 = Instant::now();
    let mut seq_best = f64::INFINITY;
    for c in 0..CHAINS {
        let mut d = mk();
        let r = simulated_annealing(&mut d, &EdgesSpace, budget_per_chain, chain_seed(SEED, c));
        seq_best = seq_best.min(r.best_runtime);
    }
    let wall_sequential = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut d = mk();
    let par = parallel(&mut d);
    let wall_parallel = t1.elapsed().as_secs_f64();

    let mut d2 = mk();
    let par2 = parallel(&mut d2);

    MultiChainRow {
        kernel: kernel.label.clone(),
        chains: CHAINS,
        budget_per_chain,
        seed_stable: results_identical(&par, &par2),
        matches_sequential_best: par.best_runtime.to_bits() == seq_best.to_bits(),
        wall_sequential,
        wall_parallel,
    }
}

fn emit_json(rows: &[EngineRow], mc: &MultiChainRow) -> String {
    let mut j = String::from("{\n  \"experiment\": \"searchperf\",\n");
    j.push_str(&format!("  \"headline_budget\": {HEADLINE_BUDGET},\n"));
    j.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        j.push_str("    {\n");
        j.push_str(&format!("      \"kernel\": \"{}\",\n", r.kernel));
        j.push_str(&format!("      \"budget\": {},\n", r.budget));
        j.push_str(&format!("      \"evaluations\": {},\n", r.evaluations));
        j.push_str(&format!("      \"best_runtime\": {:e},\n", r.best_runtime));
        j.push_str(&format!("      \"identical_results\": {},\n", r.identical));
        j.push_str(&format!("      \"cache_hits\": {},\n", r.cache_hits));
        j.push_str(&format!("      \"cache_misses\": {},\n", r.cache_misses));
        j.push_str(&format!("      \"cache_hit_rate\": {:.4},\n", r.cache_hit_rate));
        j.push_str(&format!("      \"cache_effective\": {},\n", r.cache_hits > 0));
        j.push_str(&format!("      \"wall_s_naive\": {:.6},\n", r.wall_naive));
        j.push_str(&format!("      \"wall_s_incremental\": {:.6},\n", r.wall_incremental));
        j.push_str(&format!(
            "      \"evals_per_sec_naive\": {:.1},\n",
            r.evaluations as f64 / r.wall_naive.max(1e-12)
        ));
        j.push_str(&format!(
            "      \"evals_per_sec_incremental\": {:.1},\n",
            r.evaluations as f64 / r.wall_incremental.max(1e-12)
        ));
        j.push_str(&format!("      \"wall_speedup\": {:.2}\n", r.wall_speedup()));
        j.push_str(if i + 1 < rows.len() { "    },\n" } else { "    }\n" });
    }
    j.push_str("  ],\n");
    j.push_str("  \"multi_chain\": {\n");
    j.push_str(&format!("    \"kernel\": \"{}\",\n", mc.kernel));
    j.push_str(&format!("    \"chains\": {},\n", mc.chains));
    j.push_str(&format!("    \"cores\": {},\n", cores()));
    j.push_str(&format!("    \"budget_per_chain\": {},\n", mc.budget_per_chain));
    j.push_str(&format!("    \"seed_stable\": {},\n", mc.seed_stable));
    j.push_str(&format!(
        "    \"matches_sequential_best\": {},\n",
        mc.matches_sequential_best
    ));
    j.push_str(&format!("    \"wall_s_sequential\": {:.6},\n", mc.wall_sequential));
    j.push_str(&format!("    \"wall_s_parallel\": {:.6},\n", mc.wall_parallel));
    j.push_str(&format!(
        "    \"wall_speedup\": {:.2}\n",
        mc.wall_sequential / mc.wall_parallel.max(1e-12)
    ));
    j.push_str("  },\n");
    j.push_str(&format!(
        "  \"all_identical\": {},\n",
        rows.iter().all(|r| r.identical)
    ));
    j.push_str(&format!(
        "  \"wall_speedup_geomean\": {:.2},\n",
        geomean_speedup(rows)
    ));
    j.push_str(&format!(
        "  \"speedup_target_met\": {}\n",
        rows.iter().any(|r| r.budget >= HEADLINE_BUDGET && r.wall_speedup() >= 3.0)
    ));
    j.push_str("}\n");
    j
}

fn run_searchperf(json_path: Option<&std::path::Path>) -> String {
    match try_run_searchperf(json_path) {
        Ok(report) => report,
        Err(e) => format!("error: {e}\n"),
    }
}

fn try_run_searchperf(json_path: Option<&std::path::Path>) -> Result<String, String> {
    let suite = perfdojo_kernels::tune_suite();
    let pick = |label: &str| {
        suite.iter().find(|k| k.label == label).ok_or_else(|| {
            format!(
                "no kernel {label:?} in tune suite; valid labels: {}",
                crate::experiments::tune_suite_labels()
            )
        })
    };
    let headline = pick("softmax")?;
    let rows = vec![
        measure_kernel(headline, HEADLINE_BUDGET),
        measure_kernel(pick("matmul")?, SIDE_BUDGET),
        measure_kernel(pick("layernorm 1")?, SIDE_BUDGET),
    ];
    let mc = measure_multi_chain(headline);

    let mut t = Table::new(
        "Search engine: incremental (prefix replay + cost cache) vs naive, SA/edges on x86",
        &["kernel", "budget", "identical", "hit rate", "naive wall", "incr wall", "speedup"],
    );
    for r in &rows {
        t.row(vec![
            r.kernel.clone(),
            r.budget.to_string(),
            if r.identical { "yes".into() } else { "NO".into() },
            format!("{:.0}%", r.cache_hit_rate * 100.0),
            fmt_time(r.wall_naive),
            fmt_time(r.wall_incremental),
            fmt_x(r.wall_speedup()),
        ]);
    }
    t.note(format!(
        "multi-chain ({} x {} evals, {}, {} cores): sequential {} vs parallel {} ({}); \
         seed-stable: {}, matches best sequential chain: {}",
        mc.chains,
        mc.budget_per_chain,
        mc.kernel,
        cores(),
        fmt_time(mc.wall_sequential),
        fmt_time(mc.wall_parallel),
        fmt_x(mc.wall_sequential / mc.wall_parallel.max(1e-12)),
        mc.seed_stable,
        mc.matches_sequential_best,
    ));
    t.note(format!(
        "geomean wall speedup across kernels: {}",
        fmt_x(geomean_speedup(&rows))
    ));
    let json = emit_json(&rows, &mc);
    if let Some(path) = json_path {
        std::fs::write(path, &json)
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        t.note(format!("wrote {}", path.display()));
    }
    Ok(t.render())
}

/// Search-performance experiment: emits `BENCH_searchperf.json` in the
/// working directory alongside the printed table.
pub fn exp_searchperf() -> String {
    run_searchperf(Some(std::path::Path::new("BENCH_searchperf.json")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn searchperf_rows_are_identical_and_cache_fires() {
        let suite = perfdojo_kernels::tune_suite();
        let k = suite.iter().find(|k| k.label == "softmax").unwrap();
        let row = measure_kernel(k, 120);
        assert!(row.identical, "engines diverged on {}", row.kernel);
        assert!(row.cache_hits > 0, "cache never fired: {} hits", row.cache_hits);
        // SA may overshoot the budget by the neighbor probe that crossed it
        assert!(row.evaluations >= 120, "{}", row.evaluations);
    }

    #[test]
    fn searchperf_json_shape() {
        let suite = perfdojo_kernels::tune_suite();
        let k = suite.iter().find(|k| k.label == "softmax").unwrap();
        let rows = vec![measure_kernel(k, 80)];
        let mc = MultiChainRow {
            kernel: "softmax".into(),
            chains: 2,
            budget_per_chain: 40,
            seed_stable: true,
            matches_sequential_best: true,
            wall_sequential: 0.5,
            wall_parallel: 0.3,
        };
        let j = emit_json(&rows, &mc);
        assert!(j.contains("\"identical_results\": true"), "{j}");
        assert!(j.contains("\"cache_effective\": true"), "{j}");
        assert!(j.contains("\"all_identical\": true"), "{j}");
        assert!(j.contains("\"wall_speedup_geomean\""), "{j}");
        assert!(j.contains("\"multi_chain\""), "{j}");
        assert!(j.contains("\"cores\""), "{j}");
    }
}
