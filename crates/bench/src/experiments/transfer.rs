//! Cross-shape transfer experiment: parameterized schedules + warm-started
//! search. An anneal-tuned library over a small training grid (three
//! operator families, two shapes each) is fit per family
//! ([`fit_for`]); held-out shapes are then (a) served through the
//! parameterized dispatch tier and (b) tuned cold vs transfer-warmed at
//! equal budget. Emits `BENCH_transfer.json`, which must be
//! byte-reproducible: every number comes from the deterministic machine
//! model under fixed seeds — no wall-clock anywhere.

use crate::report::{fmt_x, geomean, Table};
use perfdojo_core::{Dojo, Target};
use perfdojo_kernels::KernelInstance;
use perfdojo_library::{fit_for, Disposition, KernelSig, Library, LibraryBuilder, Strategy};
use perfdojo_search::{anneal_resume, simulated_annealing, AnnealState, HeuristicSpace};
use std::path::Path;

const SEED: u64 = 29;
/// Budget per training-grid tune (the library the transfer fit reads).
const TRAIN_BUDGET: u64 = 64;
/// Equal budget for the cold-vs-warmed comparison on held-out shapes.
const EVAL_BUDGET: u64 = 48;

/// Training grid: each family tuned at two shapes so the transfer fit has
/// a real cross-shape support set (one shape per family degenerates to
/// nearest-shape fallback).
fn train_grid() -> Vec<(&'static str, Vec<usize>)> {
    vec![
        ("layernorm", vec![64, 64]),
        ("layernorm", vec![32, 128]),
        ("softmax", vec![16, 32]),
        ("softmax", vec![64, 64]),
        ("rmsnorm", vec![32, 64]),
        ("rmsnorm", vec![64, 32]),
    ]
}

/// Held-out query shapes: same operators, shapes the library never tuned.
fn held_out() -> Vec<(&'static str, Vec<usize>)> {
    vec![
        ("layernorm", vec![48, 96]),
        ("softmax", vec![24, 48]),
        ("rmsnorm", vec![96, 48]),
        ("layernorm", vec![96, 32]),
        ("softmax", vec![48, 96]),
        ("rmsnorm", vec![48, 96]),
        ("softmax", vec![32, 96]),
        ("layernorm", vec![24, 192]),
    ]
}

/// Instantiate `label` at a caller-chosen shape (the serving pattern:
/// same operator, new shape).
fn instance(label: &str, dims: &[usize]) -> Result<KernelInstance, String> {
    let program = perfdojo_kernels::by_label_with_shape(label, dims).ok_or_else(|| {
        format!(
            "no kernel {label:?} at shape {dims:?}; valid tune-suite labels: {}",
            crate::experiments::tune_suite_labels()
        )
    })?;
    let mut k = KernelInstance::at(label, dims, program);
    k.label = format!("{label} {}", k.shape);
    Ok(k)
}

/// One held-out shape's measurements.
struct ShapeRow {
    label: String,
    shape: String,
    tag: &'static str,
    support: usize,
    residual: f64,
    served_cost: f64,
    naive_cost: f64,
    verified: bool,
    warm_steps: usize,
    cold_best: f64,
    warm_best: f64,
    exact_best: f64,
}

impl ShapeRow {
    fn warm_wins(&self) -> bool {
        self.warm_best < self.cold_best
    }
    fn warm_not_worse(&self) -> bool {
        self.warm_best <= self.cold_best
    }
    /// Served-schedule cost over a full anneal tune at this exact shape
    /// (>= 1 means the tune is better; close to 1 means the materialized
    /// schedule nearly matches shape-exact tuning).
    fn gap_vs_exact(&self) -> f64 {
        self.served_cost / self.exact_best
    }
}

fn emit_json(rows: &[ShapeRow], fitted: usize, param_hits: u64) -> String {
    let mut j = String::from("{\n  \"experiment\": \"transfer\",\n");
    j.push_str("  \"target\": \"x86\",\n");
    j.push_str(&format!("  \"seed\": {SEED},\n"));
    j.push_str(&format!("  \"train_budget\": {TRAIN_BUDGET},\n"));
    j.push_str(&format!("  \"eval_budget\": {EVAL_BUDGET},\n"));
    j.push_str(&format!("  \"train_kernels\": {},\n", train_grid().len()));
    j.push_str(&format!("  \"index_schedules\": {fitted},\n"));
    j.push_str("  \"held_out\": [\n");
    for (i, r) in rows.iter().enumerate() {
        j.push_str("    {\n");
        j.push_str(&format!("      \"kernel\": \"{}\",\n", r.label));
        j.push_str(&format!("      \"shape\": \"{}\",\n", r.shape));
        j.push_str(&format!("      \"disposition\": \"{}\",\n", r.tag));
        j.push_str(&format!("      \"fit_support\": {},\n", r.support));
        j.push_str(&format!("      \"fit_residual\": {:e},\n", r.residual));
        j.push_str(&format!("      \"served_cost\": {:e},\n", r.served_cost));
        j.push_str(&format!("      \"naive_cost\": {:e},\n", r.naive_cost));
        j.push_str(&format!("      \"served_speedup\": {:e},\n", r.naive_cost / r.served_cost));
        j.push_str(&format!("      \"verified\": {},\n", r.verified));
        j.push_str(&format!("      \"warm_steps\": {},\n", r.warm_steps));
        j.push_str(&format!("      \"cold_best\": {:e},\n", r.cold_best));
        j.push_str(&format!("      \"warm_best\": {:e},\n", r.warm_best));
        j.push_str(&format!("      \"exact_tune_best\": {:e},\n", r.exact_best));
        j.push_str(&format!("      \"gap_vs_exact_tune\": {:e},\n", r.gap_vs_exact()));
        j.push_str(&format!("      \"warm_beats_cold\": {},\n", r.warm_wins()));
        j.push_str(&format!("      \"warm_not_worse\": {}\n", r.warm_not_worse()));
        j.push_str(if i + 1 < rows.len() { "    },\n" } else { "    }\n" });
    }
    j.push_str("  ],\n");
    j.push_str(&format!("  \"parameterized_hits\": {param_hits},\n"));
    j.push_str(&format!(
        "  \"parameterized_hit_rate\": {:.4},\n",
        param_hits as f64 / rows.len() as f64
    ));
    j.push_str(&format!(
        "  \"gap_vs_exact_geomean\": {:e},\n",
        geomean(&rows.iter().map(|r| r.gap_vs_exact()).collect::<Vec<_>>())
    ));
    j.push_str(&format!(
        "  \"warm_wins\": {},\n",
        rows.iter().filter(|r| r.warm_wins()).count()
    ));
    j.push_str(&format!(
        "  \"warm_never_worse\": {}\n",
        rows.iter().all(|r| r.warm_not_worse())
    ));
    j.push_str("}\n");
    j
}

fn try_run_transfer(json_path: Option<&Path>) -> Result<String, String> {
    let target = Target::x86();

    // Train: anneal-tune the grid into the library whose family fits the
    // dispatch tier and the warm starts both read.
    let train: Vec<KernelInstance> = train_grid()
        .iter()
        .map(|(label, dims)| instance(label, dims))
        .collect::<Result<_, _>>()?;
    let mut lib = Library::new();
    let builder = LibraryBuilder::new(Strategy::Anneal { budget: TRAIN_BUDGET }, SEED);
    builder.build_into(&mut lib, &train, std::slice::from_ref(&target));
    // each family that fits counts once, through its donor record
    let fitted = lib
        .records()
        .filter(|r| fit_for(&lib, &r.sig).is_some_and(|ps| ps.donor == r.sig.key()))
        .count();

    let mut rows = Vec::new();
    for (label, dims) in &held_out() {
        let query = instance(label, dims)?;
        let sig = KernelSig::of(&query.program, &target.name);

        // (a) Serve the held-out shape through the dispatch tiers.
        let r = lib.lookup(&query.program, &target);
        let (support, residual) = match &r.disposition {
            Disposition::Parameterized { support, residual, .. } => (*support, *residual),
            _ => (0, 0.0),
        };

        // (b) Equal-budget tuning: cold anneal vs transfer-warmed anneal.
        let warm = fit_for(&lib, &sig).map_or_else(Vec::new, |ps| ps.materialize(&sig.shape));
        let mut dojo = Dojo::for_target(query.program.clone(), &target)
            .map_err(|e| format!("dojo for {}: {e}", query.label))?;
        let cold = simulated_annealing(&mut dojo, &HeuristicSpace, EVAL_BUDGET, SEED);
        let mut dojo = Dojo::for_target(query.program.clone(), &target)
            .map_err(|e| format!("dojo for {}: {e}", query.label))?;
        let mut st = AnnealState::start_with_warm(&mut dojo, &HeuristicSpace, SEED, &warm);
        anneal_resume(&mut dojo, &HeuristicSpace, EVAL_BUDGET, &mut st, None, None);
        let warmed = st.into_result();

        // (c) Shape-exact tune at training budget: the gap reference.
        let mut dojo = Dojo::for_target(query.program.clone(), &target)
            .map_err(|e| format!("dojo for {}: {e}", query.label))?;
        let exact = simulated_annealing(&mut dojo, &HeuristicSpace, TRAIN_BUDGET, SEED);

        rows.push(ShapeRow {
            label: label.to_string(),
            shape: query.shape.clone(),
            tag: r.disposition.tag(),
            support,
            residual,
            served_cost: r.cost,
            naive_cost: r.naive_cost,
            verified: r.verified == Some(true),
            warm_steps: warm.len(),
            cold_best: cold.best_runtime,
            warm_best: warmed.best_runtime,
            exact_best: exact.best_runtime,
        });
    }
    // Counted from the per-row dispositions, not the process-wide
    // `dispatch_stats()` counters: concurrent serving elsewhere in the
    // process must not leak into a byte-reproducible artifact.
    let param_hits = rows.iter().filter(|r| r.tag == "parameterized").count() as u64;

    let mut t = Table::new(
        "Cross-shape transfer: parameterized dispatch + warm-started search, x86",
        &["kernel", "shape", "disposition", "speedup", "gap vs exact", "cold best", "warm best", "warm wins"],
    );
    for r in &rows {
        t.row(vec![
            r.label.clone(),
            r.shape.clone(),
            r.tag.into(),
            fmt_x(r.naive_cost / r.served_cost),
            format!("{:.3}", r.gap_vs_exact()),
            format!("{:.3e}", r.cold_best),
            format!("{:.3e}", r.warm_best),
            if r.warm_wins() { "yes".into() } else { "no".into() },
        ]);
    }
    t.note(format!(
        "train grid: {} kernels (3 families x 2 shapes) anneal-tuned at budget {TRAIN_BUDGET}, \
         seed {SEED}; {} parameterized schedules distilled",
        train.len(),
        fitted,
    ));
    t.note(format!(
        "parameterized-tier hit rate on held-out shapes: {param_hits}/{}; \
         geomean served-cost gap vs shape-exact anneal tune: {:.3}",
        rows.len(),
        geomean(&rows.iter().map(|r| r.gap_vs_exact()).collect::<Vec<_>>()),
    ));
    t.note(format!(
        "transfer-warmed anneal beats cold at equal budget ({EVAL_BUDGET} evals) on {}/{} \
         held-out shapes, never worse: {}",
        rows.iter().filter(|r| r.warm_wins()).count(),
        rows.len(),
        rows.iter().all(|r| r.warm_not_worse()),
    ));
    let json = emit_json(&rows, fitted, param_hits);
    if let Some(path) = json_path {
        std::fs::write(path, &json)
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        t.note(format!("wrote {}", path.display()));
    }
    Ok(t.render())
}

fn run_transfer(json_path: Option<&Path>) -> String {
    match try_run_transfer(json_path) {
        Ok(report) => report,
        Err(e) => format!("error: {e}\n"),
    }
}

/// Transfer experiment: emits `BENCH_transfer.json` in the working
/// directory alongside the printed table.
pub fn exp_transfer() -> String {
    run_transfer(Some(Path::new("BENCH_transfer.json")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar: every held-out shape resolves through the
    /// parameterized tier verified, and transfer-warmed search beats
    /// tuned-from-scratch at equal budget on at least 3 of them.
    #[test]
    fn transfer_experiment_meets_acceptance() {
        let report = try_run_transfer(None).expect("experiment runs");
        assert!(report.contains("parameterized"), "{report}");
        assert!(!report.contains("error"), "{report}");
    }

    #[test]
    fn transfer_json_is_byte_reproducible_and_well_shaped() {
        let d = std::env::temp_dir().join(format!("pd_transfer_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let a_path = d.join("a.json");
        let b_path = d.join("b.json");
        try_run_transfer(Some(&a_path)).expect("first run");
        try_run_transfer(Some(&b_path)).expect("second run");
        let a = std::fs::read_to_string(&a_path).unwrap();
        let b = std::fs::read_to_string(&b_path).unwrap();
        let _ = std::fs::remove_dir_all(&d);
        assert_eq!(a, b, "BENCH_transfer.json must be byte-reproducible");
        assert!(a.contains("\"experiment\": \"transfer\""), "{a}");
        assert!(a.contains("\"parameterized_hit_rate\""), "{a}");
        assert!(a.contains("\"gap_vs_exact_geomean\""), "{a}");
        let wins: usize = a
            .lines()
            .find(|l| l.contains("\"warm_wins\""))
            .and_then(|l| l.trim().trim_start_matches("\"warm_wins\": ").trim_end_matches(',').parse().ok())
            .expect("warm_wins field parses");
        assert!(wins >= 3, "transfer-warmed must beat cold on >= 3 shapes:\n{a}");
        assert!(a.contains("\"warm_never_worse\": true"), "{a}");
        let hits: u64 = a
            .lines()
            .find(|l| l.contains("\"parameterized_hits\""))
            .and_then(|l| {
                l.trim().trim_start_matches("\"parameterized_hits\": ").trim_end_matches(',').parse().ok()
            })
            .expect("parameterized_hits field parses");
        assert!(hits >= 3, "parameterized tier must fire on held-out shapes:\n{a}");
    }
}
