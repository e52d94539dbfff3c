//! Graph-tier experiment: block-level tuning vs per-node library dispatch.
//!
//! For each pipeline in the graph suite's transformer trio (attention,
//! relu-FFN, and the mixed MLP block), this prices two ways of serving the
//! whole pipeline:
//!
//! 1. **per-node dispatch** — every node answered individually from a
//!    heuristically tuned library, every interior edge materialized
//!    ([`perfdojo_graph::per_node_baseline`]); and
//! 2. **block dispatch** — the composed program planned (fusion + edge
//!    layout) and intra-block tuned into one subgraph-keyed record
//!    ([`perfdojo_graph::tune_graph`]).
//!
//! Everything is machine-model cost under fixed seeds, so the emitted
//! `BENCH_graph.json` is byte-identical across runs (ci.sh gate 9 `cmp`s
//! two of them). The headline claim the JSON carries: block cost ≤ the
//! per-node baseline on every pipeline — fusing away edge round trips
//! never loses to dispatching node by node.

use crate::report::Table;
use perfdojo_core::Target;
use perfdojo_graph::{per_node_baseline, suite, tune_graph, BaselineReport, GraphTuneOutcome, KernelGraph};
use perfdojo_library::{Library, LibraryBuilder, Strategy};

const SEED: u64 = 11;
const STRATEGY: Strategy = Strategy::Anneal { budget: 400 };

fn graphs() -> Result<Vec<KernelGraph>, String> {
    Ok(vec![
        suite::attention(8, 8).map_err(|e| format!("attention: {e}"))?,
        suite::ffn(8, 8, 16).map_err(|e| format!("ffn: {e}"))?,
        suite::mlp_block().map_err(|e| format!("mlp_block: {e}"))?,
    ])
}

/// Tune every distinct node kernel of `graphs` into a fresh library — the
/// library the per-node baseline dispatches against.
fn per_node_library(graphs: &[KernelGraph], target: &Target) -> Library {
    let mut kernels: Vec<perfdojo_kernels::KernelInstance> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for g in graphs {
        for n in g.nodes() {
            if seen.insert((&n.label, &n.dims)) {
                kernels.push(perfdojo_kernels::KernelInstance::at(
                    &n.label,
                    &n.dims,
                    n.program.clone(),
                ));
            }
        }
    }
    let mut lib = Library::new();
    LibraryBuilder::new(STRATEGY, SEED).build_into(&mut lib, &kernels, std::slice::from_ref(target));
    lib
}

struct GraphRow {
    name: String,
    nodes: usize,
    edges: usize,
    baseline: BaselineReport,
    outcome: GraphTuneOutcome,
}

fn run_graphs() -> Result<Vec<GraphRow>, String> {
    let target = Target::x86();
    let graphs = graphs()?;
    let lib = per_node_library(&graphs, &target);
    let mut rows = Vec::new();
    for g in &graphs {
        let baseline = per_node_baseline(g, &target, &lib);
        let outcome = tune_graph(g, &target, STRATEGY, SEED, Some(&lib));
        if let Some(e) = &outcome.error {
            return Err(format!("{}: {e}", g.name));
        }
        rows.push(GraphRow {
            name: g.name.clone(),
            nodes: g.nodes().len(),
            edges: g.edges().len(),
            baseline,
            outcome,
        });
    }
    Ok(rows)
}

fn emit_json(rows: &[GraphRow]) -> String {
    let mut j = String::from("{\n  \"experiment\": \"graph\",\n");
    j.push_str(&format!("  \"seed\": {SEED},\n"));
    j.push_str(&format!("  \"strategy\": \"{}\",\n", STRATEGY.name()));
    j.push_str("  \"graphs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let edge_cost: f64 = r.baseline.edge_costs.iter().sum();
        j.push_str("    {\n");
        j.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        j.push_str(&format!("      \"nodes\": {},\n", r.nodes));
        j.push_str(&format!("      \"edges\": {},\n", r.edges));
        j.push_str(&format!("      \"per_node_cost\": {:e},\n", r.baseline.total));
        j.push_str(&format!("      \"per_node_naive\": {:e},\n", r.baseline.naive_total));
        j.push_str(&format!("      \"edge_cost\": {:e},\n", edge_cost));
        j.push_str(&format!("      \"block_plan_cost\": {:e},\n", r.outcome.plan_cost));
        j.push_str(&format!("      \"block_cost\": {:e},\n", r.outcome.cost));
        j.push_str(&format!("      \"block_naive\": {:e},\n", r.outcome.naive_cost));
        j.push_str(&format!(
            "      \"block_steps\": {},\n",
            r.outcome.record.as_ref().map_or(0, |rec| rec.steps.len())
        ));
        j.push_str(&format!("      \"block_recorded\": {},\n", r.outcome.record.is_some()));
        j.push_str(&format!(
            "      \"block_vs_per_node\": {:.4}\n",
            r.outcome.cost / r.baseline.total
        ));
        j.push_str(&format!("    }}{}\n", if i + 1 < rows.len() { "," } else { "" }));
    }
    j.push_str("  ]\n}\n");
    j
}

fn try_run_graph(json_path: Option<&std::path::Path>) -> Result<String, String> {
    let rows = run_graphs()?;
    let mut t = Table::new(
        "Graph tier: block-level tuning vs per-node library dispatch (x86)",
        &["graph", "nodes", "edges", "per-node cost", "block cost", "block/per-node", "steps"],
    );
    for r in &rows {
        t.row(vec![
            r.name.clone(),
            r.nodes.to_string(),
            r.edges.to_string(),
            format!("{:.3e}", r.baseline.total),
            format!("{:.3e}", r.outcome.cost),
            format!("{:.3}", r.outcome.cost / r.baseline.total),
            r.outcome.record.as_ref().map_or(0, |rec| rec.steps.len()).to_string(),
        ]);
    }
    t.note(
        "per-node cost = Σ library-dispatched node costs + edge materialization \
         (copy kernels on the same machine model); block cost = composed program \
         after fusion/layout planning + intra-block tuning",
    );
    let fused_wins = rows.iter().filter(|r| r.outcome.cost <= r.baseline.total).count();
    t.note(format!("block dispatch ≤ per-node dispatch on {fused_wins}/{} pipelines", rows.len()));
    let json = emit_json(&rows);
    if let Some(path) = json_path {
        std::fs::write(path, &json)
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        t.note(format!("wrote {}", path.display()));
    }
    Ok(t.render())
}

/// Graph-tier experiment: emits the byte-reproducible `BENCH_graph.json`
/// in the working directory alongside the printed table.
pub fn exp_graph() -> String {
    match try_run_graph(Some(std::path::Path::new("BENCH_graph.json"))) {
        Ok(report) => report,
        Err(e) => format!("error: {e}\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_dispatch_beats_per_node_dispatch_and_stays_deterministic() {
        let a = run_graphs().expect("graph experiment");
        assert_eq!(a.len(), 3);
        for r in &a {
            assert!(r.outcome.record.is_some(), "{}: no block record", r.name);
            assert!(
                r.outcome.cost <= r.baseline.total,
                "{}: block {:e} worse than per-node {:e}",
                r.name,
                r.outcome.cost,
                r.baseline.total,
            );
            assert!(r.outcome.cost < r.outcome.naive_cost, "{}: block never improved", r.name);
        }
        // the JSON is a pure function of the seed
        let b = run_graphs().expect("graph experiment repeat");
        assert_eq!(emit_json(&a), emit_json(&b), "graph JSON not reproducible");
    }
}
