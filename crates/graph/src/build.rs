//! Block-level tuning: turn whole graphs into library records.
//!
//! [`tune_graph`] composes the graph, runs the inter-kernel planner
//! ([`crate::actions::plan`]) to pick fusion/layout decisions, then hands
//! the planned program to the ordinary single-kernel tuner
//! ([`perfdojo_library::LibraryBuilder::tune_kernel`]) for intra-block
//! schedule search. The final record's steps are the plan's lowered steps
//! followed by the tuner's steps — one replayable sequence from the
//! composed canonical form — keyed by the structural subgraph signature
//! ([`crate::fingerprint::subgraph_sig_composed`]) so `Library::lookup`
//! and the serve daemon can answer a whole block in one query.

use crate::actions::{plan_from, GraphPlan};
use crate::compose::compose;
use crate::fingerprint::subgraph_sig_composed;
use crate::graph::KernelGraph;
use crate::inherit::inherit_schedules;
use perfdojo_core::Target;
use perfdojo_kernels::KernelInstance;
use perfdojo_library::{
    current_model_version, KernelSig, Library, LibraryBuilder, MergeReport, Provenance,
    ScheduleRecord, Strategy,
};
use perfdojo_transform::{replay, replay_sequence};
use perfdojo_util::par::par_map;

/// Result of tuning one graph as a block.
#[derive(Clone, Debug)]
pub struct GraphTuneOutcome {
    /// Graph name.
    pub graph: String,
    /// Subgraph signature the record is keyed under.
    pub sig: KernelSig,
    /// The block record, when plan+tune beat the composed naive cost.
    pub record: Option<ScheduleRecord>,
    /// Machine-model cost of the unplanned composed program.
    pub naive_cost: f64,
    /// Cost after inter-kernel planning alone.
    pub plan_cost: f64,
    /// Final cost (plan + intra-block tuning).
    pub cost: f64,
    /// Evaluations the intra-block tuner spent.
    pub evaluations: u64,
    /// Error text when composition or replay failed.
    pub error: Option<String>,
}

fn failed(graph: &str, sig: KernelSig, msg: String) -> GraphTuneOutcome {
    GraphTuneOutcome {
        graph: graph.to_string(),
        sig,
        record: None,
        naive_cost: f64::INFINITY,
        plan_cost: f64::INFINITY,
        cost: f64::INFINITY,
        evaluations: 0,
        error: Some(msg),
    }
}

/// Tune `g` as one block on `target` (see module docs). When `lib` is
/// given, the plan starts from the per-node schedules the library would
/// dispatch ([`inherit_schedules`]) — the block then costs at most what
/// per-node dispatch costs, minus the edge round trips.
pub fn tune_graph(
    g: &KernelGraph,
    target: &Target,
    strategy: Strategy,
    seed: u64,
    lib: Option<&Library>,
) -> GraphTuneOutcome {
    let composed = match compose(g) {
        Ok(c) => c,
        Err(e) => {
            return failed(&g.name, KernelSig::subgraph(0, Vec::new(), &target.name), e.to_string())
        }
    };
    let sig = subgraph_sig_composed(g, &composed, &target.name);
    let naive_cost = target
        .machine
        .evaluate(&composed.program)
        .map(|e| e.seconds)
        .unwrap_or(f64::INFINITY);

    // 1. per-node schedule inheritance, then inter-kernel decisions
    // (fusion, edge layout) on top
    let (start_steps, start_program) = match lib.map(|l| inherit_schedules(g, &composed, target, l))
    {
        Some(inh) if !inh.steps.is_empty() && inh.cost < naive_cost => (inh.steps, inh.program),
        _ => (Vec::new(), composed.program.clone()),
    };
    let p: GraphPlan = plan_from(&composed, target, start_steps, start_program);

    // 2. intra-block schedule search from the planned program
    let kernel = KernelInstance {
        label: format!("graph:{}", g.name),
        shape: format!("{}n{}e", g.nodes().len(), g.edges().len()),
        description: "graph block".to_string(),
        program: p.program.clone(),
        verify_program: p.program.clone(),
    };
    let outcome = LibraryBuilder::new(strategy, seed).tune_kernel(&kernel, target);

    // 3. stitch: plan steps ++ tuner steps, replayable from the composed
    // form. Search strategies record their raw step sequence, which the
    // Dojo applied *leniently* (inapplicable steps skipped) — so keep only
    // the subsequence that actually applied. The skip decisions depend
    // only on the current program and are deterministic, so the filtered
    // sequence reproduces the searched program and its cost exactly.
    let mut steps = p.steps.clone();
    let mut cost = p.cost;
    if let Some(rec) = &outcome.record {
        if rec.cost < cost {
            steps.extend(replay_sequence(&p.program, &rec.steps).applied(&rec.steps));
            cost = rec.cost;
        }
    }
    let record = if !steps.is_empty() && cost < naive_cost {
        match replay(&composed.program, &steps) {
            Ok(_) => Some(ScheduleRecord {
                sig: sig.clone(),
                label: format!("graph:{}", g.name),
                steps,
                cost,
                naive_cost,
                model_version: current_model_version(),
                provenance: Provenance {
                    strategy: strategy.name().to_string(),
                    seed,
                    budget: strategy.budget(),
                },
            }),
            Err(e) => {
                return failed(&g.name, sig, format!("block steps do not replay: {e:?}"));
            }
        }
    } else {
        None
    };
    GraphTuneOutcome {
        graph: g.name.clone(),
        sig,
        record,
        naive_cost,
        plan_cost: p.cost,
        cost,
        evaluations: outcome.evaluations,
        error: outcome.error,
    }
}

/// Tune every graph concurrently and merge the block records into `lib`.
pub fn build_graphs_into(
    lib: &mut Library,
    graphs: &[KernelGraph],
    target: &Target,
    strategy: Strategy,
    seed: u64,
) -> (MergeReport, Vec<GraphTuneOutcome>) {
    let lib_ref: &Library = lib;
    let outcomes: Vec<GraphTuneOutcome> =
        par_map(graphs.to_vec(), |g| tune_graph(&g, target, strategy, seed, Some(lib_ref)));
    let records: Vec<ScheduleRecord> =
        outcomes.iter().filter_map(|o| o.record.clone()).collect();
    let report = lib.merge(records);
    (report, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_block_lands_in_the_library_and_answers_a_lookup() {
        let mut g = KernelGraph::new("chain");
        let a = g.add_node("a", "relu", &[8, 16]).unwrap();
        let b = g.add_node("b", "relu", &[8, 16]).unwrap();
        g.connect(a, "z", b, "x").unwrap();
        let target = perfdojo_core::Target::x86();
        let mut lib = Library::new();
        let (report, outcomes) =
            build_graphs_into(&mut lib, &[g.clone()], &target, Strategy::Heuristic, 1);
        assert_eq!(outcomes.len(), 1);
        let o = &outcomes[0];
        assert!(o.error.is_none(), "{:?}", o.error);
        assert!(o.record.is_some(), "relu->relu must fuse into a block record");
        assert!(o.cost < o.naive_cost);
        assert!(report.inserted >= 1);
        // the block answers an exact cached (tier 1/2) lookup through dispatch
        let composed = compose(&g).unwrap();
        let hit = lib
            .lookup_cached(&o.sig, &composed.program, &target)
            .expect("block record must answer a cached subgraph lookup");
        assert!(hit.cost <= o.naive_cost);
    }
}
