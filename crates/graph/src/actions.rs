//! Inter-kernel decisions as first-class actions.
//!
//! Two decisions exist per edge of a composed graph, and both *lower* to
//! ordinary [`perfdojo_transform::Action`]s on the composed program — so a
//! planned block schedule is just an action sequence, replayable by the
//! exact machinery that replays single-kernel schedules:
//!
//! - [`GraphAction::FuseEdge`] — fuse the consumer into the producer's
//!   schedule: repeatedly `join_scopes` the producer's last write region
//!   with the consumer's read region while they are adjacent compatible
//!   siblings, then `reuse_dims` every edge-buffer dimension that the
//!   fusion made collapsible (the paper's Fig. 5 pattern, lifted from one
//!   kernel's temporary to a cross-kernel edge tensor).
//! - [`GraphAction::SwapEdgeLayout`] — materialize the edge tensor
//!   col-major instead of row-major (`swap_dims` on its leading
//!   dimension). Legal precisely because composition demoted the edge
//!   tensor to a non-interface temporary.
//!
//! [`plan`] searches these greedily in deterministic edge order, pricing
//! every candidate on the target's machine model and re-checking numeric
//! equivalence against the composed reference before accepting — the
//! graph-level analogue of the single-kernel heuristic pass. The accepted
//! lowered steps prefix the block's schedule record.

use crate::compose::Composed;
use crate::oracle::check_transformed;
use perfdojo_core::Target;
use perfdojo_interp::VERIFY_WORK_LIMIT;
use perfdojo_ir::{validate, Path, Program};
use perfdojo_transform::{Action, BufDimLoc, Loc, Transform};

/// Fixed seed for plan-time differential checks (deterministic planning).
const PLAN_VERIFY_SEED: u64 = 0x9E37_79B9;

/// One inter-kernel decision on a composed graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphAction {
    /// Fuse the consumer of edge `edge` into its producer's schedule.
    FuseEdge {
        /// Edge index (graph edge order).
        edge: usize,
    },
    /// Materialize edge `edge`'s tensor col-major (leading-dim swap).
    SwapEdgeLayout {
        /// Edge index (graph edge order).
        edge: usize,
    },
}

impl std::fmt::Display for GraphAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphAction::FuseEdge { edge } => write!(f, "fuse-edge {edge}"),
            GraphAction::SwapEdgeLayout { edge } => write!(f, "swap-edge-layout {edge}"),
        }
    }
}

/// One considered decision and its pricing.
#[derive(Clone, Debug)]
pub struct PlanDecision {
    /// The decision considered.
    pub action: GraphAction,
    /// Whether it was accepted into the plan.
    pub accepted: bool,
    /// Composed cost before the decision.
    pub cost_before: f64,
    /// Composed cost of the lowered candidate (equals `cost_before` when
    /// the action did not lower to any applicable step).
    pub cost_after: f64,
}

/// A planned block: inter-kernel decisions lowered to replayable steps.
#[derive(Clone, Debug)]
pub struct GraphPlan {
    /// Every decision considered, in deterministic order.
    pub decisions: Vec<PlanDecision>,
    /// The accepted lowered steps (replayable from the composed program).
    pub steps: Vec<Action>,
    /// The composed program with the plan applied.
    pub program: Program,
    /// Machine-model cost of `program`.
    pub cost: f64,
    /// Machine-model cost of the unplanned composed program.
    pub naive_cost: f64,
}

fn eval(p: &Program, target: &Target) -> f64 {
    target.machine.evaluate(p).map(|e| e.seconds).unwrap_or(f64::INFINITY)
}

/// Lower `action` against the current program. Returns the applied steps
/// and the resulting program; an empty step list means "not applicable
/// here" (e.g. the fusion frontier is not adjacent, or the edge buffer was
/// already collapsed away).
pub fn lower(
    action: GraphAction,
    current: &Program,
    composed: &Composed,
) -> (Vec<Action>, Program) {
    match action {
        GraphAction::FuseEdge { edge } => match composed.edge_buffers.get(edge) {
            Some(buffer) => lower_fuse(current, buffer),
            None => (Vec::new(), current.clone()),
        },
        GraphAction::SwapEdgeLayout { edge } => match composed.edge_buffers.get(edge) {
            Some(buffer) => lower_swap(current, buffer),
            None => (Vec::new(), current.clone()),
        },
    }
}

fn lower_fuse(q: &Program, buffer: &str) -> (Vec<Action>, Program) {
    let mut cur = q.clone();
    let mut steps = Vec::new();
    let Some(arr) = cur.buffer(buffer).map(|b| b.array_names()[0].to_string()) else {
        return (steps, cur);
    };
    // Phase 1: join the producer's write region with the consumer's read
    // region while they are adjacent sibling scopes.
    loop {
        let ops = cur.ops();
        let writes: Vec<&Path> =
            ops.iter().filter(|(_, op, _)| op.out.array == arr).map(|(p, _, _)| p).collect();
        let reads: Vec<&Path> = ops
            .iter()
            .filter(|(_, op, _)| {
                op.out.array != arr && op.expr.accesses().iter().any(|a| a.array == arr)
            })
            .map(|(p, _, _)| p)
            .collect();
        if writes.is_empty() || reads.is_empty() {
            break;
        }
        // longest common prefix of every involved path
        let all: Vec<&&Path> = writes.iter().chain(reads.iter()).collect();
        let mut d = 0usize;
        'prefix: loop {
            let Some(first) = all[0].0.get(d) else { break 'prefix };
            for p in &all {
                if p.0.get(d) != Some(first) {
                    break 'prefix;
                }
            }
            d += 1;
        }
        let Some(w) = writes.iter().map(|p| p.0[d]).max() else { break };
        let Some(r) = reads.iter().map(|p| p.0[d]).min() else { break };
        if r != w + 1 {
            break;
        }
        let mut loc = all[0].0[..d].to_vec();
        loc.push(w);
        let action = Action { transform: Transform::JoinScopes, loc: Loc::Node(Path(loc)) };
        match action.apply(&cur) {
            Ok(next) => {
                cur = next;
                steps.push(action);
            }
            Err(_) => break,
        }
    }
    // Phase 2: collapse every edge-buffer dimension the fusion unlocked.
    let rank = cur.buffer(buffer).map(|b| b.dims.len()).unwrap_or(0);
    for dim in 0..rank {
        let action = Action {
            transform: Transform::ReuseDims,
            loc: Loc::BufferDim(BufDimLoc { buffer: buffer.to_string(), dim }),
        };
        if let Ok(next) = action.apply(&cur) {
            cur = next;
            steps.push(action);
        }
    }
    (steps, cur)
}

fn lower_swap(q: &Program, buffer: &str) -> (Vec<Action>, Program) {
    let rank = q.buffer(buffer).map(|b| b.dims.len()).unwrap_or(0);
    if rank < 2 {
        return (Vec::new(), q.clone());
    }
    let action = Action {
        transform: Transform::SwapDims,
        loc: Loc::BufferDim(BufDimLoc { buffer: buffer.to_string(), dim: 0 }),
    };
    match action.apply(q) {
        Ok(next) => (vec![action], next),
        Err(_) => (Vec::new(), q.clone()),
    }
}

/// Greedy deterministic planning over the graph actions: for every edge in
/// order, try fusion, then try the layout swap; accept a candidate only
/// when it strictly improves the machine-model cost, validates, and (when
/// small enough to interpret) passes the differential oracle against the
/// composed reference.
pub fn plan(composed: &Composed, target: &Target) -> GraphPlan {
    plan_from(composed, target, Vec::new(), composed.program.clone())
}

/// [`plan`] from an already-transformed starting point — `start_program`
/// must be `start_steps` replayed from the composed program (e.g. the
/// result of [`crate::inherit::inherit_schedules`]). The accepted graph
/// actions extend `start_steps`; the differential check still runs against
/// the untransformed composed reference.
pub fn plan_from(
    composed: &Composed,
    target: &Target,
    start_steps: Vec<Action>,
    start_program: Program,
) -> GraphPlan {
    let naive_cost = eval(&composed.program, target);
    let mut cur = start_program;
    let mut cost = eval(&cur, target);
    let mut steps: Vec<Action> = start_steps;
    let mut decisions = Vec::new();
    let verifiable = composed.program.dynamic_op_instances() <= VERIFY_WORK_LIMIT;

    let candidates: Vec<GraphAction> = (0..composed.edge_buffers.len())
        .map(|e| GraphAction::FuseEdge { edge: e })
        .chain((0..composed.edge_buffers.len()).map(|e| GraphAction::SwapEdgeLayout { edge: e }))
        .collect();

    for action in candidates {
        let (lsteps, lprog) = lower(action, &cur, composed);
        let cost_before = cost;
        let mut accepted = false;
        let mut cost_after = cost;
        if !lsteps.is_empty() && validate(&lprog).is_ok() {
            let c2 = eval(&lprog, target);
            cost_after = c2;
            if c2 < cost
                && (!verifiable
                    || check_transformed(&composed.program, &lprog, PLAN_VERIFY_SEED).is_ok())
            {
                cur = lprog;
                cost = c2;
                steps.extend(lsteps);
                accepted = true;
            }
        }
        decisions.push(PlanDecision { action, accepted, cost_before, cost_after });
    }
    GraphPlan { decisions, steps, program: cur, cost, naive_cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::compose;
    use crate::graph::KernelGraph;
    use perfdojo_transform::replay;

    fn chain() -> KernelGraph {
        let mut g = KernelGraph::new("chain");
        let a = g.add_node("a", "relu", &[8, 16]).unwrap();
        let b = g.add_node("b", "relu", &[8, 16]).unwrap();
        g.connect(a, "z", b, "x").unwrap();
        g
    }

    #[test]
    fn fusing_adjacent_elementwise_collapses_the_edge_buffer() {
        let c = compose(&chain()).unwrap();
        let (steps, fused) = lower(GraphAction::FuseEdge { edge: 0 }, &c.program, &c);
        assert!(!steps.is_empty(), "relu->relu must fuse");
        assert!(validate(&fused).is_ok());
        // the edge buffer lost at least one materialized dim
        let before = c.program.buffer(&c.edge_buffers[0]).unwrap();
        let after = fused.buffer(&c.edge_buffers[0]).unwrap();
        let mat = |b: &perfdojo_ir::BufferDecl| b.dims.iter().filter(|d| d.materialized).count();
        assert!(mat(after) < mat(before), "fusion must collapse a dimension");
        // semantics preserved
        check_transformed(&c.program, &fused, 5).unwrap();
    }

    #[test]
    fn plan_improves_cost_and_replays_strictly() {
        let c = compose(&chain()).unwrap();
        let target = perfdojo_core::Target::x86();
        let p = plan(&c, &target);
        assert!(p.cost <= p.naive_cost);
        assert!(!p.decisions.is_empty());
        // the plan's steps replay strictly from the composed canonical form
        let replayed = replay(&c.program, &p.steps).unwrap();
        assert_eq!(
            perfdojo_ir::fingerprint::exact_text(&replayed),
            perfdojo_ir::fingerprint::exact_text(&p.program)
        );
    }
}
