//! Differential oracle for graph executions.
//!
//! Three-way check, reusing the fuzz subsystem's two-tier comparison
//! policy ([`perfdojo_fuzz::values_match`] / bit-exact
//! [`perfdojo_fuzz::first_mismatch`]):
//!
//! 1. **Scheduling determinism** — sequential vs level-parallel graph
//!    execution must agree *bit-exactly* on every buffer (same per-node
//!    interpreter runs, only the orchestration differs).
//! 2. **Composition** — the per-node executor vs the composed program run
//!    whole through the interpreter, on the external outputs, under the
//!    two-tier bit-exact/ULP policy.
//! 3. **Transformation** (via [`check_transformed`]) — any transformed or
//!    replayed composed program vs the composed reference, same policy:
//!    this is the check every planned/tuned block schedule passes before
//!    it is recorded or served.

use crate::compose::compose;
use crate::exec::{execute_graph, Sched};
use crate::graph::KernelGraph;
use perfdojo_fuzz::first_mismatch;
use perfdojo_interp::{execute, random_inputs, Tensor};
use perfdojo_ir::Program;

/// What a passing oracle run covered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OracleReport {
    /// External outputs compared against the composed reference.
    pub checked_outputs: usize,
    /// Buffers compared bit-exactly between sequential and parallel runs.
    pub checked_buffers: usize,
}

fn diff_tensor(name: &str, reference: &Tensor, other: &Tensor, exact: bool) -> Result<(), String> {
    if reference.shape != other.shape {
        return Err(format!("{name}: shape {:?} vs {:?}", reference.shape, other.shape));
    }
    if let Some((i, a, b)) = first_mismatch(reference, other, exact) {
        let policy = if exact { "bit-exact" } else { "two-tier" };
        return Err(format!("{name}[{i}]: {a} vs {b} ({policy} policy)"));
    }
    Ok(())
}

/// Run the full differential oracle on `g` with inputs seeded by `seed`.
pub fn check_graph(g: &KernelGraph, seed: u64) -> Result<OracleReport, String> {
    let composed = compose(g).map_err(|e| e.to_string())?;
    let inputs = random_inputs(&composed.program, seed);
    let seq = execute_graph(g, &composed, &inputs, Sched::Sequential)?;
    let par = execute_graph(g, &composed, &inputs, Sched::Parallel)?;

    // 1. scheduling determinism: every buffer, bit-exact
    if seq.env.len() != par.env.len() {
        return Err(format!("env size {} vs {}", seq.env.len(), par.env.len()));
    }
    for (name, t) in &seq.env {
        let other = par.env.get(name).ok_or_else(|| format!("{name} missing in parallel run"))?;
        diff_tensor(name, t, other, true)?;
    }

    // 2. composition: graph executor vs composed interpreter, two-tier
    let reference =
        execute(&composed.program, &inputs).map_err(|e| format!("composed run: {e:?}"))?;
    for (name, t) in &seq.outputs {
        let r = reference.get(name).ok_or_else(|| format!("{name} missing in composed run"))?;
        diff_tensor(name, r, t, false)?;
    }
    Ok(OracleReport { checked_outputs: seq.outputs.len(), checked_buffers: seq.env.len() })
}

/// Differential check of a transformed composed program against the
/// composed reference under the two-tier policy. Interfaces must match
/// (transformations preserve them).
pub fn check_transformed(reference: &Program, candidate: &Program, seed: u64) -> Result<(), String> {
    let inputs = random_inputs(reference, seed);
    let want = execute(reference, &inputs).map_err(|e| format!("reference run: {e:?}"))?;
    let got = execute(candidate, &inputs).map_err(|e| format!("candidate run: {e:?}"))?;
    for out in &reference.outputs {
        let w = want.get(out).ok_or_else(|| format!("{out} missing in reference"))?;
        let g = got.get(out).ok_or_else(|| format!("{out} missing in candidate"))?;
        diff_tensor(out, w, g, false)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::KernelGraph;

    #[test]
    fn oracle_passes_on_a_dag() {
        let mut g = KernelGraph::new("dag");
        let src = g.add_node("src", "relu", &[4, 6]).unwrap();
        let a = g.add_node("a", "softmax", &[4, 6]).unwrap();
        let b = g.add_node("b", "rmsnorm", &[4, 6]).unwrap();
        let sink = g.add_node("sink", "add", &[4, 6]).unwrap();
        g.connect(src, "z", a, "x").unwrap();
        g.connect(src, "z", b, "x").unwrap();
        g.connect(a, "y", sink, "x").unwrap();
        g.connect(b, "y", sink, "y").unwrap();
        let report = check_graph(&g, 11).unwrap();
        assert_eq!(report.checked_outputs, 1);
        assert!(report.checked_buffers >= 4);
    }

    #[test]
    fn oracle_catches_a_sabotaged_candidate() {
        use perfdojo_ir::{Expr, Node};
        let mut g = KernelGraph::new("sab");
        let a = g.add_node("mm", "matmul", &[4, 4, 4]).unwrap();
        let b = g.add_node("act", "relu", &[4, 4]).unwrap();
        g.connect(a, "z", b, "x").unwrap();
        let c = compose(&g).unwrap();
        // candidate with one constant nudged: max(x, 0) becomes max(x, 10),
        // which clamps every element the reference leaves alone
        fn sabotage(n: &mut Node) -> bool {
            match n {
                Node::Scope(s) => s.children_mut().iter_mut().any(sabotage),
                Node::Op(op) => sabotage_expr(&mut op.expr),
            }
        }
        fn sabotage_expr(e: &mut Expr) -> bool {
            match e {
                Expr::Const(c) => {
                    *c += 10.0;
                    true
                }
                Expr::Unary(_, x) => sabotage_expr(x),
                Expr::Binary(_, x, y) => sabotage_expr(x) || sabotage_expr(y),
                _ => false,
            }
        }
        let mut cand = c.program.clone();
        assert!(cand.roots.iter_mut().any(sabotage), "no constant to sabotage");
        let err = check_transformed(&c.program, &cand, 3);
        assert!(err.is_err(), "sabotage must be caught");
    }
}
