//! Differential oracle for graph executions.
//!
//! Two checks, both under the fuzz subsystem's two-tier bit-exact/ULP
//! comparison policy ([`perfdojo_fuzz::values_match`] /
//! [`perfdojo_fuzz::first_mismatch`]):
//!
//! 1. **Composition** ([`check_graph`]) — the per-node executor vs the
//!    composed program run whole through the interpreter, on the external
//!    outputs.
//! 2. **Transformation** ([`check_transformed`]) — any transformed or
//!    replayed composed program vs the composed reference: this is the
//!    check every planned/tuned block schedule passes before it is
//!    recorded or served.

use crate::compose::compose;
use crate::exec::execute_graph;
use crate::graph::KernelGraph;
use perfdojo_fuzz::first_mismatch;
use perfdojo_interp::{execute, random_inputs, Tensor};
use perfdojo_ir::Program;

/// What a passing oracle run covered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OracleReport {
    /// External outputs compared against the composed reference.
    pub checked_outputs: usize,
}

fn diff_tensor(name: &str, reference: &Tensor, other: &Tensor) -> Result<(), String> {
    if reference.shape != other.shape {
        return Err(format!("{name}: shape {:?} vs {:?}", reference.shape, other.shape));
    }
    if let Some((i, a, b)) = first_mismatch(reference, other, false) {
        return Err(format!("{name}[{i}]: {a} vs {b} (two-tier policy)"));
    }
    Ok(())
}

/// Run the composition check on `g` with inputs seeded by `seed`: the
/// graph executor vs the composed interpreter, on every external output.
pub fn check_graph(g: &KernelGraph, seed: u64) -> Result<OracleReport, String> {
    let composed = compose(g).map_err(|e| e.to_string())?;
    let inputs = random_inputs(&composed.program, seed);
    let run = execute_graph(g, &composed, &inputs)?;
    let reference =
        execute(&composed.program, &inputs).map_err(|e| format!("composed run: {e:?}"))?;
    for (name, t) in &run.outputs {
        let r = reference.get(name).ok_or_else(|| format!("{name} missing in composed run"))?;
        diff_tensor(name, r, t)?;
    }
    Ok(OracleReport { checked_outputs: run.outputs.len() })
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
        diff_tensor(out, w, g)?;
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
