//! Inheriting per-node library schedules into a composed block.
//!
//! Composition is a *renaming*: node `k` at canonical position `p`
//! contributes its roots verbatim at a fixed root offset, with every
//! buffer and array prefixed `n<p>_` and edge-consumer buffers rewired to
//! their producers. A single-kernel schedule recorded against the node's
//! standalone program therefore translates mechanically into composed
//! coordinates — offset the leading root index of every path location,
//! mangle every buffer location through the same rename maps composition
//! used. [`inherit_schedules`] dispatches every node against the library
//! (exact hit, nearest-shape replay, or heuristic — the same tiers the
//! per-node baseline pays for), translates the served steps, and applies
//! them leniently from the composed program.
//!
//! Nodes are translated in *reverse* canonical order: a node's steps can
//! change its own root count (e.g. fission at the top level), which would
//! shift the offsets of later nodes — but never of earlier ones.
//!
//! The machine model prices the composed program as the sum of its parts,
//! so an inherited block costs what per-node dispatch costs *minus* every
//! edge materialization round trip. This is the floor the block tier
//! starts from; fusion planning and intra-block tuning only lower it.

use crate::compose::Composed;
use crate::graph::KernelGraph;
use crate::oracle::check_transformed;
use perfdojo_core::Target;
use perfdojo_interp::VERIFY_WORK_LIMIT;
use perfdojo_ir::{validate, Path, Program};
use perfdojo_library::Library;
use perfdojo_transform::{replay_sequence, Action, BufDimLoc, Loc};
use std::collections::BTreeMap;

/// Fixed seed for the post-inheritance differential check.
const INHERIT_VERIFY_SEED: u64 = 0x517C_C1B7;

/// Per-node schedules translated into composed coordinates.
#[derive(Clone, Debug)]
pub struct Inherited {
    /// Translated steps that applied (strictly replayable from the
    /// composed program, in reverse canonical node order).
    pub steps: Vec<Action>,
    /// The composed program with the inherited steps applied.
    pub program: Program,
    /// Machine-model cost of `program`.
    pub cost: f64,
    /// Nodes that contributed at least one translated step.
    pub nodes: usize,
    /// Translated steps that did not apply in composed context.
    pub skipped: usize,
}

fn eval(p: &Program, target: &Target) -> f64 {
    target.machine.evaluate(p).map(|e| e.seconds).unwrap_or(f64::INFINITY)
}

fn noop(composed: &Composed, target: &Target, skipped: usize) -> Inherited {
    Inherited {
        steps: Vec::new(),
        program: composed.program.clone(),
        cost: eval(&composed.program, target),
        nodes: 0,
        skipped,
    }
}

/// Mangle a node-local buffer/array name into composed coordinates: the
/// `n<p>_` prefix, then the edge rewires (a consumer's input buffer became
/// its producer's output buffer). Names a schedule invented mid-sequence
/// (e.g. a split-reduction accumulator derived from a mangled buffer) pass
/// through the same prefixing, which matches how the generating transform
/// derives them in composed context; if the guess is wrong the step is
/// merely skipped by the lenient replay below.
fn rename(name: &str, p: usize, rewire: &BTreeMap<String, String>) -> String {
    let pre = format!("n{p}_{name}");
    rewire.get(&pre).cloned().unwrap_or(pre)
}

fn translate_loc(loc: &Loc, p: usize, offset: usize, rewire: &BTreeMap<String, String>) -> Loc {
    let shift = |path: &Path| {
        let mut v = path.0.clone();
        if let Some(root) = v.first_mut() {
            *root += offset;
        }
        Path(v)
    };
    match loc {
        Loc::Node(path) => Loc::Node(shift(path)),
        Loc::NodeAt(path, i) => Loc::NodeAt(shift(path), *i),
        Loc::BufferDim(b) => {
            Loc::BufferDim(BufDimLoc { buffer: rename(&b.buffer, p, rewire), dim: b.dim })
        }
        Loc::Buffer(b) => Loc::Buffer(rename(b, p, rewire)),
    }
}

/// Dispatch every node of `g` against `lib` and translate the served
/// schedules onto `composed` (see module docs). Returns a no-op result
/// (empty steps, naive cost) when nothing translated, applied, validated,
/// and differentially verified.
pub fn inherit_schedules(
    g: &KernelGraph,
    composed: &Composed,
    target: &Target,
    lib: &Library,
) -> Inherited {
    let order = g.topo_order();
    let mut pos = vec![0usize; g.nodes().len()];
    let mut offsets = Vec::with_capacity(order.len());
    let mut acc = 0usize;
    for (p, &i) in order.iter().enumerate() {
        pos[i] = p;
        offsets.push(acc);
        acc += g.nodes()[i].program.roots.len();
    }
    let mut rewire = BTreeMap::new();
    for e in g.edges() {
        rewire.insert(
            format!("n{}_{}", pos[e.to], e.to_array),
            format!("n{}_{}", pos[e.from], e.from_array),
        );
    }

    let mut steps = Vec::new();
    let mut nodes = 0usize;
    for p in (0..order.len()).rev() {
        let node = &g.nodes()[order[p]];
        let d = lib.lookup(&node.program, target);
        if d.steps.is_empty() {
            continue;
        }
        nodes += 1;
        for a in &d.steps {
            steps.push(Action {
                transform: a.transform.clone(),
                loc: translate_loc(&a.loc, p, offsets[p], &rewire),
            });
        }
    }
    if steps.is_empty() {
        return noop(composed, target, 0);
    }

    let rep = replay_sequence(&composed.program, &steps);
    let skipped = rep.skipped.len();
    let kept = rep.applied(&steps);
    if kept.is_empty() || validate(&rep.program).is_err() {
        return noop(composed, target, skipped);
    }
    let verifiable = composed.program.dynamic_op_instances() <= VERIFY_WORK_LIMIT;
    if verifiable && check_transformed(&composed.program, &rep.program, INHERIT_VERIFY_SEED).is_err()
    {
        return noop(composed, target, skipped);
    }
    let cost = eval(&rep.program, target);
    Inherited { steps: kept, program: rep.program, cost, nodes, skipped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::compose;
    use crate::suite;
    use perfdojo_library::{LibraryBuilder, Strategy};
    use perfdojo_transform::replay;

    fn node_tuned_library(g: &KernelGraph, target: &Target) -> Library {
        let kernels: Vec<perfdojo_kernels::KernelInstance> = g
            .nodes()
            .iter()
            .map(|n| perfdojo_kernels::KernelInstance::at(&n.label, &n.dims, n.program.clone()))
            .collect();
        let mut lib = Library::new();
        LibraryBuilder::new(Strategy::Anneal { budget: 200 }, 5).build_into(
            &mut lib,
            &kernels,
            std::slice::from_ref(target),
        );
        lib
    }

    #[test]
    fn inherited_block_undercuts_the_per_node_baseline() {
        let target = perfdojo_core::Target::x86();
        let g = suite::ffn(8, 8, 16).unwrap();
        let lib = node_tuned_library(&g, &target);
        let c = compose(&g).unwrap();
        let inh = inherit_schedules(&g, &c, &target, &lib);
        assert!(!inh.steps.is_empty(), "tuned nodes must translate");
        assert!(inh.nodes >= 2, "most nodes should contribute, got {}", inh.nodes);
        // inherited steps replay strictly (they are the kept subsequence)
        let replayed = replay(&c.program, &inh.steps).expect("kept steps replay strictly");
        assert_eq!(
            perfdojo_ir::fingerprint::exact_text(&replayed),
            perfdojo_ir::fingerprint::exact_text(&inh.program)
        );
        // the whole point: per-node quality without the edge round trips
        let baseline = crate::cost::per_node_baseline(&g, &target, &lib);
        assert!(
            inh.cost <= baseline.total,
            "inherited {:e} must not exceed per-node dispatch {:e}",
            inh.cost,
            baseline.total
        );
        assert!(inh.cost < eval(&c.program, &target), "inheritance must beat composed naive");
    }

    #[test]
    fn empty_library_still_inherits_heuristic_schedules() {
        let target = perfdojo_core::Target::x86();
        let g = suite::ffn(8, 8, 16).unwrap();
        let c = compose(&g).unwrap();
        let inh = inherit_schedules(&g, &c, &target, &Library::new());
        // per-node dispatch falls back to the heuristic tier; those steps
        // inherit exactly like recorded ones
        assert!(inh.cost <= eval(&c.program, &target));
    }
}
