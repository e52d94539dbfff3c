//! Dependence analysis underpinning transformation applicability.
//!
//! Paper §2.2: "The applicability of each transformation is determined by
//! prerequisite analyses, including traditional data dependency analysis,
//! which are encoded into the logic for identifying applicable
//! transformations." The checks here are deliberately *conservative*: a
//! transformation is offered only when these analyses prove it safe.
//!
//! All reasoning happens at the **physical buffer** level: arrays sharing a
//! buffer alias, and non-materialized (`:N`) dimensions collapse, so a
//! dimension only separates iterations when it is materialized.
//!
//! These tree analyses are what `apply` checks; the arena ports in
//! [`crate::finders`] enumerate the action space. `apply` stays on the tree
//! on purpose: checking through the arena would flatten the whole program
//! once per `apply`, and a variant that only built (and dropped) one arena
//! per `Transform::apply` slowed perfbench's paper-scale `serve-wide`
//! workload by 28% in wall time and 29% in median latency (4 alternating
//! pairs on a 2-vCPU VM).

use perfdojo_ir::{Affine, Node, OpNode, Path, Program};
use std::collections::HashMap;

/// One array access observed in a region, flattened for analysis.
#[derive(Clone, Debug)]
pub struct RegionAccess {
    /// Declaring buffer name.
    pub buffer: String,
    /// Affine index per dimension; `None` when any index is indirect.
    pub indices: Option<Vec<Affine>>,
    /// True for the op's output access.
    pub write: bool,
    /// Path of the op performing the access.
    pub op_path: Path,
}

/// Collect every access in the subtree rooted at `path` (or the whole
/// program for the root path).
pub fn collect_accesses(p: &Program, path: &Path) -> Vec<RegionAccess> {
    let mut out = Vec::new();
    let mut visit_op = |op_path: &Path, op: &OpNode| {
        let mut push = |acc: &perfdojo_ir::Access, write: bool| {
            let buffer = p
                .buffer_of(&acc.array)
                .map(|b| b.name.clone())
                .unwrap_or_else(|| acc.array.clone());
            out.push(RegionAccess {
                buffer,
                indices: acc.affine_indices().map(|v| v.into_iter().cloned().collect()),
                write,
                op_path: op_path.clone(),
            });
        };
        push(&op.out, true);
        for r in op.reads() {
            push(r, false);
        }
    };
    match p.node(path) {
        None if path.is_empty() => {
            for (op_path, op, _) in p.ops() {
                visit_op(&op_path, op);
            }
        }
        Some(node) => {
            walk_ops(node, path, &mut |op_path, op| visit_op(op_path, op));
        }
        None => {}
    }
    out
}

fn walk_ops(node: &Node, path: &Path, f: &mut dyn FnMut(&Path, &OpNode)) {
    match node {
        Node::Op(op) => f(path, op),
        Node::Scope(s) => {
            for (i, c) in s.children.iter().enumerate() {
                walk_ops(c, &path.child(i), f);
            }
        }
    }
}

/// Group a region's accesses by buffer.
pub fn by_buffer(accesses: &[RegionAccess]) -> HashMap<&str, Vec<&RegionAccess>> {
    let mut m: HashMap<&str, Vec<&RegionAccess>> = HashMap::new();
    for a in accesses {
        m.entry(a.buffer.as_str()).or_default().push(a);
    }
    m
}

/// True when all accesses are affine and share one identical index vector.
pub fn identical_patterns(accesses: &[&RegionAccess]) -> bool {
    let Some(first) = accesses.first() else { return true };
    let Some(ref f) = first.indices else { return false };
    accesses.iter().all(|a| a.indices.as_ref() == Some(f))
}

/// True when the shared pattern mentions iterator `{d}` (with nonzero
/// coefficient) in at least one **materialized** dimension of the buffer —
/// i.e. distinct iterations of `d` really touch distinct physical elements.
pub fn uses_depth_materialized(p: &Program, buffer: &str, indices: &[Affine], d: usize) -> bool {
    let Some(buf) = p.buffer(buffer) else { return false };
    indices
        .iter()
        .enumerate()
        .any(|(j, a)| buf.dims.get(j).is_some_and(|bd| bd.materialized) && a.uses(d))
}

/// Fusion/fission safety for two sibling regions iterated by a common scope
/// at iterator depth `d` (paper `join_scopes` and its inverse).
///
/// Conservative rule: for every buffer written in either region and touched
/// by both (or written twice), *all* accesses to it across both regions must
/// be affine, share one identical index pattern, and that pattern must
/// separate iterations of `d` through a materialized dimension. Then
/// iteration `i` of region A touches exactly the elements iteration `i` of
/// region B touches, so interleaving the iterations preserves every
/// dependence.
pub fn regions_fusable(p: &Program, a: &Path, b: &Path, d: usize) -> bool {
    let acc_a = collect_accesses(p, a);
    let acc_b = collect_accesses(p, b);
    let mut all: Vec<&RegionAccess> = acc_a.iter().chain(acc_b.iter()).collect();
    if all.iter().any(|x| x.indices.is_none()) {
        return false;
    }
    all.sort_by(|x, y| x.buffer.cmp(&y.buffer));
    let groups = by_buffer_refs(&all);
    for (buffer, group) in groups {
        let written = group.iter().any(|x| x.write);
        if !written {
            continue;
        }
        let in_a = group.iter().any(|x| acc_a.iter().any(|y| std::ptr::eq(*x, y)));
        let in_b = group.iter().any(|x| acc_b.iter().any(|y| std::ptr::eq(*x, y)));
        if !(in_a && in_b) {
            // Written on one side only and never touched on the other:
            // its dependences are unaffected by interleaving.
            continue;
        }
        if !identical_patterns(&group) {
            return false;
        }
        let indices = group[0].indices.as_ref().unwrap();
        if !uses_depth_materialized(p, buffer, indices, d) {
            return false;
        }
    }
    true
}

fn by_buffer_refs<'a>(all: &[&'a RegionAccess]) -> HashMap<&'a str, Vec<&'a RegionAccess>> {
    let mut m: HashMap<&'a str, Vec<&'a RegionAccess>> = HashMap::new();
    for a in all {
        m.entry(a.buffer.as_str()).or_default().push(a);
    }
    m
}

/// Independence of the iterations of the scope at `scope_path` (iterator
/// depth `d`): required by `parallelize` and the GPU bindings.
///
/// For every buffer *written* in the subtree, all subtree accesses to it
/// must be affine, identical, and separate iterations of `d` through a
/// materialized dimension. Reductions over `d` (accumulator independent of
/// `d`) are thereby rejected, as are aliased layouts.
pub fn iterations_independent(p: &Program, scope_path: &Path) -> bool {
    let d = scope_path.len() - 1;
    let accesses = collect_accesses(p, scope_path);
    if accesses.iter().any(|x| x.indices.is_none()) {
        return false;
    }
    for (buffer, group) in by_buffer(&accesses) {
        if !group.iter().any(|x| x.write) {
            continue;
        }
        if !identical_patterns(&group) {
            return false;
        }
        let indices = group[0].indices.as_ref().unwrap();
        if !uses_depth_materialized(p, buffer, indices, d) {
            return false;
        }
    }
    true
}

/// Interchange safety for a scope (iterator `d`) and its single child scope
/// (iterator `d+1`).
///
/// Each written buffer must satisfy one of:
/// 1. identical access patterns using **both** `d` and `d+1` through
///    materialized dimensions (each iteration pair owns its elements), or
/// 2. every op touching the buffer in the subtree is one and the same
///    associative-commutative reduction update, whose iterations commute.
pub fn interchange_safe(p: &Program, scope_path: &Path) -> bool {
    let d = scope_path.len() - 1;
    let accesses = collect_accesses(p, scope_path);
    if accesses.iter().any(|x| x.indices.is_none()) {
        return false;
    }
    for (buffer, group) in by_buffer(&accesses) {
        if !group.iter().any(|x| x.write) {
            continue;
        }
        let ident = identical_patterns(&group);
        if ident {
            let indices = group[0].indices.as_ref().unwrap();
            if uses_depth_materialized(p, buffer, indices, d)
                && uses_depth_materialized(p, buffer, indices, d + 1)
            {
                continue;
            }
        }
        // Fall back to the reduction rule: all accesses stem from a single
        // op which is an associative reduction update.
        let mut op_paths: Vec<&Path> = group.iter().map(|x| &x.op_path).collect();
        op_paths.sort();
        op_paths.dedup();
        if op_paths.len() != 1 {
            return false;
        }
        let op = match p.node(op_paths[0]) {
            Some(Node::Op(op)) => op,
            _ => return false,
        };
        if op.reduction_combiner().is_none() {
            return false;
        }
    }
    true
}

/// Bernstein-style safety for swapping two adjacent sibling subtrees: no
/// buffer may be written in one and touched in the other (read-read is
/// fine).
pub fn siblings_commute(p: &Program, a: &Path, b: &Path) -> bool {
    let acc_a = collect_accesses(p, a);
    let acc_b = collect_accesses(p, b);
    for x in &acc_a {
        for y in &acc_b {
            if x.buffer == y.buffer && (x.write || y.write) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdojo_ir::builder::*;
    use perfdojo_ir::{BinaryOp, Location, ProgramBuilder};

    /// x4 | 8 { t = 2x } ; 8 { z = t+1 }  — the Fig. 5 producer/consumer.
    fn producer_consumer() -> Program {
        let mut b = ProgramBuilder::new("pc");
        b.input("x", &[4, 8]).output("z", &[4, 8]);
        b.temp("t", &[4, 8], Location::Stack);
        b.scope(4, |b| {
            b.scope(8, |b| {
                b.op(out("t", &[0, 1]), mul(ld("x", &[0, 1]), cst(2.0)));
            });
            b.scope(8, |b| {
                b.op(out("z", &[0, 1]), add(ld("t", &[0, 1]), cst(1.0)));
            });
        });
        b.build()
    }

    #[test]
    fn elementwise_loops_fusable() {
        let p = producer_consumer();
        // fuse the two 8-scopes at depth 1
        assert!(regions_fusable(&p, &Path::from([0, 0]), &Path::from([0, 1]), 1));
    }

    #[test]
    fn reduction_consumer_not_fusable() {
        // loop1 computes running max m; loop2 uses m: fusing would read a
        // partial maximum.
        let mut b = ProgramBuilder::new("sm");
        b.input("x", &[4, 8]).output("y", &[4, 8]);
        b.temp("m", &[4], Location::Stack);
        b.scope(4, |b| {
            b.op(out("m", &[0]), cst(f64::NEG_INFINITY));
            b.scope(8, |b| {
                b.reduce(out("m", &[0]), BinaryOp::Max, ld("x", &[0, 1]));
            });
            b.scope(8, |b| {
                b.op(out("y", &[0, 1]), sub(ld("x", &[0, 1]), ld("m", &[0])));
            });
        });
        let p = b.build();
        assert!(!regions_fusable(&p, &Path::from([0, 1]), &Path::from([0, 2]), 1));
    }

    #[test]
    fn elementwise_scope_independent() {
        let p = producer_consumer();
        assert!(iterations_independent(&p, &Path::from([0])));
        assert!(iterations_independent(&p, &Path::from([0, 0])));
    }

    #[test]
    fn reduction_scope_not_independent() {
        let mut b = ProgramBuilder::new("s");
        b.input("x", &[8]).output("s", &[1]);
        b.op(out_at("s", vec![perfdojo_ir::Affine::cst(0)]), cst(0.0));
        b.scope(8, |b| {
            b.reduce(
                out_at("s", vec![perfdojo_ir::Affine::cst(0)]),
                BinaryOp::Add,
                ld("x", &[0]),
            );
        });
        let p = b.build();
        assert!(!iterations_independent(&p, &Path::from([1])));
    }

    #[test]
    fn aliased_layout_blocks_independence() {
        // t has a :N dim indexed by the loop: physically every iteration
        // writes the same element, so the loop is NOT parallel.
        let mut b = ProgramBuilder::new("alias");
        b.input("x", &[8]).output("z", &[8]);
        let mut t = perfdojo_ir::BufferDecl::new("t", perfdojo_ir::DType::F32, &[8], Location::Stack);
        t.dims[0].materialized = false;
        b.buffer(t);
        b.scope(8, |b| {
            b.op(out("t", &[0]), mul(ld("x", &[0]), cst(2.0)));
            b.op(out("z", &[0]), add(ld("t", &[0]), cst(1.0)));
        });
        let p = b.build();
        assert!(!iterations_independent(&p, &Path::from([0])));
    }

    #[test]
    fn matmul_reduction_interchange_allowed() {
        // k-loop wrapping the accumulation: interchange (k, n) is legal by
        // the reduction rule.
        let mut b = ProgramBuilder::new("mm");
        b.input("x", &[4, 3]).input("y", &[3, 5]).output("z", &[4, 5]);
        b.scope(4, |b| {
            b.scope(5, |b| {
                b.op(out("z", &[0, 1]), cst(0.0));
            });
            b.scope(3, |b| {
                b.scope(5, |b| {
                    b.reduce(
                        out("z", &[0, 2]),
                        BinaryOp::Add,
                        mul(ld("x", &[0, 1]), ld("y", &[1, 2])),
                    );
                });
            });
        });
        let p = b.build();
        assert!(interchange_safe(&p, &Path::from([0, 1])));
    }

    #[test]
    fn scan_interchange_rejected() {
        // z[{0}] = z[{0}] - x[{0},{1}] : subtraction is not associative, so
        // the (i, j) interchange must be rejected.
        let mut b = ProgramBuilder::new("scan");
        b.input("x", &[4, 3]).output("z", &[4]);
        b.scope(4, |b| {
            b.op(out("z", &[0]), cst(0.0));
        });
        b.scope(4, |b| {
            b.scope(3, |b| {
                b.op(
                    out("z", &[0]),
                    sub(ld("z", &[0]), ld("x", &[0, 1])),
                );
            });
        });
        let p = b.build();
        assert!(!interchange_safe(&p, &Path::from([1])));
    }

    #[test]
    fn sibling_commutation() {
        let p = producer_consumer();
        // producer writes t, consumer reads t: cannot swap
        assert!(!siblings_commute(&p, &Path::from([0, 0]), &Path::from([0, 1])));
        // two independent outputs commute
        let mut b = ProgramBuilder::new("ind");
        b.input("x", &[4]).output("a", &[4]).output("c", &[4]);
        b.scope(4, |b| {
            b.op(out("a", &[0]), mul(ld("x", &[0]), cst(2.0)));
        });
        b.scope(4, |b| {
            b.op(out("c", &[0]), mul(ld("x", &[0]), cst(3.0)));
        });
        let p = b.build();
        assert!(siblings_commute(&p, &Path::from([0]), &Path::from([1])));
    }
}
