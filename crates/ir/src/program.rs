//! The top-level [`Program`]: buffer declarations plus the operation tree.

use crate::buffer::BufferDecl;
use crate::node::{Node, OpNode};
use crate::path::{self, Path};
use std::fmt;

/// A complete PerfDojo kernel: declarations + ordered tree.
#[derive(Clone, PartialEq, Debug)]
pub struct Program {
    /// Kernel name (e.g. `softmax`).
    pub name: String,
    /// Buffer declarations (each holding one or more arrays).
    pub buffers: Vec<BufferDecl>,
    /// Array names provided by the caller.
    pub inputs: Vec<String>,
    /// Array names produced for the caller (compared during verification).
    pub outputs: Vec<String>,
    /// Top-level nodes, executed in order.
    pub roots: Vec<Node>,
}

impl Program {
    /// An empty program.
    pub fn new(name: &str) -> Self {
        Program {
            name: name.to_string(),
            buffers: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            roots: Vec::new(),
        }
    }

    /// The buffer holding `array`.
    pub fn buffer_of(&self, array: &str) -> Option<&BufferDecl> {
        self.buffers.iter().find(|b| b.holds(array))
    }

    /// Mutable buffer holding `array`.
    pub fn buffer_of_mut(&mut self, array: &str) -> Option<&mut BufferDecl> {
        self.buffers.iter_mut().find(|b| b.holds(array))
    }

    /// Buffer by name.
    pub fn buffer(&self, name: &str) -> Option<&BufferDecl> {
        self.buffers.iter().find(|b| b.name == name)
    }

    /// Node lookup by path.
    pub fn node(&self, p: &Path) -> Option<&Node> {
        path::get(&self.roots, p)
    }

    /// Mutable node lookup by path.
    pub fn node_mut(&mut self, p: &Path) -> Option<&mut Node> {
        path::get_mut(&mut self.roots, p)
    }

    /// All operation leaves (path, op, enclosing scope chain).
    pub fn ops(&self) -> Vec<(Path, &OpNode, Vec<&crate::node::Scope>)> {
        path::ops_with_scopes(&self.roots)
    }

    /// Paths of all scope nodes.
    pub fn scope_paths(&self) -> Vec<Path> {
        let mut out = Vec::new();
        path::walk(&self.roots, &mut |p, n, _| {
            if n.as_scope().is_some() {
                out.push(p.clone());
            }
        });
        out
    }

    /// Total number of operation leaves.
    pub fn op_count(&self) -> usize {
        self.roots.iter().map(Node::op_leaves).sum()
    }

    /// Total number of dynamic scalar operation executions
    /// (`sum over leaves of product of enclosing trip counts`), a proxy for
    /// algorithmic work used by the peak-performance calculations (§4.1).
    /// Saturates at `u64::MAX` instead of wrapping, so a huge program never
    /// counts as a small one. A trip count that is not constant (validation
    /// rejects such scopes, but `parse_program` returns them) counts as
    /// `u64::MAX`: its work is unknown, so every gate treats it as too large.
    pub fn dynamic_op_instances(&self) -> u64 {
        self.ops()
            .iter()
            .map(|(_, op, chain)| {
                let iters = chain.iter().fold(1u64, |n, s| {
                    n.saturating_mul(s.size.as_const().map_or(u64::MAX, |t| t as u64))
                });
                iters.saturating_mul(op.expr.op_count().max(1) as u64)
            })
            .fold(0, u64::saturating_add)
    }

    /// Names of arrays that are written somewhere in the program.
    pub fn written_arrays(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .ops()
            .iter()
            .map(|(_, op, _)| op.out.array.clone())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Names of temporary arrays (written but not outputs, not inputs).
    pub fn temporaries(&self) -> Vec<String> {
        self.written_arrays()
            .into_iter()
            .filter(|a| !self.outputs.contains(a) && !self.inputs.contains(a))
            .collect()
    }

    /// Total bytes of all buffers (memory footprint, used by reports).
    pub fn footprint_bytes(&self) -> usize {
        self.buffers.iter().map(BufferDecl::bytes).sum()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::text::write_program(f, self, crate::text::View::Exact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{DType, Location};
    use crate::expr::{Access, Expr};
    use crate::node::Scope;

    fn prog() -> Program {
        let mut p = Program::new("t");
        p.buffers.push(BufferDecl::new("x", DType::F32, &[4, 8], Location::Heap));
        p.buffers.push(BufferDecl::new("z", DType::F32, &[4, 8], Location::Heap));
        p.inputs = vec!["x".into()];
        p.outputs = vec!["z".into()];
        p.roots = vec![Node::Scope(Scope::new(
            4,
            vec![Node::Scope(Scope::new(
                8,
                vec![Node::Op(OpNode::new(
                    Access::vars("z", &[0, 1]),
                    Expr::Load(Access::vars("x", &[0, 1])),
                ))],
            ))],
        ))];
        p
    }

    #[test]
    fn lookup_and_counts() {
        let p = prog();
        assert_eq!(p.op_count(), 1);
        assert_eq!(p.dynamic_op_instances(), 32);
        assert!(p.buffer_of("x").is_some());
        assert!(p.buffer_of("nope").is_none());
        assert_eq!(p.scope_paths().len(), 2);
        assert_eq!(p.written_arrays(), vec!["z".to_string()]);
        assert!(p.temporaries().is_empty());
    }

    #[test]
    fn op_count_saturates_instead_of_wrapping() {
        let mut p = prog();
        let op = Node::Op(OpNode::new(
            Access::vars("z", &[0, 1]),
            Expr::Load(Access::vars("x", &[0, 1])),
        ));
        // 2^32 * 2^32 iterations wrap a u64 product to 0
        let inner = Node::Scope(Scope::new(1 << 32, vec![op]));
        p.roots = vec![Node::Scope(Scope::new(1 << 32, vec![inner]))];
        assert_eq!(p.dynamic_op_instances(), u64::MAX);
    }

    #[test]
    fn data_dependent_trip_counts_as_unbounded_work() {
        let p = crate::parse_program(
            "\
kernel dd
in n, x
out z
n i32 [1] heap
x f32 [4, 8] heap
t f32 [4, 8] stack
z f32 [4, 8] heap

n[0] | 8 | t[{0}, {1}] = x[{0}, {1}]
     | 8 | z[{0}, {1}] = t[{0}, {1}]
",
        )
        .expect("parses");
        assert_eq!(p.dynamic_op_instances(), u64::MAX);
    }

    #[test]
    fn footprint() {
        let p = prog();
        assert_eq!(p.footprint_bytes(), 2 * 4 * 8 * 4);
    }
}
