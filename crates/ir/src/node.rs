//! Tree nodes: iteration scopes and operation leaves.

use crate::expr::{Access, BinaryOp, Expr};
use crate::text::View;
use std::fmt;
use std::sync::Arc;

/// How a scope's iteration range is instantiated (textual suffixes in
/// parentheses). `Seq` is the default; everything else is set by
/// transformations and drives code generation / the machine models.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ScopeKind {
    /// Plain sequential loop.
    #[default]
    Seq,
    /// Fully unrolled loop (`:u`).
    Unroll,
    /// Vectorized loop (`:v`); applicability requires the trip count to equal
    /// the target vector width and the body to be a single vectorizable op.
    Vector,
    /// CPU-parallel loop (`:p`).
    Parallel,
    /// GPU grid dimension (`:g`).
    GpuGrid,
    /// GPU block dimension (`:b`).
    GpuBlock,
    /// GPU warp lane dimension (`:w`).
    GpuWarp,
}

impl ScopeKind {
    /// Textual suffix (empty for `Seq`).
    pub fn suffix(self) -> &'static str {
        match self {
            ScopeKind::Seq => "",
            ScopeKind::Unroll => ":u",
            ScopeKind::Vector => ":v",
            ScopeKind::Parallel => ":p",
            ScopeKind::GpuGrid => ":g",
            ScopeKind::GpuBlock => ":b",
            ScopeKind::GpuWarp => ":w",
        }
    }

    /// Parse a single suffix letter.
    pub fn from_suffix(c: char) -> Option<Self> {
        Some(match c {
            'u' => ScopeKind::Unroll,
            'v' => ScopeKind::Vector,
            'p' => ScopeKind::Parallel,
            'g' => ScopeKind::GpuGrid,
            'b' => ScopeKind::GpuBlock,
            'w' => ScopeKind::GpuWarp,
            _ => return None,
        })
    }

    /// True for GPU-mapped kinds.
    pub fn is_gpu(self) -> bool {
        matches!(self, ScopeKind::GpuGrid | ScopeKind::GpuBlock | ScopeKind::GpuWarp)
    }
}

/// A scope's iteration count.
///
/// Only `Const` is accepted by validation; the other variants exist so that
/// the paper's *excluded* features (Table 2: data-dependent range, general
/// control flow) are expressible for completeness demonstrations.
#[derive(Clone, PartialEq, Debug)]
pub enum ScopeSize {
    /// Fixed trip count (the only validated form).
    Const(usize),
    /// Trip count read from an array element (excluded feature).
    DataDep(Access),
    /// `while`-style loop driven by a condition access (excluded feature).
    While(Access),
}

impl ScopeSize {
    /// The constant trip count, if this size is constant.
    pub fn as_const(&self) -> Option<usize> {
        match self {
            ScopeSize::Const(n) => Some(*n),
            _ => None,
        }
    }
}

/// An internal tree vertex: a single-dimensional iteration scope.
#[derive(Clone, PartialEq, Debug)]
pub struct Scope {
    /// Iteration count.
    pub size: ScopeSize,
    /// Instantiation kind (sequential, unrolled, vector, parallel, GPU dims).
    pub kind: ScopeKind,
    /// Snitch floating-point repetition: the hardware loop replays the FP
    /// body without integer-core loop overhead.
    pub frep: bool,
    /// Snitch stream semantic registers: affine input streams of the body
    /// are fed by hardware data movers instead of explicit loads.
    pub ssr: bool,
    /// Ordered children (scopes and/or operations), shared copy-on-write:
    /// cloning a program (or snapshotting a pre-state in `History`) shares
    /// every unchanged subtree, and mutation through [`Scope::children_mut`]
    /// copies only the vectors on the path actually being rewritten.
    pub children: Arc<Vec<Node>>,
}

impl Scope {
    /// A plain sequential scope.
    pub fn new(size: usize, children: Vec<Node>) -> Self {
        Scope {
            size: ScopeSize::Const(size),
            kind: ScopeKind::Seq,
            frep: false,
            ssr: false,
            children: Arc::new(children),
        }
    }

    /// Mutable access to the children, cloning the vector first if it is
    /// shared with another program snapshot (copy-on-write discipline: every
    /// structural mutation goes through here, so untouched siblings stay
    /// shared).
    pub fn children_mut(&mut self) -> &mut Vec<Node> {
        Arc::make_mut(&mut self.children)
    }

    /// Replace the children wholesale.
    pub fn set_children(&mut self, children: Vec<Node>) {
        self.children = Arc::new(children);
    }

    /// Constant trip count (panics on excluded dynamic sizes — callers run
    /// after validation).
    pub fn trip(&self) -> usize {
        self.size
            .as_const()
            .expect("dynamic scope sizes are excluded by validation")
    }

    /// Textual header, e.g. `512:v` or `4:u:f`.
    pub fn header(&self) -> String {
        let mut s = String::new();
        self.write_header(&mut s, View::Exact).expect("writing to a String cannot fail");
        s
    }

    /// Write the header in `view` (the [`View::Structure`] header prints a
    /// constant trip count as `0`).
    pub(crate) fn write_header<W: fmt::Write>(&self, f: &mut W, view: View) -> fmt::Result {
        match (&self.size, view) {
            (ScopeSize::Const(_), View::Structure) => f.write_char('0')?,
            (ScopeSize::Const(n), View::Exact) => write!(f, "{n}")?,
            (ScopeSize::DataDep(a), _) => write!(f, "{a}")?,
            (ScopeSize::While(a), _) => write!(f, "while {a}")?,
        }
        f.write_str(self.kind.suffix())?;
        if self.ssr {
            f.write_str(":s")?;
        }
        if self.frep {
            f.write_str(":f")?;
        }
        Ok(())
    }
}

/// A leaf operation: `out = expr`, executed once per iteration of every
/// enclosing scope.
#[derive(Clone, PartialEq, Debug)]
pub struct OpNode {
    /// The written element.
    pub out: Access,
    /// The computed scalar expression.
    pub expr: Expr,
}

impl OpNode {
    /// Build an operation.
    pub fn new(out: Access, expr: Expr) -> Self {
        OpNode { out, expr }
    }

    /// All accesses read by this operation.
    pub fn reads(&self) -> Vec<&Access> {
        self.expr.accesses()
    }

    /// Reduction detection: the op is an *update* of its output through an
    /// associative-commutative combiner, i.e. `out = comb(out, rest)` or
    /// `out = comb(rest, out)` with identical output/input access functions.
    ///
    /// Returns the combiner when the pattern matches.
    pub fn reduction_combiner(&self) -> Option<BinaryOp> {
        if let Expr::Binary(op, a, b) = &self.expr {
            if op.is_reduction_combiner() {
                for side in [a.as_ref(), b.as_ref()] {
                    if let Expr::Load(acc) = side {
                        if *acc == self.out {
                            return Some(*op);
                        }
                    }
                }
            }
        }
        None
    }

    /// True when the op both reads and writes its output element (an
    /// accumulation of any kind, not necessarily associative).
    pub fn reads_own_output(&self) -> bool {
        self.reads().iter().any(|a| **a == self.out)
    }
}

impl OpNode {
    /// Write `out = expr` in `view`.
    pub(crate) fn write_to<W: fmt::Write>(&self, f: &mut W, view: View) -> fmt::Result {
        write!(f, "{} = ", self.out)?;
        self.expr.write_to(f, view)
    }
}

impl fmt::Display for OpNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f, View::Exact)
    }
}

/// A tree node: scope or operation.
#[derive(Clone, PartialEq, Debug)]
pub enum Node {
    /// Iteration scope with children.
    Scope(Scope),
    /// Operation leaf.
    Op(OpNode),
}

impl Node {
    /// The scope payload, if any.
    pub fn as_scope(&self) -> Option<&Scope> {
        match self {
            Node::Scope(s) => Some(s),
            Node::Op(_) => None,
        }
    }

    /// Mutable scope payload, if any.
    pub fn as_scope_mut(&mut self) -> Option<&mut Scope> {
        match self {
            Node::Scope(s) => Some(s),
            Node::Op(_) => None,
        }
    }

    /// The operation payload, if any.
    pub fn as_op(&self) -> Option<&OpNode> {
        match self {
            Node::Op(o) => Some(o),
            Node::Scope(_) => None,
        }
    }

    /// Number of operation leaves in the subtree.
    pub fn op_leaves(&self) -> usize {
        match self {
            Node::Op(_) => 1,
            Node::Scope(s) => s.children.iter().map(Node::op_leaves).sum(),
        }
    }

    /// Maximum scope nesting depth of the subtree.
    pub fn depth(&self) -> usize {
        match self {
            Node::Op(_) => 0,
            Node::Scope(s) => 1 + s.children.iter().map(Node::depth).max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::Affine;

    fn acc(name: &str, depths: &[usize]) -> Access {
        Access::vars(name, depths)
    }

    #[test]
    fn reduction_detected_both_sides() {
        let out = acc("m", &[0]);
        let red = OpNode::new(
            out.clone(),
            Expr::Binary(
                BinaryOp::Max,
                Box::new(Expr::Load(out.clone())),
                Box::new(Expr::Load(acc("x", &[0, 1]))),
            ),
        );
        assert_eq!(red.reduction_combiner(), Some(BinaryOp::Max));
        let red2 = OpNode::new(
            out.clone(),
            Expr::Binary(
                BinaryOp::Add,
                Box::new(Expr::Load(acc("x", &[0, 1]))),
                Box::new(Expr::Load(out.clone())),
            ),
        );
        assert_eq!(red2.reduction_combiner(), Some(BinaryOp::Add));
    }

    #[test]
    fn non_associative_update_not_reduction() {
        let out = acc("z", &[0]);
        let op = OpNode::new(
            out.clone(),
            Expr::Binary(
                BinaryOp::Sub,
                Box::new(Expr::Load(out.clone())),
                Box::new(Expr::Const(1.0)),
            ),
        );
        assert_eq!(op.reduction_combiner(), None);
        assert!(op.reads_own_output());
    }

    #[test]
    fn mismatched_access_not_reduction() {
        // z[{0}] = z[{0}-1] + y[{0}] is a *dependent iteration*, not a reduction
        let op = OpNode::new(
            acc("z", &[0]),
            Expr::Binary(
                BinaryOp::Add,
                Box::new(Expr::Load(Access::new("z", vec![Affine::scaled(0, 1, -1)]))),
                Box::new(Expr::Load(acc("y", &[0]))),
            ),
        );
        assert_eq!(op.reduction_combiner(), None);
        assert!(!op.reads_own_output());
    }

    #[test]
    fn scope_header_suffixes() {
        let mut s = Scope::new(16, vec![]);
        assert_eq!(s.header(), "16");
        s.kind = ScopeKind::Vector;
        assert_eq!(s.header(), "16:v");
        s.frep = true;
        s.ssr = true;
        assert_eq!(s.header(), "16:v:s:f");
    }

    #[test]
    fn tree_metrics() {
        let t = Node::Scope(Scope::new(
            4,
            vec![
                Node::Op(OpNode::new(acc("z", &[0]), Expr::Const(0.0))),
                Node::Scope(Scope::new(
                    8,
                    vec![Node::Op(OpNode::new(acc("z", &[0]), Expr::Const(1.0)))],
                )),
            ],
        ));
        assert_eq!(t.op_leaves(), 2);
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn suffix_roundtrip() {
        for k in [
            ScopeKind::Unroll,
            ScopeKind::Vector,
            ScopeKind::Parallel,
            ScopeKind::GpuGrid,
            ScopeKind::GpuBlock,
            ScopeKind::GpuWarp,
        ] {
            let c = k.suffix().chars().nth(1).unwrap();
            assert_eq!(ScopeKind::from_suffix(c), Some(k));
        }
    }
}
