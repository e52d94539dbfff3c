//! Index-based arena view of a [`Program`].
//!
//! The tree IR ([`Node`]/[`Expr`]/[`Access`]) is the *authoring* form:
//! transformations clone-and-mutate it through copy-on-write [`Path`]
//! lookups. It is, however, a poor shape for the read-heavy inner loop of
//! search: applicability scans (`transform::find_locations`), lowering
//! (`codegen::lower`) and dependence analysis chase `Box`/`Arc` pointers and
//! re-collect access lists on every query, which dominated evaluation cost.
//!
//! [`Arena`] flattens one program into contiguous `Vec`s addressed by typed
//! ids:
//!
//! * **nodes** in pre-order, so a subtree is the contiguous id range
//!   `[id+1, subtree_end)`, the first child of a scope is `id+1` and the next
//!   sibling of any node is `subtree_end`;
//! * a **region-access table**: one row per (op, access) pair in exactly the
//!   order `transform::deps::collect_accesses` produces (output first, then
//!   reads in expression-visit order), with the declaring buffer pre-resolved
//!   — the rows of any subtree are one contiguous slice;
//! * flattened **expressions**, **accesses**, **affine functions** and their
//!   terms, with array names interned to [`NameId`]s.
//!
//! The arena is a read-only *snapshot*: every edit happens on the tree
//! (cheap via copy-on-write children), and consumers rebuild the arena per
//! program state. [`Arena::to_program`] rebuilds the captured program
//! bit-identically.

use crate::buffer::BufferDecl;
use crate::expr::{Access, BinaryOp, Expr, IndexExpr, UnaryOp};
use crate::node::{Node, OpNode, Scope, ScopeKind, ScopeSize};
use crate::path::Path;
use crate::program::Program;
use std::collections::HashMap;
use std::sync::Arc;

/// Sentinel for "no parent" / "no buffer".
const NIL: u32 = u32::MAX;

macro_rules! typed_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// The id as a vector index.
            pub fn idx(self) -> usize {
                self.0 as usize
            }
        }
    };
}

typed_id!(
    /// Index of a node in pre-order.
    NodeId
);
typed_id!(
    /// Index of an operation leaf (pre-order among ops).
    OpId
);
typed_id!(
    /// Index of a flattened access.
    AccId
);
typed_id!(
    /// Index of a flattened affine function.
    AffId
);
typed_id!(
    /// Index of a flattened expression node.
    ExprId
);
typed_id!(
    /// Index of an interned name.
    NameId
);

/// Flattened scope payload (children are implicit in the pre-order layout).
#[derive(Clone, PartialEq, Debug)]
pub struct AScope {
    /// Iteration count (cloned; only `Const` is validated).
    pub size: ScopeSize,
    /// Instantiation kind.
    pub kind: ScopeKind,
    /// Snitch FP-repetition flag.
    pub frep: bool,
    /// Snitch stream-register flag.
    pub ssr: bool,
    /// Number of direct children.
    pub n_children: u32,
}

/// Node payload: scope metadata or an op index.
#[derive(Clone, PartialEq, Debug)]
pub enum APayload {
    /// An iteration scope.
    Scope(AScope),
    /// An operation leaf.
    Op(OpId),
}

/// One arena node. Stored in pre-order: the subtree rooted here is the id
/// range `[id+1, subtree_end)`.
#[derive(Clone, PartialEq, Debug)]
pub struct ANode {
    /// Parent node (`u32::MAX` for roots).
    parent: u32,
    /// Index among the parent's children (or among roots).
    child_index: u32,
    /// Number of ancestors, i.e. `path.len() - 1`.
    pub depth: u32,
    /// Exclusive end of the pre-order subtree.
    pub subtree_end: u32,
    /// First region-access row of the subtree.
    pub reg_start: u32,
    /// Exclusive end of the subtree's region-access rows.
    pub reg_end: u32,
    /// Scope or op payload.
    pub payload: APayload,
}

/// A flattened operation leaf.
#[derive(Clone, PartialEq, Debug)]
pub struct AOp {
    /// Owning node.
    pub node: NodeId,
    /// Output access.
    pub out: AccId,
    /// Root of the flattened expression.
    pub expr: ExprId,
}

/// One row of the region-access table: an access occurrence of one op, with
/// the declaring buffer resolved exactly like
/// `transform::deps::collect_accesses` (buffer name, or the array name when
/// no buffer declares it).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RegRow {
    /// Resolved region group: `buffer_of(array).name`, falling back to the
    /// array name itself.
    pub group: NameId,
    /// True for the op's output.
    pub write: bool,
    /// The op node this row belongs to.
    pub op_node: NodeId,
    /// The access payload.
    pub acc: AccId,
}

/// A flattened access: interned array name plus an index list.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AAccess {
    /// Array name.
    pub name: NameId,
    /// First index in the arena's index list.
    idx_start: u32,
    /// Number of indices.
    idx_len: u32,
    /// When every index is affine, the indices are the contiguous affine
    /// range `[aff_start, aff_start + idx_len)`.
    aff_start: u32,
    /// True when every index is affine (no indirection).
    pub all_affine: bool,
}

/// One access index: affine function or excluded indirect access.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum AIndex {
    /// Affine function of scope iterators.
    Affine(AffId),
    /// Indirect (gather/scatter) index, an excluded feature.
    Indirect(AccId),
}

/// A flattened affine function: a term range plus constant offset.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AAffine {
    term_start: u32,
    n_terms: u32,
    /// Constant offset.
    pub offset: i64,
}

/// A flattened expression node.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum AExpr {
    /// Memory read.
    Load(AccId),
    /// Scalar literal.
    Const(f64),
    /// Iterator value.
    Index(AffId),
    /// Unary operation.
    Unary(UnaryOp, ExprId),
    /// Binary operation.
    Binary(BinaryOp, ExprId, ExprId),
}

/// Flat, id-addressed view of one [`Program`]. See the module docs.
#[derive(Clone)]
pub struct Arena {
    /// Kernel name.
    pub name: String,
    /// Caller-provided array names.
    pub inputs: Vec<String>,
    /// Caller-visible result array names.
    pub outputs: Vec<String>,
    /// Buffer declarations (cloned from the program).
    pub buffers: Vec<BufferDecl>,

    names: Vec<String>,
    name_map: HashMap<String, NameId>,
    /// Per name: index of the buffer *named* so (`Program::buffer`).
    buffer_named: Vec<u32>,
    /// Per name: index of the buffer *holding* an array of that name
    /// (`Program::buffer_of`).
    buffer_holding: Vec<u32>,
    /// Per name: resolved region group (see [`RegRow::group`]).
    group_of: Vec<NameId>,
    /// Per buffer: true when it holds an input or output array.
    interface: Vec<bool>,

    nodes: Vec<ANode>,
    n_roots: u32,
    ops: Vec<AOp>,
    reg: Vec<RegRow>,
    accs: Vec<AAccess>,
    aidx: Vec<AIndex>,
    affs: Vec<AAffine>,
    terms: Vec<(u32, i64)>,
    exprs: Vec<AExpr>,
}

impl Arena {
    // -----------------------------------------------------------------
    // construction
    // -----------------------------------------------------------------

    /// Flatten `p` into an arena.
    pub fn build(p: &Program) -> Arena {
        let mut a = Arena {
            name: p.name.clone(),
            inputs: p.inputs.clone(),
            outputs: p.outputs.clone(),
            buffers: p.buffers.clone(),
            names: Vec::new(),
            name_map: HashMap::new(),
            buffer_named: Vec::new(),
            buffer_holding: Vec::new(),
            group_of: Vec::new(),
            interface: Vec::new(),
            nodes: Vec::new(),
            n_roots: p.roots.len() as u32,
            ops: Vec::new(),
            reg: Vec::new(),
            accs: Vec::new(),
            aidx: Vec::new(),
            affs: Vec::new(),
            terms: Vec::new(),
            exprs: Vec::new(),
        };
        // Buffer names first so `group_of` resolution can refer to them.
        let buffer_names: Vec<String> = a.buffers.iter().map(|b| b.name.clone()).collect();
        for n in &buffer_names {
            a.intern(n);
        }
        a.interface = a
            .buffers
            .iter()
            .map(|b| {
                b.array_names()
                    .iter()
                    .any(|ar| a.inputs.iter().any(|i| i == *ar) || a.outputs.iter().any(|o| o == *ar))
            })
            .collect();
        for (i, n) in p.roots.iter().enumerate() {
            a.build_node(n, NIL, i as u32, 0);
        }
        a
    }

    fn intern(&mut self, s: &str) -> NameId {
        if let Some(&id) = self.name_map.get(s) {
            return id;
        }
        let id = NameId(self.names.len() as u32);
        self.names.push(s.to_string());
        self.name_map.insert(s.to_string(), id);
        // Resolve buffer relations for the new name once.
        let named = self.buffers.iter().position(|b| b.name == s).map_or(NIL, |i| i as u32);
        let holding = self.buffers.iter().position(|b| b.holds(s)).map_or(NIL, |i| i as u32);
        self.buffer_named.push(named);
        self.buffer_holding.push(holding);
        // group: declaring buffer's name, else the array name itself. Buffer
        // names are interned up front, so the lookup cannot recurse.
        let group = if holding == NIL {
            id
        } else {
            let bname = self.buffers[holding as usize].name.clone();
            *self.name_map.get(&bname).expect("buffer names interned first")
        };
        self.group_of.push(group);
        id
    }

    fn build_node(&mut self, n: &Node, parent: u32, child_index: u32, depth: u32) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let reg_start = self.reg.len() as u32;
        // Placeholder payload; patched below once children/ops are known.
        self.nodes.push(ANode {
            parent,
            child_index,
            depth,
            subtree_end: 0,
            reg_start,
            reg_end: 0,
            payload: APayload::Op(OpId(0)),
        });
        match n {
            Node::Scope(s) => {
                for (i, c) in s.children.iter().enumerate() {
                    self.build_node(c, id.0, i as u32, depth + 1);
                }
                self.nodes[id.idx()].payload = APayload::Scope(AScope {
                    size: s.size.clone(),
                    kind: s.kind,
                    frep: s.frep,
                    ssr: s.ssr,
                    n_children: s.children.len() as u32,
                });
            }
            Node::Op(op) => {
                let out = self.flatten_access(&op.out);
                // Region rows in `collect_accesses` order: output first …
                self.reg.push(RegRow {
                    group: self.group_of[self.accs[out.idx()].name.idx()],
                    write: true,
                    op_node: id,
                    acc: out,
                });
                let expr = self.flatten_expr(&op.expr, id);
                let op_id = OpId(self.ops.len() as u32);
                self.ops.push(AOp { node: id, out, expr });
                self.nodes[id.idx()].payload = APayload::Op(op_id);
            }
        }
        let (n_nodes, n_reg) = (self.nodes.len() as u32, self.reg.len() as u32);
        let node = &mut self.nodes[id.idx()];
        node.subtree_end = n_nodes;
        node.reg_end = n_reg;
        id
    }

    fn flatten_access(&mut self, acc: &Access) -> AccId {
        let name = self.intern(&acc.array);
        // Flatten index payloads first (they own sub-ranges of `aidx`),
        // then emit this access's contiguous index slice.
        let mut flat: Vec<AIndex> = Vec::with_capacity(acc.indices.len());
        let mut all_affine = true;
        let mut aff_start = self.affs.len() as u32;
        for (i, ix) in acc.indices.iter().enumerate() {
            match ix {
                IndexExpr::Affine(af) => {
                    let id = self.flatten_affine(af);
                    if all_affine && i == 0 {
                        aff_start = id.0;
                    }
                    flat.push(AIndex::Affine(id));
                }
                IndexExpr::Indirect(inner) => {
                    all_affine = false;
                    let id = self.flatten_access(inner);
                    flat.push(AIndex::Indirect(id));
                }
            }
        }
        let idx_start = self.aidx.len() as u32;
        self.aidx.extend(flat);
        let id = AccId(self.accs.len() as u32);
        self.accs.push(AAccess {
            name,
            idx_start,
            idx_len: acc.indices.len() as u32,
            aff_start,
            all_affine,
        });
        id
    }

    fn flatten_affine(&mut self, a: &crate::affine::Affine) -> AffId {
        let term_start = self.terms.len() as u32;
        for &(d, c) in &a.terms {
            self.terms.push((d as u32, c));
        }
        let id = AffId(self.affs.len() as u32);
        self.affs.push(AAffine { term_start, n_terms: a.terms.len() as u32, offset: a.offset });
        id
    }

    /// Flatten an op expression, emitting read region rows in
    /// `Expr::visit_accesses` order (load first, then its indirect index
    /// accesses, one level — mirroring `OpNode::reads`).
    fn flatten_expr(&mut self, e: &Expr, op_node: NodeId) -> ExprId {
        let flat = match e {
            Expr::Load(acc) => {
                let id = self.flatten_access(acc);
                self.push_read_row(op_node, id);
                for i in 0..self.accs[id.idx()].idx_len {
                    let ix = self.aidx[(self.accs[id.idx()].idx_start + i) as usize];
                    if let AIndex::Indirect(inner) = ix {
                        self.push_read_row(op_node, inner);
                    }
                }
                AExpr::Load(id)
            }
            Expr::Const(c) => AExpr::Const(*c),
            Expr::Index(a) => AExpr::Index(self.flatten_affine(a)),
            Expr::Unary(op, x) => {
                let x = self.flatten_expr(x, op_node);
                AExpr::Unary(*op, x)
            }
            Expr::Binary(op, x, y) => {
                let x = self.flatten_expr(x, op_node);
                let y = self.flatten_expr(y, op_node);
                AExpr::Binary(*op, x, y)
            }
        };
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(flat);
        id
    }

    fn push_read_row(&mut self, op_node: NodeId, acc: AccId) {
        self.reg.push(RegRow {
            group: self.group_of[self.accs[acc.idx()].name.idx()],
            write: false,
            op_node,
            acc,
        });
    }

    // -----------------------------------------------------------------
    // navigation
    // -----------------------------------------------------------------

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a program with no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node record.
    pub fn node(&self, id: NodeId) -> &ANode {
        &self.nodes[id.idx()]
    }

    /// All node ids in pre-order (the same order `path::walk` visits).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Scope payload of a node, if it is a scope.
    pub fn scope(&self, id: NodeId) -> Option<&AScope> {
        match &self.nodes[id.idx()].payload {
            APayload::Scope(s) => Some(s),
            APayload::Op(_) => None,
        }
    }

    /// Op payload of a node, if it is an op leaf.
    pub fn op(&self, id: NodeId) -> Option<&AOp> {
        match &self.nodes[id.idx()].payload {
            APayload::Op(o) => Some(&self.ops[o.idx()]),
            APayload::Scope(_) => None,
        }
    }

    /// All op leaves in pre-order (the same order `Program::ops` yields).
    pub fn op_list(&self) -> &[AOp] {
        &self.ops
    }

    /// Root node ids in order.
    pub fn roots(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.n_roots as usize);
        let mut i = 0u32;
        while (i as usize) < self.nodes.len() {
            out.push(NodeId(i));
            i = self.nodes[i as usize].subtree_end;
        }
        out
    }

    /// Direct children of a node, in order.
    pub fn children(&self, id: NodeId) -> Vec<NodeId> {
        let Some(s) = self.scope(id) else { return Vec::new() };
        let mut out = Vec::with_capacity(s.n_children as usize);
        let end = self.nodes[id.idx()].subtree_end;
        let mut c = id.0 + 1;
        while c < end {
            out.push(NodeId(c));
            c = self.nodes[c as usize].subtree_end;
        }
        out
    }

    /// The sibling immediately after `id`, if any.
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        let n = &self.nodes[id.idx()];
        let e = n.subtree_end;
        if (e as usize) < self.nodes.len() && self.nodes[e as usize].parent == n.parent {
            Some(NodeId(e))
        } else {
            None
        }
    }

    /// Parent node, if any.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let p = self.nodes[id.idx()].parent;
        (p != NIL).then_some(NodeId(p))
    }

    /// Reconstruct the tree [`Path`] of a node.
    pub fn path(&self, id: NodeId) -> Path {
        let mut v = Vec::with_capacity(self.nodes[id.idx()].depth as usize + 1);
        let mut cur = id.0;
        loop {
            let n = &self.nodes[cur as usize];
            v.push(n.child_index as usize);
            if n.parent == NIL {
                break;
            }
            cur = n.parent;
        }
        v.reverse();
        Path(v)
    }

    /// Region-access rows of a node's subtree (contiguous by construction).
    pub fn region(&self, id: NodeId) -> &[RegRow] {
        let n = &self.nodes[id.idx()];
        &self.reg[n.reg_start as usize..n.reg_end as usize]
    }

    /// All region-access rows of the whole program, in
    /// `collect_accesses(root)` order.
    pub fn region_all(&self) -> &[RegRow] {
        &self.reg
    }

    // -----------------------------------------------------------------
    // names and buffers
    // -----------------------------------------------------------------

    /// The interned string.
    pub fn name_str(&self, id: NameId) -> &str {
        &self.names[id.idx()]
    }

    /// Id of an already-interned name (buffer names always resolve).
    pub fn name_id(&self, s: &str) -> Option<NameId> {
        self.name_map.get(s).copied()
    }

    /// The buffer *named* `name` (`Program::buffer` semantics).
    pub fn buffer_named(&self, name: NameId) -> Option<&BufferDecl> {
        let i = self.buffer_named[name.idx()];
        (i != NIL).then(|| &self.buffers[i as usize])
    }

    /// The buffer *holding* the array `name` (`Program::buffer_of`).
    pub fn buffer_holding(&self, name: NameId) -> Option<&BufferDecl> {
        let i = self.buffer_holding[name.idx()];
        (i != NIL).then(|| &self.buffers[i as usize])
    }

    /// True when the buffer at `idx` holds an input or output array.
    pub fn buffer_is_interface(&self, idx: usize) -> bool {
        self.interface[idx]
    }

    // -----------------------------------------------------------------
    // accesses, affines, exprs
    // -----------------------------------------------------------------

    /// The access record.
    pub fn access(&self, id: AccId) -> &AAccess {
        &self.accs[id.idx()]
    }

    /// Index list of an access.
    pub fn indices(&self, id: AccId) -> &[AIndex] {
        let a = &self.accs[id.idx()];
        &self.aidx[a.idx_start as usize..(a.idx_start + a.idx_len) as usize]
    }

    /// Affine id of index `dim`, when that index is affine.
    pub fn affine_index(&self, id: AccId, dim: usize) -> Option<AffId> {
        match self.indices(id).get(dim) {
            Some(AIndex::Affine(a)) => Some(*a),
            _ => None,
        }
    }

    /// `(terms, offset)` of an affine function (terms are
    /// `(depth, coeff)`, sorted by depth, no zero coefficients).
    pub fn affine(&self, id: AffId) -> (&[(u32, i64)], i64) {
        let a = &self.affs[id.idx()];
        (&self.terms[a.term_start as usize..(a.term_start + a.n_terms) as usize], a.offset)
    }

    /// Coefficient of `{depth}` (0 when absent).
    pub fn aff_coeff(&self, id: AffId, depth: usize) -> i64 {
        let (terms, _) = self.affine(id);
        terms.iter().find(|&&(d, _)| d as usize == depth).map_or(0, |&(_, c)| c)
    }

    /// True when the affine mentions `{depth}`.
    pub fn aff_uses(&self, id: AffId, depth: usize) -> bool {
        self.aff_coeff(id, depth) != 0
    }

    /// Constant value, when the affine has no terms.
    pub fn aff_as_const(&self, id: AffId) -> Option<i64> {
        let (terms, offset) = self.affine(id);
        terms.is_empty().then_some(offset)
    }

    /// The depth `d` when the affine is exactly `{d}`.
    pub fn aff_as_var(&self, id: AffId) -> Option<usize> {
        let (terms, offset) = self.affine(id);
        match (terms, offset) {
            ([(d, 1)], 0) => Some(*d as usize),
            _ => None,
        }
    }

    /// Structural equality of two affine functions (which coincides with
    /// functional equality thanks to the normalized term invariant).
    pub fn aff_eq(&self, a: AffId, b: AffId) -> bool {
        self.affine(a) == self.affine(b)
    }

    /// True when any index of the access mentions `{depth}` (recursing into
    /// indirect indices, mirroring `Access::uses`).
    pub fn acc_uses(&self, id: AccId, depth: usize) -> bool {
        self.indices(id).iter().any(|ix| match ix {
            AIndex::Affine(a) => self.aff_uses(*a, depth),
            AIndex::Indirect(inner) => self.acc_uses(*inner, depth),
        })
    }

    /// Deep structural equality of two accesses (name + index list),
    /// mirroring `Access == Access`.
    pub fn acc_eq(&self, a: AccId, b: AccId) -> bool {
        let (ra, rb) = (&self.accs[a.idx()], &self.accs[b.idx()]);
        if ra.name != rb.name || ra.idx_len != rb.idx_len {
            return false;
        }
        self.indices(a).iter().zip(self.indices(b)).all(|(x, y)| match (x, y) {
            (AIndex::Affine(p), AIndex::Affine(q)) => self.aff_eq(*p, *q),
            (AIndex::Indirect(p), AIndex::Indirect(q)) => self.acc_eq(*p, *q),
            _ => false,
        })
    }

    /// Equality of the *affine index patterns* of two all-affine accesses
    /// (what `deps::identical_patterns` compares). Returns false when either
    /// access has an indirect index.
    pub fn acc_pattern_eq(&self, a: AccId, b: AccId) -> bool {
        let (ra, rb) = (&self.accs[a.idx()], &self.accs[b.idx()]);
        if !ra.all_affine || !rb.all_affine || ra.idx_len != rb.idx_len {
            return false;
        }
        (0..ra.idx_len).all(|i| self.aff_eq(AffId(ra.aff_start + i), AffId(rb.aff_start + i)))
    }

    /// The expression node.
    pub fn expr(&self, id: ExprId) -> &AExpr {
        &self.exprs[id.idx()]
    }

    /// Reduction detection on a flattened op, mirroring
    /// `OpNode::reduction_combiner`: `out = comb(out, rest)` or
    /// `out = comb(rest, out)` with an associative-commutative combiner.
    pub fn op_reduction_combiner(&self, op: &AOp) -> Option<BinaryOp> {
        if let AExpr::Binary(comb, x, y) = self.exprs[op.expr.idx()] {
            if comb.is_reduction_combiner() {
                for side in [x, y] {
                    if let AExpr::Load(acc) = self.exprs[side.idx()] {
                        if self.acc_eq(acc, op.out) {
                            return Some(comb);
                        }
                    }
                }
            }
        }
        None
    }

    /// True when the op reads the element it writes
    /// (`OpNode::reads_own_output`).
    pub fn op_reads_own_output(&self, op: &AOp) -> bool {
        self.region(op.node)
            .iter()
            .skip(1) // row 0 is the output
            .any(|r| self.acc_eq(r.acc, op.out))
    }

    // -----------------------------------------------------------------
    // round trip
    // -----------------------------------------------------------------

    /// Rebuild the tree [`Program`] this arena represents (bit-identical to
    /// the program captured by [`Arena::build`]).
    pub fn to_program(&self) -> Program {
        Program {
            name: self.name.clone(),
            buffers: self.buffers.clone(),
            inputs: self.inputs.clone(),
            outputs: self.outputs.clone(),
            roots: self.roots().iter().map(|&r| self.rebuild_node(r)).collect(),
        }
    }

    fn rebuild_node(&self, id: NodeId) -> Node {
        match &self.nodes[id.idx()].payload {
            APayload::Scope(s) => Node::Scope(Scope {
                size: s.size.clone(),
                kind: s.kind,
                frep: s.frep,
                ssr: s.ssr,
                children: Arc::new(
                    self.children(id).iter().map(|&c| self.rebuild_node(c)).collect(),
                ),
            }),
            APayload::Op(o) => {
                let op = &self.ops[o.idx()];
                Node::Op(OpNode {
                    out: self.rebuild_access(op.out),
                    expr: self.rebuild_expr(op.expr),
                })
            }
        }
    }

    fn rebuild_access(&self, id: AccId) -> Access {
        Access {
            array: self.names[self.accs[id.idx()].name.idx()].clone(),
            indices: self
                .indices(id)
                .iter()
                .map(|ix| match ix {
                    AIndex::Affine(a) => IndexExpr::Affine(self.rebuild_affine(*a)),
                    AIndex::Indirect(inner) => {
                        IndexExpr::Indirect(Box::new(self.rebuild_access(*inner)))
                    }
                })
                .collect(),
        }
    }

    fn rebuild_affine(&self, id: AffId) -> crate::affine::Affine {
        let (terms, offset) = self.affine(id);
        crate::affine::Affine {
            terms: terms.iter().map(|&(d, c)| (d as usize, c)).collect(),
            offset,
        }
    }

    fn rebuild_expr(&self, id: ExprId) -> Expr {
        match self.exprs[id.idx()] {
            AExpr::Load(a) => Expr::Load(self.rebuild_access(a)),
            AExpr::Const(c) => Expr::Const(c),
            AExpr::Index(a) => Expr::Index(self.rebuild_affine(a)),
            AExpr::Unary(op, x) => Expr::Unary(op, Box::new(self.rebuild_expr(x))),
            AExpr::Binary(op, x, y) => {
                Expr::Binary(op, Box::new(self.rebuild_expr(x)), Box::new(self.rebuild_expr(y)))
            }
        }
    }
}

impl ANode {
    /// Index among the parent's children.
    pub fn child_index(&self) -> usize {
        self.child_index as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::{parse_program, ProgramBuilder};

    fn softmaxish() -> Program {
        let mut b = ProgramBuilder::new("sm");
        b.input("x", &[4, 8]).output("z", &[4, 8]);
        b.temp("m", &[4], crate::Location::Stack);
        b.scope(4, |b| {
            b.op(out("m", &[0]), cst(f64::NEG_INFINITY));
            b.scope(8, |b| {
                b.reduce(out("m", &[0]), BinaryOp::Max, ld("x", &[0, 1]));
            });
            b.scope(8, |b| {
                b.op(out("z", &[0, 1]), sub(ld("x", &[0, 1]), ld("m", &[0])));
            });
        });
        b.build()
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let p = softmaxish();
        let a = Arena::build(&p);
        assert_eq!(a.to_program(), p);
        assert_eq!(crate::exact_text(&a.to_program()), crate::exact_text(&p));
    }

    #[test]
    fn preorder_invariants() {
        let p = softmaxish();
        let a = Arena::build(&p);
        // Pre-order: every node's path resolves to the same node in the tree.
        for id in a.node_ids() {
            let path = a.path(id);
            let tree_node = p.node(&path).expect("path resolves");
            match (&a.node(id).payload, tree_node) {
                (APayload::Scope(s), Node::Scope(ts)) => {
                    assert_eq!(s.size, ts.size);
                    assert_eq!(s.n_children as usize, ts.children.len());
                }
                (APayload::Op(_), Node::Op(_)) => {}
                other => panic!("payload mismatch at {path}: {other:?}"),
            }
        }
        // subtree_end really is the next sibling.
        let root = NodeId(0);
        let kids = a.children(root);
        assert_eq!(kids.len(), 3);
        assert_eq!(a.next_sibling(kids[0]), Some(kids[1]));
        assert_eq!(a.next_sibling(kids[1]), Some(kids[2]));
        assert_eq!(a.next_sibling(kids[2]), None);
        assert_eq!(a.roots(), vec![root]);
    }

    #[test]
    fn region_rows_match_collect_accesses_order() {
        let p = softmaxish();
        let a = Arena::build(&p);
        // Whole-program rows: per op, output then reads.
        let rows = a.region_all();
        let writes: Vec<bool> = rows.iter().map(|r| r.write).collect();
        // op1 (m=const): write only; op2 (max): write + 2 reads (m, x);
        // op3 (sub): write + 2 reads (x, m)
        assert_eq!(writes, vec![true, true, false, false, true, false, false]);
        // groups resolve through the declaring buffer
        let m = a.name_id("m").unwrap();
        assert_eq!(rows[0].group, m);
        // subtree slices are contiguous and nested
        let inner_max = a.children(NodeId(0))[1];
        let sub_rows = a.region(inner_max);
        assert_eq!(sub_rows.len(), 3);
        assert!(sub_rows[0].write && !sub_rows[1].write);
    }

    #[test]
    fn group_falls_back_to_array_name_for_undeclared_arrays() {
        // An access to an array with no declaring buffer keeps its own name
        // as the region group (collect_accesses' fallback).
        let mut b = ProgramBuilder::new("g");
        b.output("z", &[4]);
        b.scope(4, |b| {
            b.op(out("z", &[0]), ld("ghost", &[0]));
        });
        let a = Arena::build(&b.build());
        let rows = a.region_all();
        assert_eq!(a.name_str(rows[1].group), "ghost");
        assert!(a.buffer_named(rows[1].group).is_none());
    }

    #[test]
    fn indirect_access_flattens_and_round_trips() {
        let src = "\
kernel ind
in idx, x
out z
idx i32 [8] heap
x f32 [8] heap
z f32 [8] heap

8 | z[{0}] = x[idx[{0}]]
";
        let p = parse_program(src).expect("parses");
        let a = Arena::build(&p);
        assert_eq!(a.to_program(), p);
        // the load of x is not all-affine; its indirect inner access is
        let rows = a.region_all();
        assert_eq!(rows.len(), 3); // z write, x read, idx read (one level)
        assert!(!a.access(rows[1].acc).all_affine);
        assert!(a.access(rows[2].acc).all_affine);
        assert!(a.acc_uses(rows[1].acc, 0), "indirect uses recurse");
    }

    #[test]
    fn affine_helpers_match_tree_semantics() {
        let p = softmaxish();
        let a = Arena::build(&p);
        // the max-reduction op: out m[{0}], reads m[{0}], x[{0},{1}]
        let op = &a.op_list()[1];
        assert_eq!(a.op_reduction_combiner(op), Some(BinaryOp::Max));
        assert!(a.op_reads_own_output(op));
        let x_read = a.region(op.node)[2].acc;
        let aff0 = a.affine_index(x_read, 0).unwrap();
        let aff1 = a.affine_index(x_read, 1).unwrap();
        assert_eq!(a.aff_as_var(aff0), Some(0));
        assert_eq!(a.aff_as_var(aff1), Some(1));
        assert!(a.aff_uses(aff1, 1) && !a.aff_uses(aff1, 0));
        assert_eq!(a.aff_coeff(aff1, 1), 1);
        assert!(a.acc_pattern_eq(x_read, x_read));
        let m_write = a.region(op.node)[0].acc;
        assert!(!a.acc_pattern_eq(x_read, m_write));
    }
}
