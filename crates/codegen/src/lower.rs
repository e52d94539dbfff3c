//! Lowering from the tree IR to the loop-nest virtual ISA.
//!
//! The hot entry point is [`lower_arena`]: it walks the flat [`Arena`] view
//! (typed ids, contiguous region-access rows) instead of recursing through
//! `Box`/`Arc` tree nodes. [`lower`] is a convenience wrapper that flattens
//! first. The tree-walking reference lowering that the conformance tests
//! pin `lower_arena` against lives in the test module.

use perfdojo_ir::arena::{AccId, AExpr, Arena, ExprId, NodeId};
use perfdojo_ir::{BinaryOp, DType, Location, Program, ScopeKind, UnaryOp};
use std::fmt;

/// Classification of arithmetic instructions by cost class.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpClass {
    /// Add/sub/min/max/relu/abs/neg: 1-cycle-class FP ALU ops.
    AddLike,
    /// Multiplies.
    MulLike,
    /// Fused multiply-add (detected `a*b + c` patterns).
    Fma,
    /// Division and reciprocal.
    DivLike,
    /// Transcendentals (exp, log, tanh, sigmoid, sqrt, rsqrt).
    Special,
}

impl OpClass {
    /// All classes (for tables/tests).
    pub const ALL: [OpClass; 5] =
        [OpClass::AddLike, OpClass::MulLike, OpClass::Fma, OpClass::DivLike, OpClass::Special];
}

/// A flat affine address in *elements*: `offset + sum(stride_d * iter_d)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct AffineAddr {
    /// Per-iterator element strides `(depth, stride)`, sorted by depth.
    pub strides: Vec<(usize, i64)>,
    /// Constant element offset.
    pub offset: i64,
}

impl AffineAddr {
    /// Element stride along iterator `depth` (0 when independent).
    pub fn stride(&self, depth: usize) -> i64 {
        self.strides.iter().find(|&&(d, _)| d == depth).map_or(0, |&(_, s)| s)
    }

    /// True when the address does not move with iterator `depth`.
    pub fn invariant_to(&self, depth: usize) -> bool {
        self.stride(depth) == 0
    }
}

/// A lowered memory reference.
#[derive(Clone, PartialEq, Debug)]
pub struct MemRef {
    /// Buffer name.
    pub buffer: String,
    /// Storage location (drives access cost).
    pub location: Location,
    /// Element size in bytes.
    pub elem_bytes: usize,
    /// Flat affine address over loop iterators.
    pub addr: AffineAddr,
}

/// A lowered operation: the instruction block executed once per innermost
/// iteration for one IR op leaf.
#[derive(Clone, PartialEq, Debug)]
pub struct Stmt {
    /// Input loads (one per access occurrence in the expression).
    pub loads: Vec<MemRef>,
    /// The output store.
    pub store: MemRef,
    /// Arithmetic instruction mix, in evaluation order, with FMA fusion
    /// applied.
    pub flops: Vec<OpClass>,
    /// Height of the expression tree in arithmetic ops — the length of the
    /// intra-iteration dependence chain.
    pub expr_depth: usize,
    /// True when the op reads the element it writes (accumulation): the
    /// chain is then carried across iterations of every depth the output
    /// address is invariant to.
    pub reads_own_output: bool,
}

/// Loop instantiation kinds in the virtual ISA (mirrors
/// [`perfdojo_ir::ScopeKind`] plus resolved vector width).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoopKind {
    /// Plain counted loop.
    Seq,
    /// Fully unrolled.
    Unrolled,
    /// SIMD loop over all lanes at once.
    Vector,
    /// Multicore work-shared loop.
    Parallel,
    /// GPU grid / block / warp-lane dimensions.
    GpuGrid,
    /// GPU block dimension.
    GpuBlock,
    /// GPU warp-lane dimension.
    GpuWarp,
}

impl LoopKind {
    fn from_scope(k: ScopeKind) -> LoopKind {
        match k {
            ScopeKind::Seq => LoopKind::Seq,
            ScopeKind::Unroll => LoopKind::Unrolled,
            ScopeKind::Vector => LoopKind::Vector,
            ScopeKind::Parallel => LoopKind::Parallel,
            ScopeKind::GpuGrid => LoopKind::GpuGrid,
            ScopeKind::GpuBlock => LoopKind::GpuBlock,
            ScopeKind::GpuWarp => LoopKind::GpuWarp,
        }
    }
}

/// A lowered loop.
#[derive(Clone, PartialEq, Debug)]
pub struct Loop {
    /// Trip count.
    pub trip: usize,
    /// Instantiation.
    pub kind: LoopKind,
    /// Snitch stream semantic registers active on this loop.
    pub ssr: bool,
    /// Snitch floating-point repetition active on this loop.
    pub frep: bool,
    /// Iterator depth of this loop (0 = outermost).
    pub depth: usize,
    /// Loop body.
    pub body: Vec<Lowered>,
}

/// A node of the lowered tree.
#[derive(Clone, PartialEq, Debug)]
pub enum Lowered {
    /// A counted loop.
    Loop(Loop),
    /// A straight-line statement.
    Stmt(Stmt),
}

impl Lowered {
    /// The node as a loop, when it is one. Lets callers that walk a lowered
    /// tree (the differential fuzzer's virtual-ISA executor, tests) turn an
    /// unexpected shape into a reportable error instead of a panic.
    pub fn as_loop(&self) -> Option<&Loop> {
        match self {
            Lowered::Loop(l) => Some(l),
            Lowered::Stmt(_) => None,
        }
    }

    /// The node as a statement, when it is one.
    pub fn as_stmt(&self) -> Option<&Stmt> {
        match self {
            Lowered::Stmt(s) => Some(s),
            Lowered::Loop(_) => None,
        }
    }

    /// Iterate all statements in the subtree.
    pub fn stmts(&self) -> Vec<&Stmt> {
        let mut v = Vec::new();
        fn rec<'a>(n: &'a Lowered, v: &mut Vec<&'a Stmt>) {
            match n {
                Lowered::Stmt(s) => v.push(s),
                Lowered::Loop(l) => {
                    for c in &l.body {
                        rec(c, v);
                    }
                }
            }
        }
        rec(self, &mut v);
        v
    }
}

/// Summary of a buffer for the machine models.
#[derive(Clone, PartialEq, Debug)]
pub struct BufferInfo {
    /// Name.
    pub name: String,
    /// Location.
    pub location: Location,
    /// Physical bytes.
    pub bytes: usize,
    /// Element type.
    pub dtype: DType,
}

/// A fully lowered kernel.
#[derive(Clone, PartialEq, Debug)]
pub struct LoweredKernel {
    /// Buffers (physical sizes, locations).
    pub buffers: Vec<BufferInfo>,
    /// Top-level lowered nodes, executed in order.
    pub body: Vec<Lowered>,
}

impl LoweredKernel {
    /// Useful arithmetic work: the dynamic count of arithmetic
    /// *instructions* (FMA fused), the paper's "number of required
    /// arithmetic operations" for peak calculations (§4.1). Saturates at
    /// `u64::MAX`.
    pub fn useful_flops(&self) -> u64 {
        self.body.iter().map(|n| fused_flops(n, 1)).fold(0, u64::saturating_add)
    }
}

/// Lowering failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// An indirect access or dynamic scope survived into codegen.
    Unsupported(String),
    /// An access names an unknown array.
    UnknownArray(String),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::Unsupported(m) => write!(f, "unsupported construct: {m}"),
            LowerError::UnknownArray(a) => write!(f, "unknown array '{a}'"),
        }
    }
}

impl std::error::Error for LowerError {}

/// Lower a (validated) program. Flattens into an [`Arena`] and delegates to
/// [`lower_arena`]; callers that already hold an arena should call that
/// directly.
pub fn lower(p: &Program) -> Result<LoweredKernel, LowerError> {
    lower_arena(&Arena::build(p))
}

/// Lower a program from its flat arena view: identical output (and error)
/// to the tree walker, without per-node pointer chasing or re-collecting
/// read lists.
pub fn lower_arena(a: &Arena) -> Result<LoweredKernel, LowerError> {
    let buffers = a
        .buffers
        .iter()
        .map(|b| BufferInfo {
            name: b.name.clone(),
            location: b.location,
            bytes: b.bytes(),
            dtype: b.dtype,
        })
        .collect();
    let mut body = Vec::new();
    for r in a.roots() {
        body.push(lower_anode(a, r)?);
    }
    Ok(LoweredKernel { buffers, body })
}

fn lower_anode(a: &Arena, id: NodeId) -> Result<Lowered, LowerError> {
    if let Some(s) = a.scope(id) {
        let trip = s
            .size
            .as_const()
            .ok_or_else(|| LowerError::Unsupported("dynamic scope size".into()))?;
        let (kind, ssr, frep) = (LoopKind::from_scope(s.kind), s.ssr, s.frep);
        let mut body = Vec::new();
        for c in a.children(id) {
            body.push(lower_anode(a, c)?);
        }
        Ok(Lowered::Loop(Loop {
            trip,
            kind,
            ssr,
            frep,
            depth: a.node(id).depth as usize,
            body,
        }))
    } else {
        let op = a.op(id).expect("node is scope or op");
        // Region rows are the out access then the reads in `OpNode::reads`
        // order, so the store is lowered first exactly like the tree walker
        // (error precedence included).
        let rows = a.region(id);
        let store = lower_aaccess(a, rows[0].acc)?;
        let mut loads = Vec::with_capacity(rows.len() - 1);
        for r in rows.iter().skip(1) {
            loads.push(lower_aaccess(a, r.acc)?);
        }
        let mut flops = Vec::new();
        let expr_depth = classify_arena(a, op.expr, &mut flops);
        Ok(Lowered::Stmt(Stmt {
            loads,
            store,
            flops,
            expr_depth,
            reads_own_output: a.op_reads_own_output(op),
        }))
    }
}

fn lower_aaccess(a: &Arena, acc: AccId) -> Result<MemRef, LowerError> {
    let rec = *a.access(acc);
    let buf = a
        .buffer_holding(rec.name)
        .ok_or_else(|| LowerError::UnknownArray(a.name_str(rec.name).to_string()))?;
    if !rec.all_affine {
        return Err(LowerError::Unsupported(format!(
            "indirect access to {}",
            a.name_str(rec.name)
        )));
    }
    let strides = buf.strides();
    let mut addr = AffineAddr::default();
    let mut by_depth: std::collections::BTreeMap<usize, i64> = std::collections::BTreeMap::new();
    let n = a.indices(acc).len();
    for dim in 0..n {
        let af = a.affine_index(acc, dim).expect("all indices affine");
        let s = strides[dim] as i64;
        let (terms, offset) = a.affine(af);
        addr.offset += s * offset;
        for &(d, c) in terms {
            *by_depth.entry(d as usize).or_insert(0) += s * c;
        }
    }
    addr.strides = by_depth.into_iter().filter(|&(_, s)| s != 0).collect();
    Ok(MemRef {
        buffer: buf.name.clone(),
        location: buf.location,
        elem_bytes: buf.dtype.bytes(),
        addr,
    })
}

/// [`classify`] on the flattened expression graph.
fn classify_arena(a: &Arena, e: ExprId, flops: &mut Vec<OpClass>) -> usize {
    match *a.expr(e) {
        AExpr::Load(_) | AExpr::Const(_) | AExpr::Index(_) => 0,
        AExpr::Unary(op, x) => {
            let d = classify_arena(a, x, flops);
            flops.push(match op {
                UnaryOp::Neg | UnaryOp::Relu | UnaryOp::Abs => OpClass::AddLike,
                UnaryOp::Recip => OpClass::DivLike,
                UnaryOp::Exp
                | UnaryOp::Log
                | UnaryOp::Sqrt
                | UnaryOp::Rsqrt
                | UnaryOp::Tanh
                | UnaryOp::Sigmoid => OpClass::Special,
            });
            d + 1
        }
        AExpr::Binary(op, x, y) => {
            // FMA fusion: Add(Mul(x,y), z) or Add(z, Mul(x,y))
            if op == BinaryOp::Add {
                for (m, other) in [(x, y), (y, x)] {
                    if let AExpr::Binary(BinaryOp::Mul, mx, my) = *a.expr(m) {
                        let dx = classify_arena(a, mx, flops);
                        let dy = classify_arena(a, my, flops);
                        let dz = classify_arena(a, other, flops);
                        flops.push(OpClass::Fma);
                        return dx.max(dy).max(dz) + 1;
                    }
                }
            }
            let da = classify_arena(a, x, flops);
            let db = classify_arena(a, y, flops);
            flops.push(match op {
                BinaryOp::Add | BinaryOp::Sub | BinaryOp::Max | BinaryOp::Min => OpClass::AddLike,
                BinaryOp::Mul => OpClass::MulLike,
                BinaryOp::Div => OpClass::DivLike,
            });
            da.max(db) + 1
        }
    }
}

/// [`LoweredKernel::useful_flops`] of `n`, run `mult` times.
fn fused_flops(n: &Lowered, mult: u64) -> u64 {
    match n {
        Lowered::Stmt(s) => mult.saturating_mul(s.flops.len() as u64),
        Lowered::Loop(l) => {
            let m = mult.saturating_mul(l.trip as u64);
            l.body.iter().map(|c| fused_flops(c, m)).fold(0, u64::saturating_add)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdojo_ir::builder::*;
    use perfdojo_ir::{Access, Expr, Node, ProgramBuilder};

    /// Reference tree-walking lowering: the oracle `lower_arena` must match.
    fn lower_tree(p: &Program) -> Result<LoweredKernel, LowerError> {
        let buffers = p
            .buffers
            .iter()
            .map(|b| BufferInfo {
                name: b.name.clone(),
                location: b.location,
                bytes: b.bytes(),
                dtype: b.dtype,
            })
            .collect();
        let mut body = Vec::new();
        for n in &p.roots {
            body.push(lower_node(p, n, 0)?);
        }
        Ok(LoweredKernel { buffers, body })
    }

    fn lower_node(p: &Program, n: &Node, depth: usize) -> Result<Lowered, LowerError> {
        match n {
            Node::Scope(s) => {
                let trip = s
                    .size
                    .as_const()
                    .ok_or_else(|| LowerError::Unsupported("dynamic scope size".into()))?;
                let mut body = Vec::new();
                for c in s.children.iter() {
                    body.push(lower_node(p, c, depth + 1)?);
                }
                Ok(Lowered::Loop(Loop {
                    trip,
                    kind: LoopKind::from_scope(s.kind),
                    ssr: s.ssr,
                    frep: s.frep,
                    depth,
                    body,
                }))
            }
            Node::Op(op) => {
                let store = lower_access(p, &op.out)?;
                let mut loads = Vec::new();
                for r in op.reads() {
                    loads.push(lower_access(p, r)?);
                }
                let mut flops = Vec::new();
                let expr_depth = classify(&op.expr, &mut flops);
                Ok(Lowered::Stmt(Stmt {
                    loads,
                    store,
                    flops,
                    expr_depth,
                    reads_own_output: op.reads_own_output(),
                }))
            }
        }
    }

    fn lower_access(p: &Program, acc: &Access) -> Result<MemRef, LowerError> {
        let buf =
            p.buffer_of(&acc.array).ok_or_else(|| LowerError::UnknownArray(acc.array.clone()))?;
        let indices = acc
            .affine_indices()
            .ok_or_else(|| LowerError::Unsupported(format!("indirect access to {}", acc.array)))?;
        let strides = buf.strides();
        let mut addr = AffineAddr::default();
        let mut by_depth: std::collections::BTreeMap<usize, i64> =
            std::collections::BTreeMap::new();
        for (dim, ix) in indices.iter().enumerate() {
            let s = strides[dim] as i64;
            addr.offset += s * ix.offset;
            for &(d, c) in &ix.terms {
                *by_depth.entry(d).or_insert(0) += s * c;
            }
        }
        addr.strides = by_depth.into_iter().filter(|&(_, s)| s != 0).collect();
        Ok(MemRef {
            buffer: buf.name.clone(),
            location: buf.location,
            elem_bytes: buf.dtype.bytes(),
            addr,
        })
    }

    /// Classify an expression into an instruction mix (with `a*b + c` fused to
    /// FMA) and return the dependence-chain depth.
    fn classify(e: &Expr, flops: &mut Vec<OpClass>) -> usize {
        match e {
            Expr::Load(_) | Expr::Const(_) | Expr::Index(_) => 0,
            Expr::Unary(op, x) => {
                let d = classify(x, flops);
                flops.push(match op {
                    UnaryOp::Neg | UnaryOp::Relu | UnaryOp::Abs => OpClass::AddLike,
                    UnaryOp::Recip => OpClass::DivLike,
                    UnaryOp::Exp
                    | UnaryOp::Log
                    | UnaryOp::Sqrt
                    | UnaryOp::Rsqrt
                    | UnaryOp::Tanh
                    | UnaryOp::Sigmoid => OpClass::Special,
                });
                d + 1
            }
            Expr::Binary(op, a, b) => {
                // FMA fusion: Add(Mul(x,y), z) or Add(z, Mul(x,y))
                if *op == BinaryOp::Add {
                    for (m, other) in [(a, b), (b, a)] {
                        if let Expr::Binary(BinaryOp::Mul, x, y) = m.as_ref() {
                            let dx = classify(x, flops);
                            let dy = classify(y, flops);
                            let dz = classify(other, flops);
                            flops.push(OpClass::Fma);
                            return dx.max(dy).max(dz) + 1;
                        }
                    }
                }
                let da = classify(a, flops);
                let db = classify(b, flops);
                flops.push(match op {
                    BinaryOp::Add | BinaryOp::Sub | BinaryOp::Max | BinaryOp::Min => {
                        OpClass::AddLike
                    }
                    BinaryOp::Mul => OpClass::MulLike,
                    BinaryOp::Div => OpClass::DivLike,
                });
                da.max(db) + 1
            }
        }
    }

    /// The node as a loop, or a descriptive error — keeps structural
    /// mismatches reportable instead of aborting (the fuzzer relies on the
    /// same [`Lowered::as_loop`]/[`Lowered::as_stmt`] accessors).
    fn loop_of(n: &Lowered) -> Result<&Loop, String> {
        n.as_loop().ok_or_else(|| format!("expected loop, got {n:?}"))
    }

    fn stmt_of(n: &Lowered) -> Result<&Stmt, String> {
        n.as_stmt().ok_or_else(|| format!("expected statement, got {n:?}"))
    }

    #[test]
    fn addresses_fold_strides() -> Result<(), String> {
        let mut b = ProgramBuilder::new("t");
        b.input("x", &[4, 8]).output("z", &[4, 8]);
        b.scopes(&[4, 8], |b| {
            b.op(out("z", &[0, 1]), mul(ld("x", &[0, 1]), cst(2.0)));
        });
        let k = lower(&b.build()).map_err(|e| e.to_string())?;
        let l0 = loop_of(&k.body[0])?;
        let l1 = loop_of(&l0.body[0])?;
        let s = stmt_of(&l1.body[0])?;
        // row-major [4,8]: stride 8 on depth 0, stride 1 on depth 1
        assert_eq!(s.store.addr.stride(0), 8);
        assert_eq!(s.store.addr.stride(1), 1);
        assert_eq!(s.loads[0].addr.stride(1), 1);
        assert_eq!(s.flops, vec![OpClass::MulLike]);
        Ok(())
    }

    #[test]
    fn padding_changes_lowered_stride() {
        let mut b = ProgramBuilder::new("t");
        let mut decl = perfdojo_ir::BufferDecl::new("z", perfdojo_ir::DType::F32, &[4, 300], perfdojo_ir::Location::Heap);
        decl.dims[1].pad_to = 320;
        b.buffer(decl);
        b.output_existing("z");
        b.scopes(&[4, 300], |b| {
            b.op(out("z", &[0, 1]), cst(1.0));
        });
        let k = lower(&b.build()).unwrap();
        let s = k.body[0].stmts()[0].clone();
        assert_eq!(s.store.addr.stride(0), 320);
    }

    #[test]
    fn fma_fusion_detected() {
        let mut b = ProgramBuilder::new("t");
        b.input("x", &[8]).input("y", &[8]).output("z", &[8]);
        b.scope(8, |b| {
            b.op(out("z", &[0]), add(mul(ld("x", &[0]), ld("y", &[0])), ld("z", &[0])));
        });
        let k = lower(&b.build()).unwrap();
        let s = k.body[0].stmts()[0].clone();
        assert_eq!(s.flops, vec![OpClass::Fma]);
        assert!(s.reads_own_output);
        assert_eq!(s.expr_depth, 1);
        // one fused instruction per iteration
        assert_eq!(k.useful_flops(), 8);
    }

    #[test]
    fn reduction_accumulator_invariant_address() -> Result<(), String> {
        let mut b = ProgramBuilder::new("t");
        b.input("x", &[4, 8]).output("s", &[4]);
        b.scope(4, |b| {
            b.op(out("s", &[0]), cst(0.0));
            b.scope(8, |b| {
                b.reduce(out("s", &[0]), perfdojo_ir::BinaryOp::Add, ld("x", &[0, 1]));
            });
        });
        let k = lower(&b.build()).map_err(|e| e.to_string())?;
        let l0 = loop_of(&k.body[0])?;
        let l1 = loop_of(&l0.body[1])?;
        let s = stmt_of(&l1.body[0])?;
        assert!(s.store.addr.invariant_to(1));
        assert!(!s.store.addr.invariant_to(0));
        assert!(s.reads_own_output);
        Ok(())
    }

    #[test]
    fn reuse_dim_gives_zero_stride() {
        let mut b = ProgramBuilder::new("t");
        let mut decl = perfdojo_ir::BufferDecl::new("t", perfdojo_ir::DType::F32, &[4, 8], perfdojo_ir::Location::Stack);
        decl.dims[1].materialized = false;
        b.input("x", &[4, 8]).buffer(decl).output("z", &[4, 8]);
        b.scopes(&[4, 8], |b| {
            b.op(out("t", &[0, 1]), mul(ld("x", &[0, 1]), cst(2.0)));
            b.op(out("z", &[0, 1]), add(ld("t", &[0, 1]), cst(1.0)));
        });
        let k = lower(&b.build()).unwrap();
        let stmts = k.body[0].stmts();
        assert_eq!(stmts[0].store.addr.stride(1), 0);
        assert_eq!(stmts[0].store.addr.stride(0), 1);
    }

    #[test]
    fn arena_lowering_matches_tree_lowering() {
        // Bit-identical lowered kernels across the suite and a few
        // transformed shapes exercised elsewhere: the incremental engine's
        // correctness contract hangs off this equality.
        for k in perfdojo_kernels::small_suite() {
            let via_arena = lower(&k.program);
            let via_tree = lower_tree(&k.program);
            assert_eq!(via_arena, via_tree, "lowering diverges on {}", k.label);
        }
    }

    #[test]
    fn arena_lowering_matches_tree_errors() {
        // Indirect access: same error, same precedence (store before loads,
        // unknown array before indirection).
        let src = "\
kernel ind
in idx, x
out z
idx i32 [8] heap
x f32 [8] heap
z f32 [8] heap

8 | z[{0}] = x[idx[{0}]]
";
        let p = perfdojo_ir::parse_program(src).unwrap();
        assert_eq!(lower(&p), lower_tree(&p));
        assert!(matches!(lower(&p), Err(LowerError::Unsupported(_))));

        let mut b = ProgramBuilder::new("ghost");
        b.output("z", &[4]);
        b.scope(4, |b| {
            b.op(out("z", &[0]), ld("nowhere", &[0]));
        });
        let p = b.build();
        assert_eq!(lower(&p), lower_tree(&p));
        assert_eq!(lower(&p), Err(LowerError::UnknownArray("nowhere".into())));
    }

    #[test]
    fn kinds_and_flags_carried() -> Result<(), String> {
        let src = "\
kernel k
in x
out z
x f32 [64] heap
z f32 [64] heap

64:s:f | z[{0}] = (x[{0}] * 2.0)
";
        let p = perfdojo_ir::parse_program(src).map_err(|e| format!("{e:?}"))?;
        let k = lower(&p).map_err(|e| e.to_string())?;
        let l = loop_of(&k.body[0])?;
        assert!(l.ssr && l.frep);
        assert_eq!(l.trip, 64);
        Ok(())
    }
}
