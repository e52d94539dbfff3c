//! Scope-structure transformations: tiling, fusion, fission, interchange,
//! reduction splitting, and instantiation annotations (unroll / vectorize /
//! parallelize / GPU bindings / SSR / FREP).
//!
//! Each `apply_*` performs one atomic rewrite after re-checking
//! applicability on the tree, so a stale location can never corrupt
//! semantics. These checks are the specification of where a transformation
//! applies (paper §2.2 "applicability detection"): the arena scans in
//! [`crate::finders`] must offer exactly the locations they accept, and
//! the conformance test there pins it.

use crate::deps;
use crate::TransformError;
use perfdojo_ir::{
    Affine, BufferDecl, DType, Expr, Location, Node, OpNode, Path, Program, Scope, ScopeKind,
};

/// Upper bound on unrolled trip counts (beyond this, code size explodes and
/// no modelled target benefits).
pub const MAX_UNROLL: usize = 64;

fn scope_at<'a>(p: &'a Program, path: &Path) -> Result<&'a Scope, TransformError> {
    p.node(path)
        .and_then(Node::as_scope)
        .ok_or_else(|| TransformError::NotApplicable(format!("no scope at {path}")))
}

fn expect_seq(s: &Scope, what: &str) -> Result<(), TransformError> {
    if s.kind != ScopeKind::Seq || s.frep || s.ssr {
        return Err(TransformError::NotApplicable(format!(
            "{what} requires a plain sequential scope"
        )));
    }
    Ok(())
}

/// Remap iterator depths in an entire subtree.
fn remap_subtree(node: &Node, f: &mut dyn FnMut(usize) -> usize) -> Node {
    match node {
        Node::Op(op) => Node::Op(OpNode {
            out: op.out.remap_depths(f),
            expr: op.expr.remap_depths(f),
        }),
        Node::Scope(s) => Node::Scope(Scope {
            size: s.size.clone(),
            kind: s.kind,
            frep: s.frep,
            ssr: s.ssr,
            children: std::sync::Arc::new(s.children.iter().map(|c| remap_subtree(c, f)).collect()),
        }),
    }
}

/// Substitute iterator `{depth}` by an affine expression in a subtree.
fn substitute_subtree(node: &Node, depth: usize, repl: &Affine) -> Node {
    match node {
        Node::Op(op) => Node::Op(OpNode {
            out: op.out.substitute(depth, repl),
            expr: op.expr.substitute(depth, repl),
        }),
        Node::Scope(s) => Node::Scope(Scope {
            size: s.size.clone(),
            kind: s.kind,
            frep: s.frep,
            ssr: s.ssr,
            children: std::sync::Arc::new(s.children.iter().map(|c| substitute_subtree(c, depth, repl)).collect()),
        }),
    }
}

// ---------------------------------------------------------------------------
// split_scope (tiling)
// ---------------------------------------------------------------------------

/// Tile the scope at `path` into `trip/tile` × `tile`. Iteration order is
/// preserved exactly (`i = i_outer*tile + i_inner` in lexicographic order),
/// so the rewrite is unconditionally semantics-preserving.
pub fn apply_split(p: &Program, path: &Path, tile: usize) -> Result<Program, TransformError> {
    let s = scope_at(p, path)?;
    expect_seq(s, "split_scope")?;
    let Some(n) = s.size.as_const() else {
        return Err(TransformError::NotApplicable(format!("split_scope at {path}: dynamic trip")));
    };
    if tile <= 1 || tile >= n || n % tile != 0 {
        return Err(TransformError::NotApplicable(format!(
            "tile {tile} does not split trip {n}"
        )));
    }
    let d = path.len() - 1;
    // Depths strictly below the split point shift by one…
    let mut shifted: Vec<Node> = s
        .children
        .iter()
        .map(|c| remap_subtree(c, &mut |e| if e > d { e + 1 } else { e }))
        .collect();
    // …then `{d}` becomes `{d}*tile + {d+1}`.
    let repl = Affine::scaled(d, tile as i64, 0).add(&Affine::var(d + 1));
    shifted = shifted.iter().map(|c| substitute_subtree(c, d, &repl)).collect();
    let inner = Scope::new(tile, shifted);
    let outer = Scope::new(n / tile, vec![Node::Scope(inner)]);
    let mut out = p.clone();
    *out.node_mut(path).unwrap() = Node::Scope(outer);
    Ok(out)
}

// ---------------------------------------------------------------------------
// join_scopes (fusion)
// ---------------------------------------------------------------------------

/// The scope at `path` fuses with its immediately following sibling scope
/// (paper `join_scopes`): both plain, one constant trip count, and their
/// regions fusable at the shared depth.
fn join_applicable(p: &Program, path: &Path) -> bool {
    let Some(s1) = p.node(path).and_then(Node::as_scope) else { return false };
    let Some(next) = path.next_sibling() else { return false };
    let Some(s2) = p.node(&next).and_then(Node::as_scope) else { return false };
    if s1.kind != ScopeKind::Seq || s2.kind != ScopeKind::Seq {
        return false;
    }
    if s1.frep || s1.ssr || s2.frep || s2.ssr {
        return false;
    }
    if s1.size.as_const() != s2.size.as_const() || s1.size.as_const().is_none() {
        return false;
    }
    let d = path.len() - 1;
    deps::regions_fusable(p, path, &next, d)
}

/// Fuse the scope at `path` with its next sibling scope.
pub fn apply_join(p: &Program, path: &Path) -> Result<Program, TransformError> {
    if !join_applicable(p, path) {
        return Err(TransformError::NotApplicable(format!("join_scopes at {path}")));
    }
    let next = path.next_sibling().unwrap();
    let s2_children = match p.node(&next) {
        Some(Node::Scope(s2)) => s2.children.clone(),
        _ => unreachable!("checked by join_applicable"),
    };
    let mut out = p.clone();
    if let Some(Node::Scope(s1)) = out.node_mut(path) {
        s1.children_mut().extend(s2_children.iter().cloned());
    }
    let (sibs, idx) = perfdojo_ir::path::siblings_mut(&mut out.roots, &next)
        .ok_or_else(|| TransformError::NotApplicable("sibling lookup failed".into()))?;
    sibs.remove(idx);
    Ok(out)
}

// ---------------------------------------------------------------------------
// fission_scope
// ---------------------------------------------------------------------------

/// The children of the constant-trip scope at `path` split at `at` into
/// two sibling scopes.
fn fission_applicable(p: &Program, path: &Path, at: usize) -> bool {
    let Some(s) = p.node(path).and_then(Node::as_scope) else { return false };
    if at == 0 || at >= s.children.len() || s.size.as_const().is_none() {
        return false;
    }
    let d = path.len() - 1;
    // Build the two half-programs virtually by checking pairwise child
    // regions: every (i < at, j >= at) pair must satisfy the fusion
    // condition (the same identical-pattern rule makes interleaving and
    // de-interleaving both safe).
    for i in 0..at {
        for j in at..s.children.len() {
            if !deps::regions_fusable(p, &path.child(i), &path.child(j), d) {
                return false;
            }
        }
    }
    true
}

/// Distribute the scope at `path` into `[0, at)` and `[at, len)` halves.
pub fn apply_fission(p: &Program, path: &Path, at: usize) -> Result<Program, TransformError> {
    let s = scope_at(p, path)?;
    expect_seq(s, "fission_scope")?;
    if !fission_applicable(p, path, at) {
        return Err(TransformError::NotApplicable(format!("fission at {path}:{at}")));
    }
    let trip = s.trip();
    let first = Scope::new(trip, s.children[..at].to_vec());
    let second = Scope::new(trip, s.children[at..].to_vec());
    let mut out = p.clone();
    *out.node_mut(path).unwrap() = Node::Scope(first);
    let (sibs, idx) = perfdojo_ir::path::siblings_mut(&mut out.roots, path)
        .ok_or_else(|| TransformError::NotApplicable("sibling lookup failed".into()))?;
    sibs.insert(idx + 1, Node::Scope(second));
    Ok(out)
}

// ---------------------------------------------------------------------------
// interchange_scopes
// ---------------------------------------------------------------------------

/// The scope at `path` swaps with its single child scope.
fn interchange_applicable(p: &Program, path: &Path) -> bool {
    let Some(s) = p.node(path).and_then(Node::as_scope) else { return false };
    if s.kind != ScopeKind::Seq || s.frep || s.ssr || s.children.len() != 1 {
        return false;
    }
    let Some(c) = s.children[0].as_scope() else { return false };
    if c.kind != ScopeKind::Seq || c.frep || c.ssr {
        return false;
    }
    if s.size.as_const().is_none() || c.size.as_const().is_none() {
        return false;
    }
    deps::interchange_safe(p, path)
}

/// Swap the scope at `path` with its single child scope (loop interchange).
pub fn apply_interchange(p: &Program, path: &Path) -> Result<Program, TransformError> {
    if !interchange_applicable(p, path) {
        return Err(TransformError::NotApplicable(format!("interchange at {path}")));
    }
    let s = scope_at(p, path)?;
    let c = s.children[0].as_scope().unwrap();
    let d = path.len() - 1;
    let (sn, cn) = (s.trip(), c.trip());
    // Swap iterator roles {d} <-> {d+1} in the grandchildren.
    let grandchildren: Vec<Node> = c
        .children
        .iter()
        .map(|g| {
            remap_subtree(g, &mut |e| {
                if e == d {
                    d + 1
                } else if e == d + 1 {
                    d
                } else {
                    e
                }
            })
        })
        .collect();
    let new_inner = Scope::new(sn, grandchildren);
    let new_outer = Scope::new(cn, vec![Node::Scope(new_inner)]);
    let mut out = p.clone();
    *out.node_mut(path).unwrap() = Node::Scope(new_outer);
    Ok(out)
}

// ---------------------------------------------------------------------------
// reorder_ops (swap adjacent siblings)
// ---------------------------------------------------------------------------

/// Swap the node at `path` with its next sibling.
pub fn apply_reorder(p: &Program, path: &Path) -> Result<Program, TransformError> {
    let next = path
        .next_sibling()
        .filter(|n| p.node(n).is_some())
        .ok_or_else(|| TransformError::NotApplicable("no next sibling".into()))?;
    if !deps::siblings_commute(p, path, &next) {
        return Err(TransformError::NotApplicable(format!("siblings at {path} do not commute")));
    }
    let mut out = p.clone();
    let (sibs, idx) = perfdojo_ir::path::siblings_mut(&mut out.roots, path)
        .ok_or_else(|| TransformError::NotApplicable("sibling lookup failed".into()))?;
    sibs.swap(idx, idx + 1);
    Ok(out)
}

// ---------------------------------------------------------------------------
// split_reduction (reduction privatization into a partial-sum array)
// ---------------------------------------------------------------------------

/// `split_reduction` with `tile` applies to a plain scope whose only child
/// is an associative reduction update independent of the scope's iterator,
/// with trip divisible by `tile`.
fn split_reduction_applicable(p: &Program, path: &Path, tile: usize) -> bool {
    let Some(s) = p.node(path).and_then(Node::as_scope) else { return false };
    if s.kind != ScopeKind::Seq || s.frep || s.ssr || s.children.len() != 1 {
        return false;
    }
    let Some(n) = s.size.as_const() else { return false };
    if tile <= 1 || tile >= n || n % tile != 0 {
        return false;
    }
    let Some(op) = s.children[0].as_op() else { return false };
    let Some(_comb) = op.reduction_combiner() else { return false };
    let d = path.len() - 1;
    if op.out.uses(d) {
        return false; // not a reduction over this scope
    }
    // The accumulator must be addressable outside: affine indices only.
    op.out.affine_indices().is_some() && privatizing_ancestors(p, path).is_some()
}

/// `(depth, trip)` of every parallel/GPU ancestor of `path`, outermost
/// first: under each, a partial accumulator needs one private slot per
/// iteration. `None` when one of them has no constant trip count.
fn privatizing_ancestors(p: &Program, path: &Path) -> Option<Vec<(usize, usize)>> {
    let mut lead = Vec::new();
    for k in 1..path.len() {
        if let Some(Node::Scope(anc)) = p.node(&Path(path.0[..k].to_vec())) {
            if matches!(
                anc.kind,
                ScopeKind::Parallel | ScopeKind::GpuGrid | ScopeKind::GpuBlock | ScopeKind::GpuWarp
            ) {
                lead.push((k - 1, anc.size.as_const()?));
            }
        }
    }
    Some(lead)
}

/// Split the reduction at `path` into partial accumulators:
///
/// ```text
/// N { acc = comb(acc, e) }
/// ```
/// becomes
/// ```text
/// T { part[{d}] = identity }
/// N/T { T { part[{d+1}] = comb(part[{d+1}], e') } }
/// T { acc = comb(acc, part[{d}]) }
/// ```
///
/// Associativity and commutativity of the combiner make the regrouping
/// exact up to floating-point reassociation (the paper accepts the same
/// through numerical-tolerance verification).
pub fn apply_split_reduction(
    p: &Program,
    path: &Path,
    tile: usize,
) -> Result<Program, TransformError> {
    if !split_reduction_applicable(p, path, tile) {
        return Err(TransformError::NotApplicable(format!("split_reduction at {path}")));
    }
    let s = scope_at(p, path)?;
    let n = s.trip();
    let op = s.children[0].as_op().unwrap().clone();
    let comb = op.reduction_combiner().unwrap();
    let identity = comb.identity().unwrap();
    let d = path.len() - 1;

    // Fresh partial buffer name.
    let mut part = format!("{}_part", op.out.array);
    let mut n_suffix = 0;
    while p.buffer_of(&part).is_some() {
        n_suffix += 1;
        part = format!("{}_part{}", op.out.array, n_suffix);
    }

    // Privatization: under parallel/GPU ancestors the partial accumulator
    // must not be shared between concurrent iterations, so it gains one
    // leading dimension per such ancestor, indexed by that iterator.
    let lead = privatizing_ancestors(p, path).expect("checked by split_reduction_applicable");
    let lead_idx: Vec<Affine> = lead.iter().map(|&(dep, _)| Affine::var(dep)).collect();
    let mut idx_d = lead_idx.clone();
    idx_d.push(Affine::var(d));
    let mut idx_d1 = lead_idx;
    idx_d1.push(Affine::var(d + 1));
    let part_acc_d = perfdojo_ir::Access::new(&part, idx_d);
    let part_acc_d1 = perfdojo_ir::Access::new(&part, idx_d1);

    // init: T { part[{d}] = identity }
    let init = Scope::new(
        tile,
        vec![Node::Op(OpNode::new(part_acc_d.clone(), Expr::Const(identity)))],
    );

    // main: N/T { T { part[{d+1}] = comb(part[{d+1}], e') } }
    // e' = e with depths > d shifted and {d} -> {d}*T + {d+1}; the
    // accumulator read is replaced by the partial accumulator.
    let rest = strip_accumulator(&op.expr, &op.out)
        .ok_or_else(|| TransformError::NotApplicable("not an accumulation".into()))?;
    let shifted = rest.remap_depths(&mut |e| if e > d { e + 1 } else { e });
    let repl = Affine::scaled(d, tile as i64, 0).add(&Affine::var(d + 1));
    let rewritten = shifted.substitute(d, &repl);
    let main_op = OpNode::new(
        part_acc_d1.clone(),
        Expr::Binary(comb, Box::new(Expr::Load(part_acc_d1.clone())), Box::new(rewritten)),
    );
    let main = Scope::new(n / tile, vec![Node::Scope(Scope::new(tile, vec![Node::Op(main_op)]))]);

    // final: T { acc = comb(acc, part[{d}]) }
    let final_op = OpNode::new(
        op.out.clone(),
        Expr::Binary(
            comb,
            Box::new(Expr::Load(op.out.clone())),
            Box::new(Expr::Load(part_acc_d)),
        ),
    );
    let fin = Scope::new(tile, vec![Node::Op(final_op)]);

    let mut out = p.clone();
    let mut shape: Vec<usize> = lead.iter().map(|&(_, t)| t).collect();
    shape.push(tile);
    let bytes: usize = shape.iter().product::<usize>() * 4;
    let loc = if bytes <= 64 * 1024 { Location::Stack } else { Location::Heap };
    out.buffers.push(BufferDecl::new(&part, DType::F32, &shape, loc));
    *out.node_mut(path).unwrap() = Node::Scope(main);
    let (sibs, idx) = perfdojo_ir::path::siblings_mut(&mut out.roots, path)
        .ok_or_else(|| TransformError::NotApplicable("sibling lookup failed".into()))?;
    sibs.insert(idx, Node::Scope(init));
    sibs.insert(idx + 2, Node::Scope(fin));
    Ok(out)
}

/// Remove the accumulator operand from a reduction expression, returning
/// the combined value: for `comb(acc, e)` or `comb(e, acc)` returns `e`.
fn strip_accumulator(e: &Expr, acc: &perfdojo_ir::Access) -> Option<Expr> {
    if let Expr::Binary(_, a, b) = e {
        if matches!(a.as_ref(), Expr::Load(x) if x == acc) {
            return Some((**b).clone());
        }
        if matches!(b.as_ref(), Expr::Load(x) if x == acc) {
            return Some((**a).clone());
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Instantiation annotations: unroll / vectorize / parallelize / GPU / seq
// ---------------------------------------------------------------------------

/// Mark the scope unrolled (performance-only; semantics unchanged): plain,
/// constant trip ≤ [`MAX_UNROLL`].
pub fn apply_unroll(p: &Program, path: &Path) -> Result<Program, TransformError> {
    let s = scope_at(p, path)?;
    if s.kind != ScopeKind::Seq || s.frep || s.size.as_const().is_none_or(|n| n > MAX_UNROLL) {
        return Err(TransformError::NotApplicable(format!("unroll at {path}")));
    }
    let mut out = p.clone();
    out.node_mut(path).unwrap().as_scope_mut().unwrap().kind = ScopeKind::Unroll;
    Ok(out)
}

/// Vectorizable at `width` (paper §2): the trip count equals the vector
/// width and the scope wraps a single instruction with vectorizable
/// arguments — unit-stride or broadcast.
fn vectorize_applicable(p: &Program, path: &Path, width: usize) -> bool {
    let Some(s) = p.node(path).and_then(Node::as_scope) else { return false };
    if s.kind != ScopeKind::Seq || s.frep || s.ssr {
        return false;
    }
    if s.size.as_const() != Some(width) {
        return false;
    }
    if s.children.len() != 1 {
        return false;
    }
    let Some(op) = s.children[0].as_op() else { return false };
    let d = path.len() - 1;
    // The output must advance with {d} through a unit-stride materialized
    // lane dimension; inputs must be unit-stride or broadcast.
    access_lane_ok(p, &op.out, d, true)
        && op.reads().iter().all(|r| access_lane_ok(p, r, d, false))
}

/// An access is vector-lane compatible when it is affine and either ignores
/// the lane iterator (broadcast; not allowed for the output) or uses it with
/// coefficient 1 in the innermost materialized dimension (unit stride).
fn access_lane_ok(p: &Program, acc: &perfdojo_ir::Access, d: usize, is_out: bool) -> bool {
    let Some(indices) = acc.affine_indices() else { return false };
    let Some(buf) = p.buffer_of(&acc.array) else { return false };
    let used: Vec<usize> = (0..indices.len()).filter(|&j| indices[j].uses(d)).collect();
    if used.is_empty() {
        return !is_out;
    }
    if used.len() > 1 {
        return false;
    }
    let j = used[0];
    if indices[j].coeff(d) != 1 {
        return false;
    }
    // j must be the innermost materialized dimension for unit stride.
    let innermost = (0..buf.dims.len()).rev().find(|&k| buf.dims[k].materialized);
    innermost == Some(j) && buf.dims[j].materialized
}

/// Mark the scope vectorized at its (already matching) width.
pub fn apply_vectorize(p: &Program, path: &Path, width: usize) -> Result<Program, TransformError> {
    if !vectorize_applicable(p, path, width) {
        return Err(TransformError::NotApplicable(format!("vectorize({width}) at {path}")));
    }
    let mut out = p.clone();
    out.node_mut(path).unwrap().as_scope_mut().unwrap().kind = ScopeKind::Vector;
    Ok(out)
}

fn no_annotated_ancestor(p: &Program, path: &Path) -> bool {
    let mut q = path.parent();
    while let Some(pp) = q {
        if pp.is_empty() {
            break;
        }
        if let Some(s) = p.node(&pp).and_then(Node::as_scope) {
            if matches!(s.kind, ScopeKind::Parallel | ScopeKind::GpuGrid | ScopeKind::GpuBlock | ScopeKind::GpuWarp)
            {
                return false;
            }
        }
        q = pp.parent();
    }
    true
}

/// Mark the scope CPU-parallel: a plain constant-trip scope whose
/// iterations are provably independent, under no parallel or GPU-bound
/// ancestor.
pub fn apply_parallelize(p: &Program, path: &Path) -> Result<Program, TransformError> {
    let s = scope_at(p, path)?;
    expect_seq(s, "parallelize")?;
    if s.size.as_const().is_none()
        || !no_annotated_ancestor(p, path)
        || !deps::iterations_independent(p, path)
    {
        return Err(TransformError::NotApplicable(format!("parallelize at {path}")));
    }
    let mut out = p.clone();
    out.node_mut(path).unwrap().as_scope_mut().unwrap().kind = ScopeKind::Parallel;
    Ok(out)
}

fn nearest_gpu_ancestor(p: &Program, path: &Path) -> Option<ScopeKind> {
    let mut q = path.parent();
    while let Some(pp) = q {
        if pp.is_empty() {
            break;
        }
        if let Some(s) = p.node(&pp).and_then(Node::as_scope) {
            if s.kind.is_gpu() {
                return Some(s.kind);
            }
        }
        q = pp.parent();
    }
    None
}

/// Grid requires no GPU-bound ancestor; block requires the nearest
/// GPU-bound ancestor to be a grid; warp requires it to be a block.
/// Independence of iterations is required for all three.
fn bind_gpu_applicable(p: &Program, path: &Path, kind: ScopeKind) -> bool {
    let Some(s) = p.node(path).and_then(Node::as_scope) else { return false };
    if s.kind != ScopeKind::Seq || s.frep || s.ssr || s.size.as_const().is_none() {
        return false;
    }
    let anc = nearest_gpu_ancestor(p, path);
    let level_ok = match kind {
        ScopeKind::GpuGrid => anc.is_none(),
        ScopeKind::GpuBlock => anc == Some(ScopeKind::GpuGrid),
        ScopeKind::GpuWarp => anc == Some(ScopeKind::GpuBlock),
        _ => false,
    };
    level_ok && deps::iterations_independent(p, path)
}

/// Bind the scope to a GPU grid/block/warp dimension.
pub fn apply_bind_gpu(p: &Program, path: &Path, kind: ScopeKind) -> Result<Program, TransformError> {
    if !bind_gpu_applicable(p, path, kind) {
        return Err(TransformError::NotApplicable(format!("bind {kind:?} at {path}")));
    }
    let mut out = p.clone();
    out.node_mut(path).unwrap().as_scope_mut().unwrap().kind = kind;
    Ok(out)
}

/// Reset a scope's instantiation to plain sequential (clears SSR/FREP too).
pub fn apply_set_seq(p: &Program, path: &Path) -> Result<Program, TransformError> {
    let s = scope_at(p, path)?;
    if s.kind == ScopeKind::Seq && !s.frep && !s.ssr {
        return Err(TransformError::NotApplicable("scope already sequential".into()));
    }
    let mut out = p.clone();
    let sm = out.node_mut(path).unwrap().as_scope_mut().unwrap();
    sm.kind = ScopeKind::Seq;
    sm.frep = false;
    sm.ssr = false;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Snitch SSR / FREP
// ---------------------------------------------------------------------------

/// Maximum hardware data-mover streams on the modelled Snitch core.
pub const MAX_SSR_STREAMS: usize = 3;

/// Stream semantic registers apply to a constant-trip scope whose
/// stream-shaped body touches at most [`MAX_SSR_STREAMS`] arrays along
/// its iterator.
fn ssr_applicable(p: &Program, path: &Path) -> bool {
    let Some(s) = p.node(path).and_then(Node::as_scope) else { return false };
    if s.ssr || s.kind == ScopeKind::Vector {
        return false;
    }
    if s.size.as_const().is_none() {
        return false;
    }
    // The body must be stream-shaped: operations, possibly wrapped in
    // unrolled scopes (the hardware loop replays a straight-line FP body).
    fn stream_body(nodes: &[Node], d: usize, arrays: &mut Vec<String>) -> bool {
        for n in nodes {
            match n {
                Node::Op(op) => {
                    if op.out.affine_indices().is_none() {
                        return false;
                    }
                    for r in op.reads() {
                        if r.affine_indices().is_none() {
                            return false;
                        }
                    }
                    for acc in op.reads().into_iter().chain(std::iter::once(&op.out)) {
                        if acc.uses(d) && !arrays.contains(&acc.array) {
                            arrays.push(acc.array.clone());
                        }
                    }
                }
                Node::Scope(inner) => {
                    if inner.kind != ScopeKind::Unroll {
                        return false;
                    }
                    if !stream_body(&inner.children, d, arrays) {
                        return false;
                    }
                }
            }
        }
        true
    }
    let d = path.len() - 1;
    let mut arrays = Vec::new();
    if !stream_body(&s.children, d, &mut arrays) {
        return false;
    }
    !arrays.is_empty() && arrays.len() <= MAX_SSR_STREAMS
}

/// Enable SSR streaming on the scope (loads of the body's affine input
/// streams are fed by hardware data movers).
pub fn apply_enable_ssr(p: &Program, path: &Path) -> Result<Program, TransformError> {
    if !ssr_applicable(p, path) {
        return Err(TransformError::NotApplicable(format!("enable_ssr at {path}")));
    }
    let mut out = p.clone();
    out.node_mut(path).unwrap().as_scope_mut().unwrap().ssr = true;
    Ok(out)
}

/// Enable FREP on an SSR scope (removes integer-core loop overhead); the
/// hardware loop needs a constant trip count.
pub fn apply_enable_frep(p: &Program, path: &Path) -> Result<Program, TransformError> {
    let s = scope_at(p, path)?;
    if !s.ssr || s.frep || s.size.as_const().is_none() {
        return Err(TransformError::NotApplicable(format!("enable_frep at {path}")));
    }
    let mut out = p.clone();
    out.node_mut(path).unwrap().as_scope_mut().unwrap().frep = true;
    Ok(out)
}
