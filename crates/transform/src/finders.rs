//! Arena-based applicability scans: the one enumeration of the action
//! space.
//!
//! Each `find_*` scans the flat [`Arena`] view of a program for the
//! locations where the matching `apply_*` in [`crate::scopes`] or
//! [`crate::layout`] succeeds; the dependence predicates below port
//! [`crate::deps`], which `apply` checks on the tree. The arena serves the
//! inner loop of search: `available_actions` runs every finder on every
//! visited program state, and tree walks would re-collect access lists and
//! chase pointers on each query.
//!
//! **Contract: find ≡ apply.** Each function returns exactly the locations
//! `apply` accepts, in candidate order (pre-order over nodes, split index
//! ascending, declaration order over buffers, dimension ascending). The
//! conformance test at the bottom tries `apply` on every candidate location
//! across the kernel suite, all transform libraries, transformed states,
//! indirect accesses and data-dependent scopes; `tests/applicability.rs`
//! does the same on seeded fuzz programs.

use crate::layout::{
    BufDimLoc, REGISTER_LIMIT_ELEMS, SHARED_LIMIT_BYTES, STACK_LIMIT_BYTES,
};
use crate::scopes::{MAX_SSR_STREAMS, MAX_UNROLL};
use perfdojo_ir::arena::{AScope, AccId, AIndex, Arena, NameId, NodeId};
use perfdojo_ir::{Location, Path, ScopeKind};
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// dependence predicates (ports of crate::deps)
// ---------------------------------------------------------------------------

/// `deps::uses_depth_materialized` on a flattened access: the pattern must
/// mention `{d}` in a materialized dimension of the *named* buffer.
fn uses_depth_materialized(a: &Arena, group: NameId, acc: AccId, d: usize) -> bool {
    let Some(buf) = a.buffer_named(group) else { return false };
    let n = a.indices(acc).len();
    (0..n).any(|j| {
        buf.dims.get(j).is_some_and(|bd| bd.materialized)
            && a.affine_index(acc, j).is_some_and(|af| a.aff_uses(af, d))
    })
}

/// Per-group accumulator for the fusion check.
struct FuseGroup {
    write: bool,
    in_a: bool,
    in_b: bool,
    /// First access seen for the group (tree `group[0]`).
    first: AccId,
    /// All patterns identical to `first` so far.
    identical: bool,
}

/// `deps::regions_fusable` on two arena subtrees.
pub fn regions_fusable(a: &Arena, x: NodeId, y: NodeId, d: usize) -> bool {
    let (ra, rb) = (a.region(x), a.region(y));
    if ra.iter().chain(rb).any(|r| !a.access(r.acc).all_affine) {
        return false;
    }
    let mut groups: HashMap<NameId, FuseGroup> = HashMap::new();
    for (rows, side_a) in [(ra, true), (rb, false)] {
        for r in rows {
            let g = groups.entry(r.group).or_insert(FuseGroup {
                write: false,
                in_a: false,
                in_b: false,
                first: r.acc,
                identical: true,
            });
            g.write |= r.write;
            g.in_a |= side_a;
            g.in_b |= !side_a;
            g.identical &= a.acc_pattern_eq(g.first, r.acc);
        }
    }
    for (group, g) in groups {
        if !g.write || !(g.in_a && g.in_b) {
            continue;
        }
        if !g.identical || !uses_depth_materialized(a, group, g.first, d) {
            return false;
        }
    }
    true
}

/// `deps::iterations_independent` on an arena scope node.
pub fn iterations_independent(a: &Arena, scope: NodeId) -> bool {
    let d = a.node(scope).depth as usize;
    let rows = a.region(scope);
    if rows.iter().any(|r| !a.access(r.acc).all_affine) {
        return false;
    }
    let mut groups: HashMap<NameId, (bool, AccId, bool)> = HashMap::new();
    for r in rows {
        let g = groups.entry(r.group).or_insert((false, r.acc, true));
        g.0 |= r.write;
        g.2 &= a.acc_pattern_eq(g.1, r.acc);
    }
    for (group, (write, first, identical)) in groups {
        if !write {
            continue;
        }
        if !identical || !uses_depth_materialized(a, group, first, d) {
            return false;
        }
    }
    true
}

/// `deps::interchange_safe` on an arena scope node (iterators `d`, `d+1`).
pub fn interchange_safe(a: &Arena, scope: NodeId) -> bool {
    let d = a.node(scope).depth as usize;
    let rows = a.region(scope);
    if rows.iter().any(|r| !a.access(r.acc).all_affine) {
        return false;
    }
    let mut groups: HashMap<NameId, Vec<&perfdojo_ir::arena::RegRow>> = HashMap::new();
    for r in rows {
        groups.entry(r.group).or_default().push(r);
    }
    for (group, g) in groups {
        if !g.iter().any(|r| r.write) {
            continue;
        }
        let first = g[0].acc;
        let identical = g.iter().all(|r| a.acc_pattern_eq(first, r.acc));
        if identical
            && uses_depth_materialized(a, group, first, d)
            && uses_depth_materialized(a, group, first, d + 1)
        {
            continue;
        }
        // Reduction rule: all accesses stem from one single op which is an
        // associative-commutative reduction update.
        let mut op_nodes: Vec<NodeId> = g.iter().map(|r| r.op_node).collect();
        op_nodes.sort();
        op_nodes.dedup();
        if op_nodes.len() != 1 {
            return false;
        }
        let Some(op) = a.op(op_nodes[0]) else { return false };
        if a.op_reduction_combiner(op).is_none() {
            return false;
        }
    }
    true
}

/// `deps::siblings_commute` on two arena subtrees.
pub fn siblings_commute(a: &Arena, x: NodeId, y: NodeId) -> bool {
    for rx in a.region(x) {
        for ry in a.region(y) {
            if rx.group == ry.group && (rx.write || ry.write) {
                return false;
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// scope finders (the locations crate::scopes::apply_* accepts)
// ---------------------------------------------------------------------------

/// Pre-order scope node ids — the arena twin of `Program::scope_paths`.
fn scope_ids(a: &Arena) -> impl Iterator<Item = NodeId> + '_ {
    a.node_ids().filter(|&id| a.scope(id).is_some())
}

/// Locations `scopes::apply_split` accepts.
pub fn find_split(a: &Arena, tile: usize) -> Vec<Path> {
    scope_ids(a)
        .filter(|&id| {
            let s = a.scope(id).unwrap();
            s.kind == ScopeKind::Seq
                && !s.frep
                && !s.ssr
                && s.size.as_const().is_some_and(|n| tile > 1 && tile < n && n % tile == 0)
        })
        .map(|id| a.path(id))
        .collect()
}

/// Locations `scopes::apply_join` accepts.
pub fn find_join(a: &Arena) -> Vec<Path> {
    scope_ids(a).filter(|&id| join_applicable(a, id)).map(|id| a.path(id)).collect()
}

fn join_applicable(a: &Arena, id: NodeId) -> bool {
    let Some(s1) = a.scope(id) else { return false };
    let Some(next) = a.next_sibling(id) else { return false };
    let Some(s2) = a.scope(next) else { return false };
    if s1.kind != ScopeKind::Seq || s2.kind != ScopeKind::Seq {
        return false;
    }
    if s1.frep || s1.ssr || s2.frep || s2.ssr {
        return false;
    }
    if s1.size.as_const() != s2.size.as_const() || s1.size.as_const().is_none() {
        return false;
    }
    let d = a.node(id).depth as usize;
    regions_fusable(a, id, next, d)
}

/// Locations `scopes::apply_fission` accepts. The pairwise fusability
/// matrix is computed once per scope and reused across split points (the
/// tree check recomputes it per `at`; the verdicts are identical).
pub fn find_fission(a: &Arena) -> Vec<(Path, usize)> {
    let mut out = Vec::new();
    for id in scope_ids(a) {
        let s = a.scope(id).unwrap();
        let n = s.n_children as usize;
        if s.kind != ScopeKind::Seq || s.frep || s.ssr || n < 2 {
            continue;
        }
        if s.size.as_const().is_none() {
            continue; // fission copies the trip count into both halves
        }
        let d = a.node(id).depth as usize;
        let kids = a.children(id);
        let mut fusable = vec![vec![false; n]; n];
        for i in 0..n {
            for j in i + 1..n {
                fusable[i][j] = regions_fusable(a, kids[i], kids[j], d);
            }
        }
        let path = a.path(id);
        for at in 1..n {
            let ok = (0..at).all(|i| (at..n).all(|j| fusable[i][j]));
            if ok {
                out.push((path.clone(), at));
            }
        }
    }
    out
}

/// Locations `scopes::apply_interchange` accepts.
pub fn find_interchange(a: &Arena) -> Vec<Path> {
    scope_ids(a)
        .filter(|&id| {
            let s = a.scope(id).unwrap();
            if s.kind != ScopeKind::Seq || s.frep || s.ssr || s.n_children != 1 {
                return false;
            }
            let child = NodeId(id.0 + 1);
            let Some(c) = a.scope(child) else { return false };
            if c.kind != ScopeKind::Seq || c.frep || c.ssr {
                return false;
            }
            if s.size.as_const().is_none() || c.size.as_const().is_none() {
                return false;
            }
            interchange_safe(a, id)
        })
        .map(|id| a.path(id))
        .collect()
}

/// Locations `scopes::apply_reorder` accepts (all nodes, not just scopes).
pub fn find_reorder(a: &Arena) -> Vec<Path> {
    let mut out = Vec::new();
    for id in a.node_ids() {
        if let Some(next) = a.next_sibling(id) {
            if siblings_commute(a, id, next) {
                out.push(a.path(id));
            }
        }
    }
    out
}

/// Locations `scopes::apply_split_reduction` accepts.
pub fn find_split_reduction(a: &Arena, tile: usize) -> Vec<Path> {
    scope_ids(a)
        .filter(|&id| {
            let s = a.scope(id).unwrap();
            if s.kind != ScopeKind::Seq || s.frep || s.ssr || s.n_children != 1 {
                return false;
            }
            let Some(n) = s.size.as_const() else { return false };
            if tile <= 1 || tile >= n || n % tile != 0 {
                return false;
            }
            let Some(op) = a.op(NodeId(id.0 + 1)) else { return false };
            if a.op_reduction_combiner(op).is_none() {
                return false;
            }
            let d = a.node(id).depth as usize;
            if a.acc_uses(op.out, d) {
                return false; // not a reduction over this scope
            }
            a.access(op.out).all_affine && privatizing_ancestors_const(a, id)
        })
        .map(|id| a.path(id))
        .collect()
}

/// Locations `scopes::apply_unroll` accepts (no SSR condition).
pub fn find_unroll(a: &Arena) -> Vec<Path> {
    scope_ids(a)
        .filter(|&id| {
            let s = a.scope(id).unwrap();
            s.kind == ScopeKind::Seq
                && !s.frep
                && s.size.as_const().is_some_and(|n| n <= MAX_UNROLL)
        })
        .map(|id| a.path(id))
        .collect()
}

/// Locations `scopes::apply_vectorize` accepts.
pub fn find_vectorize(a: &Arena, width: usize) -> Vec<Path> {
    scope_ids(a)
        .filter(|&id| {
            let s = a.scope(id).unwrap();
            if s.kind != ScopeKind::Seq || s.frep || s.ssr {
                return false;
            }
            if s.size.as_const() != Some(width) || s.n_children != 1 {
                return false;
            }
            let child = NodeId(id.0 + 1);
            if a.op(child).is_none() {
                return false;
            }
            let d = a.node(id).depth as usize;
            let rows = a.region(child);
            access_lane_ok(a, rows[0].acc, d, true)
                && rows.iter().skip(1).all(|r| access_lane_ok(a, r.acc, d, false))
        })
        .map(|id| a.path(id))
        .collect()
}

/// `scopes::access_lane_ok`: affine, and either broadcast (not the output)
/// or unit stride in the innermost materialized dimension.
fn access_lane_ok(a: &Arena, acc: AccId, d: usize, is_out: bool) -> bool {
    if !a.access(acc).all_affine {
        return false;
    }
    let Some(buf) = a.buffer_holding(a.access(acc).name) else { return false };
    let n = a.indices(acc).len();
    let used: Vec<usize> = (0..n)
        .filter(|&j| a.affine_index(acc, j).is_some_and(|af| a.aff_uses(af, d)))
        .collect();
    if used.is_empty() {
        return !is_out;
    }
    if used.len() > 1 {
        return false;
    }
    let j = used[0];
    if a.affine_index(acc, j).is_none_or(|af| a.aff_coeff(af, d) != 1) {
        return false;
    }
    let innermost = (0..buf.dims.len()).rev().find(|&k| buf.dims[k].materialized);
    innermost == Some(j) && buf.dims[j].materialized
}

/// Locations `scopes::apply_parallelize` accepts.
pub fn find_parallelize(a: &Arena) -> Vec<Path> {
    scope_ids(a)
        .filter(|&id| {
            let s = a.scope(id).unwrap();
            s.kind == ScopeKind::Seq
                && !s.frep
                && !s.ssr
                && s.size.as_const().is_some()
                && no_annotated_ancestor(a, id)
                && iterations_independent(a, id)
        })
        .map(|id| a.path(id))
        .collect()
}

/// Parallel and GPU-bound ancestor scopes of `id`.
fn annotated_ancestors(a: &Arena, id: NodeId) -> impl Iterator<Item = &AScope> {
    std::iter::successors(a.parent(id), |&anc| a.parent(anc))
        .filter_map(|anc| a.scope(anc))
        .filter(|s| {
            matches!(
                s.kind,
                ScopeKind::Parallel | ScopeKind::GpuGrid | ScopeKind::GpuBlock | ScopeKind::GpuWarp
            )
        })
}

fn no_annotated_ancestor(a: &Arena, id: NodeId) -> bool {
    annotated_ancestors(a, id).next().is_none()
}

/// `split_reduction` sizes its partial accumulator by every parallel or
/// GPU-bound ancestor's trip count, so each must be constant.
fn privatizing_ancestors_const(a: &Arena, id: NodeId) -> bool {
    annotated_ancestors(a, id).all(|s| s.size.as_const().is_some())
}

/// Locations `scopes::apply_bind_gpu` accepts.
pub fn find_bind_gpu(a: &Arena, kind: ScopeKind) -> Vec<Path> {
    scope_ids(a)
        .filter(|&id| {
            let s = a.scope(id).unwrap();
            if s.kind != ScopeKind::Seq || s.frep || s.ssr || s.size.as_const().is_none() {
                return false;
            }
            let anc = nearest_gpu_ancestor(a, id);
            let level_ok = match kind {
                ScopeKind::GpuGrid => anc.is_none(),
                ScopeKind::GpuBlock => anc == Some(ScopeKind::GpuGrid),
                ScopeKind::GpuWarp => anc == Some(ScopeKind::GpuBlock),
                _ => false,
            };
            level_ok && iterations_independent(a, id)
        })
        .map(|id| a.path(id))
        .collect()
}

fn nearest_gpu_ancestor(a: &Arena, id: NodeId) -> Option<ScopeKind> {
    let mut q = a.parent(id);
    while let Some(anc) = q {
        if let Some(s) = a.scope(anc) {
            if s.kind.is_gpu() {
                return Some(s.kind);
            }
        }
        q = a.parent(anc);
    }
    None
}

/// Locations `scopes::apply_set_seq` accepts.
pub fn find_set_seq(a: &Arena) -> Vec<Path> {
    scope_ids(a)
        .filter(|&id| {
            let s = a.scope(id).unwrap();
            s.kind != ScopeKind::Seq || s.frep || s.ssr
        })
        .map(|id| a.path(id))
        .collect()
}

/// Locations `scopes::apply_enable_ssr` accepts.
pub fn find_enable_ssr(a: &Arena) -> Vec<Path> {
    scope_ids(a).filter(|&id| ssr_applicable(a, id)).map(|id| a.path(id)).collect()
}

fn ssr_applicable(a: &Arena, id: NodeId) -> bool {
    let s = a.scope(id).expect("scope id");
    if s.ssr || s.kind == ScopeKind::Vector {
        return false;
    }
    if s.size.as_const().is_none() {
        return false;
    }
    let d = a.node(id).depth as usize;
    let mut arrays: Vec<NameId> = Vec::new();
    if !stream_body(a, &a.children(id), d, &mut arrays) {
        return false;
    }
    !arrays.is_empty() && arrays.len() <= MAX_SSR_STREAMS
}

/// `scopes::ssr_applicable::stream_body`: ops with affine accesses, possibly
/// wrapped in unrolled scopes; collects the distinct arrays streamed over
/// `{d}` in reads-then-output order.
fn stream_body(a: &Arena, kids: &[NodeId], d: usize, arrays: &mut Vec<NameId>) -> bool {
    for &n in kids {
        if a.op(n).is_some() {
            let rows = a.region(n);
            if rows.iter().any(|r| !a.access(r.acc).all_affine) {
                return false;
            }
            for r in rows.iter().skip(1).chain(std::iter::once(&rows[0])) {
                let name = a.access(r.acc).name;
                if a.acc_uses(r.acc, d) && !arrays.contains(&name) {
                    arrays.push(name);
                }
            }
        } else {
            let inner = a.scope(n).expect("node is scope or op");
            if inner.kind != ScopeKind::Unroll {
                return false;
            }
            if !stream_body(a, &a.children(n), d, arrays) {
                return false;
            }
        }
    }
    true
}

/// Locations `scopes::apply_enable_frep` accepts.
pub fn find_enable_frep(a: &Arena) -> Vec<Path> {
    scope_ids(a)
        .filter(|&id| {
            let s = a.scope(id).unwrap();
            s.ssr && !s.frep && s.size.as_const().is_some()
        })
        .map(|id| a.path(id))
        .collect()
}

// ---------------------------------------------------------------------------
// layout finders (the locations crate::layout::apply_* accepts)
// ---------------------------------------------------------------------------

/// Locations `layout::apply_reuse` accepts.
pub fn find_reuse(a: &Arena) -> Vec<BufDimLoc> {
    let mut out = Vec::new();
    for bi in 0..a.buffers.len() {
        for dim in 0..a.buffers[bi].dims.len() {
            if a.buffers[bi].dims[dim].materialized && reuse_applicable(a, bi, dim) {
                out.push(BufDimLoc { buffer: a.buffers[bi].name.clone(), dim });
            }
        }
    }
    out
}

fn reuse_applicable(a: &Arena, bi: usize, dim: usize) -> bool {
    let buf = &a.buffers[bi];
    if !buf.dims.get(dim).is_some_and(|d| d.materialized) {
        return false;
    }
    if a.buffer_is_interface(bi) {
        return false;
    }
    let mut scopes_used: Vec<Path> = Vec::new();
    let mut consts_used: Vec<i64> = Vec::new();
    for op in a.op_list() {
        // Rows are the op's out access then its reads, matching the tree
        // check's handle(out) / handle(each read) sequence.
        for r in a.region(op.node) {
            let name = a.access(r.acc).name;
            if !buf.holds(a.name_str(name)) {
                continue;
            }
            let Some(AIndex::Affine(af)) = a.indices(r.acc).get(dim).copied() else {
                return false;
            };
            if let Some(c) = a.aff_as_const(af) {
                consts_used.push(c);
                continue;
            }
            if let Some(d) = a.aff_as_var(af) {
                let op_path = a.path(op.node);
                scopes_used.push(Path(op_path.0[..d + 1].to_vec()));
                continue;
            }
            return false; // non-trivial affine or indirect: reject
        }
    }
    scopes_used.sort();
    scopes_used.dedup();
    consts_used.sort();
    consts_used.dedup();
    matches!(
        (scopes_used.len(), consts_used.len()),
        (0, 1) | (1, 0)
    )
}

/// Locations `layout::apply_materialize` accepts.
pub fn find_materialize(a: &Arena) -> Vec<BufDimLoc> {
    let mut out = Vec::new();
    for b in &a.buffers {
        for dim in 0..b.dims.len() {
            if !b.dims[dim].materialized {
                out.push(BufDimLoc { buffer: b.name.clone(), dim });
            }
        }
    }
    out
}

/// Locations `layout::apply_swap_dims` accepts.
pub fn find_swap_dims(a: &Arena) -> Vec<BufDimLoc> {
    let mut out = Vec::new();
    for (bi, b) in a.buffers.iter().enumerate() {
        if b.dims.len() < 2 {
            continue;
        }
        if a.buffer_is_interface(bi) {
            continue;
        }
        // every access to the buffer affine
        let group = a.name_id(&b.name).expect("buffer names interned");
        let all_affine = a
            .region_all()
            .iter()
            .filter(|r| r.group == group)
            .all(|r| a.access(r.acc).all_affine);
        if !all_affine {
            continue;
        }
        for dim in 0..b.dims.len() - 1 {
            out.push(BufDimLoc { buffer: b.name.clone(), dim });
        }
    }
    out
}

/// Locations `layout::apply_pad` accepts.
pub fn find_pad(a: &Arena, align: usize) -> Vec<BufDimLoc> {
    let mut out = Vec::new();
    if align < 2 {
        return out;
    }
    for b in &a.buffers {
        for dim in 0..b.dims.len() {
            let d = b.dims[dim];
            if d.materialized && d.pad_to % align != 0 {
                out.push(BufDimLoc { buffer: b.name.clone(), dim });
            }
        }
    }
    out
}

/// Locations `layout::apply_set_location` accepts.
pub fn find_set_location(a: &Arena, target: Location) -> Vec<String> {
    a.buffers
        .iter()
        .enumerate()
        .filter(|(bi, b)| {
            if b.location == target || a.buffer_is_interface(*bi) {
                return false;
            }
            match target {
                Location::Heap => true,
                Location::Stack => b.bytes() <= STACK_LIMIT_BYTES,
                Location::Shared => b.bytes() <= SHARED_LIMIT_BYTES,
                Location::Register => b.physical_len() <= REGISTER_LIMIT_ELEMS,
            }
        })
        .map(|(_, b)| b.name.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::{available_actions, BufDimLoc, Loc, Transform, TransformLibrary};
    use perfdojo_ir::{Arena, Node, Program};

    fn libraries() -> Vec<TransformLibrary> {
        vec![TransformLibrary::cpu(8), TransformLibrary::gpu(32), TransformLibrary::snitch()]
    }

    /// Every location of every kind in `p`, in the finders' order: each
    /// node in pre-order; each (scope, split index), one index past the
    /// last child included; each buffer dimension, one past the last
    /// included; each buffer.
    fn candidates(p: &Program) -> Vec<Loc> {
        let mut nodes = Vec::new();
        let mut splits = Vec::new();
        perfdojo_ir::path::walk(&p.roots, &mut |path, node, _| {
            nodes.push(Loc::Node(path.clone()));
            if let Node::Scope(s) = node {
                splits.extend((0..=s.children.len()).map(|at| Loc::NodeAt(path.clone(), at)));
            }
        });
        let dims = p.buffers.iter().flat_map(|b| {
            (0..=b.dims.len()).map(|dim| Loc::BufferDim(BufDimLoc { buffer: b.name.clone(), dim }))
        });
        let buffers = p.buffers.iter().map(|b| Loc::Buffer(b.name.clone()));
        nodes.into_iter().chain(splits).chain(dims).chain(buffers).collect()
    }

    /// `find_locations` must offer exactly the candidates `apply` accepts,
    /// in the same order, for every transform of `lib`.
    fn assert_find_matches_apply(p: &Program, lib: &TransformLibrary, ctx: &str) {
        let a = Arena::build(p);
        let cands = candidates(p);
        for t in &lib.transforms {
            let accepted: Vec<Loc> =
                cands.iter().filter(|loc| t.apply(p, loc).is_ok()).cloned().collect();
            assert_eq!(t.find_locations_in(&a), accepted, "{t}: find and apply disagree on {ctx}");
        }
    }

    #[test]
    fn finders_match_apply_on_suite() {
        for k in perfdojo_kernels::small_suite() {
            for lib in libraries() {
                assert_find_matches_apply(&k.program, &lib, &k.label);
            }
        }
    }

    #[test]
    fn finders_match_apply_on_transformed_states() {
        // Descend two levels of the game tree: the contract must hold on
        // arbitrary transformed states, not just the seed kernels.
        for k in perfdojo_kernels::small_suite() {
            for lib in libraries() {
                let actions = available_actions(&k.program, &lib);
                for act in actions.iter().take(10) {
                    let q = act.apply(&k.program).expect("found action applies");
                    assert_find_matches_apply(&q, &lib, &format!("{} after {act}", k.label));
                    for act2 in available_actions(&q, &lib).iter().take(3) {
                        let r = act2.apply(&q).expect("found action applies");
                        assert_find_matches_apply(
                            &r,
                            &lib,
                            &format!("{} after {act} then {act2}", k.label),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn indirect_accesses_are_handled_identically() {
        let src = "\
kernel ind
in idx, x
out z
idx i32 [8] heap
x f32 [8] heap
z f32 [8] heap

8 | z[{0}] = x[idx[{0}]]
";
        let p = perfdojo_ir::parse_program(src).expect("parses");
        for lib in libraries() {
            assert_find_matches_apply(&p, &lib, "indirect kernel");
        }
        // sanity: indirection blocks the affine-only transforms
        let a = Arena::build(&p);
        assert!(Transform::Parallelize.find_locations_in(&a).is_empty());
        assert!(Transform::EnableSsr.find_locations_in(&a).is_empty());
    }

    #[test]
    fn data_dependent_scopes_are_neither_offered_nor_applied() {
        // Validation rejects scopes sized by data, but the public API still
        // reaches them through `parse_program`: a transformation that needs
        // the trip count is neither offered nor applied there.
        let fissionable = "\
kernel dd
in n, x
out z
n i32 [1] heap
x f32 [4, 8] heap
t f32 [4, 8] stack
z f32 [4, 8] heap

n[0] | 8 | t[{0}, {1}] = x[{0}, {1}]
     | 8 | z[{0}, {1}] = t[{0}, {1}]
";
        let reduction = "\
kernel ddr
in n, x
out s
n i32 [1] heap
x f32 [4, 32] heap
s f32 [4] heap

n[0]:p | 32 | s[{0}] = s[{0}] + x[{0}, {1}]
";
        for src in [fissionable, reduction] {
            let p = perfdojo_ir::parse_program(src).expect("parses");
            for lib in libraries() {
                assert_find_matches_apply(&p, &lib, &p.name);
            }
        }
    }
}
