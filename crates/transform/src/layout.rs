//! Memory-layout transformations: dimension reuse (`reuse_dims`, paper
//! Fig. 5), re-materialization, dimension reordering, padding and storage
//! location selection.

use crate::deps::collect_accesses;
use crate::TransformError;
use perfdojo_ir::{IndexExpr, Location, Node, Path, Program};

/// Limits for storage locations, loosely modelling real targets. Buffers
/// beyond these sizes cannot be moved to the corresponding location.
pub const STACK_LIMIT_BYTES: usize = 256 * 1024;
/// GPU shared-memory budget per block.
pub const SHARED_LIMIT_BYTES: usize = 48 * 1024;
/// Register file budget in elements.
pub const REGISTER_LIMIT_ELEMS: usize = 64;

/// A buffer-dimension location for layout transformations.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BufDimLoc {
    /// Buffer name.
    pub buffer: String,
    /// Dimension index.
    pub dim: usize,
}

// ---------------------------------------------------------------------------
// reuse_dims
// ---------------------------------------------------------------------------

/// The buffer dimension can safely stop being materialized.
///
/// The paper's check (Fig. 5): the dimension must not be "used in more than
/// one scope". Precisely, across **every** access to any array of the
/// buffer, the index of that dimension must be either
/// * the plain iterator of one single common scope *node*, or
/// * one single constant value.
///
/// Then all surviving accesses agree on which physical element they mean at
/// any point of execution, so collapsing the dimension preserves semantics.
fn reuse_applicable(p: &Program, buffer: &str, dim: usize) -> bool {
    let Some(buf) = p.buffer(buffer) else { return false };
    if !buf.dims.get(dim).is_some_and(|d| d.materialized) {
        return false;
    }
    // Interface buffers keep their layout observable via load/readback; a
    // collapsed dim on an input or output would change the interface data.
    let interface = buf
        .array_names()
        .iter()
        .any(|a| p.inputs.iter().any(|i| i == *a) || p.outputs.iter().any(|o| o == *a));
    if interface {
        return false;
    }

    // Which scope node does `{d}` in this op refer to? Resolve depth to the
    // actual scope path: the op at path P has scope ancestors P[..1], P[..2]…
    let mut scopes_used: Vec<Path> = Vec::new();
    let mut consts_used: Vec<i64> = Vec::new();
    for (op_path, op, _) in p.ops() {
        let mut handle = |acc: &perfdojo_ir::Access| -> bool {
            if !buf.holds(&acc.array) {
                return true;
            }
            let Some(IndexExpr::Affine(a)) = acc.indices.get(dim) else { return false };
            if let Some(c) = a.as_const() {
                consts_used.push(c);
                return true;
            }
            if let Some(d) = a.as_var() {
                // scope node providing iterator depth d for this op
                let scope_path = Path(op_path.0[..d + 1].to_vec());
                scopes_used.push(scope_path);
                return true;
            }
            false // non-trivial affine or indirect: reject
        };
        if !handle(&op.out) {
            return false;
        }
        for r in op.reads() {
            if !handle(r) {
                return false;
            }
        }
    }
    scopes_used.sort();
    scopes_used.dedup();
    consts_used.sort();
    consts_used.dedup();
    match (scopes_used.len(), consts_used.len()) {
        (0, 0) => false, // buffer unused: nothing to prove, but reuse is pointless
        (0, 1) => true,
        (1, 0) => true,
        _ => false, // used in more than one scope (or mixed with constants)
    }
}

/// Collapse the dimension (`:N` suffix): it stops being materialized.
pub fn apply_reuse(p: &Program, loc: &BufDimLoc) -> Result<Program, TransformError> {
    if !reuse_applicable(p, &loc.buffer, loc.dim) {
        return Err(TransformError::NotApplicable(format!(
            "reuse_dims {}#{}",
            loc.buffer, loc.dim
        )));
    }
    let mut out = p.clone();
    let b = out
        .buffers
        .iter_mut()
        .find(|b| b.name == loc.buffer)
        .ok_or_else(|| TransformError::NotApplicable("unknown buffer".into()))?;
    b.dims[loc.dim].materialized = false;
    Ok(out)
}

/// Re-materialize a collapsed dimension (inverse of `reuse_dims`; trades
/// memory back for generality, always semantics-preserving).
pub fn apply_materialize(p: &Program, loc: &BufDimLoc) -> Result<Program, TransformError> {
    let mut out = p.clone();
    let b = out
        .buffers
        .iter_mut()
        .find(|b| b.name == loc.buffer)
        .ok_or_else(|| TransformError::NotApplicable("unknown buffer".into()))?;
    let d = b
        .dims
        .get_mut(loc.dim)
        .ok_or_else(|| TransformError::NotApplicable("bad dim".into()))?;
    if d.materialized {
        return Err(TransformError::NotApplicable("dim already materialized".into()));
    }
    d.materialized = true;
    Ok(out)
}

// ---------------------------------------------------------------------------
// swap_dims
// ---------------------------------------------------------------------------

/// A dimension swap is a consistent relabeling of storage and accesses, so
/// it is always semantics-preserving — but only allowed on non-interface
/// buffers (swapping an input/output changes the caller-visible layout) and
/// only when every access is affine.
fn swap_buffer_ok(p: &Program, buffer: &str) -> bool {
    let Some(buf) = p.buffer(buffer) else { return false };
    let interface = buf
        .array_names()
        .iter()
        .any(|a| p.inputs.iter().any(|i| i == *a) || p.outputs.iter().any(|o| o == *a));
    if interface {
        return false;
    }
    // every access affine
    let all = collect_accesses(p, &Path::root());
    all.iter().filter(|a| a.buffer == buffer).all(|a| a.indices.is_some())
}

/// Swap buffer dimensions `dim` and `dim+1`, rewriting all accesses.
pub fn apply_swap_dims(p: &Program, loc: &BufDimLoc) -> Result<Program, TransformError> {
    let buf = p
        .buffer(&loc.buffer)
        .ok_or_else(|| TransformError::NotApplicable("unknown buffer".into()))?;
    if loc.dim + 1 >= buf.dims.len() || !swap_buffer_ok(p, &loc.buffer) {
        return Err(TransformError::NotApplicable(format!(
            "swap_dims {}#{}",
            loc.buffer, loc.dim
        )));
    }
    let arrays: Vec<String> = buf.array_names().iter().map(|s| s.to_string()).collect();
    let mut out = p.clone();
    let b = out.buffers.iter_mut().find(|b| b.name == loc.buffer).unwrap();
    b.dims.swap(loc.dim, loc.dim + 1);
    let (i, j) = (loc.dim, loc.dim + 1);
    rewrite_accesses(&mut out.roots, &mut |acc| {
        if arrays.iter().any(|a| *a == acc.array) {
            acc.indices.swap(i, j);
        }
    });
    Ok(out)
}

fn rewrite_accesses(nodes: &mut [Node], f: &mut dyn FnMut(&mut perfdojo_ir::Access)) {
    for n in nodes {
        match n {
            Node::Op(op) => {
                f(&mut op.out);
                rewrite_expr(&mut op.expr, f);
            }
            Node::Scope(s) => rewrite_accesses(s.children_mut(), f),
        }
    }
}

fn rewrite_expr(e: &mut perfdojo_ir::Expr, f: &mut dyn FnMut(&mut perfdojo_ir::Access)) {
    match e {
        perfdojo_ir::Expr::Load(a) => f(a),
        perfdojo_ir::Expr::Unary(_, x) => rewrite_expr(x, f),
        perfdojo_ir::Expr::Binary(_, x, y) => {
            rewrite_expr(x, f);
            rewrite_expr(y, f);
        }
        perfdojo_ir::Expr::Const(_) | perfdojo_ir::Expr::Index(_) => {}
    }
}

// ---------------------------------------------------------------------------
// pad_dim
// ---------------------------------------------------------------------------

/// Pad the dimension's physical extent up to the next multiple of `align`
/// (strictly growing). Padding only changes strides; logical contents are
/// untouched, so it is always semantics-preserving.
pub fn apply_pad(p: &Program, loc: &BufDimLoc, align: usize) -> Result<Program, TransformError> {
    if align < 2 {
        return Err(TransformError::NotApplicable("padding alignment < 2".into()));
    }
    let mut out = p.clone();
    let b = out
        .buffers
        .iter_mut()
        .find(|b| b.name == loc.buffer)
        .ok_or_else(|| TransformError::NotApplicable("unknown buffer".into()))?;
    let d = b
        .dims
        .get_mut(loc.dim)
        .ok_or_else(|| TransformError::NotApplicable("bad dim".into()))?;
    if !d.materialized || d.pad_to % align == 0 {
        return Err(TransformError::NotApplicable("dim already aligned".into()));
    }
    d.pad_to = d.pad_to.div_ceil(align) * align;
    Ok(out)
}

// ---------------------------------------------------------------------------
// set_location
// ---------------------------------------------------------------------------

/// The buffer is movable to `target`: temporaries only, within size limits.
fn location_applicable(p: &Program, b: &perfdojo_ir::BufferDecl, target: Location) -> bool {
    if b.location == target {
        return false;
    }
    let interface = b
        .array_names()
        .iter()
        .any(|a| p.inputs.iter().any(|i| i == *a) || p.outputs.iter().any(|o| o == *a));
    if interface {
        return false; // caller-owned storage stays on the heap
    }
    match target {
        Location::Heap => true,
        Location::Stack => b.bytes() <= STACK_LIMIT_BYTES,
        Location::Shared => b.bytes() <= SHARED_LIMIT_BYTES,
        Location::Register => b.physical_len() <= REGISTER_LIMIT_ELEMS,
    }
}

/// Move the buffer to the target storage location (performance-only).
pub fn apply_set_location(
    p: &Program,
    buffer: &str,
    target: Location,
) -> Result<Program, TransformError> {
    let b = p
        .buffer(buffer)
        .ok_or_else(|| TransformError::NotApplicable("unknown buffer".into()))?;
    if !location_applicable(p, b, target) {
        return Err(TransformError::NotApplicable(format!(
            "set_location {buffer} -> {target}"
        )));
    }
    let mut out = p.clone();
    out.buffers.iter_mut().find(|x| x.name == buffer).unwrap().location = target;
    Ok(out)
}
