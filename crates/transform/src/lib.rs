//! # PerfDojo transformations
//!
//! Atomic, non-destructive, semantics-preserving program transformations
//! with built-in applicability detection (paper §2.2).
//!
//! * **Atomic** — each transformation does exactly one change (e.g.
//!   vectorization requires explicit prior tiling; it never tiles+unrolls+
//!   rewrites in one step).
//! * **Applicability detection** — every transformation enumerates the code
//!   locations where it can be applied *and* filters out locations where it
//!   would violate semantics, via dependence analysis.
//! * **Non-destructive** — applications are pure (`&Program -> Program`) and
//!   recorded in a [`history::History`]; a sequence with an earlier step
//!   undone or replaced replays from the initial program, keeping every
//!   later step that still applies ([`history`]).
//!
//! The entry points are [`Transform::find_locations`],
//! [`Transform::apply`], and [`available_actions`] (which enumerates the
//! action space of the Dojo game for a given target's
//! [`TransformLibrary`]).
//!
//! The action space has one enumeration: the scans over the flat
//! [`Arena`] behind [`Transform::find_locations_in`]. `apply` re-checks its
//! location on the tree, and those checks are the specification: a
//! conformance test pins that `find_locations` offers exactly, and in
//! order, the locations `apply` accepts.

mod deps;
mod finders;
pub mod history;
mod layout;
mod scopes;
pub mod serial;

pub use history::{replay, replay_sequence, History, Replay, ReplayError};
pub use layout::BufDimLoc;
pub use serial::{parse_action, parse_loc, parse_transform};

use perfdojo_ir::{Arena, Location, Path, Program, ScopeKind};
use std::fmt;

/// Failure to apply a transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// The transformation is not applicable at the requested location (the
    /// message says why).
    NotApplicable(String),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::NotApplicable(m) => write!(f, "not applicable: {m}"),
        }
    }
}

impl std::error::Error for TransformError {}

/// A code location a transformation applies to.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Loc {
    /// A tree node (scope or op).
    Node(Path),
    /// A (scope, child split index) pair for fission.
    NodeAt(Path, usize),
    /// A buffer dimension.
    BufferDim(BufDimLoc),
    /// A whole buffer.
    Buffer(String),
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Loc::Node(p) => write!(f, "{p}"),
            Loc::NodeAt(p, i) => write!(f, "{p}:{i}"),
            Loc::BufferDim(b) => write!(f, "{}#{}", b.buffer, b.dim),
            Loc::Buffer(b) => write!(f, "{b}"),
        }
    }
}

/// The transformation vocabulary. Hardware vendors extend the Dojo by
/// instantiating these with target-specific parameters (vector widths, tile
/// sizes, GPU levels, Snitch extensions) in a [`TransformLibrary`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Transform {
    /// Tile a scope: `N -> N/tile × tile`.
    SplitScope {
        /// Inner trip count after the split.
        tile: usize,
    },
    /// Fuse a scope with its next sibling scope of equal size.
    JoinScopes,
    /// Distribute a scope's children into two sibling scopes.
    FissionScope,
    /// Swap a scope with its single child scope (loop interchange).
    InterchangeScopes,
    /// Swap a node with its next sibling (instruction reordering).
    ReorderOps,
    /// Privatize a reduction into a `tile`-wide partial accumulator.
    SplitReduction {
        /// Width of the partial-accumulator array.
        tile: usize,
    },
    /// Mark a scope fully unrolled.
    Unroll,
    /// Mark a scope vectorized (trip must equal `width`).
    Vectorize {
        /// Target SIMD width in elements.
        width: usize,
    },
    /// Mark a scope CPU-parallel.
    Parallelize,
    /// Bind a scope to a GPU level (`GpuGrid`/`GpuBlock`/`GpuWarp`).
    BindGpu(ScopeKind),
    /// Reset a scope to plain sequential (inverse of all annotations).
    SetSeq,
    /// Collapse a buffer dimension (`:N`).
    ReuseDims,
    /// Re-materialize a collapsed buffer dimension.
    MaterializeDims,
    /// Swap a buffer dimension with its successor (layout reorder).
    SwapDims,
    /// Pad a buffer dimension's physical extent to a multiple of `align`.
    PadDim {
        /// Required physical alignment in elements.
        align: usize,
    },
    /// Move a buffer to another storage location.
    SetLocation(Location),
    /// Enable Snitch stream semantic registers on an innermost scope.
    EnableSsr,
    /// Enable Snitch floating-point repetition on an SSR scope.
    EnableFrep,
}

impl fmt::Display for Transform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transform::SplitScope { tile } => write!(f, "split_scope({tile})"),
            Transform::JoinScopes => write!(f, "join_scopes"),
            Transform::FissionScope => write!(f, "fission_scope"),
            Transform::InterchangeScopes => write!(f, "interchange_scopes"),
            Transform::ReorderOps => write!(f, "reorder_ops"),
            Transform::SplitReduction { tile } => write!(f, "split_reduction({tile})"),
            Transform::Unroll => write!(f, "unroll"),
            Transform::Vectorize { width } => write!(f, "vectorize({width})"),
            Transform::Parallelize => write!(f, "parallelize"),
            Transform::BindGpu(k) => write!(f, "bind_gpu({})", k.suffix()),
            Transform::SetSeq => write!(f, "set_seq"),
            Transform::ReuseDims => write!(f, "reuse_dims"),
            Transform::MaterializeDims => write!(f, "materialize_dims"),
            Transform::SwapDims => write!(f, "swap_dims"),
            Transform::PadDim { align } => write!(f, "pad_dim({align})"),
            Transform::SetLocation(l) => write!(f, "set_location({l})"),
            Transform::EnableSsr => write!(f, "enable_ssr"),
            Transform::EnableFrep => write!(f, "enable_frep"),
        }
    }
}

impl Transform {
    /// All locations in `p` where this transformation applies without
    /// violating semantics (paper: applicability detection).
    ///
    /// Convenience wrapper that flattens `p` into an [`Arena`] and scans it;
    /// callers querying many transforms on one program state should build
    /// the arena once and use [`Transform::find_locations_in`] (as
    /// [`available_actions`] does).
    pub fn find_locations(&self, p: &Program) -> Vec<Loc> {
        self.find_locations_in(&Arena::build(p))
    }

    /// Arena-based applicability scan: every location where
    /// [`Transform::apply`] succeeds, nodes in pre-order and buffers in
    /// declaration order.
    pub fn find_locations_in(&self, a: &Arena) -> Vec<Loc> {
        match self {
            Transform::SplitScope { tile } => {
                finders::find_split(a, *tile).into_iter().map(Loc::Node).collect()
            }
            Transform::JoinScopes => finders::find_join(a).into_iter().map(Loc::Node).collect(),
            Transform::FissionScope => finders::find_fission(a)
                .into_iter()
                .map(|(p_, i)| Loc::NodeAt(p_, i))
                .collect(),
            Transform::InterchangeScopes => {
                finders::find_interchange(a).into_iter().map(Loc::Node).collect()
            }
            Transform::ReorderOps => finders::find_reorder(a).into_iter().map(Loc::Node).collect(),
            Transform::SplitReduction { tile } => {
                finders::find_split_reduction(a, *tile).into_iter().map(Loc::Node).collect()
            }
            Transform::Unroll => finders::find_unroll(a).into_iter().map(Loc::Node).collect(),
            Transform::Vectorize { width } => {
                finders::find_vectorize(a, *width).into_iter().map(Loc::Node).collect()
            }
            Transform::Parallelize => {
                finders::find_parallelize(a).into_iter().map(Loc::Node).collect()
            }
            Transform::BindGpu(kind) => {
                finders::find_bind_gpu(a, *kind).into_iter().map(Loc::Node).collect()
            }
            Transform::SetSeq => finders::find_set_seq(a).into_iter().map(Loc::Node).collect(),
            Transform::ReuseDims => {
                finders::find_reuse(a).into_iter().map(Loc::BufferDim).collect()
            }
            Transform::MaterializeDims => {
                finders::find_materialize(a).into_iter().map(Loc::BufferDim).collect()
            }
            Transform::SwapDims => {
                finders::find_swap_dims(a).into_iter().map(Loc::BufferDim).collect()
            }
            Transform::PadDim { align } => {
                finders::find_pad(a, *align).into_iter().map(Loc::BufferDim).collect()
            }
            Transform::SetLocation(target) => {
                finders::find_set_location(a, *target).into_iter().map(Loc::Buffer).collect()
            }
            Transform::EnableSsr => {
                finders::find_enable_ssr(a).into_iter().map(Loc::Node).collect()
            }
            Transform::EnableFrep => {
                finders::find_enable_frep(a).into_iter().map(Loc::Node).collect()
            }
        }
    }

    /// Apply the transformation at `loc`, re-checking applicability.
    pub fn apply(&self, p: &Program, loc: &Loc) -> Result<Program, TransformError> {
        let bad =
            || TransformError::NotApplicable(format!("{self} expects a different location kind"));
        match (self, loc) {
            (Transform::SplitScope { tile }, Loc::Node(path)) => scopes::apply_split(p, path, *tile),
            (Transform::JoinScopes, Loc::Node(path)) => scopes::apply_join(p, path),
            (Transform::FissionScope, Loc::NodeAt(path, at)) => scopes::apply_fission(p, path, *at),
            (Transform::InterchangeScopes, Loc::Node(path)) => scopes::apply_interchange(p, path),
            (Transform::ReorderOps, Loc::Node(path)) => scopes::apply_reorder(p, path),
            (Transform::SplitReduction { tile }, Loc::Node(path)) => {
                scopes::apply_split_reduction(p, path, *tile)
            }
            (Transform::Unroll, Loc::Node(path)) => scopes::apply_unroll(p, path),
            (Transform::Vectorize { width }, Loc::Node(path)) => {
                scopes::apply_vectorize(p, path, *width)
            }
            (Transform::Parallelize, Loc::Node(path)) => scopes::apply_parallelize(p, path),
            (Transform::BindGpu(kind), Loc::Node(path)) => scopes::apply_bind_gpu(p, path, *kind),
            (Transform::SetSeq, Loc::Node(path)) => scopes::apply_set_seq(p, path),
            (Transform::ReuseDims, Loc::BufferDim(b)) => layout::apply_reuse(p, b),
            (Transform::MaterializeDims, Loc::BufferDim(b)) => layout::apply_materialize(p, b),
            (Transform::SwapDims, Loc::BufferDim(b)) => layout::apply_swap_dims(p, b),
            (Transform::PadDim { align }, Loc::BufferDim(b)) => layout::apply_pad(p, b, *align),
            (Transform::SetLocation(target), Loc::Buffer(b)) => {
                layout::apply_set_location(p, b, *target)
            }
            (Transform::EnableSsr, Loc::Node(path)) => scopes::apply_enable_ssr(p, path),
            (Transform::EnableFrep, Loc::Node(path)) => scopes::apply_enable_frep(p, path),
            _ => Err(bad()),
        }
    }
}

/// A concrete move in the PerfDojo game: one transformation at one location.
#[derive(Clone, PartialEq, Debug)]
pub struct Action {
    /// The transformation.
    pub transform: Transform,
    /// Where to apply it.
    pub loc: Loc,
}

/// Process-wide count of [`Action::apply`] calls. Transform application is
/// the unit of replay work the incremental engine exists to avoid, so tests
/// pin engine behaviour (e.g. "reloading an identical sequence applies
/// nothing") against deltas of this counter.
static APPLY_COUNT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Total [`Action::apply`] calls so far in this process (all threads).
/// Compare deltas, not absolute values — other tests run concurrently.
pub fn apply_count() -> u64 {
    APPLY_COUNT.load(std::sync::atomic::Ordering::Relaxed)
}

impl Action {
    /// Apply this action to a program.
    pub fn apply(&self, p: &Program) -> Result<Program, TransformError> {
        APPLY_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.transform.apply(p, &self.loc)
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.transform, self.loc)
    }
}

/// The set of transformations a target exposes (paper: vendors ship
/// *hardware-aware transformations*, not hardware-aware libraries).
#[derive(Clone, Debug)]
pub struct TransformLibrary {
    /// Instantiated transformations available on the target.
    pub transforms: Vec<Transform>,
}

impl TransformLibrary {
    /// Library for a SIMD multicore CPU (x86 AVX-512-like or Arm NEON-like).
    pub fn cpu(vector_width: usize) -> Self {
        let mut transforms = vec![
            Transform::JoinScopes,
            Transform::FissionScope,
            Transform::InterchangeScopes,
            Transform::ReorderOps,
            Transform::Unroll,
            Transform::Parallelize,
            Transform::SetSeq,
            Transform::ReuseDims,
            Transform::MaterializeDims,
            Transform::SwapDims,
            Transform::PadDim { align: vector_width },
            Transform::SetLocation(Location::Stack),
            Transform::SetLocation(Location::Heap),
            Transform::SetLocation(Location::Register),
            Transform::Vectorize { width: vector_width },
        ];
        for tile in [2, 4, 8, 16, 32, 64, vector_width] {
            transforms.push(Transform::SplitScope { tile });
            transforms.push(Transform::SplitReduction { tile });
        }
        transforms.sort_by_key(|t| format!("{t}"));
        transforms.dedup();
        TransformLibrary { transforms }
    }

    /// Library for a GPU (GH200- or MI300A-like).
    pub fn gpu(warp: usize) -> Self {
        let mut transforms = vec![
            Transform::JoinScopes,
            Transform::FissionScope,
            Transform::InterchangeScopes,
            Transform::ReorderOps,
            Transform::Unroll,
            Transform::SetSeq,
            Transform::ReuseDims,
            Transform::MaterializeDims,
            Transform::SwapDims,
            Transform::PadDim { align: warp },
            Transform::SetLocation(Location::Shared),
            Transform::SetLocation(Location::Heap),
            Transform::BindGpu(ScopeKind::GpuGrid),
            Transform::BindGpu(ScopeKind::GpuBlock),
            Transform::BindGpu(ScopeKind::GpuWarp),
            Transform::Vectorize { width: 4 },
        ];
        for tile in [2, 4, 8, 16, 32, 64, 128, 256, warp] {
            transforms.push(Transform::SplitScope { tile });
            transforms.push(Transform::SplitReduction { tile });
        }
        transforms.sort_by_key(|t| format!("{t}"));
        transforms.dedup();
        TransformLibrary { transforms }
    }

    /// Library for the Snitch RISC-V cluster (SSR + FREP extensions, §4.1).
    pub fn snitch() -> Self {
        let mut transforms = vec![
            Transform::JoinScopes,
            Transform::FissionScope,
            Transform::InterchangeScopes,
            Transform::ReorderOps,
            Transform::Unroll,
            Transform::Parallelize,
            Transform::SetSeq,
            Transform::ReuseDims,
            Transform::MaterializeDims,
            Transform::SwapDims,
            Transform::SetLocation(Location::Stack),
            Transform::SetLocation(Location::Heap),
            Transform::EnableSsr,
            Transform::EnableFrep,
        ];
        for tile in [2, 4, 8, 16] {
            transforms.push(Transform::SplitScope { tile });
            transforms.push(Transform::SplitReduction { tile });
        }
        transforms.sort_by_key(|t| format!("{t}"));
        transforms.dedup();
        TransformLibrary { transforms }
    }
}

/// Enumerate every applicable action in `p` for a transformation library —
/// the Dojo's action space at the current state (hundreds of moves on
/// nontrivial kernels, per the paper).
pub fn available_actions(p: &Program, lib: &TransformLibrary) -> Vec<Action> {
    available_actions_in(&Arena::build(p), lib)
}

/// [`available_actions`] on an already-built [`Arena`]: one flattening pass
/// serves every transform in the library.
pub fn available_actions_in(a: &Arena, lib: &TransformLibrary) -> Vec<Action> {
    let mut out = Vec::new();
    for t in &lib.transforms {
        for loc in t.find_locations_in(a) {
            out.push(Action { transform: t.clone(), loc });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdojo_interp::verify_equivalent;
    use perfdojo_ir::builder::*;
    use perfdojo_ir::{validate, Program, ProgramBuilder};

    fn softmax_small() -> Program {
        let mut suite = perfdojo_kernels::small_suite();
        suite.remove(suite.iter().position(|k| k.label == "softmax").unwrap()).program
    }

    #[test]
    fn every_found_location_applies_and_preserves_semantics() {
        // The central §2.2 property on a real kernel: each offered action
        // both applies cleanly and verifies numerically.
        let p = softmax_small();
        let lib = TransformLibrary::cpu(8);
        let actions = available_actions(&p, &lib);
        assert!(!actions.is_empty());
        for a in &actions {
            let q = a.apply(&p).unwrap_or_else(|e| panic!("{a}: {e}"));
            validate(&q).unwrap_or_else(|e| panic!("{a}: invalid program: {e}"));
            let rep = verify_equivalent(&p, &q, 2, 99);
            assert!(rep.is_equivalent(), "{a}: {rep:?}");
        }
    }

    #[test]
    fn two_step_chains_preserve_semantics() {
        let p = softmax_small();
        let lib = TransformLibrary::cpu(8);
        // follow the first few actions one more level down
        for a in available_actions(&p, &lib).into_iter().take(12) {
            let q = a.apply(&p).unwrap();
            for b in available_actions(&q, &lib).into_iter().take(6) {
                let r = b.apply(&q).unwrap_or_else(|e| panic!("{a} then {b}: {e}"));
                let rep = verify_equivalent(&p, &r, 1, 7);
                assert!(rep.is_equivalent(), "{a} then {b}: {rep:?}");
            }
        }
    }

    #[test]
    fn stale_location_rejected_not_misapplied() {
        let p = softmax_small();
        let split = Transform::SplitScope { tile: 2 };
        let locs = split.find_locations(&p);
        let q = split.apply(&p, &locs[0]).unwrap();
        // Re-applying every originally-found location on the *transformed*
        // program must either fail cleanly or still preserve semantics.
        for loc in &locs {
            if let Ok(r) = split.apply(&q, loc) {
                assert!(verify_equivalent(&p, &r, 1, 5).is_equivalent());
            }
        }
    }

    #[test]
    fn vectorize_requires_exact_width() {
        let mut b = ProgramBuilder::new("v");
        b.input("x", &[4, 16]).output("z", &[4, 16]);
        b.scopes(&[4, 16], |b| {
            b.op(out("z", &[0, 1]), mul(ld("x", &[0, 1]), cst(2.0)));
        });
        let p = b.build();
        assert!(Transform::Vectorize { width: 8 }.find_locations(&p).is_empty());
        assert_eq!(Transform::Vectorize { width: 16 }.find_locations(&p).len(), 1);
        // after tiling by 8, the inner loop vectorizes at 8
        let split = Transform::SplitScope { tile: 8 };
        let locs = split.find_locations(&p);
        let loc = locs
            .iter()
            .find(|l| matches!(l, Loc::Node(pp) if pp.len() == 2))
            .expect("inner 16-scope splittable");
        let q = split.apply(&p, loc).unwrap();
        assert_eq!(Transform::Vectorize { width: 8 }.find_locations(&q).len(), 1);
    }

    #[test]
    fn paper_fig5_reuse_requires_fusion() {
        // Unfused producer/consumer: reuse of t's inner dim must NOT be
        // offered. After join_scopes it must be offered (paper Fig. 5).
        let mut b = ProgramBuilder::new("fig5");
        b.input("x", &[4, 8]).output("z", &[4, 8]);
        b.temp("t", &[4, 8], perfdojo_ir::Location::Stack);
        b.scope(4, |b| {
            b.scope(8, |b| {
                b.op(out("t", &[0, 1]), mul(ld("x", &[0, 1]), cst(2.0)));
            });
            b.scope(8, |b| {
                b.op(out("z", &[0, 1]), add(ld("t", &[0, 1]), cst(1.0)));
            });
        });
        let p = b.build();
        let reuse_locs = Transform::ReuseDims.find_locations(&p);
        assert!(
            !reuse_locs
                .iter()
                .any(|l| matches!(l, Loc::BufferDim(b) if b.buffer == "t" && b.dim == 1)),
            "reuse of t#1 must be blocked before fusion: {reuse_locs:?}"
        );
        let join = Transform::JoinScopes;
        let q = join.apply(&p, &Loc::Node(Path::from([0, 0]))).unwrap();
        let reuse_locs = Transform::ReuseDims.find_locations(&q);
        assert!(
            reuse_locs
                .iter()
                .any(|l| matches!(l, Loc::BufferDim(b) if b.buffer == "t" && b.dim == 1)),
            "reuse of t#1 must be offered after fusion: {reuse_locs:?}"
        );
        let r = Transform::ReuseDims
            .apply(&q, &Loc::BufferDim(BufDimLoc { buffer: "t".into(), dim: 1 }))
            .unwrap();
        assert!(verify_equivalent(&p, &r, 2, 17).is_equivalent());
        // and the buffer really shrank
        assert_eq!(r.buffer("t").unwrap().physical_len(), 4);
    }

    #[test]
    fn split_reduction_then_vectorize() {
        // The composition that unlocks vectorized reductions.
        let mut b = ProgramBuilder::new("rsum");
        b.input("x", &[4, 32]).output("s", &[4]);
        b.scope(4, |b| {
            b.op(out("s", &[0]), cst(0.0));
            b.scope(32, |b| {
                b.reduce(out("s", &[0]), perfdojo_ir::BinaryOp::Add, ld("x", &[0, 1]));
            });
        });
        let p = b.build();
        let sr = Transform::SplitReduction { tile: 8 };
        let locs = sr.find_locations(&p);
        assert_eq!(locs.len(), 1);
        let q = sr.apply(&p, &locs[0]).unwrap();
        validate(&q).unwrap();
        assert!(verify_equivalent(&p, &q, 3, 23).is_equivalent());
        // the partial-accumulation inner loop is now vectorizable at 8
        let v = Transform::Vectorize { width: 8 };
        let vlocs = v.find_locations(&q);
        assert!(!vlocs.is_empty(), "{}", q);
        let r = v.apply(&q, &vlocs[0]).unwrap();
        assert!(verify_equivalent(&p, &r, 2, 29).is_equivalent());
    }

    #[test]
    fn snitch_ssr_then_frep() {
        let mut b = ProgramBuilder::new("axpy");
        b.input("x", &[64]).input("y", &[64]).output("z", &[64]);
        b.scope(64, |b| {
            b.op(out("z", &[0]), add(mul(cst(2.0), ld("x", &[0])), ld("y", &[0])));
        });
        let p = b.build();
        // FREP requires SSR first (explicit atomic ordering, §2)
        assert!(Transform::EnableFrep.find_locations(&p).is_empty());
        let ssr = Transform::EnableSsr;
        let locs = ssr.find_locations(&p);
        assert_eq!(locs.len(), 1);
        let q = ssr.apply(&p, &locs[0]).unwrap();
        let frep_locs = Transform::EnableFrep.find_locations(&q);
        assert_eq!(frep_locs.len(), 1);
        let r = Transform::EnableFrep.apply(&q, &frep_locs[0]).unwrap();
        assert!(verify_equivalent(&p, &r, 2, 31).is_equivalent());
        assert!(r.roots[0].as_scope().unwrap().frep);
    }

    #[test]
    fn set_seq_reverses_annotations() {
        let mut b = ProgramBuilder::new("u");
        b.input("x", &[16]).output("z", &[16]);
        b.scope(16, |b| {
            b.op(out("z", &[0]), mul(ld("x", &[0]), cst(3.0)));
        });
        let p = b.build();
        let u = Transform::Unroll.apply(&p, &Loc::Node(Path::from([0]))).unwrap();
        assert_eq!(u.roots[0].as_scope().unwrap().kind, ScopeKind::Unroll);
        let back = Transform::SetSeq.apply(&u, &Loc::Node(Path::from([0]))).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn gpu_binding_hierarchy_enforced() {
        let mut b = ProgramBuilder::new("g");
        b.input("x", &[32, 64]).output("z", &[32, 64]);
        b.scopes(&[32, 64], |b| {
            b.op(out("z", &[0, 1]), mul(ld("x", &[0, 1]), cst(2.0)));
        });
        let p = b.build();
        // warp/block need an enclosing grid/block first
        assert!(Transform::BindGpu(ScopeKind::GpuBlock).find_locations(&p).is_empty());
        assert!(Transform::BindGpu(ScopeKind::GpuWarp).find_locations(&p).is_empty());
        let g = Transform::BindGpu(ScopeKind::GpuGrid)
            .apply(&p, &Loc::Node(Path::from([0])))
            .unwrap();
        let blocks = Transform::BindGpu(ScopeKind::GpuBlock).find_locations(&g);
        assert_eq!(blocks.len(), 1);
        let gb = Transform::BindGpu(ScopeKind::GpuBlock).apply(&g, &blocks[0]).unwrap();
        assert!(verify_equivalent(&p, &gb, 1, 37).is_equivalent());
    }

    #[test]
    fn library_action_counts_are_substantial() {
        // Paper: "there can be hundreds of applicable transformations".
        let p = softmax_small();
        let n = available_actions(&p, &TransformLibrary::cpu(8)).len();
        assert!(n >= 30, "only {n} actions found");
    }
}
