//! Stable structural fingerprints for programs.
//!
//! The library subsystem (`perfdojo-library`) keys tuned schedules by the
//! *operator structure* of a kernel, independent of its concrete shapes:
//! `softmax(24576, 512)` and `softmax(4, 8)` must collide so a schedule
//! tuned at one shape can be replayed (and re-validated) at another. The
//! fingerprint is the textual printer's structure view ([`crate::text`])
//! streamed straight into FNV-1a: the same writer and the same per-item
//! code as the exact text, with no copy of the program and no rendered
//! string in between. So any change to the textual format is
//! automatically a fingerprint change (the on-disk library stores
//! [`crate::text::FORMAT_VERSION`] alongside and invalidates on
//! mismatch).
//!
//! The structure view blanks everything shape-derived:
//! * the kernel name (a label, not structure) prints as `_`,
//! * every buffer dimension (logical size, padding) as `0`,
//! * every constant scope trip count as `0`,
//! * every floating-point literal as `0.0` (shapes leak into constants as
//!   `1/N` factors in mean-style reductions).
//!
//! Scope kinds/annotations, buffer locations, dtypes, array names, access
//! affine functions and the operator tree all remain — two programs with
//! the same fingerprint are the "same loop nest over the same expressions"
//! at possibly different sizes. Replayed schedules are always re-validated
//! against the query program, so a fingerprint collision can cost
//! optimality, never correctness.

use crate::affine::Affine;
use crate::expr::{Access, Expr, IndexExpr};
use crate::node::{Node, ScopeSize};
use crate::program::Program;
use crate::text::{print_program, write_program, View};
use std::fmt;

/// Render the shape-normalized textual form of a program (the text
/// [`structure_hash`] hashes).
pub fn structure_text(p: &Program) -> String {
    let mut s = String::new();
    write_program(&mut s, p, View::Structure).expect("writing to a String cannot fail");
    s
}

/// Render the *exact* textual identity of a program: the full printed
/// form, shapes, constants and name included. Unlike [`structure_text`]
/// nothing is normalized away — two programs share an exact text iff the
/// printer cannot tell them apart, which for this IR means they are the
/// same program. This is the key of the Dojo's cost cache
/// (`perfdojo-core`): analytical cost is a pure function of the printed
/// program, so equal texts are guaranteed equal costs.
pub fn exact_text(p: &Program) -> String {
    print_program(p)
}

/// A 128-bit exact program fingerprint plus stream length.
///
/// Two independently-mixed 64-bit hashes over a tagged, length-prefixed
/// serialization of the *entire* program identity (name, interface, buffer
/// declarations with shapes/padding/locations, the full tree with scope
/// annotations, access affine functions and f64 constant bit patterns).
/// Everything [`exact_text`] prints feeds the stream, so equal fingerprint
/// inputs imply equal texts; `len` additionally pins the serialization
/// length. This is the cost-cache key in `perfdojo-core`: at 128 bits + length
/// an accidental collision is astronomically unlikely, and the cache's audit
/// path (`Dojo::with_cache_audit`) still compares [`exact_text`] on hash hits
/// so a collision would be *detected and repaired*, never silently wrong.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Fp128 {
    /// First multiply–rotate lane (FNV-prime multiplier).
    pub hi: u64,
    /// Independently-mixed second lane (golden-ratio multiplier over the
    /// bit-rotated blocks).
    pub lo: u64,
    /// Number of bytes serialized.
    pub len: u64,
}

/// Dual-stream accumulator behind [`exact_fp128`].
///
/// The tagged serialization is buffered and hashed one 64-bit block at a
/// time (two independent multiply–rotate lanes with a splitmix-style
/// finalizer), not byte at a time — the fingerprint is probed on *every*
/// cost-cache access, so its cost is part of the per-evaluation budget.
/// Trailing-zero padding in the final partial block cannot alias two
/// streams: the byte length feeds both finalizers and is carried in
/// [`Fp128::len`].
struct DualAcc {
    buf: Vec<u8>,
}

impl DualAcc {
    fn new() -> DualAcc {
        DualAcc { buf: Vec::with_capacity(4096) }
    }

    fn byte(&mut self, b: u8) {
        self.buf.push(b);
    }

    fn bytes(&mut self, bs: &[u8]) {
        self.buf.extend_from_slice(bs);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Length-prefixed string (prefixing keeps the stream injective).
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    fn finish(&self) -> Fp128 {
        // splitmix64's avalanche: every input bit affects every output bit
        fn mix(mut z: u64) -> u64 {
            z ^= z >> 30;
            z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^= z >> 27;
            z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let mut h1 = 0xcbf2_9ce4_8422_2325u64;
        let mut h2 = 0x9e37_79b9_7f4a_7c15u64;
        let mut absorb = |v: u64| {
            h1 = (h1 ^ v).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29);
            h2 = (h2 ^ v.rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(23);
        };
        let mut chunks = self.buf.chunks_exact(8);
        for c in &mut chunks {
            absorb(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut w = [0u8; 8];
            w[..rem.len()].copy_from_slice(rem);
            absorb(u64::from_le_bytes(w));
        }
        let len = self.buf.len() as u64;
        Fp128 { hi: mix(h1 ^ len), lo: mix(h2.wrapping_add(len)), len }
    }
}

/// Compute the 128-bit exact fingerprint of a program by walking the tree
/// directly — no textual rendering, no intermediate allocation.
pub fn exact_fp128(p: &Program) -> Fp128 {
    let mut h = DualAcc::new();
    h.str(&p.name);
    h.usize(p.inputs.len());
    for s in &p.inputs {
        h.str(s);
    }
    h.usize(p.outputs.len());
    for s in &p.outputs {
        h.str(s);
    }
    h.usize(p.buffers.len());
    for b in &p.buffers {
        h.str(&b.name);
        h.str(b.dtype.name());
        h.str(b.location.name());
        h.usize(b.dims.len());
        for d in &b.dims {
            h.usize(d.size);
            h.byte(d.materialized as u8);
            h.usize(d.pad_to);
        }
        h.usize(b.arrays.len());
        for a in &b.arrays {
            h.str(a);
        }
    }
    h.usize(p.roots.len());
    for n in &p.roots {
        fp_node(&mut h, n);
    }
    h.finish()
}

fn fp_node(h: &mut DualAcc, n: &Node) {
    match n {
        Node::Scope(s) => {
            h.byte(1);
            match &s.size {
                ScopeSize::Const(n) => {
                    h.byte(1);
                    h.usize(*n);
                }
                ScopeSize::DataDep(a) => {
                    h.byte(2);
                    fp_access(h, a);
                }
                ScopeSize::While(a) => {
                    h.byte(3);
                    fp_access(h, a);
                }
            }
            h.str(s.kind.suffix());
            h.byte(s.frep as u8);
            h.byte(s.ssr as u8);
            h.usize(s.children.len());
            for c in s.children.iter() {
                fp_node(h, c);
            }
        }
        Node::Op(op) => {
            h.byte(2);
            fp_access(h, &op.out);
            fp_expr(h, &op.expr);
        }
    }
}

fn fp_access(h: &mut DualAcc, a: &Access) {
    h.str(&a.array);
    h.usize(a.indices.len());
    for ix in &a.indices {
        match ix {
            IndexExpr::Affine(af) => {
                h.byte(1);
                fp_affine(h, af);
            }
            IndexExpr::Indirect(inner) => {
                h.byte(2);
                fp_access(h, inner);
            }
        }
    }
}

fn fp_affine(h: &mut DualAcc, a: &Affine) {
    // terms are normalized (sorted by depth, no zero coefficients), so the
    // term list is a canonical identity of the function
    h.usize(a.terms.len());
    for &(d, c) in &a.terms {
        h.usize(d);
        h.i64(c);
    }
    h.i64(a.offset);
}

fn fp_expr(h: &mut DualAcc, e: &Expr) {
    match e {
        Expr::Load(a) => {
            h.byte(1);
            fp_access(h, a);
        }
        Expr::Const(c) => {
            h.byte(2);
            h.u64(c.to_bits());
        }
        Expr::Index(a) => {
            h.byte(3);
            fp_affine(h, a);
        }
        Expr::Unary(op, x) => {
            h.byte(4);
            h.str(op.name());
            fp_expr(h, x);
        }
        Expr::Binary(op, x, y) => {
            h.byte(5);
            h.str(op.name());
            fp_expr(h, x);
            fp_expr(h, y);
        }
    }
}

/// FNV-1a over arbitrary bytes (stable across platforms and releases).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Stable structural hash: FNV-1a of [`structure_text`], streamed from
/// the printer without rendering the text.
pub fn structure_hash(p: &Program) -> u64 {
    let mut h = HashAcc::new();
    write_program(&mut h, p, View::Structure).expect("hashing cannot fail");
    h.finish()
}

/// Incremental FNV-1a accumulator for composite fingerprints.
///
/// Graph-level keys (`perfdojo-graph`) hash *several* per-node structure
/// hashes plus edge topology into one word; feeding them through the same
/// FNV-1a stream as [`fnv1a`] keeps the two fingerprint families on one
/// hash function. `HashAcc::new().push_bytes(b).finish()` is exactly
/// `fnv1a(b)`.
#[derive(Clone, Copy, Debug)]
pub struct HashAcc(u64);

impl HashAcc {
    /// Fresh accumulator at the FNV-1a offset basis.
    pub fn new() -> HashAcc {
        HashAcc(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb raw bytes.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Absorb a 64-bit word (little-endian byte order, so the stream is
    /// platform-stable).
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.push_bytes(&v.to_le_bytes())
    }

    /// Absorb a usize as a u64 (indices, counts).
    pub fn push_usize(&mut self, v: usize) -> &mut Self {
        self.push_u64(v as u64)
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for HashAcc {
    fn default() -> Self {
        HashAcc::new()
    }
}

/// A text sink: writing a string absorbs its UTF-8 bytes.
impl fmt::Write for HashAcc {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.push_bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::ProgramBuilder;

    fn scaled(r: usize, c: usize, k: f64) -> Program {
        let mut b = ProgramBuilder::new(&format!("sc{r}x{c}"));
        b.input("x", &[r, c]).output("z", &[r, c]);
        b.scopes(&[r, c], |b| {
            b.op(out("z", &[0, 1]), mul(ld("x", &[0, 1]), cst(k)));
        });
        b.build()
    }

    #[test]
    fn same_structure_different_shapes_collide() {
        // shapes, names and shape-derived constants all normalize away
        assert_eq!(structure_hash(&scaled(4, 8, 0.25)), structure_hash(&scaled(64, 128, 1.0 / 128.0)));
    }

    #[test]
    fn different_structure_distinguished() {
        let mul2 = scaled(4, 8, 2.0);
        let mut b = ProgramBuilder::new("other");
        b.input("x", &[4, 8]).output("z", &[4, 8]);
        b.scopes(&[4, 8], |b| {
            b.op(out("z", &[0, 1]), add(ld("x", &[0, 1]), cst(2.0)));
        });
        assert_ne!(structure_hash(&mul2), structure_hash(&b.build()));
    }

    #[test]
    fn suite_kernels_collide_across_paper_and_verify_shapes() {
        // The property the library depends on: every Table 3 kernel keeps
        // its fingerprint between the paper-scale and shrunken instances.
        // (Exercised here on two hand-built scaled programs; the kernels
        // crate re-checks the full suite to avoid a dependency cycle.)
        let a = scaled(3072, 4096, 1.0 / 4096.0);
        let b = scaled(3, 16, 1.0 / 16.0);
        assert_eq!(structure_hash(&a), structure_hash(&b));
    }

    #[test]
    fn transformed_program_changes_fingerprint() {
        // splitting a scope is a structural change (one more loop level)
        let p = scaled(4, 8, 2.0);
        let mut q = p.clone();
        // manually wrap the inner 8-scope's body in a new 4-scope (what a
        // split produces: one extra nesting level)
        let inner =
            q.roots[0].as_scope_mut().unwrap().children_mut()[0].as_scope_mut().unwrap();
        let body = std::mem::take(inner.children_mut());
        inner.set_children(vec![Node::Scope(crate::node::Scope::new(4, body))]);
        assert_ne!(structure_hash(&p), structure_hash(&q));
    }

    #[test]
    fn exact_hash_distinguishes_shapes_structure_hash_conflates() {
        let a = scaled(4, 8, 0.25);
        let b = scaled(64, 128, 0.25);
        assert_eq!(structure_hash(&a), structure_hash(&b));
        assert_ne!(exact_text(&a), exact_text(&b));
        // and exact identity is reflexive/deterministic
        assert_eq!(exact_text(&a), exact_text(&a.clone()));
    }

    #[test]
    fn fp128_equals_iff_exact_text_equals() {
        let a = scaled(4, 8, 0.25);
        let b = scaled(64, 128, 0.25); // same structure, different shapes
        let c = scaled(4, 8, 0.25);
        assert_eq!(exact_fp128(&a), exact_fp128(&c));
        assert_ne!(exact_fp128(&a), exact_fp128(&b));
        assert_eq!(exact_fp128(&a), exact_fp128(&a.clone()));
        // stream length is part of the key and is deterministic
        assert!(exact_fp128(&a).len > 0);
        assert_eq!(exact_fp128(&a).len, exact_fp128(&c).len);
    }

    #[test]
    fn fp128_sees_constant_bit_patterns() {
        // 0.0 and -0.0 print differently and hash differently
        let a = scaled(4, 8, 0.0);
        let b = scaled(4, 8, -0.0);
        assert_ne!(exact_text(&a), exact_text(&b));
        assert_ne!(exact_fp128(&a), exact_fp128(&b));
    }

    #[test]
    fn fp128_sees_non_tree_identity() {
        // fields the tree walk could plausibly miss: padding, location,
        // materialization, kernel name, scope annotations
        let base = scaled(4, 8, 2.0);
        let mut pad = base.clone();
        pad.buffers[0].dims[1].pad_to = 16;
        assert_ne!(exact_fp128(&base), exact_fp128(&pad));
        let mut renamed = base.clone();
        renamed.name = "other".into();
        assert_ne!(exact_fp128(&base), exact_fp128(&renamed));
        let mut annotated = base.clone();
        annotated.roots[0].as_scope_mut().unwrap().kind = crate::ScopeKind::Unroll;
        assert_ne!(exact_fp128(&base), exact_fp128(&annotated));
    }

    #[test]
    fn fp128_streams_are_independent(){
        // the two words disagree on what they map inputs to (not one hash
        // duplicated), so a collision must defeat both mixers at once
        let a = exact_fp128(&scaled(4, 8, 0.25));
        let b = exact_fp128(&scaled(4, 8, 0.5));
        assert_ne!(a.hi, a.lo);
        assert_ne!(a.hi.wrapping_sub(b.hi), a.lo.wrapping_sub(b.lo));
    }

    #[test]
    fn fnv_known_answer() {
        // FNV-1a reference values
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn hash_acc_matches_oneshot_fnv() {
        assert_eq!(HashAcc::new().finish(), fnv1a(b""));
        assert_eq!(HashAcc::new().push_bytes(b"a").finish(), fnv1a(b"a"));
        let mut split = HashAcc::new();
        split.push_bytes(b"sub").push_bytes(b"graph");
        assert_eq!(split.finish(), fnv1a(b"subgraph"));
        // word pushes are the little-endian byte stream
        assert_eq!(
            HashAcc::new().push_u64(0x0102_0304_0506_0708).finish(),
            fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1])
        );
    }
}
