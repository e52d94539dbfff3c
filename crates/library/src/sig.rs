//! Canonical kernel signatures.
//!
//! A [`KernelSig`] identifies *what is being computed, at which shape, for
//! which target*: the shape-normalized structural fingerprint of the IR
//! (via [`perfdojo_ir::fingerprint`]), the concrete logical shapes, the
//! element types, and the target name. Two structurally-equal programs —
//! same loop nest over the same expressions, regardless of kernel/constant
//! naming details erased by normalization — collide on `structure`, which
//! is exactly what nearest-shape fallback dispatch needs: all tuned shapes
//! of one operator on one target share `(structure, dtype, target)` and
//! differ only in `shape`.

use perfdojo_ir::Program;
use std::fmt;

/// Reserved dtype marker for subgraph signatures (see [`KernelSig::subgraph`]).
const SUBGRAPH_DTYPE: &str = "graph";

/// Canonical identity of one tuned kernel instance on one target.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct KernelSig {
    /// Shape-normalized structural fingerprint of the (untransformed) IR.
    pub structure: u64,
    /// Logical buffer extents in declaration order, flattened.
    pub shape: Vec<usize>,
    /// Element types of the buffers, deduplicated in declaration order
    /// (`f32`, or e.g. `f32+i32` for mixed kernels).
    pub dtype: String,
    /// Target name (`x86`, `gh200`, `snitch`, …).
    pub target: String,
}

impl KernelSig {
    /// Signature of `program` (its *naive*, untransformed form) on `target`.
    pub fn of(program: &Program, target: &str) -> KernelSig {
        let mut shape = Vec::new();
        let mut dtype = String::new();
        for b in &program.buffers {
            shape.extend(b.dims.iter().map(|d| d.size));
            let t = b.dtype.name();
            if !dtype.split('+').any(|seen| seen == t) {
                if !dtype.is_empty() {
                    dtype.push('+');
                }
                dtype.push_str(t);
            }
        }
        KernelSig {
            structure: perfdojo_ir::structure_hash(program),
            shape,
            dtype,
            target: target.to_string(),
        }
    }

    /// Signature of a *subgraph* (multi-kernel block) on `target`.
    ///
    /// `fingerprint` is the structural graph fingerprint from
    /// `perfdojo-graph` (per-node shape-normalized structure hashes plus
    /// edge topology), `shape` the composed program's flattened buffer
    /// extents. The dtype slot carries the reserved marker `graph`, which
    /// no single-kernel signature can produce ([`KernelSig::of`] emits IR
    /// dtype names), so subgraph keys and kernel keys can never collide and
    /// nearest-shape fallback stays within each key class.
    pub fn subgraph(fingerprint: u64, shape: Vec<usize>, target: &str) -> KernelSig {
        KernelSig {
            structure: fingerprint,
            shape,
            dtype: SUBGRAPH_DTYPE.to_string(),
            target: target.to_string(),
        }
    }

    /// True for subgraph (block) signatures made by [`KernelSig::subgraph`].
    pub fn is_subgraph(&self) -> bool {
        self.dtype == SUBGRAPH_DTYPE
    }

    /// Stable textual key (also the on-disk entry key).
    pub fn key(&self) -> String {
        self.to_string()
    }

    /// Parse a key back into a signature (inverse of [`KernelSig::key`]).
    pub fn parse_key(s: &str) -> Option<KernelSig> {
        let mut parts = s.split('|');
        let structure = u64::from_str_radix(parts.next()?, 16).ok()?;
        let shape_s = parts.next()?;
        let dtype = parts.next()?.to_string();
        let target = parts.next()?.to_string();
        if parts.next().is_some() || dtype.is_empty() || target.is_empty() {
            return None;
        }
        let shape = if shape_s.is_empty() {
            Vec::new()
        } else {
            shape_s.split('x').map(|d| d.parse::<usize>().ok()).collect::<Option<Vec<_>>>()?
        };
        Some(KernelSig { structure, shape, dtype, target })
    }

    /// True when `other` is the same operator/dtype/target (only the shape
    /// may differ) — the precondition for fallback replay.
    pub fn same_operator(&self, other: &KernelSig) -> bool {
        self.structure == other.structure
            && self.dtype == other.dtype
            && self.target == other.target
            && self.shape.len() == other.shape.len()
    }

    /// Shape distance to another signature of the same operator: the sum of
    /// per-dimension `|ln(a/b)|` (0 for identical shapes, symmetric, and
    /// scale-aware — 64→128 is as far as 8→16). `None` when the signatures
    /// are not the same operator.
    pub fn shape_distance(&self, other: &KernelSig) -> Option<f64> {
        if !self.same_operator(other) {
            return None;
        }
        let mut d = 0.0;
        for (&a, &b) in self.shape.iter().zip(&other.shape) {
            if a == 0 || b == 0 {
                return None;
            }
            d += (a as f64 / b as f64).ln().abs();
        }
        Some(d)
    }
}

/// Key form: `<hex-structure>|<d1>x<d2>…|<dtype>|<target>`.
impl fmt::Display for KernelSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}|", self.structure)?;
        for (i, d) in self.shape.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "|{}|{}", self.dtype, self.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(target: &str, rows: usize, cols: usize) -> KernelSig {
        KernelSig::of(&perfdojo_kernels::softmax(rows, cols), target)
    }

    #[test]
    fn key_roundtrips() {
        let s = sig("x86", 4, 8);
        assert_eq!(KernelSig::parse_key(&s.key()), Some(s.clone()));
        assert!(s.key().contains("|x86"), "{}", s.key());
        assert!(KernelSig::parse_key("zzz").is_none());
        assert!(KernelSig::parse_key("00aa|4x8|f32").is_none(), "missing target");
        assert!(KernelSig::parse_key("00aa|4xq|f32|x86").is_none(), "bad shape");
    }

    #[test]
    fn same_operator_collides_across_shapes() {
        let a = sig("x86", 4, 8);
        let b = sig("x86", 64, 128);
        assert_ne!(a.key(), b.key());
        assert!(a.same_operator(&b));
        assert_eq!(a.shape_distance(&a), Some(0.0));
        let d = a.shape_distance(&b).unwrap();
        assert!(d > 0.0);
        // symmetric
        assert!((d - b.shape_distance(&a).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn different_target_or_operator_incompatible() {
        let a = sig("x86", 4, 8);
        assert!(!a.same_operator(&sig("gh200", 4, 8)));
        let other = KernelSig::of(&perfdojo_kernels::matmul(4, 6, 5), "x86");
        assert!(!a.same_operator(&other));
        assert_eq!(a.shape_distance(&other), None);
    }

    #[test]
    fn subgraph_sigs_are_their_own_key_class() {
        let g = KernelSig::subgraph(0xabcd, vec![4, 8, 8], "x86");
        assert!(g.is_subgraph());
        assert!(!sig("x86", 4, 8).is_subgraph());
        // round-trips through the key format like any signature
        assert_eq!(KernelSig::parse_key(&g.key()), Some(g.clone()));
        // a single-kernel sig with the same structure word is a different
        // operator: the dtype marker separates the key classes
        let fake = KernelSig { structure: 0xabcd, shape: vec![4, 8, 8], dtype: "f32".into(), target: "x86".into() };
        assert!(!g.same_operator(&fake));
        // but two shapes of the same subgraph are nearest-able
        let g2 = KernelSig::subgraph(0xabcd, vec![8, 16, 16], "x86");
        assert!(g.same_operator(&g2));
        assert!(g.shape_distance(&g2).unwrap() > 0.0);
    }

    #[test]
    fn nearer_shape_has_smaller_distance() {
        let q = sig("x86", 8, 16);
        let near = sig("x86", 8, 32);
        let far = sig("x86", 1024, 1024);
        assert!(q.shape_distance(&near).unwrap() < q.shape_distance(&far).unwrap());
    }
}
