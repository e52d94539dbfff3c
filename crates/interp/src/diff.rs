//! Differential comparison policy, shared by the fuzzer and the graph
//! oracle.
//!
//! Two oracles, two tolerances:
//!
//! * **Codegen differential** (`values_match_exact`): the interpreter and
//!   the lowered-ISA executor walk the same tree in the same order over the
//!   same f64 slabs, so their outputs must agree **bit for bit** (NaN
//!   pattern included).
//! * **Interpreter differential** (`values_match`): transformations may
//!   legally reassociate reductions (`split_reduction`), so float paths are
//!   compared with an f32-ULP bound plus a tiny absolute floor for
//!   catastrophic cancellation near zero. Integer-valued paths (iterator
//!   values used as data, constant arithmetic that lands on integers) get no
//!   such slack: two distinct integral values never match.

use crate::Tensor;

/// Maximum f32 ULP distance tolerated on non-integral float paths.
const MAX_ULPS_F32: u64 = 8;
/// Absolute floor below which reassociation noise around zero is forgiven.
const ATOL: f64 = 1e-9;

/// Bit-exact comparison (used for the codegen differential). `-0.0 == +0.0`
/// and any-NaN-vs-any-NaN are the only non-identity bit patterns accepted.
pub fn values_match_exact(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || a == b || (a.is_nan() && b.is_nan())
}

/// Tolerant comparison (used for the interpreter differential): bit-exact
/// for integer-valued paths, ULP-bounded (in f32) for float paths.
pub fn values_match(a: f64, b: f64) -> bool {
    if a.to_bits() == b.to_bits() {
        return true;
    }
    if a.is_nan() || b.is_nan() {
        return a.is_nan() && b.is_nan();
    }
    if a == b {
        return true; // -0.0 vs +0.0
    }
    // Integer paths are bit-exact: two distinct integral values never match,
    // however close (e.g. 1e9 vs 1e9+1 is within one f32 ULP but wrong).
    if a.fract() == 0.0 && b.fract() == 0.0 {
        return false;
    }
    if (a - b).abs() <= ATOL {
        return true;
    }
    f32_ulp_distance(a as f32, b as f32) <= MAX_ULPS_F32
}

/// ULP distance between two finite f32s via the ordered-integer mapping
/// (sign-magnitude bits → monotonic lattice index).
fn f32_ulp_distance(a: f32, b: f32) -> u64 {
    fn key(x: f32) -> i64 {
        let bits = x.to_bits() as i64; // 0 ..= 2^32-1
        if bits & 0x8000_0000 != 0 {
            0x8000_0000 - bits // negatives descend below zero
        } else {
            bits
        }
    }
    (key(a) - key(b)).unsigned_abs()
}

/// First mismatching flat index between two tensors, with both values.
/// Returns `None` when every element matches under the chosen policy.
pub fn first_mismatch(reference: &Tensor, other: &Tensor, exact: bool) -> Option<(usize, f64, f64)> {
    if reference.data.len() != other.data.len() {
        return Some((usize::MAX, reference.data.len() as f64, other.data.len() as f64));
    }
    let eq = if exact { values_match_exact } else { values_match };
    reference
        .data
        .iter()
        .zip(&other.data)
        .position(|(&r, &o)| !eq(r, o))
        .map(|i| (i, reference.data[i], other.data[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_policy_accepts_only_bits_zeros_and_nans() {
        assert!(values_match_exact(1.5, 1.5));
        assert!(values_match_exact(0.0, -0.0));
        assert!(values_match_exact(f64::NAN, f64::NAN));
        assert!(!values_match_exact(1.5, 1.5 + f64::EPSILON));
        assert!(!values_match_exact(f64::NAN, 1.0));
        assert!(!values_match_exact(f64::INFINITY, f64::NEG_INFINITY));
    }

    #[test]
    fn tolerant_policy_is_bit_exact_on_integer_paths() {
        assert!(values_match(3.0, 3.0));
        // 1e9 and 1e9+1 are within one f32 ULP but are distinct integers.
        assert!(!values_match(1.0e9, 1.0e9 + 1.0));
        assert!(!values_match(3.0, 4.0));
    }

    #[test]
    fn tolerant_policy_bounds_float_paths_by_f32_ulps() {
        let a = 0.1234567f64;
        // Next representable f32 neighbour: well within 8 ULPs.
        let b = (a as f32).to_bits() + 3;
        assert!(values_match(a, f32::from_bits(b) as f64));
        // 1e-3 relative error on a non-integral value: far outside.
        assert!(!values_match(0.1234567, 0.1235801));
        // Cancellation near zero: absolute floor forgives reassociation noise.
        assert!(values_match(1.0e-12, -1.0e-12));
    }

    #[test]
    fn nan_is_poison_equal_under_both_policies() {
        assert!(values_match(f64::NAN, f64::NAN));
        assert!(!values_match(f64::NAN, 0.0));
        assert!(!values_match(0.0, f64::NAN));
    }

    #[test]
    fn first_mismatch_reports_index_and_values() {
        let r = Tensor { shape: vec![4], data: vec![1.0, 2.0, 3.0, 4.0] };
        let mut o = r.clone();
        assert_eq!(first_mismatch(&r, &o, true), None);
        o.data[2] = 5.0;
        assert_eq!(first_mismatch(&r, &o, false), Some((2, 3.0, 5.0)));
    }
}
