//! Numerical equivalence checking between program variants.
//!
//! This is the empirical-validation harness of paper §2.2: every transformed
//! program is compared against its original on random inputs. The Dojo and
//! the transformation property tests are built on [`verify_equivalent`].

use crate::tensor::Tensor;
use crate::{execute, ExecError, Resolved};
use perfdojo_ir::Program;
use perfdojo_util::rng::Rng;
use std::collections::HashMap;

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyReport {
    /// Outputs matched within tolerance on every trial.
    Equivalent,
    /// Outputs differed; carries the offending array and max abs diff.
    Mismatch { array: String, max_abs_diff: f64 },
    /// One of the programs failed to execute.
    ExecFailed(String),
    /// Interfaces differ (different inputs/outputs or shapes).
    InterfaceMismatch(String),
}

impl VerifyReport {
    /// True when the programs were found equivalent.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, VerifyReport::Equivalent)
    }
}

/// Generate seeded random inputs for a program.
///
/// Values are drawn from `[0.1, 1.1)` — strictly positive so kernels with
/// divisions and logs stay well-conditioned, while still exercising
/// reductions and maxima nontrivially.
pub fn random_inputs(p: &Program, seed: u64) -> HashMap<String, Tensor> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eed_5eed);
    let mut m = HashMap::new();
    for name in &p.inputs {
        let shape = p.buffer_of(name).map(|b| b.shape()).unwrap_or_default();
        let len: usize = shape.iter().product::<usize>().max(1);
        let data: Vec<f64> = (0..len).map(|_| rng.random_range(0.1..1.1)).collect();
        m.insert(name.clone(), Tensor { shape, data });
    }
    m
}

/// Above this many dynamic op instances
/// ([`Program::dynamic_op_instances`]), callers skip numeric verification:
/// interpreting a paper-scale kernel in every check is not practical. The
/// Dojo, library dispatch and the graph tier all gate on it.
pub const VERIFY_WORK_LIMIT: u64 = 2_000_000;

/// Numerically compare two programs on `trials` random inputs.
///
/// The reference `original` defines the interface; `transformed` must accept
/// the same inputs and produce the same outputs within `rtol`/`atol`. Each
/// program is resolved once and run on fresh memory in every trial.
pub fn verify_equivalent(
    original: &Program,
    transformed: &Program,
    trials: usize,
    seed: u64,
) -> VerifyReport {
    if original.inputs != transformed.inputs || original.outputs != transformed.outputs {
        return VerifyReport::InterfaceMismatch(format!(
            "in {:?}/{:?} out {:?}/{:?}",
            original.inputs, transformed.inputs, original.outputs, transformed.outputs
        ));
    }
    for (name_o, name_t) in original.inputs.iter().zip(&transformed.inputs) {
        let so = original.buffer_of(name_o).map(|b| b.shape());
        let st = transformed.buffer_of(name_t).map(|b| b.shape());
        if so != st {
            return VerifyReport::InterfaceMismatch(format!("input '{name_o}' shape {so:?} vs {st:?}"));
        }
    }
    let (resolved_o, resolved_t) = (Resolved::new(original), Resolved::new(transformed));
    for t in 0..trials.max(1) {
        let inputs = random_inputs(original, seed.wrapping_add(t as u64));
        let ref_out = match resolved_o.run(&inputs) {
            Ok(o) => o,
            Err(e) => return VerifyReport::ExecFailed(format!("original: {e}")),
        };
        let new_out = match resolved_t.run(&inputs) {
            Ok(o) => o,
            Err(e) => return VerifyReport::ExecFailed(format!("transformed: {e}")),
        };
        for (name, r) in &ref_out {
            let n = match new_out.get(name) {
                Some(n) => n,
                None => return VerifyReport::InterfaceMismatch(format!("missing output '{name}'")),
            };
            if !r.allclose(n, 1e-9, 1e-11) {
                let d = if r.shape == n.shape { r.max_abs_diff(n) } else { f64::INFINITY };
                return VerifyReport::Mismatch { array: name.clone(), max_abs_diff: d };
            }
        }
    }
    VerifyReport::Equivalent
}

/// Execute a program once on seeded random inputs (convenience used by
/// examples and the error paths of `ExecError` reporting).
pub fn run_on_random(p: &Program, seed: u64) -> Result<HashMap<String, Tensor>, ExecError> {
    execute(p, &random_inputs(p, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdojo_ir::builder::*;
    use perfdojo_ir::{BufferDecl, DType, Location, ProgramBuilder};

    fn relu_rowwise(nested: bool) -> Program {
        let mut b = ProgramBuilder::new("relu");
        b.input("x", &[4, 8]).output("z", &[4, 8]);
        if nested {
            b.scopes(&[4, 8], |b| {
                b.op(out("z", &[0, 1]), un(perfdojo_ir::UnaryOp::Relu, ld("x", &[0, 1])));
            });
        } else {
            // flattened single loop over 32 with div/mod-free affine remap:
            // z[{0}/8... ] not affine; instead iterate [8,4] transposed order
            b.scopes(&[8, 4], |b| {
                b.op(
                    out("z", &[1, 0]),
                    un(perfdojo_ir::UnaryOp::Relu, ld("x", &[1, 0])),
                );
            });
        }
        b.build()
    }

    #[test]
    fn equivalent_variants_verify() {
        let a = relu_rowwise(true);
        let b = relu_rowwise(false);
        assert!(verify_equivalent(&a, &b, 3, 7).is_equivalent());
    }

    #[test]
    fn broken_variant_detected() {
        let a = relu_rowwise(true);
        let mut b = ProgramBuilder::new("relu");
        b.input("x", &[4, 8]).output("z", &[4, 8]);
        b.scopes(&[4, 8], |bb| {
            // wrong op: adds 1 instead of relu (differs on positive inputs)
            bb.op(out("z", &[0, 1]), add(ld("x", &[0, 1]), cst(1.0)));
        });
        let b = b.build();
        assert!(matches!(
            verify_equivalent(&a, &b, 2, 7),
            VerifyReport::Mismatch { .. }
        ));
    }

    #[test]
    fn interface_mismatch_detected() {
        let a = relu_rowwise(true);
        let mut b = ProgramBuilder::new("other");
        b.input("q", &[4, 8]).output("z", &[4, 8]);
        b.scopes(&[4, 8], |bb| {
            bb.op(out("z", &[0, 1]), un(perfdojo_ir::UnaryOp::Relu, ld("q", &[0, 1])));
        });
        let b = b.build();
        assert!(matches!(
            verify_equivalent(&a, &b, 1, 7),
            VerifyReport::InterfaceMismatch(_)
        ));
    }

    #[test]
    fn invalid_reuse_is_caught_numerically() {
        // Paper Fig. 5 (bottom): reusing a buffer dim *without* fusing the
        // consumer loop first corrupts the computation — the verifier sees it.
        let good = {
            let mut b = ProgramBuilder::new("f5");
            b.input("x", &[4, 8]).output("z", &[4, 8]);
            b.temp("t", &[4, 8], Location::Stack);
            b.scope(4, |b| {
                b.scope(8, |b| {
                    b.op(out("t", &[0, 1]), mul(ld("x", &[0, 1]), cst(2.0)));
                });
                b.scope(8, |b| {
                    b.op(out("z", &[0, 1]), add(ld("t", &[0, 1]), cst(1.0)));
                });
            });
            b.build()
        };
        let broken = {
            let mut b = ProgramBuilder::new("f5");
            b.input("x", &[4, 8]).output("z", &[4, 8]);
            let mut t = BufferDecl::new("t", DType::F32, &[4, 8], Location::Stack);
            t.dims[1].materialized = false; // reuse WITHOUT fusing: invalid
            b.buffer(t);
            b.scope(4, |b| {
                b.scope(8, |b| {
                    b.op(out("t", &[0, 1]), mul(ld("x", &[0, 1]), cst(2.0)));
                });
                b.scope(8, |b| {
                    b.op(out("z", &[0, 1]), add(ld("t", &[0, 1]), cst(1.0)));
                });
            });
            b.build()
        };
        assert!(matches!(
            verify_equivalent(&good, &broken, 1, 3),
            VerifyReport::Mismatch { array, .. } if array == "z"
        ));
    }

    #[test]
    fn valid_reuse_verifies() {
        // Fig. 5 (top): with the loops fused, the reuse is legal.
        let good = {
            let mut b = ProgramBuilder::new("f5");
            b.input("x", &[4, 8]).output("z", &[4, 8]);
            b.temp("t", &[4, 8], Location::Stack);
            b.scope(4, |b| {
                b.scope(8, |b| {
                    b.op(out("t", &[0, 1]), mul(ld("x", &[0, 1]), cst(2.0)));
                });
                b.scope(8, |b| {
                    b.op(out("z", &[0, 1]), add(ld("t", &[0, 1]), cst(1.0)));
                });
            });
            b.build()
        };
        let fused_reused = {
            let mut b = ProgramBuilder::new("f5");
            b.input("x", &[4, 8]).output("z", &[4, 8]);
            let mut t = BufferDecl::new("t", DType::F32, &[4, 8], Location::Stack);
            t.dims[0].materialized = false;
            t.dims[1].materialized = false;
            b.buffer(t);
            b.scopes(&[4, 8], |b| {
                b.op(out("t", &[0, 1]), mul(ld("x", &[0, 1]), cst(2.0)));
                b.op(out("z", &[0, 1]), add(ld("t", &[0, 1]), cst(1.0)));
            });
            b.build()
        };
        assert!(verify_equivalent(&good, &fused_reused, 2, 11).is_equivalent());
    }

    #[test]
    fn random_inputs_deterministic() {
        let p = relu_rowwise(true);
        let a = random_inputs(&p, 42);
        let b = random_inputs(&p, 42);
        let c = random_inputs(&p, 43);
        assert_eq!(a["x"], b["x"]);
        assert_ne!(a["x"], c["x"]);
    }
}
