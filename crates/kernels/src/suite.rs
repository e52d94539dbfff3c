//! Named kernel instances: the paper's Table 3 suite, a shrunken variant
//! for numerical verification, and the Snitch micro-kernel suite.

use crate::{contraction, elementwise, micro, normalization};
use perfdojo_ir::Program;

/// A labelled kernel instance, as listed in paper Table 3.
#[derive(Clone)]
pub struct KernelInstance {
    /// Table 3 label, e.g. `batchnorm 2`.
    pub label: String,
    /// Input shape string as printed in Table 3.
    pub shape: String,
    /// Human description.
    pub description: String,
    /// The IR program at paper scale.
    pub program: Program,
    /// A shrunken instance of the same operator for interpreter-based
    /// verification (interpreting billions of MACs is not practical).
    pub verify_program: Program,
}

impl KernelInstance {
    fn new(label: &str, shape: &str, description: &str, program: Program, verify: Program) -> Self {
        KernelInstance {
            label: label.to_string(),
            shape: shape.to_string(),
            description: description.to_string(),
            program,
            verify_program: verify,
        }
    }

    /// An instance of `label` at the constructor dimensions `dims` whose
    /// `program` is also its verification program; the shape string is
    /// `dims` joined by `x`.
    pub fn at(label: &str, dims: &[usize], program: Program) -> Self {
        let shape: Vec<String> = dims.iter().map(usize::to_string).collect();
        KernelInstance::new(label, &shape.join("x"), "", program.clone(), program)
    }
}

/// One Table 3 operator: its label, its description, and the constructor
/// dimensions ([`by_label_with_shape`]) of its paper-scale, verification
/// and tuning instances.
type Operator = (&'static str, &'static str, &'static [usize], &'static [usize], &'static [usize]);

/// The Table 3 operators, the one list every suite of them is built from.
#[rustfmt::skip]
const TABLE3: [Operator; 16] = [
    ("add", "Elementwise addition", &[3072, 4096], &[8, 16], &[64, 256]),
    ("batchnorm 1", "Batch Normalization", &[8, 3, 2048, 2048], &[2, 3, 6, 6], &[2, 3, 32, 32]),
    ("batchnorm 2", "Batch Normalization", &[8, 64, 300, 300], &[2, 4, 5, 5], &[2, 4, 24, 24]),
    ("bmm", "Batched Matrix Multiplication", &[192, 256, 128, 256], &[2, 4, 3, 4], &[4, 16, 16, 16]),
    ("conv 1", "2D Convolution", &[8, 10, 3, 512, 512, 5], &[1, 2, 2, 8, 8, 3], &[1, 4, 4, 16, 16, 3]),
    ("conv 2", "2D convolution", &[8, 64, 64, 56, 56, 3], &[1, 3, 3, 7, 7, 3], &[1, 6, 6, 12, 12, 3]),
    ("layernorm 1", "Layer Normalization", &[16384, 1024], &[4, 16], &[64, 64]),
    ("layernorm 2", "Layer Normalization", &[4096, 4096], &[3, 12], &[32, 128]),
    ("matmul", "Matrix Multiplication", &[768, 1024, 1024], &[4, 6, 5], &[48, 48, 48]),
    ("mul", "Elementwise multiplication", &[6, 14336], &[3, 16], &[64, 256]),
    ("reducemean", "Average along axis", &[4096, 4096], &[4, 12], &[64, 64]),
    ("relu", "Rectified Linear Unit (ReLU)", &[4096, 4096], &[6, 10], &[64, 256]),
    ("relu_ffn", "ReLU+FeedForward Network", &[8, 64, 112, 112], &[2, 3, 4, 4], &[2, 4, 16, 16]),
    ("rmsnorm", "Root Mean Square Normalization", &[3072, 4096], &[3, 16], &[64, 64]),
    ("softmax", "Softmax", &[24576, 512], &[4, 8], &[64, 64]),
    ("swiglu", "SwiGLU activation function", &[1, 256, 4096, 448], &[1, 3, 4, 3], &[1, 16, 64, 32]),
];

/// `label` at `dims`, described as `desc` and verified at `verify`.
fn operator(label: &str, desc: &str, dims: &[usize], verify: &[usize]) -> KernelInstance {
    let build = |dims| by_label_with_shape(label, dims).expect("Table 3 dims fit their operator");
    KernelInstance {
        description: desc.to_string(),
        verify_program: build(verify),
        ..KernelInstance::at(label, dims, build(dims))
    }
}

/// The full Table 3 suite at paper shapes.
pub fn paper_suite() -> Vec<KernelInstance> {
    TABLE3
        .iter()
        .map(|&(label, desc, paper, verify, _)| operator(label, desc, paper, verify))
        .collect()
}

/// The Table 3 operators at shrunken shapes — every `program` here is small
/// enough to interpret, so search/RL tests can verify numerically end to end.
pub fn small_suite() -> Vec<KernelInstance> {
    paper_suite()
        .into_iter()
        .map(|k| {
            let v = k.verify_program.clone();
            KernelInstance { program: k.verify_program.clone(), verify_program: v, ..k }
        })
        .collect()
}

/// The Table 3 operators at *medium* shapes: large enough that the machine
/// model rewards tuning (the shrunken verify shapes are degenerate — at a
/// few hundred ops the naive program is already optimal), yet small enough
/// to interpret, so schedule-library builds and CI can tune, dispatch, and
/// numerically verify end to end in seconds.
pub fn tune_suite() -> Vec<KernelInstance> {
    TABLE3.iter().map(|&(label, desc, _, _, tune)| operator(label, desc, tune, tune)).collect()
}

/// Snitch micro-kernel suite (§4.1) at cycle-simulatable sizes.
pub fn micro_suite() -> Vec<KernelInstance> {
    let mk = |label: &str, desc: &str, p: Program, v: Program| KernelInstance::new(
        label,
        "micro",
        desc,
        p,
        v,
    );
    vec![
        mk("axpy", "z = a*x + y", micro::axpy(256), micro::axpy(16)),
        mk("dot", "dot product", micro::dot(256), micro::dot(16)),
        mk("gemv", "matrix-vector product", micro::gemv(32, 32), micro::gemv(4, 4)),
        mk("gemm", "small matrix multiply", micro::gemm(16), micro::gemm(4)),
        mk("vadd", "vector addition", micro::vadd(256), micro::vadd(16)),
        mk("vrelu", "vector ReLU", micro::vrelu(256), micro::vrelu(16)),
        mk("rowsum", "row-wise sum", micro::rowsum(32, 32), micro::rowsum(4, 4)),
        mk("softmax", "row-wise softmax", micro::softmax_micro(16, 32), micro::softmax_micro(2, 8)),
    ]
}

/// Look up a kernel instance by Table 3 label.
pub fn by_label(label: &str) -> Option<KernelInstance> {
    paper_suite().into_iter().find(|k| k.label == label)
}

/// Instantiate a Table 3 operator at a caller-chosen shape (the serving
/// pattern the schedule library dispatches on: same operator, new shape).
/// `dims` must carry exactly the operator's shape-parameter count; returns
/// `None` for unknown labels, wrong arity, a zero dimension or a
/// convolution image smaller than its filter.
pub fn by_label_with_shape(label: &str, dims: &[usize]) -> Option<Program> {
    if dims.iter().any(|&d| d == 0) {
        return None;
    }
    let d = |i: usize| dims[i];
    Some(match (label, dims.len()) {
        ("add", 2) => elementwise::add_kernel(d(0), d(1)),
        ("mul", 2) => elementwise::mul_kernel(d(0), d(1)),
        ("relu", 2) => elementwise::relu_kernel(d(0), d(1)),
        ("relu_ffn", 4) => elementwise::relu_ffn_kernel(d(0), d(1), d(2), d(3)),
        ("batchnorm", 4) | ("batchnorm 1", 4) | ("batchnorm 2", 4) => {
            normalization::batchnorm(d(0), d(1), d(2), d(3))
        }
        ("layernorm", 2) | ("layernorm 1", 2) | ("layernorm 2", 2) => {
            normalization::layernorm(d(0), d(1))
        }
        ("reducemean", 2) => normalization::reducemean(d(0), d(1)),
        ("rmsnorm", 2) => normalization::rmsnorm(d(0), d(1)),
        ("softmax", 2) => normalization::softmax(d(0), d(1)),
        ("swiglu", 4) => normalization::swiglu(d(0), d(1), d(2), d(3)),
        ("matmul", 3) => contraction::matmul(d(0), d(1), d(2)),
        ("bmm", 4) => contraction::bmm(d(0), d(1), d(2), d(3)),
        ("conv", 6) | ("conv 1", 6) | ("conv 2", 6) => {
            // valid padding: the filter must fit inside the image
            if d(3) < d(5) || d(4) < d(5) {
                return None;
            }
            contraction::conv2d(d(0), d(1), d(2), d(3), d(4), d(5))
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_has_sixteen_kernels() {
        assert_eq!(paper_suite().len(), 16);
    }

    #[test]
    fn labels_match_table3() {
        let labels: Vec<String> = paper_suite().iter().map(|k| k.label.clone()).collect();
        for want in [
            "add", "batchnorm 1", "batchnorm 2", "bmm", "conv 1", "conv 2", "layernorm 1",
            "layernorm 2", "matmul", "mul", "reducemean", "relu", "relu_ffn", "rmsnorm",
            "softmax", "swiglu",
        ] {
            assert!(labels.iter().any(|l| l == want), "missing {want}");
        }
    }

    #[test]
    fn lookup_by_label() {
        assert!(by_label("softmax").is_some());
        assert!(by_label("nonexistent").is_none());
    }

    #[test]
    fn lookup_by_label_with_shape() {
        let p = by_label_with_shape("softmax", &[8, 16]).unwrap();
        assert_eq!(p.buffer_of("x").map(|b| b.shape()), Some(vec![8, 16]));
        assert!(by_label_with_shape("softmax", &[8]).is_none(), "wrong arity");
        assert!(by_label_with_shape("softmax", &[8, 0]).is_none(), "zero dim");
        assert!(by_label_with_shape("nonexistent", &[8, 16]).is_none());
        assert!(by_label_with_shape("matmul", &[4, 6, 5]).is_some());
        assert!(by_label_with_shape("conv 1", &[1, 2, 2, 8, 8, 3]).is_some());
        assert!(by_label_with_shape("conv", &[1, 1, 1, 3, 3, 3]).is_some(), "filter = image");
    }

    #[test]
    fn conv_with_an_image_smaller_than_its_filter_is_none() {
        // conv2d asserts the filter fits; a shape query must not reach it
        assert!(by_label_with_shape("conv", &[1, 1, 1, 1, 3, 3]).is_none(), "height");
        assert!(by_label_with_shape("conv 2", &[1, 1, 1, 3, 2, 3]).is_none(), "width");
    }

    #[test]
    fn structure_hash_stable_across_shapes() {
        // The schedule library's fallback dispatch keys on this: every
        // Table 3 operator keeps its structural fingerprint between the
        // paper-scale and shrunken instances.
        for k in paper_suite() {
            assert_eq!(
                perfdojo_ir::structure_hash(&k.program),
                perfdojo_ir::structure_hash(&k.verify_program),
                "{} fingerprint not shape-stable",
                k.label
            );
        }
    }

    #[test]
    fn tune_suite_is_interpretable_and_matches_table3() {
        let labels: Vec<String> = paper_suite().iter().map(|k| k.label.clone()).collect();
        let tuned = tune_suite();
        assert_eq!(tuned.len(), labels.len());
        for k in &tuned {
            assert!(labels.contains(&k.label), "{} not in Table 3", k.label);
            assert!(
                k.program.dynamic_op_instances() < 2_000_000,
                "{} tune program too big to verify",
                k.label
            );
            // same operator as the paper-scale instance: structural
            // fingerprints must collide so dispatch can fall back
            let paper = by_label(&k.label).unwrap();
            assert_eq!(
                perfdojo_ir::structure_hash(&k.program),
                perfdojo_ir::structure_hash(&paper.program),
                "{} fingerprint differs from paper instance",
                k.label
            );
        }
    }

    #[test]
    fn verify_programs_are_small() {
        for k in paper_suite() {
            assert!(
                k.verify_program.dynamic_op_instances() < 100_000,
                "{} verify program too big",
                k.label
            );
        }
    }
}
