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

/// The full Table 3 suite at paper shapes.
pub fn paper_suite() -> Vec<KernelInstance> {
    vec![
        KernelInstance::new(
            "add",
            "3072x4096",
            "Elementwise addition",
            elementwise::add_kernel(3072, 4096),
            elementwise::add_kernel(8, 16),
        ),
        KernelInstance::new(
            "batchnorm 1",
            "8x3x2048x2048",
            "Batch Normalization",
            normalization::batchnorm(8, 3, 2048, 2048),
            normalization::batchnorm(2, 3, 6, 6),
        ),
        KernelInstance::new(
            "batchnorm 2",
            "8x64x300x300",
            "Batch Normalization",
            normalization::batchnorm(8, 64, 300, 300),
            normalization::batchnorm(2, 4, 5, 5),
        ),
        KernelInstance::new(
            "bmm",
            "192x256x128x256",
            "Batched Matrix Multiplication",
            contraction::bmm(192, 256, 128, 256),
            contraction::bmm(2, 4, 3, 4),
        ),
        KernelInstance::new(
            "conv 1",
            "8x10x3x512x512x5",
            "2D Convolution",
            contraction::conv2d(8, 10, 3, 512, 512, 5),
            contraction::conv2d(1, 2, 2, 8, 8, 3),
        ),
        KernelInstance::new(
            "conv 2",
            "8x64x64x56x56x3",
            "2D convolution",
            contraction::conv2d(8, 64, 64, 56, 56, 3),
            contraction::conv2d(1, 3, 3, 7, 7, 3),
        ),
        KernelInstance::new(
            "layernorm 1",
            "16384x1024",
            "Layer Normalization",
            normalization::layernorm(16384, 1024),
            normalization::layernorm(4, 16),
        ),
        KernelInstance::new(
            "layernorm 2",
            "4096x4096",
            "Layer Normalization",
            normalization::layernorm(4096, 4096),
            normalization::layernorm(3, 12),
        ),
        KernelInstance::new(
            "matmul",
            "768x1024x1024",
            "Matrix Multiplication",
            contraction::matmul(768, 1024, 1024),
            contraction::matmul(4, 6, 5),
        ),
        KernelInstance::new(
            "mul",
            "6x14336",
            "Elementwise multiplication",
            elementwise::mul_kernel(6, 14336),
            elementwise::mul_kernel(3, 16),
        ),
        KernelInstance::new(
            "reducemean",
            "4096x4096",
            "Average along axis",
            normalization::reducemean(4096, 4096),
            normalization::reducemean(4, 12),
        ),
        KernelInstance::new(
            "relu",
            "4096x4096",
            "Rectified Linear Unit (ReLU)",
            elementwise::relu_kernel(4096, 4096),
            elementwise::relu_kernel(6, 10),
        ),
        KernelInstance::new(
            "relu_ffn",
            "8x64x112x112",
            "ReLU+FeedForward Network",
            elementwise::relu_ffn_kernel(8, 64, 112, 112),
            elementwise::relu_ffn_kernel(2, 3, 4, 4),
        ),
        KernelInstance::new(
            "rmsnorm",
            "3072x4096",
            "Root Mean Square Normalization",
            normalization::rmsnorm(3072, 4096),
            normalization::rmsnorm(3, 16),
        ),
        KernelInstance::new(
            "softmax",
            "24576x512",
            "Softmax",
            normalization::softmax(24576, 512),
            normalization::softmax(4, 8),
        ),
        KernelInstance::new(
            "swiglu",
            "1x256x4096x448",
            "SwiGLU activation function",
            normalization::swiglu(1, 256, 4096, 448),
            normalization::swiglu(1, 3, 4, 3),
        ),
    ]
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
    let mk = |label: &str, shape: &str, desc: &str, p: Program| {
        let v = p.clone();
        KernelInstance::new(label, shape, desc, p, v)
    };
    vec![
        mk("add", "64x256", "Elementwise addition", elementwise::add_kernel(64, 256)),
        mk("batchnorm 1", "2x3x32x32", "Batch Normalization", normalization::batchnorm(2, 3, 32, 32)),
        mk("batchnorm 2", "2x4x24x24", "Batch Normalization", normalization::batchnorm(2, 4, 24, 24)),
        mk("bmm", "4x16x16x16", "Batched Matrix Multiplication", contraction::bmm(4, 16, 16, 16)),
        mk("conv 1", "1x4x4x16x16x3", "2D Convolution", contraction::conv2d(1, 4, 4, 16, 16, 3)),
        mk("conv 2", "1x6x6x12x12x3", "2D convolution", contraction::conv2d(1, 6, 6, 12, 12, 3)),
        mk("layernorm 1", "64x64", "Layer Normalization", normalization::layernorm(64, 64)),
        mk("layernorm 2", "32x128", "Layer Normalization", normalization::layernorm(32, 128)),
        mk("matmul", "48x48x48", "Matrix Multiplication", contraction::matmul(48, 48, 48)),
        mk("mul", "64x256", "Elementwise multiplication", elementwise::mul_kernel(64, 256)),
        mk("reducemean", "64x64", "Average along axis", normalization::reducemean(64, 64)),
        mk("relu", "64x256", "Rectified Linear Unit (ReLU)", elementwise::relu_kernel(64, 256)),
        mk("relu_ffn", "2x4x16x16", "ReLU+FeedForward Network", elementwise::relu_ffn_kernel(2, 4, 16, 16)),
        mk("rmsnorm", "64x64", "Root Mean Square Normalization", normalization::rmsnorm(64, 64)),
        mk("softmax", "64x64", "Softmax", normalization::softmax(64, 64)),
        mk("swiglu", "1x16x64x32", "SwiGLU activation function", normalization::swiglu(1, 16, 64, 32)),
    ]
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
/// `None` for unknown labels or wrong arity.
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
