//! `tvm-sim`: the sketch-constrained auto-scheduler ("TVM/Ansor") baseline.
//!
//! Differences from PerfDojo's search, mirroring the paper's analysis:
//!
//! * the schedule template covers tiling / vectorization / parallelization /
//!   unrolling / GPU binding of the *given* loop structure, but NOT the
//!   fusion, buffer-reuse, and reduction-privatization rewrites PerfDojo
//!   expresses (the "search only over tile sizes"-style constraint of §2);
//! * sketch generation fails on fused multi-reduction operators (the paper
//!   reports the auto-scheduler producing **no valid schedule** for
//!   BatchNorm and SwiGLU after 1000 iterations): we detect the pattern —
//!   two or more reduction accumulators feeding a broadcast consumer inside
//!   a deep (≥3-D) nest — and fall back to the default (untransformed)
//!   schedule, exactly what the paper had to do;
//! * candidate measurements time out above a wall-clock bound, wasting
//!   their budget (runtime timeout, §4.3).

use perfdojo_core::{Dojo, Target};
use perfdojo_ir::Program;
use perfdojo_transform::{Transform, TransformLibrary};

/// Result of a tvm-sim tuning run.
#[derive(Clone, Debug)]
pub struct TvmOutcome {
    /// Best runtime in seconds (the default schedule's when tuning failed).
    pub runtime: f64,
    /// True when no valid schedule was found and the default was used.
    pub failed: bool,
    /// Evaluations consumed.
    pub evaluations: u64,
}

/// Measurement timeout (seconds of simulated kernel time): candidates
/// slower than this are rejected and their budget wasted, as with TVM's
/// 10 s default.
const MEASURE_TIMEOUT_S: f64 = 10.0;

/// Does sketch generation fail for this operator? (see module docs)
pub fn sketch_fails(p: &Program) -> bool {
    let mut reduction_arrays: Vec<&str> = Vec::new();
    let mut max_depth = 0usize;
    for (_, op, chain) in p.ops() {
        max_depth = max_depth.max(chain.len());
        if op.reduction_combiner().is_some() && !reduction_arrays.contains(&op.out.array.as_str())
        {
            reduction_arrays.push(&op.out.array);
        }
    }
    reduction_arrays.len() >= 2 && max_depth >= 3
}

/// The template library: PerfDojo's vocabulary minus the rewrites Ansor's
/// sketches don't express.
fn template_library(full: &TransformLibrary) -> TransformLibrary {
    let mut lib = full.clone();
    lib.transforms.retain(|t| {
        !matches!(
            t,
            Transform::JoinScopes
                | Transform::FissionScope
                | Transform::ReuseDims
                | Transform::MaterializeDims
                | Transform::SplitReduction { .. }
                | Transform::EnableSsr
                | Transform::EnableFrep
        )
    });
    lib
}

/// Tune a kernel with the template-constrained auto-scheduler.
pub fn tvm_tune(program: &Program, target: &Target, budget: u64, seed: u64) -> TvmOutcome {
    let mut default_target = target.clone();
    default_target.library = template_library(&target.library);
    let mut dojo = match Dojo::for_target(program.clone(), &default_target) {
        Ok(d) => d,
        Err(_) => return TvmOutcome { runtime: f64::INFINITY, failed: true, evaluations: 0 },
    };
    let default_runtime = dojo.initial_runtime();
    if sketch_fails(program) {
        // the auto-scheduler burns its budget without a valid schedule
        return TvmOutcome { runtime: default_runtime, failed: true, evaluations: budget };
    }
    let result = perfdojo_search::random_sampling(&mut dojo, budget, seed);
    // On GPU targets TVM rejects schedules without thread bindings: the
    // tuned result only counts when the best candidate bound a grid.
    let gpu = target.machine.config.gpu.is_some();
    let bound = result.best_steps.iter().any(|a| {
        matches!(a.transform, Transform::BindGpu(perfdojo_ir::ScopeKind::GpuGrid))
    });
    if gpu && !bound {
        return TvmOutcome { runtime: default_runtime, failed: true, evaluations: budget };
    }
    let runtime = if result.best_runtime > MEASURE_TIMEOUT_S {
        default_runtime
    } else {
        result.best_runtime
    };
    TvmOutcome { runtime, failed: false, evaluations: dojo.evaluations() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batchnorm_and_swiglu_sketches_fail() {
        assert!(sketch_fails(&perfdojo_kernels::batchnorm(2, 3, 8, 8)));
        assert!(sketch_fails(&perfdojo_kernels::swiglu(1, 4, 8, 4)));
    }

    #[test]
    fn simple_kernels_tune_fine() {
        assert!(!sketch_fails(&perfdojo_kernels::matmul(8, 8, 8)));
        assert!(!sketch_fails(&perfdojo_kernels::softmax(8, 8)));
        assert!(!sketch_fails(&perfdojo_kernels::relu(8, 8)));
        let o = tvm_tune(&perfdojo_kernels::relu(128, 128), &Target::x86(), 100, 1);
        assert!(!o.failed);
        assert!(o.runtime.is_finite());
    }

    #[test]
    fn failed_kernels_fall_back_to_default() {
        let p = perfdojo_kernels::batchnorm(2, 4, 8, 8);
        let t = Target::x86();
        let o = tvm_tune(&p, &t, 100, 1);
        assert!(o.failed);
        let d = Dojo::for_target(p, &t).unwrap();
        assert!((o.runtime - d.initial_runtime()).abs() < 1e-15);
    }

    #[test]
    fn template_excludes_fusion_moves() {
        let lib = template_library(&Target::x86().library);
        assert!(!lib.transforms.iter().any(|t| matches!(t, Transform::JoinScopes)));
        assert!(!lib.transforms.iter().any(|t| matches!(t, Transform::SplitReduction { .. })));
        assert!(lib.transforms.iter().any(|t| matches!(t, Transform::SplitScope { .. })));
    }

    #[test]
    fn perfdojo_search_beats_template_on_fusable_kernel() {
        // PerfDojo's fusion+reuse+privatization moves are exactly what the
        // template lacks: on softmax the full library must win (or tie).
        // Equal budgets, and the full space uses its strongest strategy
        // (annealing over the heuristic space, paper Fig. 12) — uniform
        // sampling in the much larger full space would test budget
        // dilution, not the vocabulary.
        let p = perfdojo_kernels::softmax(32, 64);
        let t = Target::x86();
        let tvm = tvm_tune(&p, &t, 200, 7);
        let mut d = Dojo::for_target(p, &t).unwrap();
        let full =
            perfdojo_search::simulated_annealing(&mut d, &perfdojo_search::HeuristicSpace, 200, 7);
        assert!(
            full.best_runtime <= tvm.runtime * 1.05,
            "full {} vs template {}",
            full.best_runtime,
            tvm.runtime
        );
    }
}
