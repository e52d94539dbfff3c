//! Schedule-library experiment (§3.5's generated-library serving story):
//! cold-tune cost vs cached-dispatch cost, and how well fallback replay
//! transfers tuned schedules to never-seen shapes across the Table 3 suite.

use crate::report::{fmt_x, geomean, Table};
use perfdojo_core::Target;
use perfdojo_kernels::KernelInstance;
use perfdojo_library::{Disposition, Library, LibraryBuilder, Strategy};
use std::time::Instant;

/// Unseen-shape variants of the tuned operators: same operator, shifted
/// sizes, so every dispatch must go through fallback replay.
fn unseen_shapes() -> Vec<(&'static str, Vec<usize>)> {
    vec![
        ("add", vec![96, 192]),
        ("batchnorm 1", vec![2, 3, 48, 24]),
        ("bmm", vec![3, 24, 12, 16]),
        ("conv 1", vec![1, 4, 4, 20, 12, 3]),
        ("layernorm 1", vec![96, 48]),
        ("matmul", vec![64, 32, 48]),
        ("mul", vec![96, 192]),
        ("reducemean", vec![48, 96]),
        ("relu", vec![96, 192]),
        ("rmsnorm", vec![48, 96]),
        ("softmax", vec![96, 48]),
        ("swiglu", vec![1, 12, 96, 24]),
    ]
}

/// Library experiment: build a schedule library over the tuning suite on
/// x86, then compare cold tuning against cached dispatch (exact hits) and
/// fallback replay (unseen shapes).
pub fn exp_library() -> String {
    let target = Target::x86();
    let kernels = perfdojo_kernels::tune_suite();

    // Cold build: tune every kernel from scratch.
    let mut lib = Library::new();
    let builder = LibraryBuilder::new(Strategy::Heuristic, 29);
    let cold_start = Instant::now();
    let (_, outcomes) = builder.build_into(&mut lib, &kernels, std::slice::from_ref(&target));
    let cold = cold_start.elapsed();
    let evaluations: u64 = outcomes.iter().map(|o| o.evaluations).sum();

    // Cached dispatch: serve every tuned shape back out of the library.
    let mut t = Table::new(
        "Schedule library: cached dispatch and fallback replay on x86",
        &["kernel", "shape", "disposition", "speedup", "verified"],
    );
    let dispatch_start = Instant::now();
    let mut hits = 0usize;
    let mut hit_speedups = Vec::new();
    for k in &kernels {
        let r = lib.lookup(&k.program, &target);
        if r.disposition == Disposition::ExactHit {
            hits += 1;
            hit_speedups.push(r.speedup());
        }
        t.row(vec![
            k.label.clone(),
            k.shape.clone(),
            r.disposition.tag().into(),
            fmt_x(r.speedup()),
            match r.verified {
                Some(true) => "yes".into(),
                Some(false) => "no".into(),
                None => "-".into(),
            },
        ]);
    }
    let cached = dispatch_start.elapsed();

    // Fallback replay: shapes the library has never seen.
    let mut replays = 0usize;
    let mut replay_speedups = Vec::new();
    let unseen = unseen_shapes();
    for (label, dims) in &unseen {
        let Some(query) = perfdojo_kernels::by_label_with_shape(label, dims) else {
            return format!(
                "error: no kernel {label:?} at shape {dims:?}; valid tune-suite labels: {}\n",
                crate::experiments::tune_suite_labels()
            );
        };
        let k = KernelInstance::at(label, dims, query);
        let r = lib.lookup(&k.program, &target);
        if matches!(r.disposition, Disposition::FallbackReplay { .. }) {
            replays += 1;
            replay_speedups.push(r.speedup());
        }
        t.row(vec![
            k.label,
            k.shape,
            r.disposition.tag().into(),
            fmt_x(r.speedup()),
            match r.verified {
                Some(true) => "yes".into(),
                Some(false) => "no".into(),
                None => "-".into(),
            },
        ]);
    }

    t.note(format!(
        "cold build: {} kernels tuned in {:.1?} ({} evaluations); cached dispatch of all {} in {:.1?}",
        kernels.len(),
        cold,
        evaluations,
        kernels.len(),
        cached
    ));
    t.note(format!(
        "exact-hit rate on tuned shapes: {hits}/{} (geomean speedup {})",
        kernels.len(),
        fmt_x(geomean(&hit_speedups))
    ));
    t.note(format!(
        "fallback-replay rate on unseen shapes: {replays}/{} (geomean speedup {})",
        unseen.len(),
        fmt_x(geomean(&replay_speedups))
    ));
    t.render()
}

#[cfg(test)]
mod tests {
    #[test]
    fn library_experiment_runs() {
        let report = super::exp_library();
        assert!(report.contains("exact-hit"), "{report}");
        assert!(report.contains("fallback-replay"), "{report}");
        assert!(report.contains("cold build"), "{report}");
    }
}
