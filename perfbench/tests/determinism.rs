//! Seeded determinism: one seed gives identical deterministic results
//! (speedup geomean, evaluations, tier counts, drain results, library
//! text, folded into the run digest) across runs and, for tuning, across
//! one and two workers; another seed gives other inputs.

use perfdojo_perfbench::report::Outcome;
use perfdojo_perfbench::{run, tune, RunConfig, Workload};
use std::sync::Mutex;

/// Dispatch counters are process-wide and the digest includes their
/// deltas, so runs in this binary must not overlap.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

fn small(workload: Workload, seed: u64) -> Outcome {
    let _guard = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    run(&RunConfig {
        workload,
        seed,
        seconds: 1,
        trace: false,
    })
}

fn geomean_bits(o: &Outcome) -> u64 {
    o.metrics
        .iter()
        .find(|m| m.name == "model_speedup_geomean")
        .expect("reported")
        .value
        .to_bits()
}

fn assert_repeatable(workload: Workload) -> Outcome {
    let a = small(workload, 3);
    let b = small(workload, 3);
    assert!(!a.digest.is_empty());
    assert_eq!(
        a.digest,
        b.digest,
        "{}: one seed, two digests",
        workload.name()
    );
    assert_eq!(geomean_bits(&a), geomean_bits(&b));
    assert_eq!(
        (a.tally.attempted, a.tally.failed),
        (b.tally.attempted, b.tally.failed)
    );
    assert_ne!(
        a.digest,
        small(workload, 4).digest,
        "{}: a second seed must change the inputs",
        workload.name()
    );
    a
}

#[test]
fn tune_anneal_is_repeatable_and_worker_count_independent() {
    let a = assert_repeatable(Workload::TuneAnneal);
    let one_worker = tune::sequential_digest(3, 1);
    assert_eq!(
        a.digest, one_worker,
        "one worker and the pool must build the same library"
    );
}

#[test]
fn serve_hot_is_repeatable() {
    assert_repeatable(Workload::ServeHot);
}

#[test]
fn serve_wide_is_repeatable() {
    assert_repeatable(Workload::ServeWide);
}

#[test]
fn tune_grid_instances_are_distinct() {
    let labels = tune::grid_labels();
    let distinct: std::collections::BTreeSet<&String> = labels.iter().collect();
    assert_eq!(labels.len(), 16 * tune::SHAPES_PER_KERNEL);
    assert_eq!(
        distinct.len(),
        labels.len(),
        "every grid instance has its own shape and label"
    );
}
