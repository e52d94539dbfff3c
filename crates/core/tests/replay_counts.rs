//! Regression tests pinning the transform-application cost of the
//! incremental evaluation engine via `perfdojo_transform::apply_count`.
//!
//! The pre-incremental `load_sequence` replayed every candidate from the
//! initial program *and then re-applied every step a second time* while
//! recording history — O(n²) applies over an n-step annealing run. These
//! tests pin the new costs exactly: reloading the applied sequence costs 0
//! applies, extending it costs only the suffix, and the naive baseline
//! still exhibits its historical 2n double-apply (so `searchperf` measures
//! a real effect).
//!
//! Apply counts are process-global, so every test serializes on one mutex
//! and this file must not share a binary with unrelated transform users.

use perfdojo_core::{Dojo, Target};
use perfdojo_transform::apply_count;
use std::sync::Mutex;

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn softmax_dojo() -> Dojo {
    let k = perfdojo_kernels::small_suite()
        .into_iter()
        .find(|k| k.label == "softmax")
        .unwrap();
    Dojo::for_target(k.program, &Target::x86()).unwrap()
}

/// Build a valid n-step sequence by stepping the dojo, then reset.
fn warm_sequence(d: &mut Dojo, n: usize) -> Vec<perfdojo_transform::Action> {
    let mut seq = Vec::new();
    for i in 0..n {
        let a = d.actions().get(i).cloned().expect("enough actions");
        d.step(a.clone()).expect("applicable");
        seq.push(a);
    }
    seq
}

#[test]
fn reloading_identical_sequence_applies_nothing() {
    let _g = COUNTER_LOCK.lock().unwrap();
    let mut d = softmax_dojo();
    let seq = warm_sequence(&mut d, 4);
    assert_eq!(d.history.steps, seq);
    let before = apply_count();
    d.load_sequence(&seq).unwrap();
    assert_eq!(apply_count() - before, 0, "full prefix match must replay nothing");
}

#[test]
fn extending_by_one_applies_exactly_the_suffix() {
    let _g = COUNTER_LOCK.lock().unwrap();
    let mut d = softmax_dojo();
    let seq = warm_sequence(&mut d, 3);
    let next = d.actions()[0].clone();
    let mut extended = seq.clone();
    extended.push(next);
    let before = apply_count();
    d.load_sequence(&extended).unwrap();
    assert_eq!(apply_count() - before, 1, "shared prefix + one new step = one apply");
}

#[test]
fn fresh_load_applies_each_step_once_not_twice() {
    let _g = COUNTER_LOCK.lock().unwrap();
    let mut d = softmax_dojo();
    let seq = warm_sequence(&mut d, 4);

    // a dojo that never applied these steps has no redo journal to serve
    // them from: each is applied exactly once
    let mut fresh = softmax_dojo();
    let before = apply_count();
    fresh.load_sequence(&seq).unwrap();
    let incremental = apply_count() - before;
    assert_eq!(incremental, 4, "no shared prefix: each step applied exactly once");

    // the dojo that played the sequence retains the popped post-states:
    // reset + reload is pure redo-journal restoration
    d.reset();
    let before = apply_count();
    d.load_sequence(&seq).unwrap();
    assert_eq!(apply_count() - before, 0, "reset + reload restores from the redo journal");

    // the naive baseline still double-applies: one replay pass to discover
    // skips, one re-application pass to record history
    let mut naive = softmax_dojo().with_naive_engine();
    let before = apply_count();
    naive.load_sequence(&seq).unwrap();
    let doubled = apply_count() - before;
    assert_eq!(doubled, 8, "naive engine applies every step twice");
}

#[test]
fn rejected_retract_repush_applies_nothing() {
    let _g = COUNTER_LOCK.lock().unwrap();
    let mut d = softmax_dojo();
    let seq = warm_sequence(&mut d, 4);
    // the annealing hot pattern: propose retracting the last step
    // (load_sequence of the 3-prefix), reject it, and re-load the full
    // sequence — the re-push must restore the journaled post-state
    d.load_sequence(&seq[..3]).unwrap();
    let before = apply_count();
    d.load_sequence(&seq).unwrap();
    assert_eq!(apply_count() - before, 0, "re-pushing the just-popped step is a restore");
    assert_eq!(d.history.steps, seq);
}

#[test]
fn undo_and_truncation_apply_nothing() {
    let _g = COUNTER_LOCK.lock().unwrap();
    let mut d = softmax_dojo();
    let seq = warm_sequence(&mut d, 4);
    let before = apply_count();
    d.undo().unwrap();
    assert_eq!(apply_count() - before, 0, "undo is snapshot restoration");
    // loading a strict prefix of the applied sequence is pure truncation
    let before = apply_count();
    d.load_sequence(&seq[..2]).unwrap();
    assert_eq!(apply_count() - before, 0, "prefix load is pure truncation");
    assert_eq!(d.history.steps, &seq[..2]);
}

#[test]
fn failed_evaluation_rolls_back_and_later_loads_stay_incremental() {
    let _g = COUNTER_LOCK.lock().unwrap();
    let mut d = softmax_dojo();
    let seq = warm_sequence(&mut d, 3);

    // a GPU grid binding applies structurally but x86 cost evaluation
    // rejects it, so load_sequence fails after mutating history — the
    // error path must restore the exact pre-call sequence
    let gpu = perfdojo_transform::Transform::BindGpu(perfdojo_ir::ScopeKind::GpuGrid);
    let loc = gpu.find_locations(d.current()).into_iter().next().expect("a bindable scope");
    let mut bad = seq.clone();
    bad.push(perfdojo_transform::Action { transform: gpu, loc });
    assert!(d.load_sequence(&bad).is_err());
    assert_eq!(d.history.steps, seq, "failed load must not strand a partial sequence");

    // because the rollback restored the full prefix, re-loading the good
    // sequence is still a zero-apply no-op
    let before = apply_count();
    d.load_sequence(&seq).unwrap();
    assert_eq!(apply_count() - before, 0, "rollback must preserve incremental reloads");
}

#[test]
fn mutated_midpoint_applies_only_from_divergence() {
    let _g = COUNTER_LOCK.lock().unwrap();
    let mut d = softmax_dojo();
    let seq = warm_sequence(&mut d, 4);
    // replace step 2, keeping 0..2 and 3 — divergence at index 2
    let mut mutated = seq.clone();
    mutated[2] = seq[3].clone();
    let before = apply_count();
    let _ = d.load_sequence(&mutated);
    let spent = apply_count() - before;
    assert!(
        spent <= 2,
        "only steps from the divergence point may be applied, got {spent}"
    );
}
