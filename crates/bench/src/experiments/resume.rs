//! Checkpoint/resume fidelity experiment: interrupt-and-resume must be
//! invisible. An SA search and a PerfLLM training run are each executed
//! twice — once uninterrupted, once chopped into slices with the state
//! serialized to text and restored onto a *fresh* dojo between slices —
//! and every observable output is compared bit-for-bit: best runtime,
//! best step sequence, the (evals, best) trace, and the structured
//! trajectory event log (minus `cache_hit`, the one field that lawfully
//! differs because a restored run starts with a cold evaluation cache).

use crate::report::Table;
use perfdojo_core::{Dojo, Target};
use perfdojo_rl::checkpoint::{parse_train, serialize_train};
use perfdojo_rl::perfllm::{train_episodes, TrainState};
use perfdojo_rl::{DqnConfig, PerfLlmConfig};
use perfdojo_search::checkpoint::{parse_anneal, serialize_anneal};
use perfdojo_search::{anneal_resume, AnnealProgress, AnnealState, EdgesSpace, SearchResult};
use perfdojo_util::trace::{strip_field, TraceSink};

const SEED: u64 = 0xC0FFEE;
const ANNEAL_BUDGET: u64 = 60;
const ANNEAL_SLICE: u64 = 7;

fn dojo_for(label: &str) -> Dojo {
    let k = perfdojo_kernels::tune_suite()
        .into_iter()
        .find(|k| k.label == label)
        .unwrap_or_else(|| panic!("tune suite always contains {label:?}"));
    Dojo::for_target(k.program, &Target::x86()).expect("dojo")
}

fn results_identical(a: &SearchResult, b: &SearchResult) -> bool {
    a.best_runtime.to_bits() == b.best_runtime.to_bits()
        && a.best_steps == b.best_steps
        && a.trace.len() == b.trace.len()
        && a.trace
            .iter()
            .zip(b.trace.iter())
            .all(|(ta, tb)| ta.0 == tb.0 && ta.1.to_bits() == tb.1.to_bits())
}

/// (result, cache_hit-stripped event log) of one SA run; `slice` of `None`
/// runs uninterrupted, `Some(n)` pauses every `n` steps and round-trips
/// all state through text onto a fresh dojo.
fn anneal_run(label: &str, slice: Option<u64>) -> (SearchResult, String) {
    let mut dojo = dojo_for(label);
    let mut sink = TraceSink::new();
    let mut state = AnnealState::start_with_warm(&mut dojo, &EdgesSpace, SEED, &[]);
    loop {
        let p = anneal_resume(&mut dojo, &EdgesSpace, ANNEAL_BUDGET, &mut state, Some(&mut sink), slice);
        if p == AnnealProgress::Finished {
            return (state.into_result(), strip_field(&sink.to_text(), "cache_hit"));
        }
        // simulated crash: everything must survive the text round trip
        let restored = parse_anneal(&serialize_anneal(&state)).expect("own checkpoint parses");
        dojo = dojo_for(label);
        restored.reattach(&mut dojo);
        state = restored;
        sink = TraceSink::from_text(&sink.to_text());
    }
}

fn small_cfg() -> PerfLlmConfig {
    PerfLlmConfig {
        dqn: DqnConfig {
            hidden: vec![16],
            batch: 8,
            eps_decay_steps: 40,
            ..DqnConfig::default()
        },
        episodes: 3,
        max_steps: 6,
        action_sample: 8,
        train_per_step: 1,
    }
}

/// (final agent+state checkpoint text, stripped event log) of one PerfLLM
/// training run, optionally pausing after every episode with a full text
/// round trip onto a fresh dojo.
fn perfllm_run(label: &str, slice: Option<usize>) -> (String, String) {
    let cfg = small_cfg();
    let mut dojo = dojo_for(label);
    let mut sink = TraceSink::new();
    let mut state = TrainState::start_warm(&mut dojo, &cfg, SEED, &[]);
    loop {
        let p = train_episodes(&mut dojo, &cfg, &mut state, slice, Some(&mut sink));
        if p == perfdojo_rl::perfllm::TrainProgress::Finished {
            return (serialize_train(&state), strip_field(&sink.to_text(), "cache_hit"));
        }
        state = parse_train(&serialize_train(&state)).expect("own checkpoint parses");
        dojo = dojo_for(label);
        sink = TraceSink::from_text(&sink.to_text());
    }
}

/// Resume-fidelity experiment: paused-and-restored runs must reproduce
/// uninterrupted runs byte-for-byte.
pub fn exp_resume() -> String {
    let mut t = Table::new(
        "Checkpoint/resume fidelity: interrupted == uninterrupted, x86",
        &["run", "kernel", "result identical", "events identical"],
    );

    for label in ["softmax", "matmul"] {
        let (full, full_ev) = anneal_run(label, None);
        let (sliced, sliced_ev) = anneal_run(label, Some(ANNEAL_SLICE));
        t.row(vec![
            format!("anneal {ANNEAL_BUDGET} (slice {ANNEAL_SLICE})"),
            label.into(),
            if results_identical(&full, &sliced) { "yes".into() } else { "NO".into() },
            if full_ev == sliced_ev { "yes".into() } else { "NO".into() },
        ]);
    }

    let (full, full_ev) = perfllm_run("softmax", None);
    let (sliced, sliced_ev) = perfllm_run("softmax", Some(1));
    t.row(vec![
        "perfllm 3 eps (slice 1)".into(),
        "softmax".into(),
        if full == sliced { "yes".into() } else { "NO".into() },
        if full_ev == sliced_ev { "yes".into() } else { "NO".into() },
    ]);

    t.note(
        "each interrupted run serializes all search/training state to text and \
         restores it onto a fresh dojo between slices; `cache_hit` is stripped \
         from event logs before comparison (a restored run starts cache-cold)",
    );
    t.render()
}

#[cfg(test)]
mod tests {
    #[test]
    fn resume_experiment_reports_all_identical() {
        let report = super::exp_resume();
        assert!(!report.contains("NO"), "{report}");
        assert!(report.contains("yes"), "{report}");
    }
}
