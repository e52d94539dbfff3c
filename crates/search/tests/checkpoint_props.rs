//! Property tests for search checkpointing: pausing an SA run at an
//! arbitrary step, round-tripping every bit of state through the text
//! checkpoint, and resuming on a fresh dojo must be indistinguishable from
//! never pausing — same best runtime (bit-exact), same step sequence, same
//! trace, same re-serialized state, and the same event log up to the
//! `cache_hit` field (a restored run starts with a cold cost cache).

use perfdojo_core::{Dojo, Target};
use perfdojo_search::checkpoint::{parse_anneal, serialize_anneal};
use perfdojo_search::{anneal_resume, AnnealProgress, AnnealState, EdgesSpace};
use perfdojo_util::proptest_lite::prelude::*;
use perfdojo_util::trace::{strip_field, TraceSink};
use perfdojo_util::{prop_assert, prop_assert_eq, proptest};

const BUDGET: u64 = 24;

fn dojo(kernel: usize) -> Dojo {
    let program = match kernel % 2 {
        0 => perfdojo_kernels::softmax(48, 32),
        _ => perfdojo_kernels::matmul(12, 16, 8),
    };
    Dojo::for_target(program, &Target::x86()).expect("dojo")
}

/// Run to completion with an optional pause-and-restore after `pause_at`
/// loop steps, returning (final checkpoint text, stripped event log).
fn run(kernel: usize, seed: u64, pause_at: Option<u64>) -> (String, String) {
    let mut d = dojo(kernel);
    let mut sink = TraceSink::new();
    let mut st = AnnealState::start_with_warm(&mut d, &EdgesSpace, seed, &[]);
    if let Some(k) = pause_at {
        let p = anneal_resume(&mut d, &EdgesSpace, BUDGET, &mut st, Some(&mut sink), Some(k));
        if p == AnnealProgress::Paused {
            // the crash: only the two text artifacts survive
            let text = serialize_anneal(&st);
            st = parse_anneal(&text).expect("own checkpoint parses");
            d = dojo(kernel);
            st.reattach(&mut d);
            sink = TraceSink::from_text(&sink.to_text());
        }
    }
    anneal_resume(&mut d, &EdgesSpace, BUDGET, &mut st, Some(&mut sink), None);
    (serialize_anneal(&st), strip_field(&sink.to_text(), "cache_hit"))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    // 3 seeds × 2 kernels per run (cases: 6 draws), pause point anywhere
    // in the budget.
    #[test]
    fn paused_anneal_resumes_bit_identically(
        kernel in 0usize..2,
        seed in 0u64..1_000_000,
        pause_at in 1u64..BUDGET,
    ) {
        let (full_state, full_events) = run(kernel, seed, None);
        let (res_state, res_events) = run(kernel, seed, Some(pause_at));
        prop_assert_eq!(&full_state, &res_state);
        prop_assert_eq!(&full_events, &res_events);
        prop_assert!(full_events.lines().count() > 0);
    }
}
