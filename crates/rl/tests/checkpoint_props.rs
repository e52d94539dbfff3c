//! Property test for PerfLLM training checkpoints: pausing a 2-episode
//! run after episode 1, round-tripping the full training state (networks,
//! Adam moments, replay buffer, ε/sync counters, RNG) through the text
//! checkpoint, and resuming on a fresh dojo must produce bit-identical
//! trained weights, learning curve, and event log (minus `cache_hit`).

use perfdojo_core::{Dojo, Target};
use perfdojo_rl::checkpoint::{parse_train, serialize_train};
use perfdojo_rl::perfllm::{train_episodes, TrainProgress, TrainState};
use perfdojo_rl::{DqnConfig, PerfLlmConfig};
use perfdojo_util::proptest_lite::prelude::*;
use perfdojo_util::trace::{strip_field, TraceSink};
use perfdojo_util::{prop_assert, prop_assert_eq, proptest};

fn cfg() -> PerfLlmConfig {
    PerfLlmConfig {
        dqn: DqnConfig { hidden: vec![12], batch: 8, eps_decay_steps: 30, ..DqnConfig::default() },
        episodes: 2,
        max_steps: 5,
        action_sample: 6,
        train_per_step: 1,
    }
}

fn dojo() -> Dojo {
    Dojo::for_target(perfdojo_kernels::mul(16, 48), &Target::x86()).expect("dojo")
}

/// Run the 2-episode training, optionally pausing (and crash-restoring)
/// after each episode; returns (final checkpoint text, stripped events).
fn run(seed: u64, pause: bool) -> (String, String) {
    let cfg = cfg();
    let mut d = dojo();
    let mut sink = TraceSink::new();
    let mut st = TrainState::start_warm(&mut d, &cfg, seed, &[]);
    loop {
        let p = train_episodes(&mut d, &cfg, &mut st, pause.then_some(1), Some(&mut sink));
        if p == TrainProgress::Finished {
            return (serialize_train(&st), strip_field(&sink.to_text(), "cache_hit"));
        }
        st = parse_train(&serialize_train(&st)).expect("own checkpoint parses");
        d = dojo();
        sink = TraceSink::from_text(&sink.to_text());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    #[test]
    fn paused_training_resumes_bit_identically(seed in 0u64..1_000_000) {
        let (full_state, full_events) = run(seed, false);
        let (res_state, res_events) = run(seed, true);
        prop_assert_eq!(&full_state, &res_state);
        prop_assert_eq!(&full_events, &res_events);
        prop_assert!(full_events.contains("\"ev\":\"ep\""));
    }
}
