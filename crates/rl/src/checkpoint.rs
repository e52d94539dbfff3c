//! Crash-safe checkpoint serialization for PerfLLM training.
//!
//! A checkpoint is a versioned, line-oriented text snapshot of a
//! [`TrainState`] taken at an episode boundary. Everything that influences
//! the remaining episodes is stored losslessly — network weights and Adam
//! moments as exact `f32` bit patterns, both RNGs as raw xoshiro words,
//! the full replay buffer, the ε/target-sync counters — so restoring onto
//! a *fresh* dojo of the same kernel and continuing with
//! [`crate::perfllm::train_episodes`] reproduces the uninterrupted run
//! bit-for-bit: same weights, same trajectory events, same result.
//!
//! The text is parsed through the shared `perfdojo_util::trace::Lines`
//! cursor. Write checkpoints with `perfdojo_util::trace::atomic_write` so a
//! crash mid-save leaves the previous intact file.

use crate::perfllm::TrainState;
use crate::DqnAgent;
use perfdojo_transform::serial::{parse_steps, push_steps};
use perfdojo_util::trace::{f64_to_hex, push_rng, Lines};

/// Format header of a PerfLLM checkpoint.
const HEADER: &str = "perfdojo-checkpoint v1 perfllm";

/// Serialize a training state.
pub fn serialize_train(state: &TrainState) -> String {
    let mut out = format!("{HEADER}\n");
    out.push_str(&format!("episodes-done {}\n", state.episodes_done));
    out.push_str(&format!("spent {}\n", state.spent));
    out.push_str(&format!("events {}\n", state.events));
    push_rng(&mut out, &state.rng);
    out.push_str(&format!("best-runtime {}\n", f64_to_hex(state.best_runtime)));
    push_steps(&mut out, "best", &state.best_steps);
    out.push_str(&format!("curve {}\n", state.episode_best.len()));
    for b in &state.episode_best {
        out.push_str(&format!("eb {}\n", f64_to_hex(*b)));
    }
    state.agent.write_text(&mut out);
    out.push_str("end\n");
    out
}

/// Restore a training state from [`serialize_train`] text.
pub fn parse_train(text: &str) -> Result<TrainState, String> {
    let mut l = Lines::new(text);
    l.exact(HEADER)?;
    let episodes_done = l.count("episodes-done")?;
    let spent = l.count("spent")?;
    let events = l.count("events")?;
    let rng = l.rng()?;
    let best_runtime = l.hexf("best-runtime")?;
    let best_steps = parse_steps(&mut l, "best")?;
    let episode_best = l.list("curve", |l| l.hexf("eb"))?;
    let agent = DqnAgent::parse_text(&mut l)?;
    l.exact("end")?;
    Ok(TrainState { agent, rng, best_runtime, best_steps, episode_best, episodes_done, spent, events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfllm::{train_episodes, PerfLlmConfig, TrainProgress};
    use crate::DqnConfig;
    use perfdojo_core::{Dojo, Target};
    use perfdojo_util::trace::TraceSink;

    fn dojo() -> Dojo {
        let p = perfdojo_kernels::mul(16, 64);
        Dojo::for_target(p, &Target::x86()).unwrap()
    }

    fn cfg() -> PerfLlmConfig {
        PerfLlmConfig {
            episodes: 4,
            max_steps: 6,
            action_sample: 8,
            dqn: DqnConfig { batch: 8, eps_decay_steps: 40, hidden: vec![16], ..DqnConfig::default() },
            ..PerfLlmConfig::default()
        }
    }

    #[test]
    fn train_state_round_trips_exactly() {
        let mut d = dojo();
        let cfg = cfg();
        let mut st = crate::perfllm::TrainState::start_warm(&mut d, &cfg, 5, &[]);
        train_episodes(&mut d, &cfg, &mut st, Some(2), None);
        let text = serialize_train(&st);
        let back = parse_train(&text).unwrap();
        assert_eq!(serialize_train(&back), text);
        assert_eq!(back.episodes_done, st.episodes_done);
        assert_eq!(back.spent, st.spent);
        assert_eq!(back.best_runtime.to_bits(), st.best_runtime.to_bits());
        assert_eq!(back.best_steps, st.best_steps);
    }

    #[test]
    fn corrupt_checkpoints_error_instead_of_panicking() {
        assert!(parse_train("").is_err());
        assert!(parse_train("perfdojo-checkpoint v1 anneal\n").is_err());
        let mut d = dojo();
        let cfg = cfg();
        let st = crate::perfllm::TrainState::start_warm(&mut d, &cfg, 5, &[]);
        let good = serialize_train(&st);
        assert!(parse_train(&good[..good.len() / 2]).is_err());
        assert!(parse_train(&good.replacen("best-runtime ", "best-runtime zz", 1)).is_err());
    }

    #[test]
    fn restored_training_continues_bit_identically() {
        let cfg = cfg();
        let seed = 13;

        // uninterrupted run with events
        let mut d1 = dojo();
        let mut full_state = crate::perfllm::TrainState::start_warm(&mut d1, &cfg, seed, &[]);
        let mut full_sink = TraceSink::new();
        let p = train_episodes(&mut d1, &cfg, &mut full_state, None, Some(&mut full_sink));
        assert_eq!(p, TrainProgress::Finished);

        // interrupted after 2 episodes, checkpointed, resumed on a fresh dojo
        let mut d2 = dojo();
        let mut st = crate::perfllm::TrainState::start_warm(&mut d2, &cfg, seed, &[]);
        let mut part_sink = TraceSink::new();
        let p = train_episodes(&mut d2, &cfg, &mut st, Some(2), Some(&mut part_sink));
        assert_eq!(p, TrainProgress::Paused);
        let ckpt = serialize_train(&st);

        let mut d3 = dojo();
        let mut restored = parse_train(&ckpt).unwrap();
        let mut resume_sink = TraceSink::with_start(part_sink.next_step());
        let p = train_episodes(&mut d3, &cfg, &mut restored, None, Some(&mut resume_sink));
        assert_eq!(p, TrainProgress::Finished);

        // identical trained weights, identical events, identical result
        let mut wa = String::new();
        full_state.agent.write_text(&mut wa);
        let mut wb = String::new();
        restored.agent.write_text(&mut wb);
        assert_eq!(wa, wb);
        let concatenated = format!("{}{}", part_sink.to_text(), resume_sink.to_text());
        assert_eq!(concatenated, full_sink.to_text());
        let (a, b) = (full_state.into_result(), restored.into_result());
        assert_eq!(a.best_runtime.to_bits(), b.best_runtime.to_bits());
        assert_eq!(a.best_steps, b.best_steps);
        assert_eq!(a.episode_best.len(), b.episode_best.len());
        assert_eq!(a.evaluations, b.evaluations);
    }
}
