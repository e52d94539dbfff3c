//! Golden checkpoint text: `tests/golden/perfllm.ckpt` was written by an
//! earlier build of the rl crate around a tiny agent (`state_dim` 2, one
//! hidden layer of 3, a 4-slot replay buffer that has wrapped once) and a
//! driver RNG holding a Box–Muller spare. It must still parse and write
//! back to the same bytes: round-trip tests compare a binary with itself,
//! so only a text frozen on disk catches a format drift that would strand
//! a paused build's `inflight.ckpt`.

use perfdojo_rl::checkpoint::{parse_train, serialize_train};

const PERFLLM: &str = include_str!("golden/perfllm.ckpt");

#[test]
fn golden_perfllm_checkpoint_parses_and_writes_back_byte_identically() {
    let st = parse_train(PERFLLM).expect("golden perfllm checkpoint parses");
    assert_eq!((st.episodes_done, st.spent, st.events), (2, 37, 12));
    assert_eq!(st.agent.cfg.state_dim, 2);
    assert_eq!((st.agent.replay.capacity(), st.agent.replay.write_index()), (4, 2));
    assert_eq!(st.agent.replay.len(), 4);
    assert!(st.rng.state().1.is_some(), "the driver RNG holds a spare");
    assert_eq!(serialize_train(&st), PERFLLM);
}

/// The golden text with its first `from` line replaced by `to`.
fn hostile(from: &str, to: &str) -> String {
    assert!(PERFLLM.contains(from), "golden text lacks {from:?}");
    PERFLLM.replacen(from, to, 1)
}

// Counts and dimensions read from disk never size an allocation: a count
// larger than the text fails at the first missing item, and a dimension
// product that overflows is an error, not a panic.

#[test]
fn huge_best_count_is_an_error() {
    assert!(parse_train(&hostile("best 2\n", "best 18446744073709551615\n")).is_err());
}

#[test]
fn huge_curve_count_is_an_error() {
    assert!(parse_train(&hostile("curve 2\n", "curve 18446744073709551615\n")).is_err());
}

#[test]
fn huge_layer_count_is_an_error() {
    assert!(parse_train(&hostile("mlp 5 2\n", "mlp 5 18446744073709551615\n")).is_err());
}

#[test]
fn overflowing_layer_dimensions_are_an_error() {
    let text = hostile("layer 4 3\n", "layer 4294967296 4294967297\n");
    assert!(parse_train(&text).is_err());
}

#[test]
fn huge_replay_length_is_an_error() {
    assert!(parse_train(&hostile("replay 4 2 4\n", "replay 4 2 18446744073709551615\n")).is_err());
}

#[test]
fn huge_next_action_count_is_an_error() {
    let text = hostile("trans 3f200000 2\n", "trans 3f200000 18446744073709551615\n");
    assert!(parse_train(&text).is_err());
}

// A replay buffer must be able to take its next push: a write cursor or a
// length outside the capacity, or a zero capacity, would index out of
// bounds (or divide by zero) on the first transition after the restore.

#[test]
fn replay_write_cursor_outside_capacity_is_an_error() {
    assert!(parse_train(&hostile("replay 4 2 4\n", "replay 4 4 4\n")).is_err());
}

#[test]
fn replay_length_above_capacity_is_an_error() {
    assert!(parse_train(&hostile("replay 4 2 4\n", "replay 3 2 4\n")).is_err());
}

#[test]
fn zero_capacity_replay_is_an_error() {
    let at = PERFLLM.find("replay 4 2 4\n").expect("golden replay line");
    let text = format!("{}replay 0 0 0\nend\n", &PERFLLM[..at]);
    assert!(parse_train(&text).is_err());
}
