//! Golden checkpoint texts: files in `tests/golden/` were written by an
//! earlier build of the search crate (a fixed-seed softmax 8x16 SA state
//! paused after 20 steps of a 60-evaluation budget, and two finished
//! 30-evaluation chains). Each must still parse and write back to the same
//! bytes. Round-trip tests compare a binary with itself, so only texts
//! frozen on disk catch a format drift that would strand a paused build's
//! `inflight.ckpt`.

use perfdojo_search::checkpoint::{parse_anneal, parse_chains, serialize_anneal, serialize_chains};

const ANNEAL: &str = include_str!("golden/anneal.ckpt");
const CHAINS: &str = include_str!("golden/chains.ckpt");

#[test]
fn golden_anneal_checkpoint_parses_and_writes_back_byte_identically() {
    let st = parse_anneal(ANNEAL).expect("golden anneal checkpoint parses");
    assert_eq!((st.spent, st.events, st.current.len()), (35, 0, 4));
    assert_eq!(serialize_anneal(&st), ANNEAL);
}

#[test]
fn golden_chains_checkpoint_parses_and_writes_back_byte_identically() {
    let done = parse_chains(CHAINS).expect("golden chains checkpoint parses");
    assert_eq!(done.len(), 2);
    assert_eq!(serialize_chains(&done), CHAINS);
}

/// The golden text with its first `from` line replaced by `to`.
fn hostile(golden: &str, from: &str, to: &str) -> String {
    assert!(golden.contains(from), "golden text lacks {from:?}");
    golden.replacen(from, to, 1)
}

// A count read from disk never sizes an allocation: a count larger than
// the text fails at the first missing item instead of aborting the process
// with "capacity overflow".

#[test]
fn anneal_with_a_huge_step_count_is_an_error() {
    let text = hostile(ANNEAL, "current 4\n", "current 18446744073709551615\n");
    assert!(parse_anneal(&text).is_err());
}

#[test]
fn anneal_with_a_huge_trace_count_is_an_error() {
    let text = hostile(ANNEAL, "trace 21\n", "trace 18446744073709551615\n");
    assert!(parse_anneal(&text).is_err());
}

#[test]
fn chains_with_a_huge_done_count_is_an_error() {
    let text = hostile(CHAINS, "done 2\n", "done 18446744073709551615\n");
    assert!(parse_chains(&text).is_err());
}
