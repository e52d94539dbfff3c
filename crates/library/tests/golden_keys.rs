//! Golden library keys: `tests/golden/tune_keys.txt` holds the
//! `KernelSig::key()` of every tune-suite kernel on x86, gh200 and snitch,
//! and `tests/golden/softmax_4x8.structure` the full `structure_text` of
//! `softmax(4, 8)`, both written by an earlier build. Saved libraries,
//! fleet parts and graph fingerprints are all keyed by these bytes, and a
//! round-trip test compares a build only with itself, so only text frozen
//! on disk catches a printer edit that moves a key.
//!
//! A key may move only together with a bump of the text format version,
//! which makes every library saved under the old keys invalid on load;
//! the pins hold for the version they were taken under, and a bump
//! regenerates both files.

use perfdojo_ir::text::FORMAT_VERSION;
use perfdojo_library::KernelSig;

/// The text format version the golden files were taken under.
const GOLDEN_FORMAT_VERSION: u32 = 1;

const TUNE_KEYS: &str = include_str!("golden/tune_keys.txt");
const SOFTMAX_4X8: &str = include_str!("golden/softmax_4x8.structure");

#[test]
fn tune_suite_keys_match_the_golden_file() {
    if FORMAT_VERSION != GOLDEN_FORMAT_VERSION {
        return;
    }
    let mut lines = TUNE_KEYS.lines();
    for target in ["x86", "gh200", "snitch"] {
        for k in perfdojo_kernels::tune_suite() {
            let line = format!("{}\t{}", k.label, KernelSig::of(&k.program, target).key());
            assert_eq!(Some(line.as_str()), lines.next(), "{} on {target}", k.label);
        }
    }
    assert_eq!(lines.next(), None, "the golden file lists kernels the tune suite lost");
}

#[test]
fn softmax_structure_text_matches_the_golden_file() {
    if FORMAT_VERSION != GOLDEN_FORMAT_VERSION {
        return;
    }
    assert_eq!(perfdojo_ir::structure_text(&perfdojo_kernels::softmax(4, 8)), SOFTMAX_4X8);
}
