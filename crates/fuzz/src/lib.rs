//! # Differential fuzzing subsystem
//!
//! Random programs × random transformation walks, verified by the reference
//! interpreter and by executing the lowered virtual ISA (paper §3.3's
//! "semantics-preserving by construction" claim, checked empirically).
//!
//! The oracle hierarchy, cheapest first:
//!
//! 1. [`perfdojo_ir::validate`] — every generated program and every
//!    transformed program must be well-formed;
//! 2. interpreter differential — outputs of the transformed program must
//!    match the untransformed reference on random inputs (bit-exact for
//!    integer-valued paths, ULP-bounded for float paths, see
//!    [`perfdojo_interp::diff`]);
//! 3. codegen differential — executing the lowered virtual ISA
//!    ([`perfdojo_codegen::lower`]) must reproduce the interpreter
//!    bit-for-bit, since both walk the same tree in the same order.
//!
//! Any failing (program, action-sequence) pair is minimized by [`shrink`]
//! (driven by `util::proptest_lite::minimize`) and serialized by [`corpus`]
//! into a small textual reproducer for `tests/corpus/`.

pub mod corpus;
pub mod exec;
pub mod gen;
pub mod shrink;
pub mod walk;

pub use corpus::{parse_reproducer, reproducer_text};
pub use exec::execute_lowered;
pub use gen::{gen_program, GenConfig};
pub use shrink::{shrink_case, Case};
pub use walk::{check_case, library_by_name, walk, CheckConfig, Finding, Sabotage, WalkOutcome};

#[cfg(test)]
mod arena_roundtrip {
    //! Property test for the arena IR: `Program ⇄ Arena` must round-trip
    //! bit-identically on arbitrary generated programs.

    use crate::gen::{gen_program, GenConfig};
    use perfdojo_ir::arena::Arena;
    use perfdojo_ir::exact_text;
    use perfdojo_util::proptest_lite::prelude::*;
    use perfdojo_util::rng::Rng;

    fn program_for(seed: u64) -> perfdojo_ir::Program {
        let mut rng = Rng::seed_from_u64(seed);
        gen_program(&mut rng, &GenConfig::default(), &format!("art{seed}"))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn build_to_program_is_bit_identical(seed in 0u64..1_000_000) {
            let p = program_for(seed);
            let a = Arena::build(&p);
            let back = a.to_program();
            prop_assert_eq!(exact_text(&back), exact_text(&p));
        }
    }
}
