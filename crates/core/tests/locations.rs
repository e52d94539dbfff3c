//! `Dojo::locations(t)` is `t`'s slice of `Dojo::actions()`: at every
//! state, for every transform of the target's library, it lists the
//! locations of the `t` entries of the full action list, in their order,
//! under the incremental and the naive engine alike. The heuristic passes
//! ask it for the transforms they play and must play the action a scan of
//! the full list finds; this pins the equality on tune-suite kernels and
//! seeded fuzz programs along random walks (steps and undos) on every
//! target.

use perfdojo_core::{Dojo, Target};
use perfdojo_fuzz::{gen_program, GenConfig};
use perfdojo_ir::Program;
use perfdojo_transform::Loc;
use perfdojo_util::proptest_lite::prelude::*;
use perfdojo_util::rng::Rng;
use perfdojo_util::{prop_assert, prop_assert_eq, proptest};

/// Tune-suite kernels come first in `source`'s range, fuzz draws after.
const TUNE_KERNELS: usize = 16;

/// The walk's starting program: tune-suite kernel `source`, or past the
/// suite a fuzz program drawn from `seed`.
fn start(source: usize, seed: u64) -> Program {
    match perfdojo_kernels::tune_suite().get(source) {
        Some(k) => k.program.clone(),
        None => gen_program(&mut Rng::seed_from_u64(seed), &GenConfig::default(), &format!("f{seed}")),
    }
}

/// Compare `locations(t)` with the `t` entries of `actions()` for every
/// transform of the library at the dojo's current state.
fn check(d: &mut Dojo, at: &str) {
    let actions = d.actions().to_vec();
    for t in d.library().transforms.clone() {
        let listed: Vec<Loc> =
            actions.iter().filter(|a| a.transform == t).map(|a| a.loc.clone()).collect();
        prop_assert_eq!(d.locations(&t), listed, "{} at {}", t, at);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn locations_are_one_transforms_slice_of_actions(
        source in 0usize..TUNE_KERNELS + 8,
        target in 0usize..5,
        seed in 0u64..1_000_000,
        steps in 0usize..8,
    ) {
        let target = &Target::all()[target];
        let incremental = Dojo::for_target(start(source, seed), target).expect("the dojo opens");
        let mut engines = [incremental.clone(), incremental.with_naive_engine()];
        let mut rng = Rng::seed_from_u64(seed);
        for step in 0..=steps {
            let at = format!("step {step} on {}", target.name);
            for d in &mut engines {
                check(d, &at);
            }
            // a quarter of the moves undo, so memos are dropped both ways
            if rng.random_bool(0.25) && !engines[0].history.is_empty() {
                for d in &mut engines {
                    prop_assert!(d.undo().is_some());
                }
                continue;
            }
            let actions = engines[0].actions().to_vec();
            let Some(a) = rng.choose(&actions).cloned() else { break };
            let played = engines.each_mut().map(|d| d.step(a.clone()).is_ok());
            prop_assert_eq!(played[0], played[1], "{} at {}", a, at);
        }
    }
}
