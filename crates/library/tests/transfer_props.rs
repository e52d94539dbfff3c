//! Property tests for the transfer layer: materializing a randomized
//! parameterized schedule at a random shape is deterministic, keeps the
//! schedule's length, and never yields a parameter below 1.

use perfdojo_library::transfer::{ParamFn, ParamSchedule, ParamStep};
use perfdojo_transform::parse_action;
use perfdojo_util::proptest_lite::prelude::*;
use perfdojo_util::{prop_assert, proptest};

/// The action pool: parameterized templates (closed over a generated
/// value) and plain actions.
fn pooled_action(kind: u64, value: usize) -> perfdojo_transform::Action {
    let text = match kind % 6 {
        0 => format!("split_scope({value}) @ @0"),
        1 => format!("split_reduction({value}) @ @0"),
        2 => format!("vectorize({value}) @ @0"),
        3 => format!("pad_dim({value}) @ buf#0"),
        4 => "unroll @ @0.0".to_string(),
        _ => "parallelize @ @0".to_string(),
    };
    parse_action(&text).expect("pool action parses")
}

fn pooled_param(kind: u64, value: usize, dim: usize, scale_mill: u64) -> Option<ParamFn> {
    match kind % 3 {
        0 => None,
        1 => Some(ParamFn::Fixed(value)),
        // scales across ~3 orders of magnitude, never zero or non-finite
        _ => Some(ParamFn::Linear { dim, scale: (scale_mill + 1) as f64 / 1000.0 }),
    }
}

/// One generated schedule.
fn schedule(seed: u64, steps_spec: &[(u64, u64, u64)]) -> ParamSchedule {
    let arity = 1 + (seed % 7) as usize;
    let steps = steps_spec
        .iter()
        .enumerate()
        .map(|(i, &(action_kind, param_kind, raw))| {
            let value = 1 + (raw % 64) as usize;
            let dim = (raw % arity as u64) as usize;
            ParamStep {
                action: pooled_action(action_kind, value),
                param: pooled_param(param_kind, value, dim, raw % 5000 + i as u64),
            }
        })
        .collect();
    ParamSchedule {
        structure: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        arity,
        dtype: if seed % 2 == 0 { "f32".into() } else { "graph".into() },
        target: match seed % 3 {
            0 => "x86".into(),
            1 => "gh200".into(),
            _ => "snitch".into(),
        },
        donor: format!("{:016x}|4x{}|f32|x86", seed, 8 + seed % 120),
        support: 2 + (seed % 5) as usize,
        residual: (seed % 693) as f64 / 1000.0,
        steps,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

    #[test]
    fn materialization_is_deterministic_and_positive(
        seed in 0u64..u64::MAX,
        steps_spec in vec((0u64..6, 0u64..3, 0u64..100_000), 1..8),
        dims in vec(1usize..4096, 1..8),
    ) {
        let ps = schedule(seed, &steps_spec);
        let shape: Vec<usize> = dims.iter().cycle().take(ps.arity).copied().collect();
        let a = ps.materialize(&shape);
        let b = ps.materialize(&shape);
        prop_assert!(a == b, "materialization must be deterministic");
        prop_assert!(a.len() == ps.steps.len());
        for act in &a {
            if let Some(v) = perfdojo_library::transfer::param_of(&act.transform) {
                prop_assert!(v >= 1, "materialized params must stay positive");
            }
        }
    }
}
