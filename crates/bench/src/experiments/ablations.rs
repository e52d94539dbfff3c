//! Fig. 6 and the design-choice ablations called out in DESIGN.md.

use crate::report::{fmt_time, Table};
use perfdojo_core::{Dojo, Target};
use perfdojo_rl::dqn::DqnConfig;
use perfdojo_rl::{optimize, PerfLlmConfig};
use perfdojo_util::rng::{IndexedRandom, Rng};

/// Fig. 6: standard vs Max-Q decisions on the toy chain MDP.
pub fn exp_fig6() -> String {
    let m = perfdojo_rl::maxq::ChainMdp::fig6();
    let (std_goes, max_goes) = m.decisions();
    let mut t = Table::new(
        "Fig. 6: Q-value updates — original Q-learning vs Max Q-learning on the chain MDP",
        &["objective", "Q(stop a0)", "Q(chain a1)", "choice"],
    );
    t.row(vec![
        "original (cumulative)".into(),
        format!("{:.3}", m.stop_reward),
        format!("{:.3}", m.standard_q_chain()),
        if std_goes { "enter chain" } else { "stop immediately" }.into(),
    ]);
    t.row(vec![
        "max-Bellman (peak)".into(),
        format!("{:.3}", m.stop_reward),
        format!("{:.3}", m.max_q_chain()),
        if max_goes { "enter chain (reaches S3)" } else { "stop immediately" }.into(),
    ]);
    t.note("max-Bellman explicitly prioritizes the trajectory with the highest peak reward (§3.2).");
    t.render()
}

fn ablate_dojo() -> Dojo {
    Dojo::for_target(perfdojo_kernels::mul(32, 256), &Target::gh200()).unwrap()
}

fn quick_rl(cfg_mod: impl Fn(&mut PerfLlmConfig)) -> f64 {
    let mut cfg = PerfLlmConfig {
        episodes: crate::rl_episodes().min(8),
        max_steps: 14,
        action_sample: 16,
        ..PerfLlmConfig::default()
    };
    cfg_mod(&mut cfg);
    let mut d = ablate_dojo();
    optimize(&mut d, &cfg, 1234).best_runtime
}

/// Ablation: Max-Bellman vs standard Bellman objective.
pub fn exp_ablate_maxq() -> String {
    let with_max = quick_rl(|c| c.dqn.max_bellman = true);
    let without = quick_rl(|c| c.dqn.max_bellman = false);
    let mut t = Table::new(
        "Ablation: Max-Bellman objective (elementwise mul on GH200 model)",
        &["objective", "best runtime"],
    );
    t.row(vec!["max-Bellman (paper)".into(), fmt_time(with_max)]);
    t.row(vec!["standard Bellman".into(), fmt_time(without)]);
    t.render()
}

/// Ablation: the §3.1 state reward `r = c/T` vs a speedup-relative reward
/// (`T_prev / T_new`), which invites cyclic degrade-recover behaviour: an
/// agent can alternate a slowing move and its inverse, harvesting
/// "improvement" reward every second step while going nowhere.
pub fn exp_ablate_reward() -> String {
    // simulate the cyclic exploit directly: a two-state loop evaluated
    // under both reward definitions
    let mut d = ablate_dojo();
    let t0 = d.initial_runtime();
    // find the most-degrading single move (peek over the action set)
    let mut worst: Option<(perfdojo_transform::Action, f64)> = None;
    for a in d.actions().iter().take(40).cloned().collect::<Vec<_>>() {
        if let Ok((_, rt)) = d.peek(&a) {
            if worst.as_ref().is_none_or(|(_, w)| rt > *w) {
                worst = Some((a, rt));
            }
        }
    }
    let (a, t1) = worst.expect("at least one applicable move");
    let _ = a;
    let cycles = 6;
    let mut state_reward_sum = 0.0;
    let mut relative_reward_sum = 0.0;
    let mut prev = t0;
    for i in 0..cycles {
        let now = if i % 2 == 0 { t1 } else { t0 };
        state_reward_sum += t0 / now; // r = c/T (c = T_initial)
        relative_reward_sum += prev / now; // speedup vs previous state
        prev = now;
    }
    let mut t = Table::new(
        "Ablation: reward definition under a degrade/recover cycle (6 moves)",
        &["reward", "cycle total", "interpretation"],
    );
    t.row(vec![
        "state reward r=c/T (paper)".into(),
        format!("{state_reward_sum:.2}"),
        "cycling never beats staying at the best state".into(),
    ]);
    t.row(vec![
        "speedup-relative (rejected)".into(),
        format!("{relative_reward_sum:.2}"),
        "every recovery step pays ~2x: the cycle farms reward".into(),
    ]);
    t.note(format!(
        "degraded runtime {} vs initial {}: relative reward pays {:.2} per recovery",
        fmt_time(t1),
        fmt_time(t0),
        t1 / t0
    ));
    t.render()
}

/// Ablation: Double DQN and dueling heads on/off.
pub fn exp_ablate_dqn() -> String {
    let mut t = Table::new(
        "Ablation: DQN components (elementwise mul on GH200 model)",
        &["double-dqn", "dueling", "best runtime"],
    );
    for double_dqn in [true, false] {
        for dueling in [true, false] {
            let rt = quick_rl(|c| {
                c.dqn = DqnConfig { double_dqn, dueling, ..c.dqn.clone() };
            });
            t.row(vec![double_dqn.to_string(), dueling.to_string(), fmt_time(rt)]);
        }
    }
    t.render()
}

/// Ablation: applicability checking. PerfDojo only proposes valid moves;
/// a framework without integrated validity checks explores a space
/// "polluted with broken implementations" (§2). We quantify the pollution:
/// how many uniformly sampled (transformation, location) pairs are invalid
/// and would waste evaluation budget.
pub fn exp_ablate_validity() -> String {
    let d = Dojo::for_target(
        perfdojo_kernels::softmax(64, 128),
        &Target::x86(),
    )
    .unwrap();
    let p = d.current().clone();
    let lib = d.library().clone();
    let mut rng = Rng::seed_from_u64(7);
    let scope_paths = p.scope_paths();
    let trials = 500;
    let mut invalid = 0;
    for _ in 0..trials {
        let t = lib.transforms.choose(&mut rng).unwrap();
        // naive search-space: any transformation at any scope/buffer
        let loc = match t {
            perfdojo_transform::Transform::ReuseDims
            | perfdojo_transform::Transform::MaterializeDims
            | perfdojo_transform::Transform::SwapDims
            | perfdojo_transform::Transform::PadDim { .. } => {
                let b = &p.buffers[rng.random_range(0..p.buffers.len())];
                perfdojo_transform::Loc::BufferDim(perfdojo_transform::BufDimLoc {
                    buffer: b.name.clone(),
                    dim: rng.random_range(0..b.dims.len()),
                })
            }
            perfdojo_transform::Transform::SetLocation(_) => perfdojo_transform::Loc::Buffer(
                p.buffers[rng.random_range(0..p.buffers.len())].name.clone(),
            ),
            perfdojo_transform::Transform::FissionScope => {
                let sp = scope_paths.choose(&mut rng).unwrap().clone();
                perfdojo_transform::Loc::NodeAt(sp, 1)
            }
            _ => perfdojo_transform::Loc::Node(scope_paths.choose(&mut rng).unwrap().clone()),
        };
        if t.apply(&p, &loc).is_err() {
            invalid += 1;
        }
    }
    let mut t = Table::new(
        "Ablation: search-space pollution without applicability detection",
        &["sampling", "invalid moves", "valid moves"],
    );
    t.row(vec![
        format!("uniform over (transform, location), {trials} samples"),
        format!("{invalid} ({:.0}%)", invalid as f64 / trials as f64 * 100.0),
        format!("{}", trials - invalid),
    ]);
    t.row(vec![
        "PerfDojo applicability detection".into(),
        "0 (0%) by construction".into(),
        "all offered actions".into(),
    ]);
    t.note("every invalid sample would burn a compile+measure cycle (or worse, silently corrupt semantics) in a checker-less framework.");
    t.render()
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig6_table_shows_disagreement() {
        let s = super::exp_fig6();
        assert!(s.contains("stop immediately"));
        assert!(s.contains("enter chain"));
    }

    #[test]
    fn validity_ablation_finds_pollution() {
        let s = super::exp_ablate_validity();
        // a substantial share of unchecked moves must be invalid
        assert!(s.contains('%'));
    }
}
