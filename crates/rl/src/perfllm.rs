//! The PerfLLM optimization loop (Fig. 1a): episodes of the PerfDojo game
//! driven by the DQN agent.
//!
//! Per step the agent embeds the current kernel, enumerates the applicable
//! transformations (sampling a bounded subset when there are hundreds),
//! embeds each candidate's resulting kernel — the §3.1 action
//! representation — plus the *stop* action (the state embedding duplicated),
//! selects ε-greedily, and receives the dense reward `r = c/T`.

use crate::dqn::{DqnAgent, DqnConfig};
use crate::embed::embed;
use crate::replay::Transition;
use perfdojo_core::Dojo;
use perfdojo_transform::Action;
use perfdojo_util::rng::{Rng, SliceRandom};
use perfdojo_util::trace::TraceSink;

/// PerfLLM driver configuration.
#[derive(Clone, Debug)]
pub struct PerfLlmConfig {
    /// DQN hyperparameters.
    pub dqn: DqnConfig,
    /// Training episodes.
    pub episodes: usize,
    /// Maximum moves per episode.
    pub max_steps: usize,
    /// Cap on candidate actions embedded per step (the full applicable set
    /// can number in the hundreds).
    pub action_sample: usize,
    /// Gradient steps per environment step.
    pub train_per_step: usize,
}

impl Default for PerfLlmConfig {
    fn default() -> Self {
        PerfLlmConfig {
            dqn: DqnConfig::default(),
            episodes: 8,
            max_steps: 24,
            action_sample: 32,
            train_per_step: 1,
        }
    }
}

/// Outcome of a PerfLLM run.
#[derive(Clone, Debug)]
pub struct PerfLlmResult {
    /// Best runtime discovered, seconds.
    pub best_runtime: f64,
    /// Transformation sequence reaching the best state.
    pub best_steps: Vec<Action>,
    /// Best runtime at the end of each episode (learning curve).
    pub episode_best: Vec<f64>,
    /// Total environment evaluations spent.
    pub evaluations: u64,
}

/// The full, resumable state of one PerfLLM training run: everything
/// [`optimize`] accumulates between episodes. Checkpoints are taken at
/// episode boundaries (the dojo is rewound by `reset` at the start of
/// every episode, so no dojo state needs to be stored at all).
pub struct TrainState {
    /// The learning agent: networks, Adam state, replay, ε/sync counters.
    pub agent: DqnAgent,
    /// The driver's action-sampling RNG.
    pub rng: Rng,
    /// Best runtime discovered so far, seconds.
    pub best_runtime: f64,
    /// Transformation sequence reaching it.
    pub best_steps: Vec<Action>,
    /// Learning curve: best-so-far at the end of each finished episode.
    pub episode_best: Vec<f64>,
    /// Episodes completed so far.
    pub episodes_done: usize,
    /// Evaluations spent so far. Seeded with the dojo's pre-run counter so
    /// [`TrainState::into_result`] reports exactly what the historical
    /// `dojo.evaluations()` report did.
    pub spent: u64,
    /// Trajectory events emitted so far.
    pub events: u64,
}

impl TrainState {
    /// Start a fresh run. A cold start (`warm` empty) spends nothing and
    /// leaves the dojo untouched. A non-empty `warm` (a transferred
    /// schedule) is leniently replayed (charged to `spent`) and seeds
    /// best-so-far when it wins; the dojo is then rewound, so episodes
    /// still start from `reset`, exactly as cold training does.
    pub fn start_warm(
        dojo: &mut Dojo,
        cfg: &PerfLlmConfig,
        seed: u64,
        warm: &[Action],
    ) -> TrainState {
        let mut best_runtime = dojo.initial_runtime();
        let mut best_steps = Vec::new();
        if !warm.is_empty() {
            if let Ok(rt) = dojo.load_sequence(warm) {
                if rt < best_runtime {
                    best_runtime = rt;
                    best_steps = dojo.history.steps.clone();
                }
            }
            dojo.reset();
        }
        TrainState {
            agent: DqnAgent::new(cfg.dqn.clone(), seed),
            rng: Rng::seed_from_u64(seed ^ 0x9e37_79b9),
            best_runtime,
            best_steps,
            episode_best: Vec::with_capacity(cfg.episodes),
            episodes_done: 0,
            spent: dojo.evaluations(),
            events: 0,
        }
    }

    /// Consume the state into a [`PerfLlmResult`].
    pub fn into_result(self) -> PerfLlmResult {
        PerfLlmResult {
            best_runtime: self.best_runtime,
            best_steps: self.best_steps,
            episode_best: self.episode_best,
            evaluations: self.spent,
        }
    }
}

/// Whether [`train_episodes`] finished all configured episodes or paused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainProgress {
    /// All `cfg.episodes` episodes have completed.
    Finished,
    /// Paused after `max_episodes` episodes; call again to continue.
    Paused,
}

/// Drive a [`TrainState`] forward, at most `max_episodes` episodes in this
/// call (all remaining when `None`). Emits one `"rl"` event per
/// environment step and one `"ep"` event per finished episode when `sink`
/// is given. Resuming a restored state on a *fresh* dojo continues
/// bit-identically: episodes always start from `reset`, and the cost
/// model returns identical values whether or not the evaluation cache is
/// warm.
pub fn train_episodes(
    dojo: &mut Dojo,
    cfg: &PerfLlmConfig,
    state: &mut TrainState,
    max_episodes: Option<usize>,
    mut sink: Option<&mut TraceSink>,
) -> TrainProgress {
    let base = state.spent;
    let seg0 = dojo.evaluations();
    let mut eps_this_call = 0usize;
    while state.episodes_done < cfg.episodes {
        if max_episodes.is_some_and(|m| eps_this_call >= m) {
            return TrainProgress::Paused;
        }
        eps_this_call += 1;
        let ep = state.episodes_done as u64;
        // `reset` rewinds the history but keeps the incremental engine's
        // cost cache warm, so later episodes revisiting states explored by
        // earlier ones skip the lower+cost work (the budget still counts
        // every evaluation, cached or not).
        dojo.reset();
        let mut state_emb = embed(dojo.current());
        for step_i in 0..cfg.max_steps {
            // enumerate + sample candidates
            let mut actions = dojo.actions().to_vec();
            actions.shuffle(&mut state.rng);
            actions.truncate(cfg.action_sample);
            if actions.is_empty() {
                break;
            }
            // embed candidate next-states; slot 0 is the stop action
            // (identical embeddings, §3.1)
            let mut cand_embs: Vec<Vec<f32>> = vec![state_emb.clone()];
            let mut cand_actions: Vec<Option<&Action>> = vec![None];
            for a in &actions {
                if let Ok(next) = a.apply(dojo.current()) {
                    cand_embs.push(embed(&next));
                    cand_actions.push(Some(a));
                }
            }
            if cand_embs.len() == 1 {
                break;
            }
            let choice = state.agent.select(&state_emb, &cand_embs);
            if choice == 0 {
                // stop: terminal transition rewarding the current state
                let reward = dojo.reward_of(dojo.runtime()) as f32;
                state.agent.remember(Transition {
                    state: state_emb.clone(),
                    action: state_emb.clone(),
                    reward,
                    next_actions: vec![],
                });
                for _ in 0..cfg.train_per_step {
                    state.agent.train_step();
                }
                if let Some(sink) = sink.as_deref_mut() {
                    sink.event("rl")
                        .u64("ep", ep)
                        .u64("step", step_i as u64)
                        .u64("cands", (cand_embs.len() - 1) as u64)
                        .str("action", "stop")
                        .f64("reward", reward as f64)
                        .f64("best", state.best_runtime)
                        .emit();
                    state.events = sink.next_step();
                }
                break;
            }
            let action = cand_actions[choice].expect("non-stop choice has an action").clone();
            let Ok(step) = dojo.step(action.clone()) else { break };
            let next_emb = cand_embs[choice].clone();
            // bounded sample of next-state candidates for the bootstrapped
            // target (including stop)
            let mut next_actions = vec![next_emb.clone()];
            let mut nexts = dojo.actions().to_vec();
            nexts.shuffle(&mut state.rng);
            for a in nexts.into_iter().take(8) {
                if let Ok(nn) = a.apply(dojo.current()) {
                    next_actions.push(embed(&nn));
                }
            }
            state.agent.remember(Transition {
                state: state_emb.clone(),
                action: next_emb.clone(),
                reward: step.reward as f32,
                next_actions,
            });
            for _ in 0..cfg.train_per_step {
                state.agent.train_step();
            }
            state_emb = next_emb;
            if step.runtime < state.best_runtime {
                state.best_runtime = step.runtime;
                state.best_steps = dojo.history.steps.clone();
            }
            if let Some(sink) = sink.as_deref_mut() {
                sink.event("rl")
                    .u64("ep", ep)
                    .u64("step", step_i as u64)
                    .u64("cands", (cand_embs.len() - 1) as u64)
                    .str("action", &action.to_string())
                    .f64("reward", step.reward)
                    .f64("best", state.best_runtime)
                    .emit();
                state.events = sink.next_step();
            }
        }
        state.spent = base + (dojo.evaluations() - seg0);
        state.episode_best.push(state.best_runtime);
        state.episodes_done += 1;
        if let Some(sink) = sink.as_deref_mut() {
            sink.event("ep")
                .u64("ep", ep)
                .f64("best", state.best_runtime)
                .u64("evals", state.spent)
                .emit();
            state.events = sink.next_step();
        }
    }
    state.spent = base + (dojo.evaluations() - seg0);
    TrainProgress::Finished
}

/// Run PerfLLM on a Dojo from a cold start.
pub fn optimize(dojo: &mut Dojo, cfg: &PerfLlmConfig, seed: u64) -> PerfLlmResult {
    let mut state = TrainState::start_warm(dojo, cfg, seed, &[]);
    train_episodes(dojo, cfg, &mut state, None, None);
    state.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdojo_core::Target;

    fn quick_cfg() -> PerfLlmConfig {
        PerfLlmConfig {
            episodes: 4,
            max_steps: 10,
            action_sample: 12,
            dqn: DqnConfig { batch: 16, eps_decay_steps: 60, ..DqnConfig::default() },
            ..PerfLlmConfig::default()
        }
    }

    #[test]
    fn perfllm_improves_elementwise_mul() {
        let p = perfdojo_kernels::mul(16, 64);
        let mut d = Dojo::for_target(p, &Target::x86()).unwrap();
        let init = d.initial_runtime();
        let r = optimize(&mut d, &quick_cfg(), 5);
        assert!(r.best_runtime <= init);
        assert_eq!(r.episode_best.len(), 4);
        // best-so-far curve is monotone
        for w in r.episode_best.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn perfllm_finds_gpu_binding() {
        // On a GPU target the host fallback is so slow that any learned
        // schedule must include a grid binding to reach a big speedup.
        let p = perfdojo_kernels::mul(64, 256);
        let mut d = Dojo::for_target(p, &Target::gh200()).unwrap();
        let init = d.initial_runtime();
        let r = optimize(&mut d, &quick_cfg(), 11);
        assert!(
            r.best_runtime < init,
            "no improvement: best {} init {}",
            r.best_runtime,
            init
        );
        let uses_gpu = r.best_steps.iter().any(|a| {
            matches!(a.transform, perfdojo_transform::Transform::BindGpu(_))
        });
        assert!(uses_gpu || r.best_runtime >= init * 0.5, "gpu binding expected for big wins");
    }

    #[test]
    fn warm_start_seeds_best_and_charges_the_evaluation() {
        let p = perfdojo_kernels::mul(16, 64);
        let mut d = Dojo::for_target(p.clone(), &Target::x86()).unwrap();
        let donor = optimize(&mut d, &quick_cfg(), 11);
        assert!(!donor.best_steps.is_empty());

        let mut d = Dojo::for_target(p, &Target::x86()).unwrap();
        let st = TrainState::start_warm(&mut d, &quick_cfg(), 5, &donor.best_steps);
        assert!(st.best_runtime <= donor.best_runtime);
        assert!(!st.best_steps.is_empty());
        assert!(st.spent > 0, "warm evaluation must be charged");
        assert!(d.history.steps.is_empty(), "episodes must still start from reset");
    }

    #[test]
    fn result_sequence_replays() {
        let p = perfdojo_kernels::relu(32, 32);
        let mut d = Dojo::for_target(p.clone(), &Target::x86()).unwrap();
        let r = optimize(&mut d, &quick_cfg(), 3);
        let mut d2 = Dojo::for_target(p, &Target::x86()).unwrap();
        let rt = d2.load_sequence(&r.best_steps).unwrap();
        assert!((rt - r.best_runtime).abs() <= 1e-12 + rt * 1e-9);
    }
}
