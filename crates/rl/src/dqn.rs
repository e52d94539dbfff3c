//! Deep Q-learning with the paper's training techniques (§3.2–3.3):
//! experience replay, Double DQN, a dueling value/advantage decomposition,
//! ε-greedy exploration, and the Max-Bellman objective.
//!
//! The Q-function consumes an *(state, action)* pair where the action is
//! the embedding of the transformed program: `Q(concat(E(k), E(k')))`. The
//! dueling variant decomposes `Q(s,a) = V(s) + A(s,a)` with `V` a separate
//! state-value head — advantages are centred over the candidate action set
//! at selection/bootstrapping time.

use crate::nn::Mlp;
use crate::replay::{ReplayBuffer, Transition};
use perfdojo_util::rng::Rng;
use perfdojo_util::trace::{f32_from_hex, f32_to_hex, push_f32s, push_rng, Lines};

/// DQN hyperparameters and ablation switches.
#[derive(Clone, Debug)]
pub struct DqnConfig {
    /// Embedding width of one program state.
    pub state_dim: usize,
    /// Hidden layer widths of the Q trunk.
    pub hidden: Vec<usize>,
    /// Discount factor γ.
    pub gamma: f32,
    /// Use the Max-Bellman target `max(r, γ·maxQ')` (paper) instead of the
    /// standard `r + γ·maxQ'`.
    pub max_bellman: bool,
    /// Decouple action selection (online net) from evaluation (target net).
    pub double_dqn: bool,
    /// Add the dueling state-value head.
    pub dueling: bool,
    /// Replay capacity.
    pub replay_capacity: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Target-network sync period in train steps.
    pub target_sync: u32,
    /// ε-greedy schedule: start, end, decay steps.
    pub eps_start: f32,
    /// Final exploration rate.
    pub eps_end: f32,
    /// Steps over which ε decays linearly.
    pub eps_decay_steps: u32,
}

impl Default for DqnConfig {
    fn default() -> Self {
        DqnConfig {
            state_dim: crate::embed::EMBED_DIM,
            hidden: vec![128, 64],
            gamma: 0.95,
            max_bellman: true,
            double_dqn: true,
            dueling: true,
            replay_capacity: 4096,
            batch: 32,
            lr: 1e-3,
            target_sync: 64,
            eps_start: 1.0,
            eps_end: 0.1,
            eps_decay_steps: 400,
        }
    }
}

/// The learning agent.
pub struct DqnAgent {
    /// Configuration (public for reporting).
    pub cfg: DqnConfig,
    online: Mlp,
    target: Mlp,
    value_online: Mlp,
    value_target: Mlp,
    /// Replay store.
    pub replay: ReplayBuffer,
    rng: Rng,
    steps: u32,
    train_steps: u32,
}

impl DqnAgent {
    /// Create an agent.
    pub fn new(cfg: DqnConfig, seed: u64) -> Self {
        let mut dims = vec![cfg.state_dim * 2];
        dims.extend(&cfg.hidden);
        dims.push(1);
        let online = Mlp::new(&dims, seed);
        let mut target = Mlp::new(&dims, seed.wrapping_add(1));
        target.copy_params_from(&online);
        let mut vdims = vec![cfg.state_dim];
        vdims.extend(&cfg.hidden);
        vdims.push(1);
        let value_online = Mlp::new(&vdims, seed.wrapping_add(2));
        let mut value_target = Mlp::new(&vdims, seed.wrapping_add(3));
        value_target.copy_params_from(&value_online);
        DqnAgent {
            replay: ReplayBuffer::new(cfg.replay_capacity),
            online,
            target,
            value_online,
            value_target,
            rng: Rng::seed_from_u64(seed.wrapping_add(4)),
            steps: 0,
            train_steps: 0,
            cfg,
        }
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f32 {
        let t = (self.steps as f32 / self.cfg.eps_decay_steps.max(1) as f32).min(1.0);
        self.cfg.eps_start + t * (self.cfg.eps_end - self.cfg.eps_start)
    }

    fn q_raw(net: &Mlp, state: &[f32], action: &[f32]) -> f32 {
        let mut x = Vec::with_capacity(state.len() + action.len());
        x.extend_from_slice(state);
        x.extend_from_slice(action);
        net.forward(&x)[0]
    }

    /// Q-values of a candidate action set at `state` using the online nets
    /// (dueling: `V(s) + A(s,a) - mean A`).
    pub fn q_values(&self, state: &[f32], actions: &[Vec<f32>]) -> Vec<f32> {
        self.q_values_with(&self.online, &self.value_online, state, actions)
    }

    fn q_values_with(
        &self,
        net: &Mlp,
        vnet: &Mlp,
        state: &[f32],
        actions: &[Vec<f32>],
    ) -> Vec<f32> {
        let adv: Vec<f32> = actions.iter().map(|a| Self::q_raw(net, state, a)).collect();
        if !self.cfg.dueling {
            return adv;
        }
        let mean = adv.iter().sum::<f32>() / adv.len().max(1) as f32;
        let v = vnet.forward(state)[0];
        adv.iter().map(|a| v + a - mean).collect()
    }

    /// ε-greedy selection over candidate actions; returns the index.
    pub fn select(&mut self, state: &[f32], actions: &[Vec<f32>]) -> usize {
        self.steps += 1;
        if actions.is_empty() {
            return 0;
        }
        if self.rng.random_range(0.0..1.0f32) < self.epsilon() {
            return self.rng.random_range(0..actions.len());
        }
        let q = self.q_values(state, actions);
        argmax(&q)
    }

    /// Store a transition.
    pub fn remember(&mut self, t: Transition) {
        self.replay.push(t);
    }

    /// One training step (a mini-batch of TD updates). Returns the batch
    /// loss, or `None` when the replay is still too small.
    pub fn train_step(&mut self) -> Option<f32> {
        if self.replay.len() < self.cfg.batch {
            return None;
        }
        let batch: Vec<Transition> = self
            .replay
            .sample(self.cfg.batch, &mut self.rng)
            .into_iter()
            .cloned()
            .collect();
        let mut loss = 0.0f32;
        for t in &batch {
            // bootstrap target over the next state's candidate actions;
            // note s' IS the action embedding (the transformed program)
            let boot = if t.next_actions.is_empty() {
                0.0
            } else if self.cfg.double_dqn {
                // select with online, evaluate with target (Double DQN)
                let q_online = self.q_values_with(&self.online, &self.value_online, &t.action, &t.next_actions);
                let best = argmax(&q_online);
                self.q_values_with(&self.target, &self.value_target, &t.action, &t.next_actions)[best]
            } else {
                let q_t = self.q_values_with(&self.target, &self.value_target, &t.action, &t.next_actions);
                q_t[argmax(&q_t)]
            };
            // §3.2: max-Bellman prioritizes the best achievable reward;
            // standard Bellman accumulates.
            let target = if self.cfg.max_bellman {
                t.reward.max(self.cfg.gamma * boot)
            } else {
                t.reward + self.cfg.gamma * boot
            };
            let pred = {
                let mut q = Self::q_raw(&self.online, &t.state, &t.action);
                if self.cfg.dueling {
                    q += self.value_online.forward(&t.state)[0];
                }
                q
            };
            let err = pred - target;
            loss += err * err;
            let mut x = Vec::with_capacity(t.state.len() + t.action.len());
            x.extend_from_slice(&t.state);
            x.extend_from_slice(&t.action);
            self.online.backward(&x, &[2.0 * err]);
            if self.cfg.dueling {
                self.value_online.backward(&t.state, &[2.0 * err]);
            }
        }
        self.online.step(self.cfg.lr, batch.len());
        if self.cfg.dueling {
            self.value_online.step(self.cfg.lr, batch.len());
        }
        self.train_steps += 1;
        if self.train_steps % self.cfg.target_sync == 0 {
            self.target.copy_params_from(&self.online);
            self.value_target.copy_params_from(&self.value_online);
        }
        Some(loss / batch.len() as f32)
    }

    /// Append a lossless text serialization of the whole agent: config
    /// (floats as exact `f32` bit patterns), ε/sync counters, RNG words,
    /// all four networks with their Adam state, and the replay buffer.
    /// Restoring with [`DqnAgent::parse_text`] continues training
    /// bit-identically.
    pub fn write_text(&self, out: &mut String) {
        let c = &self.cfg;
        out.push_str(&format!(
            "dqn {} {} {} {} {} {} {} {} {} {} {} {}\n",
            c.state_dim,
            f32_to_hex(c.gamma),
            c.max_bellman as u8,
            c.double_dqn as u8,
            c.dueling as u8,
            c.replay_capacity,
            c.batch,
            f32_to_hex(c.lr),
            c.target_sync,
            f32_to_hex(c.eps_start),
            f32_to_hex(c.eps_end),
            c.eps_decay_steps
        ));
        out.push_str("hidden");
        for h in &c.hidden {
            out.push_str(&format!(" {h}"));
        }
        out.push('\n');
        out.push_str(&format!("steps {} {}\n", self.steps, self.train_steps));
        push_rng(out, &self.rng);
        self.online.write_text(out);
        self.target.write_text(out);
        self.value_online.write_text(out);
        self.value_target.write_text(out);
        out.push_str(&format!(
            "replay {} {} {}\n",
            self.replay.capacity(),
            self.replay.write_index(),
            self.replay.len()
        ));
        for t in self.replay.transitions() {
            out.push_str(&format!("trans {} {}\n", f32_to_hex(t.reward), t.next_actions.len()));
            push_f32s(out, "s", &t.state);
            push_f32s(out, "a", &t.action);
            for na in &t.next_actions {
                push_f32s(out, "n", na);
            }
        }
    }

    /// Restore an agent from [`DqnAgent::write_text`] lines, consuming
    /// exactly the lines it wrote.
    pub fn parse_text(l: &mut Lines<'_>) -> Result<DqnAgent, String> {
        let f: Vec<&str> = l.keyed("dqn")?.split_whitespace().collect();
        if f.len() != 12 {
            return Err(l.err(&format!("dqn header needs 12 fields, got {}", f.len())));
        }
        let int = |s: &str| s.parse::<usize>().map_err(|_| format!("bad dqn integer {s:?}"));
        let int32 = |s: &str| s.parse::<u32>().map_err(|_| format!("bad dqn integer {s:?}"));
        let flt = |s: &str| f32_from_hex(s).ok_or_else(|| format!("bad dqn f32 bits {s:?}"));
        let flag = |s: &str| match s {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("bad dqn flag {s:?}")),
        };
        let hidden: Vec<usize> = l
            .keyed("hidden")?
            .split_whitespace()
            .map(|s| s.parse().map_err(|_| format!("bad hidden width {s:?}")))
            .collect::<Result<_, String>>()?;
        let cfg = DqnConfig {
            state_dim: int(f[0])?,
            hidden,
            gamma: flt(f[1])?,
            max_bellman: flag(f[2])?,
            double_dqn: flag(f[3])?,
            dueling: flag(f[4])?,
            replay_capacity: int(f[5])?,
            batch: int(f[6])?,
            lr: flt(f[7])?,
            target_sync: int32(f[8])?,
            eps_start: flt(f[9])?,
            eps_end: flt(f[10])?,
            eps_decay_steps: int32(f[11])?,
        };
        let [steps, train_steps] = l.ints("steps")?;
        let rng = l.rng()?;
        let online = Mlp::parse_text(l)?;
        let target = Mlp::parse_text(l)?;
        let value_online = Mlp::parse_text(l)?;
        let value_target = Mlp::parse_text(l)?;
        let [capacity, write, len] = l.ints("replay")?;
        let data = l.repeat(len, |l| {
            let rest = l.keyed("trans")?;
            let (reward, n_next) =
                rest.split_once(' ').ok_or_else(|| l.err("trans needs reward + next count"))?;
            let reward = f32_from_hex(reward).ok_or_else(|| l.err("bad trans reward"))?;
            let n_next = n_next.trim().parse().map_err(|_| l.err("bad trans next count"))?;
            Ok(Transition {
                state: l.f32s("s", cfg.state_dim)?,
                action: l.f32s("a", cfg.state_dim)?,
                reward,
                next_actions: l.repeat(n_next, |l| l.f32s("n", cfg.state_dim))?,
            })
        })?;
        Ok(DqnAgent {
            replay: ReplayBuffer::restore(capacity, write, data).map_err(|e| l.err(&e))?,
            online,
            target,
            value_online,
            value_target,
            rng,
            steps,
            train_steps,
            cfg,
        })
    }
}

fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, x) in v.iter().enumerate() {
        if *x > v[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn onehot(i: usize, d: usize) -> Vec<f32> {
        let mut v = vec![0.0; d];
        v[i % d] = 1.0;
        v
    }

    /// A 1-step bandit: action 0 pays 0.1, action 1 pays 1.0. The agent
    /// must learn to prefer action 1.
    #[test]
    fn bandit_learns_best_action() {
        let cfg = DqnConfig {
            state_dim: 4,
            hidden: vec![16],
            eps_decay_steps: 100,
            eps_end: 0.0,
            batch: 16,
            ..DqnConfig::default()
        };
        let mut agent = DqnAgent::new(cfg, 9);
        let state = onehot(0, 4);
        let actions = vec![onehot(1, 4), onehot(2, 4)];
        for _ in 0..300 {
            let a = agent.select(&state, &actions);
            let reward = if a == 1 { 1.0 } else { 0.1 };
            agent.remember(Transition {
                state: state.clone(),
                action: actions[a].clone(),
                reward,
                next_actions: vec![],
            });
            agent.train_step();
        }
        let q = agent.q_values(&state, &actions);
        assert!(q[1] > q[0], "q {q:?}");
    }

    #[test]
    fn epsilon_decays() {
        let cfg = DqnConfig { state_dim: 4, eps_decay_steps: 10, ..DqnConfig::default() };
        let mut agent = DqnAgent::new(cfg, 1);
        let e0 = agent.epsilon();
        let s = onehot(0, 4);
        let acts = vec![onehot(1, 4)];
        for _ in 0..20 {
            agent.select(&s, &acts);
        }
        assert!(agent.epsilon() < e0);
        assert!((agent.epsilon() - 0.1).abs() < 1e-6);
    }

    #[test]
    fn train_requires_filled_replay() {
        let cfg = DqnConfig { state_dim: 4, batch: 8, ..DqnConfig::default() };
        let mut agent = DqnAgent::new(cfg, 2);
        assert!(agent.train_step().is_none());
    }

    #[test]
    fn text_round_trip_continues_training_bit_identically() {
        let cfg = DqnConfig {
            state_dim: 4,
            hidden: vec![8],
            batch: 8,
            eps_decay_steps: 50,
            ..DqnConfig::default()
        };
        let mut agent = DqnAgent::new(cfg, 21);
        let state = onehot(0, 4);
        let actions = vec![onehot(1, 4), onehot(2, 4)];
        let play = |agent: &mut DqnAgent, rounds: usize| {
            for _ in 0..rounds {
                let a = agent.select(&state, &actions);
                agent.remember(Transition {
                    state: state.clone(),
                    action: actions[a].clone(),
                    reward: if a == 1 { 1.0 } else { 0.1 },
                    next_actions: actions.clone(),
                });
                agent.train_step();
            }
        };
        play(&mut agent, 40);
        let mut text = String::new();
        agent.write_text(&mut text);
        let mut restored = DqnAgent::parse_text(&mut Lines::new(&text)).unwrap();
        // re-serialization is byte-identical
        let mut text2 = String::new();
        restored.write_text(&mut text2);
        assert_eq!(text, text2);
        // further play stays in lockstep: same selections, same weights
        play(&mut agent, 40);
        play(&mut restored, 40);
        let (qa, qb) = (agent.q_values(&state, &actions), restored.q_values(&state, &actions));
        assert_eq!(
            qa.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            qb.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(agent.epsilon().to_bits(), restored.epsilon().to_bits());
    }

    #[test]
    fn all_ablation_combos_run() {
        for max_bellman in [false, true] {
            for double_dqn in [false, true] {
                for dueling in [false, true] {
                    let cfg = DqnConfig {
                        state_dim: 4,
                        hidden: vec![8],
                        batch: 4,
                        max_bellman,
                        double_dqn,
                        dueling,
                        ..DqnConfig::default()
                    };
                    let mut agent = DqnAgent::new(cfg, 3);
                    let s = onehot(0, 4);
                    let acts = vec![onehot(1, 4), onehot(2, 4)];
                    for _ in 0..8 {
                        let a = agent.select(&s, &acts);
                        agent.remember(Transition {
                            state: s.clone(),
                            action: acts[a].clone(),
                            reward: 0.5,
                            next_actions: acts.clone(),
                        });
                    }
                    assert!(agent.train_step().is_some());
                }
            }
        }
    }
}
