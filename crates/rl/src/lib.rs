//! # PerfLLM: learning the performance game (paper §3)
//!
//! The RL formulation follows §3.1:
//! * **state** `s_t = E(k_t)` — an embedding of the kernel's textual
//!   representation ([`embed`]; see DESIGN.md for the LLM→hashed-features
//!   substitution),
//! * **action** — the concatenation of the embedding before and after a
//!   transformation; the *stop* action concatenates two identical
//!   embeddings,
//! * **reward** `r = c / T` after every transformation (dense rewards; no
//!   speedup-relative reward, which invited cyclic degrade-recover
//!   exploits).
//!
//! Training uses deep Q-learning (§3.2–3.3) with experience replay, Double
//! DQN, a dueling value/advantage decomposition, the ε-greedy policy, and
//! the **Max-Bellman** objective of Gottipati et al. adopted by the paper:
//! `Q(s,a) = E[max(r(s,a), γ·Q(s',a'))]`, which prioritizes the best
//! achievable state in an episode over expected cumulative reward.

pub mod checkpoint;
pub mod dqn;
pub mod embed;
pub mod maxq;
pub mod nn;
pub mod perfllm;
pub mod replay;

pub use checkpoint::{parse_train, serialize_train};
pub use dqn::{DqnAgent, DqnConfig};
pub use embed::{embed, EMBED_DIM};
pub use perfllm::{
    optimize, train_episodes, PerfLlmConfig, PerfLlmResult, TrainProgress, TrainState,
};
