//! Experience replay (§3.3): a bounded transition store sampled uniformly
//! to break the temporal correlation of sequentially collected data and to
//! reuse each experience across multiple updates.

use perfdojo_util::rng::Rng;

/// One stored transition.
///
/// Actions are represented as in §3.1: the embedding of the state *after*
/// the transformation. For the bootstrapped target we also store the action
/// embeddings available at the next state (a bounded sample), since
/// `max_a' Q(s', a')` ranges over them.
#[derive(Clone, Debug)]
pub struct Transition {
    /// Embedding of the state before the move.
    pub state: Vec<f32>,
    /// Embedding of the state after the move (the action representation).
    pub action: Vec<f32>,
    /// Dense reward `r = c / T` observed after the move.
    pub reward: f32,
    /// Action embeddings available at the next state (empty = terminal).
    pub next_actions: Vec<Vec<f32>>,
}

/// Bounded uniform-sampling replay buffer.
pub struct ReplayBuffer {
    data: Vec<Transition>,
    capacity: usize,
    write: usize,
}

impl ReplayBuffer {
    /// A buffer holding up to `capacity` transitions.
    pub fn new(capacity: usize) -> Self {
        ReplayBuffer { data: Vec::with_capacity(capacity.min(4096)), capacity, write: 0 }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Store a transition, evicting the oldest once full.
    pub fn push(&mut self, t: Transition) {
        if self.data.len() < self.capacity {
            self.data.push(t);
        } else {
            self.data[self.write] = t;
            self.write = (self.write + 1) % self.capacity;
        }
    }

    /// Sample `n` transitions uniformly with replacement.
    pub fn sample<'a>(&'a self, n: usize, rng: &mut Rng) -> Vec<&'a Transition> {
        (0..n).map(|_| &self.data[rng.random_range(0..self.data.len())]).collect()
    }

    /// Capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Eviction cursor: the slot the next push overwrites once full.
    pub fn write_index(&self) -> usize {
        self.write
    }

    /// All stored transitions in slot order (checkpointing; slot order is
    /// what [`ReplayBuffer::sample`] indexes, so preserving it preserves
    /// the sampled stream bit-for-bit).
    pub fn transitions(&self) -> &[Transition] {
        &self.data
    }

    /// Rebuild a buffer from checkpointed parts, inverse of reading
    /// [`ReplayBuffer::capacity`] / [`ReplayBuffer::write_index`] /
    /// [`ReplayBuffer::transitions`]. Fails on parts no buffer can reach
    /// by pushing — a zero capacity, more transitions than the capacity,
    /// or a write cursor outside it (or moved before the buffer filled) —
    /// since the next [`ReplayBuffer::push`] would index out of bounds.
    pub fn restore(capacity: usize, write: usize, data: Vec<Transition>) -> Result<Self, String> {
        let full = data.len() == capacity;
        if capacity == 0 || data.len() > capacity || write >= capacity || (write > 0 && !full) {
            return Err(format!(
                "replay write cursor {write} and length {} do not fit capacity {capacity}",
                data.len()
            ));
        }
        Ok(ReplayBuffer { data, capacity, write })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(r: f32) -> Transition {
        Transition { state: vec![r], action: vec![r], reward: r, next_actions: vec![] }
    }

    #[test]
    fn eviction_wraps_around() {
        let mut b = ReplayBuffer::new(3);
        for i in 0..5 {
            b.push(t(i as f32));
        }
        assert_eq!(b.len(), 3);
        // 0 and 1 evicted
        let rewards: Vec<f32> = b.data.iter().map(|x| x.reward).collect();
        assert!(rewards.contains(&2.0) || rewards.contains(&3.0));
        assert!(!rewards.contains(&0.0) || !rewards.contains(&1.0));
    }

    #[test]
    fn restore_accepts_only_reachable_parts() {
        let mut b = ReplayBuffer::new(3);
        for i in 0..5 {
            b.push(t(i as f32));
        }
        let back = ReplayBuffer::restore(b.capacity(), b.write_index(), b.data.clone()).unwrap();
        assert_eq!((back.capacity(), back.write_index(), back.len()), (3, 2, 3));
        assert!(ReplayBuffer::restore(2, 0, vec![t(0.0)]).is_ok(), "filling, cursor at 0");
        assert!(ReplayBuffer::restore(0, 0, vec![]).is_err(), "zero capacity");
        assert!(ReplayBuffer::restore(1, 0, vec![t(0.0), t(1.0)]).is_err(), "over capacity");
        assert!(ReplayBuffer::restore(2, 2, vec![t(0.0), t(1.0)]).is_err(), "cursor past the end");
        assert!(ReplayBuffer::restore(3, 1, vec![t(0.0)]).is_err(), "cursor moved before full");
    }

    #[test]
    fn sampling_uniform_coverage() {
        let mut b = ReplayBuffer::new(16);
        for i in 0..16 {
            b.push(t(i as f32));
        }
        let mut rng = Rng::seed_from_u64(3);
        let samples = b.sample(256, &mut rng);
        let distinct: std::collections::HashSet<u32> =
            samples.iter().map(|s| s.reward as u32).collect();
        assert!(distinct.len() > 8, "sampling visits a broad subset");
    }
}
