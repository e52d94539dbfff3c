//! Search-space structures (paper §4.2.1).
//!
//! A candidate is a full transformation sequence. The **edges**-based space
//! mirrors the transformation graph: a neighbor extends the sequence by one
//! applicable move (or retracts the last). The **heuristic**-based space
//! starts from a complete expert-generated candidate and mutates selected
//! transformations at arbitrary points, leaving the others in place —
//! "inspired by the expert hand-tuning process".

use perfdojo_core::Dojo;
use perfdojo_transform::{Action, Transform};
use perfdojo_util::rng::{IndexedRandom, Rng};

/// How to restore a candidate sequence after an in-place [`SearchSpace::propose`].
///
/// `propose` edits the candidate directly instead of cloning it (an
/// annealing chain deep in a run carries hundreds of actions, and cloning
/// them every iteration dominated the incremental engine's hot loop), so
/// rejection needs an explicit inverse. [`revert`] applies it.
#[derive(Debug, Clone, PartialEq)]
pub enum Undo {
    /// Remove the action that `propose` pushed at the end.
    PopLast,
    /// Re-insert `action` at `index` (inverse of a removal or retract).
    Reinsert {
        /// Position the action was removed from.
        index: usize,
        /// The removed action.
        action: Action,
    },
    /// Put `action` back at `index` (inverse of an in-place replacement).
    Restore {
        /// Position that was overwritten.
        index: usize,
        /// The original action.
        action: Action,
    },
    /// Replace the whole sequence (generic fallback for spaces that only
    /// implement [`SearchSpace::neighbor`]).
    Swap(Vec<Action>),
    /// The proposal left the sequence unchanged.
    None,
}

/// Apply an [`Undo`] record, restoring `seq` to its pre-`propose` content.
pub fn revert(seq: &mut Vec<Action>, undo: Undo) {
    match undo {
        Undo::PopLast => {
            seq.pop();
        }
        Undo::Reinsert { index, action } => seq.insert(index, action),
        Undo::Restore { index, action } => seq[index] = action,
        Undo::Swap(old) => *seq = old,
        Undo::None => {}
    }
}

/// A structure over candidate transformation sequences. `Sync` so one
/// space instance can serve the K concurrent chains of the parallel
/// searches ([`crate::parallel`]).
pub trait SearchSpace: Sync {
    /// The starting candidate.
    fn initial(&self, dojo: &mut Dojo) -> Vec<Action>;

    /// A random neighbor of `seq`.
    fn neighbor(&self, seq: &[Action], dojo: &mut Dojo, rng: &mut Rng) -> Vec<Action>;

    /// Edit `seq` in place to a random neighbor and return the inverse
    /// edit. Must draw the exact same random decisions as [`Self::neighbor`]
    /// so both forms produce bit-identical trajectories; the default
    /// delegates to `neighbor` and swaps the whole sequence.
    fn propose(&self, seq: &mut Vec<Action>, dojo: &mut Dojo, rng: &mut Rng) -> Undo {
        let next = self.neighbor(seq, dojo, rng);
        Undo::Swap(std::mem::replace(seq, next))
    }
}

/// Edge-structured space: follow the transformation graph one move at a
/// time.
pub struct EdgesSpace;

impl SearchSpace for EdgesSpace {
    fn initial(&self, _dojo: &mut Dojo) -> Vec<Action> {
        Vec::new()
    }

    fn neighbor(&self, seq: &[Action], dojo: &mut Dojo, rng: &mut Rng) -> Vec<Action> {
        let mut next = seq.to_vec();
        // mostly extend; sometimes retract to escape dead ends
        if !next.is_empty() && rng.random_bool(0.25) {
            next.pop();
            return next;
        }
        if dojo.load_sequence(&next).is_err() {
            return next;
        }
        let a = dojo.actions().choose(rng).cloned();
        if let Some(a) = a {
            next.push(a);
        }
        next
    }

    fn propose(&self, seq: &mut Vec<Action>, dojo: &mut Dojo, rng: &mut Rng) -> Undo {
        // same decision sequence as `neighbor`, applied in place
        if !seq.is_empty() && rng.random_bool(0.25) {
            let action = seq.pop().expect("checked non-empty");
            return Undo::Reinsert { index: seq.len(), action };
        }
        if dojo.load_sequence(seq).is_err() {
            return Undo::None;
        }
        let a = dojo.actions().choose(rng).cloned();
        match a {
            Some(a) => {
                seq.push(a);
                Undo::PopLast
            }
            None => Undo::None,
        }
    }
}

/// Heuristic-structured space: start from the expert pass and mutate points
/// of the sequence (replace a transformation's parameters, drop a step, or
/// insert a heuristic-suggested step).
pub struct HeuristicSpace;

impl SearchSpace for HeuristicSpace {
    fn initial(&self, dojo: &mut Dojo) -> Vec<Action> {
        dojo.reset();
        crate::passes::heuristic_pass(dojo);
        dojo.history.steps.clone()
    }

    fn neighbor(&self, seq: &[Action], dojo: &mut Dojo, rng: &mut Rng) -> Vec<Action> {
        let mut next = seq.to_vec();
        if next.is_empty() {
            return EdgesSpace.neighbor(&next, dojo, rng);
        }
        match rng.random_range(0..3u32) {
            0 => {
                // replace: re-parameterize one step in place
                let i = rng.random_range(0..next.len());
                if let Some(alt) = reparameterize(&next[i], dojo, rng) {
                    next[i] = alt;
                }
            }
            1 => {
                // drop one step, keeping the rest (non-destructive undo)
                let i = rng.random_range(0..next.len());
                next.remove(i);
            }
            _ => {
                // insert a suggested step at the end of the sequence
                if dojo.load_sequence(&next).is_ok() {
                    let suggestions = suggest(dojo);
                    if let Some(a) = suggestions.choose(rng) {
                        next.push(a.clone());
                    }
                }
            }
        }
        next
    }

    fn propose(&self, seq: &mut Vec<Action>, dojo: &mut Dojo, rng: &mut Rng) -> Undo {
        // same decision sequence as `neighbor`, applied in place
        if seq.is_empty() {
            return EdgesSpace.propose(seq, dojo, rng);
        }
        match rng.random_range(0..3u32) {
            0 => {
                let i = rng.random_range(0..seq.len());
                match reparameterize(&seq[i], dojo, rng) {
                    Some(alt) => {
                        let action = std::mem::replace(&mut seq[i], alt);
                        Undo::Restore { index: i, action }
                    }
                    None => Undo::None,
                }
            }
            1 => {
                let i = rng.random_range(0..seq.len());
                let action = seq.remove(i);
                Undo::Reinsert { index: i, action }
            }
            _ => {
                if dojo.load_sequence(seq).is_err() {
                    return Undo::None;
                }
                let suggestions = suggest(dojo);
                match suggestions.choose(rng) {
                    Some(a) => {
                        seq.push(a.clone());
                        Undo::PopLast
                    }
                    None => Undo::None,
                }
            }
        }
    }
}

/// Alternative parameterizations of a step (tile sizes, padding, location).
fn reparameterize(a: &Action, dojo: &Dojo, rng: &mut Rng) -> Option<Action> {
    let tiles: Vec<usize> = dojo
        .library()
        .transforms
        .iter()
        .filter_map(|t| match t {
            Transform::SplitScope { tile } => Some(*tile),
            _ => None,
        })
        .collect();
    match &a.transform {
        Transform::SplitScope { tile } => {
            let alt = tiles.choose(rng).copied()?;
            (alt != *tile).then(|| Action {
                transform: Transform::SplitScope { tile: alt },
                loc: a.loc.clone(),
            })
        }
        Transform::SplitReduction { tile } => {
            let alt = tiles.choose(rng).copied()?;
            (alt != *tile).then(|| Action {
                transform: Transform::SplitReduction { tile: alt },
                loc: a.loc.clone(),
            })
        }
        _ => None,
    }
}

/// Heuristic step suggestions for the current state: the moves an expert
/// would consider next (annotation toggles, tilings of hot loops, layout
/// tweaks).
fn suggest(dojo: &mut Dojo) -> Vec<Action> {
    let preferred = |t: &Transform| {
        matches!(
            t,
            Transform::SplitScope { .. }
                | Transform::SplitReduction { .. }
                | Transform::Vectorize { .. }
                | Transform::Parallelize
                | Transform::Unroll
                | Transform::BindGpu(_)
                | Transform::JoinScopes
                | Transform::ReuseDims
                | Transform::EnableSsr
                | Transform::EnableFrep
                | Transform::SetLocation(_)
        )
    };
    dojo.actions().iter().filter(|a| preferred(&a.transform)).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdojo_core::Target;

    fn dojo() -> Dojo {
        let k = perfdojo_kernels::small_suite()
            .into_iter()
            .find(|k| k.label == "softmax")
            .unwrap();
        Dojo::for_target(k.program, &Target::x86()).unwrap()
    }

    #[test]
    fn edges_space_extends_sequences() {
        let mut d = dojo();
        let mut rng = Rng::seed_from_u64(1);
        let s0 = EdgesSpace.initial(&mut d);
        assert!(s0.is_empty());
        let mut grew = false;
        let mut s = s0;
        for _ in 0..10 {
            let n = EdgesSpace.neighbor(&s, &mut d, &mut rng);
            if n.len() > s.len() {
                grew = true;
            }
            s = n;
        }
        assert!(grew);
    }

    /// `propose` must mirror `neighbor` decision-for-decision: same rng
    /// seed, same resulting candidate — and `revert` must be its exact
    /// inverse. This is what keeps the in-place annealing loop bit-identical
    /// to the historical clone-based one.
    #[test]
    fn propose_matches_neighbor_and_reverts() {
        for space in [&EdgesSpace as &dyn SearchSpace, &HeuristicSpace] {
            let mut d1 = dojo();
            let mut d2 = dojo();
            let mut rng1 = Rng::seed_from_u64(7);
            let mut rng2 = Rng::seed_from_u64(7);
            let mut s1 = space.initial(&mut d1);
            let mut s2 = space.initial(&mut d2);
            assert_eq!(s1, s2);
            for _ in 0..20 {
                let before = s2.clone();
                let next = space.neighbor(&s1, &mut d1, &mut rng1);
                let undo = space.propose(&mut s2, &mut d2, &mut rng2);
                assert_eq!(s2, next, "propose and neighbor must agree");
                let mut reverted = s2.clone();
                revert(&mut reverted, undo);
                assert_eq!(reverted, before, "revert must restore the pre-propose candidate");
                s1 = next;
            }
        }
    }

    #[test]
    fn heuristic_space_starts_complete() {
        let mut d = dojo();
        let s0 = HeuristicSpace.initial(&mut d);
        assert!(!s0.is_empty(), "expert pass should produce steps");
        // mutations keep candidates replayable
        let mut rng = Rng::seed_from_u64(2);
        for _ in 0..6 {
            let n = HeuristicSpace.neighbor(&s0, &mut d, &mut rng);
            assert!(d.load_sequence(&n).is_ok());
        }
    }
}
