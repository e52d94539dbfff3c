//! Transformation history: the non-destructive record of a sequence of
//! moves.
//!
//! Paper §2: "we also ask for transformations to be non-destructive …
//! both human engineers and RL agents may … want to undo [an earlier
//! transformation], maintaining all other transformations applied since
//! then in place." Because every application is pure, the history *is* the
//! program: any prefix can be replayed, and an edited sequence (a step
//! removed or replaced) re-applied from the initial program, skipping any
//! step that became inapplicable ([`replay_sequence`] says which).
//!
//! [`History`] itself is the push/pop/truncate stack the Dojo drives. The
//! §4.2 searches edit a `Vec<Action>` and hand it to
//! `perfdojo_core::Dojo::load_sequence`, which keeps the shared prefix and
//! replays the rest.

use crate::{Action, TransformError};
use perfdojo_ir::Program;

/// A recorded, replayable transformation sequence.
///
/// Every applied step keeps its *pre-state* program, so undoing the most
/// recent step — or truncating back to any prefix — is O(1) snapshot
/// restoration rather than an O(n) replay from the initial program. The
/// snapshots are moves, not extra clones: `push` already owns the outgoing
/// program and simply retains it. This is what makes the Dojo's prefix
/// replay (`perfdojo-core`) incremental.
///
/// The non-destructive property is bidirectional: `pop` retains the
/// removed step's *post*-state in a redo journal (again a move, not a
/// clone), so re-pushing the action just popped restores its result
/// without re-applying the transformation. Annealing searches hit this
/// constantly — a rejected "retract the last step" proposal pops a step
/// and immediately re-pushes it. Any diverging push discards the journal.
#[derive(Clone, Debug)]
pub struct History {
    /// The untransformed program.
    pub initial: Program,
    /// Applied actions, in order.
    pub steps: Vec<Action>,
    current: Program,
    /// `pre[i]` is the program state *before* `steps[i]` was applied.
    pre: Vec<Program>,
    /// Redo journal: `(action, post-state)` pairs retained by `pop` /
    /// `truncate_to`, most recently popped last. Valid only for the exact
    /// position they were popped from, which the LIFO discipline
    /// guarantees: each entry corresponds to the state left after the pop
    /// that created it, and the journal is cleared by any diverging push.
    redo: Vec<(Action, Program)>,
}

/// Result of replaying an edited sequence: the reached program plus the
/// indices of steps that no longer applied and were skipped.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Program after applying all still-applicable steps.
    pub program: Program,
    /// Indices (into the edited sequence) of steps skipped as inapplicable.
    pub skipped: Vec<usize>,
}

impl Replay {
    /// The steps of `steps`, the sequence this replay ran, that applied:
    /// every one whose index is not in `skipped`, in order.
    pub fn applied(&self, steps: &[Action]) -> Vec<Action> {
        steps
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.skipped.contains(i))
            .map(|(_, a)| a.clone())
            .collect()
    }
}

impl History {
    /// Start a history at `initial`.
    pub fn new(initial: Program) -> Self {
        History {
            current: initial.clone(),
            initial,
            steps: Vec::new(),
            pre: Vec::new(),
            redo: Vec::new(),
        }
    }

    /// The current (fully transformed) program.
    pub fn current(&self) -> &Program {
        &self.current
    }

    /// Number of applied steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when no step has been applied.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Apply and record one action. The outgoing program is retained as the
    /// step's pre-state snapshot (a move, not a clone).
    ///
    /// Re-pushing the action most recently popped restores its retained
    /// post-state instead of re-applying the transformation (application
    /// purity makes the two indistinguishable); pushing anything else
    /// discards the redo journal.
    pub fn push(&mut self, action: Action) -> Result<&Program, TransformError> {
        if let Some((redone, _)) = self.redo.last() {
            if *redone == action {
                let (action, post) = self.redo.pop().expect("just checked");
                self.steps.push(action);
                self.pre.push(std::mem::replace(&mut self.current, post));
                return Ok(&self.current);
            }
            self.redo.clear();
        }
        let next = action.apply(&self.current)?;
        self.steps.push(action);
        self.pre.push(std::mem::replace(&mut self.current, next));
        Ok(&self.current)
    }

    /// Undo the most recent action (O(1): restores the step's pre-state
    /// snapshot; application purity makes this identical to a replay). The
    /// undone post-state moves to the redo journal.
    pub fn pop(&mut self) -> Option<Action> {
        let last = self.steps.pop()?;
        let post = std::mem::replace(
            &mut self.current,
            self.pre.pop().expect("pre-state recorded per step"),
        );
        self.redo.push((last.clone(), post));
        Some(last)
    }

    /// Truncate back to the first `len` steps (O(steps dropped), no
    /// replay; the dropped steps move to the redo journal in pop order).
    /// No-op when `len >= self.len()`.
    pub fn truncate_to(&mut self, len: usize) {
        while self.steps.len() > len {
            self.pop();
        }
    }
}

/// Strict replay failure: which step broke and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayError {
    /// Index (into the step sequence) of the first inapplicable step.
    pub index: usize,
    /// Why that step did not apply.
    pub error: TransformError,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step {} failed: {}", self.index, self.error)
    }
}

impl std::error::Error for ReplayError {}

/// Strictly re-apply a recorded edit sequence to `initial`: every step must
/// apply, in order, or the replay fails with the index of the first
/// inapplicable step. This is what the schedule library uses to reconstruct
/// a persisted schedule (and to transplant one onto a near-shape program,
/// where a clean error beats a silently shortened schedule).
pub fn replay(initial: &Program, steps: &[Action]) -> Result<Program, ReplayError> {
    let mut program = initial.clone();
    for (index, s) in steps.iter().enumerate() {
        program = s.apply(&program).map_err(|error| ReplayError { index, error })?;
    }
    Ok(program)
}

/// Replay a sequence from `initial`, skipping inapplicable steps.
pub fn replay_sequence(initial: &Program, steps: &[Action]) -> Replay {
    let mut program = initial.clone();
    let mut skipped = Vec::new();
    for (i, s) in steps.iter().enumerate() {
        match s.apply(&program) {
            Ok(next) => program = next,
            Err(_) => skipped.push(i),
        }
    }
    Replay { program, skipped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Loc, Transform};
    use perfdojo_interp::verify_equivalent;
    use perfdojo_ir::builder::*;
    use perfdojo_ir::{Path, Program, ProgramBuilder};

    fn base() -> Program {
        let mut b = ProgramBuilder::new("h");
        b.input("x", &[4, 16]).output("z", &[4, 16]);
        b.scopes(&[4, 16], |b| {
            b.op(out("z", &[0, 1]), mul(ld("x", &[0, 1]), cst(2.0)));
        });
        b.build()
    }

    fn split(tile: usize, path: &[usize]) -> Action {
        Action { transform: Transform::SplitScope { tile }, loc: Loc::Node(Path::from(path.to_vec().as_slice())) }
    }

    #[test]
    fn push_pop_roundtrip() {
        let p = base();
        let mut h = History::new(p.clone());
        h.push(split(8, &[0, 0])).unwrap();
        assert_eq!(h.len(), 1);
        h.pop().unwrap();
        assert_eq!(h.current(), &p);
        assert!(h.is_empty());
    }

    #[test]
    fn truncate_to_restores_prefix_state() {
        let p = base();
        let mut h = History::new(p.clone());
        h.push(split(8, &[0, 0])).unwrap();
        let after_one = h.current().clone();
        h.push(Action { transform: Transform::Unroll, loc: Loc::Node(Path::from([0, 0, 0])) })
            .unwrap();
        h.push(Action { transform: Transform::Parallelize, loc: Loc::Node(Path::from([0])) })
            .unwrap();
        h.truncate_to(1);
        assert_eq!(h.len(), 1);
        assert_eq!(h.current(), &after_one);
        // truncating to the full length (or beyond) is a no-op
        h.truncate_to(5);
        assert_eq!(h.len(), 1);
        h.truncate_to(0);
        assert_eq!(h.current(), &p);
        assert!(h.is_empty());
    }

    #[test]
    fn pop_restores_snapshot_exactly() {
        // pop is O(1) snapshot restoration; the apply-count regression test
        // pinning "zero applies" lives in perfdojo-core's isolated
        // integration binary, where no concurrent test pollutes the counter
        let p = base();
        let mut h = History::new(p.clone());
        h.push(split(8, &[0, 0])).unwrap();
        h.push(Action { transform: Transform::Parallelize, loc: Loc::Node(Path::from([0])) })
            .unwrap();
        let mid = {
            let mut g = History::new(p);
            g.push(split(8, &[0, 0])).unwrap();
            g.current().clone()
        };
        h.pop().unwrap();
        assert_eq!(h.current(), &mid);
    }

    #[test]
    fn repush_after_pop_restores_without_reapplying() {
        let p = base();
        let mut h = History::new(p);
        let a = split(8, &[0, 0]);
        let b = Action { transform: Transform::Parallelize, loc: Loc::Node(Path::from([0])) };
        h.push(a.clone()).unwrap();
        h.push(b.clone()).unwrap();
        let deepest = h.current().clone();
        // pop twice, re-push the same actions: both restores come from the
        // redo journal (the zero-apply pin lives in perfdojo-core's
        // isolated `replay_counts` binary, where the process-global apply
        // counter is not polluted by concurrent tests)
        h.pop().unwrap();
        h.pop().unwrap();
        h.push(a).unwrap();
        h.push(b).unwrap();
        assert_eq!(h.current(), &deepest);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn diverging_push_discards_redo_journal() {
        let p = base();
        let mut h = History::new(p);
        let a = split(8, &[0, 0]);
        h.push(a).unwrap();
        h.pop().unwrap();
        // a different action clears the journal and applies normally
        let c = split(4, &[0, 0]);
        h.push(c).unwrap();
        let inner = h.current().node(&Path::from([0, 0, 0])).unwrap().as_scope().unwrap();
        assert_eq!(inner.trip(), 4);
        // the popped split-8 post-state must be gone: re-pushing split 8
        // now applies on top of split 4 (nested), not restore the old state
        let d = split(2, &[0, 0, 0]);
        h.push(d).unwrap();
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn strict_replay_reapplies_full_sequence() {
        let p = base();
        let steps = vec![
            split(8, &[0, 0]),
            Action { transform: Transform::Unroll, loc: Loc::Node(Path::from([0, 0, 0])) },
            Action { transform: Transform::Parallelize, loc: Loc::Node(Path::from([0])) },
        ];
        // reference: the program a History reaches by pushing each step
        let mut h = History::new(p.clone());
        for s in &steps {
            h.push(s.clone()).unwrap();
        }
        let q = replay(&p, &steps).unwrap();
        assert_eq!(&q, h.current());
        assert!(verify_equivalent(&p, &q, 2, 13).is_equivalent());
    }

    #[test]
    fn strict_replay_reports_first_bad_index() {
        let p = base();
        // step 1 re-splits the already-consumed location: inapplicable
        let steps = vec![split(8, &[0, 0]), split(8, &[0, 0, 0]), split(2, &[0])];
        let err = replay(&p, &steps).unwrap_err();
        assert_eq!(err.index, 1);
        assert!(matches!(err.error, TransformError::NotApplicable(_)));
        assert!(err.to_string().contains("step 1"));
        // empty sequences trivially replay
        assert_eq!(replay(&p, &[]).unwrap(), p);
    }

    #[test]
    fn replay_skips_inapplicable() {
        let p = base();
        let steps = vec![split(8, &[0, 0]), split(8, &[0, 0, 0])]; // second: trip 2? no — 16/8=2 outer, inner 8; splitting @0.0.0 (the new inner 8) by 8 is a no-op tile==trip -> inapplicable
        let r = replay_sequence(&p, &steps);
        assert_eq!(r.skipped, vec![1]);
        assert_eq!(r.applied(&steps), steps[..1]);
        assert!(verify_equivalent(&p, &r.program, 1, 9).is_equivalent());
    }
}
