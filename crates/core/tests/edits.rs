//! Paper §2's non-destructive edits, through the path every §4.2 search
//! takes: edit the applied `Vec<Action>` (drop or replace an earlier step)
//! and hand it to `Dojo::load_sequence`, which keeps every later step that
//! still applies. Each edit must leave a program equivalent to the initial
//! one, under the incremental and the naive engine alike.

use perfdojo_core::{Dojo, Target};
use perfdojo_interp::verify_equivalent;
use perfdojo_ir::builder::*;
use perfdojo_ir::{Path, Program, ProgramBuilder};
use perfdojo_transform::{Action, Loc, Transform};

fn base() -> Program {
    let mut b = ProgramBuilder::new("h");
    b.input("x", &[4, 16]).output("z", &[4, 16]);
    b.scopes(&[4, 16], |b| {
        b.op(out("z", &[0, 1]), mul(ld("x", &[0, 1]), cst(2.0)));
    });
    b.build()
}

fn at(transform: Transform, path: &[usize]) -> Action {
    Action { transform, loc: Loc::Node(Path::from(path.to_vec().as_slice())) }
}

fn split(tile: usize, path: &[usize]) -> Action {
    at(Transform::SplitScope { tile }, path)
}

/// A dojo over `base()` on x86, under each engine.
fn dojos() -> [Dojo; 2] {
    let d = || Dojo::for_target(base(), &Target::x86()).unwrap();
    [d(), d().with_naive_engine()]
}

#[test]
fn remove_earlier_step_keeps_later_when_possible() {
    for mut d in dojos() {
        // step 0: split inner 16 by 8; step 1: unroll the new 8-loop;
        // step 2: parallelize the outer 4-loop (independent of step 0)
        let steps = vec![
            split(8, &[0, 0]),
            at(Transform::Unroll, &[0, 0, 0]),
            at(Transform::Parallelize, &[0]),
        ];
        d.load_sequence(&steps).unwrap();
        assert_eq!(d.history.steps, steps);
        // removing the split leaves @0.0.0 an op, so the unroll no longer
        // applies, while the parallelize at @0 still does
        d.load_sequence(&steps[1..]).unwrap();
        assert_eq!(d.history.steps, steps[2..]);
        assert!(verify_equivalent(d.initial(), d.current(), 2, 3).is_equivalent());
    }
}

#[test]
fn replace_step_with_different_tile() {
    for mut d in dojos() {
        let steps = vec![split(8, &[0, 0]), at(Transform::Parallelize, &[0])];
        d.load_sequence(&steps).unwrap();
        let edited = vec![split(4, &[0, 0]), steps[1].clone()];
        d.load_sequence(&edited).unwrap();
        assert_eq!(d.history.steps, edited);
        // inner scope now has trip 4
        let inner = d.current().node(&Path::from([0, 0, 0])).unwrap().as_scope().unwrap();
        assert_eq!(inner.trip(), 4);
        assert!(verify_equivalent(d.initial(), d.current(), 2, 5).is_equivalent());
    }
}
