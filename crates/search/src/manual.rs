//! Scripted manual optimization (paper Fig. 4 and Fig. 9).
//!
//! The paper walks a softmax kernel through a hand-chosen sequence of moves
//! on an AVX-512 CPU, showing (a) that efficient implementations are
//! reachable through the transformation space and (b) how performance
//! evolves during the process — including long plateaus from enabling
//! transformations that only pay off later. This module reproduces that
//! process as a deterministic script of move *specs* (a transform test
//! and a location test over the applicable actions), recording the runtime
//! after every move.

use crate::passes::{anywhere, buffer_within, is_innermost, outermost, play_matching};
use perfdojo_core::Dojo;
use perfdojo_ir::{Location, Node, ScopeKind};
use perfdojo_transform::{Loc, Transform};

/// One recorded move of the manual process.
#[derive(Clone, Debug)]
pub struct TrajectoryPoint {
    /// Move index (0 = initial state).
    pub step: usize,
    /// Human-readable move description.
    pub move_name: String,
    /// Runtime after the move, seconds.
    pub runtime: f64,
}

/// A move spec: a name, the transforms it plays and where it plays them.
type Spec<'a> =
    (&'a str, &'a dyn Fn(&Transform) -> bool, &'a dyn Fn(&Dojo, &Loc) -> bool);

/// Run the scripted manual optimization of a row-wise softmax on a CPU
/// target, returning the performance trajectory (Fig. 9). The script
/// mirrors the Fig. 4 path: buffer reuse and fusion first (plateau), then
/// reduction privatization, vectorization, unrolling and parallelization.
pub fn manual_softmax_trajectory(dojo: &mut Dojo) -> Vec<TrajectoryPoint> {
    let width = dojo
        .library()
        .transforms
        .iter()
        .filter_map(|t| match t {
            Transform::Vectorize { width } => Some(*width),
            _ => None,
        })
        .max()
        .unwrap_or(8);
    let vectorize = |t: &Transform| matches!(t, Transform::Vectorize { .. });

    let specs: [Spec; 7] = [
        // 1) shrink the per-row temporaries: stack placement (plateau moves)
        (
            "set_location(stack) on temporaries",
            &|t| matches!(t, Transform::SetLocation(Location::Stack)),
            &|d, l| buffer_within(d, l, 256 * 1024),
        ),
        // 2) privatize the two row reductions at the vector width
        (
            "split_reduction(width) on row reductions",
            &|t| matches!(t, Transform::SplitReduction { tile } if *tile == width),
            &anywhere,
        ),
        // 3) vectorize every width-trip single-op loop
        ("vectorize(width)", &vectorize, &anywhere),
        // 4) tile the remaining elementwise loops to the width …
        (
            "split_scope(width) on innermost loops",
            &|t| matches!(t, Transform::SplitScope { tile } if *tile == width),
            &|d, l| matches!(l, Loc::Node(p) if is_innermost(d, p)),
        ),
        // 5) … and vectorize them
        ("vectorize(width) after tiling", &vectorize, &anywhere),
        // 6) unroll the small partial-accumulator finalization loops
        ("unroll small loops", &|t| matches!(t, Transform::Unroll), &|d, l| {
            matches!(l, Loc::Node(p) if matches!(d.current().node(p), Some(Node::Scope(s))
                if s.trip() <= 16 && s.kind == ScopeKind::Seq))
        }),
        // 7) finally parallelize the row loop across cores
        ("parallelize rows", &|t| matches!(t, Transform::Parallelize), &outermost),
    ];

    let mut trajectory = vec![TrajectoryPoint {
        step: 0,
        move_name: "initial".into(),
        runtime: dojo.runtime(),
    }];
    for (name, want, at) in specs {
        // apply every matching action (each application is one atomic move)
        play_matching(dojo, want, at, 128, &mut |d| {
            trajectory.push(TrajectoryPoint {
                step: trajectory.len(),
                move_name: name.to_string(),
                runtime: d.runtime(),
            });
        });
    }
    trajectory
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdojo_core::Target;
    use perfdojo_interp::verify_equivalent;

    #[test]
    fn manual_softmax_reaches_large_speedup() {
        let p = perfdojo_kernels::softmax(64, 128);
        let mut d = Dojo::for_target(p, &Target::x86()).unwrap();
        let init = d.initial_runtime();
        let traj = manual_softmax_trajectory(&mut d);
        assert!(traj.len() > 10, "expected a multi-move script, got {}", traj.len());
        let final_rt = traj.last().unwrap().runtime;
        assert!(final_rt < init / 3.0, "speedup only {}", init / final_rt);
    }

    #[test]
    fn trajectory_has_plateaus_and_drops() {
        // Fig. 9's shape: some moves do nothing immediately (plateaus),
        // others cause jumps.
        let p = perfdojo_kernels::softmax(64, 128);
        let mut d = Dojo::for_target(p, &Target::x86()).unwrap();
        let traj = manual_softmax_trajectory(&mut d);
        let mut plateau = false;
        let mut drop = false;
        for w in traj.windows(2) {
            let ratio = w[1].runtime / w[0].runtime;
            if (ratio - 1.0).abs() < 0.02 {
                plateau = true;
            }
            if ratio < 0.7 {
                drop = true;
            }
        }
        assert!(plateau, "expected at least one plateau move");
        assert!(drop, "expected at least one large improvement");
    }

    #[test]
    fn script_preserves_semantics_end_to_end() {
        let p = perfdojo_kernels::softmax(4, 16);
        let mut d = Dojo::for_target(p.clone(), &Target::x86()).unwrap();
        manual_softmax_trajectory(&mut d);
        let rep = verify_equivalent(&p, d.current(), 3, 1234);
        assert!(rep.is_equivalent(), "{rep:?}");
    }
}
