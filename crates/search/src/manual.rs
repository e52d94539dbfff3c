//! Scripted manual optimization (paper Fig. 4 and Fig. 9).
//!
//! The paper walks a softmax kernel through a hand-chosen sequence of moves
//! on an AVX-512 CPU, showing (a) that efficient implementations are
//! reachable through the transformation space and (b) how performance
//! evolves during the process — including long plateaus from enabling
//! transformations that only pay off later. This module reproduces that
//! process as a deterministic script of move *specs* (predicates over the
//! applicable-action set), recording the runtime after every move.

use perfdojo_core::Dojo;
use perfdojo_ir::{Location, Node};
use perfdojo_transform::{Action, Loc, Transform};

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

/// A move spec: a name plus a selector over the applicable actions.
type Spec<'a> = (&'a str, Box<dyn Fn(&Dojo, &Action) -> bool + 'a>);

fn take_all<'a>(name: &'a str, f: impl Fn(&Dojo, &Action) -> bool + 'a) -> Spec<'a> {
    (name, Box::new(f))
}

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

    let specs: Vec<Spec> = vec![
        // 1) shrink the per-row temporaries: stack placement (plateau moves)
        take_all("set_location(stack) on temporaries", |d, a| {
            matches!((&a.transform, &a.loc), (Transform::SetLocation(Location::Stack), Loc::Buffer(b))
                if d.current().buffer(b).is_some_and(|x| x.bytes() <= 256 * 1024))
        }),
        // 2) privatize the two row reductions at the vector width
        take_all("split_reduction(width) on row reductions", move |_, a| {
            matches!(a.transform, Transform::SplitReduction { tile } if tile == width)
        }),
        // 3) vectorize every width-trip single-op loop
        take_all("vectorize(width)", |_, a| {
            matches!(a.transform, Transform::Vectorize { .. })
        }),
        // 4) tile the remaining elementwise loops to the width …
        take_all("split_scope(width) on innermost loops", move |d, a| {
            if let (Transform::SplitScope { tile }, Loc::Node(p)) = (&a.transform, &a.loc) {
                *tile == width
                    && matches!(d.current().node(p), Some(Node::Scope(s))
                        if s.children.iter().all(|c| matches!(c, Node::Op(_))))
            } else {
                false
            }
        }),
        // 5) … and vectorize them
        take_all("vectorize(width) after tiling", |_, a| {
            matches!(a.transform, Transform::Vectorize { .. })
        }),
        // 6) unroll the small partial-accumulator finalization loops
        take_all("unroll small loops", |d, a| {
            if let (Transform::Unroll, Loc::Node(p)) = (&a.transform, &a.loc) {
                matches!(d.current().node(p), Some(Node::Scope(s)) if s.trip() <= 16 && s.kind == perfdojo_ir::ScopeKind::Seq)
            } else {
                false
            }
        }),
        // 7) finally parallelize the row loop across cores
        take_all("parallelize rows", |_, a| {
            matches!(a.transform, Transform::Parallelize)
                && matches!(&a.loc, Loc::Node(p) if p.len() == 1)
        }),
    ];

    let mut trajectory = vec![TrajectoryPoint {
        step: 0,
        move_name: "initial".into(),
        runtime: dojo.runtime(),
    }];
    let mut step = 0usize;
    for (name, pred) in specs {
        // apply every matching action (each application is one atomic move)
        for _ in 0..128 {
            let Some(action) = dojo.actions().to_vec().into_iter().find(|a| pred(dojo, a)) else {
                break;
            };
            if dojo.step(action).is_err() {
                break;
            }
            step += 1;
            trajectory.push(TrajectoryPoint {
                step,
                move_name: name.to_string(),
                runtime: dojo.runtime(),
            });
        }
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
