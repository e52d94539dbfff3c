//! Deterministic optimization passes (paper §4.1, Fig. 7).
//!
//! * **naive** — "imitates the programmer's actions without extensive
//!   architectural insight, aiming only to merge scopes and reuse buffers
//!   as much as possible".
//! * **greedy** — naive + hardware-specific transformations applied
//!   exhaustively, assuming they always help (SSR/FREP on Snitch,
//!   vectorize/parallelize on CPUs, grid/block binding on GPUs).
//! * **heuristic** — written by a hardware expert as a function of the
//!   program structure: on Snitch it tiles loop nests by 4, moves the
//!   4-iteration scope innermost and unrolls it to hide the 4-cycle FPU
//!   latency; on CPUs it additionally privatizes reductions to unlock
//!   vectorization; on GPUs it shapes blocks before binding.

use perfdojo_core::Dojo;
use perfdojo_ir::{Location, Node, Path, ScopeKind};
use perfdojo_transform::{Action, Loc, Transform};

/// Apply every action matching `pred` until none is applicable (with an
/// iteration cap for safety). Returns the number of applied actions.
fn apply_matching(dojo: &mut Dojo, pred: &dyn Fn(&Dojo, &Action) -> bool) -> usize {
    let mut applied = 0;
    for _ in 0..256 {
        let Some(action) = dojo.actions().to_vec().into_iter().find(|a| pred(dojo, a)) else {
            break;
        };
        if dojo.step(action).is_err() {
            break;
        }
        applied += 1;
    }
    applied
}

/// The *naive* pass: fuse scopes and reuse buffer dimensions to exhaustion.
pub fn naive_pass(dojo: &mut Dojo) -> f64 {
    apply_matching(dojo, &|_, a| matches!(a.transform, Transform::JoinScopes));
    apply_matching(dojo, &|_, a| matches!(a.transform, Transform::ReuseDims));
    // buffers that shrank to (near-)scalars live in fast storage
    apply_matching(dojo, &|d, a| {
        if let (Transform::SetLocation(Location::Stack), Loc::Buffer(name)) =
            (&a.transform, &a.loc)
        {
            d.current().buffer(name).is_some_and(|b| b.bytes() <= 4096)
        } else {
            false
        }
    });
    dojo.runtime()
}

/// The *greedy* pass: naive, then hardware transformations exhaustively.
pub fn greedy_pass(dojo: &mut Dojo) -> f64 {
    naive_pass(dojo);
    let lib_has = |d: &Dojo, t: &dyn Fn(&Transform) -> bool| d.library().transforms.iter().any(|x| t(x));
    // Snitch: stream + hardware-loop everything streamable.
    if lib_has(dojo, &|t| matches!(t, Transform::EnableSsr)) {
        apply_matching(dojo, &|_, a| matches!(a.transform, Transform::EnableSsr));
        apply_matching(dojo, &|_, a| matches!(a.transform, Transform::EnableFrep));
    }
    // CPU: parallelize outermost loops, then vectorize innermost loops.
    if lib_has(dojo, &|t| matches!(t, Transform::Parallelize)) {
        apply_matching(dojo, &|_, a| {
            matches!(a.transform, Transform::Parallelize)
                && matches!(&a.loc, Loc::Node(p) if p.len() == 1)
        });
        greedy_vectorize(dojo);
    }
    // GPU: bind the outermost loop to the grid and the next to the block.
    if lib_has(dojo, &|t| matches!(t, Transform::BindGpu(_))) {
        apply_matching(dojo, &|_, a| {
            matches!(a.transform, Transform::BindGpu(ScopeKind::GpuGrid))
                && matches!(&a.loc, Loc::Node(p) if p.len() == 1)
        });
        apply_matching(dojo, &|d, a| {
            matches!(a.transform, Transform::BindGpu(ScopeKind::GpuBlock))
                && block_size_ok(d, &a.loc)
        });
    }
    dojo.runtime()
}

fn block_size_ok(d: &Dojo, loc: &Loc) -> bool {
    if let Loc::Node(p) = loc {
        if let Some(Node::Scope(s)) = d.current().node(p) {
            return s.trip() <= 1024;
        }
    }
    false
}

/// Vectorize innermost loops greedily: tile to the vector width when the
/// trip count allows, then vectorize.
fn greedy_vectorize(dojo: &mut Dojo) {
    let width = vector_width(dojo);
    if width <= 1 {
        return;
    }
    for _ in 0..64 {
        // direct vectorize where trip already equals the width
        if apply_matching(dojo, &|_, a| matches!(a.transform, Transform::Vectorize { .. })) > 0 {
            continue;
        }
        // otherwise tile one innermost loop to the width and retry
        let tiled = apply_one_innermost_split(dojo, width);
        if !tiled {
            break;
        }
    }
}

fn vector_width(dojo: &Dojo) -> usize {
    dojo.library()
        .transforms
        .iter()
        .filter_map(|t| match t {
            Transform::Vectorize { width } => Some(*width),
            _ => None,
        })
        .max()
        .unwrap_or(1)
}

/// Split one innermost (op-only) scope by `tile`, if any applies.
fn apply_one_innermost_split(dojo: &mut Dojo, tile: usize) -> bool {
    let split = Transform::SplitScope { tile };
    let locs = split.find_locations(dojo.current());
    for loc in locs {
        if let Loc::Node(p) = &loc {
            if is_innermost(dojo, p) {
                let a = Action { transform: split.clone(), loc };
                if dojo.step(a).is_ok() {
                    return true;
                }
            }
        }
    }
    false
}

fn is_innermost(dojo: &Dojo, p: &Path) -> bool {
    match dojo.current().node(p) {
        Some(Node::Scope(s)) => s.children.iter().all(|c| matches!(c, Node::Op(_))),
        _ => false,
    }
}

/// The *heuristic* pass: expert knowledge as a function of program
/// structure (paper §4.1/§4.2.3).
pub fn heuristic_pass(dojo: &mut Dojo) -> f64 {
    let start_len = dojo.history.len();
    let start_runtime = dojo.runtime();
    naive_pass(dojo);
    let snitch = dojo.library().transforms.iter().any(|t| matches!(t, Transform::EnableSsr));
    let gpu = dojo.library().transforms.iter().any(|t| matches!(t, Transform::BindGpu(_)));
    if snitch {
        heuristic_snitch(dojo);
    } else if gpu {
        heuristic_gpu(dojo);
    } else {
        heuristic_cpu(dojo);
    }
    // an expert keeps the original implementation when the recipe loses
    if dojo.runtime() > start_runtime {
        while dojo.history.len() > start_len {
            dojo.undo();
        }
    }
    dojo.runtime()
}

/// Snitch heuristic: privatize reductions into 4 accumulators (the paper's
/// tile-by-4-and-move-innermost recipe for the 4-cycle pipeline latency),
/// unroll the 4-loops, then stream + hardware-loop.
fn heuristic_snitch(dojo: &mut Dojo) {
    // work-share the outermost independent loop across the cluster cores
    // first, so reduction privatization below is per-core; keep the fork
    // only when the work amortizes the barrier
    let before = dojo.runtime();
    let len_before = dojo.history.len();
    apply_matching(dojo, &|_, a| {
        matches!(a.transform, Transform::Parallelize)
            && matches!(&a.loc, Loc::Node(p) if p.len() == 1)
    });
    if dojo.runtime() > before {
        while dojo.history.len() > len_before {
            dojo.undo();
        }
    }
    apply_matching(dojo, &|_, a| matches!(a.transform, Transform::SplitReduction { tile: 4 }));
    apply_matching(dojo, &|d, a| {
        matches!(a.transform, Transform::Unroll)
            && matches!(&a.loc, Loc::Node(p)
                if matches!(d.current().node(p), Some(Node::Scope(s)) if s.trip() == 4))
    });
    apply_matching(dojo, &|_, a| matches!(a.transform, Transform::EnableSsr));
    apply_matching(dojo, &|_, a| matches!(a.transform, Transform::EnableFrep));
}

/// CPU heuristic: privatize reductions at the vector width, vectorize all
/// width-trip loops, parallelize the outermost loop, stack temporaries.
fn heuristic_cpu(dojo: &mut Dojo) {
    let width = vector_width(dojo).max(2);
    // parallelize rows first so reduction privatization is per-thread —
    // but an expert only forks threads when the work amortizes the
    // synchronization overhead, so keep it only if it helps
    let before = dojo.runtime();
    let len_before = dojo.history.len();
    apply_matching(dojo, &|_, a| {
        matches!(a.transform, Transform::Parallelize)
            && matches!(&a.loc, Loc::Node(p) if p.len() == 1)
    });
    if dojo.runtime() > before {
        while dojo.history.len() > len_before {
            dojo.undo();
        }
    }
    apply_matching(dojo, &|_, a| {
        matches!(a.transform, Transform::SplitReduction { tile } if tile == width)
    });
    greedy_vectorize(dojo);
    apply_matching(dojo, &|d, a| {
        if let (Transform::SetLocation(Location::Stack), Loc::Buffer(name)) =
            (&a.transform, &a.loc)
        {
            d.current().buffer(name).is_some_and(|b| b.bytes() <= 64 * 1024)
        } else {
            false
        }
    });
}

/// GPU heuristic: for each top-level loop nest, evaluate a handful of
/// expert binding strategies (bind the loop to the grid directly, or
/// interchange first when the outer loop is skinny; shape a ~256-thread
/// block out of the grid's child by tiling + interchange) and keep the
/// best. Finally vectorize innermost 4-trip loops into 128-bit accesses.
fn heuristic_gpu(dojo: &mut Dojo) {
    let roots = dojo.current().roots.len();
    for i in 0..roots {
        bind_nest(dojo, i);
    }
    apply_matching(dojo, &|_, a| matches!(a.transform, Transform::Vectorize { width: 4 }));
}

/// Try binding strategies for the top-level nest at root index `i`,
/// keeping the best-scoring one.
fn bind_nest(dojo: &mut Dojo, i: usize) {
    let base_len = dojo.history.len();
    let base_runtime = dojo.runtime();
    let mut best: Option<(Vec<Action>, f64)> = None;

    for interchange_first in [false, true] {
        // roll back to the base state
        while dojo.history.len() > base_len {
            dojo.undo();
        }
        let mut ok = true;
        if interchange_first {
            let a = Action {
                transform: Transform::InterchangeScopes,
                loc: Loc::Node(Path::from([i])),
            };
            ok = dojo.step(a).is_ok();
        }
        if ok {
            let grid = Action {
                transform: Transform::BindGpu(ScopeKind::GpuGrid),
                loc: Loc::Node(Path::from([i])),
            };
            ok = dojo.step(grid).is_ok();
        }
        if ok {
            shape_block(dojo, i);
            let rt = dojo.runtime();
            if rt < base_runtime && best.as_ref().is_none_or(|(_, b)| rt < *b) {
                best = Some((dojo.history.steps[base_len..].to_vec(), rt));
            }
        }
    }
    // restore and commit the winner (if any)
    while dojo.history.len() > base_len {
        dojo.undo();
    }
    if let Some((steps, _)) = best {
        for a in steps {
            if dojo.step(a).is_err() {
                break;
            }
        }
    }
}

/// Shape the grid's single child into a <=1024-thread block: bind directly
/// when it already fits, otherwise tile by 256 and interchange so the
/// 256-lane loop sits immediately under the grid.
fn shape_block(dojo: &mut Dojo, i: usize) {
    let child = Path::from([i, 0]);
    let Some(Node::Scope(s)) = dojo.current().node(&child) else { return };
    let trip = match s.size.as_const() {
        Some(t) => t,
        None => return,
    };
    if trip <= 1024 {
        let _ = dojo.step(Action {
            transform: Transform::BindGpu(ScopeKind::GpuBlock),
            loc: Loc::Node(child),
        });
        return;
    }
    if trip % 256 == 0 {
        let split = Action {
            transform: Transform::SplitScope { tile: 256 },
            loc: Loc::Node(child.clone()),
        };
        if dojo.step(split).is_ok() {
            // [N/256 [256]] -> interchange -> [256 [N/256]]
            let inter = Action {
                transform: Transform::InterchangeScopes,
                loc: Loc::Node(child.clone()),
            };
            let _ = dojo.step(inter);
            let _ = dojo.step(Action {
                transform: Transform::BindGpu(ScopeKind::GpuBlock),
                loc: Loc::Node(child),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdojo_core::Target;

    fn micro_dojo(label: &str, target: &Target) -> Dojo {
        let k = perfdojo_kernels::micro_suite()
            .into_iter()
            .find(|k| k.label == label)
            .unwrap();
        Dojo::for_target(k.program, target).unwrap()
    }

    #[test]
    fn snitch_pass_ordering_matches_paper() {
        // Fig. 7: heuristic >= greedy >= naive on Snitch micro-kernels
        // (geomean over the suite; individual kernels may tie).
        let t = Target::snitch();
        let mut naive_prod = 1.0f64;
        let mut greedy_prod = 1.0f64;
        let mut heur_prod = 1.0f64;
        let mut n = 0u32;
        for k in perfdojo_kernels::micro_suite() {
            let mut d = Dojo::for_target(k.program.clone(), &t).unwrap();
            let naive = naive_pass(&mut d);
            let mut d = Dojo::for_target(k.program.clone(), &t).unwrap();
            let greedy = greedy_pass(&mut d);
            let mut d = Dojo::for_target(k.program.clone(), &t).unwrap();
            let heur = heuristic_pass(&mut d);
            naive_prod *= naive;
            greedy_prod *= greedy;
            heur_prod *= heur;
            n += 1;
        }
        let g = |x: f64| x.powf(1.0 / n as f64);
        let (naive, greedy, heur) = (g(naive_prod), g(greedy_prod), g(heur_prod));
        assert!(greedy < naive, "greedy {greedy} vs naive {naive}");
        assert!(heur < greedy * 1.001, "heuristic {heur} vs greedy {greedy}");
        // the paper reports 46% (greedy) and 58% (heuristic) speedups over
        // naive; require the same ballpark ordering with real margins
        assert!(naive / greedy > 1.2, "greedy speedup too small: {}", naive / greedy);
        assert!(naive / heur > naive / greedy, "heuristic must beat greedy overall");
    }

    #[test]
    fn dot_heuristic_hides_latency() {
        let t = Target::snitch();
        let mut d = micro_dojo("dot", &t);
        let naive = naive_pass(&mut d);
        let mut d = micro_dojo("dot", &t);
        let heur = heuristic_pass(&mut d);
        assert!(heur < naive * 0.7, "heuristic {heur} vs naive {naive}");
    }

    #[test]
    fn cpu_heuristic_parallelizes_and_vectorizes() {
        let k = perfdojo_kernels::small_suite()
            .into_iter()
            .find(|k| k.label == "relu")
            .unwrap();
        // use a larger instance so parallelism wins over its overhead
        let p = perfdojo_kernels::relu(512, 512);
        let mut d = Dojo::for_target(p, &Target::x86()).unwrap();
        let before = d.initial_runtime();
        let after = heuristic_pass(&mut d);
        assert!(after < before / 4.0, "{after} vs {before}");
        let _ = k;
    }

    #[test]
    fn gpu_heuristic_binds_kernels() {
        let p = perfdojo_kernels::mul(1024, 1024);
        let mut d = Dojo::for_target(p, &Target::gh200()).unwrap();
        let before = d.initial_runtime();
        let after = heuristic_pass(&mut d);
        assert!(after < before / 10.0, "{after} vs {before}");
        // a grid binding must exist in the final schedule
        let bound = d
            .current()
            .scope_paths()
            .iter()
            .any(|pp| matches!(d.current().node(pp), Some(Node::Scope(s)) if s.kind == ScopeKind::GpuGrid));
        assert!(bound);
    }
}
