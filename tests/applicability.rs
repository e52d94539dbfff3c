//! find ≡ apply on seeded fuzz programs: along random transformation walks,
//! `Transform::find_locations` must offer exactly the candidate locations
//! on which `Transform::apply` succeeds, in the same order, for every
//! transform of the cpu, gpu and snitch libraries.
//!
//! The kernel-suite, transformed-state, indirect-access and data-dependent
//! cases sit beside the finders (`perfdojo-transform`, `finders::tests`).

use perfdojo::prelude::*;
use perfdojo::transform::{BufDimLoc, Loc};
use perfdojo_fuzz::{gen_program, library_by_name, GenConfig};
use perfdojo_ir::Node;
use perfdojo_util::rng::Rng;

/// Every location of every kind in `p`, in the finders' order: each node in
/// pre-order; each (scope, split index), one index past the last child
/// included; each buffer dimension, one past the last included; each
/// buffer.
fn candidates(p: &Program) -> Vec<Loc> {
    let mut nodes = Vec::new();
    let mut splits = Vec::new();
    perfdojo_ir::path::walk(&p.roots, &mut |path, node, _| {
        nodes.push(Loc::Node(path.clone()));
        if let Node::Scope(s) = node {
            splits.extend((0..=s.children.len()).map(|at| Loc::NodeAt(path.clone(), at)));
        }
    });
    let dims = p.buffers.iter().flat_map(|b| {
        (0..=b.dims.len()).map(|dim| {
            Loc::BufferDim(BufDimLoc {
                buffer: b.name.clone(),
                dim,
            })
        })
    });
    let buffers = p.buffers.iter().map(|b| Loc::Buffer(b.name.clone()));
    nodes
        .into_iter()
        .chain(splits)
        .chain(dims)
        .chain(buffers)
        .collect()
}

/// One line per transform of `lib` whose offered locations differ from the
/// candidates `apply` accepts.
fn disagreements(p: &Program, lib: &TransformLibrary) -> Vec<String> {
    let cands = candidates(p);
    lib.transforms
        .iter()
        .filter_map(|t| {
            let accepted: Vec<Loc> = cands
                .iter()
                .filter(|loc| t.apply(p, loc).is_ok())
                .cloned()
                .collect();
            let found = t.find_locations(p);
            (found != accepted)
                .then(|| format!("{t}: offers {found:?}, apply accepts {accepted:?}"))
        })
        .collect()
}

#[test]
fn fuzz_programs_offer_exactly_what_apply_accepts() {
    let cfg = GenConfig::default();
    let mut states = 0;
    for (i, name) in ["cpu", "gpu", "snitch"].into_iter().enumerate() {
        let lib = library_by_name(name).unwrap();
        for seed in 0..24u64 {
            let seed = seed + 1000 * i as u64;
            let mut rng = Rng::seed_from_u64(seed);
            let mut cur = gen_program(&mut rng, &cfg, &format!("f{seed}"));
            for step in 0..8 {
                let bad = disagreements(&cur, &lib);
                assert!(
                    bad.is_empty(),
                    "{name} seed {seed} step {step}:\n{cur}\n{}",
                    bad.join("\n")
                );
                states += 1;
                let actions = available_actions(&cur, &lib);
                let Some(a) = rng.choose(&actions) else { break };
                cur = a.apply(&cur).unwrap();
            }
        }
    }
    assert!(states > 500, "walks too short: {states} states");
}
