//! Graph blocks as library entries: after `build_graphs_into`, a block
//! record answers its graph's subgraph signature through
//! `Library::lookup_cached`, the lookup `perfdojo-lib graph-query` runs.

use perfdojo_core::Target;
use perfdojo_graph::{build_graphs_into, compose, subgraph_sig, suite, KernelGraph};
use perfdojo_library::{DispatchResult, Disposition, Library, LibraryBuilder, Strategy};

/// A library holding the per-node kernels of `ffn(8, 8, 16)`, tuned, so
/// block tuning inherits per-node schedules.
fn per_node_tuned_library(target: &Target) -> Library {
    let g = suite::ffn(8, 8, 16).unwrap();
    let kernels: Vec<perfdojo_kernels::KernelInstance> = g
        .nodes()
        .iter()
        .map(|n| perfdojo_kernels::KernelInstance::at(&n.label, &n.dims, n.program.clone()))
        .collect();
    let mut lib = Library::new();
    LibraryBuilder::new(Strategy::Heuristic, 7).build_into(
        &mut lib,
        &kernels,
        std::slice::from_ref(target),
    );
    lib
}

/// What `graph-query` looks up for `g`: its subgraph signature against its
/// composed program.
fn block_lookup(lib: &Library, g: &KernelGraph, target: &Target) -> Option<DispatchResult> {
    let sig = subgraph_sig(g, &target.name).unwrap();
    lib.lookup_cached(&sig, &compose(g).unwrap().program, target)
}

#[test]
fn graph_build_gives_exact_hits_and_pins_other_shapes() {
    let target = Target::x86();
    let mut lib = per_node_tuned_library(&target);
    let graphs = [suite::ffn(8, 8, 16).unwrap(), suite::attention(8, 8).unwrap()];
    let (_, outcomes) = build_graphs_into(&mut lib, &graphs, &target, Strategy::Heuristic, 3);
    assert!(outcomes.iter().all(|o| o.error.is_none()));
    assert!(
        outcomes.iter().all(|o| o.record.is_some()),
        "ffn and attention blocks must tune: {:?}",
        outcomes.iter().map(|o| (&o.graph, o.record.is_some())).collect::<Vec<_>>()
    );

    // each built shape answers from its own record
    for (g, o) in graphs.iter().zip(&outcomes) {
        let hit = block_lookup(&lib, g, &target).expect("a built block must hit");
        assert_eq!(hit.disposition, Disposition::ExactHit, "{}", g.name);
        assert_eq!(hit.cost.to_bits(), o.cost.to_bits(), "{}", g.name);
    }

    // a different shape of the same pipeline replays the ffn block record
    // leniently from the nearest tier: one of its steps does not apply
    let other = suite::ffn(16, 16, 32).unwrap();
    let r = block_lookup(&lib, &other, &target).expect("the ffn record must serve ffn(16,16,32)");
    let (built, asked) = (&outcomes[0].sig, subgraph_sig(&other, &target.name).unwrap());
    let distance = asked.shape_distance(built).unwrap();
    assert_eq!(
        r.disposition,
        Disposition::FallbackReplay { from: built.key(), distance, skipped: 1 }
    );
    assert_eq!(r.steps.len(), 2);
    assert_eq!((r.cost, r.naive_cost), (6.800952380952381e-6, 4.043428571428571e-5));
}
