//! The random-graph differential smoke: seeded random graphs run through
//! the full differential oracle — per-node executor vs composed
//! interpreter reference — at pinned seeds, the same seeds ci.sh gate 9
//! replays through the CLI.

use perfdojo_graph::random_graph;

#[test]
fn random_graph_differential_smoke_at_pinned_seeds() {
    // pinned: the same seeds `perfdojo-lib graph-check --seed 0 --count 12`
    // replays in ci.sh gate 9
    for seed in 0..12u64 {
        let g = random_graph(seed);
        let report = perfdojo_graph::check_graph(&g, seed)
            .unwrap_or_else(|e| panic!("seed {seed} ({}): {e}", g.name));
        assert!(report.checked_outputs >= 1, "seed {seed}: nothing compared");
    }
}
