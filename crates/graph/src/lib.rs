//! # Graph tier: multi-kernel pipelines over suite kernels
//!
//! Everything below `perfdojo-graph` tunes and serves *single* kernels; the
//! paper's library-generation story (and any real inference stack) is about
//! graphs — attention is matmul→softmax→matmul, an FFN is
//! matmul→relu→matmul, a transformer layer chains a dozen suite kernels.
//! This crate adds that tier:
//!
//! - [`graph`] — the [`KernelGraph`] IR: suite-kernel nodes connected by
//!   tensor edges (sequences and small DAGs), with an insertion-order
//!   *invariant* canonical topological order.
//! - [`compose`] — splicing the node programs into one composed program
//!   with explicit edge buffers (the per-node interfaces become internal
//!   temporaries, which is what unlocks the layout/fusion transformations).
//! - [`exec`] — a deterministic graph executor running each node through
//!   the reference interpreter, one at a time in canonical topological
//!   order.
//! - [`oracle`] — the differential oracle: every graph execution is checked
//!   against the composed single-kernel reference under the fuzz
//!   subsystem's two-tier bit-exact/ULP policy.
//! - [`actions`] — inter-kernel decisions as first-class actions:
//!   per-edge layout choice (row/col-major materialization via `swap_dims`)
//!   and adjacent fusion into the producer's schedule (`join_scopes` +
//!   `reuse_dims`), lowered to ordinary [`perfdojo_transform::Action`]s so
//!   the existing replay/serve machinery applies unchanged.
//! - [`cost`] — the graph-level cost model: sum of per-node dispatch costs
//!   plus edge-materialization cost (the per-node baseline that block-level
//!   tuning must beat).
//! - [`fingerprint`] — the structural subgraph fingerprint (per-node
//!   shape-normalized structure hashes + edge topology) that keys whole
//!   blocks in `perfdojo-library` via [`perfdojo_library::KernelSig::subgraph`].
//! - [`inherit`] — per-node schedule inheritance: every node's
//!   library-dispatched schedule translated into composed coordinates
//!   (root-offset + rename), giving the block tier a starting point that
//!   already matches per-node dispatch quality minus the edge round trips.
//! - [`build`] — block tuning: plan inter-kernel actions greedily, then run
//!   the configured single-kernel strategy on the composed program, and
//!   record the whole block as one replayable schedule record.
//! - [`suite`] — the graph suite: attention block, relu-FFN chain, a full
//!   transformer layer, and HeteroBench-style mixed pipelines.
//! - [`random`] — seeded random pipeline generator for differential smoke
//!   tests (fuzz-style, but over graphs).

pub mod actions;
pub mod build;
pub mod compose;
pub mod cost;
pub mod exec;
pub mod fingerprint;
pub mod graph;
pub mod inherit;
pub mod oracle;
pub mod random;
pub mod suite;

pub use actions::{plan, plan_from, GraphAction, GraphPlan, PlanDecision};
pub use build::{build_graphs_into, tune_graph, GraphTuneOutcome};
pub use compose::{compose, Composed};
pub use cost::{copy_cost, per_node_baseline, BaselineReport};
pub use exec::{execute_graph, GraphRun};
pub use fingerprint::{fingerprint, subgraph_sig};
pub use graph::{GraphEdge, GraphError, GraphNode, KernelGraph};
pub use inherit::{inherit_schedules, Inherited};
pub use oracle::{check_graph, check_transformed, OracleReport};
pub use random::random_graph;
