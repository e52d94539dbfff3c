//! Persistent autotuned kernel schedule library (the "ML library" PerfDojo
//! generates, paper §1/§3.5): tuned transformation schedules keyed by
//! canonical kernel signature, persisted in a versioned zero-dependency
//! text format, built concurrently across a kernel suite × target grid, and
//! served through exact-match + nearest-shape fallback dispatch.
//!
//! The pieces:
//!
//! - [`sig::KernelSig`] — canonical identity: shape-normalized structural
//!   fingerprint + shapes + dtype + target, with a parseable textual key.
//! - [`format`] — the on-disk format: replayable edit sequences, predicted
//!   costs as exact bit patterns, machine-model version, provenance;
//!   atomic saves, corrupt-block-tolerant loads.
//! - [`library::Library`] — the keep-best map, with version-checked merge,
//!   gc, stats, and nearest-shape search.
//! - [`builder::LibraryBuilder`] — the concurrent, deterministic tuning
//!   driver over `perfdojo_util::par`; `build_into_checkpointed` is the
//!   crash-safe sequential variant that persists per-job progress.
//! - [`checkpoint::BuildCheckpoint`] — the on-disk checkpoint directory
//!   (done-job list, partial library, in-flight search state, event log).
//! - [`dispatch`] — `Library::lookup`: exact hit → parameterized →
//!   fallback replay → heuristic pass → naive, every served schedule
//!   re-validated and (when small enough) numerically verified.
//! - [`transfer`] — cross-shape generalization: per kernel-family
//!   parameterized schedules fit over tuned records, materialized for any
//!   query shape; feeds the parameterized dispatch tier and warm-starts
//!   tune-miss / fleet searches.
//! - [`fleet`] — the distributed, preemptible tuning fleet: a
//!   filesystem-coordinated job manifest whose jobs are owned through OS
//!   file locks and finished by hash-checked parts, with deterministic
//!   lattice-join merging and a seeded fault-injection plan for
//!   replayable crash tests.
//! - [`admission`] — the serving tier's bounded query queue and
//!   deduplicating tune-miss queue.
//! - [`serve::Server`] — the concurrent schedule-serving daemon core:
//!   one shared snapshot behind an `RwLock`, batched admission,
//!   background tune-miss drains with atomic hot swap, and a reply memo
//!   per snapshot.
//!
//! The `perfdojo-lib` binary exposes `build` / `query` / `stats` / `gc` /
//! `serve` over libraries on disk.

pub mod admission;
pub mod builder;
pub mod checkpoint;
pub mod dispatch;
pub mod fleet;
pub mod format;
pub mod library;
pub mod serve;
pub mod sig;
pub mod transfer;

pub use admission::{AdmissionError, AdmissionQueue, TuneQueue};
pub use builder::{
    target_by_name, BuildProgress, FailureMemo, LibraryBuilder, Strategy, TuneOutcome,
};
pub use checkpoint::BuildCheckpoint;
pub use dispatch::{dispatch_stats, DispatchResult, DispatchStats, Disposition};
pub use fleet::{
    join, join_libraries, run_fleet, run_worker, FaultKind, FaultPlan, FaultSite, FleetDir,
    FleetJob, FleetRunReport, FleetStatus, MergeOutcome, WorkerConfig, WorkerExit, WorkerReport,
};
pub use format::{FormatError, LoadStats, Provenance, ScheduleRecord};
pub use library::{current_model_version, Library, LibraryStats, MergeReport};
pub use serve::{
    latency_units, percentile, HitTier, ServeConfig, ServeQuery, ServeReply, ServeSnapshot,
    ServeStats, Server, TuneJob, TuneProgress,
};
pub use sig::KernelSig;
pub use transfer::{
    fit_family, fit_for, ParamFn, ParamSchedule, ParamStep, RESIDUAL_LIMIT,
};
