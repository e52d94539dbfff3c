//! `perfdojo-util`: the hermetic, std-only support library of the workspace.
//!
//! PerfDojo's central guarantee — every offered transformation preserves
//! program semantics — is only as trustworthy as the harness that checks it.
//! This crate keeps that harness hermetic: no registry dependencies, fully
//! deterministic under explicit seeds, reproducible on any machine with a
//! Rust toolchain and no network.
//!
//! Modules:
//!
//! * [`args`] — the one command-line grammar of the workspace's binaries:
//!   declared switches and value flags, parsed in one pass with typed
//!   getters;
//! * [`rng`] — seedable SplitMix64/xoshiro256++ PRNG with range sampling,
//!   shuffling, choosing and Gaussian draws (replaces `rand`);
//! * [`par`] — scoped-thread parallel map / for-each (replaces `rayon`);
//! * [`lru`] — bounded O(1) least-recently-used cache (replaces `lru`);
//! * [`proptest_lite`] — a small property-testing harness with strategies,
//!   seed reporting and shrink-by-halving (replaces `proptest`);
//! * [`trace`] — a clock-free JSONL telemetry sink with atomic saves and
//!   bit-exact float codecs (the substrate of checkpoint/resume);
//! * [`claim`] — non-blocking exclusive OS locks on lock files: a job is
//!   owned exactly while its owner's process holds the lock;
//! * [`zipf`] — Zipf-distributed rank sampling for skewed load
//!   generation.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod claim;
pub mod lru;
pub mod par;
pub mod proptest_lite;
pub mod rng;
pub mod trace;
pub mod zipf;
