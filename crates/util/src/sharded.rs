//! Sharded snapshot publication: a read-mostly slot holding an immutable
//! `Arc<T>` behind N independent `RwLock` shards.
//!
//! The serving tier's problem shape: many reader threads resolve queries
//! against a large immutable snapshot (a schedule library index) while a
//! background writer occasionally publishes a replacement. A single
//! `RwLock<Arc<T>>` makes every reader contend on one cache line; a
//! plain sharded *map* updated shard-by-shard lets a reader observe half
//! an update. [`ShardedSlot`] splits the difference: every shard holds a
//! clone of the *same* `Arc<T>`, a reader touches exactly one shard
//! (picked by a caller-supplied hint such as a query hash or thread id),
//! and a publish rewrites the shards one at a time.
//!
//! The invariants that make this safe, and that the serving stress tests
//! pin down:
//!
//! - a reader's single `read` returns one `Arc` — it sees the *entire*
//!   old snapshot or the *entire* new one, never a torn mixture, because
//!   snapshots themselves are immutable;
//! - publishes are serialized by an internal mutex, so two concurrent
//!   writers cannot interleave their shard sweeps (no lost updates:
//!   after publish A then B, every shard holds B);
//! - readers are never blocked on snapshot *construction* — building the
//!   new `T` happens entirely off-lock; the write locks are held only
//!   for the pointer swap.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A read-mostly slot for immutable snapshots, sharded to keep reader
/// lock traffic spread across cache lines.
#[derive(Debug)]
pub struct ShardedSlot<T> {
    shards: Vec<RwLock<Arc<T>>>,
    /// Serializes publishes (readers never take this).
    publish_lock: Mutex<()>,
    /// Number of publishes so far; the initial snapshot is generation 0.
    generation: AtomicU64,
}

impl<T> ShardedSlot<T> {
    /// A slot over `shards` lock shards (clamped to at least 1), all
    /// initially holding `initial`.
    pub fn new(initial: T, shards: usize) -> ShardedSlot<T> {
        ShardedSlot::from_arc(Arc::new(initial), shards)
    }

    /// As [`ShardedSlot::new`], for an already-shared snapshot.
    pub fn from_arc(initial: Arc<T>, shards: usize) -> ShardedSlot<T> {
        let n = shards.max(1);
        ShardedSlot {
            shards: (0..n).map(|_| RwLock::new(Arc::clone(&initial))).collect(),
            publish_lock: Mutex::new(()),
            generation: AtomicU64::new(0),
        }
    }

    /// Number of lock shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of publishes performed so far.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The current snapshot, read through the shard picked by `hint`
    /// (any well-spread value: a query hash, a thread index). The lock is
    /// held only long enough to clone the `Arc`.
    ///
    /// Every read returns some complete snapshot. While a publish sweep
    /// is mid-flight, reads through *different* shards may briefly
    /// disagree about which one; reads through a single shard (a fixed
    /// hint) are monotone in publish order.
    pub fn read(&self, hint: u64) -> Arc<T> {
        let i = (hint % self.shards.len() as u64) as usize;
        Arc::clone(&self.shards[i].read().expect("sharded slot poisoned"))
    }

    /// Publish `next` as the new snapshot and return its generation
    /// number. Concurrent publishes are serialized; concurrent readers
    /// each keep seeing some complete snapshot throughout.
    pub fn publish(&self, next: Arc<T>) -> u64 {
        let _guard = self.publish_lock.lock().expect("publish lock poisoned");
        for shard in &self.shards {
            *shard.write().expect("sharded slot poisoned") = Arc::clone(&next);
        }
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_returns_initial_from_every_shard() {
        let slot = ShardedSlot::new(7usize, 4);
        assert_eq!(slot.shards(), 4);
        assert_eq!(slot.generation(), 0);
        for hint in 0..16 {
            assert_eq!(*slot.read(hint), 7);
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let slot = ShardedSlot::new("x", 0);
        assert_eq!(slot.shards(), 1);
        assert_eq!(*slot.read(123), "x");
    }

    #[test]
    fn publish_replaces_every_shard_and_bumps_generation() {
        let slot = ShardedSlot::new(0u32, 3);
        assert_eq!(slot.publish(Arc::new(1)), 1);
        assert_eq!(slot.publish(Arc::new(2)), 2);
        assert_eq!(slot.generation(), 2);
        for hint in 0..9 {
            assert_eq!(*slot.read(hint), 2, "shard {} kept a stale snapshot", hint % 3);
        }
    }

    #[test]
    fn concurrent_readers_see_monotone_complete_snapshots() {
        // Snapshots are (generation, payload) pairs where payload is a
        // function of generation; a torn or stale-mixture read would
        // break the payload check, a lost update would break monotonicity.
        // Every role gets its own thread, so the writer races the readers
        // whatever the core count.
        let slot = ShardedSlot::new((0u64, 0u64), 8);
        const SWAPS: u64 = 50;
        const READERS: u64 = 6;
        let logs: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let slot = &slot;
            scope.spawn(move || {
                for g in 1..=SWAPS {
                    slot.publish(Arc::new((g, g * 31)));
                }
            });
            let readers: Vec<_> = (1..=READERS)
                .map(|role| {
                    scope.spawn(move || {
                        let mut seen = Vec::new();
                        for i in 0..400u64 {
                            // spread hints: never torn, whichever shard serves
                            let snap = slot.read(i.wrapping_mul(0x9E37_79B9) + role);
                            assert_eq!(snap.1, snap.0 * 31, "torn snapshot");
                            // pinned hint: a single shard must be monotone
                            seen.push(slot.read(role).0);
                        }
                        seen
                    })
                })
                .collect();
            readers.into_iter().map(|h| h.join().expect("reader panicked")).collect()
        });
        for log in &logs {
            assert!(log.windows(2).all(|w| w[0] <= w[1]), "pinned shard went backward");
        }
        // after the writer finishes, everyone sees the final publish
        assert_eq!(slot.read(0).0, SWAPS);
        assert_eq!(slot.generation(), SWAPS);
    }
}
