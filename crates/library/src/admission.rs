//! Query admission and tune-miss queues for the serving tier.
//!
//! Two small thread-safe queues with sharply different contracts:
//!
//! - [`AdmissionQueue`] — the front door. Incoming queries wait here until
//!   a serving batch drains them. The queue is **bounded** (a daemon that
//!   buffers unboundedly under overload just trades latency for an OOM
//!   kill): at capacity, [`AdmissionQueue::try_enqueue`] rejects and the
//!   caller sheds load. Draining preserves global FIFO order — and
//!   therefore FIFO *per key*, which is what replay-based testing needs:
//!   the same query log admitted in the same order resolves identically.
//! - [`TuneQueue`] — the back door. Queries that missed every cached tier
//!   become tune jobs for the background builder. Jobs **dedupe by key**:
//!   a shape missed by a thousand concurrent queries must be tuned once,
//!   not a thousand times, and a key that was already drained (its tune is
//!   running or finished) is not re-admitted either.
//!
//! Both queues are `Mutex`-protected interior-mutability types: `&self`
//! methods, shareable across serving threads without wrapper locks.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Mutex;

/// Why an enqueue was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The queue is at capacity; shed the query.
    Full,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Full => write!(f, "admission queue full"),
        }
    }
}

/// A bounded FIFO queue of keyed work items.
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    inner: Mutex<VecDeque<(String, T)>>,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` items (clamped to at least 1).
    pub fn new(capacity: usize) -> AdmissionQueue<T> {
        AdmissionQueue { inner: Mutex::new(VecDeque::new()), capacity: capacity.max(1) }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently waiting.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("admission queue poisoned").len()
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admit one item, or reject it when the queue is at capacity.
    pub fn try_enqueue(&self, key: String, item: T) -> Result<(), AdmissionError> {
        let mut q = self.inner.lock().expect("admission queue poisoned");
        if q.len() >= self.capacity {
            return Err(AdmissionError::Full);
        }
        q.push_back((key, item));
        Ok(())
    }

    /// Remove and return up to `max` items in admission order.
    pub fn drain_batch(&self, max: usize) -> Vec<(String, T)> {
        let mut q = self.inner.lock().expect("admission queue poisoned");
        let n = max.min(q.len());
        q.drain(..n).collect()
    }
}

/// A deduplicating FIFO of pending tune jobs.
///
/// `T` is the job payload (everything the background builder needs to
/// reconstruct and tune the missed kernel). Keys stay in the seen-set
/// after their job is drained, so later enqueues of the same key are
/// no-ops — a "miss storm" costs one build. A key is only released by
/// [`TuneQueue::forget`]: the serving tier calls it for jobs whose drain
/// produced no library entry (zero budget, strategy error, or no
/// improving schedule), so those shapes stay re-tunable instead of being
/// deduped forever.
#[derive(Debug, Default)]
pub struct TuneQueue<T> {
    inner: Mutex<TuneQueueState<T>>,
}

#[derive(Debug)]
struct TuneQueueState<T> {
    pending: VecDeque<(String, T)>,
    seen: BTreeSet<String>,
}

impl<T> Default for TuneQueueState<T> {
    fn default() -> Self {
        TuneQueueState { pending: VecDeque::new(), seen: BTreeSet::new() }
    }
}

impl<T> TuneQueue<T> {
    /// An empty queue.
    pub fn new() -> TuneQueue<T> {
        TuneQueue { inner: Mutex::new(TuneQueueState::default()) }
    }

    /// Jobs waiting to be drained.
    pub fn pending(&self) -> usize {
        self.inner.lock().expect("tune queue poisoned").pending.len()
    }

    /// Distinct keys ever enqueued (pending + drained).
    pub fn seen(&self) -> usize {
        self.inner.lock().expect("tune queue poisoned").seen.len()
    }

    /// Enqueue a job for `key` unless that key was ever enqueued before.
    /// Returns `true` when the job was actually admitted. The job is built
    /// by `job` under the queue lock, and only when `key` is new: a
    /// repeated miss allocates nothing.
    pub fn enqueue_with(&self, key: &str, job: impl FnOnce() -> T) -> bool {
        let mut st = self.inner.lock().expect("tune queue poisoned");
        if st.seen.contains(key) {
            return false;
        }
        st.seen.insert(key.to_string());
        st.pending.push_back((key.to_string(), job()));
        true
    }

    /// Remove and return every pending job in enqueue order.
    pub fn drain(&self) -> Vec<(String, T)> {
        let mut st = self.inner.lock().expect("tune queue poisoned");
        st.pending.drain(..).collect()
    }

    /// Forget `key`, re-allowing a future enqueue. A drain forgets the key
    /// of every job that produced no record, so the next miss queues it
    /// again; a failed job is deterministic, and the drain decides whether
    /// its input changed enough to run it again.
    pub fn forget(&self, key: &str) {
        let mut st = self.inner.lock().expect("tune queue poisoned");
        st.seen.remove(key);
        st.pending.retain(|(k, _)| k != key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_is_fifo_and_bounded() {
        let q = AdmissionQueue::new(3);
        assert_eq!(q.capacity(), 3);
        q.try_enqueue("a".into(), 1).unwrap();
        q.try_enqueue("b".into(), 2).unwrap();
        q.try_enqueue("a".into(), 3).unwrap();
        assert_eq!(q.try_enqueue("c".into(), 4), Err(AdmissionError::Full));
        assert_eq!(q.len(), 3);
        let batch = q.drain_batch(2);
        assert_eq!(batch, vec![("a".into(), 1), ("b".into(), 2)]);
        // capacity freed by the drain is usable again
        q.try_enqueue("c".into(), 4).unwrap();
        assert_eq!(q.drain_batch(10), vec![("a".into(), 3), ("c".into(), 4)]);
        assert!(q.is_empty());
    }

    #[test]
    fn admission_capacity_clamps_to_one() {
        let q = AdmissionQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_enqueue("k".into(), ()).unwrap();
        assert_eq!(q.try_enqueue("k".into(), ()), Err(AdmissionError::Full));
    }

    #[test]
    fn tune_queue_dedupes_by_key_forever() {
        let t = TuneQueue::new();
        assert!(t.enqueue_with("softmax|64x64", || 1));
        assert!(!t.enqueue_with("softmax|64x64", || 2), "duplicate key admitted");
        assert!(t.enqueue_with("matmul|48", || 3));
        assert_eq!(t.pending(), 2);
        assert_eq!(t.seen(), 2);
        let jobs = t.drain();
        assert_eq!(jobs, vec![("softmax|64x64".into(), 1), ("matmul|48".into(), 3)]);
        // drained keys stay deduped
        assert!(!t.enqueue_with("softmax|64x64", || 4));
        assert_eq!(t.pending(), 0);
        assert_eq!(t.seen(), 2);
    }

    #[test]
    fn tune_queue_forget_reopens_a_key() {
        let t = TuneQueue::new();
        assert!(t.enqueue_with("k", || 1));
        t.drain();
        assert!(!t.enqueue_with("k", || 2));
        t.forget("k");
        assert!(t.enqueue_with("k", || 3));
        assert_eq!(t.drain(), vec![("k".into(), 3)]);
    }

    #[test]
    fn tune_queue_builds_a_job_only_for_a_new_key() {
        let t = TuneQueue::new();
        assert!(t.enqueue_with("k", || 1));
        assert!(!t.enqueue_with("k", || unreachable!("a seen key built its job")));
        t.drain();
        assert!(!t.enqueue_with("k", || unreachable!("a drained key built its job")));
        t.forget("k");
        assert!(t.enqueue_with("k", || 2));
        assert_eq!(t.drain(), vec![("k".into(), 2)]);
    }
}
