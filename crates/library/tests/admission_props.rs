//! Property tests for the serving tier's admission and tune-miss queues
//! (`perfdojo_util::proptest_lite`): the bounded queue tracks a reference
//! FIFO model exactly, capacity is never exceeded, drains preserve
//! per-key order, and miss storms collapse to one tune job per key.

use perfdojo_library::{
    AdmissionQueue, Library, ServeConfig, ServeQuery, Server, Strategy, TuneProgress, TuneQueue,
};
use perfdojo_util::proptest_lite::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Regression for the dedupe-forever drain bug: a drain that produces no
/// library entry for a job (here: a zero-budget strategy, so tuning can
/// never find an improving schedule) used to leave the job's key in the
/// tune queue's seen-set, making the shape permanently un-retunable. A
/// completed drain must forget failed keys, so the same miss can enqueue
/// — and a later drain under a working strategy can tune — the shape.
#[test]
fn failed_drain_releases_the_key_for_retuning() {
    let target = perfdojo_core::Target::x86();
    let zero_budget =
        ServeConfig { strategy: Strategy::Anneal { budget: 0 }, ..ServeConfig::default() };
    let server = Server::new(Library::new(), target, zero_budget);
    let q = ServeQuery::of("rmsnorm", &[16, 16]).unwrap();

    assert!(server.lookup_now(&q).tier.is_miss());
    assert_eq!(server.pending_tunes(), 1);
    match server.drain_tunes().unwrap() {
        TuneProgress::Swapped { tuned, unimproved, .. } => {
            assert_eq!((tuned, unimproved), (0, 1), "zero budget cannot produce a record");
        }
        p => panic!("expected a swap, got {p:?}"),
    }

    // the key must be re-enqueueable: before the fix this stayed at 0
    // forever and the shape could never be tuned again
    assert!(server.lookup_now(&q).tier.is_miss());
    assert_eq!(server.pending_tunes(), 1, "failed key must be forgotten on drain completion");
    assert_eq!(server.stats().tune_jobs, 2);

    // successful tunes stay deduplicated: drain under a working strategy,
    // then verify the repeat miss does NOT re-enqueue
    let working = Server::new(Library::new(), perfdojo_core::Target::x86(), ServeConfig::default());
    let q2 = ServeQuery::of("rmsnorm", &[64, 64]).unwrap();
    assert!(working.lookup_now(&q2).tier.is_miss());
    match working.drain_tunes().unwrap() {
        TuneProgress::Swapped { tuned, .. } => assert_eq!(tuned, 1),
        p => panic!("expected a swap, got {p:?}"),
    }
    assert!(!working.lookup_now(&q2).tier.is_miss());
    assert_eq!(working.pending_tunes(), 0);
}

/// The other half of the forget-on-failed-drain contract, previously
/// uncovered: the SAME key failing, being re-enqueued, and then
/// SUCCEEDING on a later drain through the same server. The failed leg
/// uses a zero-budget strategy (provably produces no record); the
/// operator then swaps in a working strategy via `set_strategy` — the
/// retune-with-a-real-budget move — and the identical key must tune,
/// swap in, and return to the deduplicated steady state.
#[test]
fn failed_key_retried_through_same_server_succeeds() {
    let target = perfdojo_core::Target::x86();
    let zero_budget =
        ServeConfig { strategy: Strategy::Anneal { budget: 0 }, ..ServeConfig::default() };
    let mut server = Server::new(Library::new(), target, zero_budget);
    let q = ServeQuery::of("rmsnorm", &[64, 64]).unwrap();

    // leg 1: miss, drain fails (zero budget), key forgotten
    assert!(server.lookup_now(&q).tier.is_miss());
    match server.drain_tunes().unwrap() {
        TuneProgress::Swapped { tuned, unimproved, .. } => {
            assert_eq!((tuned, unimproved), (0, 1));
        }
        p => panic!("expected a swap, got {p:?}"),
    }

    // leg 2: the same key re-enqueues (it was forgotten), and with a
    // working strategy the retry tunes it for real
    assert!(server.lookup_now(&q).tier.is_miss());
    assert_eq!(server.pending_tunes(), 1, "failed key did not re-enqueue");
    server.set_strategy(Strategy::Heuristic);
    match server.drain_tunes().unwrap() {
        TuneProgress::Swapped { tuned, unimproved, .. } => {
            assert_eq!((tuned, unimproved), (1, 0), "retried key did not tune");
        }
        p => panic!("expected a swap, got {p:?}"),
    }

    // leg 3: the key now serves as a hit and stays deduplicated — no
    // ghost job from the failed era lingers, none can be re-enqueued
    assert!(!server.lookup_now(&q).tier.is_miss(), "retried key still missing");
    assert_eq!(server.pending_tunes(), 0);
    assert_eq!(server.stats().tune_jobs, 2, "exactly one job per era");
    assert_eq!(server.stats().tuned, 1);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The queue is observationally equivalent to a bounded `VecDeque`:
    /// same accept/reject decisions, same drain contents, and the length
    /// never exceeds the capacity at any step. Global FIFO equivalence
    /// implies FIFO per key, which the end of the property re-checks
    /// directly on the drained log.
    #[test]
    fn admission_queue_matches_bounded_fifo_model(
        cap in 1usize..6,
        ops in vec((0u8..3, 0u8..4, 1usize..5), 0..48),
    ) {
        let q: AdmissionQueue<u64> = AdmissionQueue::new(cap);
        let mut model: VecDeque<(String, u64)> = VecDeque::new();
        let mut drained: Vec<(String, u64)> = Vec::new();
        let mut next = 0u64;
        for (op, key, n) in ops {
            if op < 2 {
                // enqueue twice as often as we drain: exercises rejection
                let key = format!("k{key}");
                let accepted = q.try_enqueue(key.clone(), next).is_ok();
                prop_assert_eq!(accepted, model.len() < cap, "accept/reject diverged");
                if accepted {
                    model.push_back((key, next));
                }
                next += 1;
            } else {
                let got = q.drain_batch(n);
                let take = n.min(model.len());
                let want: Vec<(String, u64)> = model.drain(..take).collect();
                prop_assert_eq!(&got, &want, "drain order diverged");
                drained.extend(got);
            }
            prop_assert!(q.len() <= cap, "capacity exceeded: {} > {cap}", q.len());
            prop_assert_eq!(q.len(), model.len());
        }
        // FIFO per key: the admitted sequence numbers of each key must
        // come back out strictly increasing
        let mut last: BTreeMap<&str, u64> = BTreeMap::new();
        for (key, seq) in &drained {
            if let Some(prev) = last.insert(key, *seq) {
                prop_assert!(prev < *seq, "key {key}: {prev} drained before {seq}");
            }
        }
    }

    /// A miss storm — any multiset of keys — collapses to exactly one
    /// tune job per distinct key, and a repeat storm of the same keys
    /// yields zero new jobs (drained keys stay deduplicated forever).
    #[test]
    fn miss_storm_collapses_to_one_job_per_key(keys in vec(0u8..6, 1..64)) {
        let t: TuneQueue<u64> = TuneQueue::new();
        let mut admitted = 0usize;
        for (i, k) in keys.iter().enumerate() {
            if t.enqueue_with(&format!("k{k}"), || i as u64) {
                admitted += 1;
            }
        }
        let distinct: BTreeSet<&u8> = keys.iter().collect();
        prop_assert_eq!(admitted, distinct.len());
        let jobs = t.drain();
        prop_assert_eq!(jobs.len(), distinct.len());
        // each key's surviving job is the payload of its FIRST enqueue
        for (key, payload) in &jobs {
            let first = keys
                .iter()
                .position(|k| format!("k{k}") == *key)
                .expect("job key came from the input");
            prop_assert_eq!(*payload, first as u64);
        }
        // the second wave is fully absorbed
        for (i, k) in keys.iter().enumerate() {
            prop_assert!(!t.enqueue_with(&format!("k{k}"), || i as u64));
        }
        prop_assert_eq!(t.pending(), 0);
        prop_assert_eq!(t.seen(), distinct.len());
    }

    /// The tune queue tracks a reference model under interleaved
    /// enqueue / drain / forget: pending counts, drain order, and the
    /// dedupe set all stay in lockstep.
    #[test]
    fn tune_queue_matches_model_with_forget(ops in vec((0u8..4, 0u8..4), 0..48)) {
        let t: TuneQueue<u64> = TuneQueue::new();
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut pending: Vec<String> = Vec::new();
        let mut next = 0u64;
        for (op, key) in ops {
            let key = format!("k{key}");
            match op {
                0 | 1 => {
                    let admitted = t.enqueue_with(&key, || next);
                    prop_assert_eq!(admitted, seen.insert(key.clone()));
                    if admitted {
                        pending.push(key);
                    }
                    next += 1;
                }
                2 => {
                    let got: Vec<String> = t.drain().into_iter().map(|(k, _)| k).collect();
                    prop_assert_eq!(&got, &pending, "drain order diverged");
                    pending.clear();
                }
                _ => {
                    t.forget(&key);
                    seen.remove(&key);
                    pending.retain(|k| k != &key);
                }
            }
            prop_assert_eq!(t.pending(), pending.len());
            prop_assert_eq!(t.seen(), seen.len());
        }
    }
}
