//! Scoped-thread data parallelism over `std::thread` — no runtime, no
//! global pool, no registry dependency.
//!
//! [`par_map`] fans independent work items across the machine's cores with
//! a shared atomic cursor (dynamic load balancing, like rayon's work
//! stealing at the granularity that matters for coarse items such as
//! per-kernel tuning runs). Results come back **in input order**, and a
//! panic in any worker propagates to the caller when the scope joins.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Independent cores the pool can use, as [`std::thread::available_parallelism`]
/// reports (4 when the query fails). This is exactly what [`par_map`] spawns
/// against, so callers deciding between a thread fan-out and a plain loop —
/// and benchmarks reporting the parallelism they ran under — see the same
/// number the pool does.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

/// Number of worker threads for `n` items: every core, capped by `n`.
fn workers_for(n: usize) -> usize {
    cores().min(n).max(1)
}

/// Apply `f` to every item on a scoped thread pool; results in input order.
///
/// Items are claimed one at a time from a shared cursor, so uneven
/// per-item cost (a slow kernel next to a fast one) balances naturally.
/// Falls back to a plain sequential map for zero or one item.
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    if n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers_for(n) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i].lock().unwrap().take().expect("slot claimed once");
                let r = f(item);
                *out[i].lock().unwrap() = Some(r);
            });
        }
    });
    out.into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        let xs: Vec<usize> = (0..100).collect();
        let ys = par_map(xs, |x| x * 3);
        assert_eq!(ys, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let count = AtomicUsize::new(0);
        par_map((0..257).collect::<Vec<i32>>(), |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.into_inner(), 257);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(par_map(Vec::<u8>::new(), |x| x), Vec::<u8>::new());
        assert_eq!(par_map(vec![5], |x| x + 1), vec![6]);
    }

    #[test]
    fn actually_uses_multiple_threads() {
        if workers_for(64) < 2 {
            return; // single-core CI: nothing to assert
        }
        let ids = Mutex::new(std::collections::HashSet::new());
        par_map((0..64).collect::<Vec<i32>>(), |_| {
            // small sleep so the pool has a chance to spread the work
            std::thread::sleep(std::time::Duration::from_millis(2));
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        assert!(ids.into_inner().unwrap().len() >= 2);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panic_propagates() {
        par_map(vec![1, 2, 3], |x| {
            if x == 2 {
                panic!("worker panic bubbles");
            }
            x
        });
    }
}
