//! Bounded least-recently-used cache with O(1) get/insert.
//!
//! Backing structure: a slab of entries threaded through an intrusive
//! doubly-linked list (indices, not pointers) plus a `HashMap` from key to
//! slab slot. `get` promotes the entry to most-recently-used; `insert`
//! evicts the list tail when the cache is at capacity, reusing the evicted
//! slot in place. No unsafe, no registry dependency — the workspace is
//! hermetic by policy.
//!
//! The primary consumer is the Dojo's fingerprint-keyed cost cache
//! (`perfdojo-core`), where a search strategy revisits the same program
//! many times and each miss costs a full lower + analytical-cost pass.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Clone, Debug)]
struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A bounded LRU map.
#[derive(Clone, Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Entry<K, V>>,
    /// Most-recently-used slot.
    head: usize,
    /// Least-recently-used slot (evicted first).
    tail: usize,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LruCache {
            map: HashMap::with_capacity(capacity.min(4096)),
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Unlink `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slab[slot].prev, self.slab[slot].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
    }

    /// Link `slot` in as the most-recently-used entry.
    fn push_front(&mut self, slot: usize) {
        self.slab[slot].prev = NIL;
        self.slab[slot].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Look up `key`, promoting it to most-recently-used on a hit. As with
    /// `HashMap::get`, the probe may be any borrowed form of the key (a
    /// `&str` for `String` keys), so a lookup need not allocate.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = *self.map.get(key)?;
        if slot != self.head {
            self.unlink(slot);
            self.push_front(slot);
        }
        Some(&self.slab[slot].value)
    }

    /// Look up `key` without disturbing recency (for inspection/tests).
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get(key).map(|&slot| &self.slab[slot].value)
    }

    /// Insert or overwrite `key`, evicting the least-recently-used entry
    /// when at capacity. Returns the evicted `(key, value)`, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&slot) = self.map.get(&key) {
            self.slab[slot].value = value;
            if slot != self.head {
                self.unlink(slot);
                self.push_front(slot);
            }
            return None;
        }
        if self.map.len() >= self.capacity {
            // reuse the evicted tail slot in place
            let victim = self.tail;
            self.unlink(victim);
            let old = std::mem::replace(
                &mut self.slab[victim],
                Entry { key: key.clone(), value, prev: NIL, next: NIL },
            );
            self.map.remove(&old.key);
            self.map.insert(key, victim);
            self.push_front(victim);
            Some((old.key, old.value))
        } else {
            self.slab.push(Entry { key: key.clone(), value, prev: NIL, next: NIL });
            let slot = self.slab.len() - 1;
            self.map.insert(key, slot);
            self.push_front(slot);
            None
        }
    }

    /// Drop every entry, keeping the map allocation.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Keys from most- to least-recently used (test/debug helper).
    pub fn keys_by_recency(&self) -> Vec<&K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut at = self.head;
        while at != NIL {
            out.push(&self.slab[at].key);
            at = self.slab[at].next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_hits_and_misses() {
        let mut c = LruCache::new(4);
        assert!(c.is_empty());
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"z"), None);
        assert_eq!(c.len(), 2);
        assert_eq!(c.capacity(), 4);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        // touch "a" so "b" becomes LRU
        assert_eq!(c.get(&"a"), Some(&1));
        let evicted = c.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn overwrite_refreshes_recency_without_eviction() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert!(c.insert("a", 10).is_none());
        assert_eq!(c.keys_by_recency(), vec![&"a", &"b"]);
        // "b" is now LRU and gets evicted next
        assert_eq!(c.insert("c", 3).map(|e| e.0), Some("b"));
        assert_eq!(c.get(&"a"), Some(&10));
    }

    #[test]
    fn capacity_one_churns_correctly() {
        let mut c = LruCache::new(1);
        for i in 0..100 {
            c.insert(i, i * 2);
            assert_eq!(c.len(), 1);
            assert_eq!(c.get(&i), Some(&(i * 2)));
            if i > 0 {
                assert_eq!(c.get(&(i - 1)), None);
            }
        }
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut c = LruCache::new(0);
        assert_eq!(c.capacity(), 1);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn recycled_slots_stay_consistent() {
        // long churn through a small cache: every lookup must stay exact
        let mut c = LruCache::new(8);
        for i in 0u64..1000 {
            c.insert(i, i + 7);
            assert!(c.len() <= 8);
        }
        for i in 992..1000 {
            assert_eq!(c.peek(&i), Some(&(i + 7)));
        }
        assert_eq!(c.keys_by_recency().len(), 8);
        // recency order is exactly newest-first
        let keys: Vec<u64> = c.keys_by_recency().into_iter().copied().collect();
        assert_eq!(keys, (992..1000).rev().collect::<Vec<_>>());
    }

    #[test]
    fn owned_keys_are_probed_by_borrowed_form() {
        let mut c: LruCache<String, u32> = LruCache::new(2);
        c.insert("a".to_string(), 1);
        c.insert("b".to_string(), 2);
        assert_eq!(c.peek("a"), Some(&1));
        assert_eq!(c.keys_by_recency(), vec!["b", "a"], "peek must not promote");
        assert_eq!(c.get("a"), Some(&1));
        assert_eq!(c.keys_by_recency(), vec!["a", "b"], "get promotes");
        assert_eq!(c.get("z"), None);
        // the borrowed probe sees the same slot an owned key would
        c.insert("c".to_string(), 3);
        assert_eq!(c.get("b"), None);
        assert_eq!(c.get(&"c".to_string()), Some(&3));
    }

    #[test]
    fn clear_empties() {
        let mut c = LruCache::new(4);
        c.insert(1, 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
        c.insert(2, 2);
        assert_eq!(c.get(&2), Some(&2));
    }
}
