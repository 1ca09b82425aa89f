//! A small, deterministic, bounded LRU map.
//!
//! Backing store is a plain `Vec` in recency order (front = least
//! recently used, back = most). Operations are `O(len)`, which is the
//! right trade for a solve cache: capacities are in the hundreds, and a
//! linear scan of 16-byte keys is cheaper than the pointer chasing of a
//! linked-list LRU — while keeping the eviction order trivially
//! deterministic (always the front element, ties impossible).

/// A bounded least-recently-used map with deterministic eviction order.
#[derive(Debug, Clone)]
pub struct Lru<K, V> {
    capacity: usize,
    /// Recency order: `entries[0]` is evicted next, `entries.last()` was
    /// touched most recently.
    entries: Vec<(K, V)>,
}

impl<K: Eq + Copy, V> Lru<K, V> {
    /// An empty cache holding at most `capacity` entries. A capacity of
    /// zero disables caching: every insert is immediately evicted.
    pub fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            entries: Vec::with_capacity(capacity.min(1024)),
        }
    }

    /// Number of cached entries (always `<= capacity`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key` and promotes it to most-recently-used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(pos);
        self.entries.push(entry);
        self.entries.last().map(|(_, v)| v)
    }

    /// Looks up `key` without touching recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Inserts (or replaces) `key`, making it most-recently-used, and
    /// returns the entry this pushed out, if any: the previous value
    /// under the same key, or the least-recently-used entry when the
    /// cache was full.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return Some((key, value));
        }
        let replaced = self
            .entries
            .iter()
            .position(|(k, _)| *k == key)
            .map(|pos| self.entries.remove(pos));
        self.entries.push((key, value));
        if let Some(old) = replaced {
            return Some(old);
        }
        if self.entries.len() > self.capacity {
            return Some(self.entries.remove(0));
        }
        None
    }

    /// Keys in eviction order (least-recently-used first).
    pub fn keys(&self) -> Vec<K> {
        self.entries.iter().map(|(k, _)| *k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_bound_holds_under_churn() {
        let mut lru = Lru::new(3);
        for i in 0..100u32 {
            let evicted = lru.insert(i, i * 10);
            assert!(lru.len() <= 3, "len {} exceeds capacity", lru.len());
            if i >= 3 {
                // deterministic: always the oldest untouched key
                assert_eq!(evicted, Some((i - 3, (i - 3) * 10)));
            } else {
                assert_eq!(evicted, None);
            }
        }
        assert_eq!(lru.keys(), vec![97, 98, 99]);
    }

    #[test]
    fn get_promotes_and_changes_eviction_order() {
        let mut lru = Lru::new(3);
        for k in ["a", "b", "c"] {
            lru.insert(k, ());
        }
        assert!(lru.get(&"a").is_some()); // a becomes MRU
        assert_eq!(lru.keys(), vec!["b", "c", "a"]);
        let evicted = lru.insert("d", ());
        assert_eq!(evicted, Some(("b", ()))); // b, not a, is evicted
        assert_eq!(lru.keys(), vec!["c", "a", "d"]);
    }

    #[test]
    fn peek_does_not_promote() {
        let mut lru = Lru::new(2);
        lru.insert(1, "one");
        lru.insert(2, "two");
        assert_eq!(lru.peek(&1), Some(&"one"));
        assert_eq!(lru.insert(3, "three"), Some((1, "one")));
    }

    #[test]
    fn replacing_a_key_returns_old_value_and_promotes() {
        let mut lru = Lru::new(2);
        lru.insert(1, "one");
        lru.insert(2, "two");
        assert_eq!(lru.insert(1, "uno"), Some((1, "one")));
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.keys(), vec![2, 1]);
        assert_eq!(lru.insert(3, "three"), Some((2, "two")));
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut lru = Lru::new(0);
        assert_eq!(lru.insert(1, "x"), Some((1, "x")));
        assert!(lru.is_empty());
        assert!(lru.get(&1).is_none());
    }

    #[test]
    fn eviction_sequence_is_reproducible() {
        // the same operation sequence always evicts the same keys in the
        // same order — no hashing, no randomness
        let run = || {
            let mut lru = Lru::new(2);
            let mut evictions = Vec::new();
            for op in [0u32, 1, 0, 2, 3, 1, 0] {
                if lru.get(&op).is_none() {
                    if let Some((k, _)) = lru.insert(op, ()) {
                        evictions.push(k);
                    }
                }
            }
            evictions
        };
        assert_eq!(run(), run());
        assert_eq!(run(), vec![1, 0, 2, 3]);
    }
}
