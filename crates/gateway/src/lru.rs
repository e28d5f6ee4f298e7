//! A small LRU cache (hash map + monotonic access stamps, O(n) evict).
//!
//! Deliberately *not* the textbook doubly-linked-list design: at
//! gateway session-cache sizes (tens to hundreds of entries) a linear
//! eviction scan is cheaper than pointer chasing, and the stamp-based
//! implementation is simple enough to model-check — the proptest suite
//! drives it against an independent naive ordered-`Vec` model.

use std::collections::HashMap;
use std::hash::Hash;

/// Least-recently-used cache with a fixed capacity.
pub struct LruCache<K, V> {
    map: HashMap<K, (V, u64)>,
    clock: u64,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be non-zero");
        Self {
            map: HashMap::with_capacity(capacity),
            clock: 0,
            capacity,
        }
    }

    /// Current entry count (`<= capacity`, always).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, marking it most-recently-used on hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|(v, stamp)| {
            *stamp = clock;
            &*v
        })
    }

    /// Inserts (or replaces) `key`, evicting the least-recently-used
    /// entry if the cache is full; returns the evicted pair, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.clock += 1;
        if let Some(slot) = self.map.get_mut(&key) {
            *slot = (value, self.clock);
            return None;
        }
        let evicted = if self.map.len() >= self.capacity {
            // At capacity the map is non-empty, so a victim always
            // exists; `and_then` keeps the path panic-free regardless.
            self.map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
                .and_then(|victim| self.map.remove(&victim).map(|(v, _)| (victim, v)))
        } else {
            None
        };
        self.map.insert(key, (value, self.clock));
        evicted
    }

    /// Whether `key` is present (does not touch recency).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_is_least_recently_used() {
        let mut lru = LruCache::new(2);
        assert!(lru.insert("a", 1).is_none());
        assert!(lru.insert("b", 2).is_none());
        // Touch "a" so "b" becomes the victim.
        assert_eq!(lru.get(&"a"), Some(&1));
        let evicted = lru.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
        assert!(lru.contains(&"a") && lru.contains(&"c"));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn replacing_does_not_evict() {
        let mut lru = LruCache::new(2);
        lru.insert(1, "x");
        lru.insert(2, "y");
        assert!(lru.insert(1, "z").is_none());
        assert_eq!(lru.get(&1), Some(&"z"));
        assert_eq!(lru.len(), 2);
    }
}
