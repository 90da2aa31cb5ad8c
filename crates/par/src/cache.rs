//! The cross-operator saturation memo: a sharded, insert-once cache.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache hit/miss/size statistics, as reported on the CLI's `parallel :`
/// line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded map from canonical problem keys to memoized results.
///
/// Sharding bounds lock contention when many workers consult the memo;
/// `insert` keeps the first value stored for a key. Two workers may race to
/// compute the same key, but the canonical-space engine is deterministic, so
/// both compute byte-identical values and whichever insert lands first
/// changes nothing observable. Hit/miss counts are therefore the *only*
/// schedule-dependent output, and the checker reports them as approximate
/// under parallelism.
///
/// # Examples
///
/// ```
/// let cache: entangle_par::ShardedCache<u32> = entangle_par::ShardedCache::new(8);
/// assert!(cache.get("k").is_none());
/// cache.insert("k".to_owned(), 7);
/// assert_eq!(*cache.get("k").unwrap(), 7);
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
/// ```
pub struct ShardedCache<V> {
    shards: Vec<Mutex<HashMap<String, Arc<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> ShardedCache<V> {
    /// Creates a cache with `shards` independently locked partitions.
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<HashMap<String, Arc<V>>> {
        // DefaultHasher::new() is deterministic (fixed keys), so the shard
        // layout is reproducible run to run.
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Looks a key up, counting a hit or miss.
    pub fn get(&self, key: &str) -> Option<Arc<V>> {
        let found = self.shard(key).lock().unwrap().get(key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a value, keeping any existing entry (first insert wins), and
    /// returns the entry actually stored under the key.
    pub fn insert(&self, key: String, value: V) -> Arc<V> {
        let mut shard = self.shard(&key).lock().unwrap();
        shard.entry(key).or_insert_with(|| Arc::new(value)).clone()
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.lock().unwrap().len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_insert_wins() {
        let cache: ShardedCache<u32> = ShardedCache::new(4);
        cache.insert("k".to_owned(), 1);
        let stored = cache.insert("k".to_owned(), 2);
        assert_eq!(*stored, 1);
        assert_eq!(*cache.get("k").unwrap(), 1);
    }

    #[test]
    fn stats_track_hits_misses_entries() {
        let cache: ShardedCache<&'static str> = ShardedCache::new(2);
        assert!(cache.get("a").is_none());
        cache.insert("a".to_owned(), "v");
        cache.insert("b".to_owned(), "w");
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 2));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache: ShardedCache<usize> = ShardedCache::new(8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..100 {
                        let key = format!("k{}", (i + t) % 50);
                        if cache.get(&key).is_none() {
                            cache.insert(key.clone(), (i + t) % 50);
                        }
                        // Whatever is stored must equal the key's suffix: a
                        // racing insert stores the same canonical value.
                        let v = cache.get(&key).unwrap();
                        assert_eq!(format!("k{v}"), key);
                    }
                });
            }
        });
        assert_eq!(cache.stats().entries, 50);
    }
}
