//! The per-solver query-result cache: memoized posteriors keyed by
//! canonicalized queries.
//!
//! The paper's premise is that the expensive part of exact inference is
//! propagation over the junction tree; under serving traffic many
//! requests repeat the same evidence sets, so the cheapest propagation
//! is the one never run. A [`QueryCache`] sits between the session layer
//! and engine dispatch: after validation accepts a query, its canonical
//! [`QueryKey`] is looked up, and only misses pay for propagation (the
//! result is inserted on the way out). Because a [`Solver`]'s compiled
//! model is **immutable**, invalidation is a no-op — an entry can never
//! go stale — and because equal keys imply the exact same engine
//! arithmetic (see [`QueryKey`]), a hit is **bit-identical** to the
//! recomputation it replaces.
//!
//! The cache is sharded: keys hash to one of N independent shards, each
//! behind its own `std` mutex (poisoning ignored, as everywhere in the
//! workspace), so concurrent sessions on different keys rarely contend.
//! Each shard bounds both its **entry count** and its **approximate
//! byte footprint**, evicting via the CLOCK second-chance sweep (an LRU
//! approximation that avoids re-linking on every hit: a hit just marks
//! the entry; the evictor skips marked entries once before reclaiming
//! them).
//!
//! Only `Ok` results are cached. Errors are cheap to rediscover —
//! validation failures never reach the engine, and impossible evidence
//! is detected during propagation, which a poisoned entry would have to
//! pay for anyway.
//!
//! [`Solver`]: crate::solver::Solver

use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::query::{QueryKey, QueryResult};

/// Configuration of a [`QueryCache`], passed to
/// [`SolverBuilder::cache`](crate::solver::SolverBuilder::cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum cached results across all shards (default 8192). `0`
    /// disables insertion entirely — every lookup misses and nothing is
    /// retained (useful for measuring key-derivation overhead alone).
    pub max_entries: usize,
    /// Approximate maximum bytes of cached keys + results across all
    /// shards (default 64 MiB). Results larger than one shard's byte
    /// share are never inserted.
    pub max_bytes: usize,
    /// Number of independent shards (default 8; rounded up to a power of
    /// two, minimum 1, and capped so there are never more shards than
    /// `max_entries` — each shard retains at least one entry, so
    /// uncapped shards could exceed a smaller entry budget). More shards
    /// mean less lock contention between concurrent sessions.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_entries: 8192,
            max_bytes: 64 << 20,
            shards: 8,
        }
    }
}

/// A snapshot of a cache's counters and occupancy (monotonic counters;
/// occupancy is exact at the moment each shard is sampled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the engine.
    pub misses: u64,
    /// Results stored (one per miss that computed an `Ok` result and won
    /// the insert race).
    pub insertions: u64,
    /// Entries reclaimed by the CLOCK sweep to stay within budget.
    pub evictions: u64,
    /// Results currently cached.
    pub entries: usize,
    /// Approximate bytes currently cached (keys + results).
    pub bytes: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when nothing was looked
    /// up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cached result plus its accounting. The result sits behind an
/// `Arc` so a hit clones a pointer under the shard lock and deep-copies
/// outside it — concurrent hits on one hot key don't serialize on the
/// mutex for the duration of a marginal-vector memcpy.
struct Entry {
    result: Arc<QueryResult>,
    /// Approximate bytes of key + result (computed once at insert).
    bytes: usize,
    /// CLOCK reference mark: set on every hit, cleared (with a second
    /// chance granted) when the sweep passes over the entry.
    touched: bool,
}

/// One shard: its map, the CLOCK queue over its keys, and its byte
/// count. The queue holds exactly the map's keys (entries leave the
/// queue only when they leave the map), so the sweep terminates. Map
/// and queue share each key through one `Arc`, so a key's heap data —
/// which the byte budget counts once — is stored once.
#[derive(Default)]
struct Shard {
    map: HashMap<Arc<QueryKey>, Entry>,
    clock: VecDeque<Arc<QueryKey>>,
    bytes: usize,
}

/// A sharded, bounded, `Send + Sync` cache of query results, owned by a
/// [`Solver`](crate::solver::Solver) and consulted by every session run
/// path (single queries, both `run_batch` strategies, and therefore the
/// serve front end).
pub struct QueryCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard budgets (global budget split evenly).
    entries_per_shard: usize,
    bytes_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl QueryCache {
    /// Builds an empty cache with `config`'s budgets.
    pub(crate) fn new(config: CacheConfig) -> QueryCache {
        // Power of two for the index mask, but never more shards than
        // the entry budget: the per-shard floor of one entry would
        // otherwise let `shards` entries exceed a smaller `max_entries`.
        let floor_pow2 = |n: usize| 1usize << (usize::BITS - 1 - n.max(1).leading_zeros());
        let shards = config
            .shards
            .max(1)
            .next_power_of_two()
            .min(floor_pow2(config.max_entries));
        QueryCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            // 0 stays 0 (insertion disabled); otherwise each shard
            // retains at least one entry.
            entries_per_shard: if config.max_entries == 0 {
                0
            } else {
                (config.max_entries / shards).max(1)
            },
            bytes_per_shard: (config.max_bytes / shards).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &QueryKey) -> &Mutex<Shard> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        // Shard count is a power of two; take the hash's top bits so the
        // shard index and the HashMap's bucket index (low bits) stay
        // decorrelated.
        let index = (hasher.finish() >> 32) as usize & (self.shards.len() - 1);
        &self.shards[index]
    }

    /// Looks `key` up, cloning the cached result on a hit (the deep copy
    /// happens outside the shard lock).
    pub(crate) fn get(&self, key: &QueryKey) -> Option<QueryResult> {
        let mut shard = lock(self.shard(key));
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.touched = true;
                let result = Arc::clone(&entry.result);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((*result).clone())
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `result` under `key`, evicting via CLOCK until the shard
    /// is back under its entry and byte budgets. Results too large for
    /// one shard's byte share are skipped (caching them would evict the
    /// entire shard for one entry). A concurrent insert of the same key
    /// wins benignly — both computed the same bits.
    pub(crate) fn insert(&self, key: QueryKey, result: &QueryResult) {
        if self.entries_per_shard == 0 {
            return; // max_entries: 0 — caching disabled
        }
        let bytes = key.approx_bytes() + approx_result_bytes(result);
        if bytes > self.bytes_per_shard {
            return;
        }
        // Deep-copy before taking the lock; the critical section only
        // moves pointers and runs the sweep.
        let result = Arc::new(result.clone());
        let key = Arc::new(key);
        let mut evicted = 0u64;
        {
            let mut shard = lock(self.shard(&key));
            if shard.map.contains_key(&*key) {
                return;
            }
            shard.bytes += bytes;
            shard.clock.push_back(Arc::clone(&key));
            shard.map.insert(
                key,
                Entry {
                    result,
                    bytes,
                    touched: false,
                },
            );
            while shard.map.len() > self.entries_per_shard || shard.bytes > self.bytes_per_shard {
                let candidate = shard
                    .clock
                    .pop_front()
                    .expect("clock queue mirrors the map, which is non-empty");
                let entry = shard
                    .map
                    .get_mut(&*candidate)
                    .expect("clock queue holds only live keys");
                if entry.touched {
                    // Second chance: clear the mark, move to the back.
                    // Marks only come from hits, so a full sweep leaves
                    // everything unmarked and the loop terminates.
                    entry.touched = false;
                    shard.clock.push_back(candidate);
                } else {
                    let entry = shard
                        .map
                        .remove(&*candidate)
                        .expect("checked present just above");
                    shard.bytes -= entry.bytes;
                    evicted += 1;
                }
            }
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Drops every cached entry (counters keep running). Handy for
    /// benchmarks comparing cold and warm traffic; never *required* —
    /// the model is immutable, so entries cannot go stale.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = lock(shard);
            shard.map.clear();
            shard.clock.clear();
            shard.bytes = 0;
        }
    }

    /// A snapshot of the counters and current occupancy.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0usize;
        let mut bytes = 0usize;
        for shard in &self.shards {
            let shard = lock(shard);
            entries += shard.map.len();
            bytes += shard.bytes;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCache")
            .field("shards", &self.shards.len())
            .field("entries_per_shard", &self.entries_per_shard)
            .field("bytes_per_shard", &self.bytes_per_shard)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Approximate heap footprint of a result, for the byte budget.
fn approx_result_bytes(result: &QueryResult) -> usize {
    std::mem::size_of::<QueryResult>()
        + match result {
            QueryResult::Marginals(p) => p
                .marginals()
                .iter()
                .map(|m| std::mem::size_of::<Vec<f64>>() + m.len() * 8)
                .sum::<usize>(),
            QueryResult::Mpe(m) => m.assignment.len() * std::mem::size_of::<usize>(),
        }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posterior::Posteriors;
    use crate::query::Query;
    use fastbn_bayesnet::VarId;

    fn assert_send_sync<T: Send + Sync>() {}

    fn key(state: usize) -> QueryKey {
        Query::new().observe(VarId(0), state).key()
    }

    fn result(p: f64) -> QueryResult {
        QueryResult::Marginals(Posteriors::new(vec![vec![p, 1.0 - p]], p))
    }

    #[test]
    fn cache_is_send_and_sync() {
        assert_send_sync::<QueryCache>();
    }

    #[test]
    fn get_after_insert_returns_the_exact_result() {
        let cache = QueryCache::new(CacheConfig::default());
        assert_eq!(cache.get(&key(0)), None);
        cache.insert(key(0), &result(0.25));
        assert_eq!(cache.get(&key(0)), Some(result(0.25)));
        assert_eq!(cache.get(&key(1)), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn entry_budget_evicts_the_coldest() {
        let config = CacheConfig {
            max_entries: 4,
            shards: 1,
            ..CacheConfig::default()
        };
        let cache = QueryCache::new(config);
        for s in 0..4 {
            cache.insert(key(s), &result(0.5));
        }
        // Touch 0 so the sweep grants it a second chance; inserting a
        // fifth entry must evict 1 (the oldest untouched).
        assert!(cache.get(&key(0)).is_some());
        cache.insert(key(4), &result(0.5));
        assert_eq!(cache.stats().entries, 4);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&key(0)).is_some(), "touched entry survived");
        assert!(cache.get(&key(1)).is_none(), "coldest entry evicted");
        assert!(cache.get(&key(4)).is_some());
    }

    #[test]
    fn byte_budget_bounds_the_footprint() {
        let wide = result(0.5); // ~80 bytes of payload + key
        let per_entry = approx_result_bytes(&wide) + key(0).approx_bytes();
        let config = CacheConfig {
            max_entries: usize::MAX,
            max_bytes: 3 * per_entry,
            shards: 1,
        };
        let cache = QueryCache::new(config);
        for s in 0..16 {
            cache.insert(key(s), &wide);
        }
        let stats = cache.stats();
        assert!(stats.bytes <= 3 * per_entry, "byte budget respected");
        assert!(stats.entries >= 1 && stats.entries <= 3);
        assert_eq!(stats.evictions, 16 - stats.entries as u64);
    }

    #[test]
    fn zero_entry_budget_disables_caching() {
        let cache = QueryCache::new(CacheConfig {
            max_entries: 0,
            ..CacheConfig::default()
        });
        cache.insert(key(0), &result(0.5));
        assert_eq!(cache.get(&key(0)), None);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.insertions), (0, 0));
        assert_eq!(stats.misses, 1, "lookups still count");
    }

    #[test]
    fn shard_count_never_exceeds_the_entry_budget() {
        // With a per-shard floor of one entry, more shards than
        // max_entries would silently raise the global budget.
        let cache = QueryCache::new(CacheConfig {
            max_entries: 2,
            shards: 16,
            ..CacheConfig::default()
        });
        for s in 0..32 {
            cache.insert(key(s), &result(0.5));
        }
        assert!(
            cache.stats().entries <= 2,
            "entry budget respected: {:?}",
            cache.stats()
        );
    }

    #[test]
    fn oversized_results_are_never_cached() {
        let config = CacheConfig {
            max_entries: 8,
            max_bytes: 8, // smaller than any real entry
            shards: 1,
        };
        let cache = QueryCache::new(config);
        cache.insert(key(0), &result(0.5));
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().insertions, 0);
        assert_eq!(cache.get(&key(0)), None);
    }

    #[test]
    fn duplicate_insert_is_benign() {
        let cache = QueryCache::new(CacheConfig::default());
        cache.insert(key(0), &result(0.25));
        cache.insert(key(0), &result(0.25));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.insertions, 1, "second insert observed the first");
    }

    #[test]
    fn clear_empties_every_shard() {
        let cache = QueryCache::new(CacheConfig {
            shards: 4,
            ..CacheConfig::default()
        });
        for s in 0..32 {
            cache.insert(key(s), &result(0.5));
        }
        assert!(cache.stats().entries > 0);
        cache.clear();
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.bytes), (0, 0));
        assert_eq!(cache.get(&key(0)), None);
    }

    #[test]
    fn concurrent_mixed_traffic_stays_consistent() {
        let cache = std::sync::Arc::new(QueryCache::new(CacheConfig {
            max_entries: 64,
            shards: 4,
            ..CacheConfig::default()
        }));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..500 {
                        let s = (t * 131 + i * 7) % 96;
                        if let Some(got) = cache.get(&key(s)) {
                            assert_eq!(got, result(s as f64 / 96.0), "payload matches key");
                        } else {
                            cache.insert(key(s), &result(s as f64 / 96.0));
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert!(stats.entries <= 64);
        assert_eq!(
            stats.entries as u64,
            stats.insertions - stats.evictions,
            "every entry is an insertion that has not been evicted"
        );
        assert!(stats.hits > 0 && stats.misses > 0);
    }
}
