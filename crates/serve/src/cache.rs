//! The LRU plan cache.
//!
//! Keys are digests of the canonical JSON fingerprint of
//! `(graph, device, precision, options)` — computed by the server from
//! the *resolved* request, so `"googlenet"` and `"gn"` hit the same
//! entry. Values are **pre-serialized** plan JSON strings: a hit
//! replays the stored bytes verbatim, which is what makes duplicate
//! responses byte-identical regardless of when they were computed.

use crate::lock_safe;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Hit/miss/occupancy counters of the plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (plans actually computed).
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Maximum entries before LRU eviction.
    pub capacity: usize,
    /// Entries dropped by LRU eviction at capacity.
    pub evictions: u64,
    /// Entries dropped by explicit invalidation (registry changes).
    pub invalidations: u64,
}

impl CacheCounters {
    /// `hits / (hits + misses)`, 0 when idle.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One stored plan: the serialized JSON, its recency stamp, and the
/// invalidation tags it carries (e.g. `model:<name>` for every tenant
/// of a co-plan).
struct Entry {
    value: String,
    stamp: u64,
    tags: Vec<String>,
}

/// A thread-safe LRU cache of pre-serialized plan JSON.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    map: Mutex<HashMap<String, Entry>>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl std::fmt::Debug for Entry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entry").field("stamp", &self.stamp).finish()
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (0 disables caching —
    /// every lookup misses).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<String> {
        let value = self.probe(key);
        if value.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// [`PlanCache::get`] that counts a hit but not a miss. The server
    /// probes at admission and queues a miss for a worker, whose own
    /// [`PlanCache::get`] of the same key then counts it once.
    pub fn probe(&self, key: &str) -> Option<String> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut map = lock_safe(&self.map);
        let entry = map.get_mut(key)?;
        entry.stamp = stamp;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(entry.value.clone())
    }

    /// Stores `value` under `key`, evicting the least-recently-used
    /// entry when past capacity. Re-inserting an existing key only
    /// refreshes it (plan values for one key are deterministic).
    pub fn put(&self, key: String, value: String) {
        self.put_tagged(key, value, Vec::new());
    }

    /// [`PlanCache::put`] with invalidation tags: a later
    /// [`PlanCache::invalidate_tag`] with any of these tags drops the
    /// entry. The server tags each co-plan entry with `model:<name>`
    /// for every tenant, so a registry change evicts exactly the
    /// co-plans that inlined the mutated model.
    pub fn put_tagged(&self, key: String, value: String, tags: Vec<String>) {
        if self.capacity == 0 {
            return;
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut map = lock_safe(&self.map);
        map.insert(key, Entry { value, stamp, tags });
        while map.len() > self.capacity {
            let Some(oldest) = map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            map.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops every entry carrying `tag` and returns how many were
    /// removed. Each dropped entry bumps the `invalidations` counter
    /// exactly once, however many tags it carried — the counter tracks
    /// evicted entries, not tag matches.
    pub fn invalidate_tag(&self, tag: &str) -> usize {
        let mut map = lock_safe(&self.map);
        let before = map.len();
        map.retain(|_, e| !e.tags.iter().any(|t| t == tag));
        let removed = before - map.len();
        self.invalidations
            .fetch_add(removed as u64, Ordering::Relaxed);
        removed
    }

    /// Dumps every entry as `(key, value, tags)` in LRU order (least
    /// recently used first). WAL compaction writes this as the
    /// snapshot; replaying it through [`PlanCache::replay_put`] in
    /// order reconstructs both the entry set and the relative recency.
    #[must_use]
    pub fn dump(&self) -> Vec<(String, String, Vec<String>)> {
        let map = lock_safe(&self.map);
        let mut entries: Vec<(&String, &Entry)> = map.iter().collect();
        entries.sort_by_key(|(_, e)| e.stamp);
        entries
            .into_iter()
            .map(|(k, e)| (k.clone(), e.value.clone(), e.tags.clone()))
            .collect()
    }

    /// [`PlanCache::put_tagged`] for WAL replay: identical storage
    /// semantics (LRU eviction included, so capacity shrinks across a
    /// restart are honoured) but without disturbing the hit/miss/
    /// eviction counters, which describe this process's traffic only.
    pub fn replay_put(&self, key: String, value: String, tags: Vec<String>) {
        if self.capacity == 0 {
            return;
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut map = lock_safe(&self.map);
        map.insert(key, Entry { value, stamp, tags });
        while map.len() > self.capacity {
            let Some(oldest) = map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            map.remove(&oldest);
        }
    }

    /// [`PlanCache::invalidate_tag`] for WAL replay: drops the entries
    /// without bumping the `invalidations` counter.
    pub fn replay_invalidate_tag(&self, tag: &str) {
        let mut map = lock_safe(&self.map);
        map.retain(|_, e| !e.tags.iter().any(|t| t == tag));
    }

    /// Current counters.
    #[must_use]
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: lock_safe(&self.map).len(),
            capacity: self.capacity,
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_stored_bytes_verbatim() {
        let c = PlanCache::new(4);
        assert_eq!(c.get("k"), None);
        c.put("k".to_string(), "{\"x\":1}".to_string());
        assert_eq!(c.get("k").as_deref(), Some("{\"x\":1}"));
        let s = c.counters();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probe_counts_hits_only() {
        let c = PlanCache::new(4);
        assert_eq!(c.probe("k"), None);
        assert_eq!(c.counters().misses, 0, "a probe leaves misses to get");
        c.put("k".to_string(), "V".to_string());
        assert_eq!(c.probe("k").as_deref(), Some("V"));
        let s = c.counters();
        assert_eq!((s.hits, s.misses), (1, 0));
    }

    #[test]
    fn evicts_least_recently_used() {
        let c = PlanCache::new(2);
        c.put("a".into(), "A".into());
        c.put("b".into(), "B".into());
        assert!(c.get("a").is_some()); // refresh a; b is now LRU
        c.put("c".into(), "C".into()); // evicts b
        assert!(c.get("b").is_none());
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
        let s = c.counters();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.invalidations, 0);
    }

    #[test]
    fn tag_invalidation_counts_each_entry_once() {
        let c = PlanCache::new(8);
        c.put_tagged(
            "coplan:ab".into(),
            "AB".into(),
            vec!["model:a".into(), "model:b".into()],
        );
        c.put_tagged("coplan:ac".into(), "AC".into(), vec!["model:a".into()]);
        c.put("plan:a".into(), "A".into());
        // Both coplan entries carry model:a; plan:a is untagged.
        assert_eq!(c.invalidate_tag("model:a"), 2);
        assert!(c.get("coplan:ab").is_none());
        assert!(c.get("coplan:ac").is_none());
        assert!(c.get("plan:a").is_some());
        let s = c.counters();
        assert_eq!(s.invalidations, 2, "one bump per dropped entry");
        // The multi-tag entry is gone; its second tag finds nothing, so
        // the counter must not move again.
        assert_eq!(c.invalidate_tag("model:b"), 0);
        assert_eq!(c.counters().invalidations, 2);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let c = PlanCache::new(0);
        c.put("k".into(), "V".into());
        assert_eq!(c.get("k"), None);
        assert_eq!(c.counters().entries, 0);
    }

    #[test]
    fn dump_replay_reconstructs_entries_and_recency() {
        let c = PlanCache::new(3);
        c.put("a".into(), "A".into());
        c.put_tagged("b".into(), "B".into(), vec!["model:m".into()]);
        c.put("c".into(), "C".into());
        assert!(c.get("a").is_some()); // a becomes most recent
        let dump = c.dump();
        assert_eq!(
            dump.iter().map(|(k, _, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["b", "c", "a"],
            "LRU order, least recent first"
        );
        // Replay into a fresh cache and confirm both contents and
        // recency survive: inserting a fourth entry must evict "b".
        let fresh = PlanCache::new(3);
        for (k, v, tags) in dump {
            fresh.replay_put(k, v, tags);
        }
        assert_eq!(fresh.counters().entries, 3);
        assert_eq!(fresh.counters().misses, 0, "replay leaves counters alone");
        fresh.put("d".into(), "D".into());
        let keys: Vec<String> = fresh.dump().into_iter().map(|(k, _, _)| k).collect();
        assert!(!keys.contains(&"b".to_string()), "LRU entry evicted");
        assert!(keys.contains(&"a".to_string()));
        // Replayed tags still drive invalidation.
        let again = PlanCache::new(3);
        again.replay_put("b".into(), "B".into(), vec!["model:m".into()]);
        again.replay_invalidate_tag("model:m");
        assert_eq!(again.counters().entries, 0);
        assert_eq!(again.counters().invalidations, 0);
    }

    #[test]
    fn reinsert_refreshes_without_growth() {
        let c = PlanCache::new(2);
        c.put("a".into(), "A".into());
        c.put("a".into(), "A".into());
        assert_eq!(c.counters().entries, 1);
    }
}
