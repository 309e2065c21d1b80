//! Sharded LRU cache from query text to parsed plans.
//!
//! Every estimate request arrives as text; parsing and classifying it
//! ([`QueryPlan::parse`]) is pure, so the result is cached and shared
//! across every calling thread. The cache is sharded by a hash
//! of the query text: each shard has its own mutex and its own LRU state,
//! so concurrent lookups of different queries rarely contend on the same
//! lock. Parsing itself always happens *outside* any lock — a miss costs
//! one parse and two brief shard acquisitions.
//!
//! Recency is tracked with a per-shard logical clock: each hit stamps the
//! entry, and eviction removes the least-recently-stamped entry of the
//! full shard (an `O(shard size)` scan, bounded by the per-shard capacity,
//! which is small by construction).

use crate::metrics::{Obs, Stage};
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use xpathkit::{ParseError, QueryPlan};

#[derive(Default)]
struct Shard {
    map: HashMap<String, CachedPlan>,
    tick: u64,
}

struct CachedPlan {
    plan: Arc<QueryPlan>,
    last_used: u64,
}

/// Counters and occupancy of a [`PlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to parse.
    pub misses: u64,
    /// Plans currently resident.
    pub entries: usize,
}

/// A sharded LRU plan cache. See the module docs.
pub struct PlanCache {
    shards: Box<[Mutex<Shard>]>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    obs: Option<Arc<Obs>>,
}

impl PlanCache {
    /// Creates a cache of `shards` independent shards holding about
    /// `capacity` plans in total. Both values are clamped to at least 1.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let shard_capacity = capacity.div_ceil(shards).max(1);
        PlanCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            obs: None,
        }
    }

    /// Attaches an observability registry (builder style): lookups are
    /// then timed into [`Stage::PlanLookup`] and parses into
    /// [`Stage::Parse`].
    pub fn with_obs(mut self, obs: Option<Arc<Obs>>) -> Self {
        self.obs = obs;
        self
    }

    fn shard_for(&self, text: &str) -> MutexGuard<'_, Shard> {
        let mut hasher = DefaultHasher::new();
        text.hash(&mut hasher);
        let idx = (hasher.finish() as usize) % self.shards.len();
        self.shards[idx]
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Returns the cached plan for `text`, parsing (and inserting) it on a
    /// miss. Parse errors are returned without being cached. The lookup
    /// is timed into [`Stage::PlanLookup`].
    pub fn get_or_parse(&self, text: &str) -> Result<Arc<QueryPlan>, ParseError> {
        let lookup_started = self.obs.as_ref().map(|_| Instant::now());
        let plan = self.lookup(text);
        if let (Some(obs), Some(started)) = (&self.obs, lookup_started) {
            obs.record(Stage::PlanLookup, started.elapsed());
        }
        plan
    }

    /// Resolves a whole batch of texts with **one** timing pair: the
    /// total is recorded as `texts.len()` [`Stage::PlanLookup`] samples
    /// of the mean (see [`Obs::record_amortized`]), so batched lookups
    /// pay no clock reads per query. Stops at (and returns) the first
    /// parse error, recording nothing — the request fails as a whole.
    pub fn get_or_parse_batch(&self, texts: &[&str]) -> Result<Vec<Arc<QueryPlan>>, ParseError> {
        let lookup_started = self.obs.as_ref().map(|_| Instant::now());
        let plans = texts
            .iter()
            .map(|text| self.lookup(text))
            .collect::<Result<Vec<_>, _>>()?;
        if let (Some(obs), Some(started)) = (&self.obs, lookup_started) {
            obs.record_amortized(Stage::PlanLookup, started.elapsed(), texts.len() as u64);
        }
        Ok(plans)
    }

    /// The untimed lookup both public forms share (parses on a miss are
    /// still timed individually into [`Stage::Parse`] — misses leave the
    /// hot path anyway).
    fn lookup(&self, text: &str) -> Result<Arc<QueryPlan>, ParseError> {
        {
            let mut shard = self.shard_for(text);
            shard.tick += 1;
            let tick = shard.tick;
            if let Some(cached) = shard.map.get_mut(text) {
                cached.last_used = tick;
                let plan = cached.plan.clone();
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(plan);
            }
        }

        // Miss: parse outside the lock, then insert unless another thread
        // raced us to it (their plan is identical; keeping it is fine).
        let parse_started = self.obs.as_ref().map(|_| Instant::now());
        let plan = Arc::new(QueryPlan::parse(text)?);
        if let (Some(obs), Some(started)) = (&self.obs, parse_started) {
            obs.record(Stage::Parse, started.elapsed());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard_for(text);
        shard.tick += 1;
        let tick = shard.tick;
        if !shard.map.contains_key(text) {
            if shard.map.len() >= self.shard_capacity {
                if let Some(oldest) = shard
                    .map
                    .iter()
                    .min_by_key(|(_, c)| c.last_used)
                    .map(|(k, _)| k.clone())
                {
                    shard.map.remove(&oldest);
                }
            }
            shard.map.insert(
                text.to_string(),
                CachedPlan {
                    plan: plan.clone(),
                    last_used: tick,
                },
            );
        }
        Ok(plan)
    }

    /// Current hit/miss counters and occupancy.
    pub fn stats(&self) -> PlanCacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(|poison| poison.into_inner())
                    .map
                    .len()
            })
            .sum();
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_same_plan() {
        let cache = PlanCache::new(4, 64);
        let a = cache.get_or_parse("/a/b[c]/d").unwrap();
        let b = cache.get_or_parse("/a/b[c]/d").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = PlanCache::new(2, 8);
        assert!(cache.get_or_parse("/[").is_err());
        assert!(cache.get_or_parse("/[").is_err());
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn eviction_keeps_recently_used_plans() {
        // One shard of capacity 2: touching "a" keeps it resident while
        // inserting a third plan evicts the stale one.
        let cache = PlanCache::new(1, 2);
        cache.get_or_parse("/a").unwrap();
        cache.get_or_parse("/b").unwrap();
        cache.get_or_parse("/a").unwrap(); // refresh /a
        cache.get_or_parse("/c").unwrap(); // evicts /b
        assert_eq!(cache.stats().entries, 2);
        let before = cache.stats().hits;
        cache.get_or_parse("/a").unwrap();
        assert_eq!(cache.stats().hits, before + 1);
        cache.get_or_parse("/b").unwrap();
        assert_eq!(
            cache.stats().hits,
            before + 1,
            "/b should have been evicted"
        );
    }

    #[test]
    fn cache_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlanCache>();
    }
}
