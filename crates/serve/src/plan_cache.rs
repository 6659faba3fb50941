//! The memoized launch verdict and its LRU cache.
//!
//! ScalFrag's adaptive-launching decision (§IV-B of the paper) is a pure
//! function of quantized tensor features — exactly the kind of per-tensor
//! work worth memoizing across a request stream. A [`FeatureKey`] (coarse
//! log-bucketed features, see `scalfrag-tensor`) maps to the predictor's
//! [`LaunchConfig`] verdict. A stream of similarly-shaped tensors then
//! pays the predictor once per *shape class* instead of once per request.
//!
//! The cache also snapshots: [`PlanCache::snapshot`] serializes the full
//! LRU state (entries, recency ticks, capacity) to a deterministic
//! versioned text form, and [`PlanCache::restore`] rebuilds it —
//! byte-identical round trips, typed [`SnapshotError`]s on version or
//! format mismatch. A server warm-started from a snapshot serves its
//! first request of every known shape class from the cache.

use scalfrag_gpusim::LaunchConfig;
use scalfrag_tensor::FeatureKey;
use std::collections::HashMap;

/// Format version written into (and required from) every snapshot.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Why a snapshot failed to restore.
#[derive(Clone, Debug, PartialEq)]
pub enum SnapshotError {
    /// The snapshot was written by a different format version.
    VersionMismatch {
        /// Version found in the snapshot header.
        found: u32,
        /// The version this build reads ([`SNAPSHOT_VERSION`]).
        expected: u32,
    },
    /// The snapshot text does not parse.
    Corrupt {
        /// 1-based line the parser gave up on.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "plan-cache snapshot version {found} (this build reads {expected})")
            }
            SnapshotError::Corrupt { line, reason } => {
                write!(f, "plan-cache snapshot corrupt at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The key as a sortable integer tuple — snapshot entries are ordered by
/// this, so serialization never depends on `HashMap` iteration order.
fn key_tuple(k: &FeatureKey) -> [i64; 12] {
    [
        k.order as i64,
        k.mode as i64,
        k.rank as i64,
        k.nnz_bucket as i64,
        k.slices_bucket as i64,
        k.fibers_bucket as i64,
        k.mode_dim_bucket as i64,
        k.slice_ratio_bucket as i64,
        k.fiber_ratio_bucket as i64,
        k.imbalance_bucket as i64,
        k.fiber_imbalance_bucket as i64,
        k.gini_bucket as i64,
    ]
}

/// Hit/miss/eviction counters of one cache (or one cache-off ablation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to plan from scratch.
    pub misses: u64,
    /// Entries displaced by LRU eviction.
    pub evictions: u64,
    /// Configured capacity.
    pub capacity: usize,
    /// Live entries.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over all lookups (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded LRU map from quantized tensor features to launch
/// configurations.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    /// key → (launch configuration, last-use tick).
    map: HashMap<FeatureKey, (LaunchConfig, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "plan cache needs capacity > 0");
        Self { capacity, map: HashMap::new(), tick: 0, hits: 0, misses: 0, evictions: 0 }
    }

    /// Looks `key` up, counting a hit (and refreshing recency) or a miss.
    pub fn get(&mut self, key: &FeatureKey) -> Option<LaunchConfig> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some((config, last_use)) => {
                *last_use = self.tick;
                self.hits += 1;
                Some(*config)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Records a planning round that bypassed the cache entirely (the
    /// cache-off ablation still reports its miss count).
    pub fn count_bypass(&mut self) {
        self.misses += 1;
    }

    /// Inserts a freshly predicted configuration, evicting the least
    /// recently used entry if at capacity.
    pub fn insert(&mut self, key: FeatureKey, config: LaunchConfig) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, (_, last_use))| *last_use)
                .map(|(k, _)| *k)
                .expect("cache at capacity is non-empty");
            self.map.remove(&lru);
            self.evictions += 1;
        }
        self.map.insert(key, (config, self.tick));
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Serializes the cache to the versioned snapshot text form:
    /// a header line, then one line per entry sorted by key. Entries
    /// carry their recency ticks, so a restored cache evicts in exactly
    /// the order the original would have. Hit/miss counters are *not*
    /// snapshotted — a warm-started server counts its own traffic.
    pub fn snapshot(&self) -> String {
        let mut entries: Vec<(&FeatureKey, &(LaunchConfig, u64))> = self.map.iter().collect();
        entries.sort_by_key(|(k, _)| key_tuple(k));
        let mut out = format!(
            "scalfrag-plan-cache v{SNAPSHOT_VERSION}\ncapacity {} tick {}\n",
            self.capacity, self.tick
        );
        for (k, (c, last_use)) in entries {
            let kt = key_tuple(k);
            let key_str = kt.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(" ");
            out.push_str(&format!(
                "entry {key_str} | {} {} {} | {last_use}\n",
                c.grid, c.block, c.shared_mem_per_block
            ));
        }
        out
    }

    /// Rebuilds a cache from [`PlanCache::snapshot`] output. The restored
    /// cache reproduces the original's entries, recency order, tick and
    /// capacity; counters start at zero.
    pub fn restore(snapshot: &str) -> Result<Self, SnapshotError> {
        let corrupt =
            |line: usize, reason: &str| SnapshotError::Corrupt { line, reason: reason.to_string() };
        let mut lines = snapshot.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| corrupt(1, "empty snapshot"))?;
        let version: u32 = header
            .strip_prefix("scalfrag-plan-cache v")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| corrupt(1, "bad header"))?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let (_, meta) = lines.next().ok_or_else(|| corrupt(2, "missing capacity line"))?;
        let meta: Vec<&str> = meta.split_whitespace().collect();
        let (capacity, tick) = match meta.as_slice() {
            ["capacity", c, "tick", t] => (
                c.parse::<usize>().map_err(|_| corrupt(2, "bad capacity"))?,
                t.parse::<u64>().map_err(|_| corrupt(2, "bad tick"))?,
            ),
            _ => return Err(corrupt(2, "malformed capacity line")),
        };
        if capacity == 0 {
            return Err(corrupt(2, "capacity must be positive"));
        }
        let mut cache = PlanCache::new(capacity);
        cache.tick = tick;
        for (i, line) in lines {
            let lineno = i + 1;
            let body = line
                .strip_prefix("entry ")
                .ok_or_else(|| corrupt(lineno, "expected an entry line"))?;
            let parts: Vec<&str> = body.split('|').map(str::trim).collect();
            if parts.len() != 3 {
                return Err(corrupt(lineno, "entry needs key | config | last_use fields"));
            }
            let kf: Vec<i64> = parts[0]
                .split_whitespace()
                .map(|v| v.parse::<i64>())
                .collect::<Result<_, _>>()
                .map_err(|_| corrupt(lineno, "non-integer key field"))?;
            if kf.len() != 12 {
                return Err(corrupt(lineno, "key needs 12 fields"));
            }
            let key = FeatureKey {
                order: kf[0] as usize,
                mode: kf[1] as usize,
                rank: kf[2] as u32,
                nnz_bucket: kf[3] as i32,
                slices_bucket: kf[4] as i32,
                fibers_bucket: kf[5] as i32,
                mode_dim_bucket: kf[6] as i32,
                slice_ratio_bucket: kf[7] as i32,
                fiber_ratio_bucket: kf[8] as i32,
                imbalance_bucket: kf[9] as i32,
                fiber_imbalance_bucket: kf[10] as i32,
                gini_bucket: kf[11] as i32,
            };
            let cf: Vec<&str> = parts[1].split_whitespace().collect();
            if cf.len() != 3 {
                return Err(corrupt(lineno, "config needs 3 fields"));
            }
            let int = |s: &str| s.parse::<u32>().map_err(|_| corrupt(lineno, "bad config number"));
            let config = LaunchConfig {
                grid: int(cf[0])?,
                block: int(cf[1])?,
                shared_mem_per_block: int(cf[2])?,
            };
            let last_use: u64 =
                parts[2].parse().map_err(|_| corrupt(lineno, "bad last_use tick"))?;
            if cache.map.len() >= capacity {
                return Err(corrupt(lineno, "more entries than capacity"));
            }
            if last_use > tick {
                return Err(corrupt(lineno, "last_use beyond the snapshot tick"));
            }
            if cache.map.insert(key, (config, last_use)).is_some() {
                return Err(corrupt(lineno, "duplicate key"));
            }
        }
        Ok(cache)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            capacity: self.capacity,
            entries: self.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(nnz_bucket: i32) -> FeatureKey {
        FeatureKey {
            order: 3,
            mode: 0,
            rank: 16,
            nnz_bucket,
            slices_bucket: 10,
            fibers_bucket: 12,
            mode_dim_bucket: 14,
            slice_ratio_bucket: 8,
            fiber_ratio_bucket: 1,
            imbalance_bucket: 2,
            fiber_imbalance_bucket: 1,
            gini_bucket: 2,
        }
    }

    fn plan(grid: u32) -> LaunchConfig {
        LaunchConfig::new(grid, 256)
    }

    #[test]
    fn hit_miss_counters_and_round_trip() {
        let mut c = PlanCache::new(4);
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), plan(64));
        assert_eq!(c.get(&key(1)), Some(plan(64)));
        assert_ne!(c.get(&key(2)), Some(plan(64)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = PlanCache::new(2);
        c.insert(key(1), plan(1));
        c.insert(key(2), plan(2));
        let _ = c.get(&key(1)); // refresh 1 → 2 is now LRU
        c.insert(key(3), plan(3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.get(&key(2)).is_none(), "key 2 was evicted");
        assert!(c.get(&key(1)).is_some(), "recently used key survives");
    }

    #[test]
    fn reinsert_updates_in_place_without_eviction() {
        let mut c = PlanCache::new(2);
        c.insert(key(1), plan(1));
        c.insert(key(2), plan(2));
        c.insert(key(1), plan(9));
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get(&key(1)), Some(plan(9)));
    }

    #[test]
    fn empty_cache_reports_cleanly() {
        let c = PlanCache::new(8);
        assert!(c.is_empty());
        assert_eq!(c.stats().hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = PlanCache::new(0);
    }

    #[test]
    fn snapshot_round_trips_bit_deterministically() {
        let mut c = PlanCache::new(4);
        c.insert(key(1), plan(64));
        c.insert(key(2), LaunchConfig { shared_mem_per_block: 4096, ..plan(9) });
        let _ = c.get(&key(1)); // refresh recency so the ticks differ
        let snap = c.snapshot();
        let restored = PlanCache::restore(&snap).expect("round trip");
        assert_eq!(restored.snapshot(), snap, "snapshot(restore(s)) must be byte-identical");
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.stats().capacity, 4);
        assert_eq!((restored.stats().hits, restored.stats().misses), (0, 0));
    }

    #[test]
    fn restored_cache_reproduces_lru_order() {
        let mut c = PlanCache::new(2);
        c.insert(key(1), plan(1));
        c.insert(key(2), plan(2));
        let _ = c.get(&key(1)); // 2 becomes LRU
        let mut restored = PlanCache::restore(&c.snapshot()).unwrap();
        restored.insert(key(3), plan(3));
        assert!(restored.get(&key(2)).is_none(), "the restored LRU victim must match");
        assert!(restored.get(&key(1)).is_some());
        assert!(restored.get(&key(3)).is_some());
    }

    #[test]
    fn restored_cache_serves_hits() {
        let mut c = PlanCache::new(4);
        let p = LaunchConfig { shared_mem_per_block: 8192, ..plan(128) };
        c.insert(key(7), p);
        let mut warm = PlanCache::restore(&c.snapshot()).unwrap();
        assert_eq!(warm.get(&key(7)), Some(p), "every config field must survive the trip");
        assert_eq!(warm.stats().hits, 1);
    }

    #[test]
    fn version_mismatch_is_a_typed_error() {
        let snap = PlanCache::new(2).snapshot();
        let future = snap.replacen(&format!("v{SNAPSHOT_VERSION}"), "v9", 1);
        assert_eq!(
            PlanCache::restore(&future).unwrap_err(),
            SnapshotError::VersionMismatch { found: 9, expected: SNAPSHOT_VERSION }
        );
        let msg = format!("{}", PlanCache::restore(&future).unwrap_err());
        assert!(msg.contains("version 9"), "unhelpful message: {msg}");
    }

    #[test]
    fn corruption_is_a_typed_error_with_a_line() {
        let mut c = PlanCache::new(2);
        c.insert(key(1), plan(1));
        let snap = c.snapshot();
        for bad in [
            snap.replacen("entry", "entry x", 1),
            snap.replacen(" 256 ", " -256 ", 1),
            snap.replace(&format!("scalfrag-plan-cache v{SNAPSHOT_VERSION}"), "something else"),
            String::new(),
        ] {
            match PlanCache::restore(&bad) {
                Err(SnapshotError::Corrupt { line, .. }) => assert!(line >= 1),
                other => panic!("expected Corrupt, got {other:?} for {bad:?}"),
            }
        }
    }

    #[test]
    fn a_duplicate_key_is_corrupt() {
        let mut c = PlanCache::new(4);
        c.insert(key(1), plan(1));
        c.insert(key(2), plan(2));
        let snap = c.snapshot();
        // Entry lines are sorted by key, and `nnz_bucket` is the key's
        // fourth field: point the second entry at the first one's key.
        let dup = snap.replacen("entry 3 0 16 2 ", "entry 3 0 16 1 ", 1);
        assert_ne!(dup, snap);
        assert_eq!(
            PlanCache::restore(&dup).unwrap_err(),
            SnapshotError::Corrupt { line: 4, reason: "duplicate key".to_string() }
        );
    }

    #[test]
    fn version_one_snapshots_are_refused_with_a_typed_error() {
        let v1 = "scalfrag-plan-cache v1\ncapacity 4 tick 2\n\
                  entry 3 0 16 1 10 12 14 8 1 2 1 2 | 64 256 0 tiled 4 4 - | 1\n";
        assert_eq!(
            PlanCache::restore(v1).unwrap_err(),
            SnapshotError::VersionMismatch { found: 1, expected: SNAPSHOT_VERSION }
        );
    }
}
