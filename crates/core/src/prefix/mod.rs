//! Prefix-reuse cache for synthesis-sequence evaluation.
//!
//! Applying a K-pass sequence per candidate (the paper's Eq. 1 black box)
//! replays every pass from the base circuit — yet the candidates our
//! optimisers generate overwhelmingly share prefixes: trust-region
//! Hamming-ball moves keep most positions fixed, the greedy constructor
//! extends one prefix eleven ways per position, GA mutations touch a few
//! positions. [`PrefixCache`] stores the intermediate AIG after each
//! applied prefix, so [`QorEvaluator::compute`](crate::QorEvaluator)
//! resumes from the longest cached prefix and only replays the suffix.
//!
//! The cache is sharded behind `RwLock`s (worker threads of the
//! [`BatchEvaluator`](crate::BatchEvaluator) share it through the
//! evaluator), bounded by an entry capacity with least-recently-touched
//! eviction so memory stays flat on long sweeps, and purely an
//! accelerator: every transform is a deterministic function of its input
//! AIG, so resuming from a cached intermediate yields bit-identical
//! results to a full replay — at any thread count, with the cache on or
//! off.
//!
//! A second, disk-backed tier — [`PersistentPrefixStore`] — survives the
//! evaluator: intermediate AIGs are serialised as binary AIGER keyed by
//! (circuit content hash, token prefix), so sweeps over seeds and methods
//! on the same circuit reuse synthesis work across *processes*. Lookups
//! consult memory first, then disk; the same bit-identity guarantee holds
//! with the store on, off, or pre-warmed by a different process.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use boils_aig::Aig;

mod store;

pub use store::{PersistentPrefixStore, TransferDonor, DEFAULT_PERSIST_BYTE_BUDGET};

/// Number of lock shards (same rationale as the value cache: synthesis
/// passes dwarf a cache probe, the shards just keep writers apart).
const SHARD_COUNT: usize = 8;

/// Default bound on cached intermediate AIGs. At the paper's `K = 20`, a
/// 200-evaluation BOiLS run touches at most 4 000 prefixes; the default
/// keeps a full default-config run resident while bounding long sweeps.
pub const DEFAULT_PREFIX_CAPACITY: usize = 4096;

/// Counters describing how much replay work the cache saved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefixStats {
    /// Evaluations that resumed from a non-empty cached prefix.
    pub prefix_hits: usize,
    /// Synthesis passes actually applied (the replayed suffixes).
    pub passes_applied: usize,
    /// Synthesis passes skipped by resuming from cached prefixes.
    pub passes_saved: usize,
    /// Entries evicted to respect the capacity bound.
    pub evictions: usize,
    /// Evaluations that resumed from a prefix restored off disk (the
    /// [`PersistentPrefixStore`] tier); zero when no store is attached.
    pub disk_hits: usize,
    /// Intermediate AIGs newly serialised to the persistent store.
    pub disk_writes: usize,
    /// Persistent entries dropped because they failed validation
    /// (truncated, checksum mismatch, wrong key, unparsable).
    pub disk_corrupt_dropped: usize,
    /// Persistent entries evicted to respect the store's byte budget.
    pub disk_evictions: usize,
    /// Entry writes that ultimately failed after retries. The store
    /// degrades gracefully: a failed write is only a lost reuse
    /// opportunity, never a wrong value.
    pub disk_write_failures: usize,
    /// Write attempts retried after a transient failure (torn/short
    /// writes and I/O errors; each successful retry avoids counting a
    /// failure).
    pub disk_retries: usize,
    /// If the store's circuit breaker tripped — too many consecutive hard
    /// write failures — the 1-based disk-operation ordinal at which it
    /// flipped to memory-only; `None` while the store is healthy
    /// (including after a successful half-open probe re-enabled it).
    pub store_disabled_at: Option<usize>,
    /// Times a half-open probe write landed on a recovered disk and
    /// re-enabled a breaker-tripped store.
    pub store_reenables: usize,
    /// Stores that found their intermediate's payload already on disk —
    /// written for another prefix, another circuit, or another process —
    /// and only added a pointer (the content-addressed dedup tier).
    pub dedup_hits: usize,
    /// Payload bytes *not* written thanks to dedup: the on-disk size of
    /// each already-present payload a store call would otherwise have
    /// serialised again.
    pub payload_bytes_saved: u64,
    /// Per-(circuit, prefix) pointer entries the store currently tracks
    /// (several pointers may share one content-addressed payload).
    pub pointer_entries: usize,
}

#[derive(Debug)]
struct Entry {
    aig: Arc<Aig>,
    /// Logical last-touch time, updated on every hit (lock-free under the
    /// shard's read lock).
    touched: AtomicU64,
}

/// A bounded, sharded map from token prefixes to intermediate AIGs.
#[derive(Debug)]
pub struct PrefixCache {
    shards: [RwLock<HashMap<Vec<u8>, Entry>>; SHARD_COUNT],
    clock: AtomicU64,
    capacity: usize,
    prefix_hits: AtomicUsize,
    passes_applied: AtomicUsize,
    passes_saved: AtomicUsize,
    evictions: AtomicUsize,
}

impl PrefixCache {
    /// An empty cache bounded to `capacity` intermediate AIGs (clamped to
    /// at least one per shard).
    pub fn new(capacity: usize) -> PrefixCache {
        PrefixCache {
            shards: Default::default(),
            clock: AtomicU64::new(0),
            capacity: capacity.max(SHARD_COUNT),
            prefix_hits: AtomicUsize::new(0),
            passes_applied: AtomicUsize::new(0),
            passes_saved: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }

    fn shard(&self, key: &[u8]) -> &RwLock<HashMap<Vec<u8>, Entry>> {
        &self.shards[crate::eval::shard_index(key, SHARD_COUNT)]
    }

    /// The longest cached proper-or-full prefix of `tokens`, as
    /// `(prefix_length, intermediate_aig)`. Probes from the full length
    /// down — at most `K` hash lookups, trivial next to one synthesis pass.
    pub fn longest_prefix(&self, tokens: &[u8]) -> Option<(usize, Arc<Aig>)> {
        for len in (1..=tokens.len()).rev() {
            let key = &tokens[..len];
            let shard = crate::eval::read_lock(self.shard(key));
            if let Some(entry) = shard.get(key) {
                entry.touched.store(
                    self.clock.fetch_add(1, Ordering::Relaxed),
                    Ordering::Relaxed,
                );
                return Some((len, Arc::clone(&entry.aig)));
            }
        }
        None
    }

    /// Stores the intermediate AIG reached after applying `prefix`,
    /// evicting the least-recently-touched entries in the shard if the
    /// capacity bound is exceeded. Racing inserts of the same prefix keep
    /// the first value (all racers hold identical AIGs — the transform
    /// pipeline is deterministic).
    pub fn insert(&self, prefix: &[u8], aig: Arc<Aig>) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let per_shard = self.capacity.div_ceil(SHARD_COUNT);
        let mut shard = crate::eval::write_lock(self.shard(prefix));
        use std::collections::hash_map::Entry as MapEntry;
        match shard.entry(prefix.to_vec()) {
            MapEntry::Occupied(e) => {
                e.get().touched.store(stamp, Ordering::Relaxed);
                return;
            }
            MapEntry::Vacant(v) => {
                v.insert(Entry {
                    aig,
                    touched: AtomicU64::new(stamp),
                });
            }
        }
        while shard.len() > per_shard {
            let oldest = shard
                .iter()
                .min_by_key(|(_, e)| e.touched.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
                .expect("non-empty shard");
            shard.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one evaluation's replay accounting: how long the reused
    /// prefix was and how many passes were applied on top of it.
    pub fn record_replay(&self, reused: usize, applied: usize) {
        if reused > 0 {
            self.prefix_hits.fetch_add(1, Ordering::Relaxed);
            self.passes_saved.fetch_add(reused, Ordering::Relaxed);
        }
        self.passes_applied.fetch_add(applied, Ordering::Relaxed);
    }

    /// Number of cached intermediate AIGs.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| crate::eval::read_lock(s).len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the replay-savings counters.
    pub fn stats(&self) -> PrefixStats {
        PrefixStats {
            prefix_hits: self.prefix_hits.load(Ordering::Relaxed),
            passes_applied: self.passes_applied.load(Ordering::Relaxed),
            passes_saved: self.passes_saved.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            ..PrefixStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boils_aig::random_aig;

    fn arc_aig(seed: u64) -> Arc<Aig> {
        Arc::new(random_aig(seed, 4, 30, 2))
    }

    #[test]
    fn longest_prefix_prefers_the_deepest_entry() {
        let cache = PrefixCache::new(64);
        assert!(cache.longest_prefix(&[1, 2, 3]).is_none());
        cache.insert(&[1], arc_aig(1));
        cache.insert(&[1, 2], arc_aig(2));
        let (len, aig) = cache.longest_prefix(&[1, 2, 3]).expect("hit");
        assert_eq!(len, 2);
        assert_eq!(aig.num_ands(), arc_aig(2).num_ands());
        // The full sequence itself counts as a prefix.
        cache.insert(&[1, 2, 3], arc_aig(3));
        assert_eq!(cache.longest_prefix(&[1, 2, 3]).expect("hit").0, 3);
        // A diverging sequence only matches the shared part.
        assert_eq!(cache.longest_prefix(&[1, 9, 3]).expect("hit").0, 1);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_touched() {
        let cache = PrefixCache::new(SHARD_COUNT); // one entry per shard
        for i in 0..64u8 {
            cache.insert(&[i, i.wrapping_mul(13)], arc_aig(u64::from(i)));
        }
        assert!(cache.len() <= SHARD_COUNT);
        assert!(cache.stats().evictions >= 64 - SHARD_COUNT);
    }

    #[test]
    fn replay_accounting_sums_passes() {
        let cache = PrefixCache::new(64);
        cache.record_replay(0, 5); // cold evaluation: 5 passes applied
        cache.record_replay(3, 2); // resumed at depth 3, replayed 2
        let stats = cache.stats();
        assert_eq!(stats.prefix_hits, 1);
        assert_eq!(stats.passes_applied, 7);
        assert_eq!(stats.passes_saved, 3);
    }

    #[test]
    fn racing_inserts_keep_the_first_value() {
        let cache = PrefixCache::new(64);
        let first = arc_aig(7);
        cache.insert(&[4, 5], Arc::clone(&first));
        cache.insert(&[4, 5], arc_aig(8));
        let (_, aig) = cache.longest_prefix(&[4, 5]).expect("hit");
        assert!(Arc::ptr_eq(&aig, &first));
    }
}
