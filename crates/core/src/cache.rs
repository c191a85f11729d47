//! Cross-wave decompressed-page cache.
//!
//! The service re-plans overlapping full scans on every scheduler wave;
//! without a cache each wave re-reads and re-decompresses the same pages.
//! [`PageCache`] keeps recently decompressed page text in host memory,
//! keyed by page id and bounded by a byte budget
//! ([`crate::SystemConfig::page_cache_bytes`]).
//!
//! **Invalidation.** Data pages are append-only: once written, a page's
//! text never changes, so an ingest adds pages and invalidates nothing.
//! Entries leave only where their pages die or may change: retention
//! [`PageCache::remove`]s the dropped pages, mutable device access
//! [`PageCache::clear`]s the cache, and a mount starts with an empty one.
//!
//! **Scan resistance.** A wave whose planned pages hold more text than the
//! cache would, under LRU, evict every page before its next use. Such a
//! wave caches its misses with [`PageCache::fill`], which takes free room
//! only and never evicts, so repeated scans larger than the cache keep a
//! stable share of their pages decoded and leave what smaller waves cached
//! in place. Every other wave inserts with [`PageCache::insert`] (LRU).
//!
//! **Accounting.** A hit is a physical saving, exactly like a shared read:
//! the consumer's as-if-solo ledger is charged the full page read it would
//! have issued, while the device-level ledger records `cache_hits` /
//! `cache_bytes_saved` instead of a flash access. Query outcomes and
//! modeled times are therefore byte-identical with the cache on or off.
//!
//! The cache is sharded by page id so the N scan workers of the parallel
//! datapath rarely contend on one lock; each shard runs its own strict LRU
//! over an insertion-time byte budget.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};

/// Lock shards. Page ids stripe `id % SHARDS`, matching how consecutive
/// pages stripe across scan workers, so a parallel scan's workers touch
/// different shards most of the time.
const SHARDS: u64 = 8;

/// One cached page: the decompressed text plus the stored (raw) page length
/// a flash read of it would have charged.
#[derive(Debug, Clone)]
pub struct CachedPage {
    /// Decompressed page text, shared with the cache.
    pub text: Arc<Vec<u8>>,
    /// Length in bytes of the raw stored page — the `bytes_read` charge a
    /// fresh read would have recorded, replayed onto as-if-solo ledgers on
    /// a hit.
    pub raw_len: u64,
}

#[derive(Debug)]
struct Entry {
    text: Arc<Vec<u8>>,
    raw_len: u64,
    /// Key into the shard's LRU order map; refreshed on every hit.
    tick: u64,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    /// LRU order: tick → page. Ticks are shard-local and strictly
    /// increasing, so the first entry is always the least recently used.
    order: BTreeMap<u64, u64>,
    bytes: u64,
    next_tick: u64,
}

impl Shard {
    fn touch(&mut self, key: u64) {
        let tick = self.next_tick;
        self.next_tick += 1;
        if let Some(entry) = self.map.get_mut(&key) {
            self.order.remove(&entry.tick);
            entry.tick = tick;
            self.order.insert(tick, key);
        }
    }

    fn push(&mut self, key: u64, text: Arc<Vec<u8>>, raw_len: u64) {
        let tick = self.next_tick;
        self.next_tick += 1;
        self.bytes += text.len() as u64;
        self.map.insert(
            key,
            Entry {
                text,
                raw_len,
                tick,
            },
        );
        self.order.insert(tick, key);
    }

    fn remove(&mut self, key: u64) {
        if let Some(entry) = self.map.remove(&key) {
            self.order.remove(&entry.tick);
            self.bytes -= entry.text.len() as u64;
        }
    }

    fn evict_to(&mut self, budget: u64) {
        while self.bytes > budget {
            let Some((_, key)) = self.order.pop_first() else {
                break;
            };
            if let Some(entry) = self.map.remove(&key) {
                self.bytes -= entry.text.len() as u64;
            }
        }
    }
}

/// A sharded, byte-bounded LRU cache of decompressed pages (module docs
/// cover keying, invalidation and ledger attribution).
#[derive(Debug)]
pub struct PageCache {
    shards: Vec<Mutex<Shard>>,
    /// The whole byte budget, as configured.
    capacity: u64,
    /// Byte budget per shard (total capacity divided evenly).
    shard_budget: u64,
}

impl PageCache {
    /// A cache bounded by `capacity_bytes` of decompressed text. A zero
    /// capacity yields a cache that stores nothing (every lookup misses).
    pub fn new(capacity_bytes: u64) -> Self {
        PageCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            capacity: capacity_bytes,
            shard_budget: capacity_bytes / SHARDS,
        }
    }

    /// The byte budget the cache was built with.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    fn shard(&self, page: u64) -> MutexGuard<'_, Shard> {
        self.shards[(page % SHARDS) as usize]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up `page`, refreshing its LRU position on a hit.
    pub fn get(&self, page: u64) -> Option<CachedPage> {
        let mut shard = self.shard(page);
        shard.touch(page);
        shard.map.get(&page).map(|entry| CachedPage {
            text: Arc::clone(&entry.text),
            raw_len: entry.raw_len,
        })
    }

    /// Caches decompressed `text` for `page`, where `raw_len` is the stored
    /// page length a read charged. Entries larger than a shard's byte
    /// budget are not cached.
    pub fn insert(&self, page: u64, text: Arc<Vec<u8>>, raw_len: u64) {
        let cost = text.len() as u64;
        if cost > self.shard_budget {
            return;
        }
        let mut shard = self.shard(page);
        shard.remove(page);
        shard.push(page, text, raw_len);
        shard.evict_to(self.shard_budget);
    }

    /// The scan-resistant insert: caches a copy of `text` for `page` only
    /// if it fits in its shard's free room, and never evicts. The room
    /// check and the insert happen under one lock, and nothing is copied
    /// when the page does not fit. Returns whether the page is cached
    /// afterwards.
    pub fn fill(&self, page: u64, text: &[u8], raw_len: u64) -> bool {
        let mut shard = self.shard(page);
        if shard.map.contains_key(&page) {
            return true;
        }
        if shard.bytes + text.len() as u64 > self.shard_budget {
            return false;
        }
        shard.push(page, Arc::new(text.to_vec()), raw_len);
        true
    }

    /// Drops the entry for `page`, if any.
    pub fn remove(&self, page: u64) {
        self.shard(page).remove(page);
    }

    /// Drops every entry.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            shard.map.clear();
            shard.order.clear();
            shard.bytes = 0;
        }
    }

    /// Decompressed bytes currently held.
    pub fn bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .bytes
            })
            .sum()
    }

    /// Entries currently held.
    pub fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .map
                    .len()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(bytes: &[u8]) -> Arc<Vec<u8>> {
        Arc::new(bytes.to_vec())
    }

    #[test]
    fn get_returns_what_insert_stored() {
        let cache = PageCache::new(1 << 20);
        cache.insert(7, arc(b"hello page"), 4096);
        let hit = cache.get(7).expect("hit");
        assert_eq!(&hit.text[..], b"hello page");
        assert_eq!(hit.raw_len, 4096);
        assert!(cache.get(8).is_none());
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_per_shard() {
        // Shard budget = 4096/8 = 512 bytes; pages 0, 8, 16 share shard 0.
        let cache = PageCache::new(4096);
        cache.insert(0, arc(&[b'a'; 300]), 4096);
        cache.insert(8, arc(&[b'b'; 300]), 4096);
        assert!(cache.get(0).is_none(), "page 0 was LRU and evicted");
        assert!(cache.get(8).is_some());
        // A hit refreshes recency: 8 survives the next insert, not 16.
        cache.insert(16, arc(&[b'c'; 300]), 4096);
        assert!(cache.get(8).is_none() || cache.get(16).is_some());
        assert!(cache.bytes() <= 512);
    }

    #[test]
    fn hit_refreshes_lru_position() {
        let cache = PageCache::new(4096); // 512/shard
        cache.insert(0, arc(&[b'a'; 200]), 4096);
        cache.insert(8, arc(&[b'b'; 200]), 4096);
        cache.get(0); // 0 is now most recent
        cache.insert(16, arc(&[b'c'; 200]), 4096);
        assert!(cache.get(0).is_some(), "hit page must survive eviction");
        assert!(cache.get(8).is_none(), "LRU page must be evicted");
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let cache = PageCache::new(0);
        cache.insert(0, arc(b"text"), 4096);
        assert!(cache.get(0).is_none());
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let cache = PageCache::new(4096); // 512/shard
        cache.insert(0, arc(&[0u8; 1024]), 4096);
        assert!(cache.get(0).is_none());
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let cache = PageCache::new(1 << 20);
        cache.insert(0, arc(&[0u8; 100]), 4096);
        cache.insert(0, arc(&[0u8; 150]), 4096);
        assert_eq!(cache.bytes(), 150);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn fill_takes_free_room_and_never_evicts() {
        let cache = PageCache::new(4096); // 512/shard; 0, 8, 16 share shard 0
        assert!(cache.fill(0, &[b'a'; 300], 4096));
        assert!(!cache.fill(8, &[b'b'; 300], 4096), "no room: declined");
        assert!(cache.get(0).is_some(), "the resident page stays");
        assert!(cache.get(8).is_none());
        assert!(cache.fill(16, &[b'c'; 200], 4096), "what fits is taken");
        assert_eq!((cache.entries(), cache.bytes()), (2, 500));
        assert!(!cache.fill(24, &[b'd'; 13], 4096), "one byte over");
        assert!(cache.fill(0, &[b'z'; 300], 4096), "already cached");
        assert_eq!(&cache.get(0).unwrap().text[..], &[b'a'; 300][..]);
        assert_eq!((cache.entries(), cache.bytes()), (2, 500));
        // An LRU insert still evicts what the fill left.
        cache.insert(8, arc(&[b'b'; 300]), 4096);
        assert!(cache.get(8).is_some());
        assert!(cache.bytes() <= 512);
    }

    #[test]
    fn remove_and_clear_release_their_bytes() {
        let cache = PageCache::new(1 << 20);
        cache.insert(0, arc(&[0u8; 100]), 4096);
        cache.insert(1, arc(&[0u8; 200]), 4096);
        cache.insert(2, arc(&[0u8; 50]), 4096);
        cache.remove(1);
        cache.remove(3); // absent: nothing happens
        assert_eq!((cache.entries(), cache.bytes()), (2, 150));
        assert!(cache.get(2).is_some());
        cache.clear();
        assert_eq!((cache.entries(), cache.bytes()), (0, 0));
        assert!(cache.get(0).is_none());
        cache.insert(0, arc(&[0u8; 100]), 4096);
        assert_eq!(cache.bytes(), 100, "a cleared cache fills again");
    }

    #[test]
    fn cache_is_shareable_across_scan_workers() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<PageCache>();
    }
}
