//! The block cache: a shard-aware, byte-budgeted LRU over decoded
//! TsFile pages.
//!
//! Page decoding (TS_2DIFF timestamps plus a per-type value codec) is
//! the dominant cost of a disk read once the chunk index and key filter
//! have done their pruning. The cache keeps recently decoded pages —
//! keyed `(file id, chunk offset, page index)` — behind `Arc`s, as the
//! typed columns the decoder produced (a timestamp `Vec<i64>` beside a
//! [`ValueColumn`]: 16 bytes a DOUBLE point), so a hot window query
//! re-serves sub-slices of the same decoded columns without touching
//! the image bytes again.
//!
//! Structure: [`CACHE_SHARDS`] independent mutex-protected segments,
//! selected by key hash, each holding a hash map plus a lazy LRU queue
//! (on every touch the entry's fresh stamp is pushed; eviction pops
//! stale stamps until it finds a live one). The mutexes are strict leaf
//! locks: no path acquires a shard's `RwLock` or performs I/O while
//! holding one, so they can be taken from deep inside the read path —
//! including under an engine shard read lock — without ordering risk.
//!
//! Budgeting is per segment (`budget / CACHE_SHARDS`), byte-accounted by
//! an estimate of each decoded page's heap footprint; [`BlockCache::bytes`]
//! sums it. The `cache.{hits,misses,evictions}` counters record into the
//! engine's registry; a zero byte budget disables the cache entirely
//! (the engine then never constructs one).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::batch::ValueColumn;
use crate::tsfile::PageColumns;

/// Independent cache segments; key hash picks one, so concurrent
/// readers on different files rarely contend.
pub const CACHE_SHARDS: usize = 8;

/// A decoded page: the full page's columns, unfiltered (queries borrow
/// their range out of the shared `Arc` as sub-slices).
pub type CachedPage = Arc<PageColumns>;

/// Identifies one page of one chunk of one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageKey {
    /// Engine-unique file id.
    pub file: u64,
    /// Byte offset of the chunk within the file.
    pub chunk: u64,
    /// Page ordinal within the chunk.
    pub page: u32,
}

impl PageKey {
    fn shard(&self) -> usize {
        // fnv1a over the three fields — cheap and well-spread.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self
            .file
            .to_le_bytes()
            .into_iter()
            .chain(self.chunk.to_le_bytes())
            .chain(self.page.to_le_bytes())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        (h % CACHE_SHARDS as u64) as usize
    }
}

/// Estimated heap bytes of a decoded page — both columns at their real
/// element widths, plus text payloads — the unit the byte budget is
/// accounted in.
pub fn page_bytes(page: &PageColumns) -> usize {
    let (times, values) = page;
    let value_bytes = match values {
        ValueColumn::Int(c) => std::mem::size_of_val(c.as_slice()),
        ValueColumn::Long(c) => std::mem::size_of_val(c.as_slice()),
        ValueColumn::Float(c) => std::mem::size_of_val(c.as_slice()),
        ValueColumn::Double(c) => std::mem::size_of_val(c.as_slice()),
        ValueColumn::Bool(c) => std::mem::size_of_val(c.as_slice()),
        ValueColumn::Text(c) => {
            std::mem::size_of_val(c.as_slice()) + c.iter().map(String::len).sum::<usize>()
        }
    };
    64 + std::mem::size_of_val(times.as_slice()) + value_bytes
}

struct Entry {
    page: CachedPage,
    bytes: usize,
    stamp: u64,
}

#[derive(Default)]
struct Segment {
    map: HashMap<PageKey, Entry>,
    /// Lazy LRU order: `(key, stamp)` pushed on every touch; a popped
    /// pair whose stamp no longer matches the live entry is stale and
    /// skipped.
    queue: VecDeque<(PageKey, u64)>,
    bytes: usize,
    tick: u64,
}

impl Segment {
    fn touch(&mut self, key: PageKey) -> Option<CachedPage> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(&key)?;
        entry.stamp = tick;
        self.queue.push_back((key, tick));
        Some(Arc::clone(&entry.page))
    }

    /// Inserts (or replaces) and evicts least-recently-touched entries
    /// until this segment fits its budget. Returns the evictions.
    fn insert(&mut self, key: PageKey, page: CachedPage, budget: usize) -> u64 {
        self.tick += 1;
        let bytes = page_bytes(&page);
        if let Some(old) = self.map.insert(
            key,
            Entry {
                page,
                bytes,
                stamp: self.tick,
            },
        ) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.queue.push_back((key, self.tick));
        let mut evictions = 0u64;
        while self.bytes > budget && self.map.len() > 1 {
            let Some((victim, stamp)) = self.queue.pop_front() else {
                break;
            };
            if victim == key {
                // Never evict the entry just inserted: re-queue it so a
                // single oversized page cannot churn the whole segment.
                self.queue.push_back((victim, stamp));
                if self.queue.len() == 1 {
                    break;
                }
                continue;
            }
            let live = self.map.get(&victim).is_some_and(|e| e.stamp == stamp);
            if live {
                if let Some(entry) = self.map.remove(&victim) {
                    self.bytes -= entry.bytes;
                    evictions += 1;
                }
            }
        }
        // The lazy queue accumulates stale stamps on hot entries; compact
        // it when it dwarfs the live set so memory stays bounded.
        if self.queue.len() > self.map.len().saturating_mul(8) + 16 {
            let map = &self.map;
            self.queue
                .retain(|(k, stamp)| map.get(k).is_some_and(|e| e.stamp == *stamp));
        }
        evictions
    }
}

/// The shard-aware, byte-budgeted decoded-page cache.
pub struct BlockCache {
    segments: Vec<Mutex<Segment>>,
    budget_per_segment: usize,
    hits: Arc<backsort_obs::Counter>,
    misses: Arc<backsort_obs::Counter>,
    evictions: Arc<backsort_obs::Counter>,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("budget_per_segment", &self.budget_per_segment)
            .field("bytes", &self.bytes())
            .finish()
    }
}

impl BlockCache {
    /// Builds a cache with a total byte budget, recording its counters
    /// into `registry`. Budgets below one byte per segment still work
    /// (each segment keeps at least its most recent entry).
    pub fn new(budget_bytes: usize, registry: &backsort_obs::Registry) -> Self {
        Self {
            segments: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(Segment::default()))
                .collect(),
            budget_per_segment: budget_bytes / CACHE_SHARDS,
            hits: registry.counter(backsort_obs::names::CACHE_HITS),
            misses: registry.counter(backsort_obs::names::CACHE_MISSES),
            evictions: registry.counter(backsort_obs::names::CACHE_EVICTIONS),
        }
    }

    fn segment(&self, key: &PageKey) -> &Mutex<Segment> {
        let idx = key.shard() % self.segments.len().max(1);
        // analyzer:allow(panic-freedom): idx is reduced modulo the (constant, nonzero) segment count, so get() cannot miss; the fallback keeps the lint's no-index rule satisfied
        self.segments.get(idx).unwrap_or_else(|| unreachable!())
    }

    /// Looks a page up, bumping its recency. Counts a hit or miss, both
    /// on the registry counters and — when a trace is active — as
    /// attributes of the innermost open span, so a traced query's
    /// cache behaviour matches the counter deltas exactly.
    pub fn get(&self, key: PageKey) -> Option<CachedPage> {
        let page = self.segment(&key).lock().touch(key);
        match &page {
            Some(_) => {
                self.hits.inc();
                backsort_obs::trace::add_attr(backsort_obs::names::ATTR_CACHE_HITS, 1);
            }
            None => {
                self.misses.inc();
                backsort_obs::trace::add_attr(backsort_obs::names::ATTR_CACHE_MISSES, 1);
            }
        }
        page
    }

    /// Inserts a decoded page, evicting LRU entries past the budget.
    pub fn insert(&self, key: PageKey, page: CachedPage) {
        let evictions = self
            .segment(&key)
            .lock()
            .insert(key, page, self.budget_per_segment);
        if evictions > 0 {
            self.evictions.add(evictions);
        }
    }

    /// Current accounted bytes across all segments.
    pub fn bytes(&self) -> usize {
        self.segments.iter().map(|s| s.lock().bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> backsort_obs::Registry {
        backsort_obs::Registry::new()
    }

    fn page(n: usize, v: i64) -> CachedPage {
        Arc::new(((0..n as i64).collect(), ValueColumn::Long(vec![v; n])))
    }

    fn key(file: u64, page_idx: u32) -> PageKey {
        PageKey {
            file,
            chunk: 6,
            page: page_idx,
        }
    }

    #[test]
    fn hit_miss_and_bytes_accounting() {
        let reg = registry();
        let cache = BlockCache::new(1 << 20, &reg);
        assert!(cache.get(key(1, 0)).is_none());
        cache.insert(key(1, 0), page(10, 7));
        let got = cache.get(key(1, 0)).expect("present");
        assert_eq!(got.0.len(), 10);
        assert_eq!(reg.counter_value(backsort_obs::names::CACHE_HITS), 1);
        assert_eq!(reg.counter_value(backsort_obs::names::CACHE_MISSES), 1);
        assert_eq!(cache.bytes(), page_bytes(&page(10, 7)));
    }

    #[test]
    fn page_bytes_accounts_real_widths() {
        let times: Vec<i64> = (0..1024).collect();
        let overhead = page_bytes(&(Vec::new(), ValueColumn::Bool(Vec::new())));
        let bytes = |values: ValueColumn| page_bytes(&(times.clone(), values)) - overhead;
        assert_eq!(bytes(ValueColumn::Double(vec![0.5; 1024])), 1024 * 16);
        assert_eq!(bytes(ValueColumn::Long(vec![7; 1024])), 1024 * 16);
        assert_eq!(bytes(ValueColumn::Int(vec![7; 1024])), 1024 * 12);
        assert_eq!(bytes(ValueColumn::Float(vec![0.5; 1024])), 1024 * 12);
        assert_eq!(bytes(ValueColumn::Bool(vec![true; 1024])), 1024 * 9);
        let text = ValueColumn::Text(vec!["abcde".to_string(); 1024]);
        assert_eq!(
            bytes(text),
            1024 * (8 + std::mem::size_of::<String>() + 5),
            "text pages count their payload bytes"
        );
    }

    #[test]
    fn replacing_an_entry_does_not_leak_bytes() {
        let reg = registry();
        let cache = BlockCache::new(1 << 20, &reg);
        cache.insert(key(1, 0), page(10, 1));
        let b = cache.bytes();
        cache.insert(key(1, 0), page(10, 2));
        assert_eq!(cache.bytes(), b, "same-size replacement keeps bytes flat");
        assert_eq!(
            cache.get(key(1, 0)).expect("live").1,
            ValueColumn::Long(vec![2; 10])
        );
    }

    #[test]
    fn budget_evicts_least_recently_used() {
        let reg = registry();
        // Tiny budget: each segment fits roughly two 10-point pages.
        let one = page_bytes(&page(10, 0));
        let cache = BlockCache::new(one * 2 * CACHE_SHARDS, &reg);
        // Keys colliding into one segment: same key fields except page,
        // may scatter — so instead hammer one segment via identical key
        // variants and verify the global invariant: bytes never exceeds
        // per-segment budget times segments, and evictions fire.
        for i in 0..64u32 {
            cache.insert(key(1, i), page(10, i64::from(i)));
        }
        assert!(
            reg.counter_value(backsort_obs::names::CACHE_EVICTIONS) > 0,
            "64 inserts into a ~16-page budget must evict"
        );
        assert!(
            cache.bytes() <= one * 2 * CACHE_SHARDS + one * CACHE_SHARDS,
            "accounted bytes stay near budget (at most one overshoot entry per segment)"
        );
        // The most recent insert always survives.
        assert!(cache.get(key(1, 63)).is_some());
    }

    #[test]
    fn oversized_page_does_not_wipe_the_segment() {
        let reg = registry();
        let cache = BlockCache::new(64 * CACHE_SHARDS, &reg);
        cache.insert(key(2, 0), page(1_000, 5)); // far over budget
        assert!(
            cache.get(key(2, 0)).is_some(),
            "a single entry is kept even when it exceeds the budget"
        );
    }

    #[test]
    fn recency_protects_hot_entries() {
        let reg = registry();
        let one = page_bytes(&page(10, 0));
        let cache = BlockCache::new(one * 3 * CACHE_SHARDS, &reg);
        cache.insert(key(3, 0), page(10, 0));
        for i in 1..200u32 {
            // Keep touching page 0 while streaming others through.
            cache.get(key(3, 0));
            cache.insert(key(3, i), page(10, i64::from(i)));
        }
        assert!(
            cache.get(key(3, 0)).is_some(),
            "the continuously-touched entry must survive the stream"
        );
    }
}
