//! The storage engine: working/flushing/unsequence memtables sharded by
//! device, the separation policy, and sorted time-range queries.
//!
//! # Sharding
//!
//! The engine is split into [`EngineConfig::shards`] shards, each owning
//! its own working/flushing/unsequence memtables, flush watermarks, file
//! images and tombstones behind a `parking_lot::RwLock`. A point's shard
//! is the FNV-1a hash of its *device* string modulo the shard count, so
//! all sensors of one device — and therefore every point of one series —
//! live in exactly one shard. Writes to different devices and queries on
//! different devices proceed in parallel.
//!
//! With `shards == 1` (the default) the engine degenerates to the
//! paper-faithful single-lock configuration: one lock serializes writes,
//! flushes and queries, reproducing §VI-D1's "the query process in IoTDB
//! takes the lock and blocks the write process". All figure
//! reproductions run in that mode.
//!
//! # Lock order
//!
//! The deadlock-freedom rule is simple and global: **at most one shard
//! lock is ever held at a time.** Single-series operations (write,
//! query, delete, latest-time) touch only their key's shard.
//! Multi-shard operations ([`StorageEngine::flush`],
//! [`StorageEngine::flush_unseq`], [`StorageEngine::adopt_file`],
//! compaction, and the metrics accessors)
//! visit shards in **ascending index order**, releasing each shard's
//! lock before taking the next. No code path nests shard locks.
//! Compaction's mutex, which serializes compactions, is taken before
//! any shard lock and never under one. So is the store's mutex
//! ([`StorageEngine::open`]), never held together with compaction's.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use backsort_core::Algorithm;
use backsort_faults::FailpointRegistry;
use backsort_obs::trace as obs_trace;
use backsort_obs::{names, Counter, Gauge, Histogram, Registry};
use parking_lot::{Mutex, RwLock};

use crate::cache::BlockCache;
use crate::compaction::CompactionConfig;
use crate::delete::Tombstone;
use crate::flush::{FlushJob, FlushMetrics};
use crate::memtable::MemTable;
use crate::read::FileHandle;
use crate::store::Store;
use crate::types::SeriesKey;

/// Engine tunables. There is no memory-layout knob: a memtable keeps
/// each series as one flat `(time, value)` vector that grows as plain
/// `Vec`s do, and rotates at `memtable_max_points`.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Points per memtable before it rotates into flushing — the paper's
    /// "100,000 is the appropriate memory points size in the IoTDB"
    /// (§VI-A3). The budget applies *per shard*.
    pub memtable_max_points: usize,
    /// The sort algorithm under test.
    pub sorter: Algorithm,
    /// Number of device-hash shards. `1` (the default) reproduces the
    /// paper's single-lock engine exactly; values `> 1` let writes and
    /// queries on different devices proceed in parallel. `0` is treated
    /// as `1`.
    pub shards: usize,
    /// Total byte budget of the decoded-page block cache
    /// ([`BlockCache`]); `0` disables caching entirely (every disk read
    /// decodes from the image).
    pub cache_bytes: usize,
    /// Leveled compaction policy knobs.
    pub compaction: CompactionConfig,
    /// Trace one in every `trace_sample_n` engine queries as a full
    /// hierarchical span tree (see [`backsort_obs::trace`]); `0`
    /// disables engine-initiated query traces entirely. `EXPLAIN
    /// ANALYZE` traces bypass sampling, and flush/compaction traces are
    /// always taken (they are orders of magnitude rarer than queries).
    pub trace_sample_n: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            memtable_max_points: 100_000,
            sorter: Algorithm::Backward(backsort_core::BackwardSort::default()),
            shards: 1,
            cache_bytes: 16 << 20,
            compaction: CompactionConfig::default(),
            trace_sample_n: 16,
        }
    }
}

#[derive(Debug, Default)]
pub(crate) struct ShardState {
    pub(crate) working: MemTable,
    /// The rotated memtable an asynchronous flush is writing out, owned
    /// here alone until the flush installs its file: queries read it
    /// (sorting its buffers in place when dirty), deletes edit it, and
    /// the flush copies it out series by series under the read lock.
    pub(crate) flushing: Option<MemTable>,
    /// The slot occupant's stamp, drawn from the engine's one counter
    /// when it rotated in and kept by the file it becomes, and whether
    /// it is an unsequence memtable: its [`FlushJob`] carries both.
    pub(crate) slot_generation: u64,
    pub(crate) slot_unseq: bool,
    pub(crate) unseq: MemTable,
    /// Per-sensor flush watermark: timestamps `<=` this have been flushed,
    /// so later arrivals below it are "very long delayed" and take the
    /// unsequence path (the separation policy, paper §II).
    pub(crate) watermarks: HashMap<SeriesKey, i64>,
    /// Flushed files in merge rank, oldest first, each parsed once into
    /// a [`FileHandle`] when installed (flush, adoption, compaction) —
    /// queries prune and read through the cached chunk index and never
    /// re-parse a footer. A handle's id is its stamp, which decides
    /// which tombstones mask it; its position decides last-write-wins.
    /// Durable persistence keys on the id, so compaction replacing a
    /// shard's files is observable as ids disappearing and a new id
    /// arriving. Flushes and adoptions only append; only a compaction
    /// swap (`compaction.rs`, under [`StorageEngine`]'s compaction
    /// mutex) removes files.
    pub(crate) files: Vec<FileHandle>,
    /// Pending range deletions. Each masks the files, and the slot's
    /// occupant, stamped below its own stamp: data written after the
    /// delete is never erased. One is kept while something it masks is.
    pub(crate) tombstones: Vec<Tombstone>,
}

impl ShardState {
    /// The flushing slot's memtable while it is still the one rotated
    /// as `generation`; `None` once that rotation was installed.
    pub(crate) fn slot(&self, generation: u64) -> Option<&MemTable> {
        self.flushing
            .as_ref()
            .filter(|_| self.slot_generation == generation)
    }

    /// A job for the slot's occupant, `None` when the slot is free.
    pub(crate) fn occupant(&self, shard: usize) -> Option<FlushJob> {
        self.flushing.as_ref().map(|_| FlushJob {
            shard,
            generation: self.slot_generation,
            unseq: self.slot_unseq,
        })
    }

    /// The shard's memtables in ascending merge rank — the slot's, the
    /// working one, the unsequence one: on a shared timestamp the later
    /// wins, because it is the younger (DESIGN.md §3).
    pub(crate) fn memtables(&self) -> impl Iterator<Item = &MemTable> {
        self.flushing.iter().chain([&self.working, &self.unseq])
    }

    /// The working memtable, or with `unseq` the unsequence one.
    pub(crate) fn memtable(&mut self, unseq: bool) -> &mut MemTable {
        if unseq {
            &mut self.unseq
        } else {
            &mut self.working
        }
    }
}

/// Handles into the engine's [`Registry`], cached at construction so hot
/// paths record through lock-free `Arc`s and never take the registry's
/// name-map lock. (The registry itself pre-registers the whole catalog.)
#[derive(Debug)]
pub(crate) struct EngineObs {
    pub(crate) registry: Arc<Registry>,
    pub(crate) batch_append_nanos: Arc<Histogram>,
    pub(crate) type_mismatch_rejects: Arc<Counter>,
    pub(crate) write_points: Arc<Counter>,
    pub(crate) flush_queue_depth: Arc<Gauge>,
    pub(crate) read_path: Arc<Counter>,
    pub(crate) sorted_on_read: Arc<Counter>,
    pub(crate) files_considered: Arc<Counter>,
    pub(crate) files_pruned: Arc<Counter>,
    pub(crate) files_pruned_by_filter: Arc<Counter>,
    pub(crate) rows_merged: Arc<Counter>,
    pub(crate) pages_decoded: Arc<Counter>,
    pub(crate) pages_from_header: Arc<Counter>,
    pub(crate) file_parse: Arc<Counter>,
    pub(crate) ooo_points: Arc<Counter>,
    pub(crate) delta_tau: Arc<Histogram>,
    pub(crate) dirty_buffer_points: Arc<Histogram>,
    pub(crate) flush_count: Arc<Counter>,
    pub(crate) flush_sort_nanos: Arc<Counter>,
    pub(crate) flush_encode_nanos: Arc<Counter>,
    pub(crate) flush_write_nanos: Arc<Counter>,
    pub(crate) flush_points: Arc<Counter>,
    pub(crate) flush_bytes: Arc<Counter>,
}

impl EngineObs {
    fn new(registry: Arc<Registry>) -> Self {
        Self {
            batch_append_nanos: registry.histogram(names::MEMTABLE_BATCH_APPEND_NANOS),
            type_mismatch_rejects: registry.counter(names::MEMTABLE_TYPE_MISMATCH_REJECTS),
            write_points: registry.counter(names::ENGINE_WRITE_POINTS),
            flush_queue_depth: registry.gauge(names::ENGINE_FLUSH_QUEUE_DEPTH),
            read_path: registry.counter(names::QUERY_READ_PATH),
            sorted_on_read: registry.counter(names::QUERY_SORTED_ON_READ),
            files_considered: registry.counter(names::QUERY_FILES_CONSIDERED),
            files_pruned: registry.counter(names::QUERY_FILES_PRUNED),
            files_pruned_by_filter: registry.counter(names::QUERY_FILES_PRUNED_BY_FILTER),
            rows_merged: registry.counter(names::QUERY_ROWS_MERGED),
            pages_decoded: registry.counter(names::QUERY_PAGES_DECODED),
            pages_from_header: registry.counter(names::QUERY_PAGES_FROM_HEADER),
            file_parse: registry.counter(names::FILE_PARSE),
            ooo_points: registry.counter(names::MEMTABLE_OOO_POINTS),
            delta_tau: registry.histogram(names::MEMTABLE_DELTA_TAU),
            dirty_buffer_points: registry.histogram(names::MEMTABLE_DIRTY_BUFFER_POINTS),
            flush_count: registry.counter(names::FLUSH_COUNT),
            flush_sort_nanos: registry.counter(names::FLUSH_SORT_NANOS),
            flush_encode_nanos: registry.counter(names::FLUSH_ENCODE_NANOS),
            flush_write_nanos: registry.counter(names::FLUSH_WRITE_NANOS),
            flush_points: registry.counter(names::FLUSH_POINTS),
            flush_bytes: registry.counter(names::FLUSH_BYTES),
            registry,
        }
    }

    /// Records one completed flush's metric breakdown.
    pub(crate) fn record_flush(&self, m: &FlushMetrics) {
        self.flush_count.inc();
        self.flush_sort_nanos.add(m.sort_nanos);
        self.flush_encode_nanos.add(m.encode_nanos);
        self.flush_write_nanos.add(m.write_nanos);
        self.flush_points.add(m.points);
        self.flush_bytes.add(m.bytes);
    }
}

/// FNV-1a over a device name — stable across runs, so the same device
/// always lands in the same shard.
fn fnv1a(device: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in device.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A single-storage-group IoTDB-style engine, sharded by device.
///
/// At `shards = 1` one big lock serializes writes, flushes and queries —
/// deliberately, to reproduce the paper's observation that "the query
/// process in IoTDB takes the lock and blocks the write process"
/// (§VI-D1), which is why faster sorting lifts write throughput too. At
/// higher shard counts only same-device traffic contends.
pub struct StorageEngine {
    pub(crate) config: EngineConfig,
    pub(crate) shards: Vec<RwLock<ShardState>>,
    /// The one stamp counter: drawn by a rotation (the file's id), a
    /// compaction's snapshot (its output's id), a delete (its
    /// tombstone's stamp) and an adoption (the file's id, or each
    /// piece's when the image spans shards).
    pub(crate) next_stamp: AtomicU64,
    /// Query counter driving the 1-in-`trace_sample_n` trace sampler.
    trace_tick: AtomicU64,
    pub(crate) obs: EngineObs,
    /// Failpoint sites on the flush/compaction paths (see
    /// [`backsort_faults::sites`]). Disarmed — the production state —
    /// each site costs one relaxed atomic load.
    pub(crate) faults: Arc<FailpointRegistry>,
    /// Decoded-page block cache, shared by every shard's read path.
    /// `None` when [`EngineConfig::cache_bytes`] is zero.
    pub(crate) cache: Option<Arc<BlockCache>>,
    /// Serializes compactions, so only the one running moves a shard's
    /// files: taken before any shard lock, never under one.
    pub(crate) compaction: Mutex<()>,
    /// The directory of an engine opened on one ([`StorageEngine::open`]);
    /// `None` from [`new`](Self::new), whose writes log nothing.
    pub(crate) store: Option<Mutex<Store>>,
}

impl StorageEngine {
    /// Creates an engine with the given configuration and a fresh,
    /// enabled metrics registry of its own.
    pub fn new(config: EngineConfig) -> Self {
        Self::instrumented(config, Arc::new(Registry::new()), Arc::default())
    }

    /// Creates an engine recording into `registry` (shared across engines,
    /// or [`Registry::new_disabled`]) and firing `faults`' armed sites, which
    /// a crash harness shares with its simulated disk; `Arc::default()`
    /// arms none.
    pub fn instrumented(
        config: EngineConfig,
        registry: Arc<Registry>,
        faults: Arc<FailpointRegistry>,
    ) -> Self {
        let n = config.shards.max(1);
        let shards = (0..n).map(|_| RwLock::new(ShardState::default())).collect();
        let cache = (config.cache_bytes > 0)
            .then(|| Arc::new(BlockCache::new(config.cache_bytes, &registry)));
        Self {
            config,
            shards,
            next_stamp: AtomicU64::new(0),
            trace_tick: AtomicU64::new(0),
            obs: EngineObs::new(registry),
            faults,
            cache,
            compaction: Mutex::new(()),
            store: None,
        }
    }

    /// Starts a sampled hierarchical trace rooted at `root`, or `None`
    /// when sampling is off, the registry is disabled, the sampler
    /// skipped this query, or a trace is already active on this thread
    /// (then this operation's spans simply join the outer trace).
    /// `label` is only built for the sampled fraction.
    pub(crate) fn maybe_trace(
        &self,
        root: &'static str,
        label: impl FnOnce() -> String,
    ) -> Option<obs_trace::TraceContext> {
        let n = self.config.trace_sample_n;
        if n == 0 || !self.obs.registry.is_enabled() || obs_trace::active() {
            return None;
        }
        if !self
            .trace_tick
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(n)
        {
            return None;
        }
        self.obs.registry.traces().begin(root, label())
    }

    /// Starts an unsampled trace for rare lifecycle work (flush,
    /// compaction); same opt-outs as [`Self::maybe_trace`] minus the
    /// sampler.
    pub(crate) fn trace_always(
        &self,
        root: &'static str,
        label: impl FnOnce() -> String,
    ) -> Option<obs_trace::TraceContext> {
        if !self.obs.registry.is_enabled() || obs_trace::active() {
            return None;
        }
        self.obs.registry.traces().begin(root, label())
    }

    /// The engine's metrics registry — every internal observable
    /// (catalogued in [`backsort_obs::names`]) plus the trace store.
    /// Render it with `render_prometheus()` / `render_json()` or
    /// diff [`Registry::snapshot`]s around a workload phase.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs.registry
    }

    /// Draws the next stamp. `Relaxed` suffices: a stamp publishes no
    /// data, and the shard lock it is drawn under orders the draw
    /// against every other draw made under that lock.
    pub(crate) fn draw_stamp(&self) -> u64 {
        self.next_stamp.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of shards (always ≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a device's series live in.
    pub fn shard_of(&self, device: &str) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            (fnv1a(device) % self.shards.len() as u64) as usize
        }
    }

    /// One shard's files, oldest first, under one read lock: handles that
    /// share their images, each with its id (unique in the engine) and
    /// compaction level, holding only this shard's devices.
    pub fn shard_files(&self, shard: usize) -> Vec<FileHandle> {
        self.shards[shard].read().files.clone()
    }

    /// Number of flushed file images across all shards.
    pub fn file_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().files.len()).sum()
    }

    /// The file invariants every test oracle holds the engine to: every
    /// file holds only its own shard's devices, no id is live twice (a
    /// merge's inputs beside its output), and each shard's levels are
    /// non-increasing, as the leveled picker needs.
    pub fn check_files(&self) -> Result<(), String> {
        let mut ids = std::collections::BTreeSet::new();
        for shard in 0..self.shard_count() {
            let files = self.shard_files(shard);
            let meta: Vec<(u64, u32)> = files.iter().map(|f| (f.id(), f.level())).collect();
            let owned = (files.iter().flat_map(|f| f.envelopes()))
                .all(|(key, ..)| self.shard_of(&key.device) == shard);
            let unique = meta.iter().all(|&(id, _)| ids.insert(id));
            let leveled = meta.windows(2).all(|w| matches!(w, [a, b] if a.1 >= b.1));
            if !(owned && unique && leveled) {
                return Err(format!(
                    "shard {shard}'s (id, level) files {meta:?}: own devices only {owned}, \
                     ids unique {unique}, levels non-increasing {leveled}"
                ));
            }
        }
        Ok(())
    }

    /// Points currently buffered in (working, unsequence), summed across
    /// shards.
    pub fn buffered_points(&self) -> (usize, usize) {
        let mut working = 0;
        let mut unseq = 0;
        for shard in &self.shards {
            let st = shard.read();
            working += st.working.total_points();
            unseq += st.unseq.total_points();
        }
        (working, unseq)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::types::TsValue;

    pub(crate) fn key(s: &str) -> SeriesKey {
        SeriesKey::new("root.sg.d1", s)
    }

    pub(crate) fn engine(max_points: usize) -> StorageEngine {
        StorageEngine::new(EngineConfig {
            memtable_max_points: max_points,
            sorter: Algorithm::Backward(Default::default()),
            shards: 1,
            ..EngineConfig::default()
        })
    }

    pub(crate) fn small_engine(sorter: Algorithm) -> StorageEngine {
        StorageEngine::new(EngineConfig {
            memtable_max_points: 100,
            sorter,
            shards: 1,
            ..EngineConfig::default()
        })
    }

    pub(crate) fn sharded_engine(shards: usize) -> StorageEngine {
        StorageEngine::new(EngineConfig {
            memtable_max_points: 100,
            sorter: Algorithm::Backward(Default::default()),
            shards,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn shard_routing_is_stable_and_total() {
        let eng = sharded_engine(4);
        assert_eq!(eng.shard_count(), 4);
        for d in 0..64 {
            let device = format!("root.sg.d{d}");
            let s = eng.shard_of(&device);
            assert!(s < 4);
            assert_eq!(s, eng.shard_of(&device), "routing must be deterministic");
        }
        // Zero shards is clamped to one.
        let eng = sharded_engine(0);
        assert_eq!(eng.shard_count(), 1);
        assert_eq!(eng.shard_of("root.sg.anything"), 0);
    }

    #[test]
    fn shards_isolate_rotation_budgets() {
        // Two devices on (very likely) different shards: 99 points each
        // stays under the 100-point per-shard budget, so nothing flushes;
        // the same load on shards=1 shares one budget and rotates.
        let devices: Vec<String> = (0..8).map(|d| format!("root.sg.d{d}")).collect();
        let eng4 = sharded_engine(4);
        let eng1 = sharded_engine(1);
        let mut flushes4 = 0;
        let mut flushes1 = 0;
        for d in &devices {
            let k = SeriesKey::new(d.clone(), "s");
            flushes4 += eng4.write_points(&k, (0..30).map(|t| (t, TsValue::Long(t))));
            flushes1 += eng1.write_points(&k, (0..30).map(|t| (t, TsValue::Long(t))));
        }
        assert!(flushes1 >= 2, "one shared budget rotates (got {flushes1})");
        assert!(
            flushes4 < flushes1,
            "per-shard budgets rotate less often ({flushes4} vs {flushes1})"
        );
        // Either way, no data is lost.
        for d in &devices {
            let k = SeriesKey::new(d.clone(), "s");
            assert_eq!(eng4.query(&k, 0, 100).len(), 30);
            assert_eq!(eng1.query(&k, 0, 100).len(), 30);
        }
    }

    #[test]
    fn sharded_engine_answers_identically_to_single_shard() {
        let eng1 = sharded_engine(1);
        let eng4 = sharded_engine(4);
        let devices: Vec<String> = (0..6).map(|d| format!("root.sg.d{d}")).collect();
        let mut x = 77u64;
        for i in 0..600i64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = SeriesKey::new(devices[(x % 6) as usize].clone(), "s");
            let t = i + (x % 5) as i64;
            eng1.write_points(&k, [(t, TsValue::Long(i))]);
            eng4.write_points(&k, [(t, TsValue::Long(i))]);
        }
        for d in &devices {
            let k = SeriesKey::new(d.clone(), "s");
            let a = eng1.query(&k, i64::MIN, i64::MAX);
            let b = eng4.query(&k, i64::MIN, i64::MAX);
            let at: Vec<i64> = a.iter().map(|p| p.0).collect();
            let bt: Vec<i64> = b.iter().map(|p| p.0).collect();
            assert_eq!(at, bt, "{d}");
            assert!(at.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
