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
//! any shard lock and never under one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use backsort_core::Algorithm;
use backsort_faults::{sites as fault_sites, FailpointRegistry};
use backsort_obs::trace as obs_trace;
use backsort_obs::{names, Counter, Gauge, Histogram, LocalHistogram, Registry};
use parking_lot::{Mutex, RwLock};

use crate::batch::{type_mismatch, ColumnSlice, PointBatch, ValueColumn, WriteError};
use crate::cache::BlockCache;
use crate::delete::Tombstone;
use crate::flush::{flush_series, FlushMetrics};
use crate::memtable::{MemTable, SeriesBuffer};
use crate::read::{plan_files, FileHandle, Run, Scan, Sink};
use crate::types::{SeriesKey, TsValue};

/// Tunables of the leveled compaction policy
/// ([`StorageEngine::compact_auto`](crate::compaction)).
///
/// Freshly flushed (and adopted) files sit at level 0. When a shard's
/// newest files accumulate [`l0_trigger`](Self::l0_trigger) consecutive
/// level-0 files, the run is merged into one level-1 file; a run at
/// level `L ≥ 1` moves to `L + 1` when it reaches the same count *or*
/// its combined bytes exceed
/// `level_base_bytes · growth^(L-1)` — the level is "full". Zero values
/// are clamped to their minimums at use.
#[derive(Debug, Clone, Copy)]
pub struct CompactionConfig {
    /// Consecutive same-level files that trigger a merge up (min 2).
    pub l0_trigger: usize,
    /// Byte capacity of level 1; each level up multiplies by
    /// [`growth`](Self::growth).
    pub level_base_bytes: usize,
    /// Per-level capacity multiplier (min 2).
    pub growth: usize,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        Self {
            l0_trigger: 4,
            level_base_bytes: 64 << 10,
            growth: 8,
        }
    }
}

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

/// Points returned by a query, merged across memtables (and disk when the
/// range reaches below the flush watermark).
pub type QueryResult = Vec<(i64, TsValue)>;

/// The ticket for one shard's pending flush.
///
/// Produced by [`StorageEngine::write_batch_nonblocking`] (or
/// [`StorageEngine::begin_flush_shard`]) when a working or unsequence
/// memtable rotates into its shard's one flushing slot; consumed by
/// [`StorageEngine::complete_flush`], directly or via
/// [`FlushPool::submit`](crate::FlushPool::submit), installing in rotation
/// order — age order (DESIGN.md §3). The job carries no data: the slot
/// is the rotated memtable's only owner, queries keep reading
/// it (and deletes editing it) there while the job is outstanding, and
/// the flush copies each series out under the shard's read lock. Only
/// installing the slot frees it: completing the job, or a
/// [`flush`](StorageEngine::flush) or
/// [`flush_unseq`](StorageEngine::flush_unseq), which installs an
/// occupied slot first and so leaves the job stale (it names the slot's
/// generation; completing it then installs nothing).
#[derive(Debug)]
#[must_use = "the shard's flushing slot stays occupied until the job is completed"]
pub struct FlushJob {
    shard: usize,
    generation: u64,
    unseq: bool,
}

impl FlushJob {
    /// The shard whose flushing slot this job will release.
    pub fn shard(&self) -> usize {
        self.shard
    }
}

#[derive(Debug, Default)]
pub(crate) struct ShardState {
    working: MemTable,
    /// The rotated memtable an asynchronous flush is writing out, owned
    /// here alone until the flush installs its file: queries read it
    /// (sorting its buffers in place when dirty), deletes edit it, and
    /// the flush copies it out series by series under the read lock.
    flushing: Option<MemTable>,
    /// Rotations so far — the generation of the slot's occupant — and
    /// whether that is an unsequence memtable: its [`FlushJob`] carries both.
    slot_generation: u64,
    slot_unseq: bool,
    unseq: MemTable,
    /// Per-sensor flush watermark: timestamps `<=` this have been flushed,
    /// so later arrivals below it are "very long delayed" and take the
    /// unsequence path (the separation policy, paper §II).
    watermarks: HashMap<SeriesKey, i64>,
    /// Flushed files, oldest first, each parsed once into a
    /// [`FileHandle`] when installed (flush, adoption, compaction) —
    /// queries prune and read through the cached chunk index and never
    /// re-parse a footer. Durable persistence keys on the handle's id
    /// (not the position), so compaction replacing a shard's files is
    /// observable as ids disappearing and a new id arriving. Flushes and
    /// adoptions only append; only a compaction swap (`compaction.rs`,
    /// under [`StorageEngine`]'s compaction mutex) removes files.
    pub(crate) files: Vec<FileHandle>,
    /// Pending range deletions plus the file horizon they apply to:
    /// only files at an index below the horizon are filtered (data
    /// written after the delete must not be erased).
    pub(crate) tombstones: Vec<(Tombstone, usize)>,
}

impl ShardState {
    /// The flushing slot's memtable while it is still the one rotated
    /// as `generation`; `None` once that rotation was installed.
    fn slot(&self, generation: u64) -> Option<&MemTable> {
        self.flushing
            .as_ref()
            .filter(|_| self.slot_generation == generation)
    }

    /// A job for the slot's occupant, `None` when the slot is free.
    fn occupant(&self, shard: usize) -> Option<FlushJob> {
        self.flushing.as_ref().map(|_| FlushJob {
            shard,
            generation: self.slot_generation,
            unseq: self.slot_unseq,
        })
    }

    /// The shard's memtables in ascending merge rank — the slot's, the
    /// working one, the unsequence one: on a shared timestamp the later
    /// wins, because it is the younger (DESIGN.md §3).
    fn memtables(&self) -> impl Iterator<Item = &MemTable> {
        self.flushing.iter().chain([&self.working, &self.unseq])
    }

    /// The working memtable, or with `unseq` the unsequence one.
    fn memtable(&mut self, unseq: bool) -> &mut MemTable {
        if unseq {
            &mut self.unseq
        } else {
            &mut self.working
        }
    }

    /// Removes `key`'s points in `[t_lo, t_hi]` from every memtable.
    /// Returns how many the working and unsequence memtables held.
    fn erase(&mut self, key: &SeriesKey, t_lo: i64, t_hi: i64) -> usize {
        let removed =
            self.working.delete_range(key, t_lo, t_hi) + self.unseq.delete_range(key, t_lo, t_hi);
        if let Some(fl) = self.flushing.as_mut() {
            // Readers lose the points now; the flush in flight may have
            // copied this series out already and still write them, so
            // the tombstone's horizon covers that upcoming file as well.
            fl.delete_range(key, t_lo, t_hi);
        }
        removed
    }

    /// Masks `key`'s `[t_lo, t_hi]` in the files below `horizon`,
    /// clamped to the files there are and the one an occupied slot
    /// becomes. Returns the horizon recorded; at 0 the mask covers no
    /// file and is not kept.
    fn push_tombstone(&mut self, key: &SeriesKey, t_lo: i64, t_hi: i64, horizon: usize) -> usize {
        let horizon = horizon.min(self.files.len() + usize::from(self.flushing.is_some()));
        if horizon > 0 {
            let tombstone = Tombstone {
                key: key.clone(),
                t_lo,
                t_hi,
            };
            self.tombstones.push((tombstone, horizon));
        }
        horizon
    }
}

/// Per-level file survival inside a [`QueryPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelPlan {
    /// Compaction level.
    pub level: u32,
    /// Files at this level in the shard.
    pub files: usize,
    /// Of those, files surviving both the key filter and the envelope
    /// prune for the planned read.
    pub surviving: usize,
}

/// The static plan of one series read — what `EXPLAIN` renders without
/// executing anything. Computed under the shard's read lock by the
/// scan's own planner (`plan_files`), so its file counts are the ones
/// the read it describes adds to `query.files_*`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// The shard the series hashes to.
    pub shard: usize,
    /// Whether the range reaches below the flush watermark (disk at
    /// all).
    pub reaches_disk: bool,
    /// Flushed files in the shard.
    pub files_total: usize,
    /// Files the key existence filter would skip.
    pub files_pruned_by_filter: usize,
    /// Files the per-key time-range envelope would skip.
    pub files_pruned_by_envelope: usize,
    /// Per-level breakdown (ascending level order).
    pub levels: Vec<LevelPlan>,
    /// Chunk sources the merge would read from surviving files.
    pub chunk_sources: usize,
    /// Memtable buffers contributing to the range (flushing, working,
    /// unsequence).
    pub memtable_sources: usize,
}

impl QueryPlan {
    /// The k-way merge fan-in: disk chunk sources plus memtable
    /// sources.
    pub fn fan_in(&self) -> usize {
        self.chunk_sources + self.memtable_sources
    }
}

/// Handles into the engine's [`Registry`], cached at construction so hot
/// paths record through lock-free `Arc`s and never take the registry's
/// name-map lock. (The registry itself pre-registers the whole catalog.)
#[derive(Debug)]
struct EngineObs {
    registry: Arc<Registry>,
    batch_append_nanos: Arc<Histogram>,
    type_mismatch_rejects: Arc<Counter>,
    write_points: Arc<Counter>,
    flush_queue_depth: Arc<Gauge>,
    read_path: Arc<Counter>,
    sorted_on_read: Arc<Counter>,
    files_considered: Arc<Counter>,
    files_pruned: Arc<Counter>,
    files_pruned_by_filter: Arc<Counter>,
    rows_merged: Arc<Counter>,
    pages_decoded: Arc<Counter>,
    pages_from_header: Arc<Counter>,
    file_parse: Arc<Counter>,
    ooo_points: Arc<Counter>,
    delta_tau: Arc<Histogram>,
    dirty_buffer_points: Arc<Histogram>,
    flush_count: Arc<Counter>,
    flush_sort_nanos: Arc<Counter>,
    flush_encode_nanos: Arc<Counter>,
    flush_write_nanos: Arc<Counter>,
    flush_points: Arc<Counter>,
    flush_bytes: Arc<Counter>,
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
    fn record_flush(&self, m: &FlushMetrics) {
        self.flush_count.inc();
        self.flush_sort_nanos.add(m.sort_nanos);
        self.flush_encode_nanos.add(m.encode_nanos);
        self.flush_write_nanos.add(m.write_nanos);
        self.flush_points.add(m.points);
        self.flush_bytes.add(m.bytes);
    }
}

/// Finds the end of the next run of a batch's timestamp column,
/// starting at `idx`: consecutive points that all land on the same side
/// of the separation watermark. While a rotation can still happen, `room`
/// holds the two memtables' remaining room (working, unsequence) and a
/// run stops at its memtable's, so the caller rotates, and re-reads the
/// watermark, before routing the rest; `None` once the flushing slot is
/// taken. The scan stops where the run does, so no point of a batch is
/// looked at twice. Returns `(run_end, routes_unseq)`.
fn next_run(
    ts: &[i64],
    idx: usize,
    watermark: Option<i64>,
    room: Option<[usize; 2]>,
) -> (usize, bool) {
    let routes_unseq = |t: i64| matches!(watermark, Some(w) if t <= w);
    let unseq = ts.get(idx).copied().is_some_and(routes_unseq);
    let limit = room.map_or(ts.len(), |room| {
        ts.len().min(idx.saturating_add(room[usize::from(unseq)]))
    });
    let mut end = idx + 1;
    while end < limit && ts.get(end).copied().is_some_and(routes_unseq) == unseq {
        end += 1;
    }
    (end, unseq)
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
    config: EngineConfig,
    pub(crate) shards: Vec<RwLock<ShardState>>,
    /// Source of the per-file ids in [`ShardState::files`].
    next_file_id: AtomicU64,
    /// Query counter driving the 1-in-`trace_sample_n` trace sampler.
    trace_tick: AtomicU64,
    obs: EngineObs,
    /// Failpoint sites on the flush/compaction paths (see
    /// [`backsort_faults::sites`]). Disarmed — the production state —
    /// each site costs one relaxed atomic load.
    faults: Arc<FailpointRegistry>,
    /// Decoded-page block cache, shared by every shard's read path.
    /// `None` when [`EngineConfig::cache_bytes`] is zero.
    cache: Option<Arc<BlockCache>>,
    /// Serializes compactions, so only the one running moves a shard's
    /// files: taken before any shard lock, never under one.
    pub(crate) compaction: Mutex<()>,
}

impl StorageEngine {
    /// Creates an engine with the given configuration and a fresh,
    /// enabled metrics registry of its own.
    pub fn new(config: EngineConfig) -> Self {
        Self::with_registry(config, Arc::new(Registry::new()))
    }

    /// Creates an engine recording into the given registry — shared by a
    /// bench harness across engines, or built with
    /// [`Registry::new_disabled`] to measure instrumentation overhead.
    pub fn with_registry(config: EngineConfig, registry: Arc<Registry>) -> Self {
        Self::with_instrumentation(config, registry, Arc::new(FailpointRegistry::new()))
    }

    /// Creates an engine with both a metrics registry and a failpoint
    /// registry — the crash-matrix harness shares one registry between
    /// the engine and a simulated disk so an armed site can fire on
    /// either side of the `Io` boundary.
    pub(crate) fn with_instrumentation(
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
            next_file_id: AtomicU64::new(0),
            trace_tick: AtomicU64::new(0),
            obs: EngineObs::new(registry),
            faults,
            cache,
            compaction: Mutex::new(()),
        }
    }

    /// Starts a sampled hierarchical trace rooted at `root`, or `None`
    /// when sampling is off, the registry is disabled, the sampler
    /// skipped this query, or a trace is already active on this thread
    /// (then this operation's spans simply join the outer trace).
    /// `label` is only built for the sampled fraction.
    fn maybe_trace(
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

    /// The decoded-page block cache, or `None` when disabled
    /// ([`EngineConfig::cache_bytes`] = 0).
    pub fn block_cache(&self) -> Option<&Arc<BlockCache>> {
        self.cache.as_ref()
    }

    /// The engine's failpoint registry (disarmed unless a test armed it).
    pub fn faults(&self) -> &Arc<FailpointRegistry> {
        &self.faults
    }

    /// The engine's metrics registry — every internal observable
    /// (catalogued in [`backsort_obs::names`]) plus the trace store.
    /// Render it with `render_prometheus()` / `render_json()` or
    /// diff [`Registry::snapshot`]s around a workload phase.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs.registry
    }

    fn alloc_file_id(&self) -> u64 {
        self.next_file_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
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

    /// Checks a batch's value type against the series' established buffer
    /// type in any memtable of the (locked) shard, so a mismatched batch
    /// is rejected whole before any column lands.
    fn check_batch_type(
        &self,
        st: &ShardState,
        key: &SeriesKey,
        batch: &PointBatch,
    ) -> Result<(), WriteError> {
        match st.memtables().find_map(|m| m.get(key)) {
            Some(buf) if buf.data_type() != batch.data_type() => {
                self.obs.type_mismatch_rejects.inc();
                Err(type_mismatch(buf.data_type(), batch.data_type()))
            }
            _ => Ok(()),
        }
    }

    /// Writes a columnar [`PointBatch`] for one sensor — the engine's
    /// one write (IoTDB-benchmark sends batches; §VI-A2). A full memtable
    /// (the fuller, if both are) rotates into the shard's flushing slot,
    /// and the returned [`FlushJob`] is completed inline by a caller that
    /// wants a synchronous write, or off the write path by a
    /// [`FlushPool`](crate::FlushPool) — IoTDB's asynchronous flushing
    /// (paper §V-A, §VI-D2). At most one job is returned per call.
    ///
    /// The batch is split at the separation watermark into seq/unseq
    /// column runs — each point is compared with it once, and it is only
    /// re-read after the rotation (the only event that can move it) —
    /// and each run lands with a single memtable series lookup and one
    /// bulk [`MemTable::write_columns`] append. The rotation happens where
    /// a memtable fills, before the run that would overfill it; a batch
    /// larger than the room left rotates once, and the rest lands in one
    /// run. A batch whose type does not match the series is rejected
    /// whole.
    ///
    /// **What bounds the memtables.** Not this call: it never blocks and
    /// never refuses. While a shard's job is outstanding its slot is
    /// occupied, a full memtable cannot rotate, and the rest of the batch
    /// is appended to it regardless, in one run — so a caller that holds
    /// the job itself (and may complete it only after further writes)
    /// cannot deadlock here. The bound is the caller's to keep, by
    /// waiting for the flush that frees the slot: ask
    /// [`flush_stalled`](Self::flush_stalled) before writing and wait in
    /// [`FlushPool::wait_while_stalled`](crate::FlushPool::wait_while_stalled),
    /// as `backsort-server` does, and each of a shard's two memtables
    /// stays within `memtable_max_points` plus the batches written
    /// concurrently with that check.
    pub fn write_batch_nonblocking(
        &self,
        key: &SeriesKey,
        batch: &PointBatch,
    ) -> Result<Option<FlushJob>, WriteError> {
        let timed = self.obs.registry.is_enabled();
        let shard = self.shard_of(&key.device);
        let mut st = self.shards[shard].write();
        self.check_batch_type(&st, key, batch)?;
        let max_points = self.config.memtable_max_points;
        let mut job = None;
        let mut deltas = LocalHistogram::new();
        let ts = batch.ts();
        let mut watermark = st.watermarks.get(key).copied();
        // Only a free slot takes a rotation, and one rotation fills it;
        // that cannot change under the guard.
        let mut can_rotate = st.flushing.is_none();
        let mut idx = 0;
        loop {
            let (working, unseq) = (st.working.total_points(), st.unseq.total_points());
            if can_rotate && working.max(unseq) >= max_points.max(1) {
                // The fuller of the full memtables rotates.
                job = self.rotate_into_slot(shard, &mut st, unseq > working);
                can_rotate = false;
                watermark = st.watermarks.get(key).copied();
            }
            if idx >= ts.len() {
                break;
            }
            let room = |mem: &MemTable| max_points.saturating_sub(mem.total_points()).max(1);
            let rooms = can_rotate.then(|| [room(&st.working), room(&st.unseq)]);
            let (run_end, unseq) = next_run(ts, idx, watermark, rooms);
            let append_start = timed.then(Instant::now);
            let (run_ts, run_vals) = batch.slice(idx, run_end);
            st.memtable(unseq)
                .write_columns(key, run_ts, run_vals, &mut deltas)?;
            if let Some(start) = append_start {
                self.obs
                    .batch_append_nanos
                    .record(start.elapsed().as_nanos() as u64);
            }
            idx = run_end;
        }
        self.obs.write_points.add(ts.len() as u64);
        // Δτ went into a stack-local histogram, no atomics per point.
        if deltas.count() > 0 {
            self.obs.ooo_points.add(deltas.count());
            self.obs.delta_tau.merge_local(&deltas);
        }
        Ok(job)
    }

    /// Whether `shard` is stalled on its flush: its flushing slot is
    /// occupied *and* either memtable is at its limit, so the next write
    /// can only grow that memtable past the limit.
    /// [`complete_flush`](Self::complete_flush) ends the stall. The
    /// engine itself never waits on it (see
    /// [`write_batch_nonblocking`](Self::write_batch_nonblocking)); the
    /// check is for the caller that owns the flusher.
    pub fn flush_stalled(&self, shard: usize) -> bool {
        self.shards.get(shard).is_some_and(|lock| {
            let st = lock.read();
            let fullest = st.working.total_points().max(st.unseq.total_points());
            st.flushing.is_some() && fullest >= self.config.memtable_max_points
        })
    }

    /// Flushes every shard's flushing slot and working memtable that hold
    /// points (see [`flush_unseq`](Self::flush_unseq) for the procedure).
    /// The durable store calls this before truncating WAL segments: a
    /// segment interleaves every shard's records, so *all* shards'
    /// buffered data must reach files before any segment is deleted.
    /// Returns the metrics summed across the installs.
    pub fn flush(&self) -> FlushMetrics {
        self.flush_through_slot(false)
    }

    /// Flushes every shard's flushing slot and *unsequence* memtable that
    /// hold points (ascending shard order, one lock at a time): an
    /// occupied slot is installed first — it is the older — then the
    /// memtable rotates into the slot and is installed from there, both
    /// outside the shard lock. A shard with nothing buffered installs
    /// nothing and counts no flush. Returns the metrics summed across the
    /// installs.
    pub fn flush_unseq(&self) -> FlushMetrics {
        self.flush_through_slot(true)
    }

    fn flush_through_slot(&self, unseq: bool) -> FlushMetrics {
        let mut total = FlushMetrics::default();
        for (shard, lock) in self.shards.iter().enumerate() {
            let mut ours = false;
            while !ours {
                // Whatever occupies the slot is older: it installs first.
                let mut st = lock.write();
                let older = st.occupant(shard);
                ours = older.is_none();
                let job = older.or_else(|| self.rotate_into_slot(shard, &mut st, unseq));
                drop(st);
                let Some(job) = job else { break };
                total += self.complete_flush(job);
            }
        }
        total
    }

    /// Adopts an existing TsFile image (recovery path): registers it for
    /// queries and advances watermarks from its chunk statistics. The
    /// image is parsed into a [`FileHandle`] exactly once; every shard
    /// that owns one of its devices gets a handle sharing that parsed
    /// image (ascending order — queries filter by series, so the
    /// duplication is invisible, and per-shard compaction later drops
    /// the chunks belonging to other shards). Returns the
    /// `(shard, file id)` pairs installed, or `None` (and adopts
    /// nothing) if the image does not parse.
    pub fn adopt_file(&self, image: Vec<u8>) -> Option<Vec<(usize, u64)>> {
        self.adopt_file_at_level(image, 0)
    }

    /// [`adopt_file`](Self::adopt_file) with an explicit compaction
    /// level — the durable store's recovery path reinstalls each file at
    /// the level the manifest recorded, so a reopened engine resumes the
    /// leveling ladder instead of re-treating merged output as fresh L0.
    pub(crate) fn adopt_file_at_level(
        &self,
        image: Vec<u8>,
        level: u32,
    ) -> Option<Vec<(usize, u64)>> {
        let handle = self.parse_image(image)?.with_level(level);
        let metas: Vec<(SeriesKey, i64)> = handle
            .chunks()
            .iter()
            .map(|m| (m.key.clone(), m.max_time))
            .collect();
        let mut targets: Vec<usize> = metas
            .iter()
            .map(|(k, _)| self.shard_of(&k.device))
            .collect();
        targets.sort_unstable();
        targets.dedup();
        if targets.is_empty() {
            targets.push(0); // an empty (but valid) file: park it in shard 0
        }
        let last = targets.len() - 1;
        let mut installed = Vec::with_capacity(targets.len());
        for (i, &shard) in targets.iter().enumerate() {
            let mut st = self.shards[shard].write();
            for (key, max_time) in &metas {
                if self.shard_of(&key.device) == shard {
                    let w = st.watermarks.entry(key.clone()).or_insert(i64::MIN);
                    *w = (*w).max(*max_time);
                }
            }
            // Every shard but the last gets a copy under a fresh id,
            // sharing the already-parsed image.
            let h = if i == last {
                handle.clone()
            } else {
                handle.with_id(self.alloc_file_id())
            };
            installed.push((shard, h.id()));
            st.files.push(h);
        }
        Some(installed)
    }

    /// Ids of one shard's file images, oldest first. The durable store
    /// keys persistence on these ids: new ids are images it has not
    /// persisted yet, and ids that vanish were merged away by
    /// compaction.
    pub fn shard_file_ids(&self, shard: usize) -> Vec<u64> {
        let st = self.shards[shard].read();
        st.files.iter().map(|h| h.id()).collect()
    }

    /// `(id, level)` of one shard's file images, oldest first — what the
    /// durable store records per file in the manifest so recovery can
    /// re-adopt each image at its compaction level.
    pub fn shard_file_meta(&self, shard: usize) -> Vec<(u64, u32)> {
        let st = self.shards[shard].read();
        st.files.iter().map(|h| (h.id(), h.level())).collect()
    }

    /// One file by id — a handle sharing its image, no byte copied
    /// ([`FileHandle::image`]) — or `None` if compaction merged it away
    /// since the id was listed.
    pub fn file_image(&self, shard: usize, id: u64) -> Option<FileHandle> {
        let st = self.shards[shard].read();
        st.files.iter().find(|h| h.id() == id).cloned()
    }

    /// Number of tombstones awaiting compaction, across all shards.
    pub fn tombstone_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().tombstones.len()).sum()
    }

    /// All sensors known for `device`, across memtables and flushed
    /// files, sorted and deduplicated — the schema view `SELECT *`
    /// expands against. A device lives in exactly one shard, so this
    /// takes a single read lock.
    pub fn list_sensors(&self, device: &str) -> Vec<SeriesKey> {
        let st = self.shards[self.shard_of(device)].read();
        let mut keys: Vec<SeriesKey> = Vec::new();
        for mem in st.memtables() {
            for (key, _) in mem.iter() {
                if key.device == device {
                    keys.push(key.clone());
                }
            }
        }
        for handle in &st.files {
            for meta in handle.chunks() {
                if meta.key.device == device {
                    keys.push(meta.key.clone());
                }
            }
        }
        keys.sort();
        keys.dedup();
        keys
    }

    /// Deletes all points of `key` with timestamps in `[t_lo, t_hi]`.
    ///
    /// Memtable points (working, flushing slot, unsequence) are
    /// removed immediately; flushed files are masked by a tombstone that
    /// the next [`compact`](StorageEngine::compact) applies physically —
    /// IoTDB's "mods" mechanism. Returns how many in-memory points were
    /// removed.
    pub fn delete_range(&self, key: &SeriesKey, t_lo: i64, t_hi: i64) -> usize {
        self.delete_range_with_horizon(key, t_lo, t_hi, usize::MAX)
            .0
    }

    /// [`delete_range`](Self::delete_range) with its tombstone masking
    /// only the files below `horizon`, clamped to the shard's file count
    /// (plus an occupied flushing slot). Returns the points removed and
    /// the horizon recorded. The durable store logs that horizon in the
    /// delete's WAL record, and replays the record with it: files
    /// created during replay after the record cannot exist yet, so the
    /// clamp only covers files whose contents predate the delete, and
    /// later re-writes, replayed (and flushed) after it, stay untouched.
    pub(crate) fn delete_range_with_horizon(
        &self,
        key: &SeriesKey,
        t_lo: i64,
        t_hi: i64,
        horizon: usize,
    ) -> (usize, usize) {
        let mut st = self.shards[self.shard_of(&key.device)].write();
        let removed = st.erase(key, t_lo, t_hi);
        (removed, st.push_tombstone(key, t_lo, t_hi, horizon))
    }

    /// Restores a *re-logged* tombstone recovered from the WAL: pushes
    /// the file mask (horizon clamped exactly as in
    /// [`delete_range_with_horizon`](Self::delete_range_with_horizon))
    /// without touching any memtable. A re-logged record sits *after*
    /// records of writes issued after the original delete — when the
    /// segment carrying the original record also survives a crash,
    /// deleting memtable points at the re-log's replay position would
    /// erase those later writes. The delete's memtable effect is either
    /// replayed positionally from the original record or already
    /// persisted in the flushed files the mask covers.
    pub(crate) fn restore_tombstone(
        &self,
        key: &SeriesKey,
        t_lo: i64,
        t_hi: i64,
        logged_horizon: usize,
    ) {
        self.shards[self.shard_of(&key.device)]
            .write()
            .push_tombstone(key, t_lo, t_hi, logged_horizon);
    }

    /// A snapshot of one shard's tombstones still awaiting physical
    /// application, with their file horizons. The durable store re-logs
    /// these into each fresh WAL segment at rotation — the segments that
    /// originally carried the delete records are about to be truncated,
    /// and until compaction applies a tombstone the WAL is its only
    /// durable record.
    pub(crate) fn pending_tombstones(&self, shard: usize) -> Vec<(Tombstone, usize)> {
        self.shards[shard].read().tombstones.clone()
    }

    /// Rotates one specific shard's working memtable into its flushing
    /// slot, or `None` if it is empty or a flush is already pending.
    pub fn begin_flush_shard(&self, shard: usize) -> Option<FlushJob> {
        self.rotate_into_slot(shard, &mut self.shards[shard].write(), false)
    }

    /// Swaps a fresh working (with `unseq`, unsequence) memtable into the
    /// (locked) shard and moves the old one into the free flushing slot
    /// under a new generation, advancing the watermarks past everything
    /// it holds — a no-op for an unsequence memtable, which is below them.
    fn rotate_into_slot(&self, shard: usize, st: &mut ShardState, unseq: bool) -> Option<FlushJob> {
        if st.flushing.is_some() || st.memtable(unseq).is_empty() {
            return None;
        }
        let rotated = std::mem::replace(st.memtable(unseq), MemTable::new());
        for (key, buffer) in rotated.iter() {
            if let Some(max_t) = buffer.max_time() {
                let w = st.watermarks.entry(key.clone()).or_insert(i64::MIN);
                *w = (*w).max(max_t);
            }
        }
        st.flushing = Some(rotated);
        st.slot_unseq = unseq;
        st.slot_generation += 1;
        self.obs.flush_queue_depth.inc();
        st.occupant(shard)
    }

    /// Parses a TsFile image under a fresh file id, counting the parse
    /// in `file.parse`. `None` if the image is not a valid TsFile.
    fn parse_image(&self, image: Vec<u8>) -> Option<FileHandle> {
        self.obs.file_parse.inc();
        FileHandle::parse(self.alloc_file_id(), image)
    }

    /// [`Self::parse_image`] for an image this engine's own writer just
    /// produced (flush and compaction outputs).
    pub(crate) fn parse_own_image(&self, image: Vec<u8>) -> FileHandle {
        // analyzer:allow(panic-freedom): the image was produced by our own encoder one call above (a flush or compaction output); dropping it on a parse error would silently lose acked writes
        self.parse_image(image).expect("own image parses")
    }

    /// Runs a [`FlushJob`] and installs the result into the shard the
    /// job was rotated from: the file becomes queryable and that shard's
    /// flushing slot is released. The one installer of a rotated
    /// memtable, working or unsequence (`flush.root`'s `unseq` says which),
    /// whoever calls it: a flush pool worker, a writer that wants its
    /// write synchronous, or [`flush`](Self::flush) and its twin.
    ///
    /// The slot's memtable is never taken out or copied whole. Each
    /// series is copied under the shard's *read* lock — one clone of its
    /// flat buffer, readers unaffected, a writer held up for one
    /// series' copy at most — and sorted, encoded and parsed with no
    /// lock held. A delete that lands between two such copies edits the
    /// slot as usual; whether or not the file still carries its points,
    /// the delete's tombstone horizon already covers this file. When
    /// deletes have emptied the slot there is no file: the horizons
    /// that counted one are lowered to the files that exist, so the
    /// next file to land — later writes — is not masked in its place.
    ///
    /// Every copy and the install check the job's generation. A stale
    /// job — its slot already installed by a synchronous flush —
    /// installs nothing and returns [`FlushMetrics::default`]; it leaves
    /// `engine.flush_queue_depth` and the `flush.*` counters alone.
    pub fn complete_flush(&self, job: FlushJob) -> FlushMetrics {
        // Crash site: the memtable has rotated into the slot but nothing
        // is encoded yet — its points' only durable copy is the WAL.
        self.faults.kill_point(fault_sites::FLUSH_ROTATE);
        let (shard, generation, unseq) = (job.shard, job.generation, job.unseq);
        let lock = &self.shards[shard];
        let keys: Vec<SeriesKey> = match lock.read().slot(generation) {
            Some(slot) => slot.iter().map(|(key, _)| key.clone()).collect(),
            None => return FlushMetrics::default(),
        };
        let _trace = self.trace_always(names::SPAN_FLUSH_ROOT, || format!("flush shard={shard}"));
        obs_trace::add_attr(names::ATTR_SHARD, shard as u64);
        obs_trace::add_attr(names::ATTR_UNSEQ, u64::from(unseq));
        let span_encode = obs_trace::span(names::SPAN_FLUSH_ENCODE);
        let series = keys.into_iter().filter_map(|key| {
            let copy = lock.read().slot(generation)?.get(&key)?.flush_copy();
            Some((key, copy))
        });
        let (image, metrics) = flush_series(series, &self.config.sorter, Some(&self.obs.registry));
        if let Some(s) = &span_encode {
            s.attr(names::ATTR_POINTS, metrics.points);
        }
        drop(span_encode);
        // Crash site: the image is encoded but not yet installed — a
        // killed flush must lose the file cleanly (its points stay
        // WAL-covered until rotation).
        self.faults
            .kill_point(fault_sites::FLUSH_COMPLETE_BEFORE_INSTALL);
        // Parse the chunk index outside the lock too — installing the
        // handle is then just a push.
        let handle = (metrics.points > 0).then(|| self.parse_own_image(image));
        let mut st = lock.write();
        if st.slot(generation).is_none() {
            return FlushMetrics::default();
        }
        match handle {
            Some(handle) => st.files.push(handle),
            None => {
                // Deletes emptied the slot and it becomes no file after
                // all. Their horizons counted it as one (`files.len() +
                // 1`); left there they would mask whatever lands at
                // that index next, which can only be newer than they are.
                let files = st.files.len();
                st.tombstones.retain_mut(|(_, horizon)| {
                    *horizon = (*horizon).min(files);
                    *horizon > 0
                });
            }
        }
        let retired = st.flushing.take();
        drop(st);
        // Freeing the retired memtable's chunks holds nobody up.
        drop(retired);
        self.obs.flush_queue_depth.dec();
        self.obs.record_flush(&metrics);
        metrics
    }

    /// Time-range query over `[t_lo, t_hi]`: the series `scan`ned into
    /// rows.
    pub fn query(&self, key: &SeriesKey, t_lo: i64, t_hi: i64) -> QueryResult {
        let mut rows = Rows(Vec::new());
        self.scan(key, t_lo, t_hi, &mut rows);
        rows.0
    }

    /// [`query`](Self::query) as columns: the timestamps, and the value
    /// runs that cover them in order — one run, unless the series changes
    /// type part way (an adopted foreign file), where the next begins. A
    /// raw `SELECT` reads through this, so it builds no row.
    pub fn read_columns(
        &self,
        key: &SeriesKey,
        t_lo: i64,
        t_hi: i64,
    ) -> (Vec<i64>, Vec<ValueColumn>) {
        let mut columns = Columns::default();
        self.scan(key, t_lo, t_hi, &mut columns);
        (columns.times, columns.runs)
    }

    /// Reads one series over `[t_lo, t_hi]` into `sink` — the one read
    /// `query`, `read_columns`, `aggregate`, `aggregate_many` and
    /// `group_by_time` are.
    ///
    /// The scan itself runs over sorted runs — disk chunks (pruned by
    /// the key filter and per-key time ranges in each [`FileHandle`],
    /// masked by pre-resolved tombstones: [`plan_files`]) plus the
    /// flushing/working/unsequence buffer slices: runs that overlap no
    /// other reach the sink as typed column slices, and only runs whose
    /// time envelopes intersect are merged, last write winning per
    /// timestamp (unsequence > working > flushing > disk; among files,
    /// later wins). See [`Scan`].
    pub(crate) fn scan(&self, key: &SeriesKey, t_lo: i64, t_hi: i64, sink: &mut dyn Sink) {
        // Declared before the span guards so the root context drops —
        // and assembles the tree — last, outside every lock.
        let _trace = self.maybe_trace(names::SPAN_QUERY_ROOT, || {
            format!("query {key} [{t_lo}, {t_hi}]")
        });
        let _read = obs_trace::span(names::SPAN_QUERY_READ);
        self.with_sorted_buffers(key, |st| scan_with_state(st, key, t_lo, t_hi, self, sink));
    }

    /// Runs `read` on `key`'s shard with every buffer holding the key
    /// time-ordered — double-checked sort-on-read: first take the shard
    /// lock *shared*; if the buffers are already sorted
    /// ([`SeriesBuffer::is_sorted`]), `read` runs under the read lock —
    /// concurrent readers of the same shard overlap instead of
    /// serializing, and writers are only blocked for the read itself.
    /// Only when an unsorted buffer is found does it drop the read lock,
    /// take the write lock, sort the buffers with the configured
    /// algorithm (where Backward-Sort earns its keep) and run `read`
    /// under the write lock (no release-and-retry, so a steady writer
    /// cannot livelock the reader). What that sort costs is what was
    /// written to the buffers since they were last ordered, not what
    /// they hold ([`SeriesBuffer::sort_with_observed`]): a reader that
    /// follows a writer pays for the writer's points and their overlap
    /// with the ordered run, and the `query.sort_on_read` span says how
    /// many of each (`tail_points`, `prefix_points`, `overlap`).
    fn with_sorted_buffers<R>(&self, key: &SeriesKey, read: impl FnOnce(&ShardState) -> R) -> R {
        let shard = self.shard_of(&key.device);
        {
            // analyzer:allow(lock-scope): the `&ShardState` in this signature is the parameter of the callback run under the guard taken here, not a guard the caller already holds
            let st = self.shards[shard].read();
            if buffers_sorted(&st, key) {
                self.obs.read_path.inc();
                return read(&st);
            }
        }
        // analyzer:allow(lock-scope): as above — the read guard was dropped with its block, so this is the only shard lock held
        let mut st = self.shards[shard].write();
        {
            let _sort = obs_trace::span(names::SPAN_QUERY_SORT_ON_READ);
            sort_key_buffers(&mut st, key, &self.config.sorter, &self.obs);
        }
        self.obs.sorted_on_read.inc();
        read(&st)
    }

    /// The static plan a `query(key, t_lo, t_hi)` would execute: shard,
    /// per-level file survival under the filter/envelope prunes, and
    /// the merge fan-in — `EXPLAIN` without running the read. The disk
    /// half is the read's own planner (`plan_files`), so the two cannot
    /// disagree. Takes the shard's read lock only, mutates nothing and
    /// records no metric (unsorted buffers are estimated from their
    /// maxima instead of being sorted).
    pub fn explain_query(&self, key: &SeriesKey, t_lo: i64, t_hi: i64) -> QueryPlan {
        let shard = self.shard_of(&key.device);
        let st = self.shards[shard].read();
        let reaches_disk = needs_disk(&st, key, t_lo);
        let mut plan = QueryPlan {
            shard,
            reaches_disk,
            files_total: st.files.len(),
            files_pruned_by_filter: 0,
            files_pruned_by_envelope: 0,
            levels: Vec::new(),
            chunk_sources: 0,
            memtable_sources: 0,
        };
        if reaches_disk {
            let files = plan_files(&st.files, 0, &st.tombstones, key, t_lo, t_hi);
            let mut levels = std::collections::BTreeMap::<u32, (usize, usize)>::new();
            for handle in &st.files {
                levels.entry(handle.level()).or_default().0 += 1;
            }
            // A surviving file's runs sit next to each other in the plan.
            let mut surviving: Vec<&FileHandle> = files.runs.iter().filter_map(Run::file).collect();
            surviving.dedup_by_key(|file| file.id());
            for file in surviving {
                levels.entry(file.level()).or_default().1 += 1;
            }
            plan.levels = levels
                .into_iter()
                .map(|(level, (files, surviving))| LevelPlan {
                    level,
                    files,
                    surviving,
                })
                .collect();
            plan.files_pruned_by_filter = files.pruned_by_filter as usize;
            plan.files_pruned_by_envelope = files.pruned_by_envelope as usize;
            plan.chunk_sources = files.runs.len();
        }
        plan.memtable_sources = key_buffers(&st, key)
            .filter(|b| {
                if b.is_sorted() {
                    b.lower_bound(t_lo) < b.upper_bound(t_hi)
                } else {
                    b.max_time().is_some_and(|m| m >= t_lo)
                }
            })
            .count();
        plan
    }

    /// The freshest point of a sensor across memtables and flushed data,
    /// honoring deletions and duplicate-timestamp overrides. Same
    /// double-checked locking as [`StorageEngine::query`]: read lock
    /// when the buffers are sorted, write lock (sorting them) otherwise.
    pub fn latest_value(&self, key: &SeriesKey) -> Option<(i64, TsValue)> {
        let _trace = self.maybe_trace(names::SPAN_QUERY_ROOT, || format!("latest {key}"));
        let _latest = obs_trace::span(names::SPAN_QUERY_LATEST);
        self.with_sorted_buffers(key, |st| latest_value_with_state(st, key, self))
    }

    /// Latest timestamp seen for a sensor across memtables and flushed
    /// data — the anchor the benchmark's window queries use. Takes the
    /// shard's *read* lock only (no buffer is sorted; buffer maxima are
    /// tracked on write).
    pub fn latest_time(&self, key: &SeriesKey) -> Option<i64> {
        let st = self.shards[self.shard_of(&key.device)].read();
        key_buffers(&st, key)
            .filter_map(|b| b.max_time())
            .chain(st.watermarks.get(key).copied())
            .max()
    }

    /// Number of flushed file images across all shards. (A recovered
    /// multi-device file adopted into several shards counts once per
    /// shard.)
    pub fn file_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().files.len()).sum()
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

/// The shard's memtable buffers holding `key`, in ascending merge rank
/// ([`ShardState::memtables`]). The single place the query/latest paths
/// enumerate buffers, so they cannot disagree on priorities.
fn key_buffers<'s>(
    st: &'s ShardState,
    key: &'s SeriesKey,
) -> impl Iterator<Item = &'s SeriesBuffer> {
    st.memtables().filter_map(move |m| m.get(key))
}

/// Whether every buffer holding `key` is already time-ordered — the
/// read-lock fast path's admission check.
fn buffers_sorted(st: &ShardState, key: &SeriesKey) -> bool {
    key_buffers(st, key).all(|b| b.is_sorted())
}

/// Sorts every buffer holding `key` with the configured algorithm (under
/// the shard's write lock), recording what each still-dirty buffer's
/// sort worked on — the tail it sorted, the ordered run it kept, the
/// overlap it merged — and the sort's own telemetry.
fn sort_key_buffers(st: &mut ShardState, key: &SeriesKey, sorter: &Algorithm, obs: &EngineObs) {
    let ShardState {
        working,
        flushing,
        unseq,
        ..
    } = st;
    for mem in [Some(working), flushing.as_mut(), Some(unseq)]
        .into_iter()
        .flatten()
    {
        let sorted = mem
            .get_mut(key)
            .and_then(|buffer| buffer.sort_with_observed(sorter, Some(&obs.registry)));
        if let Some(sort) = sorted {
            obs.dirty_buffer_points.record(sort.tail as u64);
            obs_trace::add_attr(names::ATTR_TAIL_POINTS, sort.tail as u64);
            obs_trace::add_attr(names::ATTR_PREFIX_POINTS, sort.prefix as u64);
            obs_trace::add_attr(names::ATTR_OVERLAP, sort.merge.overlap as u64);
        }
    }
}

/// Whether a `[t_lo, ..]` range can reach flushed data: only when it
/// starts at or below the key's flush watermark (the shared
/// watermark-consulting check of `query` / `latest_value` /
/// `explain_query`).
fn needs_disk(st: &ShardState, key: &SeriesKey, t_lo: i64) -> bool {
    st.watermarks.get(key).is_some_and(|&w| t_lo <= w)
}

/// `query`'s sink: the scan's typed slices turned back into rows.
struct Rows(QueryResult);

impl Sink for Rows {
    fn push(&mut self, times: &[i64], values: ColumnSlice<'_>) {
        values.zip_rows_into(times, &mut self.0);
    }
}

/// `read_columns`' and compaction's sink: the scan's typed slices
/// appended to owned columns, a new run wherever the type changes.
#[derive(Default)]
pub(crate) struct Columns {
    pub(crate) times: Vec<i64>,
    pub(crate) runs: Vec<ValueColumn>,
}

impl Sink for Columns {
    fn push(&mut self, times: &[i64], values: ColumnSlice<'_>) {
        if times.is_empty() {
            return;
        }
        self.times.extend_from_slice(times);
        match self.runs.last_mut().map(|run| run.append_run(values)) {
            Some(Ok(())) => {}
            // The first run, or the type changed: the next run begins.
            _ => self.runs.push(values.to_column()),
        }
    }
}

/// `latest_value`'s sink: keeps the last point to arrive.
struct LastPoint(Option<(i64, TsValue)>);

impl Sink for LastPoint {
    fn push(&mut self, times: &[i64], values: ColumnSlice<'_>) {
        let last = times.len().checked_sub(1);
        if let Some((&t, v)) = last.and_then(|i| times.get(i).zip(values.get(i))) {
            self.0 = Some((t, v));
        }
    }
}

/// One series read under a lock guard, shared by the read-locked fast
/// path and the sorted-on-read write path (`st` must have `key`'s
/// buffers sorted).
///
/// Collects one [`Run`] per surviving source in ascending priority —
/// the disk chunks [`plan_files`] keeps, then the
/// flushing/working/unsequence buffer slices bounded by
/// `lower_bound`/`upper_bound` — and lets the [`Scan`] stream the
/// disjoint ones and merge the overlapping ones into `sink`.
fn scan_with_state(
    st: &ShardState,
    key: &SeriesKey,
    t_lo: i64,
    t_hi: i64,
    eng: &StorageEngine,
    sink: &mut dyn Sink,
) {
    debug_assert!(buffers_sorted(st, key));
    let obs = &eng.obs;
    // Open for the whole read: the page work the scan does below is
    // accounted here, next to the files it was done on.
    let span_files = obs_trace::span(names::SPAN_QUERY_FILES);
    let mut runs: Vec<Run<'_>> = if needs_disk(st, key, t_lo) {
        let plan = plan_files(&st.files, 0, &st.tombstones, key, t_lo, t_hi);
        let considered = st.files.len() as u64;
        obs.files_considered.add(considered);
        obs.files_pruned_by_filter.add(plan.pruned_by_filter);
        obs.files_pruned.add(plan.pruned_by_envelope);
        if let Some(s) = &span_files {
            s.attr(names::ATTR_FILES_CONSIDERED, considered);
            s.attr(names::ATTR_FILES_PRUNED_BY_FILTER, plan.pruned_by_filter);
            s.attr(names::ATTR_FILES_PRUNED, plan.pruned_by_envelope);
        }
        plan.runs
    } else {
        Vec::new()
    };
    runs.extend(key_buffers(st, key).filter_map(|buffer| Run::buffer(buffer, t_lo, t_hi)));
    let scan = Scan::new(t_lo, t_hi, eng.cache.as_ref());
    {
        let span_merge = obs_trace::span(names::SPAN_QUERY_MERGE);
        scan.run(&runs, sink);
        let points = scan.stats.points.get();
        obs.rows_merged.add(points);
        if let Some(s) = &span_merge {
            s.attr(names::ATTR_ROWS_MERGED, points);
        }
    }
    let (decoded, from_header) = (
        scan.stats.pages_decoded.get(),
        scan.stats.pages_from_header.get(),
    );
    obs.pages_decoded.add(decoded);
    obs.pages_from_header.add(from_header);
    if let Some(s) = &span_files {
        s.attr(names::ATTR_PAGES_DECODED, decoded);
        s.attr(names::ATTR_PAGES_FROM_HEADER, from_header);
    }
}

/// `latest_value` under a lock guard: anchor on the maximum timestamp
/// any source reports and scan just `[anchor, ∞)`; only if tombstones
/// erased everything there (rare) fall back to a full-range scan.
fn latest_value_with_state(
    st: &ShardState,
    key: &SeriesKey,
    eng: &StorageEngine,
) -> Option<(i64, TsValue)> {
    let mem_max = key_buffers(st, key).filter_map(|b| b.max_time()).max();
    let disk_max = st
        .files
        .iter()
        .filter_map(|h| h.key_time_range(key).map(|(_, hi)| hi))
        .max();
    let anchor = mem_max.into_iter().chain(disk_max).max()?;
    let mut last = LastPoint(None);
    scan_with_state(st, key, anchor, i64::MAX, eng, &mut last);
    if last.0.is_none() {
        scan_with_state(st, key, i64::MIN, i64::MAX, eng, &mut last);
    }
    last.0
}

#[cfg(test)]
impl StorageEngine {
    /// Writes each point as a batch of its own, completing every
    /// rotation inline, so rotations fall after exactly
    /// `memtable_max_points` points — the in-crate tests' point writes. A
    /// mistyped point is dropped (and counted) like a mistyped batch.
    /// Returns how many rotations were installed.
    pub(crate) fn write_points(
        &self,
        key: &SeriesKey,
        points: impl IntoIterator<Item = (i64, TsValue)>,
    ) -> usize {
        let mut rotations = 0;
        for point in points {
            let Ok(batch) = PointBatch::from_rows([point]) else {
                continue;
            };
            if let Ok(Some(job)) = self.write_batch_nonblocking(key, &batch) {
                self.complete_flush(job);
                rotations += 1;
            }
        }
        rotations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backsort_sorts::BaselineSorter;

    fn key(s: &str) -> SeriesKey {
        SeriesKey::new("root.sg.d1", s)
    }

    fn small_engine(sorter: Algorithm) -> StorageEngine {
        StorageEngine::new(EngineConfig {
            memtable_max_points: 100,
            sorter,
            shards: 1,
            ..EngineConfig::default()
        })
    }

    fn sharded_engine(shards: usize) -> StorageEngine {
        StorageEngine::new(EngineConfig {
            memtable_max_points: 100,
            sorter: Algorithm::Backward(Default::default()),
            shards,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn write_then_query_out_of_order() {
        let eng = small_engine(Algorithm::Backward(Default::default()));
        for (t, v) in [(5i64, 5.0), (1, 1.0), (3, 3.0), (2, 2.0), (4, 4.0)] {
            eng.write_points(&key("s"), [(t, TsValue::Double(v))]);
        }
        let got = eng.query(&key("s"), 2, 4);
        assert_eq!(
            got,
            vec![
                (2, TsValue::Double(2.0)),
                (3, TsValue::Double(3.0)),
                (4, TsValue::Double(4.0)),
            ]
        );
        assert_eq!(eng.latest_time(&key("s")), Some(5));
    }

    #[test]
    fn memtable_rotation_triggers_flush() {
        let eng = small_engine(Algorithm::Baseline(BaselineSorter::Tim));
        let flushed = eng.write_points(&key("s"), (0..250).map(|i| (i, TsValue::Long(i))));
        assert_eq!(flushed, 2, "two rotations at 100 points each");
        assert_eq!(eng.file_count(), 2);
        let (working, unseq) = eng.buffered_points();
        assert_eq!(working, 50);
        assert_eq!(unseq, 0);
    }

    #[test]
    fn separation_policy_routes_stragglers() {
        let eng = small_engine(Algorithm::Backward(Default::default()));
        // triggers flush at 100
        eng.write_points(&key("s"), (0..100i64).map(|i| (i, TsValue::Long(i))));
        assert_eq!(eng.file_count(), 1);
        // A point older than the watermark (99) goes to unsequence.
        eng.write_points(&key("s"), [(50, TsValue::Long(-50))]);
        let (_, unseq) = eng.buffered_points();
        assert_eq!(unseq, 1);
        // And a fresh point goes to working.
        eng.write_points(&key("s"), [(200, TsValue::Long(200))]);
        let (working, _) = eng.buffered_points();
        assert_eq!(working, 1);
    }

    #[test]
    fn query_merges_disk_working_and_unseq_with_priority() {
        let eng = small_engine(Algorithm::Backward(Default::default()));
        eng.write_points(&key("s"), (0..100i64).map(|i| (i, TsValue::Long(i))));
        // Overwrite t=50 via the unsequence path; unseq must win.
        eng.write_points(&key("s"), [(50, TsValue::Long(-50))]);
        let got = eng.query(&key("s"), 49, 51);
        assert_eq!(
            got,
            vec![
                (49, TsValue::Long(49)),
                (50, TsValue::Long(-50)),
                (51, TsValue::Long(51)),
            ]
        );
    }

    #[test]
    fn query_skips_disk_when_range_is_fresh() {
        let eng = small_engine(Algorithm::Backward(Default::default()));
        eng.write_points(&key("s"), (0..150i64).map(|i| (i, TsValue::Long(i))));
        // Range strictly above the watermark (99): memtable only.
        let got = eng.query(&key("s"), 120, 130);
        assert_eq!(got.len(), 11);
        assert_eq!(got[0], (120, TsValue::Long(120)));
    }

    #[test]
    fn batch_write_reroutes_after_mid_batch_flush() {
        // A straggler after a mid-batch rotation must take the
        // unsequence path: the run split has to re-read the watermark.
        let eng = small_engine(Algorithm::Backward(Default::default()));
        let mut pts: Vec<(i64, TsValue)> = (0..100).map(|i| (i, TsValue::Long(i))).collect();
        pts.push((10, TsValue::Long(-10))); // below the post-flush watermark (99)
        let batch = PointBatch::from_rows(pts).unwrap();
        let job = eng.write_batch_nonblocking(&key("s"), &batch).unwrap();
        eng.complete_flush(job.expect("the 100th point rotates"));
        let (working, unseq) = eng.buffered_points();
        assert_eq!((working, unseq), (0, 1), "straggler routed to unsequence");
        let got = eng.query(&key("s"), 9, 11);
        assert_eq!(got[1], (10, TsValue::Long(-10)), "unsequence wins");
    }

    #[test]
    fn type_mismatch_rejects_instead_of_aborting() {
        // Regression for the documented memtable panic: a mistyped
        // INSERT must drop the write and leave the engine serving.
        let eng = small_engine(Algorithm::Backward(Default::default()));
        eng.write_points(&key("s"), [(1, TsValue::Long(1))]);
        eng.write_points(&key("s"), [(2, TsValue::Double(2.0))]); // dropped
        let bad = PointBatch::from_rows(vec![(3, TsValue::Bool(true))]).unwrap();
        let err = eng.write_batch_nonblocking(&key("s"), &bad).unwrap_err();
        assert!(matches!(err, WriteError::TypeMismatch { .. }));
        // The engine is alive, the series intact, and the rejects
        // counted.
        eng.write_points(&key("s"), [(3, TsValue::Long(3))]);
        assert_eq!(
            eng.query(&key("s"), 0, 10),
            vec![(1, TsValue::Long(1)), (3, TsValue::Long(3))]
        );
        let snap = eng.obs().snapshot();
        assert_eq!(snap.counter(names::MEMTABLE_TYPE_MISMATCH_REJECTS), 2);
    }

    #[test]
    fn every_contender_yields_identical_query_results() {
        let mut reference: Option<QueryResult> = None;
        for alg in Algorithm::contenders() {
            let eng = small_engine(alg);
            let mut x = 5u64;
            for i in 0..90i64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                eng.write_points(&key("s"), [(i + (x % 7) as i64, TsValue::Long(i))]);
            }
            let got = eng.query(&key("s"), 0, 200);
            let times: Vec<i64> = got.iter().map(|p| p.0).collect();
            assert!(times.windows(2).all(|w| w[0] < w[1]));
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    let wt: Vec<i64> = want.iter().map(|p| p.0).collect();
                    assert_eq!(times, wt);
                }
            }
        }
    }

    #[test]
    fn flush_counters_accumulate() {
        let flushed = |eng: &StorageEngine| {
            let snap = eng.obs().snapshot();
            (
                snap.counter(names::FLUSH_COUNT),
                snap.counter(names::FLUSH_POINTS),
            )
        };
        let eng = small_engine(Algorithm::Backward(Default::default()));
        eng.write_points(&key("s"), (0..100i64).map(|i| (i, TsValue::Long(i))));
        // The 100th point rotated the full memtable; nothing is left, so
        // neither flush records anything.
        assert_eq!(eng.flush().points, 0);
        assert_eq!(eng.flush_unseq().points, 0);
        assert_eq!(flushed(&eng), (1, 100));

        // Only the shard holding points flushes, each memtable once.
        let eng = sharded_engine(4);
        let k = SeriesKey::new("root.sg.d0", "s");
        eng.write_points(&k, (10..20i64).map(|t| (t, TsValue::Long(t))));
        assert_eq!(eng.flush().points, 10);
        eng.write_points(&k, [(5, TsValue::Long(5))]); // below the watermark
        assert_eq!(eng.flush_unseq().points, 1);
        assert_eq!(eng.flush().points + eng.flush_unseq().points, 0);
        assert_eq!(eng.buffered_points(), (0, 0));
        assert_eq!(eng.file_count(), 2);
        assert_eq!(flushed(&eng), (2, 11), "clean shards record no flush");
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

    #[test]
    fn independent_shards_each_carry_a_flush_job() {
        // With 4 shards, two devices on different shards can both have a
        // rotation in flight — the pool's raison d'être.
        let eng = sharded_engine(4);
        let (da, db) = ("root.sg.d0", "root.sg.d2");
        assert_ne!(
            eng.shard_of(da),
            eng.shard_of(db),
            "fixture devices must differ"
        );
        let ka = SeriesKey::new(da, "s");
        let kb = SeriesKey::new(db, "s");
        for t in 0..99i64 {
            eng.write_points(&ka, [(t, TsValue::Long(t))]);
            eng.write_points(&kb, [(t, TsValue::Long(t))]);
        }
        let last = PointBatch::from_rows(vec![(99, TsValue::Long(99))]).unwrap();
        let ja = eng
            .write_batch_nonblocking(&ka, &last)
            .unwrap()
            .expect("shard a rotates");
        let jb = eng
            .write_batch_nonblocking(&kb, &last)
            .unwrap()
            .expect("shard b rotates");
        assert_ne!(ja.shard(), jb.shard());
        // Data stays visible while both jobs are outstanding.
        assert_eq!(eng.query(&ka, 0, 200).len(), 100);
        assert_eq!(eng.query(&kb, 0, 200).len(), 100);
        eng.complete_flush(jb);
        eng.complete_flush(ja);
        assert_eq!(eng.file_count(), 2);
        assert_eq!(eng.query(&ka, 0, 200).len(), 100);
    }

    /// Appends so far, one `memtable.batch_append_nanos` record a run.
    fn runs(eng: &StorageEngine) -> u64 {
        eng.obs()
            .snapshot()
            .histogram(names::MEMTABLE_BATCH_APPEND_NANOS)
            .map_or(0, |h| h.count)
    }

    /// ROADMAP 4c, pinned as a count: with the rotation refused a batch
    /// is split where its route changes and nowhere else. Before, the
    /// full memtable's "room" of one point made every sequence-bound
    /// point a run of its own, each re-scanning the rest of the batch —
    /// 25,000 runs for the first batch below.
    #[test]
    fn a_refused_rotation_splits_a_batch_only_where_its_route_changes() {
        let eng = small_engine(Algorithm::Backward(Default::default()));
        let longs = |ts: &mut dyn Iterator<Item = i64>| {
            PointBatch::from_rows(ts.map(|t| (t, TsValue::Long(t)))).unwrap()
        };
        // Fill to the limit: the memtable rotates, and the job is held.
        let job = eng
            .write_batch_nonblocking(&key("s"), &longs(&mut (0..100)))
            .unwrap()
            .expect("a full memtable rotates");
        // Fill the new one to the limit as well: the slot is occupied.
        let refused = eng
            .write_batch_nonblocking(&key("s"), &longs(&mut (100..200)))
            .unwrap();
        assert!(refused.is_none());
        assert!(eng.flush_stalled(0));

        let before = runs(&eng);
        let all_sequence = longs(&mut (200..25_200));
        assert!(eng
            .write_batch_nonblocking(&key("s"), &all_sequence)
            .unwrap()
            .is_none());
        assert_eq!(runs(&eng) - before, 1, "one route, one run");
        assert_eq!(eng.buffered_points(), (25_100, 0));

        // Fifty points alternating around the watermark (99): fresh,
        // late, fresh, late, … — 49 route changes.
        let before = runs(&eng);
        let alternating = longs(&mut (0..50).map(|i| if i % 2 == 0 { 30_000 + i } else { i }));
        assert!(eng
            .write_batch_nonblocking(&key("s"), &alternating)
            .unwrap()
            .is_none());
        assert_eq!(runs(&eng) - before, 50, "route changes + 1");
        assert_eq!(eng.buffered_points(), (25_125, 25));

        // Nothing was lost on the way, and the flush still completes.
        eng.complete_flush(job);
        assert!(!eng.flush_stalled(0));
        let got = eng.query(&key("s"), i64::MIN, i64::MAX);
        let mut want: Vec<i64> = (0..25_200).collect();
        want.extend((0..50).filter(|i| i % 2 == 0).map(|i| 30_000 + i));
        assert_eq!(got.iter().map(|p| p.0).collect::<Vec<_>>(), want);
    }

    /// A batch larger than the room left rotates where the memtable
    /// fills, once, and the rest lands in one run: the fresh memtable
    /// may go past its limit, and the next write rotates it first.
    #[test]
    fn a_batch_larger_than_the_memtable_rotates_once() {
        let eng = small_engine(Algorithm::Backward(Default::default()));
        let batch = PointBatch::from_rows((0..250).map(|t| (t, TsValue::Long(t)))).unwrap();
        let before = runs(&eng);
        let job = eng.write_batch_nonblocking(&key("s"), &batch).unwrap();
        assert_eq!(runs(&eng) - before, 2, "100 + 150");
        assert_eq!(eng.buffered_points(), (150, 0));
        assert_eq!(eng.complete_flush(job.expect("rotates at 100")).points, 100);
        assert_eq!(eng.file_count(), 1);
        let next = PointBatch::from_rows([(250, TsValue::Long(250))]).unwrap();
        let job = eng.write_batch_nonblocking(&key("s"), &next).unwrap();
        assert_eq!(eng.complete_flush(job.expect("rotates first")).points, 150);
        assert_eq!(eng.buffered_points(), (1, 0));
    }

    /// A synchronous flush beside an outstanding job installs the older
    /// slot first. At the wrong end of the file list, a newer unsequence
    /// point would lose its duplicate timestamp to the slot's file, and a
    /// tombstone that counted the slot as the next file would mask the
    /// working memtable's instead. The job it overtook is stale.
    #[test]
    fn a_synchronous_flush_installs_an_outstanding_slot_first() {
        let depth = |eng: &StorageEngine| eng.obs().gauge_value(names::ENGINE_FLUSH_QUEUE_DEPTH);
        let eng = small_engine(Algorithm::Backward(Default::default()));
        let full = PointBatch::from_rows((0..100).map(|t| (t, TsValue::Long(t)))).unwrap();
        let job = eng.write_batch_nonblocking(&key("s"), &full).unwrap();
        let job = job.expect("a full memtable rotates");
        eng.write_points(&key("s"), [(50, TsValue::Long(-50))]); // unsequence
        eng.delete_range(&key("s"), 200, 300); // horizon 1: the slot's file
        eng.write_points(&key("s"), [(250, TsValue::Long(250))]); // working
        assert_eq!(eng.flush_unseq().points, 101, "the slot, then unsequence");
        assert_eq!(eng.flush().points, 1);
        assert_eq!((eng.file_count(), depth(&eng)), (3, 0));
        assert_eq!(eng.complete_flush(job), FlushMetrics::default());
        assert_eq!((eng.file_count(), depth(&eng)), (3, 0));
        let flushes = eng.obs().counter_value(names::FLUSH_COUNT);
        assert_eq!(flushes, 3, "a stale job records nothing");
        assert_eq!(eng.query(&key("s"), 50, 50), [(50, TsValue::Long(-50))]);
        assert_eq!(eng.query(&key("s"), 250, 250), [(250, TsValue::Long(250))]);
    }

    /// `t ↦ sign · t` over `ts`, as a batch.
    fn signed(ts: std::ops::Range<i64>, sign: i64) -> PointBatch {
        PointBatch::from_rows(ts.map(|t| (t, TsValue::Long(sign * t)))).unwrap()
    }

    fn signed_rows(ts: std::ops::Range<i64>, sign: i64) -> QueryResult {
        ts.map(|t| (t, TsValue::Long(sign * t))).collect()
    }

    /// The unsequence memtable has the working one's life: the write that
    /// brings it to the bound rotates it, where it fills, and the job
    /// installs it like any other.
    #[test]
    fn a_write_that_fills_the_unsequence_memtable_returns_its_flush_job() {
        let eng = small_engine(Algorithm::Backward(Default::default()));
        let k = key("s");
        eng.write_points(&k, (0..200i64).map(|t| (t, TsValue::Long(t))));
        let job = eng.write_batch_nonblocking(&k, &signed(0..99, -1)).unwrap();
        assert!(job.is_none(), "a straggler below the bound does not rotate");
        assert_eq!(eng.buffered_points(), (0, 99));
        let job = eng
            .write_batch_nonblocking(&k, &signed(99..150, -1))
            .unwrap();
        let job = job.expect("the unsequence memtable rotates at its bound");
        assert_eq!(eng.buffered_points(), (0, 50), "rotated at exactly 100");
        assert_eq!(eng.complete_flush(job).points, 100);
        assert_eq!(eng.file_count(), 3);
        let mut want = signed_rows(0..150, -1);
        want.extend(signed_rows(150..200, 1));
        assert_eq!(eng.query(&k, 0, 199), want);
        assert_eq!(eng.flush_unseq().points, 50);
        assert_eq!(eng.query(&k, 0, 199), want);
    }

    /// One slot for both memtables: while an unsequence flush is
    /// outstanding, a full working memtable cannot rotate, and the shard
    /// says so. The next write after the install rotates it first.
    #[test]
    fn an_outstanding_unsequence_job_stalls_a_full_working_memtable() {
        let eng = small_engine(Algorithm::Backward(Default::default()));
        let k = key("s");
        eng.write_points(&k, (0..100i64).map(|t| (t, TsValue::Long(t))));
        let job = eng
            .write_batch_nonblocking(&k, &signed(0..100, -1))
            .unwrap();
        let job = job.expect("the unsequence memtable rotates");
        assert!(
            !eng.flush_stalled(0),
            "the slot is taken, but nothing is full"
        );
        assert!(eng
            .write_batch_nonblocking(&k, &signed(100..200, 1))
            .unwrap()
            .is_none());
        assert_eq!(eng.buffered_points(), (100, 0));
        assert!(eng.flush_stalled(0));
        eng.complete_flush(job);
        assert!(!eng.flush_stalled(0));
        let job = eng
            .write_batch_nonblocking(&k, &signed(200..201, 1))
            .unwrap();
        let job = job.expect("the waiting working memtable rotates first");
        assert_eq!(eng.complete_flush(job).points, 100);
        assert_eq!(eng.buffered_points(), (1, 0));
    }

    /// Install order is rotation order, which is age order: rewrites of
    /// every timestamp of an outstanding working slot are stragglers,
    /// fill the unsequence memtable behind the slot, rotate after it
    /// installs, and win every shared timestamp — in the slot, on disk,
    /// and against nothing newer than themselves.
    #[test]
    fn an_unsequence_rotation_after_an_older_working_slot_wins_every_shared_timestamp() {
        let eng = small_engine(Algorithm::Backward(Default::default()));
        let k = key("s");
        let older = eng.write_batch_nonblocking(&k, &signed(0..100, 1)).unwrap();
        let older = older.expect("the working memtable rotates");
        assert!(eng
            .write_batch_nonblocking(&k, &signed(0..100, -1))
            .unwrap()
            .is_none());
        assert_eq!(eng.buffered_points(), (0, 100));
        assert!(eng.flush_stalled(0), "a full unsequence memtable waits too");
        let mut want = signed_rows(0..100, -1);
        assert_eq!(eng.query(&k, 0, 99), want);
        eng.complete_flush(older);
        // The next write rotates the waiting unsequence memtable before
        // its own straggler lands, in a fresh one that outranks the slot.
        let third = PointBatch::from_rows([(7, TsValue::Long(700))]).unwrap();
        let newer = eng.write_batch_nonblocking(&k, &third).unwrap();
        let newer = newer.expect("the full unsequence memtable rotates first");
        want[7].1 = TsValue::Long(700);
        assert_eq!(
            eng.query(&k, 0, 99),
            want,
            "slot over disk, memtable over slot"
        );
        assert_eq!(eng.complete_flush(newer).points, 100);
        assert_eq!(eng.query(&k, 0, 99), want);
        assert_eq!(eng.flush_unseq().points, 1);
        assert_eq!(eng.file_count(), 3);
        assert_eq!(eng.query(&k, 0, 99), want, "and file over file");
    }

    /// The `query.sort_on_read` span of the newest trace, as
    /// `(tail_points, prefix_points, overlap)`.
    fn last_sort_on_read(eng: &StorageEngine) -> Option<(u64, u64, u64)> {
        let traces = eng.obs().traces().recent();
        let sort = traces
            .last()?
            .spans
            .iter()
            .find(|s| s.name == names::SPAN_QUERY_SORT_ON_READ)?;
        let attr = |key| sort.attrs.iter().find(|a| a.0 == key).map_or(0, |a| a.1);
        Some((
            attr(names::ATTR_TAIL_POINTS),
            attr(names::ATTR_PREFIX_POINTS),
            attr(names::ATTR_OVERLAP),
        ))
    }

    /// ROADMAP 4a, pinned as counts: what a read's sort works on is what
    /// arrived since the buffer was last ordered plus its overlap with
    /// the ordered run — 400 points and a handful, behind 20,000 that the
    /// read before it ordered and this one leaves where they are.
    #[test]
    fn a_read_after_a_read_sorts_only_what_arrived_between() {
        let eng = StorageEngine::new(EngineConfig {
            trace_sample_n: 1,
            ..EngineConfig::default()
        });
        let k = key("s");
        // Every fifth point arrives 13 late; timestamps are distinct.
        let time_of = |i: i64| 2 * i - 13 * i64::from(i % 5 == 0);
        let arrivals = |range: std::ops::Range<i64>| {
            PointBatch::from_rows(range.map(|i| (time_of(i), TsValue::Long(i)))).expect("one type")
        };
        let recent = |n: i64| (0..n).filter(|&i| time_of(i) >= 39_000).count();
        let sorted_points = || {
            let h = eng.obs().snapshot();
            h.histogram(names::MEMTABLE_DIRTY_BUFFER_POINTS)
                .map_or(0, |h| h.sum)
        };

        let job = eng
            .write_batch_nonblocking(&k, &arrivals(0..20_000))
            .unwrap();
        assert!(job.is_none());
        assert_eq!(eng.query(&k, 39_000, i64::MAX).len(), recent(20_000));
        let (first_tail, prefix, _) = last_sort_on_read(&eng).expect("the first read sorts");
        assert_eq!(first_tail + prefix, 20_000);
        assert!(prefix < 8, "order first breaks at the sixth point");
        assert_eq!(sorted_points(), first_tail);

        let job = eng
            .write_batch_nonblocking(&k, &arrivals(20_000..20_400))
            .unwrap();
        assert!(job.is_none());
        assert_eq!(eng.query(&k, 39_000, i64::MAX).len(), recent(20_400));
        let (tail, prefix, overlap) = last_sort_on_read(&eng).expect("so does the second");
        assert_eq!((tail, prefix), (400, 20_000));
        assert!(
            (1..=16).contains(&overlap),
            "a point 13 late reaches a few places back into the run, not {overlap}"
        );
        assert_eq!(sorted_points(), first_tail + 400);

        // Nothing arrived: nothing to sort, and the read says so.
        assert_eq!(eng.query(&k, 39_000, i64::MAX).len(), recent(20_400));
        assert_eq!(last_sort_on_read(&eng), None);
    }

    #[test]
    fn key_filter_prunes_files_before_the_chunk_walk() {
        let eng = small_engine(Algorithm::Backward(Default::default()));
        // Two flushed files, each holding a different sensor.
        eng.write_points(&key("a"), (0..100i64).map(|i| (i, TsValue::Long(i))));
        eng.write_points(&key("b"), (0..100i64).map(|i| (i, TsValue::Long(i))));
        assert_eq!(eng.file_count(), 2);
        let before = eng.obs().snapshot();
        assert_eq!(eng.query(&key("a"), 0, 100).len(), 100);
        let delta = eng.obs().snapshot().delta_since(&before);
        assert_eq!(delta.counter(names::QUERY_FILES_CONSIDERED), 2);
        assert_eq!(
            delta.counter(names::QUERY_FILES_PRUNED_BY_FILTER),
            1,
            "the file holding only sensor b is filter-pruned for sensor a"
        );
    }

    #[test]
    fn block_cache_serves_repeated_disk_reads() {
        let eng = small_engine(Algorithm::Backward(Default::default()));
        assert!(
            eng.block_cache().is_some(),
            "default config enables the cache"
        );
        eng.write_points(&key("s"), (0..100i64).map(|i| (i, TsValue::Long(i))));
        assert_eq!(eng.file_count(), 1);
        let a = eng.query(&key("s"), 0, 99);
        let hits_after_first = eng.obs().counter_value(names::CACHE_HITS);
        let b = eng.query(&key("s"), 0, 99);
        assert_eq!(a, b);
        assert!(
            eng.obs().counter_value(names::CACHE_HITS) > hits_after_first,
            "the second identical query re-serves decoded pages"
        );
        assert!(eng.block_cache().is_some_and(|c| c.bytes() > 0));

        // cache_bytes = 0 disables the cache; results are identical.
        let cold = StorageEngine::new(EngineConfig {
            memtable_max_points: 100,
            sorter: Algorithm::Backward(Default::default()),
            cache_bytes: 0,
            ..EngineConfig::default()
        });
        assert!(cold.block_cache().is_none());
        cold.write_points(&key("s"), (0..100i64).map(|i| (i, TsValue::Long(i))));
        assert_eq!(cold.query(&key("s"), 0, 99), a);
        assert_eq!(cold.obs().counter_value(names::CACHE_MISSES), 0);
    }

    /// An engine holding `n` in-order DOUBLE points of one sensor, all
    /// flushed, `per_file` points a file.
    fn flushed_engine(n: i64, per_file: usize) -> StorageEngine {
        let eng = StorageEngine::new(EngineConfig {
            memtable_max_points: per_file,
            sorter: Algorithm::Backward(Default::default()),
            ..EngineConfig::default()
        });
        eng.write_points(
            &key("s"),
            (0..n).map(|t| (t, TsValue::Double(t as f64 * 0.5))),
        );
        eng.flush();
        eng
    }

    /// `(pages_decoded, pages_from_header, cache.hits, rows_merged)` so
    /// far.
    fn page_counts(eng: &StorageEngine) -> (u64, u64, u64, u64) {
        let snap = eng.obs().snapshot();
        (
            snap.counter(names::QUERY_PAGES_DECODED),
            snap.counter(names::QUERY_PAGES_FROM_HEADER),
            snap.counter(names::CACHE_HITS),
            snap.counter(names::QUERY_ROWS_MERGED),
        )
    }

    fn since(eng: &StorageEngine, before: (u64, u64, u64, u64)) -> (u64, u64, u64, u64) {
        let now = page_counts(eng);
        (
            now.0 - before.0,
            now.1 - before.1,
            now.2 - before.2,
            now.3 - before.3,
        )
    }

    #[test]
    fn a_count_takes_whole_pages_from_their_headers() {
        use crate::aggregate::{AggValue, Aggregation};
        use crate::tsfile::PAGE_POINTS;
        let page = PAGE_POINTS as i64;
        // Two files of five pages each; the range cuts page 1 and page 8.
        let eng = flushed_engine(10 * page, 5 * PAGE_POINTS);
        assert_eq!(eng.file_count(), 2);
        let (lo, hi) = (page + 100, 8 * page + 99);
        let before = page_counts(&eng);
        let got = eng.aggregate_many(
            &key("s"),
            lo,
            hi,
            &[
                Aggregation::Count,
                Aggregation::MinTime,
                Aggregation::MaxTime,
            ],
        );
        assert_eq!(
            got,
            vec![
                AggValue::Number((hi - lo + 1) as f64),
                AggValue::Time(lo),
                AggValue::Time(hi)
            ]
        );
        assert_eq!(
            since(&eng, before),
            (2, 6, 0, (page - 100) as u64 + 100),
            "two boundary pages decoded (timestamps only), six answered from \
             headers, and only the boundary points scanned"
        );
        // A sum takes the same six pages from the statistics in their
        // headers; the timestamp-only decodes were not cached, so it
        // decodes the two boundary pages whole, and caches them.
        let before = page_counts(&eng);
        let sum = eng.aggregate(&key("s"), lo, hi, Aggregation::Sum);
        let mut want = crate::ExactSum::new();
        (lo..=hi).for_each(|t| want.add(t as f64 * 0.5));
        assert_eq!(sum, AggValue::Number(want.value()));
        assert_eq!(since(&eng, before), (2, 6, 0, (page - 100) as u64 + 100));
        // A first value is in no header: asked beside the sum, it makes
        // the six inner pages decode (the boundary pages are cache hits)
        // and the sum comes out the same, bit for bit.
        let before = page_counts(&eng);
        let decoded = eng.aggregate_many(
            &key("s"),
            lo,
            hi,
            &[Aggregation::Sum, Aggregation::FirstValue],
        );
        assert_eq!(
            decoded[0].as_number().map(f64::to_bits),
            Some(want.value().to_bits())
        );
        assert_eq!(since(&eng, before), (6, 0, 2, (hi - lo + 1) as u64));
        // Now the count's boundary pages are cache hits, not decodes.
        let before = page_counts(&eng);
        assert_eq!(
            eng.aggregate(&key("s"), lo, hi, Aggregation::Count),
            AggValue::Number((hi - lo + 1) as f64)
        );
        assert_eq!(since(&eng, before), (0, 6, 2, (page - 100) as u64 + 100));
    }

    #[test]
    fn a_served_page_is_a_cache_hit_not_a_decode() {
        use crate::tsfile::PAGE_POINTS;
        let eng = flushed_engine(3 * PAGE_POINTS as i64, 3 * PAGE_POINTS);
        let before = page_counts(&eng);
        let first = eng.query(&key("s"), 10, 2 * PAGE_POINTS as i64 + 10);
        assert_eq!(since(&eng, before), (3, 0, 0, first.len() as u64));
        let before = page_counts(&eng);
        let again = eng.query(&key("s"), 10, 2 * PAGE_POINTS as i64 + 10);
        assert_eq!(again, first);
        assert_eq!(
            since(&eng, before),
            (0, 0, 3, first.len() as u64),
            "the second read decodes nothing"
        );
    }

    #[test]
    fn headers_are_not_trusted_under_a_tombstone_or_a_newer_run() {
        use crate::aggregate::{AggValue, Aggregation};
        use crate::tsfile::PAGE_POINTS;
        let n = 4 * PAGE_POINTS as i64;
        let count = |eng: &StorageEngine| eng.aggregate(&key("s"), 0, n - 1, Aggregation::Count);
        // A tombstone inside page 2 of the only file.
        let eng = flushed_engine(n, n as usize);
        eng.delete_range(
            &key("s"),
            2 * PAGE_POINTS as i64 + 5,
            2 * PAGE_POINTS as i64 + 14,
        );
        let before = page_counts(&eng);
        assert_eq!(count(&eng), AggValue::Number((n - 10) as f64));
        let (decoded, from_header, _, scanned) = since(&eng, before);
        assert_eq!(
            (decoded, from_header, scanned),
            (4, 0, (n - 10) as u64),
            "every page of a tombstoned file is decoded"
        );
        // A late rewrite of one flushed timestamp sits in the unsequence
        // buffer: its envelope is inside the file's, so the two runs are
        // merged point by point and the duplicate counts once.
        let eng = flushed_engine(n, n as usize);
        eng.write_points(&key("s"), [(7, TsValue::Double(-1.0))]);
        let before = page_counts(&eng);
        assert_eq!(count(&eng), AggValue::Number(n as f64));
        assert_eq!(
            since(&eng, before).1,
            0,
            "no page of a shadowed run from its header"
        );
        assert_eq!(
            eng.aggregate(&key("s"), 7, 7, Aggregation::LastValue),
            AggValue::Number(-1.0),
            "and the fresher run wins the shared timestamp"
        );
    }

    #[test]
    fn disjoint_runs_stream_and_only_the_overlap_merges() {
        // Three flushed files in time order, then stragglers into the
        // middle one's range: files 0 and 2 overlap nothing.
        let eng = flushed_engine(300, 100);
        assert_eq!(eng.file_count(), 3);
        eng.write_points(
            &key("s"),
            ([150i64, 120, 199]).map(|t| (t, TsValue::Double(-(t as f64)))),
        );
        let got = eng.query(&key("s"), 0, 299);
        assert_eq!(got.len(), 300);
        for (i, (t, v)) in got.iter().enumerate() {
            assert_eq!(*t, i as i64);
            let want = if [120, 150, 199].contains(t) {
                -(*t as f64)
            } else {
                *t as f64 * 0.5
            };
            assert_eq!(*v, TsValue::Double(want), "t={t}");
        }
    }

    #[test]
    fn adoption_level_rides_shard_file_meta() {
        let eng = small_engine(Algorithm::Backward(Default::default()));
        eng.write_points(&key("s"), (0..100i64).map(|i| (i, TsValue::Long(i))));
        let image = eng
            .file_image(0, eng.shard_file_ids(0)[0])
            .expect("flushed image")
            .image()
            .to_vec();
        let other = small_engine(Algorithm::Backward(Default::default()));
        other.adopt_file_at_level(image.clone(), 3).expect("adopts");
        other.adopt_file(image).expect("adopts");
        let meta = other.shard_file_meta(0);
        assert_eq!(meta.len(), 2);
        assert_eq!(meta[0].1, 3, "explicit level survives adoption");
        assert_eq!(meta[1].1, 0, "plain adoption lands at level 0");
    }
}
