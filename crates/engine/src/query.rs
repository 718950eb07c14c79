//! The read entry points: a series' rows, columns, latest point,
//! sensors and `EXPLAIN` plan, each under its shard's lock. A read
//! sorts the buffers holding its key on demand (Backward-Sort's second
//! caller, paper §VI-D1) and hands the sorted runs, with the files
//! [`plan_files`] keeps, to the [`Scan`] in [`read`](crate::read).

use backsort_core::Algorithm;
use backsort_obs::names;
use backsort_obs::trace as obs_trace;

use crate::batch::{ColumnSlice, ValueColumn};
use crate::engine::{EngineObs, ShardState, StorageEngine};
use crate::memtable::SeriesBuffer;
use crate::read::{plan_files, FileHandle, Run, Scan, Sink};
use crate::types::{SeriesKey, TsValue};

/// Points returned by a query, merged across memtables (and disk when the
/// range reaches below the flush watermark).
pub type QueryResult = Vec<(i64, TsValue)>;

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

impl StorageEngine {
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
    /// records no metric. An unsorted buffer is not sorted but estimated
    /// from its bounds: it counts when its time range meets the query's,
    /// though a gap inside its range may hold none of the query's points.
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
            let files = plan_files(&st.files, &st.tombstones, key, t_lo, t_hi);
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
                    b.min_time().is_some_and(|m| m <= t_hi)
                        && b.max_time().is_some_and(|m| m >= t_lo)
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
        let plan = plan_files(&st.files, &st.tombstones, key, t_lo, t_hi);
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
mod tests {
    use super::*;
    use crate::batch::PointBatch;
    use crate::engine::tests::{key, small_engine};
    use crate::engine::EngineConfig;

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
        assert!(eng.cache.is_some(), "default config enables the cache");
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
        assert!(eng.cache.as_ref().is_some_and(|c| c.bytes() > 0));

        // cache_bytes = 0 disables the cache; results are identical.
        let cold = StorageEngine::new(EngineConfig {
            memtable_max_points: 100,
            sorter: Algorithm::Backward(Default::default()),
            cache_bytes: 0,
            ..EngineConfig::default()
        });
        assert!(cold.cache.is_none());
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
        )
        .unwrap();
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

    /// `EXPLAIN` counts an unsorted buffer only when its bounds meet the
    /// range: the read merges nothing from one that lies wholly above
    /// or below it.
    #[test]
    fn explain_skips_an_unsorted_buffer_outside_the_range() {
        let eng = small_engine(Algorithm::Backward(Default::default()));
        eng.write_points(&key("s"), [300, 100, 200].map(|t| (t, TsValue::Long(t))));
        let sources = |lo, hi| eng.explain_query(&key("s"), lo, hi).memtable_sources;
        assert_eq!(sources(0, 50), 0, "the buffer lies above the range");
        assert_eq!(sources(400, 500), 0, "the buffer lies below the range");
        assert_eq!(sources(150, 250), 1, "the range meets the buffer's bounds");
        assert_eq!(eng.query(&key("s"), 0, 50), []);
        assert_eq!(sources(0, 50), 0, "sorted, the buffer still has none");
    }
}
