//! The read path: parse-once file handles, tombstone pre-resolution and
//! the typed run scan every read stands on.
//!
//! * [`FileHandle`] — a flushed (or adopted, or recovered) file image
//!   bundled with its chunk index, parsed exactly once when the file is
//!   installed into a shard. Queries prune by key presence and per-key
//!   time range straight off the cached index.
//! * [`IntervalSet`] — the tombstones applicable to one `(key, file)`
//!   pair resolved into a sorted, merged interval list once per query,
//!   so erasure is a few binary searches per page instead of a scan of
//!   every tombstone per point.
//! * `plan_files` — the one file prune: which files and chunks of a
//!   shard's list a series read touches, and what masks them. Reads,
//!   `EXPLAIN` and compaction all plan through it.
//! * `Scan` — the one scan `query`, `latest_value`, `aggregate`,
//!   `group_by_time` and compaction's merge share. Every surviving
//!   source is a `Run`: a time-sorted stretch of one series with a
//!   time envelope (a flushed chunk, or the in-range slice of a sorted
//!   memtable buffer). The separation policy keeps one series' sequence
//!   chunks time-disjoint (paper §II, §V), so the scan sweeps the
//!   envelopes and treats runs the way Backward-Sort treats blocks: a
//!   run that overlaps no other is handed to the `Sink` as borrowed
//!   typed column slices, page by page, never touching a heap or a
//!   boxed value; only a group of runs whose envelopes really intersect
//!   goes through the ranked last-write-wins merge.

use std::cell::Cell;
use std::sync::Arc;

use backsort_core::merge::LastWins;

use crate::batch::{ColumnSlice, ValueColumn};
use crate::cache::{BlockCache, CachedPage, PageKey};
use crate::delete::Tombstone;
use crate::filter::KeyFilter;
use crate::memtable::SeriesBuffer;
use crate::tsfile::{range_within, ChunkMeta, ChunkPages, PageHeader, TsFileReader};
use crate::types::{SeriesKey, TsValue};

/// A TsFile image with its chunk index parsed once, at install time.
///
/// Holds everything a query needs without touching the image bytes:
/// the v2 footer's key existence filter (when present), each key's
/// `(min_time, max_time)` envelope — computed once at parse, not
/// re-derived per query — and the key-sorted chunk index. Only when a
/// query survives that pruning are the overlapping chunks' pages
/// decoded — lazily, page by page, by the `Scan`.
///
/// The id and level belong to one install; the parsed part sits behind
/// one `Arc`, so a clone — compaction's snapshot of a shard's list, an
/// adopted image's copy for another shard — shares it and copies no
/// byte.
#[derive(Debug, Clone)]
pub struct FileHandle {
    id: u64,
    /// Compaction level (0 = fresh flush or adoption). Assigned by the
    /// engine when the handle is installed; persisted in the manifest.
    level: u32,
    parsed: Arc<ParsedFile>,
}

/// The immutable part of a [`FileHandle`]: the image and what was
/// parsed from it.
#[derive(Debug)]
struct ParsedFile {
    image: Vec<u8>,
    /// Chunk index sorted by key (chunks of one key in file order), as
    /// [`TsFileReader::open`] produces it.
    chunks: Vec<ChunkMeta>,
    /// Per-key `(min_time, max_time)` envelopes, sorted by key — one
    /// entry per distinct series, folded over its chunks at parse time.
    envelopes: Vec<(SeriesKey, i64, i64)>,
    /// The v2 footer's key existence filter; `None` for v1 images.
    filter: Option<KeyFilter>,
}

impl FileHandle {
    /// Parses an image's footer and chunk index, folds the per-key
    /// envelopes, and captures the key filter (v2 images). `None` if
    /// the image is not a valid TsFile. This is the *only* place the
    /// footer is parsed; every later read reuses the cached state.
    pub fn parse(id: u64, image: Vec<u8>) -> Option<Self> {
        let mut reader = TsFileReader::open(&image)?;
        let filter = reader.take_filter();
        let chunks = reader.chunks().to_vec();
        // One pass over the key-sorted index: chunks of one key are
        // adjacent, so the envelope fold is a linear group-by.
        let mut envelopes: Vec<(SeriesKey, i64, i64)> = Vec::new();
        for m in &chunks {
            match envelopes.last_mut() {
                Some((key, min, max)) if key == &m.key => {
                    *min = (*min).min(m.min_time);
                    *max = (*max).max(m.max_time);
                }
                _ => envelopes.push((m.key.clone(), m.min_time, m.max_time)),
            }
        }
        Some(Self {
            id,
            level: 0,
            parsed: Arc::new(ParsedFile {
                image,
                chunks,
                envelopes,
                filter,
            }),
        })
    }

    /// Re-tags an already-parsed handle with a new engine file id,
    /// sharing its image and index (the adopt path installs one parsed
    /// image into several shards).
    pub fn with_id(&self, id: u64) -> Self {
        Self { id, ..self.clone() }
    }

    /// The handle's compaction level (0 = fresh).
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Sets the compaction level (used when installing compaction
    /// output and when recovering level metadata from the manifest).
    pub fn set_level(&mut self, level: u32) {
        self.level = level;
    }

    /// Builder form of [`set_level`](Self::set_level).
    pub fn with_level(mut self, level: u32) -> Self {
        self.level = level;
        self
    }

    /// The engine-unique file id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The raw image bytes.
    pub fn image(&self) -> &[u8] {
        &self.parsed.image
    }

    /// The cached chunk index, sorted by key.
    pub fn chunks(&self) -> &[ChunkMeta] {
        &self.parsed.chunks
    }

    /// The chunks of one series, by binary search.
    pub fn chunks_for(&self, key: &SeriesKey) -> &[ChunkMeta] {
        crate::tsfile::chunks_for(&self.parsed.chunks, key)
    }

    /// The key filter from the v2 footer, `None` for v1 images.
    pub fn filter(&self) -> Option<&KeyFilter> {
        self.parsed.filter.as_ref()
    }

    /// Whether the file can contain the series at all, by one filter
    /// probe — O(1), no string comparison, no chunk-index walk. `true`
    /// for v1 images (no filter: never prune on absence of evidence)
    /// and for any key the filter might hold; `false` is definitive.
    pub fn may_contain(&self, key: &SeriesKey) -> bool {
        self.parsed
            .filter
            .as_ref()
            .is_none_or(|f| f.may_contain(key))
    }

    /// The per-key envelope table, sorted by key — one
    /// `(key, min_time, max_time)` entry per distinct series.
    pub fn envelopes(&self) -> &[(SeriesKey, i64, i64)] {
        &self.parsed.envelopes
    }

    /// The `(min_time, max_time)` envelope of one series in this file,
    /// or `None` if the file holds no chunk for it — the per-key pruning
    /// statistic queries consult before touching any page. Served from
    /// the envelope table cached at parse time by binary search; the
    /// chunk metas are not walked.
    pub fn key_time_range(&self, key: &SeriesKey) -> Option<(i64, i64)> {
        let idx = self.parsed.envelopes.partition_point(|(k, _, _)| k < key);
        match self.parsed.envelopes.get(idx) {
            Some((k, min, max)) if k == key => Some((*min, *max)),
            _ => None,
        }
    }

    /// The `(first, last)` device names in this file — the device range
    /// compaction's overlap-driven picking compares. `None` for an
    /// empty file. Keys sort by `(device, sensor)`, so the table's ends
    /// bound the device set.
    pub fn device_range(&self) -> Option<(&str, &str)> {
        let (first, _, _) = self.parsed.envelopes.first()?;
        let (last, _, _) = self.parsed.envelopes.last()?;
        Some((first.device.as_str(), last.device.as_str()))
    }

    /// Whether this file's device range intersects `other`'s — the
    /// overlap test leveled compaction uses to keep disjoint-device
    /// files out of one merge.
    pub fn devices_overlap(&self, other: &FileHandle) -> bool {
        match (self.device_range(), other.device_range()) {
            (Some((a_lo, a_hi)), Some((b_lo, b_hi))) => a_lo <= b_hi && b_lo <= a_hi,
            _ => false,
        }
    }

    /// Whether any of the series' points can fall inside `[t_lo, t_hi]`.
    /// The cached envelope rejects most misses in one binary search;
    /// only an envelope hit walks the key's chunk run for the exact
    /// per-chunk answer.
    pub fn overlaps(&self, key: &SeriesKey, t_lo: i64, t_hi: i64) -> bool {
        match self.key_time_range(key) {
            None => false,
            Some((min, max)) if max < t_lo || min > t_hi => false,
            Some(_) => self
                .chunks_for(key)
                .iter()
                .any(|m| m.max_time >= t_lo && m.min_time <= t_hi),
        }
    }
}

/// A sorted, merged set of closed timestamp intervals — the tombstones
/// applicable to one `(key, file)` pair, resolved once per query.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct IntervalSet {
    /// Disjoint `[lo, hi]` intervals in ascending order.
    intervals: Vec<(i64, i64)>,
}

impl IntervalSet {
    /// Resolves the tombstones whose horizon covers `file_idx` and whose
    /// key matches into a merged interval list. `tombstones` pairs each
    /// [`Tombstone`] with its file horizon: only files *below* the
    /// horizon existed when the delete was issued, so only they are
    /// masked.
    pub fn resolve(tombstones: &[(Tombstone, usize)], key: &SeriesKey, file_idx: usize) -> Self {
        let mut intervals: Vec<(i64, i64)> = tombstones
            .iter()
            .filter(|(ts, horizon)| file_idx < *horizon && &ts.key == key)
            .map(|(ts, _)| (ts.t_lo, ts.t_hi))
            .filter(|(lo, hi)| lo <= hi)
            .collect();
        intervals.sort_unstable();
        let mut merged: Vec<(i64, i64)> = Vec::with_capacity(intervals.len());
        for (lo, hi) in intervals {
            match merged.last_mut() {
                Some((_, phi)) if lo <= phi.saturating_add(1) => *phi = (*phi).max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        Self { intervals: merged }
    }

    /// Whether no interval covers anything.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Whether `t` falls inside any interval, by binary search.
    pub fn contains(&self, t: i64) -> bool {
        let idx = self.intervals.partition_point(|&(lo, _)| lo <= t);
        idx > 0 && self.intervals[idx - 1].1 >= t
    }

    /// Calls `keep` with each maximal index range of the ascending
    /// `times` that no interval covers, in order — how a tombstoned run
    /// is streamed as slices: two binary searches per interval that
    /// touches the slice, not a lookup per point.
    pub fn for_each_kept(&self, times: &[i64], mut keep: impl FnMut(std::ops::Range<usize>)) {
        let Some(&first) = times.first() else {
            return;
        };
        // `times[..at]` is classified; the kept stretch being grown
        // starts at `kept_from`.
        let (mut kept_from, mut at) = (0, 0);
        let from = self.intervals.partition_point(|&(_, hi)| hi < first);
        for &(lo, hi) in self.intervals.iter().skip(from) {
            let Some(rest) = times.get(at..).filter(|r| !r.is_empty()) else {
                break;
            };
            let erased_from = at + rest.partition_point(|&t| t < lo);
            at = erased_from
                + times
                    .get(erased_from..)
                    .map_or(0, |r| r.partition_point(|&t| t <= hi));
            if at > erased_from {
                if erased_from > kept_from {
                    keep(kept_from..erased_from);
                }
                kept_from = at;
            }
        }
        if kept_from < times.len() {
            keep(kept_from..times.len());
        }
    }
}

/// Where a [`Scan`]'s points go: rows for `query`, a running fold for
/// the aggregates. Points arrive in ascending time order, one point per
/// timestamp (duplicates across and within runs are already resolved),
/// as borrowed column slices — or, for a page nothing shadows or erases,
/// as the page's header.
pub(crate) trait Sink {
    /// Whether the sink reads values at all. When it does not, the scan
    /// decodes timestamp columns alone and hands them to
    /// [`push_times`](Self::push_times).
    fn needs_values(&self) -> bool {
        true
    }

    /// Takes a stretch of points: `times` ascending, `values` as long.
    fn push(&mut self, times: &[i64], values: ColumnSlice<'_>);

    /// Takes a stretch of points whose values nobody decoded. Reached
    /// only when [`needs_values`](Self::needs_values) is false.
    fn push_times(&mut self, times: &[i64]) {
        debug_assert!(times.is_empty(), "a sink that needs values got none");
    }

    /// Offers a whole page as the statistics its header stores — every
    /// point of it inside the scan range, in a streamed run (no other run
    /// overlaps it) that no tombstone touches. Returns whether the sink
    /// absorbed it; `false` makes the scan decode the page instead.
    fn push_page(&mut self, _page: &PageHeader) -> bool {
        false
    }
}

/// Where a [`Run`]'s points live.
enum RunSource<'s> {
    /// One flushed chunk, read through its file's image and masked by
    /// the file's resolved tombstones.
    Chunk {
        file: &'s FileHandle,
        meta: &'s ChunkMeta,
        erased: IntervalSet,
    },
    /// The index range `lo..hi` of a time-sorted memtable buffer (its
    /// deletes were applied when they were issued).
    Buffer {
        buffer: &'s SeriesBuffer,
        lo: usize,
        hi: usize,
    },
}

/// A time-sorted source of one series' points with its time envelope
/// `[lo, hi]`, clipped to the scan range. A run's rank is its position
/// in the list handed to [`Scan::run`]: on equal timestamps the
/// higher-ranked run wins.
pub(crate) struct Run<'s> {
    lo: i64,
    hi: i64,
    source: RunSource<'s>,
}

impl<'s> Run<'s> {
    /// A flushed chunk as a run, or `None` when its envelope misses
    /// `[t_lo, t_hi]`.
    fn chunk(
        file: &'s FileHandle,
        meta: &'s ChunkMeta,
        erased: IntervalSet,
        t_lo: i64,
        t_hi: i64,
    ) -> Option<Self> {
        (meta.max_time >= t_lo && meta.min_time <= t_hi).then(|| Self {
            lo: meta.min_time.max(t_lo),
            hi: meta.max_time.min(t_hi),
            source: RunSource::Chunk { file, meta, erased },
        })
    }

    /// The slice of a sorted buffer inside `[t_lo, t_hi]` as a run, or
    /// `None` when it is empty.
    pub(crate) fn buffer(buffer: &'s SeriesBuffer, t_lo: i64, t_hi: i64) -> Option<Self> {
        let (lo, hi) = (buffer.lower_bound(t_lo), buffer.upper_bound(t_hi));
        (lo < hi).then(|| Self {
            lo: buffer.time(lo),
            hi: buffer.time(hi - 1),
            source: RunSource::Buffer { buffer, lo, hi },
        })
    }

    /// The file a chunk run reads, `None` for a buffer run.
    pub(crate) fn file(&self) -> Option<&'s FileHandle> {
        match self.source {
            RunSource::Chunk { file, .. } => Some(file),
            RunSource::Buffer { .. } => None,
        }
    }
}

/// What [`plan_files`] keeps of a file list for one series and range.
#[derive(Default)]
pub(crate) struct FilePlan<'s> {
    /// One run per surviving chunk, in ascending priority (files oldest
    /// first, a file's chunks in file order). A file past both prunes
    /// has a chunk in range, so it owns at least one run.
    pub(crate) runs: Vec<Run<'s>>,
    pub(crate) pruned_by_filter: u64,
    pub(crate) pruned_by_envelope: u64,
}

/// The one file prune, shared by reads, `EXPLAIN` and compaction. Per
/// file: the O(1) key filter (v1 files carry none and fall through),
/// then the series' time envelope, then its tombstones resolved into one
/// [`IntervalSet`] and a [`Run`] per chunk inside `[t_lo, t_hi]`. `files`
/// starts at index `first` of the shard's list, which tombstone horizons
/// index. Records no metric: each caller counts what it needs.
pub(crate) fn plan_files<'s>(
    files: &'s [FileHandle],
    first: usize,
    tombstones: &[(Tombstone, usize)],
    key: &SeriesKey,
    t_lo: i64,
    t_hi: i64,
) -> FilePlan<'s> {
    let mut plan = FilePlan::default();
    for (file_idx, handle) in (first..).zip(files) {
        if !handle.may_contain(key) {
            plan.pruned_by_filter += 1;
        } else if !handle.overlaps(key, t_lo, t_hi) {
            plan.pruned_by_envelope += 1;
        } else {
            let erased = IntervalSet::resolve(tombstones, key, file_idx);
            let chunks = handle.chunks_for(key).iter();
            plan.runs.extend(
                chunks.filter_map(|meta| Run::chunk(handle, meta, erased.clone(), t_lo, t_hi)),
            );
        }
    }
    plan
}

/// What one scan did, page by page and point by point.
#[derive(Debug, Default)]
pub(crate) struct ScanStats {
    /// Pages decoded from image bytes (both columns, or timestamps
    /// alone) — cache hits are not in here; the cache counts those.
    pub(crate) pages_decoded: Cell<u64>,
    /// Pages answered from their header statistics, never decoded.
    pub(crate) pages_from_header: Cell<u64>,
    /// Points decoded and handed to the sink.
    pub(crate) points: Cell<u64>,
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

/// Points the ranked merge buffers before handing them to the sink as
/// one typed stretch.
const MERGE_BATCH: usize = 1024;

/// One scan of a series over `[t_lo, t_hi]`.
pub(crate) struct Scan<'s> {
    t_lo: i64,
    t_hi: i64,
    cache: Option<&'s Arc<BlockCache>>,
    pub(crate) stats: ScanStats,
}

impl<'s> Scan<'s> {
    pub(crate) fn new(t_lo: i64, t_hi: i64, cache: Option<&'s Arc<BlockCache>>) -> Self {
        Self {
            t_lo,
            t_hi,
            cache,
            stats: ScanStats::default(),
        }
    }

    /// Sweeps `runs`' envelopes in time order and feeds `sink`: a run
    /// overlapping no other is streamed as slices; each maximal group of
    /// runs whose envelopes chain together is merged, ranked by position
    /// in `runs` (lowest priority first). Envelopes are closed, so runs
    /// that merely share an end timestamp still meet in one merge.
    pub(crate) fn run(&self, runs: &[Run<'s>], sink: &mut dyn Sink) {
        let mut by_start: Vec<(usize, &Run<'s>)> = runs.iter().enumerate().collect();
        by_start.sort_by_key(|(_, run)| run.lo);
        let mut rest = by_start.as_slice();
        while let Some((_, first)) = rest.first() {
            let mut group_hi = first.hi;
            let chained = rest.iter().skip(1).take_while(|(_, run)| {
                let joins = run.lo <= group_hi;
                if joins {
                    group_hi = group_hi.max(run.hi);
                }
                joins
            });
            let (group, after) = rest.split_at(1 + chained.count());
            match group {
                [(_, only)] => self.stream(only, sink),
                _ => {
                    let mut ranked = group.to_vec();
                    ranked.sort_by_key(|&(rank, _)| rank);
                    self.merge(ranked.into_iter().map(|(_, run)| run), sink);
                }
            }
            rest = after;
        }
    }

    /// Hands a run that nothing overlaps to the sink without looking at
    /// its points one by one: a buffer as its deduplicated columns, a
    /// chunk page by page — from the header alone when the page lies
    /// wholly inside the range, the file has no tombstone for the series
    /// and the sink can answer from the header, else as the in-range
    /// sub-slices of the decoded (or cached) columns, split around the
    /// file's tombstones.
    fn stream(&self, run: &Run<'s>, sink: &mut dyn Sink) {
        let (file, meta, erased) = match &run.source {
            RunSource::Buffer { buffer, lo, hi } => {
                let (times, values) = buffer.dedup_columns(*lo..*hi);
                bump(&self.stats.points, times.len() as u64);
                return sink.push(&times, values.as_slice());
            }
            RunSource::Chunk { file, meta, erased } => (*file, *meta, erased),
        };
        let with_values = sink.needs_values();
        for header in self.pages(file, meta) {
            if erased.is_empty()
                && header.min_time >= self.t_lo
                && header.max_time <= self.t_hi
                && sink.push_page(&header)
            {
                bump(&self.stats.pages_from_header, 1);
                continue;
            }
            // A partial page is not worth a cache slot, so a sink that
            // reads no values takes a cached page when there is one and
            // otherwise decodes the timestamp column alone.
            let page = if with_values {
                self.page(file, meta, &header)
            } else {
                self.cached(page_key(file, meta, &header))
            };
            let times_alone;
            let (times, values) = match &page {
                Some(page) => (page.0.as_slice(), Some(&page.1)),
                None if with_values => return, // a corrupt page ends the run
                None => {
                    let Some(times) = header.decode_times(file.image()) else {
                        return;
                    };
                    bump(&self.stats.pages_decoded, 1);
                    times_alone = times;
                    (times_alone.as_slice(), None)
                }
            };
            let within = range_within(times, self.t_lo, self.t_hi);
            erased.for_each_kept(&times[within.clone()], |kept| {
                let (a, b) = (within.start + kept.start, within.start + kept.end);
                bump(&self.stats.points, (b - a) as u64);
                match values {
                    Some(values) => sink.push(&times[a..b], values.slice(a, b)),
                    None => sink.push_times(&times[a..b]),
                }
            });
        }
    }

    /// Merges runs whose envelopes intersect through [`LastWins`] —
    /// `group` in ascending priority — and hands the survivors to the
    /// sink in typed batches (a new batch whenever the value type
    /// changes: a foreign file may hold another type than the live
    /// buffer of the same series).
    fn merge<'r>(&'r self, group: impl Iterator<Item = &'r Run<'s>>, sink: &mut dyn Sink)
    where
        's: 'r,
    {
        let sources = group
            .map(|run| -> Box<dyn Iterator<Item = (i64, TsValue)> + 'r> {
                match &run.source {
                    RunSource::Buffer { buffer, lo, hi } => {
                        Box::new((*lo..*hi).map(move |i| buffer.get(i)))
                    }
                    RunSource::Chunk { file, meta, erased } => {
                        Box::new(self.chunk_rows(file, meta, erased))
                    }
                }
            })
            .collect();
        let mut times: Vec<i64> = Vec::with_capacity(MERGE_BATCH);
        let mut values: Option<ValueColumn> = None;
        for (t, v) in LastWins::new(sources) {
            let fits = values
                .as_ref()
                .is_some_and(|col| col.data_type() == v.data_type() && times.len() < MERGE_BATCH);
            if !fits {
                if let Some(col) = values.take() {
                    self.push_merged(&mut times, &col, sink);
                }
            }
            let col = values
                .get_or_insert_with(|| ValueColumn::with_capacity(v.data_type(), MERGE_BATCH));
            if col.push(v).is_ok() {
                times.push(t);
            }
        }
        if let Some(col) = values {
            self.push_merged(&mut times, &col, sink);
        }
    }

    fn push_merged(&self, times: &mut Vec<i64>, values: &ValueColumn, sink: &mut dyn Sink) {
        bump(&self.stats.points, times.len() as u64);
        sink.push(times, values.as_slice());
        times.clear();
    }

    /// A chunk's in-range, unerased points as rows, pages fetched as the
    /// merge pulls — the shape [`LastWins`] takes its sources in. A
    /// corrupt page ends the rows.
    fn chunk_rows<'r>(
        &'r self,
        file: &'s FileHandle,
        meta: &'s ChunkMeta,
        erased: &'r IntervalSet,
    ) -> impl Iterator<Item = (i64, TsValue)> + 'r {
        self.pages(file, meta)
            .map_while(move |header| self.page(file, meta, &header))
            .flat_map(move |page| {
                range_within(&page.0, self.t_lo, self.t_hi).filter_map(move |i| {
                    let t = *page.0.get(i)?;
                    if erased.contains(t) {
                        return None;
                    }
                    Some((t, page.1.get(i)?))
                })
            })
    }

    /// The headers of `meta`'s pages that overlap the scan range, in
    /// file order (an unparsable chunk header yields none).
    fn pages(
        &self,
        file: &'s FileHandle,
        meta: &'s ChunkMeta,
    ) -> impl Iterator<Item = PageHeader> + 's {
        let (t_lo, t_hi) = (self.t_lo, self.t_hi);
        ChunkPages::open(file.image(), meta)
            .into_iter()
            .flatten()
            .filter(move |h| h.overlaps(t_lo, t_hi))
    }

    fn cached(&self, key: PageKey) -> Option<CachedPage> {
        self.cache.and_then(|cache| cache.get(key))
    }

    /// One page's columns: out of the block cache when it holds them,
    /// else decoded from the image and cached. `None` on a corrupt page.
    fn page(&self, file: &FileHandle, meta: &ChunkMeta, header: &PageHeader) -> Option<CachedPage> {
        let key = page_key(file, meta, header);
        if let Some(hit) = self.cached(key) {
            return Some(hit);
        }
        let page = Arc::new(header.decode(file.image(), meta.data_type)?);
        bump(&self.stats.pages_decoded, 1);
        if let Some(cache) = self.cache {
            cache.insert(key, Arc::clone(&page));
        }
        Some(page)
    }
}

fn page_key(file: &FileHandle, meta: &ChunkMeta, header: &PageHeader) -> PageKey {
    PageKey {
        file: file.id(),
        chunk: meta.offset,
        page: header.index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsfile::TsFileWriter;
    use crate::types::TsValue;

    fn key(s: &str) -> SeriesKey {
        SeriesKey::new("root.sg.d1", s)
    }

    fn two_key_image() -> Vec<u8> {
        let mut w = TsFileWriter::new();
        w.write_chunk(
            &key("a"),
            &[10, 20, 30],
            &[TsValue::Long(1), TsValue::Long(2), TsValue::Long(3)],
        );
        w.write_chunk(
            &key("b"),
            &[5, 50],
            &[TsValue::Long(-5), TsValue::Long(-50)],
        );
        w.finish()
    }

    #[test]
    fn handle_caches_index_and_prunes_by_key_and_range() {
        let h = FileHandle::parse(7, two_key_image()).expect("valid image");
        assert_eq!(h.id(), 7);
        assert_eq!(h.chunks().len(), 2);
        assert_eq!(h.key_time_range(&key("a")), Some((10, 30)));
        assert_eq!(h.key_time_range(&key("b")), Some((5, 50)));
        assert_eq!(h.key_time_range(&key("c")), None);
        assert!(h.overlaps(&key("a"), 25, 100));
        assert!(!h.overlaps(&key("a"), 31, 100));
        assert!(!h.overlaps(&key("c"), i64::MIN, i64::MAX));

        // Reading goes through the cached index.
        let chunk = &h.chunks_for(&key("a"))[0];
        let reader = TsFileReader::open(h.image()).unwrap();
        let (pts, _) = reader.read_chunk_range(chunk, 15, 30).unwrap();
        assert_eq!(pts, vec![(20, TsValue::Long(2)), (30, TsValue::Long(3))]);

        // Re-tagging reuses the index without a reparse.
        let h2 = h.with_id(9);
        assert_eq!(h2.id(), 9);
        assert_eq!(h2.chunks().len(), 2);
    }

    #[test]
    fn handle_rejects_garbage() {
        assert!(FileHandle::parse(0, b"not a tsfile".to_vec()).is_none());
    }

    #[test]
    fn envelope_table_is_cached_and_exact() {
        let h = FileHandle::parse(1, two_key_image()).expect("valid image");
        assert_eq!(
            h.envelopes(),
            &[(key("a"), 10, 30), (key("b"), 5, 50)],
            "one folded envelope per key, sorted"
        );
        // Multiple chunks of one key fold into one envelope.
        let mut w = TsFileWriter::new();
        w.write_chunk(&key("m"), &[1, 5], &[TsValue::Long(1), TsValue::Long(5)]);
        w.write_chunk(&key("m"), &[40, 90], &[TsValue::Long(4), TsValue::Long(9)]);
        let h = FileHandle::parse(2, w.finish()).expect("valid image");
        assert_eq!(h.envelopes(), &[(key("m"), 1, 90)]);
        assert_eq!(h.key_time_range(&key("m")), Some((1, 90)));
        // The envelope spans the inter-chunk gap, but overlaps() stays
        // chunk-exact: a range falling wholly in the gap matches no
        // chunk.
        assert!(!h.overlaps(&key("m"), 10, 30));
        assert!(h.overlaps(&key("m"), 5, 10));
    }

    #[test]
    fn filter_prunes_absent_keys_and_v1_never_prunes() {
        let h = FileHandle::parse(1, two_key_image()).expect("valid image");
        assert!(h.filter().is_some(), "flushed images are v2");
        assert!(h.may_contain(&key("a")) && h.may_contain(&key("b")));
        assert!(
            !h.may_contain(&SeriesKey::new("root.absent.d", "x")),
            "absent key pruned by the filter (deterministic hash)"
        );
        // A v1 image has no filter: may_contain must never prune.
        let mut w = TsFileWriter::with_version(crate::tsfile::Version::V1);
        w.write_chunk(&key("a"), &[1], &[TsValue::Long(1)]);
        let v1 = FileHandle::parse(2, w.finish()).expect("v1 opens");
        assert!(v1.filter().is_none());
        assert!(v1.may_contain(&SeriesKey::new("root.absent.d", "x")));
        assert_eq!(v1.key_time_range(&key("a")), Some((1, 1)));
    }

    #[test]
    fn level_metadata_rides_the_handle() {
        let h = FileHandle::parse(1, two_key_image()).expect("valid image");
        assert_eq!(h.level(), 0, "fresh handles are L0");
        let h = h.with_level(3);
        assert_eq!(h.level(), 3);
        assert_eq!(h.with_id(9).level(), 3, "re-tagging keeps the level");
        let mut h = h;
        h.set_level(1);
        assert_eq!(h.level(), 1);
    }

    #[test]
    fn device_range_and_overlap() {
        let mk = |device: &str| {
            let mut w = TsFileWriter::new();
            w.write_chunk(&SeriesKey::new(device, "s"), &[1], &[TsValue::Long(1)]);
            FileHandle::parse(0, w.finish()).expect("valid image")
        };
        let a = mk("root.sg.d1");
        let b = mk("root.sg.d9");
        let c = mk("root.sg.d1");
        assert_eq!(a.device_range(), Some(("root.sg.d1", "root.sg.d1")));
        assert!(a.devices_overlap(&c));
        assert!(!a.devices_overlap(&b));
        let empty = FileHandle::parse(0, TsFileWriter::new().finish()).expect("empty image");
        assert_eq!(empty.device_range(), None);
        assert!(!empty.devices_overlap(&a));
    }

    fn ts(s: &str, lo: i64, hi: i64) -> Tombstone {
        Tombstone {
            key: key(s),
            t_lo: lo,
            t_hi: hi,
        }
    }

    #[test]
    fn interval_set_resolves_horizon_and_key() {
        let tombs = vec![
            (ts("a", 10, 20), 2), // masks files 0 and 1
            (ts("a", 15, 30), 1), // masks file 0 only
            (ts("b", 0, 100), 2), // other key
        ];
        let f0 = IntervalSet::resolve(&tombs, &key("a"), 0);
        assert!(f0.contains(10) && f0.contains(25) && f0.contains(30));
        assert!(!f0.contains(9) && !f0.contains(31));
        let f1 = IntervalSet::resolve(&tombs, &key("a"), 1);
        assert!(f1.contains(20) && !f1.contains(25));
        let f2 = IntervalSet::resolve(&tombs, &key("a"), 2);
        assert!(f2.is_empty() && !f2.contains(15));
        let b0 = IntervalSet::resolve(&tombs, &key("b"), 0);
        assert!(b0.contains(0) && b0.contains(100) && !b0.contains(101));
    }

    #[test]
    fn interval_set_merges_adjacent_and_overlapping() {
        let tombs = vec![
            (ts("a", 1, 5), 1),
            (ts("a", 6, 9), 1), // adjacent: merges with [1,5]
            (ts("a", 20, 25), 1),
            (ts("a", 22, 30), 1), // overlapping
        ];
        let set = IntervalSet::resolve(&tombs, &key("a"), 0);
        assert_eq!(set.intervals, vec![(1, 9), (20, 30)]);
        for t in 1..=9 {
            assert!(set.contains(t));
        }
        assert!(!set.contains(10) && !set.contains(19));
        assert!(set.contains(20) && set.contains(30) && !set.contains(31));
    }

    #[test]
    fn interval_set_splits_a_slice_around_its_intervals() {
        let kept = |set: &IntervalSet, times: &[i64]| {
            let mut out = Vec::new();
            set.for_each_kept(times, |r| out.push(r));
            out
        };
        let times: Vec<i64> = (0..20).map(|i| i * 10).collect(); // 0, 10, … 190
        let none = IntervalSet::default();
        assert_eq!(kept(&none, &times), vec![0..20]);
        assert!(kept(&none, &[]).is_empty());
        let tombs = vec![
            (ts("a", -50, -1), 1),  // wholly before
            (ts("a", 30, 55), 1),   // erases 30, 40, 50
            (ts("a", 61, 69), 1),   // between two points: erases nothing
            (ts("a", 100, 100), 1), // one point
            (ts("a", 185, 900), 1), // runs off the end: erases 190
        ];
        let set = IntervalSet::resolve(&tombs, &key("a"), 0);
        assert_eq!(kept(&set, &times), vec![0..3, 6..10, 11..19]);
        // Against the per-point definition, on every sub-slice.
        for lo in 0..times.len() {
            for hi in lo..=times.len() {
                let slice = &times[lo..hi];
                let want: Vec<i64> = slice
                    .iter()
                    .copied()
                    .filter(|&t| !set.contains(t))
                    .collect();
                let got: Vec<i64> = kept(&set, slice)
                    .into_iter()
                    .flat_map(|r| slice[r].to_vec())
                    .collect();
                assert_eq!(got, want, "slice {lo}..{hi}");
            }
        }
        let all = IntervalSet::resolve(&[(ts("a", i64::MIN, i64::MAX), 1)], &key("a"), 0);
        assert!(kept(&all, &times).is_empty());
    }

    #[test]
    fn interval_set_handles_extreme_bounds() {
        let tombs = vec![(ts("a", i64::MIN, i64::MAX), 1)];
        let set = IntervalSet::resolve(&tombs, &key("a"), 0);
        assert!(set.contains(i64::MIN) && set.contains(0) && set.contains(i64::MAX));
    }
}
