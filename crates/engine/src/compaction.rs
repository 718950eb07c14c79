//! File compaction: full merges and the tiered/leveled background policy.
//!
//! The separation policy (paper §II, and the companion study it cites,
//! Kang et al. ICDE'22 "Separation or Not") deliberately produces
//! *overlapping* files: unsequence flushes contain timestamps below the
//! sequence files' ranges. Compaction is the corresponding background
//! task that merges them back into sorted, deduplicated files so reads
//! stop paying the multi-file merge.
//!
//! Two entry points share one merge primitive:
//!
//! * [`StorageEngine::compact`] — the full pass: every file of a shard
//!   merges into one output. Simple, predictable, and what the paper's
//!   maintenance window runs.
//! * [`StorageEngine::compact_auto`] — the leveled policy. Freshly
//!   flushed (and adopted) files sit at level 0; when a shard
//!   accumulates [`CompactionConfig::l0_trigger`] consecutive files of
//!   one level, the run merges into a single file one level up. Runs
//!   are trimmed at device-disjoint boundaries (merging files that
//!   share no device only rewrites bytes), and a singleton leftover is
//!   *promoted* — its level bumped without a rewrite. Both count as
//!   `compaction.level_moves`. Adopted wide multi-device images shed
//!   their foreign-shard chunks on their first merge, so unseq adoption
//!   stops producing wide files that every query must probe.
//!
//! # Invariants
//!
//! * A merge always consumes a *contiguous* run `[a, b)` of a shard's
//!   (oldest-first) file list and places its single output at position
//!   `a` — last-write-wins order is untouched for every other file.
//! * Within a shard, levels are non-increasing oldest → newest (the
//!   oldest files are the most-merged). A run merge targets
//!   `level + 1` and only fires when the run's predecessor is already
//!   above that, so the invariant is preserved.
//! * Tombstone horizons are remapped across the file-list surgery (see
//!   [`remap_horizon`]): masks over merged files are applied physically
//!   to the output, masks over untouched files shift with them, and a
//!   horizon that counted an in-flight flushing slot keeps covering it.

use std::collections::BTreeMap;

use crate::delete::Tombstone;
use crate::engine::StorageEngine;
use crate::read::FileHandle;
use crate::tsfile::{read_chunk_range, TsFileWriter};
use crate::types::{SeriesKey, TsValue};

/// Outcome of a compaction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Files merged away.
    pub files_in: usize,
    /// Files produced (0 when there was nothing to do, else 1 per
    /// merged run).
    pub files_out: usize,
    /// Points in the compacted file(s) (after cross-file dedup).
    pub points: u64,
    /// Bytes before compaction.
    pub bytes_in: u64,
    /// Bytes after.
    pub bytes_out: u64,
    /// Files moved up a level — merged runs count their output once,
    /// singleton promotions count the bumped file.
    pub level_moves: u64,
}

impl CompactionReport {
    fn zero() -> Self {
        CompactionReport {
            files_in: 0,
            files_out: 0,
            points: 0,
            bytes_in: 0,
            bytes_out: 0,
            level_moves: 0,
        }
    }

    fn absorb(&mut self, r: CompactionReport) {
        self.files_in += r.files_in;
        self.files_out += r.files_out;
        self.points += r.points;
        self.bytes_in += r.bytes_in;
        self.bytes_out += r.bytes_out;
        self.level_moves += r.level_moves;
    }
}

/// Where a tombstone's file horizon lands after the run `[a, b)` of a
/// shard's file list is replaced by `has_output` output files (0 or 1)
/// at position `a`. `None` means the tombstone no longer masks any file
/// and is dropped.
///
/// * `h <= a` — the mask never reached the run; unchanged.
/// * `a < h <= b` — the mask ends inside (or exactly at the end of) the
///   run. Its effect on files `[a, h)` was applied *physically* during
///   the merge (those points never reached the output), so only the
///   untouched prefix `[0, a)` still needs masking.
/// * `h > b` — the mask covers files beyond the run, which shifted down
///   by `(b - a) - has_output` positions. This includes a horizon that
///   counted the shard's in-flight flushing slot: it keeps counting it.
fn remap_horizon(h: usize, a: usize, b: usize, has_output: bool) -> Option<usize> {
    let h2 = if h <= a {
        h
    } else if h <= b {
        a
    } else {
        h - (b - a) + usize::from(has_output)
    };
    (h2 > 0).then_some(h2)
}

/// What the leveled policy decided to do with one shard.
enum Pick {
    /// Merge the contiguous run `[start, end)` into one file at `level`.
    Merge {
        start: usize,
        end: usize,
        level: u32,
    },
    /// Bump the single file at `idx` to `level` without rewriting it
    /// (its devices are disjoint from the rest of its run).
    Promote { idx: usize, level: u32 },
}

/// Byte capacity of `level` (≥ 1): `base · growth^(level-1)`, saturating.
fn level_capacity(base: usize, growth: usize, level: u32) -> usize {
    let mut cap = base;
    for _ in 1..level {
        cap = cap.saturating_mul(growth);
    }
    cap
}

/// The level-aware, overlap-driven file selection: find the run the
/// next `compact_auto` pass should fold, or `None` when the shard is
/// shaped fine.
///
/// Selection order mirrors an LSM tree: the level-0 suffix first (new
/// flushes are the overlap hot spot), then the oldest over-full run of
/// any higher level. A chosen run is trimmed to its leading
/// device-overlap group — consecutive files that actually share device
/// ranges — so disjoint files are not rewritten together; a leading
/// group of one file becomes a promotion instead of a rewrite.
fn pick_run(files: &[FileHandle], trigger: usize, base: usize, growth: usize) -> Option<Pick> {
    let len = files.len();
    // The level-0 suffix (levels are non-increasing oldest → newest).
    let mut s = len;
    while s > 0 && files.get(s - 1).is_some_and(|h| h.level() == 0) {
        s -= 1;
    }
    let candidate = if len - s >= trigger {
        Some((s, len, 0u32))
    } else {
        // Maximal equal-level runs at level ≥ 1, oldest first. A run
        // merges up when it gathers `trigger` files or outgrows its
        // level's byte capacity.
        let mut found = None;
        let mut i = 0;
        while i < s {
            let level = files.get(i).map_or(0, FileHandle::level);
            let mut j = i + 1;
            while j < s && files.get(j).is_some_and(|h| h.level() == level) {
                j += 1;
            }
            let run_bytes: usize = files
                .get(i..j)
                .into_iter()
                .flatten()
                .map(|h| h.image().len())
                .sum();
            let over_count = j - i >= trigger;
            let over_bytes = j - i >= 2 && run_bytes >= level_capacity(base, growth, level);
            if level >= 1 && (over_count || over_bytes) {
                found = Some((i, j, level));
                break;
            }
            i = j;
        }
        found
    };
    let (start, end, level) = candidate?;
    // Trim to the leading device-overlap group: extend while the next
    // file shares a device range with any file already in the group.
    let mut b = start + 1;
    while b < end
        && files.get(b).is_some_and(|next| {
            files
                .get(start..b)
                .into_iter()
                .flatten()
                .any(|h| h.devices_overlap(next))
        })
    {
        b += 1;
    }
    if b - start >= 2 {
        Some(Pick::Merge {
            start,
            end: b,
            level: level + 1,
        })
    } else {
        Some(Pick::Promote {
            idx: start,
            level: level + 1,
        })
    }
}

impl StorageEngine {
    /// Merges each shard's flushed files into one sorted, deduplicated
    /// file per shard, returning the summed report.
    ///
    /// Later files win on duplicate timestamps (they contain the fresher
    /// writes — unsequence flushes are appended after the sequence file
    /// they overlap). Memtables are untouched; queries before and after
    /// return identical results. Shards are compacted one at a time in
    /// ascending order (the engine's lock-ordering rule); files never
    /// move between shards, so per-shard merging loses nothing.
    pub fn compact(&self) -> CompactionReport {
        let _trace = self.trace_always(backsort_obs::names::SPAN_COMPACTION_ROOT, || {
            "compact full".to_string()
        });
        let mut total = CompactionReport::zero();
        for shard in 0..self.shard_count() {
            let span = backsort_obs::trace::span(backsort_obs::names::SPAN_COMPACTION_SHARD);
            if let Some(s) = &span {
                s.attr(backsort_obs::names::ATTR_SHARD, shard as u64);
            }
            total.absorb(self.compact_shard(shard));
        }
        self.record_compaction(&total);
        total
    }

    /// One pass of the tiered/leveled compaction policy
    /// ([`CompactionConfig`](crate::engine::CompactionConfig)): per
    /// shard, merge (or promote) at most one eligible run, chosen by
    /// [`pick_run`]'s level- and device-overlap rules. Returns the
    /// summed report; a shard with no eligible run contributes nothing.
    ///
    /// Unlike [`compact`](Self::compact), this is safe to call
    /// continuously: write amplification is bounded by the leveling
    /// ladder instead of re-rewriting every byte per pass.
    pub fn compact_auto(&self) -> CompactionReport {
        let _trace = self.trace_always(backsort_obs::names::SPAN_COMPACTION_ROOT, || {
            "compact auto".to_string()
        });
        let mut total = CompactionReport::zero();
        for shard in 0..self.shard_count() {
            let span = backsort_obs::trace::span(backsort_obs::names::SPAN_COMPACTION_SHARD);
            if let Some(s) = &span {
                s.attr(backsort_obs::names::ATTR_SHARD, shard as u64);
            }
            total.absorb(self.compact_shard_leveled(shard));
        }
        self.record_compaction(&total);
        total
    }

    fn record_compaction(&self, total: &CompactionReport) {
        let obs = self.obs();
        obs.counter(backsort_obs::names::COMPACTION_RUNS).inc();
        obs.counter(backsort_obs::names::COMPACTION_BYTES_IN)
            .add(total.bytes_in);
        obs.counter(backsort_obs::names::COMPACTION_BYTES_OUT)
            .add(total.bytes_out);
        if total.level_moves > 0 {
            obs.counter(backsort_obs::names::COMPACTION_LEVEL_MOVES)
                .add(total.level_moves);
        }
    }

    /// Merges the run `handles[a..b)` into one image: gathers every
    /// point per sensor (later files override earlier ones on equal
    /// timestamps), drops chunks belonging to other shards (adopted
    /// multi-device copies), and applies tombstones *physically* to any
    /// input file below their horizon. A series whose surviving points
    /// are not all of one type (an adopted file may hold another type
    /// than the buffers flushed beside it) is written as one chunk per
    /// same-type stretch, in time order. Returns `(image, points)`;
    /// `None` when nothing survives (no file is written).
    fn merge_run(
        &self,
        shard: usize,
        handles: &[FileHandle],
        a: usize,
        b: usize,
        tombstones: &[(Tombstone, usize)],
    ) -> Option<(Vec<u8>, u64)> {
        let mut merged: BTreeMap<SeriesKey, BTreeMap<i64, TsValue>> = BTreeMap::new();
        for (file_idx, handle) in handles.iter().enumerate().take(b).skip(a) {
            for meta in handle.chunks() {
                // A recovered multi-device image is adopted as a copy
                // into every shard owning one of its devices; keep only
                // this shard's chunks so the merge does not duplicate
                // other shards' data into this shard's compacted file.
                if self.shard_of(&meta.key.device) != shard {
                    continue;
                }
                if let Some((points, _)) =
                    read_chunk_range(handle.image(), meta, i64::MIN, i64::MAX)
                {
                    let series = merged.entry(meta.key.clone()).or_default();
                    for (t, v) in points {
                        let erased = tombstones
                            .iter()
                            .any(|(ts, horizon)| file_idx < *horizon && ts.covers(&meta.key, t));
                        if erased {
                            series.remove(&t);
                        } else {
                            series.insert(t, v); // later insert wins
                        }
                    }
                }
            }
        }
        let mut writer = TsFileWriter::new();
        let mut points = 0u64;
        for (key, series) in &merged {
            if series.is_empty() {
                continue;
            }
            let times: Vec<i64> = series.keys().copied().collect();
            let values: Vec<TsValue> = series.values().cloned().collect();
            points += times.len() as u64;
            let mut start = 0;
            for stretch in values.chunk_by(|a, b| a.data_type() == b.data_type()) {
                let end = start + stretch.len();
                writer.write_chunk(key, &times[start..end], stretch);
                start = end;
            }
        }
        (points > 0).then(|| (writer.finish(), points))
    }

    /// Re-installs the post-surgery state of a shard: the rebuilt file
    /// list (prepended, so files flushed while compaction ran stay
    /// newer) followed by the remapped tombstones (after the files, so
    /// the restore clamp sees the final count).
    fn publish(
        &self,
        shard: usize,
        files: Vec<FileHandle>,
        tombstones: Vec<(Tombstone, usize)>,
        a: usize,
        b: usize,
        has_output: bool,
    ) {
        self.restore_files(shard, files);
        for (ts, h) in tombstones {
            if let Some(h2) = remap_horizon(h, a, b, has_output) {
                self.restore_tombstone(&ts.key, ts.t_lo, ts.t_hi, h2);
            }
        }
    }

    fn compact_shard(&self, shard: usize) -> CompactionReport {
        let (handles, tombstones) = self.take_for_compaction(shard);
        // Crash site: inputs are removed from the shard (in memory) and
        // the merged file does not exist yet. Recovery must serve the
        // data from the persisted inputs — the durable store only GCs
        // them after the merged image and manifest are on disk.
        self.faults()
            .kill_point(backsort_faults::sites::COMPACTION_AFTER_TAKE);
        let files_in = handles.len();
        let bytes_in: u64 = handles.iter().map(|h| h.image().len() as u64).sum();
        if files_in <= 1 && tombstones.is_empty() {
            // Nothing to merge or erase; put the files back untouched.
            let report = CompactionReport {
                files_in,
                files_out: files_in,
                bytes_in,
                bytes_out: bytes_in,
                ..CompactionReport::zero()
            };
            self.restore_files(shard, handles);
            return report;
        }
        if files_in == 0 {
            // Tombstones with no files to apply to: their masks can
            // still cover an in-flight flushing slot, so remap (the
            // no-op surgery [0, 0)) instead of dropping.
            self.publish(shard, handles, tombstones, 0, 0, false);
            return CompactionReport {
                bytes_in,
                bytes_out: bytes_in,
                ..CompactionReport::zero()
            };
        }

        let out_level = handles.iter().map(FileHandle::level).max().unwrap_or(0) + 1;
        let Some((image, points)) = self.merge_run(shard, &handles, 0, files_in, &tombstones)
        else {
            // Tombstones erased everything, or every chunk belonged to
            // other shards' copies: keep no file at all.
            self.publish(shard, Vec::new(), tombstones, 0, files_in, false);
            return CompactionReport {
                files_in,
                bytes_in,
                ..CompactionReport::zero()
            };
        };
        let bytes_out = image.len() as u64;
        // Crash site: the merged image exists in memory but is not yet
        // visible to queries or the durable store.
        self.faults()
            .kill_point(backsort_faults::sites::COMPACTION_BEFORE_RESTORE);
        // The merged file carries a fresh id: the durable store sees the
        // old ids vanish and this one appear, and re-persists accordingly.
        let handle = self.parse_own_image(image).with_level(out_level);
        self.publish(shard, vec![handle], tombstones, 0, files_in, true);
        CompactionReport {
            files_in,
            files_out: 1,
            points,
            bytes_in,
            bytes_out,
            level_moves: 1,
        }
    }

    fn compact_shard_leveled(&self, shard: usize) -> CompactionReport {
        let cfg = self.config().compaction;
        let trigger = cfg.l0_trigger.max(2);
        let growth = cfg.growth.max(2);
        let base = cfg.level_base_bytes.max(1);

        let (mut handles, tombstones) = self.take_for_compaction(shard);
        // Same exposure as the full pass: inputs are out of the shard,
        // nothing new exists yet.
        self.faults()
            .kill_point(backsort_faults::sites::COMPACTION_AFTER_TAKE);

        match pick_run(&handles, trigger, base, growth) {
            None => {
                self.publish(shard, handles, tombstones, 0, 0, false);
                CompactionReport::zero()
            }
            Some(Pick::Promote { idx, level }) => {
                if let Some(h) = handles.get_mut(idx) {
                    h.set_level(level);
                }
                self.publish(shard, handles, tombstones, 0, 0, false);
                CompactionReport {
                    level_moves: 1,
                    ..CompactionReport::zero()
                }
            }
            Some(Pick::Merge { start, end, level }) => {
                let bytes_in: u64 = handles
                    .get(start..end)
                    .into_iter()
                    .flatten()
                    .map(|h| h.image().len() as u64)
                    .sum();
                let files_in = end - start;
                let merged = self.merge_run(shard, &handles, start, end, &tombstones);
                let mut rebuilt: Vec<FileHandle> = Vec::with_capacity(handles.len());
                let tail: Vec<FileHandle> = handles.split_off(end);
                handles.truncate(start);
                rebuilt.append(&mut handles);
                let (report, has_output) = match merged {
                    Some((image, points)) => {
                        let bytes_out = image.len() as u64;
                        let handle = self.parse_own_image(image).with_level(level);
                        // Crash site: the level-move's output exists (id
                        // allocated, filter written, level assigned) but
                        // the shard still serves nothing for the run —
                        // recovery must come from the persisted inputs,
                        // and no file may surface at two levels.
                        self.faults()
                            .kill_point(backsort_faults::sites::COMPACTION_LEVEL_PUBLISH);
                        rebuilt.push(handle);
                        (
                            CompactionReport {
                                files_in,
                                files_out: 1,
                                points,
                                bytes_in,
                                bytes_out,
                                level_moves: 1,
                            },
                            true,
                        )
                    }
                    None => (
                        CompactionReport {
                            files_in,
                            bytes_in,
                            ..CompactionReport::zero()
                        },
                        false,
                    ),
                };
                rebuilt.extend(tail);
                self.publish(shard, rebuilt, tombstones, start, end, has_output);
                report
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CompactionConfig, EngineConfig};
    use backsort_core::Algorithm;

    fn engine(max_points: usize) -> StorageEngine {
        StorageEngine::new(EngineConfig {
            memtable_max_points: max_points,
            array_size: 16,
            sorter: Algorithm::Backward(Default::default()),
            shards: 1,
            ..EngineConfig::default()
        })
    }

    fn leveled_engine(max_points: usize, shards: usize, l0_trigger: usize) -> StorageEngine {
        StorageEngine::new(EngineConfig {
            memtable_max_points: max_points,
            array_size: 16,
            sorter: Algorithm::Backward(Default::default()),
            shards,
            compaction: CompactionConfig {
                l0_trigger,
                ..CompactionConfig::default()
            },
            ..EngineConfig::default()
        })
    }

    fn key(s: &str) -> SeriesKey {
        SeriesKey::new("root.sg.d1", s)
    }

    #[test]
    fn compaction_merges_files_and_preserves_queries() {
        let eng = engine(50);
        let mut x = 9u64;
        for i in 0..300i64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            eng.write_points(&key("s1"), [(i + (x % 4) as i64, TsValue::Long(i))]);
        }
        eng.flush();
        let before = eng.query(&key("s1"), i64::MIN, i64::MAX);
        let files_before = eng.file_count();
        assert!(files_before >= 5);

        let report = eng.compact();
        assert_eq!(report.files_in, files_before);
        assert_eq!(report.files_out, 1);
        assert_eq!(eng.file_count(), 1);
        assert!(report.points > 0);

        let after = eng.query(&key("s1"), i64::MIN, i64::MAX);
        assert_eq!(before, after, "queries identical across compaction");
    }

    #[test]
    fn unsequence_overrides_survive_compaction() {
        let eng = engine(40);
        // Flush at 40; then a straggler rewrites t=10 through the
        // unsequence path...
        eng.write_points(&key("s"), (0..40i64).map(|i| (i, TsValue::Long(i))));
        eng.write_points(&key("s"), [(10, TsValue::Long(-10))]);
        // ...and gets flushed into its own (overlapping) file.
        eng.flush_unseq();
        assert_eq!(eng.file_count(), 2);

        let report = eng.compact();
        assert_eq!(report.files_out, 1);
        let got = eng.query(&key("s"), 9, 11);
        assert_eq!(
            got,
            vec![
                (9, TsValue::Long(9)),
                (10, TsValue::Long(-10)),
                (11, TsValue::Long(11)),
            ],
            "the later (unsequence) write must win after compaction"
        );
    }

    #[test]
    fn compaction_of_zero_or_one_file_is_a_noop() {
        let eng = engine(1_000);
        let report = eng.compact();
        assert_eq!(report.files_in, 0);
        assert_eq!(report.files_out, 0);

        eng.write_points(&key("s"), (0..10i64).map(|i| (i, TsValue::Long(i))));
        eng.flush();
        let report = eng.compact();
        assert_eq!(report.files_in, 1);
        assert_eq!(report.files_out, 1);
        assert_eq!(eng.file_count(), 1);
        assert_eq!(eng.query(&key("s"), 0, 20).len(), 10);
    }

    #[test]
    fn compaction_shrinks_overlapping_files() {
        // Exact last-write-wins across duplicate timestamps needs the
        // stable configuration (flush.rs documents the caveat).
        let eng = StorageEngine::new(EngineConfig {
            memtable_max_points: 25,
            array_size: 16,
            sorter: Algorithm::Backward(backsort_core::BackwardSort {
                in_block: backsort_core::InBlockSort::Stable,
                ..Default::default()
            }),
            shards: 1,
            ..EngineConfig::default()
        });
        // Duplicate-heavy workload: many timestamps rewritten.
        for round in 0..6i64 {
            eng.write_points(
                &key("s"),
                (0..25i64).map(|t| (t, TsValue::Long(round * 100 + t))),
            );
        }
        eng.flush();
        eng.flush_unseq();
        // One sequence file from the first rotation plus the unsequence
        // file holding all five rewrite rounds.
        let report = eng.compact();
        assert!(report.files_in >= 2, "files_in {}", report.files_in);
        assert_eq!(report.points, 25, "only 25 distinct timestamps remain");
        assert!(report.bytes_out < report.bytes_in);
        // Last round's values win.
        let got = eng.query(&key("s"), 0, 30);
        assert_eq!(got[0], (0, TsValue::Long(500)));
    }

    #[test]
    fn multi_sensor_compaction() {
        let eng = engine(30);
        for i in 0..90i64 {
            eng.write_points(&key("a"), [(i, TsValue::Int(i as i32))]);
            eng.write_points(&key("b"), [(i, TsValue::Double(i as f64))]);
        }
        eng.flush();
        eng.compact();
        assert_eq!(eng.query(&key("a"), 0, 100).len(), 90);
        assert_eq!(eng.query(&key("b"), 0, 100).len(), 90);
    }

    #[test]
    fn adopted_multi_device_image_compacts_without_cross_shard_duplication() {
        // Build one image holding two devices that hash to different
        // shards (d0 and d2 under FNV-1a mod 4).
        let single = engine(1_000);
        let ka = SeriesKey::new("root.sg.d0", "s");
        let kb = SeriesKey::new("root.sg.d2", "s");
        single.write_points(&ka, (0..20i64).map(|t| (t, TsValue::Long(t))));
        single.write_points(&kb, (0..20i64).map(|t| (t, TsValue::Long(-t))));
        single.flush();
        let ids = single.shard_file_ids(0);
        assert_eq!(ids.len(), 1);
        let image = single.file_image(0, ids[0]).unwrap();

        let eng = StorageEngine::new(EngineConfig {
            memtable_max_points: 1_000,
            array_size: 16,
            sorter: Algorithm::Backward(Default::default()),
            shards: 4,
            ..EngineConfig::default()
        });
        let installed = eng.adopt_file(image).expect("valid image");
        assert_eq!(installed.len(), 2, "one copy per owning shard");
        // Give each shard a second file so compaction actually merges.
        eng.write_points(&ka, (20..40i64).map(|t| (t, TsValue::Long(t))));
        eng.write_points(&kb, (20..40i64).map(|t| (t, TsValue::Long(-t))));
        eng.flush();

        let report = eng.compact();
        // Each shard keeps only its own device's chunks: 40 + 40 points,
        // not 60 + 60 with the adopted copies folded in twice.
        assert_eq!(report.points, 80);
        assert_eq!(eng.file_count(), 2);
        for (k, sign) in [(&ka, 1i64), (&kb, -1i64)] {
            let got = eng.query(k, i64::MIN, i64::MAX);
            assert_eq!(got.len(), 40);
            for (t, v) in got {
                assert_eq!(v, TsValue::Long(sign * t));
            }
        }
    }

    #[test]
    fn sharded_compaction_merges_per_shard() {
        let eng = StorageEngine::new(EngineConfig {
            memtable_max_points: 30,
            array_size: 16,
            sorter: Algorithm::Backward(Default::default()),
            shards: 4,
            ..EngineConfig::default()
        });
        // d0 and d2 live on different shards; each produces several files.
        let ka = SeriesKey::new("root.sg.d0", "s");
        let kb = SeriesKey::new("root.sg.d2", "s");
        eng.write_points(&ka, (0..90i64).map(|i| (i, TsValue::Long(i))));
        eng.write_points(&kb, (0..90i64).map(|i| (i, TsValue::Long(-i))));
        eng.flush();
        assert!(eng.file_count() >= 4);

        let report = eng.compact();
        // One merged file per populated shard, never a cross-shard merge.
        assert_eq!(report.files_out, 2);
        assert_eq!(eng.file_count(), 2);
        assert_eq!(eng.query(&ka, 0, 100).len(), 90);
        assert_eq!(eng.query(&kb, 0, 100).len(), 90);
    }

    #[test]
    fn leveled_compaction_folds_the_l0_suffix() {
        let eng = leveled_engine(20, 1, 3);
        // Six flushes → six L0 files.
        for f in 0..6i64 {
            eng.write_points(
                &key("s"),
                (0..20i64).map(|t| (f * 20 + t, TsValue::Long(f * 20 + t))),
            );
        }
        assert_eq!(eng.file_count(), 6);
        assert!(eng.shard_file_meta(0).iter().all(|&(_, level)| level == 0));

        let report = eng.compact_auto();
        assert_eq!(report.files_in, 6, "the whole L0 suffix merges");
        assert_eq!(report.files_out, 1);
        assert_eq!(report.level_moves, 1);
        let meta = eng.shard_file_meta(0);
        assert_eq!(meta.len(), 1);
        assert_eq!(meta[0].1, 1, "output lands at level 1");
        assert_eq!(eng.query(&key("s"), 0, 200).len(), 120);

        // Below the trigger nothing happens.
        let report = eng.compact_auto();
        assert_eq!(report.files_out, 0);
        assert_eq!(report.level_moves, 0);
        assert_eq!(eng.file_count(), 1);
    }

    #[test]
    fn leveled_compaction_climbs_levels() {
        let eng = leveled_engine(20, 1, 2);
        // Interleave flushes and passes: L0 pairs fold to L1, L1 pairs
        // to L2 — levels stay non-increasing oldest → newest throughout.
        for f in 0..8i64 {
            eng.write_points(
                &key("s"),
                (0..20i64).map(|t| (f * 20 + t, TsValue::Long(f * 20 + t))),
            );
            eng.compact_auto();
            let meta = eng.shard_file_meta(0);
            let levels: Vec<u32> = meta.iter().map(|&(_, l)| l).collect();
            assert!(
                levels.windows(2).all(|w| w[0] >= w[1]),
                "levels non-increasing oldest→newest, got {levels:?}"
            );
        }
        assert!(
            eng.shard_file_meta(0).iter().any(|&(_, l)| l >= 2),
            "repeated passes climb past level 1: {:?}",
            eng.shard_file_meta(0)
        );
        assert_eq!(eng.query(&key("s"), 0, 400).len(), 160, "no point lost");
    }

    #[test]
    fn leveled_compaction_respects_device_disjoint_runs() {
        // d0 and d2 land on different shards at shards=4 — use one
        // shard and two devices that share it instead, with disjoint
        // device ranges per file.
        let eng = leveled_engine(1_000, 1, 2);
        let ka = SeriesKey::new("root.sg.a", "s");
        let kb = SeriesKey::new("root.sg.b", "s");
        // File 1: device a only. File 2: device b only.
        eng.write_points(&ka, (0..10i64).map(|t| (t, TsValue::Long(t))));
        eng.flush();
        eng.write_points(&kb, (0..10i64).map(|t| (t, TsValue::Long(-t))));
        eng.flush();
        assert_eq!(eng.file_count(), 2);

        let report = eng.compact_auto();
        // Device-disjoint neighbors are not rewritten together: the
        // leading singleton is promoted instead.
        assert_eq!(report.files_out, 0, "no rewrite of disjoint devices");
        assert_eq!(report.level_moves, 1, "the leftover is promoted");
        assert_eq!(eng.file_count(), 2);
        assert_eq!(eng.query(&ka, 0, 20).len(), 10);
        assert_eq!(eng.query(&kb, 0, 20).len(), 10);
    }

    #[test]
    fn leveled_compaction_narrows_adopted_wide_files() {
        // A wide two-device image adopted into a 4-shard engine leaves a
        // copy in each owning shard; the first leveled merge sheds the
        // foreign shard's chunks.
        let single = engine(1_000);
        let ka = SeriesKey::new("root.sg.d0", "s");
        let kb = SeriesKey::new("root.sg.d2", "s");
        single.write_points(&ka, (0..20i64).map(|t| (t, TsValue::Long(t))));
        single.write_points(&kb, (0..20i64).map(|t| (t, TsValue::Long(-t))));
        single.flush();
        let image = single.file_image(0, single.shard_file_ids(0)[0]).unwrap();

        let eng = leveled_engine(20, 4, 2);
        eng.adopt_file(image).expect("valid image");
        eng.write_points(&ka, (20..40i64).map(|t| (t, TsValue::Long(t))));
        eng.write_points(&kb, (20..40i64).map(|t| (t, TsValue::Long(-t))));
        eng.flush();

        eng.compact_auto();
        // Every surviving file now holds only its own shard's device.
        let total_points: u64 = (0..eng.shard_count())
            .map(|s| {
                eng.shard_file_ids(s)
                    .iter()
                    .filter_map(|&id| eng.file_image(s, id))
                    .flat_map(|img| {
                        crate::tsfile::TsFileReader::open(&img)
                            .map(|r| r.chunks().to_vec())
                            .unwrap_or_default()
                    })
                    .map(|m| u64::from(m.num_points))
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(total_points, 80, "cross-shard duplicates are shed");
        assert_eq!(eng.query(&ka, i64::MIN, i64::MAX).len(), 40);
        assert_eq!(eng.query(&kb, i64::MIN, i64::MAX).len(), 40);
    }

    #[test]
    fn tombstone_over_inflight_flush_survives_compaction() {
        // Regression: a delete whose horizon counts the in-flight
        // flushing slot must keep masking the file that flush installs,
        // even when a full compaction runs in between.
        let eng = engine(40);
        eng.write_points(&key("s"), (0..40i64).map(|t| (t, TsValue::Long(t)))); // flush at 40
        eng.write_points(&key("s"), (40..60i64).map(|t| (t, TsValue::Long(t))));
        let job = eng.begin_flush_shard(0).expect("rotates");
        // Horizon = 1 file + 1 flushing slot = 2.
        eng.delete_range(&key("s"), 45, 50);
        eng.compact(); // must keep (and remap) the straddling tombstone
        eng.complete_flush(job);
        let got = eng.query(&key("s"), 40, 60);
        assert!(
            got.iter().all(|&(t, _)| !(45..=50).contains(&t)),
            "deleted range stays deleted after compact + flush install: {got:?}"
        );
        assert_eq!(got.len(), 14, "points outside the range survive");
    }

    #[test]
    fn full_compaction_output_outranks_its_inputs() {
        let eng = leveled_engine(20, 1, 2);
        for f in 0..4i64 {
            eng.write_points(
                &key("s"),
                (0..20i64).map(|t| (f * 20 + t, TsValue::Long(t))),
            );
        }
        eng.compact_auto(); // some structure first
        eng.compact();
        let meta = eng.shard_file_meta(0);
        assert_eq!(meta.len(), 1);
        assert!(meta[0].1 >= 1, "full merge output sits above level 0");
    }
}
