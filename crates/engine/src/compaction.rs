//! File compaction: full merges and the tiered/leveled background policy.
//!
//! The separation policy (paper §II, and the companion study it cites,
//! Kang et al. ICDE'22 "Separation or Not") deliberately produces
//! *overlapping* files: unsequence flushes contain timestamps below the
//! sequence files' ranges. Compaction is the corresponding background
//! task that merges them back into sorted, deduplicated files so reads
//! stop paying the multi-file merge.
//!
//! Two entry points share one merge, and it is the read path's: each
//! series of a run is planned by `read::plan_files` and merged by the
//! `read::Scan` every query runs, into the columns a raw read collects,
//! so a compacted file holds exactly what a query over its inputs
//! returned.
//!
//! * [`StorageEngine::compact`] — the full pass: every file of a shard
//!   merges into one output. Simple, predictable, and what the paper's
//!   maintenance window runs.
//! * [`StorageEngine::compact_auto`] — the leveled policy. Freshly
//!   flushed (and adopted) files sit at level 0; when a shard
//!   accumulates [`l0_trigger`](crate::CompactionConfig::l0_trigger)
//!   consecutive files of one level, the run merges into a single file
//!   one level up. Runs are trimmed at device-disjoint boundaries
//!   (merging files that share no device only rewrites bytes), and a
//!   singleton leftover is *promoted* — its level bumped without a
//!   rewrite. Both count in the returned [`CompactionReport`]'s
//!   `level_moves`. Adoption splits an image that spans shards with the
//!   same merge, one piece per shard.
//!
//! Both are one snapshot–merge–swap per shard (`compact_shard`): the
//! file list and tombstones are cloned under the shard's read lock (the
//! images are shared, not copied), the merge runs with no lock held, and
//! one write lock swaps the run for its output. Writes, flushes, deletes
//! and queries carry on meanwhile; a query reads the inputs until the
//! swap and the output after it. An engine-wide mutex, taken before any
//! shard lock, serializes compactions, so nothing else moves a shard's
//! files while a merge runs.
//!
//! # Invariants
//!
//! * A merge always consumes a *contiguous* run `[a, b)` of a shard's
//!   (oldest-first) file list and places its single output at position
//!   `a` — last-write-wins order is untouched for every other file,
//!   files flushed during the merge included.
//! * Within a shard, levels are non-increasing oldest → newest (the
//!   oldest files are the most-merged). A run merge targets
//!   `level + 1` and only fires when the run's predecessor is already
//!   above that, so the invariant is preserved.
//! * The output is stamped at the snapshot. The merge applies every
//!   tombstone of the snapshot to the inputs stamped below it, so none
//!   of them masks the output; a delete that lands during the merge is
//!   stamped above the output and masks it. Untouched files, and an
//!   in-flight flushing slot, keep their stamps and so their masks.
//!   After the swap, a tombstone left masking nothing goes.
//! * Rank stays positional: the output's stamp can exceed that of a
//!   newer file installed during the merge, so stamps cannot rank.

use crate::delete::Tombstone;
use crate::engine::StorageEngine;
use crate::query::Columns;
use crate::read::{plan_files, FileHandle, Scan};
use crate::tsfile::TsFileWriter;
use crate::types::SeriesKey;

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

/// Outcome of a compaction pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    fn absorb(&mut self, r: CompactionReport) {
        self.files_in += r.files_in;
        self.files_out += r.files_out;
        self.points += r.points;
        self.bytes_in += r.bytes_in;
        self.bytes_out += r.bytes_out;
        self.level_moves += r.level_moves;
    }
}

/// What a compaction pass decided to do with one shard.
enum Pick {
    /// Leave the shard as it is; the full pass reports its files as
    /// passing through.
    Keep,
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
    /// they overlap). Memtables are untouched; queries before, during and
    /// after return identical results. Shards are compacted one at a time
    /// in ascending order; files never move between shards, so per-shard
    /// merging loses nothing. A shard of one file and no tombstone is
    /// left as it is.
    pub fn compact(&self) -> CompactionReport {
        self.compact_shards(
            "compact full",
            backsort_faults::sites::COMPACTION_BEFORE_RESTORE,
            |files, has_tombstones| {
                if files.is_empty() || (files.len() == 1 && !has_tombstones) {
                    return Some(Pick::Keep);
                }
                let level = files.iter().map(FileHandle::level).max().unwrap_or(0) + 1;
                Some(Pick::Merge {
                    start: 0,
                    end: files.len(),
                    level,
                })
            },
        )
    }

    /// One pass of the tiered/leveled compaction policy
    /// ([`CompactionConfig`]): per
    /// shard, merge (or promote) at most one eligible run, chosen by
    /// `pick_run`'s level- and device-overlap rules. Returns the
    /// summed report; a shard with no eligible run contributes nothing.
    ///
    /// Unlike [`compact`](Self::compact), this is safe to call
    /// continuously: write amplification is bounded by the leveling
    /// ladder instead of re-rewriting every byte per pass.
    pub fn compact_auto(&self) -> CompactionReport {
        let cfg = self.config.compaction;
        let trigger = cfg.l0_trigger.max(2);
        let growth = cfg.growth.max(2);
        let base = cfg.level_base_bytes.max(1);
        self.compact_shards(
            "compact auto",
            backsort_faults::sites::COMPACTION_LEVEL_PUBLISH,
            |files, _| pick_run(files, trigger, base, growth),
        )
    }

    /// Runs [`compact_shard`](Self::compact_shard) over every shard in
    /// ascending order under one `compaction.root` trace, summing the
    /// reports.
    fn compact_shards(
        &self,
        label: &'static str,
        publish_site: &'static str,
        pick: impl Fn(&[FileHandle], bool) -> Option<Pick>,
    ) -> CompactionReport {
        let _trace = self.trace_always(backsort_obs::names::SPAN_COMPACTION_ROOT, || {
            label.to_string()
        });
        let mut total = CompactionReport::default();
        for shard in 0..self.shard_count() {
            let span = backsort_obs::trace::span(backsort_obs::names::SPAN_COMPACTION_SHARD);
            if let Some(s) = &span {
                s.attr(backsort_obs::names::ATTR_SHARD, shard as u64);
            }
            total.absorb(self.compact_shard(shard, &pick, publish_site));
        }
        total
    }

    /// One compaction of one shard: snapshot, merge, swap.
    ///
    /// Under the shard's read lock the pass clones the file list (a
    /// refcount bump per file) and the tombstones, and draws the
    /// output's stamp. `pick` chooses from
    /// that snapshot (told whether any tombstone is pending), and a
    /// merged run is built by [`merge_run`](Self::merge_run) with no lock
    /// held, while writes, flushes, deletes and reads go on. One write
    /// lock then swaps the run `[a, b)` for the output. Positions `[a, b)`
    /// still hold the snapshot's files then: flushes and adoptions only
    /// append, and only compaction removes files — one at a time, under
    /// the engine's compaction mutex. Readers see the inputs up to the
    /// swap and the output after it, never neither. The swap then drops
    /// the tombstones left masking nothing.
    fn compact_shard(
        &self,
        shard: usize,
        pick: impl Fn(&[FileHandle], bool) -> Option<Pick>,
        publish_site: &str,
    ) -> CompactionReport {
        let _serial = self.compaction.lock();
        let lock = &self.shards[shard];
        let (files, tombstones, stamp) = {
            let st = lock.read();
            (st.files.clone(), st.tombstones.clone(), self.draw_stamp())
        };
        // Crash site: the snapshot is taken and nothing merged yet.
        // Recovery must serve the data from the persisted inputs.
        self.faults
            .kill_point(backsort_faults::sites::COMPACTION_AFTER_TAKE);
        let (a, b, level) = match pick(&files, !tombstones.is_empty()) {
            None => return CompactionReport::default(),
            Some(Pick::Keep) => {
                let bytes: u64 = files.iter().map(|h| h.image().len() as u64).sum();
                return CompactionReport {
                    files_in: files.len(),
                    files_out: files.len(),
                    bytes_in: bytes,
                    bytes_out: bytes,
                    ..CompactionReport::default()
                };
            }
            Some(Pick::Promote { idx, level }) => {
                if let Some(h) = lock.write().files.get_mut(idx) {
                    h.set_level(level);
                }
                return CompactionReport {
                    level_moves: 1,
                    ..CompactionReport::default()
                };
            }
            Some(Pick::Merge { start, end, level }) => (start, end, level),
        };
        let run = files.get(a..b).unwrap_or_default();
        let mut report = CompactionReport {
            files_in: run.len(),
            bytes_in: run.iter().map(|h| h.image().len() as u64).sum(),
            ..CompactionReport::default()
        };
        let output = self
            .merge_run(shard, run, &tombstones)
            .map(|(image, points)| {
                report.files_out = 1;
                report.points = points;
                report.bytes_out = image.len() as u64;
                report.level_moves = 1;
                // A new id: the persist pass sees the inputs' ids vanish
                // and this one appear, and re-persists.
                self.parse_own_image(image, stamp).with_level(level)
            });
        if output.is_some() {
            // Crash site: the output exists (id allocated, level
            // assigned) but the shard serves the inputs still — recovery
            // comes from the persisted inputs, and no file may surface
            // at two levels.
            self.faults.kill_point(publish_site);
        }
        let mut st = lock.write();
        debug_assert!(st.files.get(a..b).is_some_and(|live| live
            .iter()
            .map(FileHandle::id)
            .eq(run.iter().map(FileHandle::id))));
        // The inputs' images are freed with the snapshot, after the lock.
        st.files.splice(a..b, output);
        st.retain_tombstones();
        report
    }

    /// Merges the run `files` into one image with the read path's own
    /// merge: per series of this shard, in key order, [`plan_files`]
    /// over the run (each file's tombstones, those stamped above it,
    /// resolved per file, so they apply *physically*) and a full-range
    /// [`Scan`] — disjoint chunks stream as column slices, overlapping
    /// ones merge with later files winning equal timestamps. So the
    /// output holds exactly what a query read from these files, a
    /// corrupt page's readable neighbours included. Chunks of other
    /// shards' devices are dropped: that is how adoption splits an image
    /// that spans shards. A
    /// series whose surviving points are not all of one type (an adopted
    /// file may hold another type than the buffers flushed beside it) is
    /// written as one chunk per same-type stretch, in time order. The
    /// scan goes around the block cache. Returns `(image, points)`;
    /// `None` when nothing survives (no file is written).
    pub(crate) fn merge_run(
        &self,
        shard: usize,
        files: &[FileHandle],
        tombstones: &[Tombstone],
    ) -> Option<(Vec<u8>, u64)> {
        let mut keys: Vec<&SeriesKey> = files
            .iter()
            .flat_map(|h| h.envelopes().iter().map(|(key, _, _)| key))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut writer = TsFileWriter::new();
        let mut points = 0u64;
        for key in keys {
            if self.shard_of(&key.device) != shard {
                continue;
            }
            let plan = plan_files(files, tombstones, key, i64::MIN, i64::MAX);
            let mut merged = Columns::default();
            Scan::new(i64::MIN, i64::MAX, None).run(&plan.runs, &mut merged);
            points += merged.times.len() as u64;
            let mut times = merged.times.as_slice();
            for values in &merged.runs {
                let Some((stretch, rest)) = times.split_at_checked(values.len()) else {
                    break;
                };
                writer.write_chunk_columns(key, stretch, values.as_slice());
                times = rest;
            }
        }
        (points > 0).then(|| (writer.finish(), points))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{engine, key};
    use crate::engine::EngineConfig;
    use crate::types::TsValue;
    use crate::CompactionConfig;
    use backsort_core::Algorithm;

    fn leveled_engine(max_points: usize, shards: usize, l0_trigger: usize) -> StorageEngine {
        StorageEngine::new(EngineConfig {
            memtable_max_points: max_points,
            sorter: Algorithm::Backward(Default::default()),
            shards,
            compaction: CompactionConfig {
                l0_trigger,
                ..CompactionConfig::default()
            },
            ..EngineConfig::default()
        })
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
        let files = single.shard_files(0);
        assert_eq!(files.len(), 1);
        let image = files[0].image().to_vec();

        let eng = StorageEngine::new(EngineConfig {
            memtable_max_points: 1_000,
            sorter: Algorithm::Backward(Default::default()),
            shards: 4,
            ..EngineConfig::default()
        });
        let installed = eng.adopt_file(image).expect("valid image");
        assert_eq!(installed.len(), 2, "one piece per owning shard");
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
        assert!(eng.shard_files(0).iter().all(|f| f.level() == 0));

        let report = eng.compact_auto();
        assert_eq!(report.files_in, 6, "the whole L0 suffix merges");
        assert_eq!(report.files_out, 1);
        assert_eq!(report.level_moves, 1);
        let meta = eng.shard_files(0);
        assert_eq!(meta.len(), 1);
        assert_eq!(meta[0].level(), 1, "output lands at level 1");
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
            let levels: Vec<u32> = eng.shard_files(0).iter().map(FileHandle::level).collect();
            assert!(
                levels.windows(2).all(|w| w[0] >= w[1]),
                "levels non-increasing oldest→newest, got {levels:?}"
            );
        }
        let levels: Vec<u32> = eng.shard_files(0).iter().map(FileHandle::level).collect();
        assert!(
            levels.iter().any(|&l| l >= 2),
            "repeated passes climb past level 1: {levels:?}"
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
        // Adoption already splits a wide two-device image into one
        // 20-point piece per owning shard; the leveled merge over those
        // pieces and the later flushes must neither duplicate nor lose
        // a point.
        let single = engine(1_000);
        let ka = SeriesKey::new("root.sg.d0", "s");
        let kb = SeriesKey::new("root.sg.d2", "s");
        single.write_points(&ka, (0..20i64).map(|t| (t, TsValue::Long(t))));
        single.write_points(&kb, (0..20i64).map(|t| (t, TsValue::Long(-t))));
        single.flush();
        let image = single.shard_files(0)[0].image().to_vec();

        let eng = leveled_engine(20, 4, 2);
        eng.adopt_file(image).expect("valid image");
        eng.write_points(&ka, (20..40i64).map(|t| (t, TsValue::Long(t))));
        eng.write_points(&kb, (20..40i64).map(|t| (t, TsValue::Long(-t))));
        eng.flush();

        eng.compact_auto();
        // Every surviving file holds only its own shard's device.
        eng.check_files().expect("one shard owns each file");
        let total_points: u64 = (0..eng.shard_count())
            .map(|s| {
                eng.shard_files(s)
                    .iter()
                    .flat_map(|img| {
                        crate::tsfile::TsFileReader::open(img.image())
                            .map(|r| r.chunks().to_vec())
                            .unwrap_or_default()
                    })
                    .map(|m| u64::from(m.num_points))
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(total_points, 80, "no cross-shard duplicates");
        assert_eq!(eng.query(&ka, i64::MIN, i64::MAX).len(), 40);
        assert_eq!(eng.query(&kb, i64::MIN, i64::MAX).len(), 40);
    }

    #[test]
    fn tombstone_over_inflight_flush_survives_compaction() {
        // Regression: a delete that masks the in-flight flushing slot
        // must keep masking the file that flush installs,
        // even when a full compaction runs in between.
        let eng = engine(40);
        eng.write_points(&key("s"), (0..40i64).map(|t| (t, TsValue::Long(t)))); // flush at 40
        eng.write_points(&key("s"), (40..60i64).map(|t| (t, TsValue::Long(t))));
        let job = eng.begin_flush_shard(0).expect("rotates");
        // Stamped above the file and the flushing slot.
        eng.delete_range(&key("s"), 45, 50).unwrap();
        eng.compact(); // must keep the tombstone for the slot's file
        eng.complete_flush(job);
        let got = eng.query(&key("s"), 40, 60);
        assert!(
            got.iter().all(|&(t, _)| !(45..=50).contains(&t)),
            "deleted range stays deleted after compact + flush install: {got:?}"
        );
        assert_eq!(got.len(), 14, "points outside the range survive");
    }

    /// Where each page of `meta`'s chunk keeps its timestamp column and
    /// its value-length field, in a v4 TEXT image (TEXT pages carry no
    /// statistics).
    fn text_pages(image: &[u8], meta: &crate::tsfile::ChunkMeta) -> Vec<(usize, usize)> {
        let u32_at = |pos: usize| u32::from_le_bytes(image[pos..pos + 4].try_into().unwrap());
        let mut pos = meta.offset as usize;
        for _ in 0..2 {
            let name_len = u16::from_le_bytes(image[pos..pos + 2].try_into().unwrap()) as usize;
            pos += 2 + name_len; // device, then sensor
        }
        pos += 1 + 4 + 16; // type tag, point count, min/max time
        let pages = u32_at(pos);
        pos += 4;
        let mut out = Vec::new();
        for _ in 0..pages {
            pos += 8 + 8 + 4; // min/max time, count
            let ts_at = pos + 4;
            pos += 4 + u32_at(pos) as usize; // timestamps
            out.push((ts_at, pos));
            pos += 4 + u32_at(pos) as usize; // values
        }
        out
    }

    /// A TEXT chunk of 2,500 points (three pages), damaged by `corrupt`
    /// with its footer intact, is adopted beside one flushed file; a
    /// query reads the `readable` points before the damage plus the
    /// flushed ten, and reads the same after `compact()` merged the two.
    fn compaction_keeps_what_a_query_read(
        corrupt: impl FnOnce(&mut Vec<u8>, &[(usize, usize)]),
        readable: usize,
    ) {
        let k = key("t");
        let times: Vec<i64> = (0..2_500).collect();
        let values: Vec<TsValue> = times
            .iter()
            .map(|t| TsValue::Text(format!("v{t}")))
            .collect();
        let mut w = TsFileWriter::new();
        w.write_chunk(&k, &times, &values);
        let mut image = w.finish();
        let meta = crate::tsfile::TsFileReader::open(&image).unwrap().chunks()[0].clone();
        let pages = text_pages(&image, &meta);
        corrupt(&mut image, &pages);

        let eng = engine(1_000);
        eng.adopt_file(image).expect("the footer still parses");
        // A second file, so compaction has a merge to do.
        eng.write_points(
            &k,
            (3_000..3_010i64).map(|t| (t, TsValue::Text(format!("w{t}")))),
        );
        eng.flush();
        assert_eq!(eng.file_count(), 2);

        let before = eng.query(&k, i64::MIN, i64::MAX);
        assert_eq!(before.len(), readable + 10, "the readable pages");
        let report = eng.compact();
        assert_eq!(report.files_out, 1);
        assert_eq!(eng.query(&k, i64::MIN, i64::MAX), before);
    }

    #[test]
    fn compaction_keeps_what_a_query_read_of_a_corrupt_chunk() {
        // The last page's value length runs past the end of the image.
        compaction_keeps_what_a_query_read(
            |image, pages| {
                let at = pages[2].1;
                let past_end = (image.len() as u32).to_le_bytes();
                image[at..at + 4].copy_from_slice(&past_end);
            },
            2 * crate::tsfile::PAGE_POINTS,
        );
    }

    #[test]
    fn compaction_keeps_what_a_query_read_of_times_that_do_not_ascend() {
        // The middle page's first timestamp delta becomes 0 (repeating a
        // time) or -1 (stepping back): the times no longer ascend, so the
        // page is corrupt and the run ends before it — in a query and in
        // compaction's merge alike, which must not hand them to a writer.
        for zigzag_delta in [0u8, 1] {
            compaction_keeps_what_a_query_read(
                |image, pages| {
                    let mut at = pages[1].0;
                    for _ in 0..2 {
                        // Skip the varint count and first timestamp.
                        while image[at] & 0x80 != 0 {
                            at += 1;
                        }
                        at += 1;
                    }
                    assert_eq!(image[at], 2, "the block's least delta, zigzag(1)");
                    image[at] = zigzag_delta;
                },
                crate::tsfile::PAGE_POINTS,
            );
        }
    }

    #[test]
    fn compaction_and_explain_leave_query_and_cache_counters_alone() {
        let eng = engine(50);
        for f in 0..4i64 {
            eng.write_points(&key("s"), (0..50i64).map(|t| (t * 4 + f, TsValue::Long(t))));
        }
        eng.flush();
        eng.delete_range(&key("s"), 100, 140).unwrap();
        assert!(eng.file_count() >= 4);
        assert!(eng.cache.is_some());
        // Warm the cache, so a merge that went through it would hit.
        eng.query(&key("s"), i64::MIN, i64::MAX);
        let watched = || {
            let snap = eng.obs().snapshot();
            snap.counters
                .into_iter()
                .filter(|(name, _)| {
                    name.starts_with("query.")
                        || name == backsort_obs::names::CACHE_HITS
                        || name == backsort_obs::names::CACHE_MISSES
                })
                .collect::<Vec<_>>()
        };
        let before = watched();
        assert!(before.iter().any(|(_, v)| *v > 0), "the read was counted");
        let plan = eng.explain_query(&key("s"), i64::MIN, i64::MAX);
        assert!(plan.reaches_disk && plan.chunk_sources >= 4);
        assert_eq!(eng.compact().files_out, 1);
        eng.explain_query(&key("s"), 0, 10);
        assert_eq!(watched(), before);
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
        let meta = eng.shard_files(0);
        assert_eq!(meta.len(), 1);
        assert!(meta[0].level() >= 1, "full merge output sits above level 0");
    }

    /// A delete that lands between a pass's snapshot and its swap was
    /// not applied by the merge: its tombstone, stamped above the
    /// output, must mask it, so the points stay hidden after the swap,
    /// and the next pass erases them.
    #[test]
    fn a_delete_during_the_merge_hides_its_points_after_the_swap() {
        use backsort_faults::{sites, FaultMode};
        let (lo, hi) = (30_000, 49_999);
        for attempt in 0.. {
            assert!(attempt < 20, "no delete landed inside a merge");
            let eng = engine(20_000);
            // Four files of 20,000 points: a merge long enough to land
            // a delete in.
            eng.write_points(&key("s"), (0..80_000i64).map(|t| (t, TsValue::Long(t))));
            assert_eq!(eng.file_count(), 4);
            let mut want = eng.query(&key("s"), i64::MIN, i64::MAX);
            want.retain(|(t, _)| !(lo..=hi).contains(t));
            // Armed to count hits; it fires on none.
            let faults = &eng.faults;
            faults.arm(sites::COMPACTION_AFTER_TAKE, FaultMode::Kill, u64::MAX);
            let in_merge = std::thread::scope(|scope| {
                let pass = scope.spawn(|| eng.compact());
                while faults.hits(sites::COMPACTION_AFTER_TAKE) == 0 {
                    std::hint::spin_loop();
                }
                eng.delete_range(&key("s"), lo, hi).unwrap();
                let in_merge = faults.hits(sites::COMPACTION_BEFORE_RESTORE) == 0;
                assert_eq!(pass.join().expect("compaction").files_in, 4);
                in_merge
            });
            if !in_merge {
                continue;
            }
            assert_eq!(eng.file_count(), 1);
            assert_eq!(eng.tombstone_count(), 1, "the delete masks the output");
            assert_eq!(
                eng.query(&key("s"), i64::MIN, i64::MAX),
                want,
                "after the swap"
            );
            eng.compact();
            assert_eq!(eng.tombstone_count(), 0);
            assert_eq!(
                eng.query(&key("s"), i64::MIN, i64::MAX),
                want,
                "after a second pass"
            );
            break;
        }
    }
}
