//! The read path: parse-once file handles and tombstone pre-resolution.
//!
//! Queries used to re-parse every TsFile footer via
//! [`TsFileReader::open`](crate::tsfile::TsFileReader::open) on every
//! call and re-scan the whole tombstone list per point. This module
//! supplies the cached state the streaming read path works from instead:
//!
//! * [`FileHandle`] — a flushed (or adopted, or recovered) file image
//!   bundled with its chunk index, parsed exactly once when the file is
//!   installed into a shard. Queries prune by key presence and per-key
//!   time range straight off the cached index and hand page decoding to
//!   [`ChunkPointsIter`](crate::tsfile::ChunkPointsIter) lazily.
//! * [`IntervalSet`] — the tombstones applicable to one `(key, file)`
//!   pair resolved into a sorted, merged interval list once per query,
//!   so per-point erasure checks are a binary search instead of a scan
//!   of every tombstone.

use std::sync::Arc;

use crate::cache::BlockCache;
use crate::delete::Tombstone;
use crate::filter::KeyFilter;
use crate::tsfile::{ChunkMeta, ChunkPointsIter, TsFileReader};
use crate::types::SeriesKey;

/// A TsFile image with its chunk index parsed once, at install time.
///
/// Holds everything a query needs without touching the image bytes:
/// the v2 footer's key existence filter (when present), each key's
/// `(min_time, max_time)` envelope — computed once at parse, not
/// re-derived per query — and the key-sorted chunk index. Only when a
/// query survives that pruning are the overlapping chunks' pages
/// decoded — lazily, through [`FileHandle::points_in_range_cached`].
#[derive(Debug, Clone)]
pub struct FileHandle {
    id: u64,
    image: Vec<u8>,
    /// Chunk index sorted by key (chunks of one key in file order), as
    /// [`TsFileReader::open`] produces it.
    chunks: Vec<ChunkMeta>,
    /// Per-key `(min_time, max_time)` envelopes, sorted by key — one
    /// entry per distinct series, folded over its chunks at parse time.
    envelopes: Vec<(SeriesKey, i64, i64)>,
    /// The v2 footer's key existence filter; `None` for v1 images.
    filter: Option<KeyFilter>,
    /// Compaction level (0 = fresh flush or adoption). Assigned by the
    /// engine when the handle is installed; persisted in the manifest.
    level: u32,
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
            image,
            chunks,
            envelopes,
            filter,
            level: 0,
        })
    }

    /// Re-tags an already-parsed handle with a new engine file id,
    /// reusing the cached index (the adopt path installs one parsed
    /// image into several shards).
    pub fn with_id(&self, id: u64) -> Self {
        Self {
            id,
            image: self.image.clone(),
            chunks: self.chunks.clone(),
            envelopes: self.envelopes.clone(),
            filter: self.filter.clone(),
            level: self.level,
        }
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
        &self.image
    }

    /// The cached chunk index, sorted by key.
    pub fn chunks(&self) -> &[ChunkMeta] {
        &self.chunks
    }

    /// The chunks of one series, by binary search.
    pub fn chunks_for(&self, key: &SeriesKey) -> &[ChunkMeta] {
        crate::tsfile::chunks_for(&self.chunks, key)
    }

    /// The key filter from the v2 footer, `None` for v1 images.
    pub fn filter(&self) -> Option<&KeyFilter> {
        self.filter.as_ref()
    }

    /// Whether the file can contain the series at all, by one filter
    /// probe — O(1), no string comparison, no chunk-index walk. `true`
    /// for v1 images (no filter: never prune on absence of evidence)
    /// and for any key the filter might hold; `false` is definitive.
    pub fn may_contain(&self, key: &SeriesKey) -> bool {
        self.filter.as_ref().is_none_or(|f| f.may_contain(key))
    }

    /// The per-key envelope table, sorted by key — one
    /// `(key, min_time, max_time)` entry per distinct series.
    pub fn envelopes(&self) -> &[(SeriesKey, i64, i64)] {
        &self.envelopes
    }

    /// The `(min_time, max_time)` envelope of one series in this file,
    /// or `None` if the file holds no chunk for it — the per-key pruning
    /// statistic queries consult before touching any page. Served from
    /// the envelope table cached at parse time by binary search; the
    /// chunk metas are not walked.
    pub fn key_time_range(&self, key: &SeriesKey) -> Option<(i64, i64)> {
        let idx = self.envelopes.partition_point(|(k, _, _)| k < key);
        match self.envelopes.get(idx) {
            Some((k, min, max)) if k == key => Some((*min, *max)),
            _ => None,
        }
    }

    /// The `(first, last)` device names in this file — the device range
    /// compaction's overlap-driven picking compares. `None` for an
    /// empty file. Keys sort by `(device, sensor)`, so the table's ends
    /// bound the device set.
    pub fn device_range(&self) -> Option<(&str, &str)> {
        let (first, _, _) = self.envelopes.first()?;
        let (last, _, _) = self.envelopes.last()?;
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

    /// Lazy page-streaming readers over the series' chunks that overlap
    /// `[t_lo, t_hi]`, in file order (oldest chunk first — the order the
    /// merge's duplicate resolution relies on). With a decoded-page
    /// `cache`, each reader serves pages out of it (keyed by this file's
    /// id) instead of re-decoding, inserting on miss.
    pub fn points_in_range_cached<'h>(
        &'h self,
        key: &SeriesKey,
        t_lo: i64,
        t_hi: i64,
        cache: Option<&'h Arc<BlockCache>>,
    ) -> impl Iterator<Item = ChunkPointsIter<'h>> + 'h {
        let id = self.id;
        self.chunks_for(key)
            .iter()
            .filter(move |m| m.max_time >= t_lo && m.min_time <= t_hi)
            .map(move |m| match cache {
                Some(cache) => {
                    ChunkPointsIter::with_cache(&self.image, m, t_lo, t_hi, id, Arc::clone(cache))
                }
                None => ChunkPointsIter::new(&self.image, m, t_lo, t_hi),
            })
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
        let pts: Vec<(i64, TsValue)> = h
            .points_in_range_cached(&key("a"), 15, 30, None)
            .flatten()
            .collect();
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
        let mut w = TsFileWriter::new();
        w.write_chunk(&key("a"), &[1], &[TsValue::Long(1)]);
        let v1 = FileHandle::parse(2, w.finish_v1()).expect("v1 opens");
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
    fn interval_set_handles_extreme_bounds() {
        let tombs = vec![(ts("a", i64::MIN, i64::MAX), 1)];
        let set = IntervalSet::resolve(&tombs, &key("a"), 0);
        assert!(set.contains(i64::MIN) && set.contains(0) && set.contains(i64::MAX));
    }
}
