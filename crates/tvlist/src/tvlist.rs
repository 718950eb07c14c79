//! The chunked time-value list.

use crate::{ArrayPool, SeriesAccess, Value};

/// IoTDB's default TVList chunk ("array") size (paper §V-B).
pub const DEFAULT_ARRAY_SIZE: usize = 32;

/// A chunked list of `(timestamp, value)` pairs in arrival order.
///
/// Storage is a `Vec` of fixed-size chunks for timestamps and values
/// separately — the `List<Array>` deque compromise between
/// allocate-per-point and one-big-buffer that IoTDB settled on (paper §V-B).
/// Chunk size defaults to [`DEFAULT_ARRAY_SIZE`] and is configurable; when
/// it is a power of two, index math uses shift/mask.
///
/// The list tracks how long its leading time-ordered run is
/// (`sorted_len`; `is_sorted` when that is the whole list), the minimum
/// and maximum timestamp seen, and supports the full [`SeriesAccess`]
/// sort interface in place.
#[derive(Debug, Clone)]
pub struct TVList<V: Value> {
    array_size: usize,
    /// `Some(shift)` when `array_size == 1 << shift`.
    shift: Option<u32>,
    times: Vec<Vec<i64>>,
    values: Vec<Vec<V>>,
    len: usize,
    /// Length of the leading run known time-ordered: `len` while appends
    /// have stayed in order, and never past the lowest index written
    /// since.
    sorted_len: usize,
    min_time: i64,
    max_time: i64,
}

impl<V: Value> Default for TVList<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Value> TVList<V> {
    /// Creates an empty list with the default chunk size.
    pub fn new() -> Self {
        Self::with_array_size(DEFAULT_ARRAY_SIZE)
    }

    /// Creates an empty list with a custom chunk size.
    ///
    /// # Panics
    /// Panics if `array_size == 0`.
    pub fn with_array_size(array_size: usize) -> Self {
        assert!(array_size > 0, "TVList array size must be positive");
        let shift = if array_size.is_power_of_two() {
            Some(array_size.trailing_zeros())
        } else {
            None
        };
        Self {
            array_size,
            shift,
            times: Vec::new(),
            values: Vec::new(),
            len: 0,
            sorted_len: 0,
            min_time: i64::MAX,
            max_time: i64::MIN,
        }
    }

    /// Builds a list from an iterator of pairs, preserving order.
    pub fn from_pairs<I: IntoIterator<Item = (i64, V)>>(pairs: I) -> Self {
        let mut list = Self::new();
        for (t, v) in pairs {
            list.push(t, v);
        }
        list
    }

    /// The configured chunk size.
    #[inline]
    pub fn array_size(&self) -> usize {
        self.array_size
    }

    #[inline]
    fn locate(&self, i: usize) -> (usize, usize) {
        debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        match self.shift {
            Some(sh) => (i >> sh, i & (self.array_size - 1)),
            None => (i / self.array_size, i % self.array_size),
        }
    }

    /// Appends a point in arrival order.
    pub fn push(&mut self, t: i64, v: V) {
        let (chunk, off) = match self.shift {
            Some(sh) => (self.len >> sh, self.len & (self.array_size - 1)),
            None => (self.len / self.array_size, self.len % self.array_size),
        };
        if chunk == self.times.len() {
            self.times.push(Vec::with_capacity(self.array_size));
            self.values.push(Vec::with_capacity(self.array_size));
        }
        debug_assert_eq!(self.times[chunk].len(), off);
        self.times[chunk].push(t);
        self.values[chunk].push(v);
        // The ordered run grows while it is the whole list and order holds.
        if self.sorted_len == self.len && (self.len == 0 || t >= self.max_time) {
            self.sorted_len += 1;
        }
        self.min_time = self.min_time.min(t);
        self.max_time = self.max_time.max(t);
        self.len += 1;
    }

    /// Appends a point, recycling chunk allocations from `pool`.
    pub fn push_pooled(&mut self, t: i64, v: V, pool: &mut ArrayPool<V>) {
        let chunk = match self.shift {
            Some(sh) => self.len >> sh,
            None => self.len / self.array_size,
        };
        if chunk == self.times.len() {
            let (ts, vs) = pool.get(self.array_size);
            self.times.push(ts);
            self.values.push(vs);
        }
        self.push(t, v);
    }

    /// Releases all chunks back to `pool` and clears the list.
    pub fn release_into(&mut self, pool: &mut ArrayPool<V>) {
        for (ts, vs) in self.times.drain(..).zip(self.values.drain(..)) {
            pool.put(ts, vs);
        }
        self.len = 0;
        self.sorted_len = 0;
        self.min_time = i64::MAX;
        self.max_time = i64::MIN;
    }

    /// Whether the appended timestamps have stayed non-decreasing.
    ///
    /// Maintained on `push`; invalidated conservatively by `set`/`swap` and
    /// restored by [`TVList::mark_sorted`] after a sort completes.
    #[inline]
    pub fn is_sorted(&self) -> bool {
        self.sorted_len == self.len
    }

    /// Length of the leading run known to be time-ordered:
    /// `s[..sorted_len()]` is non-decreasing at every instant, and
    /// `is_sorted()` is `sorted_len() == len()`.
    ///
    /// Appends extend it while order holds and freeze it where order
    /// first breaks; `set`/`swap`/`copy_from_slice`/`copy_within` pull it
    /// down to the lowest index they write; [`TVList::mark_sorted`] sets
    /// it to `len()`. A sort owes work only to `s[sorted_len()..]` and its
    /// overlap with the prefix.
    #[inline]
    pub fn sorted_len(&self) -> usize {
        self.sorted_len
    }

    /// Records that the list has been sorted by timestamp.
    ///
    /// Called by sorting pipelines after they finish. Debug builds verify
    /// the claim.
    pub fn mark_sorted(&mut self) {
        debug_assert!(crate::is_time_sorted(self));
        self.sorted_len = self.len;
    }

    /// A write at index `lo` and up may have broken the order there.
    #[inline]
    fn unsorted_from(&mut self, lo: usize) {
        self.sorted_len = self.sorted_len.min(lo);
    }

    /// Minimum timestamp seen, or `None` when empty.
    pub fn min_time(&self) -> Option<i64> {
        (self.len > 0).then_some(self.min_time)
    }

    /// Maximum timestamp seen, or `None` when empty.
    pub fn max_time(&self) -> Option<i64> {
        (self.len > 0).then_some(self.max_time)
    }

    /// Iterates over `(timestamp, value)` pairs in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (i64, V)> + '_ {
        self.times
            .iter()
            .zip(&self.values)
            .flat_map(|(ts, vs)| ts.iter().copied().zip(vs.iter().copied()))
    }

    /// Copies the contents into a vector of pairs.
    pub fn to_pairs(&self) -> Vec<(i64, V)> {
        self.iter().collect()
    }

    /// Removes all points, keeping chunk allocations for reuse.
    pub fn clear(&mut self) {
        for (ts, vs) in self.times.iter_mut().zip(&mut self.values) {
            ts.clear();
            vs.clear();
        }
        self.len = 0;
        self.sorted_len = 0;
        self.min_time = i64::MAX;
        self.max_time = i64::MIN;
    }

    /// Approximate heap footprint in bytes, for memtable accounting.
    pub fn memory_bytes(&self) -> usize {
        self.times.len() * self.array_size * (8 + V::WIDTH)
    }

    /// Appends a timestamp column and a value column in one pass.
    ///
    /// This is the columnar ingest entry point: one call amortizes the
    /// chunk bookkeeping (`locate`, sorted-flag and bound maintenance) over
    /// the whole batch, copying chunk-sized runs with `extend_from_slice`
    /// instead of paying `push` per point. The sorted flag survives iff it
    /// was set, the slice is internally non-decreasing, and the slice
    /// starts at or after the current maximum timestamp; `sorted_len`
    /// stops where that first fails.
    ///
    /// # Panics
    /// Panics if `ts.len() != vs.len()`.
    pub fn extend_from_slices(&mut self, ts: &[i64], vs: &[V]) {
        self.extend_from_slices_inner(ts, vs, None)
    }

    /// [`TVList::extend_from_slices`], recycling chunk allocations from
    /// `pool`.
    pub fn extend_from_slices_pooled(&mut self, ts: &[i64], vs: &[V], pool: &mut ArrayPool<V>) {
        self.extend_from_slices_inner(ts, vs, Some(pool))
    }

    fn extend_from_slices_inner(
        &mut self,
        ts: &[i64],
        vs: &[V],
        mut pool: Option<&mut ArrayPool<V>>,
    ) {
        assert_eq!(
            ts.len(),
            vs.len(),
            "timestamp and value columns must have equal length"
        );
        let Some((&first, rest)) = ts.split_first() else {
            return;
        };
        // One pass over the timestamp column: slice bounds plus the length
        // of its leading ordered run, so the flag/bound updates below are
        // O(1).
        let mut head = ts.len();
        let mut lo = first;
        let mut hi = first;
        let mut prev = first;
        for (k, &t) in rest.iter().enumerate() {
            if t < prev {
                head = head.min(k + 1);
            }
            prev = t;
            lo = lo.min(t);
            hi = hi.max(t);
        }
        // The ordered run, while it is the whole list, grows through the
        // slice's ordered head if the slice starts at or after the maximum.
        if self.sorted_len == self.len && (self.len == 0 || first >= self.max_time) {
            self.sorted_len += head;
        }
        self.min_time = self.min_time.min(lo);
        self.max_time = self.max_time.max(hi);

        let mut k = 0;
        while k < ts.len() {
            let (chunk, off) = match self.shift {
                Some(sh) => (self.len >> sh, self.len & (self.array_size - 1)),
                None => (self.len / self.array_size, self.len % self.array_size),
            };
            if chunk == self.times.len() {
                let (t_chunk, v_chunk) = match pool.as_deref_mut() {
                    Some(p) => p.get(self.array_size),
                    None => (
                        Vec::with_capacity(self.array_size),
                        Vec::with_capacity(self.array_size),
                    ),
                };
                self.times.push(t_chunk);
                self.values.push(v_chunk);
            }
            debug_assert_eq!(self.times[chunk].len(), off);
            let n = (self.array_size - off).min(ts.len() - k);
            self.times[chunk].extend_from_slice(&ts[k..k + n]);
            self.values[chunk].extend_from_slice(&vs[k..k + n]);
            self.len += n;
            k += n;
        }
    }
}

impl<V: Value> SeriesAccess for TVList<V> {
    type Value = V;

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn time(&self, i: usize) -> i64 {
        let (c, o) = self.locate(i);
        self.times[c][o]
    }

    #[inline]
    fn value(&self, i: usize) -> V {
        let (c, o) = self.locate(i);
        self.values[c][o]
    }

    #[inline]
    fn set(&mut self, i: usize, t: i64, v: V) {
        let (c, o) = self.locate(i);
        self.times[c][o] = t;
        self.values[c][o] = v;
        // A random write may break monotonicity; conservatively drop the
        // flag. Sort pipelines call `mark_sorted` when done.
        self.unsorted_from(i);
        self.min_time = self.min_time.min(t);
        self.max_time = self.max_time.max(t);
    }

    #[inline]
    fn swap(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (ca, oa) = self.locate(a);
        let (cb, ob) = self.locate(b);
        if ca == cb {
            self.times[ca].swap(oa, ob);
            self.values[ca].swap(oa, ob);
        } else {
            let (ta, va) = (self.times[ca][oa], self.values[ca][oa]);
            let (tb, vb) = (self.times[cb][ob], self.values[cb][ob]);
            self.times[ca][oa] = tb;
            self.values[ca][oa] = vb;
            self.times[cb][ob] = ta;
            self.values[cb][ob] = va;
        }
        self.unsorted_from(a.min(b));
    }

    fn read_into(&self, lo: usize, hi: usize, out: &mut Vec<(i64, V)>) {
        out.reserve(hi - lo);
        let mut k = lo;
        while k < hi {
            let (c, o) = self.locate(k);
            let n = (self.array_size - o).min(hi - k);
            out.extend(
                self.times[c][o..o + n]
                    .iter()
                    .copied()
                    .zip(self.values[c][o..o + n].iter().copied()),
            );
            k += n;
        }
    }

    fn copy_from_slice(&mut self, dst: usize, src: &[(i64, V)]) {
        if src.is_empty() {
            return;
        }
        let mut k = 0;
        while k < src.len() {
            let (c, o) = self.locate(dst + k);
            let n = (self.array_size - o).min(src.len() - k);
            for (j, &(t, v)) in src[k..k + n].iter().enumerate() {
                self.times[c][o + j] = t;
                self.values[c][o + j] = v;
            }
            k += n;
        }
        // Same conservative semantics as `set`: monotonicity may be broken,
        // bounds only grow.
        for &(t, _) in src {
            self.min_time = self.min_time.min(t);
            self.max_time = self.max_time.max(t);
        }
        self.unsorted_from(dst);
    }

    fn copy_within(&mut self, src_lo: usize, src_hi: usize, dst: usize) {
        let len = src_hi - src_lo;
        if len == 0 || dst == src_lo {
            return;
        }
        // Decompose into maximal segments where both the source and the
        // destination stay inside a single chunk each, then apply the
        // segments in source order (dst < src) or reverse (dst > src) so
        // overlapping ranges keep memmove semantics across segment
        // boundaries; within a segment, same-chunk copies use the inner
        // `Vec::copy_within` (itself overlap-safe) and cross-chunk copies
        // touch disjoint chunks.
        let mut segments = Vec::new();
        let mut k = 0;
        while k < len {
            let (cs, os) = self.locate(src_lo + k);
            let (cd, od) = self.locate(dst + k);
            let n = (self.array_size - os)
                .min(self.array_size - od)
                .min(len - k);
            segments.push((cs, os, cd, od, n));
            k += n;
        }
        if dst > src_lo {
            segments.reverse();
        }
        for (cs, os, cd, od, n) in segments {
            if cs == cd {
                self.times[cs].copy_within(os..os + n, od);
                self.values[cs].copy_within(os..os + n, od);
            } else {
                let hi = cs.max(cd);
                let (t_head, t_tail) = self.times.split_at_mut(hi);
                let (v_head, v_tail) = self.values.split_at_mut(hi);
                if cs < cd {
                    // analyzer:allow(panic-freedom): `[0]` is the chunk at index `hi` of the split — `hi < chunk count` by construction, so the tail is never empty
                    t_tail[0][od..od + n].copy_from_slice(&t_head[cs][os..os + n]);
                    // analyzer:allow(panic-freedom): same non-empty-tail invariant as the timestamp copy above
                    v_tail[0][od..od + n].copy_from_slice(&v_head[cs][os..os + n]);
                } else {
                    // analyzer:allow(panic-freedom): `[0]` is the chunk at index `hi` of the split — `hi < chunk count` by construction, so the tail is never empty
                    t_head[cd][od..od + n].copy_from_slice(&t_tail[0][os..os + n]);
                    // analyzer:allow(panic-freedom): same non-empty-tail invariant as the timestamp copy above
                    v_head[cd][od..od + n].copy_from_slice(&v_tail[0][os..os + n]);
                }
            }
        }
        self.unsorted_from(dst);
    }
}

impl<V: Value> FromIterator<(i64, V)> for TVList<V> {
    fn from_iter<I: IntoIterator<Item = (i64, V)>>(iter: I) -> Self {
        Self::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_across_chunks() {
        let mut list = TVList::<i32>::with_array_size(4);
        for i in 0..37 {
            list.push(i as i64, i * 10);
        }
        assert_eq!(list.len(), 37);
        for i in 0..37 {
            assert_eq!(list.time(i), i as i64);
            assert_eq!(list.value(i), i as i32 * 10);
            assert_eq!(list.get(i), (i as i64, i as i32 * 10));
        }
        assert!(list.is_sorted());
        assert_eq!(list.min_time(), Some(0));
        assert_eq!(list.max_time(), Some(36));
    }

    #[test]
    fn non_power_of_two_array_size() {
        let mut list = TVList::<i64>::with_array_size(7);
        for i in 0..50 {
            list.push(50 - i, i);
        }
        assert_eq!(list.len(), 50);
        assert_eq!(list.time(0), 50);
        assert_eq!(list.time(49), 1);
        assert!(!list.is_sorted());
    }

    #[test]
    #[should_panic(expected = "array size must be positive")]
    fn zero_array_size_panics() {
        let _ = TVList::<i32>::with_array_size(0);
    }

    #[test]
    fn sorted_flag_tracks_appends() {
        let mut list = TVList::<i32>::new();
        list.push(1, 1);
        list.push(2, 2);
        assert!(list.is_sorted());
        list.push(1, 3); // delayed point
        assert!(!list.is_sorted());
    }

    #[test]
    fn duplicate_timestamp_keeps_sorted_flag() {
        let mut list = TVList::<i32>::new();
        list.push(5, 1);
        list.push(5, 2);
        assert!(list.is_sorted());
    }

    #[test]
    fn swap_within_and_across_chunks() {
        let mut list = TVList::<i32>::with_array_size(4);
        for i in 0..8 {
            list.push(i as i64, i);
        }
        list.swap(0, 1); // same chunk
        assert_eq!(list.get(0), (1, 1));
        assert_eq!(list.get(1), (0, 0));
        list.swap(1, 7); // across chunks
        assert_eq!(list.get(1), (7, 7));
        assert_eq!(list.get(7), (0, 0));
        assert!(!list.is_sorted());
    }

    #[test]
    fn set_updates_bounds_and_flag() {
        let mut list = TVList::<i32>::new();
        list.push(10, 0);
        list.push(20, 1);
        list.set(1, 5, 9);
        assert_eq!(list.get(1), (5, 9));
        assert!(!list.is_sorted());
        assert_eq!(list.min_time(), Some(5));
    }

    #[test]
    fn mark_sorted_after_manual_sort() {
        let mut list = TVList::<i32>::new();
        list.push(2, 2);
        list.push(1, 1);
        list.swap(0, 1);
        list.mark_sorted();
        assert!(list.is_sorted());
    }

    #[test]
    fn iter_and_to_pairs_match() {
        let pairs = vec![(3i64, 1i32), (1, 2), (2, 3)];
        let list = TVList::from_pairs(pairs.clone());
        assert_eq!(list.to_pairs(), pairs);
        assert_eq!(list.iter().count(), 3);
    }

    #[test]
    fn clear_keeps_capacity_and_resets_state() {
        let mut list = TVList::<i32>::with_array_size(4);
        for i in 0..10 {
            list.push(i as i64, 0);
        }
        list.clear();
        assert!(list.is_empty());
        assert!(list.is_sorted());
        assert_eq!(list.min_time(), None);
        assert_eq!(list.max_time(), None);
        list.push(7, 7);
        assert_eq!(list.get(0), (7, 7));
    }

    #[test]
    fn pooled_push_and_release() {
        let mut pool = ArrayPool::<i32>::new(8);
        let mut list = TVList::<i32>::with_array_size(4);
        for i in 0..9 {
            list.push_pooled(i as i64, 0, &mut pool);
        }
        assert_eq!(list.len(), 9);
        list.release_into(&mut pool);
        assert!(list.is_empty());
        assert_eq!(pool.available(), 3);
        // Chunks come back out of the pool on the next fill.
        let mut list2 = TVList::<i32>::with_array_size(4);
        list2.push_pooled(1, 1, &mut pool);
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn memory_accounting_scales_with_chunks() {
        let mut list = TVList::<f64>::with_array_size(32);
        assert_eq!(list.memory_bytes(), 0);
        list.push(1, 1.0);
        assert_eq!(list.memory_bytes(), 32 * 16);
    }

    #[test]
    fn extreme_timestamps() {
        let mut list = TVList::<i64>::new();
        list.push(i64::MIN, 0);
        list.push(i64::MAX, 1);
        assert!(list.is_sorted());
        assert_eq!(list.min_time(), Some(i64::MIN));
        assert_eq!(list.max_time(), Some(i64::MAX));
    }

    #[test]
    fn extend_from_slices_matches_push() {
        for array_size in [3usize, 4, 32] {
            let ts: Vec<i64> = (0..77).map(|i| (i * 7 % 41) as i64).collect();
            let vs: Vec<i32> = (0..77).collect();
            let mut pushed = TVList::<i32>::with_array_size(array_size);
            for (&t, &v) in ts.iter().zip(&vs) {
                pushed.push(t, v);
            }
            let mut bulk = TVList::<i32>::with_array_size(array_size);
            // Split across several calls so the tail-of-chunk path runs.
            bulk.extend_from_slices(&ts[..10], &vs[..10]);
            bulk.extend_from_slices(&ts[10..11], &vs[10..11]);
            bulk.extend_from_slices(&ts[11..], &vs[11..]);
            assert_eq!(bulk.to_pairs(), pushed.to_pairs());
            assert_eq!(bulk.len(), pushed.len());
            assert_eq!(bulk.is_sorted(), pushed.is_sorted());
            assert_eq!(bulk.min_time(), pushed.min_time());
            assert_eq!(bulk.max_time(), pushed.max_time());
        }
    }

    #[test]
    fn extend_from_slices_sorted_flag_cases() {
        // Sorted + appended slice sorted and at/after max: stays sorted.
        let mut list = TVList::<i32>::with_array_size(4);
        list.extend_from_slices(&[1, 2, 3], &[1, 2, 3]);
        assert!(list.is_sorted());
        list.extend_from_slices(&[3, 5], &[4, 5]);
        assert!(list.is_sorted());
        // Slice starting before max breaks it.
        list.extend_from_slices(&[4], &[6]);
        assert!(!list.is_sorted());
        // Internally unsorted slice breaks a fresh list.
        let mut list2 = TVList::<i32>::new();
        list2.extend_from_slices(&[5, 3], &[0, 1]);
        assert!(!list2.is_sorted());
        assert_eq!(list2.min_time(), Some(3));
        assert_eq!(list2.max_time(), Some(5));
        // Empty slice is a no-op.
        let before = list2.to_pairs();
        list2.extend_from_slices(&[], &[]);
        assert_eq!(list2.to_pairs(), before);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn extend_from_slices_length_mismatch_panics() {
        let mut list = TVList::<i32>::new();
        list.extend_from_slices(&[1, 2], &[1]);
    }

    #[test]
    fn extend_from_slices_pooled_recycles_chunks() {
        let mut pool = ArrayPool::<i32>::new(8);
        pool.put(Vec::with_capacity(4), Vec::with_capacity(4));
        pool.put(Vec::with_capacity(4), Vec::with_capacity(4));
        let mut list = TVList::<i32>::with_array_size(4);
        let ts: Vec<i64> = (0..9).collect();
        let vs: Vec<i32> = (0..9).collect();
        list.extend_from_slices_pooled(&ts, &vs, &mut pool);
        assert_eq!(list.len(), 9);
        assert_eq!(pool.available(), 0, "two recycled, one fresh");
        assert_eq!(list.to_pairs()[8], (8, 8));
    }

    #[test]
    fn bulk_read_into_matches_iter() {
        let mut list = TVList::<i32>::with_array_size(4);
        for i in 0..19 {
            list.push(i as i64, i * 2);
        }
        let mut out = Vec::new();
        list.read_into(2, 15, &mut out);
        assert_eq!(out, list.to_pairs()[2..15].to_vec());
        out.clear();
        list.read_into(4, 4, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn bulk_copy_from_slice_matches_set() {
        let mut a = TVList::<i32>::with_array_size(4);
        let mut b = TVList::<i32>::with_array_size(4);
        for i in 0..17 {
            a.push(i as i64 * 10, i);
            b.push(i as i64 * 10, i);
        }
        let patch: Vec<(i64, i32)> = (0..9).map(|k| (k as i64 - 3, 100 + k)).collect();
        a.copy_from_slice(3, &patch);
        for (k, &(t, v)) in patch.iter().enumerate() {
            b.set(3 + k, t, v);
        }
        assert_eq!(a.to_pairs(), b.to_pairs());
        assert_eq!(a.min_time(), b.min_time());
        assert_eq!(a.max_time(), b.max_time());
        assert!(!a.is_sorted());
    }

    #[test]
    fn bulk_copy_within_matches_naive_both_directions() {
        for (src_lo, src_hi, dst) in [(2usize, 14usize, 0usize), (0, 12, 5), (3, 7, 3), (6, 6, 1)] {
            let mut fast = TVList::<i32>::with_array_size(4);
            let mut pairs: Vec<(i64, i32)> = (0..18).map(|i| (i as i64 * 3, i)).collect();
            for &(t, v) in &pairs {
                fast.push(t, v);
            }
            fast.copy_within(src_lo, src_hi, dst);
            pairs.copy_within(src_lo..src_hi, dst);
            assert_eq!(fast.to_pairs(), pairs, "case {src_lo}..{src_hi} -> {dst}");
        }
    }
}

impl<V: Value> TVList<V> {
    /// Keeps only points satisfying `keep`, preserving order. Returns how
    /// many points were removed. Rebuilds the chunk layout in place.
    pub fn retain<F: FnMut(i64, V) -> bool>(&mut self, mut keep: F) -> usize {
        let pairs: Vec<(i64, V)> = self.iter().filter(|&(t, v)| keep(t, v)).collect();
        let removed = self.len() - pairs.len();
        if removed == 0 {
            return 0;
        }
        self.clear();
        for (t, v) in pairs {
            self.push(t, v);
        }
        removed
    }
}

#[cfg(test)]
mod retain_tests {
    use super::*;

    #[test]
    fn retain_removes_matching_points() {
        let mut list = TVList::<i32>::with_array_size(4);
        for i in 0..20 {
            list.push(i as i64, i);
        }
        let removed = list.retain(|t, _| !(5..10).contains(&t));
        assert_eq!(removed, 5);
        assert_eq!(list.len(), 15);
        assert_eq!(list.time(5), 10);
        assert!(list.is_sorted());
    }

    #[test]
    fn retain_nothing_is_free() {
        let mut list = TVList::<i32>::new();
        list.push(2, 0);
        list.push(1, 1); // out of order
        assert_eq!(list.retain(|_, _| true), 0);
        assert!(!list.is_sorted(), "no-op retain must not touch state");
    }

    #[test]
    fn retain_everything_empties() {
        let mut list = TVList::<i64>::new();
        for i in 0..10 {
            list.push(i, i);
        }
        assert_eq!(list.retain(|_, _| false), 10);
        assert!(list.is_empty());
    }
}
