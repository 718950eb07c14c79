//! The sort interface and the plain-slice adapter.

/// Random-access view of a time series that sorting algorithms operate on.
///
/// This is the Rust rendering of the interface IoTDB abstracts from its
/// TVList so that "the facilities of TVList can be used directly" by every
/// sorting algorithm (paper §V-C). Implementations must keep `time(i)` and
/// `value(i)` paired: `set` and `swap` move the pair as a unit.
pub trait SeriesAccess {
    /// The value type carried alongside each timestamp.
    type Value: Copy;

    /// Number of points in the series.
    fn len(&self) -> usize;

    /// Timestamp of the point at index `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    fn time(&self, i: usize) -> i64;

    /// Value of the point at index `i`.
    fn value(&self, i: usize) -> Self::Value;

    /// The full `(timestamp, value)` pair at index `i`.
    #[inline]
    fn get(&self, i: usize) -> (i64, Self::Value) {
        (self.time(i), self.value(i))
    }

    /// Overwrites the point at index `i`.
    fn set(&mut self, i: usize, t: i64, v: Self::Value);

    /// Exchanges the points at indices `a` and `b`.
    fn swap(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (ta, va) = self.get(a);
        let (tb, vb) = self.get(b);
        self.set(a, tb, vb);
        self.set(b, ta, va);
    }

    /// Whether the series holds no points.
    #[inline]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads the points in `lo..hi` into `out`, preserving order.
    ///
    /// The bulk read side of the sort interface: merges buffer whole runs
    /// through this instead of `get` per element. Contiguous
    /// implementations override it with slice copies.
    fn read_into(&self, lo: usize, hi: usize, out: &mut Vec<(i64, Self::Value)>) {
        out.extend((lo..hi).map(|i| self.get(i)));
    }

    /// Overwrites the points starting at `dst` with `src`, in order.
    ///
    /// The bulk write side: a merge landing a run of buffered elements
    /// pays one call instead of `set` per element.
    fn copy_from_slice(&mut self, dst: usize, src: &[(i64, Self::Value)]) {
        for (k, &(t, v)) in src.iter().enumerate() {
            self.set(dst + k, t, v);
        }
    }

    /// The points from `lo` to the end as one mutable slice of pairs,
    /// from an implementation that stores them so; `None` (the default)
    /// from one that does not. A caller that wants a range contiguous, to
    /// sort it through flat memory, skips the copy out and back where it
    /// already is.
    fn contiguous_from(&mut self, _lo: usize) -> Option<&mut [(i64, Self::Value)]> {
        None
    }

    /// Copies the range `src_lo..src_hi` so it starts at `dst`, with
    /// memmove semantics: the two ranges may overlap in either
    /// direction.
    fn copy_within(&mut self, src_lo: usize, src_hi: usize, dst: usize) {
        let len = src_hi - src_lo;
        if len == 0 || dst == src_lo {
            return;
        }
        if dst < src_lo {
            for k in 0..len {
                let (t, v) = self.get(src_lo + k);
                self.set(dst + k, t, v);
            }
        } else {
            for k in (0..len).rev() {
                let (t, v) = self.get(src_lo + k);
                self.set(dst + k, t, v);
            }
        }
    }
}

/// Sort-interface adapter over a mutable slice of `(timestamp, value)`
/// pairs.
///
/// Useful for tests, for callers that already hold contiguous data, and as
/// the "general array" baseline the paper contrasts with TVList move costs
/// (§VI-C1).
#[derive(Debug)]
pub struct SliceSeries<'a, V> {
    data: &'a mut [(i64, V)],
}

impl<'a, V: Copy> SliceSeries<'a, V> {
    /// Wraps a mutable slice of pairs.
    pub fn new(data: &'a mut [(i64, V)]) -> Self {
        Self { data }
    }

    /// Read-only view of the underlying pairs.
    pub fn as_slice(&self) -> &[(i64, V)] {
        self.data
    }
}

impl<V: Copy> SeriesAccess for SliceSeries<'_, V> {
    type Value = V;

    #[inline]
    fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    fn time(&self, i: usize) -> i64 {
        self.data[i].0
    }

    #[inline]
    fn value(&self, i: usize) -> V {
        self.data[i].1
    }

    #[inline]
    fn get(&self, i: usize) -> (i64, V) {
        self.data[i]
    }

    #[inline]
    fn set(&mut self, i: usize, t: i64, v: V) {
        self.data[i] = (t, v);
    }

    #[inline]
    fn swap(&mut self, a: usize, b: usize) {
        self.data.swap(a, b);
    }

    #[inline]
    fn read_into(&self, lo: usize, hi: usize, out: &mut Vec<(i64, V)>) {
        out.extend_from_slice(&self.data[lo..hi]);
    }

    #[inline]
    fn copy_from_slice(&mut self, dst: usize, src: &[(i64, V)]) {
        self.data[dst..dst + src.len()].copy_from_slice(src);
    }

    #[inline]
    fn copy_within(&mut self, src_lo: usize, src_hi: usize, dst: usize) {
        self.data.copy_within(src_lo..src_hi, dst);
    }

    #[inline]
    fn contiguous_from(&mut self, lo: usize) -> Option<&mut [(i64, V)]> {
        Some(&mut self.data[lo..])
    }
}

impl<S: SeriesAccess + ?Sized> SeriesAccess for &mut S {
    type Value = S::Value;

    #[inline]
    fn len(&self) -> usize {
        (**self).len()
    }

    #[inline]
    fn time(&self, i: usize) -> i64 {
        (**self).time(i)
    }

    #[inline]
    fn value(&self, i: usize) -> Self::Value {
        (**self).value(i)
    }

    #[inline]
    fn get(&self, i: usize) -> (i64, Self::Value) {
        (**self).get(i)
    }

    #[inline]
    fn set(&mut self, i: usize, t: i64, v: Self::Value) {
        (**self).set(i, t, v)
    }

    #[inline]
    fn swap(&mut self, a: usize, b: usize) {
        (**self).swap(a, b)
    }

    #[inline]
    fn read_into(&self, lo: usize, hi: usize, out: &mut Vec<(i64, Self::Value)>) {
        (**self).read_into(lo, hi, out)
    }

    #[inline]
    fn copy_from_slice(&mut self, dst: usize, src: &[(i64, Self::Value)]) {
        (**self).copy_from_slice(dst, src)
    }

    #[inline]
    fn copy_within(&mut self, src_lo: usize, src_hi: usize, dst: usize) {
        (**self).copy_within(src_lo, src_hi, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_series_roundtrip() {
        let mut data = vec![(3i64, 30i32), (1, 10), (2, 20)];
        let mut s = SliceSeries::new(&mut data);
        assert_eq!(s.len(), 3);
        assert_eq!(s.time(0), 3);
        assert_eq!(s.value(0), 30);
        assert_eq!(s.get(2), (2, 20));
        s.set(0, 5, 50);
        assert_eq!(s.get(0), (5, 50));
        s.swap(0, 1);
        assert_eq!(s.get(0), (1, 10));
        assert_eq!(s.get(1), (5, 50));
        assert!(!s.is_empty());
    }

    #[test]
    fn default_swap_moves_pairs() {
        // Exercise the default `swap` through a minimal custom impl.
        struct Two {
            a: (i64, i32),
            b: (i64, i32),
        }
        impl SeriesAccess for Two {
            type Value = i32;
            fn len(&self) -> usize {
                2
            }
            fn time(&self, i: usize) -> i64 {
                [self.a.0, self.b.0][i]
            }
            fn value(&self, i: usize) -> i32 {
                [self.a.1, self.b.1][i]
            }
            fn set(&mut self, i: usize, t: i64, v: i32) {
                if i == 0 {
                    self.a = (t, v)
                } else {
                    self.b = (t, v)
                }
            }
        }
        let mut two = Two {
            a: (9, 90),
            b: (4, 40),
        };
        two.swap(0, 1);
        assert_eq!(two.a, (4, 40));
        assert_eq!(two.b, (9, 90));
        two.swap(1, 1); // no-op path
        assert_eq!(two.b, (9, 90));
    }

    #[test]
    fn empty_slice() {
        let mut data: Vec<(i64, i64)> = vec![];
        let s = SliceSeries::new(&mut data);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    /// A minimal custom impl that only provides the required methods, so
    /// every bulk default routes through `get`/`set`.
    struct VecSeries(Vec<(i64, i32)>);

    impl SeriesAccess for VecSeries {
        type Value = i32;
        fn len(&self) -> usize {
            self.0.len()
        }
        fn time(&self, i: usize) -> i64 {
            self.0[i].0
        }
        fn value(&self, i: usize) -> i32 {
            self.0[i].1
        }
        fn set(&mut self, i: usize, t: i64, v: i32) {
            self.0[i] = (t, v);
        }
    }

    #[test]
    fn bulk_defaults_match_slice_overrides() {
        let base: Vec<(i64, i32)> = (0..20).map(|i| (i as i64, i * 10)).collect();

        let mut via_default = VecSeries(base.clone());
        let mut data = base.clone();
        let mut via_slice = SliceSeries::new(&mut data);

        let mut a = Vec::new();
        let mut b = Vec::new();
        via_default.read_into(3, 11, &mut a);
        via_slice.read_into(3, 11, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);

        let patch = [(100i64, 1i32), (101, 2), (102, 3)];
        via_default.copy_from_slice(5, &patch);
        via_slice.copy_from_slice(5, &patch);
        assert_eq!(via_default.0, via_slice.as_slice());

        // Overlapping move, both directions.
        via_default.copy_within(4, 12, 2);
        via_slice.copy_within(4, 12, 2);
        assert_eq!(via_default.0, via_slice.as_slice());
        via_default.copy_within(2, 10, 6);
        via_slice.copy_within(2, 10, 6);
        assert_eq!(via_default.0, via_slice.as_slice());

        // Degenerate: empty range and self-move are no-ops.
        let before = via_default.0.clone();
        via_default.copy_within(3, 3, 0);
        via_default.copy_within(3, 8, 3);
        assert_eq!(via_default.0, before);
    }

    #[test]
    fn blanket_impl_forwards_bulk_methods() {
        let mut data = vec![(1i64, 1i32), (2, 2), (3, 3), (4, 4)];
        let mut s = SliceSeries::new(&mut data);
        let via_ref: &mut SliceSeries<i32> = &mut s;
        let mut out = Vec::new();
        via_ref.read_into(1, 3, &mut out);
        assert_eq!(out, vec![(2, 2), (3, 3)]);
        via_ref.copy_from_slice(0, &[(9, 9)]);
        via_ref.copy_within(0, 2, 2);
        assert_eq!(s.as_slice(), &[(9, 9), (2, 2), (9, 9), (2, 2)]);
    }
}
