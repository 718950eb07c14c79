//! Aggregation over time-range queries.
//!
//! The paper uses the raw time-range query as its benchmark because it
//! "is one of the simplest query and the basis of the aggregation
//! functions" (§VI-A2). This module supplies those aggregation functions
//! — the downstream consumers that require sorted data (§VI-E: "computing
//! the average speed of an engine in every minute") — including the
//! group-by-time (downsampling) form.

use crate::batch::ColumnSlice;
use crate::engine::StorageEngine;
use crate::read::Sink;
use crate::stats::{for_each_image, max_of, min_of, ExactSum};
use crate::tsfile::PageHeader;
use crate::types::SeriesKey;

/// Supported aggregation functions (IoTDB's core set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregation {
    /// Number of points in range.
    Count,
    /// Minimum value.
    MinValue,
    /// Maximum value.
    MaxValue,
    /// Arithmetic mean of values.
    Avg,
    /// Sum of values.
    Sum,
    /// Value of the earliest point in range.
    FirstValue,
    /// Value of the latest point in range.
    LastValue,
    /// Timestamp of the earliest point.
    MinTime,
    /// Timestamp of the latest point.
    MaxTime,
}

/// The result of one aggregation: either a value or a timestamp,
/// depending on the function.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum AggValue {
    /// Numeric result (`Count`, `MinValue`, …).
    Number(f64),
    /// Timestamp result (`MinTime`, `MaxTime`).
    Time(i64),
    /// Range contained no points.
    Empty,
}

impl AggValue {
    /// Numeric view; `None` for `Empty` or timestamp results.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            AggValue::Number(v) => Some(*v),
            _ => None,
        }
    }
}

/// The running state of every [`Aggregation`] over one time-ordered
/// stream of points — the sink a scan folds into, so one pass answers
/// any number of aggregates of a series.
///
/// Values fold as their `f64` images under the definitions of
/// [`crate::stats`]: the sum is exact and rounded once when read, and
/// min/max follow `totalOrder` skipping NaN. Both are associative, so a
/// page the fold absorbs whole from its header ([`PageStats`]) adds what
/// its decoded points would have, bit for bit.
///
/// [`PageStats`]: crate::tsfile::PageStats
#[derive(Debug, Clone)]
pub(crate) struct Fold {
    needs_values: bool,
    /// Whether `Sum` or `Avg` was asked for.
    needs_sum: bool,
    /// Whether `MinValue` or `MaxValue` was asked for.
    needs_extremes: bool,
    /// Whether `FirstValue` or `LastValue` was asked for — values no
    /// page header stores.
    needs_ends: bool,
    count: u64,
    first_time: i64,
    last_time: i64,
    first_value: f64,
    last_value: f64,
    sum: ExactSum,
    min: f64,
    max: f64,
}

impl Fold {
    /// An empty fold that will be asked for `aggs`. Values are folded
    /// only if one of them reads values, and only into what is asked.
    pub(crate) fn new(aggs: &[Aggregation]) -> Self {
        let asks = |wanted: &[Aggregation]| aggs.iter().any(|agg| wanted.contains(agg));
        let needs_sum = asks(&[Aggregation::Sum, Aggregation::Avg]);
        let needs_extremes = asks(&[Aggregation::MinValue, Aggregation::MaxValue]);
        let needs_ends = asks(&[Aggregation::FirstValue, Aggregation::LastValue]);
        Self {
            needs_values: needs_sum || needs_extremes || needs_ends,
            needs_sum,
            needs_extremes,
            needs_ends,
            count: 0,
            first_time: 0,
            last_time: 0,
            first_value: 0.0,
            last_value: 0.0,
            sum: ExactSum::new(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn note_times(&mut self, first: i64, last: i64, points: u64) {
        if self.count == 0 {
            self.first_time = first;
        }
        self.last_time = last;
        self.count += points;
    }

    fn fold_values(&mut self, values: ColumnSlice<'_>) {
        let Some(last) = values.len().checked_sub(1) else {
            return;
        };
        if self.needs_ends {
            if self.count == 0 {
                for_each_image(values.slice(0, 1), |v| self.first_value = v);
            }
            for_each_image(values.slice(last, last + 1), |v| self.last_value = v);
        }
        if self.needs_sum {
            let mut sum = self.sum.adder();
            for_each_image(values, |v| sum.add(v));
        }
        if self.needs_extremes {
            let (min, max) = (&mut self.min, &mut self.max);
            for_each_image(values, |v| {
                *min = min_of(*min, v);
                *max = max_of(*max, v);
            });
        }
    }

    /// One aggregate of everything folded so far.
    pub(crate) fn finish(&self, agg: Aggregation) -> AggValue {
        if self.count == 0 {
            return AggValue::Empty;
        }
        match agg {
            Aggregation::Count => AggValue::Number(self.count as f64),
            Aggregation::MinValue => AggValue::Number(self.min),
            Aggregation::MaxValue => AggValue::Number(self.max),
            Aggregation::Sum => AggValue::Number(self.sum.value()),
            Aggregation::Avg => AggValue::Number(self.sum.value() / self.count as f64),
            Aggregation::FirstValue => AggValue::Number(self.first_value),
            Aggregation::LastValue => AggValue::Number(self.last_value),
            Aggregation::MinTime => AggValue::Time(self.first_time),
            Aggregation::MaxTime => AggValue::Time(self.last_time),
        }
    }
}

impl Sink for Fold {
    fn needs_values(&self) -> bool {
        self.needs_values
    }

    fn push(&mut self, times: &[i64], values: ColumnSlice<'_>) {
        self.fold_values(values);
        self.push_times(times);
    }

    fn push_times(&mut self, times: &[i64]) {
        if let (Some(&first), Some(&last)) = (times.first(), times.last()) {
            self.note_times(first, last, times.len() as u64);
        }
    }

    /// Absorbs a page when its header answers everything asked: counts
    /// and times always; sums and extremes from [`PageStats`] (a sum only
    /// when the page stores one); first and last values never.
    ///
    /// [`PageStats`]: crate::tsfile::PageStats
    fn push_page(&mut self, page: &PageHeader) -> bool {
        if self.needs_values {
            let Some(stats) = &page.stats else {
                return false;
            };
            if self.needs_ends {
                return false;
            }
            if self.needs_sum {
                let Some(partials) = stats.sum_partials() else {
                    return false;
                };
                let mut sum = self.sum.adder();
                partials.iter().for_each(|&p| sum.add(p));
            }
            self.min = min_of(self.min, stats.min);
            self.max = max_of(self.max, stats.max);
        }
        self.note_times(page.min_time, page.max_time, u64::from(page.count));
        true
    }
}

/// Group-by-time over the same stream: cuts `[start + k·step,
/// start + (k+1)·step)` buckets off the points as they arrive, folding
/// each into its own [`Fold`].
struct Buckets {
    agg: Aggregation,
    t_hi: i64,
    step: i64,
    /// The open bucket `[start, end)` and what has fallen into it.
    start: i64,
    end: i64,
    open: Fold,
    /// Set once the bucket after the open one would start past `t_hi`
    /// (or the time axis is exhausted): later points belong nowhere.
    last: bool,
    out: Vec<(i64, AggValue)>,
}

impl Buckets {
    fn new(t_lo: i64, t_hi: i64, step: i64, agg: Aggregation) -> Self {
        let end = t_lo.saturating_add(step);
        Self {
            agg,
            t_hi,
            step,
            start: t_lo,
            end,
            open: Fold::new(&[agg]),
            last: end <= t_lo || end > t_hi,
            out: Vec::new(),
        }
    }

    /// Closes the open bucket and opens the next one. `false` when there
    /// is no next one.
    fn next_bucket(&mut self) -> bool {
        if self.last {
            return false;
        }
        self.out.push((self.start, self.open.finish(self.agg)));
        self.open = Fold::new(&[self.agg]);
        self.start = self.end;
        self.end = self.start.saturating_add(self.step);
        self.last = self.end <= self.start || self.end > self.t_hi;
        true
    }

    /// Opens the bucket holding `t`; `false` when `t` lies past the last
    /// bucket.
    fn seek(&mut self, t: i64) -> bool {
        while t >= self.end {
            if !self.next_bucket() {
                return false;
            }
        }
        true
    }

    /// Deals ascending `times` out to the buckets they fall in:
    /// `give(open bucket, at, to)` for each bucket's index range of
    /// them, in order.
    fn deal(&mut self, times: &[i64], mut give: impl FnMut(&mut Fold, usize, usize)) {
        let mut at = 0;
        while let Some(&t) = times.get(at) {
            if !self.seek(t) {
                return;
            }
            let to = at + times[at..].partition_point(|&t| t < self.end);
            give(&mut self.open, at, to);
            at = to;
        }
    }

    /// Every bucket through `t_hi`, empty ones included.
    fn finish(mut self) -> Vec<(i64, AggValue)> {
        while self.next_bucket() {}
        self.out.push((self.start, self.open.finish(self.agg)));
        self.out
    }
}

impl Sink for Buckets {
    fn needs_values(&self) -> bool {
        self.open.needs_values
    }

    fn push(&mut self, times: &[i64], values: ColumnSlice<'_>) {
        self.deal(times, |open, at, to| {
            open.push(&times[at..to], values.slice(at, to));
        });
    }

    fn push_times(&mut self, times: &[i64]) {
        self.deal(times, |open, at, to| open.push_times(&times[at..to]));
    }

    /// Absorbs a page that lies wholly inside the open bucket (after
    /// opening the one its first point falls in), as the bucket's fold
    /// would.
    fn push_page(&mut self, page: &PageHeader) -> bool {
        self.seek(page.min_time) && page.max_time < self.end && self.open.push_page(page)
    }
}

impl StorageEngine {
    /// Aggregates one sensor over `[t_lo, t_hi]`.
    ///
    /// Like the raw query, this sorts the memtable on demand — disordered
    /// data would otherwise make window statistics wrong, which is the
    /// paper's Fig. 22(a) point.
    pub fn aggregate(&self, key: &SeriesKey, t_lo: i64, t_hi: i64, agg: Aggregation) -> AggValue {
        let mut fold = Fold::new(&[agg]);
        self.scan(key, t_lo, t_hi, &mut fold);
        fold.finish(agg)
    }

    /// Every aggregate in `aggs` of one sensor over `[t_lo, t_hi]`, in
    /// one scan of the series — `count(s), avg(s)` reads `s` once. The
    /// results line up with `aggs`.
    ///
    /// When none of `aggs` reads values (`Count`, `MinTime`, `MaxTime`),
    /// a page that lies wholly inside the range, in a run no other run
    /// overlaps and no tombstone touches, is answered from the count and
    /// time bounds its header stores; only the pages at the range's ends
    /// are decoded, and of those only the timestamps.
    pub fn aggregate_many(
        &self,
        key: &SeriesKey,
        t_lo: i64,
        t_hi: i64,
        aggs: &[Aggregation],
    ) -> Vec<AggValue> {
        let mut fold = Fold::new(aggs);
        self.scan(key, t_lo, t_hi, &mut fold);
        aggs.iter().map(|&agg| fold.finish(agg)).collect()
    }

    /// Group-by-time (downsampling): aggregates each `[start + k·step,
    /// start + (k+1)·step)` bucket over `[t_lo, t_hi]`, cutting the
    /// buckets off one scan of the series.
    ///
    /// Returns `(bucket start, aggregate)` for every bucket, including
    /// empty ones (as `AggValue::Empty`), matching IoTDB's `GROUP BY`
    /// semantics.
    pub fn group_by_time(
        &self,
        key: &SeriesKey,
        t_lo: i64,
        t_hi: i64,
        step: i64,
        agg: Aggregation,
    ) -> Vec<(i64, AggValue)> {
        assert!(step > 0, "group-by step must be positive");
        if t_lo > t_hi {
            return Vec::new();
        }
        let mut buckets = Buckets::new(t_lo, t_hi, step, agg);
        self.scan(key, t_lo, t_hi, &mut buckets);
        buckets.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::types::TsValue;
    use backsort_core::Algorithm;

    fn engine_with_data() -> (StorageEngine, SeriesKey) {
        let engine = StorageEngine::new(EngineConfig {
            memtable_max_points: 10_000,
            array_size: 16,
            sorter: Algorithm::Backward(Default::default()),
            shards: 1,
            ..EngineConfig::default()
        });
        let key = SeriesKey::new("root.sg.d1", "speed");
        // Out-of-order writes, values = 2 * t.
        for t in [5i64, 1, 3, 2, 4, 9, 7, 8, 6, 10] {
            engine.write(&key, t, TsValue::Double(2.0 * t as f64));
        }
        (engine, key)
    }

    #[test]
    fn basic_aggregations() {
        let (engine, key) = engine_with_data();
        assert_eq!(
            engine.aggregate(&key, 1, 10, Aggregation::Count),
            AggValue::Number(10.0)
        );
        assert_eq!(
            engine.aggregate(&key, 1, 10, Aggregation::MinValue),
            AggValue::Number(2.0)
        );
        assert_eq!(
            engine.aggregate(&key, 1, 10, Aggregation::MaxValue),
            AggValue::Number(20.0)
        );
        assert_eq!(
            engine.aggregate(&key, 1, 10, Aggregation::Avg),
            AggValue::Number(11.0)
        );
        assert_eq!(
            engine.aggregate(&key, 1, 10, Aggregation::Sum),
            AggValue::Number(110.0)
        );
        assert_eq!(
            engine.aggregate(&key, 1, 10, Aggregation::FirstValue),
            AggValue::Number(2.0)
        );
        assert_eq!(
            engine.aggregate(&key, 1, 10, Aggregation::LastValue),
            AggValue::Number(20.0)
        );
        assert_eq!(
            engine.aggregate(&key, 1, 10, Aggregation::MinTime),
            AggValue::Time(1)
        );
        assert_eq!(
            engine.aggregate(&key, 1, 10, Aggregation::MaxTime),
            AggValue::Time(10)
        );
    }

    #[test]
    fn range_restriction_applies() {
        let (engine, key) = engine_with_data();
        assert_eq!(
            engine.aggregate(&key, 3, 5, Aggregation::Count),
            AggValue::Number(3.0)
        );
        assert_eq!(
            engine.aggregate(&key, 3, 5, Aggregation::Avg),
            AggValue::Number(8.0)
        );
        assert_eq!(
            engine.aggregate(&key, 100, 200, Aggregation::Avg),
            AggValue::Empty
        );
    }

    #[test]
    fn first_last_need_sorted_data() {
        // The whole point: arrival order had 5 first and 10 last only by
        // luck; FIRST/LAST must reflect *time* order even though writes
        // were shuffled.
        let (engine, key) = engine_with_data();
        assert_eq!(
            engine.aggregate(&key, 1, 10, Aggregation::FirstValue),
            AggValue::Number(2.0)
        );
        assert_eq!(
            engine.aggregate(&key, 2, 9, Aggregation::FirstValue),
            AggValue::Number(4.0)
        );
        assert_eq!(
            engine.aggregate(&key, 2, 9, Aggregation::LastValue),
            AggValue::Number(18.0)
        );
    }

    #[test]
    fn group_by_time_buckets() {
        let (engine, key) = engine_with_data();
        let buckets = engine.group_by_time(&key, 1, 10, 4, Aggregation::Count);
        // Buckets: [1,5) -> 4 pts, [5,9) -> 4 pts, [9,13) -> 2 pts.
        assert_eq!(
            buckets,
            vec![
                (1, AggValue::Number(4.0)),
                (5, AggValue::Number(4.0)),
                (9, AggValue::Number(2.0)),
            ]
        );
        let avgs = engine.group_by_time(&key, 1, 10, 5, Aggregation::Avg);
        // [1,6): values 2,4,6,8,10 -> 6; [6,11): 12,14,16,18,20 -> 16.
        assert_eq!(
            avgs,
            vec![(1, AggValue::Number(6.0)), (6, AggValue::Number(16.0))]
        );
    }

    #[test]
    fn group_by_time_includes_empty_buckets() {
        let (engine, key) = engine_with_data();
        let buckets = engine.group_by_time(&key, -5, 2, 3, Aggregation::Count);
        // [-5,-2) and [-2,1) are empty; [1,4) clipped to t_hi=2 holds
        // t ∈ {1, 2}.
        assert_eq!(
            buckets,
            vec![
                (-5, AggValue::Empty),
                (-2, AggValue::Empty),
                (1, AggValue::Number(2.0)),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_step_panics() {
        let (engine, key) = engine_with_data();
        engine.group_by_time(&key, 0, 10, 0, Aggregation::Count);
    }

    #[test]
    fn empty_points_are_empty() {
        assert_eq!(
            Fold::new(&[Aggregation::Avg]).finish(Aggregation::Avg),
            AggValue::Empty
        );
        assert_eq!(AggValue::Empty.as_number(), None);
        assert_eq!(AggValue::Number(3.0).as_number(), Some(3.0));
    }
}
