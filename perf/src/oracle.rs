//! The oracle: a `BTreeMap` model of everything a script writes, and the
//! checks every reply is held to.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

use backsort_engine::{AggValue, TsValue};
use backsort_sql::QueryOutput;

/// Relative tolerance for `avg`: the engine folds the same values in the
/// same order, so only the JSON round trip can perturb the last digits.
const AVG_RELATIVE_TOLERANCE: f64 = 1e-9;

/// What a raw `SELECT` of one sensor must return, folded to four words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowsDigest {
    pub rows: u64,
    /// First and last timestamp; both 0 when `rows` is 0.
    pub first: i64,
    pub last: i64,
    /// Order-sensitive fold over every `(time, value bits)`.
    pub checksum: u64,
}

impl RowsDigest {
    /// Folds points in the order given.
    pub fn of(points: impl IntoIterator<Item = (i64, f64)>) -> Self {
        let mut digest = Self::default();
        for (t, v) in points {
            digest.push(t, v);
        }
        digest
    }

    fn push(&mut self, t: i64, v: f64) {
        if self.rows == 0 {
            self.first = t;
        }
        self.last = t;
        self.rows += 1;
        // FNV-style multiply-xor; the multiply makes the fold sensitive
        // to order, so swapped rows do not cancel.
        self.checksum = (self.checksum ^ t as u64).wrapping_mul(0x0000_0100_0000_01B3);
        self.checksum = (self.checksum ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// The model of the stored data: per series, timestamp to value.
#[derive(Debug, Default)]
pub struct Model {
    series: Vec<BTreeMap<i64, f64>>,
}

impl Model {
    pub fn new(series: usize) -> Self {
        Self {
            series: (0..series).map(|_| BTreeMap::new()).collect(),
        }
    }

    pub fn insert(&mut self, series: usize, t: i64, v: f64) {
        self.series[series].insert(t, v);
    }

    /// Replaces one series with points already in ascending time order
    /// (the bulk build is linear, unlike repeated inserts).
    pub fn load_sorted(&mut self, series: usize, points: impl Iterator<Item = (i64, f64)>) {
        self.series[series] = points.collect();
    }

    /// The newest timestamp written to `series`.
    pub fn latest(&self, series: usize) -> Option<i64> {
        self.series[series].keys().next_back().copied()
    }

    /// What `SELECT s … WHERE time in range` must return.
    pub fn select(&self, series: usize, range: RangeInclusive<i64>) -> RowsDigest {
        RowsDigest::of(self.series[series].range(range).map(|(&t, &v)| (t, v)))
    }

    /// What `count(s), avg(s)` over `range` must return; the sum runs in
    /// time order, as the engine's does.
    pub fn count_avg(&self, series: usize, range: RangeInclusive<i64>) -> (u64, f64) {
        let (mut count, mut sum) = (0u64, 0.0f64);
        for (_, &v) in self.series[series].range(range) {
            count += 1;
            sum += v;
        }
        (count, if count == 0 { 0.0 } else { sum / count as f64 })
    }
}

/// Whether a reply is the single-column row set `expect` describes.
pub fn rows_match(output: &QueryOutput, expect: &RowsDigest) -> bool {
    let QueryOutput::Rows { columns, rows } = output else {
        return false;
    };
    if columns.len() != 1 {
        return false;
    }
    let mut digest = RowsDigest::default();
    for (t, values) in rows {
        let [Some(TsValue::Double(v))] = values.as_slice() else {
            return false;
        };
        digest.push(*t, *v);
    }
    digest == *expect
}

/// Whether a reply is `count(s), avg(s)` with an exact count and an
/// average within [`AVG_RELATIVE_TOLERANCE`].
pub fn count_avg_match(output: &QueryOutput, count: u64, avg: f64) -> bool {
    let QueryOutput::Aggregates { values, .. } = output else {
        return false;
    };
    match values.as_slice() {
        [AggValue::Empty, AggValue::Empty] => count == 0,
        [AggValue::Number(c), AggValue::Number(a)] => {
            *c == count as f64 && (a - avg).abs() <= AVG_RELATIVE_TOLERANCE * avg.abs()
        }
        _ => false,
    }
}

/// Result rows a reply carried: an aggregate reply is one row.
pub fn row_count(output: &QueryOutput) -> u64 {
    match output {
        QueryOutput::Rows { rows, .. } => rows.len() as u64,
        QueryOutput::Aggregates { .. } => 1,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Model {
        let mut m = Model::new(2);
        for t in 0..100 {
            m.insert(0, t, t as f64 * 0.5);
        }
        m.load_sorted(1, (0..10).map(|t| (t, 1.0)));
        m
    }

    fn rows(points: &[(i64, f64)]) -> QueryOutput {
        QueryOutput::Rows {
            columns: vec!["s".to_string()],
            rows: points
                .iter()
                .map(|&(t, v)| (t, vec![Some(TsValue::Double(v))]))
                .collect(),
        }
    }

    #[test]
    fn a_right_answer_passes() {
        let m = model();
        let expect = m.select(0, 10..=19);
        assert_eq!((expect.rows, expect.first, expect.last), (10, 10, 19));
        let reply: Vec<(i64, f64)> = (10..20).map(|t| (t, t as f64 * 0.5)).collect();
        assert!(rows_match(&rows(&reply), &expect));
        assert_eq!(row_count(&rows(&reply)), 10);
        assert_eq!(m.select(0, 500..=600), RowsDigest::default());
        assert!(rows_match(&rows(&[]), &RowsDigest::default()));
        assert_eq!((m.latest(0), m.latest(1)), (Some(99), Some(9)));
    }

    #[test]
    fn a_planted_wrong_row_is_caught() {
        let m = model();
        let expect = m.select(0, 10..=19);
        let good: Vec<(i64, f64)> = (10..20).map(|t| (t, t as f64 * 0.5)).collect();

        let mut wrong_value = good.clone();
        wrong_value[4].1 += 1e-9;
        assert!(!rows_match(&rows(&wrong_value), &expect));

        let mut wrong_time = good.clone();
        wrong_time[4].0 = 99;
        assert!(!rows_match(&rows(&wrong_time), &expect));

        let mut swapped = good.clone();
        swapped.swap(2, 3);
        assert!(!rows_match(&rows(&swapped), &expect));

        let mut missing = good.clone();
        missing.pop();
        assert!(!rows_match(&rows(&missing), &expect));

        let mut doubled = good.clone();
        doubled.push((19, 9.5));
        assert!(!rows_match(&rows(&doubled), &expect));

        assert!(!rows_match(&QueryOutput::Inserted(10), &expect));
    }

    #[test]
    fn aggregates_are_exact_in_count_and_close_in_avg() {
        let m = model();
        let (count, avg) = m.count_avg(0, 0..=99);
        assert_eq!(count, 100);
        assert!((avg - 24.75).abs() < 1e-12);
        let reply = |c: f64, a: f64| QueryOutput::Aggregates {
            columns: vec!["count(s)".to_string(), "avg(s)".to_string()],
            values: vec![AggValue::Number(c), AggValue::Number(a)],
        };
        assert!(count_avg_match(&reply(100.0, 24.75), count, avg));
        assert!(count_avg_match(
            &reply(100.0, 24.75 * (1.0 + 1e-12)),
            count,
            avg
        ));
        assert!(!count_avg_match(&reply(99.0, 24.75), count, avg));
        assert!(!count_avg_match(
            &reply(100.0, 24.75 * (1.0 + 1e-6)),
            count,
            avg
        ));
        let empty = QueryOutput::Aggregates {
            columns: Vec::new(),
            values: vec![AggValue::Empty, AggValue::Empty],
        };
        assert!(count_avg_match(&empty, 0, 0.0));
        assert!(!count_avg_match(&empty, 1, 0.0));
    }
}
