//! Differential test: the engine's read paths versus a naive oracle.
//!
//! The oracle replays the same operation sequence chronologically into a
//! per-key `BTreeMap<i64, TsValue>` — inserts overwrite (last write
//! wins), deletes remove — which is exactly the visible semantics the
//! engine promises across memtables, flushed files, tombstones, adopted
//! files and compaction. Randomized interleavings of writes, deletions,
//! flushes, unsequence flushes, adoptions, compactions, queries and
//! aggregates are driven through engines with 1 and 4 shards; every raw
//! query, every one of the nine aggregates — through `aggregate`,
//! `aggregate_many` and `group_by_time` — and `latest_value` must agree
//! with the oracle **exactly** (numbers bit for bit), and so with each
//! other. Exactness is what catches a page header's count used under a
//! tombstone, under a newer overlapping run, or for a timestamp that two
//! runs both hold.
//!
//! A second stream adopts foreign files whose chunks hold DOUBLE values
//! for a series the live buffers hold as INT64: rows of mixed type are
//! what a series read has always been able to return, and the typed
//! slices must still allow it.
//!
//! A third stream is about the sort a read owes a dirty buffer, which
//! sorts only what arrived since the buffer was last ordered: bursts of
//! delayed points to one sensor of each of the six types, with reads
//! between the writes, a delete between two reads, and reads while a
//! rotated memtable sits in the flushing slot with its flush still
//! outstanding — every read checked against the same model.
//!
//! The engines use the *stable* Backward-Sort configuration: with the
//! unstable default, equal timestamps inside one buffer may settle in
//! either order (flush.rs documents the caveat), which the chronological
//! oracle cannot predict.

use std::collections::{BTreeMap, HashMap};

use backsort_core::{Algorithm, BackwardSort, InBlockSort};
use backsort_engine::tsfile::TsFileWriter;
use backsort_engine::{
    AggValue, Aggregation, DataType, EngineConfig, FlushJob, PointBatch, SeriesKey, StorageEngine,
    TsValue,
};
use proptest::prelude::*;

fn engine(shards: usize) -> StorageEngine {
    StorageEngine::new(EngineConfig {
        memtable_max_points: 40, // small: natural rotations mid-sequence
        array_size: 8,
        sorter: Algorithm::Backward(BackwardSort {
            in_block: InBlockSort::Stable,
            ..Default::default()
        }),
        shards,
        ..EngineConfig::default()
    })
}

/// Two devices that land on different shards under FNV-1a mod 4.
fn keys() -> [SeriesKey; 2] {
    [
        SeriesKey::new("root.sg.d0", "s"),
        SeriesKey::new("root.sg.d2", "s"),
    ]
}

type Oracle = HashMap<SeriesKey, BTreeMap<i64, TsValue>>;

fn oracle_range(oracle: &Oracle, key: &SeriesKey, lo: i64, hi: i64) -> Vec<(i64, TsValue)> {
    if lo > hi {
        return Vec::new();
    }
    oracle
        .get(key)
        .map(|m| m.range(lo..=hi).map(|(&t, v)| (t, v.clone())).collect())
        .unwrap_or_default()
}

const ALL_AGGREGATIONS: [Aggregation; 9] = [
    Aggregation::Count,
    Aggregation::MinValue,
    Aggregation::MaxValue,
    Aggregation::Avg,
    Aggregation::Sum,
    Aggregation::FirstValue,
    Aggregation::LastValue,
    Aggregation::MinTime,
    Aggregation::MaxTime,
];

/// The specification of one aggregate, written over materialized rows
/// with the standard library's own folds.
fn oracle_aggregate(rows: &[(i64, TsValue)], agg: Aggregation) -> AggValue {
    let (Some(first), Some(last)) = (rows.first(), rows.last()) else {
        return AggValue::Empty;
    };
    let values = || rows.iter().map(|(_, v)| v.as_f64());
    match agg {
        Aggregation::Count => AggValue::Number(rows.len() as f64),
        Aggregation::MinValue => AggValue::Number(values().fold(f64::INFINITY, f64::min)),
        Aggregation::MaxValue => AggValue::Number(values().fold(f64::NEG_INFINITY, f64::max)),
        Aggregation::Sum => AggValue::Number(values().sum()),
        Aggregation::Avg => AggValue::Number(values().sum::<f64>() / rows.len() as f64),
        Aggregation::FirstValue => AggValue::Number(first.1.as_f64()),
        Aggregation::LastValue => AggValue::Number(last.1.as_f64()),
        Aggregation::MinTime => AggValue::Time(first.0),
        Aggregation::MaxTime => AggValue::Time(last.0),
    }
}

/// The specification of group-by-time: `[lo + k·step, lo + (k+1)·step)`
/// buckets through `hi`, empty ones included.
fn oracle_group_by(
    rows: &[(i64, TsValue)],
    lo: i64,
    hi: i64,
    step: i64,
    agg: Aggregation,
) -> Vec<(i64, AggValue)> {
    let mut out = Vec::new();
    let mut start = lo;
    while start <= hi {
        let end = start.saturating_add(step);
        let bucket: Vec<(i64, TsValue)> = rows
            .iter()
            .filter(|(t, _)| (start..end).contains(t))
            .cloned()
            .collect();
        out.push((start, oracle_aggregate(&bucket, agg)));
        if end <= start {
            break;
        }
        start = end;
    }
    out
}

/// Equality that tells `-0.0` from `0.0` and would tell two NaNs alike.
fn exact(v: AggValue) -> (u8, u64) {
    match v {
        AggValue::Empty => (0, 0),
        AggValue::Number(x) => (1, x.to_bits()),
        AggValue::Time(t) => (2, t as u64),
    }
}

/// Every aggregate path of one engine over `[lo, hi]` against the
/// oracle's rows.
fn check_aggregates(
    eng: &StorageEngine,
    oracle: &Oracle,
    key: &SeriesKey,
    lo: i64,
    hi: i64,
    step: i64,
) -> Result<(), String> {
    let rows = oracle_range(oracle, key, lo, hi);
    let many = eng.aggregate_many(key, lo, hi, &ALL_AGGREGATIONS);
    let times_only = eng.aggregate_many(
        key,
        lo,
        hi,
        &[
            Aggregation::MaxTime,
            Aggregation::Count,
            Aggregation::MinTime,
        ],
    );
    for (i, &agg) in ALL_AGGREGATIONS.iter().enumerate() {
        let want = oracle_aggregate(&rows, agg);
        let mut got = vec![
            ("aggregate", eng.aggregate(key, lo, hi, agg)),
            ("many", many[i]),
        ];
        match agg {
            Aggregation::MaxTime => got.push(("times-only many", times_only[0])),
            Aggregation::Count => got.push(("times-only many", times_only[1])),
            Aggregation::MinTime => got.push(("times-only many", times_only[2])),
            _ => {}
        }
        for (path, got) in got {
            if exact(got) != exact(want) {
                return Err(format!(
                    "shards={}: {path} {agg:?}({key:?}, {lo}, {hi}) = {got:?}, oracle = {want:?}",
                    eng.shard_count()
                ));
            }
        }
        let want = oracle_group_by(&rows, lo, hi, step, agg);
        let got = eng.group_by_time(key, lo, hi, step, agg);
        let same = got.len() == want.len()
            && got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.0 == w.0 && exact(g.1) == exact(w.1));
        if !same {
            return Err(format!(
                "shards={}: group_by_time {agg:?}({key:?}, {lo}, {hi}, step {step}) = {got:?}, \
                 oracle = {want:?}",
                eng.shard_count()
            ));
        }
    }
    Ok(())
}

/// One encoded operation: `(opcode, timestamp-ish, value-ish)`. With
/// `foreign_doubles`, adopted files hold DOUBLE chunks for the series
/// the engines buffer as INT64, and compaction — which documents a
/// mixed-type series as a caller bug — is left out of the stream.
fn apply(
    engines: &[StorageEngine],
    oracle: &mut Oracle,
    op: (u8, i64, i32),
    foreign_doubles: bool,
) -> Result<(), String> {
    let (code, t, v) = op;
    let keys = keys();
    let key = &keys[(v as i64).rem_euclid(2) as usize];
    match code % 14 {
        // Writes (weighted heaviest).
        0..=5 => {
            for eng in engines {
                eng.write(key, t, TsValue::Long(v as i64));
            }
            oracle
                .entry(key.clone())
                .or_default()
                .insert(t, TsValue::Long(v as i64));
        }
        // Range delete of a bounded window.
        6 | 7 => {
            let hi = t + (v as i64).rem_euclid(60);
            for eng in engines {
                eng.delete_range(key, t, hi);
            }
            if let Some(m) = oracle.get_mut(key) {
                m.retain(|&ot, _| !(t..=hi).contains(&ot));
            }
        }
        // Flush the dirty working memtables.
        8 => {
            for eng in engines {
                eng.flush_dirty();
            }
        }
        // Flush the unsequence memtables.
        9 => {
            for eng in engines {
                eng.flush_unseq();
            }
        }
        // Adopt a freshly-built file. Everything buffered is flushed
        // first so the adopted file is strictly the newest source and
        // chronological order matches merge priority.
        10 => {
            for eng in engines {
                eng.flush_dirty();
                eng.flush_unseq();
            }
            let mut w = TsFileWriter::new();
            let times = [t, t + 1, t + 2];
            let values: Vec<TsValue> = times
                .iter()
                .map(|&ts| {
                    if foreign_doubles {
                        TsValue::Double((v as i64 ^ ts) as f64 * 0.25)
                    } else {
                        TsValue::Long(v as i64 ^ ts)
                    }
                })
                .collect();
            w.write_chunk(key, &times, &values);
            let image = w.finish();
            for eng in engines {
                eng.adopt_file(image.clone())
                    .ok_or("adoptable image must parse")?;
            }
            let m = oracle.entry(key.clone()).or_default();
            for (&ts, value) in times.iter().zip(values) {
                m.insert(ts, value);
            }
        }
        // Compact: a leveled pass or a full merge. Neither may change
        // what any read sees.
        11 if !foreign_doubles => {
            for eng in engines {
                if v % 2 == 0 {
                    eng.compact_auto();
                } else {
                    eng.compact();
                }
            }
        }
        // Mid-sequence aggregates, all nine, every path.
        11 | 12 => {
            let hi = t + (v as i64).rem_euclid(400);
            let step = 1 + (v as i64).rem_euclid(97);
            for eng in engines {
                check_aggregates(eng, oracle, key, t, hi, step)?;
            }
        }
        // Mid-sequence query: both engines must agree with the oracle.
        _ => {
            let hi = t + (v as i64).rem_euclid(300);
            let want = oracle_range(oracle, key, t, hi);
            for eng in engines {
                let got = eng.query(key, t, hi);
                if got != want {
                    return Err(format!(
                        "shards={}: query({key:?}, {t}, {hi}) = {got:?}, oracle = {want:?}",
                        eng.shard_count()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Runs one op stream through both engines, then sweeps every key over
/// the full range and a few windows: rows, every aggregate path, and the
/// latest-value accessor.
fn run(ops: Vec<(u8, i64, i32)>, foreign_doubles: bool) -> Result<(), TestCaseError> {
    let engines = [engine(1), engine(4)];
    let mut oracle = Oracle::new();
    for op in ops {
        apply(&engines, &mut oracle, op, foreign_doubles).map_err(TestCaseError::fail)?;
    }
    for key in &keys() {
        for (lo, hi) in [(i64::MIN, i64::MAX), (0, 400), (350, 801), (795, 810)] {
            let want = oracle_range(&oracle, key, lo, hi);
            for eng in &engines {
                prop_assert_eq!(
                    eng.query(key, lo, hi),
                    want.clone(),
                    "shards={} range=[{}, {}]",
                    eng.shard_count(),
                    lo,
                    hi
                );
                // The whole axis at step 64 would be 2^58 buckets.
                let step = if lo == i64::MIN { i64::MAX } else { 64 };
                check_aggregates(eng, &oracle, key, lo, hi, step).map_err(TestCaseError::fail)?;
            }
        }
        let want_latest = oracle_range(&oracle, key, i64::MIN, i64::MAX)
            .last()
            .cloned();
        for eng in &engines {
            prop_assert_eq!(eng.latest_value(key), want_latest.clone());
        }
    }
    Ok(())
}

/// One sensor of each type, three to a device, the devices on different
/// shards under FNV-1a mod 4.
fn typed_keys() -> [(SeriesKey, DataType); 6] {
    [
        (SeriesKey::new("root.sg.d0", "i"), DataType::Int32),
        (SeriesKey::new("root.sg.d0", "l"), DataType::Int64),
        (SeriesKey::new("root.sg.d0", "f"), DataType::Float),
        (SeriesKey::new("root.sg.d2", "d"), DataType::Double),
        (SeriesKey::new("root.sg.d2", "b"), DataType::Boolean),
        (SeriesKey::new("root.sg.d2", "t"), DataType::Text),
    ]
}

/// A value of type `dt` that tells the `seq`-th write from every other,
/// so a stale duplicate of a timestamp shows.
fn typed_value(dt: DataType, t: i64, seq: i64) -> TsValue {
    match dt {
        DataType::Int32 => TsValue::Int((t * 1_000 + seq) as i32),
        DataType::Int64 => TsValue::Long(t * 100_000 - seq),
        DataType::Float => TsValue::Float(t as f32 + seq as f32 / 4_096.0),
        DataType::Double => TsValue::Double(t as f64 * 0.5 - seq as f64),
        DataType::Boolean => TsValue::Bool(seq % 2 == 0),
        DataType::Text => TsValue::Text(format!("t{t}#{seq}")),
    }
}

/// The engines of the sort-on-read stream, the flushes they have
/// outstanding, and the model.
struct Traffic {
    engines: [StorageEngine; 2],
    outstanding: [Vec<FlushJob>; 2],
    oracle: Oracle,
    /// Writes so far: the next value's distinguishing mark.
    seq: i64,
    /// Where the next "recent" burst starts.
    frontier: i64,
}

impl Traffic {
    fn new() -> Self {
        let engine = |shards| {
            StorageEngine::new(EngineConfig {
                memtable_max_points: 600, // a few rotations a stream
                array_size: 8,
                sorter: Algorithm::Backward(BackwardSort {
                    in_block: InBlockSort::Stable,
                    ..Default::default()
                }),
                shards,
                ..EngineConfig::default()
            })
        };
        Self {
            engines: [engine(1), engine(4)],
            outstanding: [Vec::new(), Vec::new()],
            oracle: Oracle::new(),
            seq: 0,
            frontier: 0,
        }
    }

    /// Appends `k` points delayed by up to 11 behind `base + i` to every
    /// sensor. A memtable that fills rotates into its flushing slot and
    /// its flush joins the outstanding ones.
    fn write_burst(&mut self, base: i64, k: i64, mut x: u64) {
        let times: Vec<i64> = (0..k)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                base + i - (x % 12) as i64
            })
            .collect();
        for (key, dt) in typed_keys() {
            let rows: Vec<(i64, TsValue)> = times
                .iter()
                .zip(self.seq..)
                .map(|(&t, seq)| (t, typed_value(dt, t, seq)))
                .collect();
            let batch = PointBatch::from_rows(rows.iter().cloned()).expect("one type a sensor");
            for (eng, jobs) in self.engines.iter().zip(&mut self.outstanding) {
                jobs.extend(
                    eng.write_batch_nonblocking(&key, &batch)
                        .expect("matching type"),
                );
            }
            self.oracle.entry(key).or_default().extend(rows);
        }
        self.seq += k;
    }

    /// Every sensor's `[lo, hi]` on every engine, against the model.
    fn read(&self, lo: i64, hi: i64) -> Result<(), String> {
        for (key, _) in typed_keys() {
            let want = oracle_range(&self.oracle, &key, lo, hi);
            for (eng, jobs) in self.engines.iter().zip(&self.outstanding) {
                let got = eng.query(&key, lo, hi);
                if got != want {
                    return Err(format!(
                        "shards={} flushes outstanding={}: query({key:?}, {lo}, {hi}) = {got:?}, \
                         oracle = {want:?}",
                        eng.shard_count(),
                        jobs.len()
                    ));
                }
            }
        }
        Ok(())
    }

    fn delete(&mut self, lo: i64, hi: i64) {
        for (key, _) in typed_keys() {
            for eng in &self.engines {
                eng.delete_range(&key, lo, hi);
            }
            if let Some(m) = self.oracle.get_mut(&key) {
                m.retain(|t, _| !(lo..=hi).contains(t));
            }
        }
    }

    /// Rotates every shard that can into its flushing slot; the flushes
    /// stay outstanding.
    fn begin_flushes(&mut self) {
        for (eng, jobs) in self.engines.iter().zip(&mut self.outstanding) {
            jobs.extend((0..eng.shard_count()).filter_map(|s| eng.begin_flush_shard(s)));
        }
    }

    fn complete_flushes(&mut self) {
        for (eng, jobs) in self.engines.iter().zip(&mut self.outstanding) {
            for job in jobs.drain(..) {
                eng.complete_flush(job);
            }
        }
    }

    fn apply(&mut self, (code, t, v): (u8, i64, i32)) -> Result<(), String> {
        let span = (v as i64).rem_euclid(300);
        match code % 10 {
            // Writes: a burst behind the rising frontier (what a read
            // finds is an ordered run and a short tail) or anywhere.
            0..=3 => {
                let k = 1 + (v as i64 >> 1).rem_euclid(24);
                let base = if v % 2 == 0 { self.frontier } else { t };
                if v % 2 == 0 {
                    self.frontier += k;
                }
                self.write_burst(base, k, v as u32 as u64 | 1 << 40);
            }
            // A read between writes.
            4 | 5 => self.read(t, t + span)?,
            // A delete between two reads of the range around it.
            6 => {
                self.read(t - 30, t + 90)?;
                self.delete(t, t + span % 60);
                self.read(t - 30, t + 90)?;
            }
            // Reads of a slot whose flush is outstanding: its buffers
            // are sorted where they sit, under the flush's feet.
            7 => {
                self.begin_flushes();
                self.read(t, t + span)?;
                self.read(i64::MIN, i64::MAX)?;
            }
            8 => {
                self.complete_flushes();
                self.read(t, t + span)?;
            }
            // Everything to files, nothing outstanding beside them.
            9 if v % 2 == 0 => {
                self.complete_flushes();
                for eng in &self.engines {
                    eng.flush_dirty();
                    eng.flush_unseq();
                }
            }
            // The newest points, as the recent-data reader asks.
            _ => self.read(self.frontier - 200, i64::MAX)?,
        }
        Ok(())
    }

    /// Every sensor over the whole axis, and its latest point.
    fn sweep(&self) -> Result<(), String> {
        self.read(i64::MIN, i64::MAX)?;
        for (key, _) in typed_keys() {
            let want = oracle_range(&self.oracle, &key, i64::MIN, i64::MAX)
                .last()
                .cloned();
            for eng in &self.engines {
                let got = eng.latest_value(&key);
                if got != want {
                    return Err(format!(
                        "latest_value({key:?}) = {got:?}, oracle = {want:?}"
                    ));
                }
            }
        }
        Ok(())
    }
}

proptest! {
    #[test]
    fn sort_on_read_between_writes_deletes_and_flushes_reads_the_model(
        ops in prop::collection::vec((0u8..10, 0i64..800, any::<i32>()), 1..120)
    ) {
        let mut traffic = Traffic::new();
        for op in ops {
            traffic.apply(op).map_err(TestCaseError::fail)?;
        }
        traffic.sweep().map_err(TestCaseError::fail)?;
        traffic.complete_flushes();
        traffic.sweep().map_err(TestCaseError::fail)?;
    }

    #[test]
    fn query_matches_naive_oracle(
        ops in prop::collection::vec((0u8..14, 0i64..800, any::<i32>()), 1..150)
    ) {
        run(ops, false)?;
    }

    #[test]
    fn mixed_type_series_read_like_rows(
        ops in prop::collection::vec((0u8..14, 0i64..800, any::<i32>()), 1..150)
    ) {
        run(ops, true)?;
    }
}
