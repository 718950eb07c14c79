//! Raw `SELECT` row alignment against a model, in process and over the
//! wire.
//!
//! One to four sensors of one device — DOUBLE, INT64, TEXT, BOOLEAN —
//! are given disjoint, interleaved, identical, random or empty timestamp
//! sets, part flushed and part left in the memtable. `SELECT a, b, …`
//! (any order, possibly a sensor that was never written) and `SELECT *`
//! over random ranges must equal, cell for cell, a
//! `BTreeMap<i64, Vec<Option<TsValue>>>` built from what was written;
//! and the same statement through `SqlClient::execute` over loopback
//! must equal the in-process result. Two fixed cases add what the random
//! one does not write: doubles that only compare by bits (NaN payloads,
//! ±inf, −0.0), and a series whose type changes part way through one
//! result.

use std::collections::BTreeMap;
use std::sync::Arc;

use backsort_core::Algorithm;
use backsort_engine::tsfile::TsFileWriter;
use backsort_engine::{DataType, EngineConfig, PointBatch, SeriesKey, StorageEngine, TsValue};
use backsort_server::{SqlClient, SqlServer};
use backsort_sql::{execute_outcome, execute_statement, parse, Outcome, QueryOutput, Run};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const DEVICE: &str = "root.al.d1";
const SENSORS: [&str; 4] = ["a", "b", "c", "d"];
/// Selected in some statements, written in none.
const NEVER_WRITTEN: &str = "e";
const HORIZON: i64 = 400;

fn value(sensor: usize, rng: &mut StdRng) -> TsValue {
    match sensor {
        0 => TsValue::Double(rng.gen_range(-1.0e3..1.0e3)),
        1 => TsValue::Long(rng.gen_range(-1_000..1_000)),
        2 => TsValue::Text(format!("t{}", rng.gen_range(0..100u32))),
        _ => TsValue::Bool(rng.gen_bool(0.5)),
    }
}

/// The timestamps each of `n` sensors is written at, by `shape`.
fn timestamp_sets(shape: u32, n: usize, rng: &mut StdRng) -> Vec<Vec<i64>> {
    let mut sets: Vec<Vec<i64>> = match shape {
        // Disjoint: sensor `s` owns its own stretch of the axis.
        0 => (0..n as i64)
            .map(|s| (s * 100..s * 100 + 60).collect())
            .collect(),
        // Interleaved: sensor `s` owns the residue class `s`.
        1 => (0..n as i64)
            .map(|s| (0..HORIZON).filter(|t| t % n as i64 == s).collect())
            .collect(),
        // Identical: every sensor at every timestamp.
        2 => (0..n).map(|_| (0..HORIZON / 2).collect()).collect(),
        // Random: each sensor an independent subset.
        _ => (0..n)
            .map(|_| (0..HORIZON).filter(|_| rng.gen_bool(0.3)).collect())
            .collect(),
    };
    // Now and then a written sensor has nothing in it at all.
    if n > 1 && rng.gen_bool(0.3) {
        sets[rng.gen_range(0..n)].clear();
    }
    sets
}

/// What a select of `columns` over `[lo, hi]` must return.
fn expected(
    model: &BTreeMap<&str, BTreeMap<i64, TsValue>>,
    columns: &[&str],
    lo: i64,
    hi: i64,
) -> Vec<(i64, Vec<Option<TsValue>>)> {
    let mut rows: BTreeMap<i64, Vec<Option<TsValue>>> = BTreeMap::new();
    for (at, column) in columns.iter().enumerate() {
        for (&t, v) in model.get(column).into_iter().flat_map(|m| m.range(lo..=hi)) {
            rows.entry(t).or_insert_with(|| vec![None; columns.len()])[at] = Some(v.clone());
        }
    }
    rows.into_iter().collect()
}

fn engine() -> Arc<StorageEngine> {
    Arc::new(StorageEngine::new(EngineConfig {
        memtable_max_points: 100_000,
        sorter: Algorithm::Backward(Default::default()),
        shards: 1,
        ..EngineConfig::default()
    }))
}

/// Writes `points` to `sensor` of [`DEVICE`] as one batch.
fn write(engine: &StorageEngine, sensor: &str, points: &[(i64, TsValue)]) {
    let batch = PointBatch::from_rows(points.iter().cloned()).expect("one type");
    let key = SeriesKey::new(DEVICE, sensor);
    if let Some(job) = engine.write_batch_nonblocking(&key, &batch).expect("typed") {
        engine.complete_flush(job);
    }
}

/// A row output with every float cell as its bits, so that NaN payloads
/// and the sign of zero compare.
fn by_bits(output: &QueryOutput) -> (Vec<String>, Vec<(i64, Vec<String>)>) {
    let QueryOutput::Rows { columns, rows } = output else {
        panic!("not rows: {output:?}");
    };
    let cell = |cell: &Option<TsValue>| match cell {
        Some(TsValue::Double(v)) => format!("double {:#018x}", v.to_bits()),
        Some(TsValue::Float(v)) => format!("float {:#010x}", v.to_bits()),
        other => format!("{other:?}"),
    };
    let rows = rows
        .iter()
        .map(|(t, cells)| (*t, cells.iter().map(cell).collect()))
        .collect();
    (columns.clone(), rows)
}

#[test]
fn aligned_rows_match_the_model_in_process_and_over_the_wire() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let engine = engine();
        let n = 1 + (seed as usize) % SENSORS.len();
        let shape = (seed / 4) as u32 % 4;
        let sets = timestamp_sets(shape, n, &mut rng);

        // Write each sensor's points in random order, the first part
        // before a flush and the rest after it.
        let mut model: BTreeMap<&str, BTreeMap<i64, TsValue>> = BTreeMap::new();
        let mut writes: Vec<(usize, i64)> = sets
            .iter()
            .enumerate()
            .flat_map(|(s, times)| times.iter().map(move |&t| (s, t)))
            .collect();
        writes.shuffle(&mut rng);
        let flush_after = if writes.is_empty() {
            0
        } else {
            rng.gen_range(0..=writes.len())
        };
        for (i, &(s, t)) in writes.iter().enumerate() {
            if i == flush_after {
                engine.flush();
            }
            let v = value(s, &mut rng);
            let point = PointBatch::from_rows([(t, v.clone())]).expect("one point");
            let key = SeriesKey::new(DEVICE, SENSORS[s]);
            if let Some(job) = engine.write_batch_nonblocking(&key, &point).expect("typed") {
                engine.complete_flush(job);
            }
            model.entry(SENSORS[s]).or_default().insert(t, v);
        }

        let server = SqlServer::start("127.0.0.1:0", Arc::clone(&engine)).expect("bind");
        let mut client = SqlClient::connect(server.addr()).expect("connect");
        // `*` expands to the sensors that hold a point, in name order.
        let star: Vec<&str> = model.keys().copied().collect();

        for query in 0..12 {
            // The first query has no `WHERE`: the whole time axis.
            let (lo, hi, range) = if query == 0 {
                (i64::MIN, i64::MAX, String::new())
            } else {
                let lo = rng.gen_range(-10..HORIZON);
                let hi = lo + rng.gen_range(0..HORIZON);
                (lo, hi, format!(" WHERE time >= {lo} AND time <= {hi}"))
            };
            let mut columns: Vec<&str> = SENSORS[..n].to_vec();
            if rng.gen_bool(0.25) {
                columns.push(NEVER_WRITTEN);
            }
            columns.shuffle(&mut rng);
            columns.truncate(rng.gen_range(1..=columns.len()));
            let lists = [
                (columns.join(", "), columns),
                ("*".to_string(), star.clone()),
            ];
            for (list, columns) in lists {
                if columns.is_empty() {
                    continue; // `SELECT *` of a device with no sensors is an error
                }
                let sql = format!("SELECT {list} FROM {DEVICE}{range}");
                let statement = parse(&sql).expect("the statement parses");
                let local = execute_statement(&engine, &statement).expect("it executes");
                let want = QueryOutput::Rows {
                    columns: columns.iter().map(|c| (*c).to_string()).collect(),
                    rows: expected(&model, &columns, lo, hi),
                };
                assert_eq!(local, want, "seed {seed}: {sql}");
                let remote = client.execute(&sql).expect("it executes over loopback");
                assert_eq!(remote, local, "seed {seed} over the wire: {sql}");
            }
        }
        server.shutdown();
    }
}

/// Runs each statement in process and over the wire, and checks both
/// against the model by bits.
fn agree_by_bits(
    engine: &Arc<StorageEngine>,
    model: &BTreeMap<&str, BTreeMap<i64, TsValue>>,
    cases: &[(&[&str], i64, i64)],
) {
    let server = SqlServer::start("127.0.0.1:0", Arc::clone(engine)).expect("bind");
    let mut client = SqlClient::connect(server.addr()).expect("connect");
    for &(columns, lo, hi) in cases {
        let sql = format!(
            "SELECT {} FROM {DEVICE} WHERE time >= {lo} AND time <= {hi}",
            columns.join(", ")
        );
        let want = by_bits(&QueryOutput::Rows {
            columns: columns.iter().map(|c| (*c).to_string()).collect(),
            rows: expected(model, columns, lo, hi),
        });
        let statement = parse(&sql).expect("the statement parses");
        let local = execute_statement(engine, &statement).expect("it executes");
        assert_eq!(by_bits(&local), want, "{sql}");
        let remote = client.execute(&sql).expect("it executes over loopback");
        assert_eq!(by_bits(&remote), want, "{sql} over the wire");
    }
    server.shutdown();
}

/// A DOUBLE sensor holding a quiet NaN, a NaN with a payload, ±inf and
/// −0.0, half flushed and half in the memtable, aligned with an INT64
/// sensor that fills the gaps between: every cell reads back with the
/// bits it was written with, in process and over the wire.
#[test]
fn doubles_that_only_compare_by_bits_align_exactly() {
    let engine = engine();
    let specials = [
        f64::NAN,
        f64::from_bits(0x7FF0_0000_DEAD_BEEF),
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        2.5,
    ];
    let a: Vec<(i64, TsValue)> = specials
        .iter()
        .cycle()
        .take(24)
        .enumerate()
        .map(|(i, &v)| (2 * i as i64, TsValue::Double(v)))
        .collect();
    let b: Vec<(i64, TsValue)> = (0..48).step_by(3).map(|t| (t, TsValue::Long(t))).collect();
    let (flushed, buffered) = a.split_at(a.len() / 2);
    write(&engine, "a", flushed);
    engine.flush();
    write(&engine, "a", buffered);
    write(&engine, "b", &b);
    let model = BTreeMap::from([
        ("a", a.into_iter().collect()),
        ("b", b.into_iter().collect()),
    ]);
    agree_by_bits(
        &engine,
        &model,
        &[
            (&["a"], -1_000, 1_000),
            (&["a", "b"], -1_000, 1_000),
            (&["b", "a"], 5, 30),
        ],
    );
}

/// A series the memtable holds as DOUBLE, with an adopted foreign file
/// holding it as INT64 just below: one result's column changes type part
/// way, so its run list does too — alone, and aligned with a sensor whose
/// points interleave with it, where one present stretch crosses the
/// change.
#[test]
fn a_column_that_changes_type_part_way_is_two_runs() {
    let engine = engine();
    let s_double: Vec<(i64, TsValue)> = (10..20)
        .map(|t| (t, TsValue::Double(t as f64 / 4.0)))
        .collect();
    let r: Vec<(i64, TsValue)> = (0..32)
        .step_by(2)
        .map(|t| (t, TsValue::Double(-t as f64)))
        .collect();
    write(&engine, "s", &s_double);
    write(&engine, "r", &r);
    let times: Vec<i64> = (0..10).collect();
    let s_long: Vec<TsValue> = times.iter().map(|&t| TsValue::Long(t * 100)).collect();
    let mut image = TsFileWriter::new();
    image.write_chunk(&SeriesKey::new(DEVICE, "s"), &times, &s_long);
    engine
        .adopt_file(image.finish())
        .expect("a foreign INT64 image adopts");

    let statement = parse(&format!("SELECT s FROM {DEVICE}")).expect("parses");
    let Ok(Outcome::Rows(rows)) = execute_outcome(&engine, &statement) else {
        panic!("a raw select is rows");
    };
    let types: Vec<Option<DataType>> = rows.runs()[0]
        .iter()
        .map(|run| match run {
            Run::Values(values) => Some(values.data_type()),
            Run::Gap(_) => None,
        })
        .collect();
    assert_eq!(types, [Some(DataType::Int64), Some(DataType::Double)]);

    let s = times.into_iter().zip(s_long).chain(s_double);
    let model = BTreeMap::from([("s", s.collect()), ("r", r.into_iter().collect())]);
    agree_by_bits(
        &engine,
        &model,
        &[
            (&["s"], -1_000, 1_000),
            (&["s", "r"], -1_000, 1_000),
            (&["r", "s"], 5, 25),
        ],
    );
}
