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
//! must equal the in-process result.

use std::collections::BTreeMap;
use std::sync::Arc;

use backsort_core::Algorithm;
use backsort_engine::{EngineConfig, SeriesKey, StorageEngine, TsValue};
use backsort_server::{SqlClient, SqlServer};
use backsort_sql::{execute_statement, parse, QueryOutput};
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

#[test]
fn aligned_rows_match_the_model_in_process_and_over_the_wire() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let engine = Arc::new(StorageEngine::new(EngineConfig {
            memtable_max_points: 100_000,
            array_size: 16,
            sorter: Algorithm::Backward(Default::default()),
            shards: 1,
            ..EngineConfig::default()
        }));
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
            engine.write(&SeriesKey::new(DEVICE, SENSORS[s]), t, v.clone());
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
