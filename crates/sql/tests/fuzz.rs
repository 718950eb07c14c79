//! The SQL front end must be total: arbitrary input may be rejected with
//! an error but can never panic, loop, or corrupt the engine.

use backsort_core::Algorithm;
use backsort_engine::{EngineConfig, PointBatch, SeriesKey, StorageEngine, TsValue};
use backsort_sql::execute;
use proptest::prelude::*;

fn engine() -> StorageEngine {
    let eng = StorageEngine::new(EngineConfig {
        memtable_max_points: 1_000,
        sorter: Algorithm::Backward(Default::default()),
        shards: 1,
        ..EngineConfig::default()
    });
    let key = SeriesKey::new("root.sg.d1", "s");
    let batch = PointBatch::from_rows((0..50).map(|t| (t, TsValue::Long(t)))).expect("INT64");
    assert!(eng
        .write_batch_nonblocking(&key, &batch)
        .expect("INT64")
        .is_none());
    eng
}

proptest! {
    #[test]
    fn arbitrary_strings_never_panic(input in ".{0,200}") {
        let eng = engine();
        let _ = execute(&eng, &input);
    }

    #[test]
    fn near_sql_strings_never_panic(
        verb in prop::sample::select(vec!["SELECT", "INSERT", "DELETE", "select *"]),
        middle in "[a-z0-9_.,()'* <>=+-]{0,80}",
    ) {
        let eng = engine();
        let _ = execute(&eng, &format!("{verb} {middle}"));
    }

    /// A `GROUP BY` window returns every bucket, empty or not, so its
    /// size is the statement's to choose: whatever the window and step,
    /// the reply is bounded or the statement is refused.
    #[test]
    fn group_by_windows_are_bounded_or_refused(
        start in (i64::MIN + 1)..i64::MAX,
        span_exp in 0u32..63,
        step_exp in 0u32..63,
    ) {
        let eng = engine();
        let end = start.saturating_add(1i64 << span_exp);
        let step = 1i64 << step_exp;
        let sql = format!("SELECT count(s) FROM root.sg.d1 GROUP BY ({start}, {end}, {step})");
        match execute(&eng, &sql) {
            Ok(backsort_sql::QueryOutput::Grouped { buckets, .. }) => {
                prop_assert!(buckets.len() <= 1_000_001, "{} buckets", buckets.len());
                prop_assert_eq!(buckets[0].0, start);
            }
            Ok(other) => prop_assert!(false, "unexpected output {:?}", other),
            Err(e) => {
                prop_assert!(span_exp >= step_exp + 19, "refused a small window: {}", e.message);
                prop_assert!(e.message.contains("buckets"), "{}", e.message);
            }
        }
    }

    #[test]
    fn valid_range_queries_always_succeed(lo in -100i64..100, width in 0i64..100) {
        let eng = engine();
        let sql = format!(
            "SELECT s FROM root.sg.d1 WHERE time >= {lo} AND time <= {}",
            lo + width
        );
        let out = execute(&eng, &sql).expect("well-formed query");
        match out {
            backsort_sql::QueryOutput::Rows { rows, .. } => {
                let expected = if lo + width < 0 {
                    0
                } else {
                    (lo.max(0)..=(lo + width).min(49)).count()
                };
                prop_assert_eq!(rows.len(), expected);
            }
            other => prop_assert!(false, "unexpected output {:?}", other),
        }
    }
}
