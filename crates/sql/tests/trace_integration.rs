//! Acceptance: `EXPLAIN ANALYZE` on a multi-file, multi-shard query
//! renders a span tree whose per-stage attributes — files considered and
//! pruned, cache hits, pages decoded and pages answered from their
//! headers, rows merged — exactly match the registry counter deltas for
//! that query, and a default-config run loses no spans.

use backsort_core::Algorithm;
use backsort_engine::{EngineConfig, StorageEngine};
use backsort_obs::names;
use backsort_sql::{execute, QueryOutput, SpanRow};

/// A multi-shard engine with several flushed files per sensor: three
/// sensors spread over four shards, three flushes (so three level-0
/// files each), plus unflushed tail points in the memtable.
fn populated_engine() -> StorageEngine {
    let eng = StorageEngine::new(EngineConfig {
        memtable_max_points: 100_000,
        array_size: 32,
        sorter: Algorithm::Backward(Default::default()),
        shards: 4,
        ..EngineConfig::default()
    });
    for round in 0..3i64 {
        for t in (round * 100)..(round * 100 + 100) {
            execute(
                &eng,
                &format!(
                    "INSERT INTO root.sg.d1(timestamp, s1, s2, s3) VALUES ({t}, {t}, {t}, {t})"
                ),
            )
            .expect("insert");
        }
        eng.flush();
    }
    for t in 300..320i64 {
        execute(
            &eng,
            &format!("INSERT INTO root.sg.d1(timestamp, s1, s2, s3) VALUES ({t}, {t}, {t}, {t})"),
        )
        .expect("insert tail");
    }
    eng
}

fn attr_sum(spans: &[SpanRow], key: &str) -> u64 {
    spans
        .iter()
        .flat_map(|s| s.attrs.iter())
        .filter(|(k, _)| k == key)
        .map(|(_, v)| *v)
        .sum()
}

#[test]
fn analyze_attributes_match_registry_counter_deltas_exactly() {
    let eng = populated_engine();
    // Prime the cache so the traced query sees both hits and misses.
    execute(
        &eng,
        "SELECT s1 FROM root.sg.d1 WHERE time >= 120 AND time <= 180",
    )
    .expect("warm query");

    let before = eng.obs().snapshot();
    let out = execute(
        &eng,
        "EXPLAIN ANALYZE SELECT * FROM root.sg.d1 WHERE time >= 120 AND time <= 310",
    )
    .expect("explain analyze");
    let after = eng.obs().snapshot();

    let QueryOutput::Analyze {
        spans, result_rows, ..
    } = out
    else {
        panic!("expected Analyze, got {out:?}");
    };
    assert_eq!(result_rows, 191, "rows 120..=310");

    // The window [120, 310] spans files 2 and 3 of each sensor plus the
    // memtable tail, so the trace covers a genuinely multi-file read.
    assert!(
        attr_sum(&spans, names::ATTR_FILES_CONSIDERED) >= 6,
        "three sensors × ≥2 surviving files: {spans:?}"
    );

    let delta = |name: &str| after.counter(name) - before.counter(name);
    for (attr, counter) in [
        (names::ATTR_FILES_CONSIDERED, names::QUERY_FILES_CONSIDERED),
        (names::ATTR_FILES_PRUNED, names::QUERY_FILES_PRUNED),
        (
            names::ATTR_FILES_PRUNED_BY_FILTER,
            names::QUERY_FILES_PRUNED_BY_FILTER,
        ),
        (names::ATTR_CACHE_HITS, names::CACHE_HITS),
        (names::ATTR_CACHE_MISSES, names::CACHE_MISSES),
        (names::ATTR_ROWS_MERGED, names::QUERY_ROWS_MERGED),
        (names::ATTR_PAGES_DECODED, names::QUERY_PAGES_DECODED),
        (
            names::ATTR_PAGES_FROM_HEADER,
            names::QUERY_PAGES_FROM_HEADER,
        ),
    ] {
        assert_eq!(
            attr_sum(&spans, attr),
            delta(counter),
            "span attribute {attr} must equal the {counter} delta"
        );
    }
    // The traced query served some pages from the warmed cache.
    assert!(delta(names::CACHE_HITS) > 0, "warmed pages re-served");
    assert_eq!(
        attr_sum(&spans, names::ATTR_ROWS_MERGED),
        3 * 191,
        "three sensors × 191 rows each"
    );

    // Span-tree shape: one root, per-sensor read spans beneath it.
    assert_eq!(spans[0].name, names::SPAN_QUERY_ROOT);
    assert_eq!(spans[0].depth, 0);
    assert_eq!(
        spans
            .iter()
            .filter(|s| s.name == names::SPAN_QUERY_READ)
            .count(),
        3,
        "one read span per sensor"
    );
    assert_eq!(
        spans
            .iter()
            .filter(|s| s.name == names::SPAN_QUERY_MERGE)
            .count(),
        3
    );
    assert!(spans
        .iter()
        .filter(|s| s.name != names::SPAN_QUERY_ROOT)
        .all(|s| s.depth >= 1));
}

/// `EXPLAIN ANALYZE SELECT count(s)` says why it was fast: the
/// `query.files` span carries the pages taken from their headers next to
/// the pages decoded, the nested scan carries the cache lookups, and
/// each equals its registry counter's delta.
#[test]
fn analyze_of_a_count_shows_the_pages_answered_from_headers() {
    let eng = populated_engine();
    let before = eng.obs().snapshot();
    let out = execute(
        &eng,
        "EXPLAIN ANALYZE SELECT count(s1) FROM root.sg.d1 WHERE time >= 120 AND time <= 310",
    )
    .expect("explain analyze");
    let after = eng.obs().snapshot();
    let QueryOutput::Analyze {
        spans, rendered, ..
    } = out
    else {
        panic!("expected Analyze, got {out:?}");
    };
    let files: Vec<&SpanRow> = spans
        .iter()
        .filter(|s| s.name == names::SPAN_QUERY_FILES)
        .collect();
    assert_eq!(files.len(), 1, "{spans:?}");
    let attr = |key: &str| {
        files[0]
            .attrs
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |(_, v)| *v)
    };
    // File 2 (100..=199) is cut by the range and decoded — timestamps
    // only; file 3 (200..=299) lies inside it and is never decoded.
    assert_eq!(attr(names::ATTR_PAGES_FROM_HEADER), 1, "{rendered:?}");
    assert_eq!(attr(names::ATTR_PAGES_DECODED), 1, "{rendered:?}");
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(delta(names::QUERY_PAGES_FROM_HEADER), 1);
    assert_eq!(delta(names::QUERY_PAGES_DECODED), 1);
    assert_eq!(
        attr_sum(&spans, names::ATTR_ROWS_MERGED),
        80 + 11,
        "the cut page's 80 points and the memtable's 11; the whole page's 100 were not scanned"
    );
    assert_eq!(delta(names::QUERY_ROWS_MERGED), 91);
    assert!(
        rendered.iter().any(|l| l.contains("pages_from_header=1")),
        "{rendered:?}"
    );
    // The scan is nested under the files span it does the page work of.
    let merge_depth = spans
        .iter()
        .find(|s| s.name == names::SPAN_QUERY_MERGE)
        .map(|s| s.depth);
    let files_depth = spans
        .iter()
        .find(|s| s.name == names::SPAN_QUERY_FILES)
        .map(|s| s.depth);
    assert_eq!(merge_depth, files_depth.map(|d| d + 1));
}

/// Satellite: under the default configuration nothing is lost — the
/// `trace.dropped_spans` counter stays at zero across a traced
/// multi-file workload (flushes, compaction-free reads, EXPLAIN
/// ANALYZE runs).
#[test]
fn default_config_drops_no_spans() {
    let eng = populated_engine();
    for _ in 0..5 {
        execute(
            &eng,
            "EXPLAIN ANALYZE SELECT * FROM root.sg.d1 WHERE time >= 0 AND time <= 320",
        )
        .expect("explain analyze");
    }
    // Plain queries too: 1-in-16 sampling traces some of these.
    for _ in 0..64 {
        execute(&eng, "SELECT s1 FROM root.sg.d1 WHERE time >= 0").expect("query");
    }
    assert!(
        eng.obs().counter_value(names::TRACE_STARTED) >= 5,
        "traces actually ran"
    );
    assert_eq!(
        eng.obs().counter_value(names::TRACE_DROPPED_SPANS),
        0,
        "default config must not shed spans"
    );
}
