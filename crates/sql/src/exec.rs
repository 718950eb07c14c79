//! Statement execution against a [`StorageEngine`].

use backsort_engine::{
    AggValue, Aggregation, PointBatch, QueryResult, SeriesKey, StorageEngine, TsValue,
};
use backsort_obs::{names, trace};

use crate::parser::{Aggregate, GroupBy, Literal, SelectItem, Statement, TimeRange};
use crate::SqlError;

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum QueryOutput {
    /// Raw rows, aligned by timestamp across the selected sensors
    /// (`None` where a sensor has no point at that time) — IoTDB's
    /// aligned result set.
    Rows {
        /// Column names, in select order.
        columns: Vec<String>,
        /// `(timestamp, one optional value per column)`.
        rows: Vec<(i64, Vec<Option<TsValue>>)>,
    },
    /// One aggregate value per select item.
    Aggregates {
        /// `agg(column)` labels.
        columns: Vec<String>,
        /// The computed values.
        values: Vec<AggValue>,
    },
    /// Per-bucket aggregates from a `GROUP BY` window.
    Grouped {
        /// `agg(column)` labels.
        columns: Vec<String>,
        /// `(bucket start, one value per label)`.
        buckets: Vec<(i64, Vec<AggValue>)>,
    },
    /// Points written by an `INSERT`.
    Inserted(usize),
    /// In-memory points removed by a `DELETE` (flushed data is masked by
    /// a tombstone; see the engine's delete docs).
    Deleted(usize),
    /// Metric name/value rows from `SHOW STATS`. Counters and gauges are
    /// one row each; a histogram expands into `name.count`, `name.mean`,
    /// `name.p50`, `name.p99` and `name.max` rows.
    Stats {
        /// Metric names, sorted.
        names: Vec<String>,
        /// Rendered values, aligned with `names`.
        values: Vec<String>,
    },
    /// Static plan lines from `EXPLAIN` — per selected series: the shard
    /// touched, per-level file survival after key-filter and time-envelope
    /// pruning, and the merge fan-in. Nothing is executed.
    Explain {
        /// Human-readable plan lines, one per row.
        lines: Vec<String>,
    },
    /// The executed span tree from `EXPLAIN ANALYZE`: the query ran for
    /// real under a trace, and every stage reports its wall time plus
    /// typed attributes (files considered/pruned, cache hits, rows
    /// merged).
    Analyze {
        /// Indented span-tree lines, header first — the human rendering.
        rendered: Vec<String>,
        /// Structured spans for programmatic consumers, aligned with the
        /// non-header `rendered` lines.
        spans: Vec<SpanRow>,
        /// Rows (or aggregate values / buckets) the query produced.
        result_rows: usize,
    },
    /// Slow-query log entries from `SHOW SLOW QUERIES`, worst first:
    /// `(label, total nanoseconds, span count)` per retained trace.
    SlowQueries {
        /// One entry per logged trace.
        entries: Vec<(String, u64, usize)>,
    },
}

/// One span of an `EXPLAIN ANALYZE` tree, flattened for transport.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SpanRow {
    /// Stage name (e.g. `query.merge`).
    pub name: String,
    /// Tree depth; the root span is 0.
    pub depth: usize,
    /// Span wall time in nanoseconds.
    pub nanos: u64,
    /// Typed attributes accumulated by the stage; repeated keys summed.
    pub attrs: Vec<(String, u64)>,
}

fn agg_label(agg: Aggregate, column: &str) -> String {
    let name = match agg {
        Aggregate::Count => "count",
        Aggregate::MinValue => "min_value",
        Aggregate::MaxValue => "max_value",
        Aggregate::Avg => "avg",
        Aggregate::Sum => "sum",
        Aggregate::FirstValue => "first_value",
        Aggregate::LastValue => "last_value",
        Aggregate::MinTime => "min_time",
        Aggregate::MaxTime => "max_time",
    };
    format!("{name}({column})")
}

fn to_aggregation(agg: Aggregate) -> Aggregation {
    match agg {
        Aggregate::Count => Aggregation::Count,
        Aggregate::MinValue => Aggregation::MinValue,
        Aggregate::MaxValue => Aggregation::MaxValue,
        Aggregate::Avg => Aggregation::Avg,
        Aggregate::Sum => Aggregation::Sum,
        Aggregate::FirstValue => Aggregation::FirstValue,
        Aggregate::LastValue => Aggregation::LastValue,
        Aggregate::MinTime => Aggregation::MinTime,
        Aggregate::MaxTime => Aggregation::MaxTime,
    }
}

/// Parses and executes `sql` against `engine`.
pub fn execute(engine: &StorageEngine, sql: &str) -> Result<QueryOutput, SqlError> {
    let statement = crate::parser::parse(sql)?;
    execute_statement(engine, &statement)
}

/// Executes an already-parsed statement.
pub fn execute_statement(
    engine: &StorageEngine,
    statement: &Statement,
) -> Result<QueryOutput, SqlError> {
    match statement {
        Statement::Select {
            items,
            device,
            range,
            group_by,
        } => select(engine, items, device, *range, *group_by),
        Statement::Insert {
            device,
            sensors,
            rows,
        } => insert(engine, device, sensors, rows),
        Statement::Delete {
            device,
            sensor,
            range,
        } => {
            let key = SeriesKey::new(device.clone(), sensor.clone());
            let removed = engine.delete_range(&key, range.lo, range.hi);
            Ok(QueryOutput::Deleted(removed))
        }
        Statement::ShowStats => Ok(show_stats(engine)),
        Statement::ShowSlowQueries => Ok(show_slow_queries(engine)),
        Statement::Explain { analyze, inner } => explain(engine, *analyze, inner),
    }
}

/// `EXPLAIN` renders the static plan; `EXPLAIN ANALYZE` executes the
/// inner select under a trace and renders the finished span tree.
fn explain(
    engine: &StorageEngine,
    analyze: bool,
    inner: &Statement,
) -> Result<QueryOutput, SqlError> {
    let Statement::Select {
        items,
        device,
        range,
        group_by,
    } = inner
    else {
        return Err(SqlError::new("EXPLAIN only supports SELECT statements"));
    };
    if analyze {
        return explain_analyze(engine, items, device, *range, *group_by);
    }
    Ok(QueryOutput::Explain {
        lines: explain_plan(engine, items, device, *range)?,
    })
}

/// Resolves the select list to the distinct sensors it touches, in
/// select order (`*` expands to every sensor under the device).
fn resolve_sensors(
    engine: &StorageEngine,
    items: &[SelectItem],
    device: &str,
) -> Result<Vec<String>, SqlError> {
    let mut sensors: Vec<String> = Vec::new();
    let mut push = |s: String| {
        if !sensors.contains(&s) {
            sensors.push(s);
        }
    };
    for item in items {
        match item {
            SelectItem::Star => {
                let all = engine.list_sensors(device);
                if all.is_empty() {
                    return Err(SqlError::new(format!("no sensors under {device}")));
                }
                for k in all {
                    push(k.sensor);
                }
            }
            SelectItem::Column(c) | SelectItem::Agg(_, c) => push(c.clone()),
        }
    }
    Ok(sensors)
}

/// Renders the static query plan: for each selected series, which shard
/// it lives on, how many files per level survive key-filter and
/// time-envelope pruning, and the k-way merge fan-in. Read-only — an
/// unsorted memtable buffer is estimated, never sorted.
fn explain_plan(
    engine: &StorageEngine,
    items: &[SelectItem],
    device: &str,
    range: TimeRange,
) -> Result<Vec<String>, SqlError> {
    let sensors = resolve_sensors(engine, items, device)?;
    let mut lines = Vec::new();
    for sensor in &sensors {
        let key = SeriesKey::new(device, sensor.clone());
        let plan = engine.explain_query(&key, range.lo, range.hi);
        lines.push(format!(
            "series {device}.{sensor} [{}, {}] shard {}",
            range.lo, range.hi, plan.shard
        ));
        if !plan.reaches_disk {
            lines.push("  disk: skipped (time range is above every flushed file)".to_string());
        } else {
            lines.push(format!(
                "  files: {} total, {} pruned by key filter, {} pruned by time envelope",
                plan.files_total, plan.files_pruned_by_filter, plan.files_pruned_by_envelope
            ));
            for lp in &plan.levels {
                lines.push(format!(
                    "  level {}: {} files, {} surviving",
                    lp.level, lp.files, lp.surviving
                ));
            }
        }
        lines.push(format!(
            "  merge fan-in: {} ({} chunk sources + {} memtable buffers)",
            plan.fan_in(),
            plan.chunk_sources,
            plan.memtable_sources
        ));
    }
    Ok(lines)
}

/// Executes the select under a trace begun here (engine-side sampling is
/// bypassed: the engine joins an already-active trace instead of
/// starting its own) and renders the finished span tree.
fn explain_analyze(
    engine: &StorageEngine,
    items: &[SelectItem],
    device: &str,
    range: TimeRange,
    group_by: Option<GroupBy>,
) -> Result<QueryOutput, SqlError> {
    let label = format!("explain analyze {device} [{}, {}]", range.lo, range.hi);
    let ctx = engine
        .obs()
        .traces()
        .begin(backsort_obs::names::SPAN_QUERY_ROOT, label);
    let out = select(engine, items, device, range, group_by);
    let trace = ctx.and_then(backsort_obs::trace::TraceContext::finish);
    let out = out?;
    let result_rows = match &out {
        QueryOutput::Rows { rows, .. } => rows.len(),
        QueryOutput::Aggregates { values, .. } => values.len(),
        QueryOutput::Grouped { buckets, .. } => buckets.len(),
        _ => 0,
    };
    let Some(trace) = trace else {
        return Ok(QueryOutput::Analyze {
            rendered: vec!["tracing disabled: the engine's registry is a no-op".to_string()],
            spans: Vec::new(),
            result_rows,
        });
    };
    let spans = trace
        .spans
        .iter()
        .enumerate()
        .map(|(i, s)| SpanRow {
            name: s.name.to_string(),
            depth: trace.depth_of(i),
            nanos: s.duration_nanos,
            attrs: s
                .attrs
                .iter()
                .map(|(k, v)| ((*k).to_string(), *v))
                .collect(),
        })
        .collect();
    Ok(QueryOutput::Analyze {
        rendered: trace.render_text(),
        spans,
        result_rows,
    })
}

/// Flattens the slow-query log into `(label, total nanos, spans)` rows,
/// worst first.
fn show_slow_queries(engine: &StorageEngine) -> QueryOutput {
    let entries = engine
        .obs()
        .traces()
        .slow()
        .iter()
        .map(|t| (t.label.clone(), t.total_nanos(), t.spans.len()))
        .collect();
    QueryOutput::SlowQueries { entries }
}

/// Compiles an `INSERT`'s literal rows into one columnar [`PointBatch`]
/// per sensor, without touching an engine. This is the front half of
/// [`execute`]'s INSERT path, exposed so transports that manage their
/// own write scheduling (the framed SQL server routes batches through
/// [`StorageEngine::write_batch_nonblocking`] and a flush pool) reuse
/// the exact same literal-promotion rules.
///
/// Literals promote per column before the batch is built: any float in
/// the column makes it `DOUBLE` (integers widen), otherwise integers
/// stay `INT64`, strings `TEXT`, booleans `BOOLEAN`. Mixing
/// incompatible literal kinds in one column is an error and nothing is
/// returned.
pub fn compile_insert(
    device: &str,
    sensors: &[String],
    rows: &[(i64, Vec<Literal>)],
) -> Result<Vec<(SeriesKey, PointBatch)>, SqlError> {
    let mut batches = Vec::with_capacity(sensors.len());
    for (col, sensor) in sensors.iter().enumerate() {
        let mut has_num = false;
        let mut has_float = false;
        let mut has_str = false;
        let mut has_bool = false;
        for (_, values) in rows {
            match values.get(col) {
                Some(Literal::Int(_)) => has_num = true,
                Some(Literal::Float(_)) => {
                    has_num = true;
                    has_float = true;
                }
                Some(Literal::Str(_)) => has_str = true,
                Some(Literal::Bool(_)) => has_bool = true,
                None => return Err(SqlError::new("row narrower than sensor list")),
            }
        }
        if (has_num as u8) + (has_str as u8) + (has_bool as u8) > 1 {
            return Err(SqlError::new(format!(
                "column {sensor} mixes incompatible literal types"
            )));
        }
        let key = SeriesKey::new(device, sensor.clone());
        let batch = PointBatch::from_rows(rows.iter().map(|(t, values)| {
            let v = match values.get(col) {
                Some(Literal::Int(x)) if has_float => TsValue::Double(*x as f64),
                Some(Literal::Int(x)) => TsValue::Long(*x),
                Some(Literal::Float(x)) => TsValue::Double(*x),
                Some(Literal::Str(s)) => TsValue::Text(s.clone()),
                Some(Literal::Bool(b)) => TsValue::Bool(*b),
                // Width was checked above; an absent cell cannot occur.
                None => TsValue::Long(0),
            };
            (*t, v)
        }))
        .map_err(|e| SqlError::new(format!("column {sensor}: {e}")))?;
        batches.push((key, batch));
    }
    Ok(batches)
}

/// Executes an `INSERT`: each sensor's column of literals becomes one
/// columnar [`PointBatch`] handed to the engine whole — a multi-row
/// statement costs one memtable lookup (and, under a durable store, one
/// WAL frame) per sensor, not per point. See [`compile_insert`] for the
/// literal-promotion rules; a batch whose promoted type contradicts the
/// series' already-buffered type is rejected whole — either way nothing
/// from the statement is written.
fn insert(
    engine: &StorageEngine,
    device: &str,
    sensors: &[String],
    rows: &[(i64, Vec<Literal>)],
) -> Result<QueryOutput, SqlError> {
    for (key, batch) in compile_insert(device, sensors, rows)? {
        engine
            .write_batch(&key, &batch)
            .map_err(|e| SqlError::new(format!("column {}: {e}", key.sensor)))?;
    }
    Ok(QueryOutput::Inserted(sensors.len() * rows.len()))
}

/// Flattens the engine's registry snapshot into sorted name/value rows.
fn show_stats(engine: &StorageEngine) -> QueryOutput {
    // analyzer:allow(blocking-in-worker): SHOW STATS is an explicit user request for the registry dump; snapshot() copies under a short lock bounded by catalog size and never touches I/O
    let snap = engine.obs().snapshot();
    let mut names = Vec::new();
    let mut values = Vec::new();
    for (name, v) in &snap.counters {
        names.push(name.clone());
        values.push(v.to_string());
    }
    for (name, v) in &snap.gauges {
        names.push(name.clone());
        values.push(v.to_string());
    }
    for (name, h) in &snap.histograms {
        names.push(format!("{name}.count"));
        values.push(h.count.to_string());
        names.push(format!("{name}.mean"));
        values.push(format!("{:.1}", h.mean()));
        names.push(format!("{name}.p50"));
        values.push(h.percentile(0.50).to_string());
        names.push(format!("{name}.p99"));
        values.push(h.percentile(0.99).to_string());
        names.push(format!("{name}.max"));
        values.push(h.max.to_string());
    }
    QueryOutput::Stats { names, values }
}

/// The most buckets one `GROUP BY` may ask for. Every bucket of the
/// window is returned, empty or not, so the window and step alone — not
/// the data — size the reply; past this the statement is refused instead
/// of growing a worker's memory without limit.
const MAX_GROUP_BY_BUCKETS: i128 = 1_000_000;

/// Refuses a `GROUP BY (start, end, step)` whose window holds more than
/// [`MAX_GROUP_BY_BUCKETS`] steps.
fn check_bucket_count(g: &GroupBy) -> Result<(), SqlError> {
    if g.step <= 0 {
        return Err(SqlError::new("GROUP BY step must be positive"));
    }
    // i128 holds `end - start` of any two i64s, so nothing here can
    // overflow. A window that ends before it starts has no buckets.
    let span = i128::from(g.end) - i128::from(g.start);
    let buckets = if span < 0 {
        0
    } else {
        span / i128::from(g.step) + 1
    };
    if buckets > MAX_GROUP_BY_BUCKETS {
        return Err(SqlError::new(format!(
            "GROUP BY ({}, {}, {}) asks for {buckets} buckets; the limit is {MAX_GROUP_BY_BUCKETS}",
            g.start, g.end, g.step
        )));
    }
    Ok(())
}

fn select(
    engine: &StorageEngine,
    items: &[SelectItem],
    device: &str,
    range: TimeRange,
    group_by: Option<GroupBy>,
) -> Result<QueryOutput, SqlError> {
    // Expand `*` into the device's sensors.
    let mut expanded: Vec<SelectItem> = Vec::new();
    for item in items {
        match item {
            SelectItem::Star => {
                let sensors = engine.list_sensors(device);
                if sensors.is_empty() {
                    return Err(SqlError::new(format!("no sensors under {device}")));
                }
                expanded.extend(sensors.into_iter().map(|k| SelectItem::Column(k.sensor)));
            }
            other => expanded.push(other.clone()),
        }
    }

    let any_agg = expanded.iter().any(|i| matches!(i, SelectItem::Agg(..)));
    let any_raw = expanded.iter().any(|i| matches!(i, SelectItem::Column(_)));
    if any_agg && any_raw {
        return Err(SqlError::new(
            "cannot mix raw columns and aggregates in one select list",
        ));
    }
    if group_by.is_some() && !any_agg {
        return Err(SqlError::new("GROUP BY requires aggregate select items"));
    }

    if let Some(g) = group_by {
        check_bucket_count(&g)?;
        let mut columns = Vec::new();
        let mut series: Vec<Vec<(i64, AggValue)>> = Vec::new();
        for item in &expanded {
            let SelectItem::Agg(agg, column) = item else {
                // `any_agg && any_raw` was rejected above, so every item
                // here is an aggregate; a raw column reaching this loop
                // is an executor bug, reported instead of aborting.
                return Err(SqlError::new(
                    "internal: raw column in GROUP BY select list",
                ));
            };
            let key = SeriesKey::new(device, column.clone());
            columns.push(agg_label(*agg, column));
            series.push(engine.group_by_time(&key, g.start, g.end, g.step, to_aggregation(*agg)));
        }
        let buckets = match series.first() {
            None => Vec::new(),
            Some(first) => (0..first.len())
                .map(|b| {
                    let start = first[b].0;
                    let values = series.iter().map(|s| s[b].1).collect();
                    (start, values)
                })
                .collect(),
        };
        return Ok(QueryOutput::Grouped { columns, buckets });
    }

    if any_agg {
        // One scan per sensor, however many of its aggregates the list
        // asks for: fold each distinct column's aggregates in one
        // `aggregate_many` and put the answers back in select order.
        let mut columns = Vec::new();
        let mut items: Vec<(Aggregation, &str)> = Vec::new();
        for item in &expanded {
            let SelectItem::Agg(agg, column) = item else {
                return Err(SqlError::new(
                    "internal: raw column in aggregate select list",
                ));
            };
            columns.push(agg_label(*agg, column));
            items.push((to_aggregation(*agg), column));
        }
        let mut values = vec![AggValue::Empty; items.len()];
        for (first, &(_, sensor)) in items.iter().enumerate() {
            if items.iter().take(first).any(|&(_, seen)| seen == sensor) {
                continue; // answered with the column's first item
            }
            let (slots, aggs): (Vec<usize>, Vec<Aggregation>) = items
                .iter()
                .enumerate()
                .filter(|(_, &(_, column))| column == sensor)
                .map(|(slot, &(agg, _))| (slot, agg))
                .unzip();
            let key = SeriesKey::new(device, sensor);
            let answers = engine.aggregate_many(&key, range.lo, range.hi, &aggs);
            for (slot, answer) in slots.into_iter().zip(answers) {
                if let Some(value) = values.get_mut(slot) {
                    *value = answer;
                }
            }
        }
        return Ok(QueryOutput::Aggregates { columns, values });
    }

    // Raw rows: read each sensor, then align the reads by timestamp.
    let mut columns = Vec::with_capacity(expanded.len());
    let mut reads: Vec<QueryResult> = Vec::with_capacity(expanded.len());
    for item in expanded {
        let SelectItem::Column(column) = item else {
            return Err(SqlError::new("internal: aggregate item in raw select list"));
        };
        let key = SeriesKey::new(device, column.as_str());
        reads.push(engine.query(&key, range.lo, range.hi));
        columns.push(column);
    }
    let span = trace::span(names::SPAN_SQL_ROWS);
    let rows = align_rows(reads);
    if let Some(span) = &span {
        span.attr(names::ATTR_ROWS, rows.len() as u64);
    }
    Ok(QueryOutput::Rows { columns, rows })
}

/// Aligns per-sensor reads — each ascending in time, timestamps unique —
/// into one row per distinct timestamp, `None` where a sensor has no
/// point there. Values are moved out of the reads, never cloned.
fn align_rows(mut reads: Vec<QueryResult>) -> Vec<(i64, Vec<Option<TsValue>>)> {
    if reads.len() == 1 {
        // One sensor has nothing to align with: every point is a row.
        let only = reads.pop().unwrap_or_default();
        return only.into_iter().map(|(t, v)| (t, vec![Some(v)])).collect();
    }
    // Several sensors: one cursor each. The next row's timestamp is the
    // least head, and every cursor whose head is at it gives its value.
    let longest = reads.iter().map(Vec::len).max().unwrap_or(0);
    let mut cursors: Vec<_> = reads
        .into_iter()
        .map(|read| read.into_iter().peekable())
        .collect();
    let mut rows = Vec::with_capacity(longest);
    while let Some(t) = cursors
        .iter_mut()
        .filter_map(|cursor| cursor.peek().map(|&(t, _)| t))
        .min()
    {
        let cells = cursors
            .iter_mut()
            .map(|cursor| cursor.next_if(|&(head, _)| head == t).map(|(_, v)| v))
            .collect();
        rows.push((t, cells));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use backsort_core::Algorithm;
    use backsort_engine::EngineConfig;

    fn engine() -> StorageEngine {
        StorageEngine::new(EngineConfig {
            memtable_max_points: 10_000,
            array_size: 16,
            sorter: Algorithm::Backward(Default::default()),
            shards: 1,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn insert_then_select_roundtrip() {
        let eng = engine();
        for t in [3i64, 1, 2] {
            let sql = format!(
                "INSERT INTO root.sg.d1(timestamp, speed, label) VALUES ({t}, {}.5, 'L{t}')",
                t * 10
            );
            assert_eq!(execute(&eng, &sql).unwrap(), QueryOutput::Inserted(2));
        }
        let out = execute(
            &eng,
            "SELECT speed, label FROM root.sg.d1 WHERE time >= 1 AND time <= 3",
        )
        .unwrap();
        match out {
            QueryOutput::Rows { columns, rows } => {
                assert_eq!(columns, vec!["speed", "label"]);
                assert_eq!(rows.len(), 3);
                assert_eq!(rows[0].0, 1);
                assert_eq!(rows[0].1[0], Some(TsValue::Double(10.5)));
                assert_eq!(rows[0].1[1], Some(TsValue::Text("L1".into())));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn star_expands_to_all_sensors() {
        let eng = engine();
        execute(
            &eng,
            "INSERT INTO root.sg.d1(timestamp, a, b) VALUES (1, 1, 2)",
        )
        .unwrap();
        execute(&eng, "INSERT INTO root.sg.d1(timestamp, b) VALUES (2, 4)").unwrap();
        let out = execute(&eng, "SELECT * FROM root.sg.d1").unwrap();
        match out {
            QueryOutput::Rows { columns, rows } => {
                assert_eq!(columns, vec!["a", "b"]);
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1].1[0], None, "sensor a has no point at t=2");
                assert_eq!(rows[1].1[1], Some(TsValue::Long(4)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aggregates_and_group_by() {
        let eng = engine();
        for t in 0..100i64 {
            execute(
                &eng,
                &format!("INSERT INTO root.sg.d1(timestamp, s) VALUES ({t}, {t})"),
            )
            .unwrap();
        }
        let out = execute(
            &eng,
            "SELECT count(s), avg(s) FROM root.sg.d1 WHERE time <= 49",
        )
        .unwrap();
        assert_eq!(
            out,
            QueryOutput::Aggregates {
                columns: vec!["count(s)".into(), "avg(s)".into()],
                values: vec![AggValue::Number(50.0), AggValue::Number(24.5)],
            }
        );
        let out = execute(&eng, "SELECT sum(s) FROM root.sg.d1 GROUP BY (0, 99, 50)").unwrap();
        match out {
            QueryOutput::Grouped { buckets, .. } => {
                assert_eq!(buckets.len(), 2);
                assert_eq!(buckets[0], (0, vec![AggValue::Number(1_225.0)]));
                assert_eq!(buckets[1].0, 50);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn one_sensors_aggregates_share_one_scan() {
        let eng = engine();
        for t in 0..100i64 {
            execute(
                &eng,
                &format!("INSERT INTO root.sg.d1(timestamp, s, r) VALUES ({t}, {t}, 1)"),
            )
            .unwrap();
        }
        eng.flush();
        let reads = || {
            let snap = eng.obs().snapshot();
            snap.counter(backsort_obs::names::QUERY_READ_PATH)
                + snap.counter(backsort_obs::names::QUERY_SORTED_ON_READ)
        };
        let before = reads();
        let out = execute(&eng, "SELECT count(s), avg(s) FROM root.sg.d1").unwrap();
        assert_eq!(reads() - before, 1, "count(s), avg(s) is one scan of s");
        assert_eq!(
            out,
            QueryOutput::Aggregates {
                columns: vec!["count(s)".into(), "avg(s)".into()],
                values: vec![AggValue::Number(100.0), AggValue::Number(49.5)],
            }
        );
        // Interleaved sensors: one scan each, answers back in select
        // order.
        let before = reads();
        let out = execute(
            &eng,
            "SELECT max_time(s), sum(r), min_value(s), count(r) FROM root.sg.d1 WHERE time >= 10",
        )
        .unwrap();
        assert_eq!(reads() - before, 2, "two sensors, two scans");
        assert_eq!(
            out,
            QueryOutput::Aggregates {
                columns: vec![
                    "max_time(s)".into(),
                    "sum(r)".into(),
                    "min_value(s)".into(),
                    "count(r)".into()
                ],
                values: vec![
                    AggValue::Time(99),
                    AggValue::Number(90.0),
                    AggValue::Number(10.0),
                    AggValue::Number(90.0)
                ],
            }
        );
    }

    #[test]
    fn unbounded_group_by_is_refused() {
        let eng = engine();
        execute(&eng, "INSERT INTO root.sg.d1(timestamp, s) VALUES (1, 1)").unwrap();
        let err = execute(
            &eng,
            "SELECT count(s) FROM root.sg.d1 GROUP BY (0, 9223372036854775807, 1)",
        )
        .unwrap_err();
        assert!(err.message.contains("buckets"), "{}", err.message);
        // The whole i64 axis does not overflow the count either.
        let err = execute(
            &eng,
            "SELECT count(s) FROM root.sg.d1 GROUP BY (-9223372036854775807, 9223372036854775807, 3)",
        )
        .unwrap_err();
        assert!(err.message.contains("buckets"), "{}", err.message);
        // Exactly the limit passes, one more bucket does not.
        let out = execute(
            &eng,
            "SELECT count(s) FROM root.sg.d1 GROUP BY (0, 999999, 1)",
        )
        .unwrap();
        match out {
            QueryOutput::Grouped { buckets, .. } => {
                assert_eq!(buckets.len(), 1_000_000);
                assert_eq!(buckets[1], (1, vec![AggValue::Number(1.0)]));
            }
            other => panic!("{other:?}"),
        }
        assert!(execute(
            &eng,
            "SELECT count(s) FROM root.sg.d1 GROUP BY (0, 1000000, 1)"
        )
        .is_err());
        // A huge window is fine when the step is as huge (the third
        // bucket is the one that starts where the time axis saturates).
        let out = execute(
            &eng,
            "SELECT count(s) FROM root.sg.d1 GROUP BY (0, 9223372036854775807, 4611686018427387904)",
        )
        .unwrap();
        match out {
            QueryOutput::Grouped { buckets, .. } => assert_eq!(buckets.len(), 3),
            other => panic!("{other:?}"),
        }
        // A statement built without the parser cannot divide by zero.
        let stmt = Statement::Select {
            items: vec![SelectItem::Agg(Aggregate::Count, "s".into())],
            device: "root.sg.d1".into(),
            range: TimeRange {
                lo: i64::MIN,
                hi: i64::MAX,
            },
            group_by: Some(GroupBy {
                start: 0,
                end: 10,
                step: 0,
            }),
        };
        assert!(execute_statement(&eng, &stmt).is_err());
    }

    #[test]
    fn delete_via_sql() {
        let eng = engine();
        for t in 0..10i64 {
            execute(
                &eng,
                &format!("INSERT INTO root.sg.d1(timestamp, s) VALUES ({t}, 1)"),
            )
            .unwrap();
        }
        let out = execute(
            &eng,
            "DELETE FROM root.sg.d1.s WHERE time >= 2 AND time <= 5",
        )
        .unwrap();
        assert_eq!(out, QueryOutput::Deleted(4));
        let out = execute(&eng, "SELECT count(s) FROM root.sg.d1").unwrap();
        assert_eq!(
            out,
            QueryOutput::Aggregates {
                columns: vec!["count(s)".into()],
                values: vec![AggValue::Number(6.0)],
            }
        );
    }

    #[test]
    fn the_papers_benchmark_query_runs() {
        let eng = engine();
        for t in 0..5_000i64 {
            execute(
                &eng,
                &format!("INSERT INTO root.sg.d1(timestamp, s) VALUES ({t}, {t})"),
            )
            .unwrap();
        }
        // SELECT * FROM data WHERE time > current - window (§VI-D)
        let out = execute(&eng, "SELECT * FROM root.sg.d1 WHERE time > 4999 - 100").unwrap();
        match out {
            QueryOutput::Rows { rows, .. } => assert_eq!(rows.len(), 100),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn show_stats_reports_live_counters() {
        let eng = engine();
        execute(&eng, "INSERT INTO root.sg.d1(timestamp, s) VALUES (1, 1)").unwrap();
        execute(&eng, "SELECT s FROM root.sg.d1").unwrap();
        let out = execute(&eng, "SHOW STATS").unwrap();
        match out {
            QueryOutput::Stats { names, values } => {
                assert_eq!(names.len(), values.len());
                let get = |n: &str| {
                    let i = names.iter().position(|x| x == n).unwrap_or_else(|| {
                        panic!("metric {n} missing from SHOW STATS");
                    });
                    values[i].clone()
                };
                assert_eq!(get("engine.write_points"), "1");
                assert_eq!(get("query.read_path"), "1");
                // INSERT rides the columnar batch path, so the
                // per-stage ingest timings are live in SHOW STATS.
                assert_eq!(get("engine.write_batch_nanos.count"), "1");
                assert_eq!(get("engine.batch_split_nanos.count"), "1");
                assert_eq!(get("memtable.batch_append_nanos.count"), "1");
                assert_eq!(get("memtable.type_mismatch_rejects"), "0");
                // The WAL stage registers too (zero without a durable
                // store in front).
                assert_eq!(get("wal.batch_encode_nanos.count"), "0");
                assert!(names.iter().any(|n| n == "merge.overlap_q.p99"));
                // The read-path additions are pre-registered, so an
                // operator sees the cache, filter, and leveling
                // counters even before they first fire.
                assert_eq!(get("cache.hits"), "0");
                assert_eq!(get("cache.misses"), "0");
                assert_eq!(get("cache.evictions"), "0");
                assert_eq!(get("cache.bytes"), "0");
                assert_eq!(get("query.files_pruned_by_filter"), "0");
                assert_eq!(get("compaction.level_moves"), "0");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multi_row_insert_writes_one_batch_per_sensor() {
        let eng = engine();
        let out = execute(
            &eng,
            "INSERT INTO root.sg.d1(timestamp, s1, s2) VALUES (1, 10, 1.5), (3, 30, 3.5), (2, 20, 2.5)",
        )
        .unwrap();
        assert_eq!(out, QueryOutput::Inserted(6));
        let out = execute(&eng, "SELECT s1, s2 FROM root.sg.d1").unwrap();
        match out {
            QueryOutput::Rows { rows, .. } => {
                assert_eq!(rows.len(), 3);
                assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
                assert_eq!(rows[1].1[0], Some(TsValue::Long(20)));
                // An integer in a float column promotes to DOUBLE.
                assert_eq!(rows[1].1[1], Some(TsValue::Double(2.5)));
            }
            other => panic!("{other:?}"),
        }
        // One batch write per sensor, not one point write per cell.
        let snap = eng.obs().snapshot();
        assert_eq!(snap.counter("engine.write_points"), 6);
        let batches = snap
            .histogram("engine.write_batch_nanos")
            .map_or(0, |h| h.count);
        assert_eq!(batches, 2);
    }

    #[test]
    fn insert_promotes_int_column_with_floats_to_double() {
        let eng = engine();
        execute(
            &eng,
            "INSERT INTO root.sg.d1(timestamp, s) VALUES (1, 2), (2, 2.5)",
        )
        .unwrap();
        let out = execute(&eng, "SELECT s FROM root.sg.d1").unwrap();
        match out {
            QueryOutput::Rows { rows, .. } => {
                assert_eq!(rows[0].1[0], Some(TsValue::Double(2.0)));
                assert_eq!(rows[1].1[0], Some(TsValue::Double(2.5)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_type_errors_reject_the_statement() {
        let eng = engine();
        // Incompatible literals in one column.
        let err = execute(
            &eng,
            "INSERT INTO root.sg.d1(timestamp, s) VALUES (1, 1), (2, 'x')",
        )
        .unwrap_err();
        assert!(err.message.contains("incompatible"), "{}", err.message);
        // A batch whose type contradicts the buffered series type is
        // rejected whole — and the engine survives to serve the query.
        execute(&eng, "INSERT INTO root.sg.d1(timestamp, s) VALUES (1, 1)").unwrap();
        let err = execute(
            &eng,
            "INSERT INTO root.sg.d1(timestamp, s) VALUES (2, 'text'), (3, 'more')",
        )
        .unwrap_err();
        assert!(err.message.contains("type mismatch"), "{}", err.message);
        let out = execute(&eng, "SELECT count(s) FROM root.sg.d1").unwrap();
        assert_eq!(
            out,
            QueryOutput::Aggregates {
                columns: vec!["count(s)".into()],
                values: vec![AggValue::Number(1.0)],
            }
        );
    }

    #[test]
    fn explain_renders_a_static_plan_without_executing() {
        let eng = engine();
        for t in 0..50i64 {
            execute(
                &eng,
                &format!("INSERT INTO root.sg.d1(timestamp, s1, s2) VALUES ({t}, {t}, {t})"),
            )
            .unwrap();
        }
        eng.flush();
        let reads_before = eng
            .obs()
            .counter_value(backsort_obs::names::QUERY_READ_PATH);
        let out = execute(&eng, "EXPLAIN SELECT * FROM root.sg.d1 WHERE time >= 10").unwrap();
        let QueryOutput::Explain { lines } = out else {
            panic!("expected Explain, got {out:?}");
        };
        let text = lines.join("\n");
        assert!(text.contains("series root.sg.d1.s1"), "{text}");
        assert!(text.contains("series root.sg.d1.s2"), "{text}");
        assert!(text.contains("level 0: 1 files, 1 surviving"), "{text}");
        assert!(text.contains("merge fan-in:"), "{text}");
        // EXPLAIN is static: the read path never ran.
        assert_eq!(
            eng.obs()
                .counter_value(backsort_obs::names::QUERY_READ_PATH),
            reads_before
        );
    }

    #[test]
    fn explain_analyze_executes_and_renders_the_span_tree() {
        let eng = engine();
        for t in 0..50i64 {
            execute(
                &eng,
                &format!("INSERT INTO root.sg.d1(timestamp, s) VALUES ({t}, {t})"),
            )
            .unwrap();
        }
        eng.flush();
        let out = execute(
            &eng,
            "EXPLAIN ANALYZE SELECT s FROM root.sg.d1 WHERE time >= 0 AND time <= 49",
        )
        .unwrap();
        let QueryOutput::Analyze {
            rendered,
            spans,
            result_rows,
        } = out
        else {
            panic!("expected Analyze, got {out:?}");
        };
        assert_eq!(result_rows, 50);
        assert!(rendered.len() > 1, "header plus span lines: {rendered:?}");
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(spans[0].name, backsort_obs::names::SPAN_QUERY_ROOT);
        assert_eq!(spans[0].depth, 0);
        assert!(
            names.contains(&backsort_obs::names::SPAN_QUERY_READ),
            "{names:?}"
        );
        assert!(
            names.contains(&backsort_obs::names::SPAN_QUERY_MERGE),
            "{names:?}"
        );
        // The merge stage carries the rows it emitted.
        let merged: u64 = spans
            .iter()
            .flat_map(|s| s.attrs.iter())
            .filter(|(k, _)| k == backsort_obs::names::ATTR_ROWS_MERGED)
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(merged, 50);
    }

    #[test]
    fn slow_queries_surface_through_sql() {
        let eng = engine();
        execute(&eng, "INSERT INTO root.sg.d1(timestamp, s) VALUES (1, 1)").unwrap();
        // Empty log first.
        assert_eq!(
            execute(&eng, "SHOW SLOW QUERIES").unwrap(),
            QueryOutput::SlowQueries {
                entries: Vec::new()
            }
        );
        // Zero threshold: every finished trace qualifies as slow.
        eng.obs().traces().set_slow_threshold_nanos(0);
        execute(&eng, "EXPLAIN ANALYZE SELECT s FROM root.sg.d1").unwrap();
        let out = execute(&eng, "SHOW SLOW QUERIES").unwrap();
        let QueryOutput::SlowQueries { entries } = out else {
            panic!("expected SlowQueries, got {out:?}");
        };
        assert_eq!(entries.len(), 1);
        assert!(
            entries[0].0.contains("explain analyze root.sg.d1"),
            "{entries:?}"
        );
        assert!(entries[0].2 >= 2, "root plus at least one child span");
    }

    #[test]
    fn semantic_errors_are_reported() {
        let eng = engine();
        execute(&eng, "INSERT INTO root.sg.d1(timestamp, s) VALUES (1, 1)").unwrap();
        assert!(execute(&eng, "SELECT s, count(s) FROM root.sg.d1")
            .unwrap_err()
            .message
            .contains("mix"));
        assert!(
            execute(&eng, "SELECT s FROM root.sg.d1 GROUP BY (0, 10, 2)")
                .unwrap_err()
                .message
                .contains("aggregate")
        );
        assert!(execute(&eng, "SELECT * FROM root.empty.device")
            .unwrap_err()
            .message
            .contains("no sensors"));
    }
}
