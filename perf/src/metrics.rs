//! The metric tables: names, units, directions and bounds. `BENCHMARK.json`
//! carries the same tables; a unit test keeps the two from drifting.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `b` is than `a`, as a share of `a` (negative when
    /// `b` is better).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        match self {
            Better::Higher => (a - b) / a,
            Better::Lower => (b - a) / a,
        }
    }
}

/// What every reported metric has: a name, a unit and a direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// A metric a user of the system would see, measured with tracing off.
///
/// Three of the issue's metrics are not here. By the issue's own rule a
/// metric that cannot hold its bound between sets of runs of one binary
/// is demoted to the `client` layer, not given a wider bound:
/// `write_p95_ms` and `query_p95_ms` (the top twenty of a round's few
/// hundred latencies spread 6-15 % between ten runs), and `write_p50_ms`
/// (with eight frames in flight it is the depth of a queue between a
/// client and a server that share two cores with a flusher, which the
/// scheduler sets: 10-14 % between ten runs of `ingest-ooo`; with one in
/// flight it is three thread wake-ups, which the host sets).
///
/// The bounds are not the issue's 10 %: on the reference box the same
/// binary's median over ten runs moved by up to 12 % between two sets
/// taken half an hour apart (and by 17 % between two sets of three runs
/// minutes apart). A 10 % bound would reject unchanged code, so
/// everything timed or resident has the contract's ceiling of 25 %.
/// Stored bytes have 3 %, not 1 %: which memtable a late point of
/// `ingest-ooo` lands in depends on when the flush before it finished,
/// and the ten runs' quartiles stand up to 0.5 % apart.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub metric: Metric,
    /// The worsening, as a share of the baseline median, that counts as
    /// a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        metric: layer(name, unit, better),
        bound,
    }
}

/// A metric of one layer, from the traced run; never gated.
const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 7] = [
    e2e("ingest_points_per_s", "points/s", Higher, 0.25),
    e2e("query_per_s", "1/s", Higher, 0.25),
    e2e("query_p50_ms", "ms", Lower, 0.25),
    e2e("cpu_s", "s", Lower, 0.25),
    e2e("stored_bytes_per_point", "bytes/point", Lower, 0.03),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

pub const PER_LAYER: [Metric; 37] = [
    layer("client.encode_ns_per_point", "ns", Lower),
    layer("client.decode_us_per_query", "us", Lower),
    layer("client.write_p50_ms", "ms", Lower),
    layer("client.write_p95_ms", "ms", Lower),
    layer("client.write_p99_ms", "ms", Lower),
    layer("client.query_p95_ms", "ms", Lower),
    layer("client.query_p99_ms", "ms", Lower),
    layer("client.busy_retries", "count", Lower),
    layer("server.wire.decode_ns_per_point", "ns", Lower),
    layer("server.wire.encode_us_per_query", "us", Lower),
    layer("server.wire.response_bytes_per_row", "bytes", Lower),
    layer("server.transport_us_per_request", "us", Lower),
    layer("server.request_p50_us", "us", Lower),
    layer("server.rejected_busy", "count", Lower),
    layer("sql.parse_us_per_stmt", "us", Lower),
    layer("sql.exec_self_us_per_query", "us", Lower),
    layer("sql.rows_per_query", "count", Lower),
    layer("engine.write.append_ns_per_point", "ns", Lower),
    layer("engine.write.ooo_share", "ratio", Lower),
    layer("engine.flush.sort_ns_per_point", "ns", Lower),
    layer("engine.flush.encode_ns_per_point", "ns", Lower),
    layer("engine.flush.write_ns_per_point", "ns", Lower),
    layer("engine.flush.count", "count", Lower),
    layer("core.sort_ns_per_point", "ns", Lower),
    layer("core.sort_block_size_p50", "points", Lower),
    layer("core.merge_overlap_q_mean", "points", Lower),
    layer("engine.read.query_us", "us", Lower),
    layer("engine.read.files_considered_per_query", "count", Lower),
    layer("engine.read.files_pruned_share", "ratio", Higher),
    layer("engine.read.sorted_on_read_share", "ratio", Lower),
    layer("engine.cache.hit_share", "ratio", Higher),
    layer("engine.cache.evictions", "count", Lower),
    layer("engine.aggregate.us_per_query", "us", Lower),
    layer("engine.aggregate.points_scanned_per_result", "count", Lower),
    layer("engine.store.wal_ns_per_point", "ns", Lower),
    layer("engine.store.wal_bytes_per_point", "bytes", Lower),
    layer("perf.trace_overhead_share", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Workload;
    use serde::Value;

    fn field<'a>(object: &'a Value, key: &str) -> &'a Value {
        let Value::Object(fields) = object else {
            panic!("expected an object, got {object:?}");
        };
        &fields
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no key {key}"))
            .1
    }

    fn text(object: &Value, key: &str) -> String {
        match field(object, key) {
            Value::Str(s) => s.clone(),
            other => panic!("{key} is not a string: {other:?}"),
        }
    }

    fn items(object: &Value, key: &str) -> Vec<Value> {
        match field(object, key) {
            Value::Array(items) => items.clone(),
            other => panic!("{key} is not an array: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_carries_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perf/");
        let doc: Value = serde_json::from_str(&json).expect("BENCHMARK.json parses");

        let workloads: Vec<String> = items(&doc, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);

        let listed = items(&doc, "end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (theirs, ours) in listed.iter().zip(&END_TO_END) {
            assert_eq!(text(theirs, "name"), ours.metric.name);
            assert_eq!(text(theirs, "unit"), ours.metric.unit);
            assert_eq!(text(theirs, "better"), ours.metric.better.name());
            let bound = match field(theirs, "bound") {
                Value::Float(f) => *f,
                Value::Int(i) => *i as f64,
                other => panic!("bound is not a number: {other:?}"),
            };
            assert_eq!(bound, ours.bound, "{}", ours.metric.name);
        }

        let listed = items(&doc, "per_layer");
        assert_eq!(listed.len(), PER_LAYER.len());
        for (theirs, ours) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(text(theirs, "name"), ours.name);
            assert_eq!(text(theirs, "unit"), ours.unit);
            assert_eq!(text(theirs, "better"), ours.better.name());
        }
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Higher.worsening(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((Lower.worsening(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!(Higher.worsening(100.0, 110.0) < 0.0);
    }
}
