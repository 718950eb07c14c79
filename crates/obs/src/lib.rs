//! `backsort-obs` — a first-class metrics and tracing layer.
//!
//! The paper's claims are quantitative — `α̃_L` drives block-size
//! selection, the backward-merge overlap obeys `E[Q] ≤ E[Δτ | Δτ ≥ 0]` —
//! so the engine reproducing them needs internal observables, not just
//! client-side timings. This crate supplies the shared substrate:
//!
//! * **[`Registry`]** — named [`Counter`]s, [`Gauge`]s and log-bucketed
//!   [`Histogram`]s. Registration takes a lock once per metric; the
//!   returned `Arc` handles are lock-free atomics, safe to hammer from
//!   the hottest write path. A registry built with
//!   [`Registry::new_disabled`] hands out no-op metrics, so the same
//!   binary can measure its own instrumentation overhead.
//! * **[`Snapshot`]** — a point-in-time copy of every metric, with
//!   [`Snapshot::delta_since`] so benches report per-phase deltas.
//! * **[`trace`]** — hierarchical per-request span trees
//!   ([`trace::TraceContext`] / [`trace::SpanGuard`]) with a
//!   thread-local lock-free hot path, a bounded slow-query log, and
//!   Chrome-trace export; the substrate behind `EXPLAIN ANALYZE` and
//!   `SHOW SLOW QUERIES`.
//! * **Exporters** — [`Registry::render_prometheus`] (text exposition
//!   format) and [`Registry::render_json`] (compact JSON for
//!   `--stats-json` bench artifacts).
//! * **[`names`]** — the metric catalog every instrumentation site and
//!   the CI rot-check share.
//!
//! Per-shard variants use a label suffix baked into the metric name via
//! [`Registry::labeled`] (`flush.count{shard=3}`), which keeps lookup a
//! plain string map instead of a label-set matcher.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod names;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of histogram buckets: one for zero, one per power of two, the
/// top one absorbing everything at or above `2^63` (the overflow
/// bucket).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing atomic counter.
#[derive(Debug)]
pub struct Counter {
    enabled: bool,
    value: AtomicU64,
}

impl Counter {
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An atomic gauge: a value that goes up and down (queue depths).
#[derive(Debug)]
pub struct Gauge {
    enabled: bool,
    value: AtomicI64,
}

impl Gauge {
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            value: AtomicI64::new(0),
        }
    }

    /// Sets the value outright.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.enabled {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds a (possibly negative) delta.
    #[inline]
    pub fn add(&self, d: i64) {
        if self.enabled {
            self.value.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A lock-free histogram over `u64` observations with logarithmic
/// (power-of-two) buckets.
///
/// Bucket `0` holds exact zeros; bucket `i` (`1 ..= 63`) holds values in
/// `[2^(i-1), 2^i)`; bucket `64` is the overflow bucket (`>= 2^63`).
/// Percentiles are therefore upper bounds accurate to a factor of two —
/// the right trade for latency/size distributions recorded on hot paths,
/// where a `record` must stay a handful of relaxed atomic adds.
#[derive(Debug)]
pub struct Histogram {
    enabled: bool,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// The bucket an observation lands in.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The largest value a bucket can hold (the value a percentile query
/// reports for it).
fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.enabled {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Folds a [`LocalHistogram`] in, touching only its populated
    /// buckets — the batch-path alternative to per-value [`record`]
    /// (`Histogram::record`) when a loop would otherwise do thousands
    /// of atomic adds.
    pub fn merge_local(&self, local: &LocalHistogram) {
        if !self.enabled || local.count == 0 {
            return;
        }
        self.count.fetch_add(local.count, Ordering::Relaxed);
        self.sum.fetch_add(local.sum, Ordering::Relaxed);
        self.max.fetch_max(local.max, Ordering::Relaxed);
        for (i, &n) in local.buckets.iter().enumerate() {
            if n > 0 {
                self.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (wraps beyond `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation, 0 when empty.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean observation, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// The `p`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// the rank falls in; 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        self.freeze().percentile(p)
    }

    /// Copies the live atomics into an immutable [`HistogramSnapshot`].
    pub fn freeze(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A stack-local histogram accumulator for batch hot paths.
///
/// [`record`](LocalHistogram::record) is plain arithmetic — no atomics —
/// so a loop can record per-element observations for free and pay one
/// [`Histogram::merge_local`] (a handful of atomic adds over the
/// populated buckets) when the batch ends.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    count: u64,
    sum: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl LocalHistogram {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// Records one observation (no atomics).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Observations recorded since construction.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// An immutable copy of one histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Largest observation seen (not diffable: deltas keep the later
    /// max).
    pub max: u64,
    /// Per-bucket counts ([`HISTOGRAM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-quantile as a bucket upper bound; 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Observations since `earlier` (per-bucket saturating subtraction;
    /// `max` keeps the later value, which upper-bounds the delta's max).
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// The metrics registry: named metrics plus the trace store.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a write lock on a
/// miss and a read lock on a hit; hot paths are expected to cache the
/// returned `Arc` handles once and never touch the registry again.
#[derive(Debug)]
pub struct Registry {
    enabled: bool,
    // Poisoning is recovered (`PoisonError::into_inner`) at every
    // acquisition: the maps only ever gain fully-constructed entries, so
    // a panic mid-insert leaves them consistent, and metrics must never
    // abort the process that is trying to report a failure.
    inner: RwLock<Inner>,
    traces: Arc<trace::TraceStore>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A live registry.
    pub fn new() -> Self {
        Self::build(true)
    }

    /// A registry whose metrics and traces are all no-ops — the control
    /// arm of the instrumentation-overhead experiment. Names still
    /// register (so renders stay shape-identical); values never move.
    pub fn new_disabled() -> Self {
        Self::build(false)
    }

    fn build(enabled: bool) -> Self {
        // The trace store's health metrics are ordinary registry
        // metrics, created here so every registry — engine-owned or not
        // — carries them from birth and exporters stay shape-complete.
        let mut inner = Inner::default();
        let mut mk_counter = |name: &str| {
            let c = Arc::new(Counter::new(enabled));
            inner.counters.insert(name.to_string(), Arc::clone(&c));
            c
        };
        let started = mk_counter(names::TRACE_STARTED);
        let dropped = mk_counter(names::TRACE_DROPPED_SPANS);
        let slow = mk_counter(names::TRACE_SLOW_QUERIES);
        let span_base = Arc::new(Histogram::new(enabled));
        inner
            .histograms
            .insert(names::TRACE_SPAN_NANOS.to_string(), Arc::clone(&span_base));
        let stage_nanos: BTreeMap<&'static str, Arc<Histogram>> = names::SPAN_STAGES
            .iter()
            .map(|stage| {
                let h = Arc::new(Histogram::new(enabled));
                inner.histograms.insert(
                    Self::labeled(names::TRACE_SPAN_NANOS, "stage", stage),
                    Arc::clone(&h),
                );
                (*stage, h)
            })
            .collect();
        Self {
            enabled,
            inner: RwLock::new(inner),
            traces: Arc::new(trace::TraceStore::new(
                enabled,
                started,
                dropped,
                slow,
                span_base,
                stage_nanos,
            )),
        }
    }

    /// Whether metrics recorded against this registry move.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// A metric name carrying one label, e.g.
    /// `labeled("flush.count", "shard", 3)` → `flush.count{shard=3}`.
    pub fn labeled(name: &str, label: &str, value: impl std::fmt::Display) -> String {
        format!("{name}{{{label}={value}}}")
    }

    /// Registers (or retrieves) a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self
            .inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .counters
            .get(name)
        {
            return Arc::clone(c);
        }
        let mut inner = self
            .inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(
            inner
                .counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new(self.enabled))),
        )
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self
            .inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .gauges
            .get(name)
        {
            return Arc::clone(g);
        }
        let mut inner = self
            .inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(
            inner
                .gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new(self.enabled))),
        )
    }

    /// Registers (or retrieves) a histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self
            .inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .histograms
            .get(name)
        {
            return Arc::clone(h);
        }
        let mut inner = self
            .inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(self.enabled))),
        )
    }

    /// A counter's current value; 0 when it was never registered.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .counters
            .get(name)
            .map_or(0, |c| c.get())
    }

    /// A gauge's current value; 0 when it was never registered.
    pub fn gauge_value(&self, name: &str) -> i64 {
        self.inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .gauges
            .get(name)
            .map_or(0, |g| g.get())
    }

    /// The hierarchical trace store (span trees, slow-query log,
    /// Chrome-trace export).
    pub fn traces(&self) -> &Arc<trace::TraceStore> {
        &self.traces
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self
            .inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.freeze()))
                .collect(),
        }
    }

    /// Renders the registry in the Prometheus text exposition format.
    /// Histograms are exported as summaries (`quantile` labels plus
    /// `_count`/`_sum`).
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }

    /// Renders the registry as compact JSON:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    pub fn render_json(&self) -> String {
        self.snapshot().render_json()
    }
}

/// A point-in-time copy of a whole registry, diffable for bench deltas.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// A counter's value; 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value; 0 when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// A histogram's state, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// What happened between `earlier` and `self`: counters and
    /// histogram counts subtract (saturating, so a metric born between
    /// the two snapshots reports its full value); gauges keep the later
    /// level (a gauge is a level, not a rate).
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| {
                    let d = match earlier.histograms.get(k) {
                        Some(e) => v.delta_since(e),
                        None => v.clone(),
                    };
                    (k.clone(), d)
                })
                .collect(),
        }
    }

    /// Compact JSON, stable key order (see
    /// [`Registry::render_json`]).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{value}", json_string(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{value}", json_string(name));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"mean\":{:.3},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                json_string(name),
                h.count,
                h.sum,
                h.mean(),
                h.max,
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
            );
        }
        out.push_str("}}");
        out
    }

    /// Prometheus text exposition (see
    /// [`Registry::render_prometheus`]).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let (base, labels) = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {base} counter");
            let _ = writeln!(out, "{base}{labels} {value}");
        }
        for (name, value) in &self.gauges {
            let (base, labels) = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {base} gauge");
            let _ = writeln!(out, "{base}{labels} {value}");
        }
        for (name, h) in &self.histograms {
            let (base, labels) = prometheus_name(name);
            let inner = labels.trim_start_matches('{').trim_end_matches('}');
            let with = |extra: &str| {
                if inner.is_empty() {
                    format!("{{{extra}}}")
                } else {
                    format!("{{{inner},{extra}}}")
                }
            };
            let _ = writeln!(out, "# TYPE {base} summary");
            for (q, v) in [
                (0.5, h.percentile(0.50)),
                (0.9, h.percentile(0.90)),
                (0.99, h.percentile(0.99)),
            ] {
                let _ = writeln!(out, "{base}{} {v}", with(&format!("quantile=\"{q}\"")));
            }
            let _ = writeln!(out, "{base}_count{labels} {}", h.count);
            let _ = writeln!(out, "{base}_sum{labels} {}", h.sum);
            let _ = writeln!(out, "{base}_max{labels} {}", h.max);
        }
        out
    }
}

/// Quotes and escapes a metric name as a JSON string.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Splits `flush.count{shard=3}` into a Prometheus-safe base name
/// (`backsort_flush_count`) and a label block (`{shard="3"}`; empty when
/// unlabeled).
fn prometheus_name(name: &str) -> (String, String) {
    let (base, label) = match name.split_once('{') {
        Some((b, rest)) => (b, rest.trim_end_matches('}')),
        None => (name, ""),
    };
    let mut safe = String::with_capacity(base.len() + 9);
    safe.push_str("backsort_");
    for c in base.chars() {
        safe.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    let labels = match label.split_once('=') {
        Some((k, v)) => format!("{{{k}=\"{v}\"}}"),
        None => String::new(),
    };
    (safe, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_of(1u64 << 63), 64);
        assert_eq!(bucket_of((1u64 << 63) - 1), 63);
        // Every value lands inside its bucket's bounds.
        for v in [0u64, 1, 2, 7, 100, 4096, u64::MAX / 2, u64::MAX] {
            let b = bucket_of(v);
            assert!(v <= bucket_upper_bound(b), "{v} in bucket {b}");
            if b > 0 {
                assert!(v > bucket_upper_bound(b - 1), "{v} above bucket {}", b - 1);
            }
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new(true);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.percentile(1.0), 0);
    }

    #[test]
    fn histogram_percentiles_respect_log_buckets() {
        let h = Histogram::new(true);
        // 90 small observations, 10 large ones.
        for _ in 0..90 {
            h.record(3); // bucket [2, 3]
        }
        for _ in 0..10 {
            h.record(1000); // bucket [512, 1023]
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 90 * 3 + 10 * 1000);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.percentile(0.5), 3, "median in the small bucket");
        assert_eq!(h.percentile(0.90), 3, "rank 90 still small");
        assert_eq!(h.percentile(0.91), 1023, "rank 91 is the large bucket");
        assert_eq!(h.percentile(0.99), 1023);
        assert_eq!(h.percentile(1.0), 1023);
        assert_eq!(h.percentile(0.0), 3, "p0 clamps to the first rank");
    }

    #[test]
    fn histogram_overflow_bucket_catches_huge_values() {
        let h = Histogram::new(true);
        h.record(u64::MAX);
        h.record(1u64 << 63);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(0.5), u64::MAX, "overflow bucket upper bound");
        let snap = h.freeze();
        assert_eq!(snap.buckets[64], 2);
        assert_eq!(snap.buckets[63], 0);
    }

    #[test]
    fn histogram_zero_values_have_their_own_bucket() {
        let h = Histogram::new(true);
        for _ in 0..5 {
            h.record(0);
        }
        h.record(8);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.percentile(1.0), 15, "8 lives in [8, 15]");
        assert_eq!(h.freeze().buckets[0], 5);
    }

    #[test]
    fn local_histogram_merges_like_direct_records() {
        let direct = Histogram::new(true);
        let batched = Histogram::new(true);
        let mut local = LocalHistogram::new();
        for v in [0u64, 1, 3, 3, 900, u64::MAX] {
            direct.record(v);
            local.record(v);
        }
        assert_eq!(local.count(), 6);
        batched.merge_local(&local);
        assert_eq!(batched.freeze(), direct.freeze());
        // Merging an empty accumulator is a no-op.
        batched.merge_local(&LocalHistogram::new());
        assert_eq!(batched.freeze(), direct.freeze());
    }

    #[test]
    fn concurrent_hammering_loses_no_updates() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 100_000;
        let registry = Registry::new();
        let counter = registry.counter("t.counter");
        let hist = registry.histogram("t.hist");
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let counter = Arc::clone(&counter);
                let hist = Arc::clone(&hist);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        counter.inc();
                        hist.record(t as u64 * PER_THREAD + i);
                    }
                });
            }
        });
        let total = THREADS as u64 * PER_THREAD;
        assert_eq!(counter.get(), total, "no lost counter increments");
        assert_eq!(hist.count(), total, "no lost histogram records");
        let bucket_total: u64 = hist.freeze().buckets.iter().sum();
        assert_eq!(bucket_total, total, "every record landed in a bucket");
        // Sum of 0..total (fits u64 comfortably at this size).
        assert_eq!(hist.sum(), total * (total - 1) / 2);
    }

    #[test]
    fn registry_returns_the_same_metric_for_the_same_name() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(r.counter_value("x"), 3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(r.counter_value("never-registered"), 0);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-5);
        assert_eq!(r.gauge_value("depth"), -5);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new_disabled();
        assert!(!r.is_enabled());
        let c = r.counter("c");
        let g = r.gauge("g");
        let h = r.histogram("h");
        c.add(10);
        g.set(10);
        h.record(10);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), 0);
        // Names still render (shape parity with an enabled registry).
        assert!(r.render_json().contains("\"c\":0"));
    }

    #[test]
    fn snapshot_delta_subtracts_counters_and_histograms() {
        let r = Registry::new();
        let c = r.counter("ops");
        let h = r.histogram("lat");
        c.add(5);
        h.record(100);
        let before = r.snapshot();
        c.add(7);
        h.record(200);
        h.record(300);
        let delta = r.snapshot().delta_since(&before);
        assert_eq!(delta.counter("ops"), 7);
        let dh = delta.histogram("lat").expect("recorded");
        assert_eq!(dh.count, 2);
        assert_eq!(dh.sum, 500);
        // A metric born after the first snapshot reports its full value.
        let c2 = r.counter("late");
        c2.add(3);
        let delta2 = r.snapshot().delta_since(&before);
        assert_eq!(delta2.counter("late"), 3);
    }

    #[test]
    fn json_render_is_parseable_shape() {
        let r = Registry::new();
        r.counter(names::QUERY_READ_PATH).add(2);
        r.gauge(names::ENGINE_FLUSH_QUEUE_DEPTH).set(1);
        r.histogram(names::MERGE_OVERLAP_Q).record(3);
        let json = r.render_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"query.read_path\":2"));
        assert!(json.contains("\"engine.flush_queue_depth\":1"));
        assert!(json.contains("\"merge.overlap_q\":{\"count\":1,\"sum\":3"));
        assert!(json.ends_with("}}"));
    }

    #[test]
    fn prometheus_render_sanitizes_names_and_labels() {
        let r = Registry::new();
        r.counter(&Registry::labeled(names::FLUSH_COUNT, "shard", 3))
            .inc();
        r.histogram(names::ENGINE_WRITE_BATCH_NANOS).record(1500);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE backsort_flush_count counter"));
        assert!(text.contains("backsort_flush_count{shard=\"3\"} 1"));
        assert!(text.contains("# TYPE backsort_engine_write_batch_nanos summary"));
        assert!(text.contains("backsort_engine_write_batch_nanos_count 1"));
        assert!(text.contains("quantile=\"0.5\""));
    }

    #[test]
    fn labeled_builds_the_suffix_form() {
        assert_eq!(
            Registry::labeled("flush.count", "shard", 7),
            "flush.count{shard=7}"
        );
    }

    #[test]
    fn required_catalog_is_unique_and_wellformed() {
        let mut seen = std::collections::BTreeSet::new();
        for name in names::REQUIRED {
            assert!(seen.insert(name), "duplicate catalog entry {name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_'),
                "bad metric name {name}"
            );
        }
    }
}
