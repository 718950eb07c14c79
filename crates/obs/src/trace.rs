//! Hierarchical per-request tracing: span trees, a slow-query log, and
//! Chrome-trace export.
//!
//! This module answers "why was *this* query slow". A
//! [`TraceStore::begin`] call opens a trace on the current thread;
//! every [`span`] opened until the matching
//! [`TraceContext`] finishes becomes a node in one span tree, with its
//! parent, wall time, and typed attributes (`files_considered`,
//! `cache_hits`, `rows_merged`, …).
//!
//! Lock strategy: the hot path is lock-free. Open spans accumulate in
//! a thread-local buffer ([`span`] and [`add_attr`] touch only that
//! buffer), and the store's mutexes are taken once per *finished*
//! trace, never per span. Traces are sampled (the engine's
//! `trace_sample_n` knob), so even the per-finish cost is paid on a
//! small fraction of queries; a store built over a disabled registry
//! hands out `None` contexts and the whole subsystem costs one
//! thread-local check per instrumentation site.
//!
//! Bounds: at most [`MAX_SPANS_PER_TRACE`] spans per trace (overflow
//! counts into `trace.dropped_spans`), the most recent
//! [`RECENT_TRACES`] finished trees (ring eviction also counts dropped
//! spans), and the [`SLOW_LOG_CAPACITY`] *worst* trees over the slow
//! threshold.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::{json_string, Counter, Histogram};

/// Hard cap on spans buffered for one trace; spans opened beyond it are
/// counted as dropped rather than recorded.
pub const MAX_SPANS_PER_TRACE: usize = 512;
/// How many finished traces the recent ring retains for `/traces`.
pub const RECENT_TRACES: usize = 64;
/// How many worst-case traces the slow-query log retains.
pub const SLOW_LOG_CAPACITY: usize = 16;
/// Default slow-query threshold: 1 ms of root wall time.
pub const DEFAULT_SLOW_THRESHOLD_NANOS: u64 = 1_000_000;

/// One finished span inside a [`Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage name (one of [`names::SPAN_STAGES`](crate::names::SPAN_STAGES)
    /// at every in-tree call site).
    pub name: &'static str,
    /// Index of the parent span within the trace; `None` for the root.
    pub parent: Option<usize>,
    /// Offset from trace start, nanoseconds.
    pub start_nanos: u64,
    /// Span wall time, nanoseconds.
    pub duration_nanos: u64,
    /// Typed attributes, accumulated via [`SpanGuard::attr`] /
    /// [`add_attr`]; repeated keys sum.
    pub attrs: Vec<(&'static str, u64)>,
}

/// One finished span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Store-unique trace id.
    pub id: u64,
    /// Free-form label (the statement or series the trace covers).
    pub label: String,
    /// Spans in open order; the root is first.
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    /// Root wall time in nanoseconds (0 for an empty trace).
    pub fn total_nanos(&self) -> u64 {
        self.spans.first().map_or(0, |s| s.duration_nanos)
    }

    /// Tree depth of span `idx` (root = 0); saturates on malformed
    /// parent links instead of looping.
    pub fn depth_of(&self, idx: usize) -> usize {
        let mut depth = 0;
        let mut cur = self.spans.get(idx).and_then(|s| s.parent);
        while let Some(p) = cur {
            depth += 1;
            if depth > self.spans.len() {
                break;
            }
            cur = self.spans.get(p).and_then(|s| s.parent);
        }
        depth
    }

    /// Sum of attribute `key` across every span in the tree.
    pub fn attr_total(&self, key: &str) -> u64 {
        self.spans
            .iter()
            .flat_map(|s| s.attrs.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .sum()
    }

    /// The tree as indented text lines, one span per line — the
    /// `EXPLAIN ANALYZE` rendering.
    pub fn render_text(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(self.spans.len() + 1);
        lines.push(format!(
            "trace {} [{}] total {:.3} ms, {} spans",
            self.id,
            self.label,
            self.total_nanos() as f64 / 1e6,
            self.spans.len(),
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let mut line = String::new();
            for _ in 0..self.depth_of(i) {
                line.push_str("  ");
            }
            let _ = write!(line, "{} {:.3} ms", s.name, s.duration_nanos as f64 / 1e6);
            for (k, v) in &s.attrs {
                let _ = write!(line, " {k}={v}");
            }
            lines.push(line);
        }
        lines
    }

    /// The tree as one compact JSON object.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"id\":{},\"label\":{},\"total_nanos\":{},\"spans\":[",
            self.id,
            json_string(&self.label),
            self.total_nanos(),
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1i64, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":{},\"parent\":{parent},\"start_nanos\":{},\"duration_nanos\":{},\"attrs\":{{",
                json_string(s.name),
                s.start_nanos,
                s.duration_nanos,
            );
            for (j, (k, v)) in s.attrs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{v}", json_string(k));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

/// A span still being recorded on the owning thread.
struct PendingSpan {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    start_nanos: u64,
    duration_nanos: u64,
    attrs: Vec<(&'static str, u64)>,
    open: bool,
}

/// The thread-local state of one in-flight trace.
struct ActiveTrace {
    started: Instant,
    spans: Vec<PendingSpan>,
    /// Open span indices, innermost last.
    stack: Vec<usize>,
    /// Spans shed at the per-trace cap.
    dropped: u64,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// Whether a trace is being recorded on the current thread.
pub fn active() -> bool {
    ACTIVE.with(|cell| cell.try_borrow().map(|s| s.is_some()).unwrap_or(false))
}

/// Opens a child span of the innermost open span; `None` when no trace
/// is active (the common, near-free case) or the trace is at its span
/// cap. Close it by dropping the guard.
pub fn span(name: &'static str) -> Option<SpanGuard> {
    ACTIVE.with(|cell| {
        let mut slot = cell.try_borrow_mut().ok()?;
        let tr = slot.as_mut()?;
        if tr.spans.len() >= MAX_SPANS_PER_TRACE {
            tr.dropped += 1;
            return None;
        }
        let idx = tr.spans.len();
        tr.spans.push(PendingSpan {
            name,
            parent: tr.stack.last().copied(),
            start: Instant::now(),
            start_nanos: tr.started.elapsed().as_nanos() as u64,
            duration_nanos: 0,
            attrs: Vec::new(),
            open: true,
        });
        tr.stack.push(idx);
        Some(SpanGuard { idx })
    })
}

/// Adds `v` to attribute `key` of the innermost open span (the root if
/// the stack is somehow empty). No-op when no trace is active — safe to
/// sprinkle on hot paths.
pub fn add_attr(key: &'static str, v: u64) {
    ACTIVE.with(|cell| {
        let Ok(mut slot) = cell.try_borrow_mut() else {
            return;
        };
        let Some(tr) = slot.as_mut() else {
            return;
        };
        let idx = tr.stack.last().copied().unwrap_or(0);
        if let Some(s) = tr.spans.get_mut(idx) {
            bump_attr(&mut s.attrs, key, v);
        }
    });
}

fn bump_attr(attrs: &mut Vec<(&'static str, u64)>, key: &'static str, v: u64) {
    match attrs.iter_mut().find(|(k, _)| *k == key) {
        Some((_, cur)) => *cur = cur.saturating_add(v),
        None => attrs.push((key, v)),
    }
}

/// Closes its span on drop; records attributes while open.
pub struct SpanGuard {
    idx: usize,
}

impl SpanGuard {
    /// Adds `v` to attribute `key` of this span (repeated keys sum).
    pub fn attr(&self, key: &'static str, v: u64) {
        ACTIVE.with(|cell| {
            let Ok(mut slot) = cell.try_borrow_mut() else {
                return;
            };
            let Some(tr) = slot.as_mut() else {
                return;
            };
            if let Some(s) = tr.spans.get_mut(self.idx) {
                bump_attr(&mut s.attrs, key, v);
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        ACTIVE.with(|cell| {
            let Ok(mut slot) = cell.try_borrow_mut() else {
                return;
            };
            let Some(tr) = slot.as_mut() else {
                return;
            };
            if let Some(s) = tr.spans.get_mut(self.idx) {
                if s.open {
                    s.duration_nanos = s.start.elapsed().as_nanos() as u64;
                    s.open = false;
                }
            }
            if tr.stack.last() == Some(&self.idx) {
                tr.stack.pop();
            } else {
                tr.stack.retain(|&i| i != self.idx);
            }
        });
    }
}

/// An open trace. Finishing (explicitly via [`finish`](Self::finish) or
/// implicitly on drop) assembles the thread-local span buffer into a
/// [`Trace`], records per-stage latency histograms, and files the tree
/// into the recent ring and — past the threshold — the slow-query log.
pub struct TraceContext {
    store: Arc<TraceStore>,
    label: String,
    done: bool,
}

impl TraceContext {
    /// Finishes the trace and returns the assembled tree (`None` only
    /// if the thread-local state vanished, e.g. the context crossed
    /// threads).
    pub fn finish(mut self) -> Option<Trace> {
        self.done = true;
        let label = std::mem::take(&mut self.label);
        self.store.complete(label)
    }
}

impl Drop for TraceContext {
    fn drop(&mut self) {
        if !self.done {
            let label = std::mem::take(&mut self.label);
            let _ = self.store.complete(label);
        }
    }
}

/// The per-registry store of finished traces: recent ring, slow-query
/// log, and per-stage latency histograms.
///
/// Reached via [`Registry::traces`](crate::Registry::traces); the
/// counters and histograms it feeds are ordinary registry metrics
/// (`trace.started`, `trace.dropped_spans`, `trace.slow_queries`,
/// `trace.span_nanos{stage=…}`), so snapshots and exporters see trace
/// health without special cases.
#[derive(Debug)]
pub struct TraceStore {
    enabled: bool,
    next_id: AtomicU64,
    slow_threshold_nanos: AtomicU64,
    // Poisoning is recovered (`PoisonError::into_inner`) at every
    // acquisition, matching the registry's stance: telemetry must not
    // propagate a recorder's panic.
    recent: Mutex<VecDeque<Trace>>,
    slow: Mutex<Vec<Trace>>,
    started: Arc<Counter>,
    dropped: Arc<Counter>,
    slow_count: Arc<Counter>,
    span_base: Arc<Histogram>,
    stage_nanos: BTreeMap<&'static str, Arc<Histogram>>,
}

impl TraceStore {
    pub(crate) fn new(
        enabled: bool,
        started: Arc<Counter>,
        dropped: Arc<Counter>,
        slow_count: Arc<Counter>,
        span_base: Arc<Histogram>,
        stage_nanos: BTreeMap<&'static str, Arc<Histogram>>,
    ) -> Self {
        Self {
            enabled,
            next_id: AtomicU64::new(0),
            slow_threshold_nanos: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_NANOS),
            recent: Mutex::new(VecDeque::new()),
            slow: Mutex::new(Vec::new()),
            started,
            dropped,
            slow_count,
            span_base,
            stage_nanos,
        }
    }

    /// Whether traces record at all (mirrors the owning registry).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a trace rooted at span `root` on the current thread.
    /// Returns `None` when the store is disabled or a trace is already
    /// active on this thread (nested begins join the outer trace by
    /// simply opening spans instead).
    pub fn begin(self: &Arc<Self>, root: &'static str, label: String) -> Option<TraceContext> {
        if !self.enabled {
            return None;
        }
        let installed = ACTIVE.with(|cell| {
            let Ok(mut slot) = cell.try_borrow_mut() else {
                return false;
            };
            if slot.is_some() {
                return false;
            }
            let started = Instant::now();
            *slot = Some(ActiveTrace {
                started,
                spans: vec![PendingSpan {
                    name: root,
                    parent: None,
                    start: started,
                    start_nanos: 0,
                    duration_nanos: 0,
                    attrs: Vec::new(),
                    open: true,
                }],
                stack: vec![0],
                dropped: 0,
            });
            true
        });
        if !installed {
            return None;
        }
        self.started.inc();
        Some(TraceContext {
            store: Arc::clone(self),
            label,
            done: false,
        })
    }

    /// Takes the thread-local buffer, closes any still-open spans, and
    /// files the finished tree.
    fn complete(&self, label: String) -> Option<Trace> {
        let state = ACTIVE.with(|cell| cell.try_borrow_mut().ok().and_then(|mut s| s.take()))?;
        let mut spans = Vec::with_capacity(state.spans.len());
        for p in state.spans {
            let duration_nanos = if p.open {
                p.start.elapsed().as_nanos() as u64
            } else {
                p.duration_nanos
            };
            spans.push(SpanRecord {
                name: p.name,
                parent: p.parent,
                start_nanos: p.start_nanos,
                duration_nanos,
                attrs: p.attrs,
            });
        }
        if state.dropped > 0 {
            self.dropped.add(state.dropped);
        }
        let trace = Trace {
            id: self.next_id.fetch_add(1, Ordering::Relaxed) + 1,
            label,
            spans,
        };
        for s in &trace.spans {
            self.span_base.record(s.duration_nanos);
            if let Some(h) = self.stage_nanos.get(s.name) {
                h.record(s.duration_nanos);
            }
        }
        let total = trace.total_nanos();
        if total >= self.slow_threshold_nanos.load(Ordering::Relaxed) {
            self.slow_count.inc();
            let for_slow = trace.clone();
            let mut displaced = None;
            {
                let mut slow = self
                    .slow
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let pos = slow
                    .iter()
                    .position(|t| t.total_nanos() < total)
                    .unwrap_or(slow.len());
                slow.insert(pos, for_slow);
                if slow.len() > SLOW_LOG_CAPACITY {
                    displaced = slow.pop();
                }
            }
            drop(displaced);
        }
        let for_recent = trace.clone();
        let mut evicted = None;
        {
            let mut recent = self
                .recent
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if recent.len() >= RECENT_TRACES {
                evicted = recent.pop_front();
            }
            recent.push_back(for_recent);
        }
        if let Some(old) = evicted {
            self.dropped.add(old.spans.len() as u64);
        }
        Some(trace)
    }

    /// Sets the slow-query threshold (root wall time, nanoseconds).
    pub fn set_slow_threshold_nanos(&self, nanos: u64) {
        self.slow_threshold_nanos.store(nanos, Ordering::Relaxed);
    }

    /// The current slow-query threshold in nanoseconds.
    pub fn slow_threshold_nanos(&self) -> u64 {
        self.slow_threshold_nanos.load(Ordering::Relaxed)
    }

    /// The retained recent traces, oldest first (clones out under the
    /// ring lock; the ring is small and bounded).
    pub fn recent(&self) -> Vec<Trace> {
        self.recent
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// The slow-query log, worst first.
    pub fn slow(&self) -> Vec<Trace> {
        self.slow
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// The recent traces in Chrome `chrome://tracing` JSON (load at
    /// `chrome://tracing` or <https://ui.perfetto.dev>). One complete
    /// duration (`"ph":"X"`) event per span; each trace renders as its
    /// own `tid` row.
    pub fn render_chrome_json(&self) -> String {
        let traces = self.recent();
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for t in &traces {
            for s in &t.spans {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"name\":{},\"cat\":\"backsort\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{",
                    json_string(s.name),
                    s.start_nanos as f64 / 1e3,
                    s.duration_nanos as f64 / 1e3,
                    t.id,
                );
                let mut wrote = false;
                if s.parent.is_none() {
                    let _ = write!(out, "\"label\":{}", json_string(&t.label));
                    wrote = true;
                }
                for (k, v) in &s.attrs {
                    if wrote {
                        out.push(',');
                    }
                    let _ = write!(out, "{}:{v}", json_string(k));
                    wrote = true;
                }
                out.push_str("}}");
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// The slow-query log as a JSON array of span trees, worst first.
    pub fn render_slow_json(&self) -> String {
        let slow = self.slow();
        let mut out = String::from("[");
        for (i, t) in slow.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.render_json());
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{names, Registry};
    use std::sync::Arc;

    fn store(r: &Registry) -> Arc<TraceStore> {
        Arc::clone(r.traces())
    }

    #[test]
    fn disabled_store_hands_out_no_contexts() {
        let r = Registry::new_disabled();
        assert!(!r.traces().is_enabled());
        assert!(store(&r)
            .begin(names::SPAN_QUERY_ROOT, "q".into())
            .is_none());
        assert!(!active());
        assert!(span(names::SPAN_QUERY_READ).is_none());
        add_attr(names::ATTR_CACHE_HITS, 1); // no-op, must not panic
        assert_eq!(r.counter_value(names::TRACE_STARTED), 0);
    }

    #[test]
    fn span_tree_nests_and_carries_attrs() {
        let r = Registry::new();
        let ctx = store(&r)
            .begin(names::SPAN_QUERY_ROOT, "select".into())
            .expect("enabled store begins");
        assert!(active());
        {
            let read = span(names::SPAN_QUERY_READ).expect("active trace");
            read.attr(names::ATTR_FILES_CONSIDERED, 3);
            {
                let files = span(names::SPAN_QUERY_FILES).expect("nested span");
                files.attr(names::ATTR_CACHE_HITS, 2);
                files.attr(names::ATTR_CACHE_HITS, 1); // sums
                add_attr(names::ATTR_CACHE_MISSES, 4); // innermost = files
            }
            let merge = span(names::SPAN_QUERY_MERGE).expect("sibling span");
            merge.attr(names::ATTR_ROWS_MERGED, 10);
        }
        let trace = ctx.finish().expect("tree assembled");
        assert!(!active(), "finish clears the thread-local");
        let names_in_order: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names_in_order,
            vec!["query.root", "query.read", "query.files", "query.merge"]
        );
        assert_eq!(trace.spans[0].parent, None);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[2].parent, Some(1), "files nests under read");
        assert_eq!(trace.spans[3].parent, Some(1), "merge is files' sibling");
        assert_eq!(trace.depth_of(2), 2);
        assert_eq!(trace.attr_total(names::ATTR_CACHE_HITS), 3);
        assert_eq!(trace.attr_total(names::ATTR_CACHE_MISSES), 4);
        assert_eq!(trace.attr_total(names::ATTR_ROWS_MERGED), 10);
        assert_eq!(r.counter_value(names::TRACE_STARTED), 1);
        assert_eq!(r.counter_value(names::TRACE_DROPPED_SPANS), 0);
        // Per-stage histograms saw each span once.
        let snap = r.snapshot();
        for stage in ["query.root", "query.read", "query.files", "query.merge"] {
            let name = Registry::labeled(names::TRACE_SPAN_NANOS, "stage", stage);
            let h = snap.histogram(&name).expect("stage pre-registered");
            assert_eq!(h.count, 1, "{stage} recorded once");
        }
        assert_eq!(
            snap.histogram(names::TRACE_SPAN_NANOS).expect("base").count,
            4
        );
    }

    #[test]
    fn only_one_trace_per_thread_and_drop_finishes() {
        let r = Registry::new();
        let ctx = store(&r).begin(names::SPAN_QUERY_ROOT, "outer".into());
        assert!(ctx.is_some());
        assert!(
            store(&r)
                .begin(names::SPAN_QUERY_ROOT, "inner".into())
                .is_none(),
            "nested begin joins the outer trace instead"
        );
        drop(ctx); // implicit finish
        assert!(!active());
        assert_eq!(store(&r).recent().len(), 1);
        assert_eq!(store(&r).recent()[0].label, "outer");
    }

    #[test]
    fn span_cap_counts_dropped_spans() {
        let r = Registry::new();
        let ctx = store(&r)
            .begin(names::SPAN_QUERY_ROOT, "big".into())
            .expect("begins");
        let mut guards = Vec::new();
        for _ in 0..MAX_SPANS_PER_TRACE + 7 {
            guards.push(span(names::SPAN_QUERY_READ));
        }
        let over = guards.iter().filter(|g| g.is_none()).count();
        assert_eq!(over, 8, "root occupies one slot; overflow is shed");
        drop(guards);
        drop(ctx);
        assert_eq!(r.counter_value(names::TRACE_DROPPED_SPANS), 8);
    }

    #[test]
    fn recent_ring_is_bounded_and_eviction_counts_dropped() {
        let r = Registry::new();
        for i in 0..RECENT_TRACES + 3 {
            let ctx = store(&r)
                .begin(names::SPAN_QUERY_ROOT, format!("q{i}"))
                .expect("begins");
            drop(ctx);
        }
        let recent = store(&r).recent();
        assert_eq!(recent.len(), RECENT_TRACES);
        assert_eq!(recent[0].label, "q3", "oldest evicted first");
        // Each evicted trace had exactly its root span.
        assert_eq!(r.counter_value(names::TRACE_DROPPED_SPANS), 3);
        assert_eq!(
            r.counter_value(names::TRACE_STARTED),
            (RECENT_TRACES + 3) as u64
        );
    }

    #[test]
    fn slow_log_keeps_the_worst_and_counts_crossings() {
        let r = Registry::new();
        let st = store(&r);
        st.set_slow_threshold_nanos(0); // everything is "slow"
        for i in 0..SLOW_LOG_CAPACITY + 5 {
            let ctx = st
                .begin(names::SPAN_QUERY_ROOT, format!("q{i}"))
                .expect("begins");
            // Vary the root duration a little so ordering is exercised.
            if i % 3 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            drop(ctx);
        }
        let slow = st.slow();
        assert_eq!(slow.len(), SLOW_LOG_CAPACITY, "bounded at capacity");
        for w in slow.windows(2) {
            assert!(
                w[0].total_nanos() >= w[1].total_nanos(),
                "worst first, sorted"
            );
        }
        assert_eq!(
            r.counter_value(names::TRACE_SLOW_QUERIES),
            (SLOW_LOG_CAPACITY + 5) as u64,
            "every crossing counts, displaced or not"
        );
        // Raising the threshold back up stops admissions.
        st.set_slow_threshold_nanos(u64::MAX);
        drop(st.begin(names::SPAN_QUERY_ROOT, "fast".into()));
        assert_eq!(
            r.counter_value(names::TRACE_SLOW_QUERIES),
            (SLOW_LOG_CAPACITY + 5) as u64
        );
    }

    #[test]
    fn renders_are_wellformed() {
        let r = Registry::new();
        let st = store(&r);
        st.set_slow_threshold_nanos(0);
        let ctx = st
            .begin(names::SPAN_QUERY_ROOT, "select \"s1\"".into())
            .expect("begins");
        {
            let m = span(names::SPAN_QUERY_MERGE).expect("active");
            m.attr(names::ATTR_ROWS_MERGED, 42);
        }
        let trace = ctx.finish().expect("tree");
        let text = trace.render_text();
        assert_eq!(text.len(), 3, "header + two spans");
        assert!(text[0].contains("select"));
        assert!(text[2].contains("rows_merged=42"));
        assert!(text[2].starts_with("  "), "child indented");
        let json = trace.render_json();
        assert!(json.contains("\"label\":\"select \\\"s1\\\"\""));
        assert!(json.contains("\"parent\":-1"));
        assert!(json.contains("\"rows_merged\":42"));
        let chrome = st.render_chrome_json();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"name\":\"query.merge\""));
        assert!(chrome.ends_with("\"displayTimeUnit\":\"ms\"}"));
        let slow = st.render_slow_json();
        assert!(slow.starts_with('['));
        assert!(slow.contains("\"total_nanos\""));
    }

    #[test]
    fn traces_on_different_threads_are_independent() {
        let r = Arc::new(Registry::new());
        let st = store(&r);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let st = Arc::clone(&st);
                scope.spawn(move || {
                    for i in 0..8 {
                        let ctx = st
                            .begin(names::SPAN_QUERY_ROOT, format!("t{t}q{i}"))
                            .expect("each thread gets its own trace");
                        {
                            let s = span(names::SPAN_QUERY_READ).expect("active");
                            s.attr(names::ATTR_FILES_CONSIDERED, 1);
                        }
                        let trace = ctx.finish().expect("tree");
                        assert_eq!(trace.spans.len(), 2);
                        assert_eq!(trace.label, format!("t{t}q{i}"));
                    }
                });
            }
        });
        assert_eq!(r.counter_value(names::TRACE_STARTED), 32);
        assert_eq!(store(&r).recent().len(), 32);
    }
}
