//! The metric name catalog — the single source of truth for every metric
//! the engine stack records.
//!
//! Instrumentation sites reference these constants instead of string
//! literals, so a renamed metric is a compile error everywhere at once,
//! and the catalog check ([`COUNTERS`], [`GAUGES`], [`HISTOGRAMS`]) can
//! assert that an exported snapshot still carries every declared
//! metric — silent instrumentation rot (a refactor dropping a `record`
//! call) fails the build instead of producing a dashboard full of zeros.
//! A name stays in the catalog only while something reads it: the
//! benchmark, or a test that checks some other behaviour through it.
//!
//! Naming convention: `<subsystem>.<measure>`, dot-separated, with an
//! optional `{label=value}` suffix for per-stage variants (see
//! [`Registry::labeled`](crate::Registry::labeled)).

/// Points accepted by the write paths (counter).
pub const ENGINE_WRITE_POINTS: &str = "engine.write_points";
/// Memtable rotations currently awaiting an asynchronous flush (gauge,
/// incremented when a memtable rotates into its shard's flushing slot,
/// decremented when its file is installed).
pub const ENGINE_FLUSH_QUEUE_DEPTH: &str = "engine.flush_queue_depth";

/// Queries served entirely under a shard *read* lock (counter).
pub const QUERY_READ_PATH: &str = "query.read_path";
/// Queries that upgraded to the write lock to sort a dirty buffer
/// (counter).
pub const QUERY_SORTED_ON_READ: &str = "query.sorted_on_read";
/// Flushed files examined by queries that reached disk (counter).
pub const QUERY_FILES_CONSIDERED: &str = "query.files_considered";
/// Of those, files skipped by the per-key time-range prune (counter).
pub const QUERY_FILES_PRUNED: &str = "query.files_pruned";
/// Files skipped by the per-file key existence filter *before* any
/// chunk-index walk (counter). Disjoint from
/// [`QUERY_FILES_PRUNED`]: a filter-pruned file never reaches the
/// envelope check.
pub const QUERY_FILES_PRUNED_BY_FILTER: &str = "query.files_pruned_by_filter";

/// Out-of-order arrivals: points written behind their buffer's maximum
/// timestamp (counter).
pub const MEMTABLE_OOO_POINTS: &str = "memtable.ooo_points";
/// Out-of-order distance `Δτ` — how far behind the buffer maximum a late
/// point landed (histogram; the paper's delay-only disorder measure).
pub const MEMTABLE_DELTA_TAU: &str = "memtable.delta_tau";
/// Points a flush or sort-on-read actually had to sort in a buffer it
/// found unsorted: the tail behind the buffer's time-ordered run, not
/// the buffer (histogram — buffer dirtiness).
pub const MEMTABLE_DIRTY_BUFFER_POINTS: &str = "memtable.dirty_buffer_points";
/// Time spent bulk-appending a batch's column run into a series buffer,
/// nanoseconds per run (histogram).
pub const MEMTABLE_BATCH_APPEND_NANOS: &str = "memtable.batch_append_nanos";
/// Writes rejected because the value type did not match the series
/// buffer's established type (counter). A nonzero value means a client
/// sent a mistyped INSERT; the engine drops the write instead of
/// aborting.
pub const MEMTABLE_TYPE_MISMATCH_REJECTS: &str = "memtable.type_mismatch_rejects";

/// Memtable flushes completed (counter).
pub const FLUSH_COUNT: &str = "flush.count";
/// Cumulative flush gather + sort time, nanoseconds (counter): copying
/// each series out of its chunked list into contiguous pairs — for an
/// asynchronous flush under the shard's read lock, the wait for it
/// included — and sorting them.
pub const FLUSH_SORT_NANOS: &str = "flush.sort_nanos";
/// Cumulative flush dedup+encode time, nanoseconds (counter).
pub const FLUSH_ENCODE_NANOS: &str = "flush.encode_nanos";
/// Cumulative flush image-assembly time, nanoseconds (counter).
pub const FLUSH_WRITE_NANOS: &str = "flush.write_nanos";
/// Points flushed to files, after dedup (counter).
pub const FLUSH_POINTS: &str = "flush.points";
/// Bytes of file images produced by flushes (counter).
pub const FLUSH_BYTES: &str = "flush.bytes";

/// Bytes appended to the write-ahead log (counter).
pub const WAL_BYTES: &str = "wal.bytes";
/// Trailing bytes discarded by WAL replay at the first torn or corrupt
/// record (counter). Nonzero after a recovery means the log really was
/// damaged — visible corruption instead of silent tolerance.
pub const WAL_REPLAY_DISCARDED_BYTES: &str = "wal.replay_discarded_bytes";
/// Best-effort removals of stale on-disk files (retired WAL segments,
/// dead tsfile generations, torn images) that failed (counter). Never a
/// durability problem — the file is no longer live and the next open
/// retries — but a nonzero value means disk is leaking, so the failure
/// is counted instead of silently discarded.
pub const STORE_REMOVE_FAILURES: &str = "store.remove_failures";

/// Decoded pages served from the block cache (counter).
pub const CACHE_HITS: &str = "cache.hits";
/// Block-cache lookups that had to decode from the image (counter).
pub const CACHE_MISSES: &str = "cache.misses";
/// Decoded pages evicted to hold the byte budget (counter).
pub const CACHE_EVICTIONS: &str = "cache.evictions";

/// Block size `L` chosen by Backward-Sort's phase 1 (histogram).
pub const SORT_BLOCK_SIZE: &str = "sort.block_size";
/// Backward-merge overlap `Q`: suffix elements interleaved per merge
/// step, *including* zero-overlap merges (histogram). The live exhibit
/// of the paper's Theorem bound `E[Q] ≤ E[Δτ | Δτ ≥ 0]`.
pub const MERGE_OVERLAP_Q: &str = "merge.overlap_q";

/// TsFile footer parses by this engine (counter — installs parse once;
/// queries must never move it).
pub const FILE_PARSE: &str = "file.parse";

/// Client connections currently open on the SQL wire path (gauge).
pub const SERVER_CONNECTIONS: &str = "server.connections";
/// Request frames decoded off client connections (counter; SQL and
/// binary batch-INSERT frames both count).
pub const SERVER_FRAMES: &str = "server.frames";
/// Points received through binary batch-INSERT frames (counter;
/// disjoint from SQL-INSERT points, which the engine counts at write).
pub const SERVER_BATCH_POINTS: &str = "server.batch_points";
/// Requests shed with a typed BUSY response — ingest whose wait for a
/// flush reached its bound, which only a dead or wedged flusher makes it
/// do (counter). Every one is also a wait in
/// [`SERVER_FLUSH_WAIT_NANOS`].
pub const SERVER_REJECTED_BUSY: &str = "server.rejected_busy";
/// Frames rejected as malformed — oversized declared length, unknown
/// kind, or an undecodable batch payload (counter). The offending
/// connection may be closed; the server keeps serving the rest.
pub const SERVER_REJECTED_MALFORMED: &str = "server.rejected_malformed";
/// Time an ingest request spent waiting, on its connection's thread,
/// for the flush that frees its shard's flushing slot — the shard's
/// working memtable was at its limit and could not rotate — nanoseconds
/// (histogram). Its count is the number of stalled writes: zero on a
/// server whose flushers keep up. A wait that reaches its bound is
/// answered BUSY and counted in [`SERVER_REJECTED_BUSY`] as well.
pub const SERVER_FLUSH_WAIT_NANOS: &str = "server.flush_wait_nanos";
/// Request wall time on its connection's thread, from the decoded
/// frame to the end of its execution, nanoseconds (histogram). Stops
/// before the response is encoded and written: those are the
/// `wire.encode` and `wire.write` spans of a sampled trace.
pub const SERVER_REQUEST_NANOS: &str = "server.request_nanos";

/// Points reads decoded and scanned into their results (counter; the
/// registry twin of the per-span `rows_merged` attribute). A page
/// answered from its header adds nothing here.
pub const QUERY_ROWS_MERGED: &str = "query.rows_merged";
/// Pages reads decoded from file bytes — both columns, or the
/// timestamps alone for a fold that reads no values (counter). A page
/// served from the block cache is a `cache.hits`, not one of these.
pub const QUERY_PAGES_DECODED: &str = "query.pages_decoded";
/// Pages a count/time fold took from the `count`/`min_time`/`max_time`
/// of their headers without decoding them (counter).
pub const QUERY_PAGES_FROM_HEADER: &str = "query.pages_from_header";

/// Sampled traces started (counter).
pub const TRACE_STARTED: &str = "trace.started";
/// Spans lost to per-trace buffer caps or recent-ring eviction
/// (counter). Nonzero means the trace store is shedding detail.
pub const TRACE_DROPPED_SPANS: &str = "trace.dropped_spans";
/// Span wall time, nanoseconds (histogram; also per stage via the
/// `{stage=<span name>}` label for every entry of [`SPAN_STAGES`]).
pub const TRACE_SPAN_NANOS: &str = "trace.span_nanos";

/// Hierarchical span: one traced statement or sampled engine query —
/// the root every other span hangs off.
pub const SPAN_QUERY_ROOT: &str = "query.root";
/// Hierarchical span: one engine series read inside a traced query.
pub const SPAN_QUERY_READ: &str = "query.read";
/// Hierarchical span: one engine latest-value lookup inside a trace.
pub const SPAN_QUERY_LATEST: &str = "query.latest";
/// Hierarchical span: the disk side of one series read — file
/// filter/envelope pruning, run assembly, and (in the `query.merge` span
/// nested under it) the page work of the scan. Carries the
/// `files_considered` / pruning attributes and the page accounting:
/// `pages_decoded` and `pages_from_header` here, `cache_hits` /
/// `cache_misses` on the nested scan.
pub const SPAN_QUERY_FILES: &str = "query.files";
/// Hierarchical span: the run scan — disjoint runs streamed, runs whose
/// envelopes intersect merged last-write-wins. Carries `rows_merged`
/// and the block-cache lookups.
pub const SPAN_QUERY_MERGE: &str = "query.merge";
/// Hierarchical span: the write-lock upgrade that sorts dirty buffers
/// before a read. Carries `tail_points` (points sorted), `prefix_points`
/// (the ordered run they were merged into, untouched but for the
/// overlap) and `overlap` (points the merge moved), summed over the
/// key's buffers — why this read's sort was cheap or dear.
pub const SPAN_QUERY_SORT_ON_READ: &str = "query.sort_on_read";
/// Hierarchical span: one memtable flush, submit → install (`shard`, `unseq`).
pub const SPAN_FLUSH_ROOT: &str = "flush.root";
/// Hierarchical span: the sort → dedup → encode → write body of a
/// flush.
pub const SPAN_FLUSH_ENCODE: &str = "flush.encode";
/// Hierarchical span: one compaction pass across all shards.
pub const SPAN_COMPACTION_ROOT: &str = "compaction.root";
/// Hierarchical span: compaction work within a single shard.
pub const SPAN_COMPACTION_SHARD: &str = "compaction.shard";
/// Hierarchical span: one framed request in a server worker, from the
/// decoded frame to the reply written — the root of server-sampled
/// traces; the five spans below and the engine's nest under it.
pub const SPAN_SERVER_REQUEST: &str = "server.request";
/// Hierarchical span: an ingest request waiting for the flush that frees
/// its shard's flushing slot (see [`SERVER_FLUSH_WAIT_NANOS`]) — why a
/// traced write was slow. Carries `shard`.
pub const SPAN_SERVER_FLUSH_WAIT: &str = "server.flush_wait";
/// Hierarchical span: parsing one SQL statement off a request frame.
/// Carries `bytes`, the statement's length.
pub const SPAN_SQL_PARSE: &str = "sql.parse";
/// Hierarchical span: assembling a raw `SELECT`'s per-sensor reads into
/// timestamp-aligned rows. Carries `rows`.
pub const SPAN_SQL_ROWS: &str = "sql.rows";
/// Hierarchical span: encoding one response frame. Carries `bytes`, the
/// frame's length with its header.
pub const SPAN_WIRE_ENCODE: &str = "wire.encode";
/// Hierarchical span: the ordered send of one response — the wait for
/// the connection's write lock and the socket write. Carries `bytes`.
pub const SPAN_WIRE_WRITE: &str = "wire.write";

/// The hierarchical span-name catalog. Every `trace::span` call site
/// uses one of these names; [`Registry`](crate::Registry) construction
/// pre-registers a `trace.span_nanos{stage=<name>}` histogram per entry
/// so per-stage latency attribution is shape-complete from birth.
pub const SPAN_STAGES: &[&str] = &[
    SPAN_QUERY_ROOT,
    SPAN_QUERY_READ,
    SPAN_QUERY_LATEST,
    SPAN_QUERY_FILES,
    SPAN_QUERY_MERGE,
    SPAN_QUERY_SORT_ON_READ,
    SPAN_FLUSH_ROOT,
    SPAN_FLUSH_ENCODE,
    SPAN_COMPACTION_ROOT,
    SPAN_COMPACTION_SHARD,
    SPAN_SERVER_REQUEST,
    SPAN_SERVER_FLUSH_WAIT,
    SPAN_SQL_PARSE,
    SPAN_SQL_ROWS,
    SPAN_WIRE_ENCODE,
    SPAN_WIRE_WRITE,
];

/// Span attribute: flushed files examined by this read.
pub const ATTR_FILES_CONSIDERED: &str = "files_considered";
/// Span attribute: files skipped by the per-key envelope prune.
pub const ATTR_FILES_PRUNED: &str = "files_pruned";
/// Span attribute: files skipped by the key existence filter.
pub const ATTR_FILES_PRUNED_BY_FILTER: &str = "files_pruned_by_filter";
/// Span attribute: block-cache hits during chunk decoding.
pub const ATTR_CACHE_HITS: &str = "cache_hits";
/// Span attribute: block-cache misses during chunk decoding.
pub const ATTR_CACHE_MISSES: &str = "cache_misses";
/// Span attribute: points the scan decoded and handed to its sink.
pub const ATTR_ROWS_MERGED: &str = "rows_merged";
/// Span attribute: pages decoded from file bytes by this read.
pub const ATTR_PAGES_DECODED: &str = "pages_decoded";
/// Span attribute: pages answered from their header statistics.
pub const ATTR_PAGES_FROM_HEADER: &str = "pages_from_header";
/// Span attribute: rows a stage produced.
pub const ATTR_ROWS: &str = "rows";
/// Span attribute: bytes a stage consumed or produced.
pub const ATTR_BYTES: &str = "bytes";
/// Span attribute: points processed by a flush or compaction stage.
pub const ATTR_POINTS: &str = "points";
/// Span attribute: shard index a stage ran against.
pub const ATTR_SHARD: &str = "shard";
/// Span attribute on `flush.root`: 1 for an unsequence memtable, 0 for a working one.
pub const ATTR_UNSEQ: &str = "unseq";
/// Span attribute: points behind a buffer's ordered run that a
/// sort-on-read sorted.
pub const ATTR_TAIL_POINTS: &str = "tail_points";
/// Span attribute: points of the ordered run a sort-on-read found and
/// left in place.
pub const ATTR_PREFIX_POINTS: &str = "prefix_points";
/// Span attribute: points of the ordered run and of the sorted tail that
/// interleaved, i.e. that the closing merge of a sort-on-read moved.
pub const ATTR_OVERLAP: &str = "overlap";

/// Every counter in the catalog. [`Registry`](crate::Registry)
/// construction pre-registers this list, [`GAUGES`] and [`HISTOGRAMS`],
/// so every registry carries the whole catalog from birth, at zero, and
/// an exported snapshot can tell "metric removed" from "metric not yet
/// hit".
pub const COUNTERS: &[&str] = &[
    ENGINE_WRITE_POINTS,
    QUERY_READ_PATH,
    QUERY_SORTED_ON_READ,
    QUERY_FILES_CONSIDERED,
    QUERY_FILES_PRUNED,
    QUERY_FILES_PRUNED_BY_FILTER,
    QUERY_ROWS_MERGED,
    QUERY_PAGES_DECODED,
    QUERY_PAGES_FROM_HEADER,
    MEMTABLE_OOO_POINTS,
    MEMTABLE_TYPE_MISMATCH_REJECTS,
    FLUSH_COUNT,
    FLUSH_SORT_NANOS,
    FLUSH_ENCODE_NANOS,
    FLUSH_WRITE_NANOS,
    FLUSH_POINTS,
    FLUSH_BYTES,
    WAL_BYTES,
    WAL_REPLAY_DISCARDED_BYTES,
    STORE_REMOVE_FAILURES,
    CACHE_HITS,
    CACHE_MISSES,
    CACHE_EVICTIONS,
    FILE_PARSE,
    TRACE_STARTED,
    TRACE_DROPPED_SPANS,
    SERVER_FRAMES,
    SERVER_BATCH_POINTS,
    SERVER_REJECTED_BUSY,
    SERVER_REJECTED_MALFORMED,
];

/// Every gauge in the catalog (see [`COUNTERS`]).
pub const GAUGES: &[&str] = &[ENGINE_FLUSH_QUEUE_DEPTH, SERVER_CONNECTIONS];

/// Every histogram in the catalog (see [`COUNTERS`]). Beside these, a
/// registry holds one `trace.span_nanos{stage=<name>}` histogram per
/// entry of [`SPAN_STAGES`].
pub const HISTOGRAMS: &[&str] = &[
    MEMTABLE_DELTA_TAU,
    MEMTABLE_DIRTY_BUFFER_POINTS,
    MEMTABLE_BATCH_APPEND_NANOS,
    SORT_BLOCK_SIZE,
    MERGE_OVERLAP_Q,
    TRACE_SPAN_NANOS,
    SERVER_FLUSH_WAIT_NANOS,
    SERVER_REQUEST_NANOS,
];
