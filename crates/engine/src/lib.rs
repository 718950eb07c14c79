//! A miniature IoTDB-style storage engine (paper §V).
//!
//! Reproduces the system context Backward-Sort ships in:
//!
//! * **MemTables** ([`memtable`]) — a *working* memtable accepts writes;
//!   when full it becomes the *flushing* memtable and is drained to disk.
//!   Each sensor buffers into its own [`SeriesBuffer`]: the paper's
//!   per-sensor TVList (Fig. 7), kept as one flat vector of pairs.
//! * **Separation policy** ([`engine`]) — a point timestamped below the
//!   sensor's flush watermark is routed to the *unsequence* memtable
//!   instead of the working one, which is what keeps in-memory disorder
//!   "not-too-distant" (paper §II).
//! * **Flush pipeline** ([`flush`]) — sort (the component under test) →
//!   deduplicate → encode (TS_2DIFF timestamps, Gorilla floats;
//!   [`encoding`]) → write a TsFile-like chunked layout ([`tsfile`]),
//!   off the write path on a [`FlushPool`] ([`flusher`]).
//! * **Queries** ([`engine`], [`read`]) — time-range queries serve from
//!   a shard *read* lock when every relevant buffer is already sorted
//!   (concurrent readers overlap), upgrading to the write lock only to
//!   sort an unsorted buffer on demand (§VI-D1's lock contention, now
//!   confined to the sort). Every read — rows, latest value, aggregates,
//!   group-by-time — is one typed scan over time-sorted runs (flushed
//!   chunks, memtable buffer slices): runs that overlap no other stream
//!   to a sink as column slices, and only runs whose time envelopes
//!   intersect are merged last-write-wins.
//!
//! The sort algorithm is pluggable per engine instance
//! ([`EngineConfig::sorter`]), which is how the system experiments compare
//! contenders.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod batch;
pub mod cache;
pub mod compaction;
pub mod crashtest;
pub mod delete;
pub mod encoding;
pub mod engine;
pub mod filter;
pub mod flush;
pub mod flusher;
pub mod memtable;
pub mod read;
pub mod stats;
pub mod store;
pub mod tsfile;
pub mod types;

pub use aggregate::{AggValue, Aggregation};
pub use batch::{ColumnSlice, PointBatch, ValueColumn, WriteError};
pub use cache::BlockCache;
pub use compaction::CompactionReport;
pub use delete::Tombstone;
pub use engine::{
    CompactionConfig, EngineConfig, FlushJob, LevelPlan, QueryPlan, QueryResult, StorageEngine,
};
pub use filter::KeyFilter;
pub use flush::{flush_memtable, FlushMetrics};
pub use flusher::FlushPool;
pub use memtable::{MemTable, SeriesBuffer};
pub use read::{FileHandle, IntervalSet};
pub use stats::ExactSum;
pub use store::DurableEngine;
pub use types::{DataType, SeriesKey, TsValue};
