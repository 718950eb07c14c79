//! A miniature IoTDB-style storage engine (paper §V): the system context
//! Backward-Sort ships in. One module per decision, and [`StorageEngine`]'s
//! methods live in the module whose decision they make:
//!
//! * [`engine`] — the config, which shard a device hashes to, construction and counts.
//! * `write` — the one write: a batch logged if opened, routed by the separation policy (§II), rotated.
//! * [`flush`] — a rotated memtable sorted, deduplicated, encoded (§V-C) and installed.
//! * [`flusher`] — the pool that installs flushes off the write path (§VI-D2).
//! * [`delete`] — which points a range delete erases, and which files its tombstone masks.
//! * `query` — a series read, sorting a dirty buffer on demand (§VI-D1), and `EXPLAIN`.
//! * [`read`] — which files and chunks a read touches, and how their time-sorted runs merge.
//! * [`aggregate`] — the folds over a read, and which pages they answer from their headers.
//! * [`compaction`] — which files merge, and when.
//! * [`store`] — what is durable: the WAL, the persisted images, the manifest, and recovery.
//! * [`memtable`] — how a series is buffered: the paper's TVList (Fig. 7) as one flat vector.
//! * [`batch`] — the one columnar form of a write.
//! * [`tsfile`] — the file layout: chunks, pages with statistics, a chunk index.
//! * [`encoding`] — the column encodings (TS_2DIFF timestamps, Gorilla floats).
//! * [`filter`] — whether a file may hold a key.
//! * [`cache`] — which decoded pages stay in memory.
//! * [`stats`] — how values are summed and compared, on every path.
//! * [`types`] — series keys and dynamic values.
//!
//! The sort algorithm is pluggable per engine instance
//! ([`EngineConfig::sorter`]), which is how the system experiments compare
//! contenders.

#![cfg_attr(not(test), forbid(unsafe_code))]
// The unit tests' one unsafe item is the counting allocator in
// `store::tests`, which bounds what a decoder may ask for.
#![cfg_attr(test, deny(unsafe_code))]
#![warn(missing_docs)]

pub mod aggregate;
pub mod batch;
pub mod cache;
pub mod compaction;
pub mod delete;
pub mod encoding;
pub mod engine;
pub mod filter;
pub mod flush;
pub mod flusher;
pub mod memtable;
mod query;
pub mod read;
pub mod stats;
pub mod store;
pub mod tsfile;
pub mod types;
mod write;

pub use aggregate::{AggValue, Aggregation};
pub use batch::{ColumnSlice, PointBatch, ValueColumn, WriteError};
pub use cache::BlockCache;
pub use compaction::{CompactionConfig, CompactionReport};
pub use delete::Tombstone;
pub use engine::{EngineConfig, StorageEngine};
pub use filter::KeyFilter;
pub use flush::{flush_memtable, FlushJob, FlushMetrics};
pub use flusher::FlushPool;
pub use memtable::{MemTable, SeriesBuffer};
pub use query::{LevelPlan, QueryPlan, QueryResult};
pub use read::{FileHandle, IntervalSet};
pub use stats::ExactSum;
pub use store::DurableEngine;
pub use types::{DataType, SeriesKey, TsValue};
