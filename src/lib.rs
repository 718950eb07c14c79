//! # backward-sort-repro
//!
//! A from-scratch Rust reproduction of *Backward-Sort for Time Series in
//! Apache IoTDB* (ICDE 2023): the Backward-Sort algorithm, every baseline
//! it is evaluated against, the IoTDB-style TVList/memtable substrate it
//! ships in, a storage engine and SQL server to run it in, and the
//! downstream LSTM forecasting experiment. The paper's figures are
//! regenerated by the `backsort-experiments` crate's binaries.
//!
//! This umbrella crate re-exports the workspace members under friendly
//! names; see each module for its own documentation:
//!
//! * [`tvlist`] — chunked time-value storage and the sort interface;
//! * [`sorts`] — the baseline algorithms (Quicksort, Timsort, Patience,
//!   CKSort, YSort, Smoothsort, insertion);
//! * [`core`] — Backward-Sort itself;
//! * [`workload`] — delay models, stream synthesis, disorder metrics,
//!   datasets;
//! * [`engine`] — the mini-IoTDB storage engine;
//! * [`sql`] — the IoTDB-style SQL surface over it;
//! * [`server`] — the SQL-over-TCP server plus the metrics HTTP exporter;
//! * [`obs`] — the metrics/tracing registry every layer records into;
//! * [`forecast`] — the LSTM for the downstream experiment.
//!
//! ## Quickstart
//!
//! ```
//! use backward_sort_repro::core::BackwardSort;
//! use backward_sort_repro::sorts::SeriesSorter;
//! use backward_sort_repro::tvlist::{IntTVList, SeriesAccess};
//!
//! // Out-of-order arrivals: delayed points move *backward* when sorting.
//! let mut list = IntTVList::new();
//! for (t, v) in [(1, 10), (3, 30), (4, 40), (2, 20), (5, 50)] {
//!     list.push(t, v);
//! }
//! assert!(!list.is_sorted());
//!
//! BackwardSort::default().sort_series(&mut list);
//! assert!((1..list.len()).all(|i| list.time(i - 1) <= list.time(i)));
//! ```

#![forbid(unsafe_code)]

pub use backsort_core as core;
pub use backsort_engine as engine;
pub use backsort_forecast as forecast;
pub use backsort_obs as obs;
pub use backsort_server as server;
pub use backsort_sorts as sorts;
pub use backsort_sql as sql;
pub use backsort_tvlist as tvlist;
pub use backsort_workload as workload;
