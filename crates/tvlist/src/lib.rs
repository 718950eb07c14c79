//! IoTDB-style in-memory time-value storage and the sort interface.
//!
//! Apache IoTDB buffers each sensor's stream in a *TVList*: a deque-like
//! `List<Array>` of fixed-size chunks holding `(timestamp, value)` pairs in
//! arrival order (paper §V-B). Sorting — by Backward-Sort or any baseline —
//! is written against a narrow *sort interface* abstracted from the TVList
//! facilities (paper §V-C, Fig. 7), so the same algorithm code runs on a
//! chunked [`TVList`] or on a plain vector via [`SliceSeries`].
//!
//! This crate provides:
//!
//! * [`SeriesAccess`] — the sort interface (`len` / `time` / `get` / `set` /
//!   `swap`);
//! * [`TVList`] — the chunked storage, generic over primitive [`Value`]
//!   types, with IoTDB's default chunk size of 32;
//! * [`TextTVList`] — the string-valued variant (values live in an arena,
//!   the list stores arena indices, exactly like IoTDB's `BinaryTVList`
//!   sorts value indices rather than payloads);
//! * [`Instrumented`] — a wrapper that counts element reads, writes and
//!   swaps so experiments can report move counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod instrument;
mod text;
mod tvlist;
mod value;

pub use access::{SeriesAccess, SliceSeries};
pub use instrument::{AccessStats, Instrumented};
pub use text::TextTVList;
pub use tvlist::{TVList, DEFAULT_ARRAY_SIZE};
pub use value::Value;

/// A `TVList` of IoTDB `INT32` values.
pub type IntTVList = TVList<i32>;
/// A `TVList` of IoTDB `DOUBLE` values.
pub type DoubleTVList = TVList<f64>;

/// Returns `true` if the series' timestamps are non-decreasing.
pub fn is_time_sorted<S: SeriesAccess + ?Sized>(s: &S) -> bool {
    (1..s.len()).all(|i| s.time(i - 1) <= s.time(i))
}
