//! Out-of-order time-series workload generation and disorder analytics.
//!
//! The paper's arrival model (§II-A): points are *generated* at unit
//! intervals (`t_i = i`), each suffers an i.i.d. delay `τ_i ~ D`, and the
//! stream *arrives* ordered by `t_i + τ_i`. The stored series is the
//! generation timestamps in arrival order — delay-only out-of-order data
//! by construction.
//!
//! This crate provides:
//!
//! * [`delay`] — the delay distributions `D` used in the evaluation
//!   (AbsNormal, LogNormal, Exponential, …);
//! * [`stream`] — arrival-order synthesis and value-signal generation;
//! * [`metrics`] — disorder measures: inversions, interval inversion
//!   ratio (exact and down-sampled), runs, empirical Δτ statistics;
//! * [`datasets`] — the four evaluation datasets: synthetic
//!   AbsNormal/LogNormal plus IIR-calibrated stand-ins for CitiBike and
//!   Samsung (see DESIGN.md §5 for the substitution argument);
//! * [`analysis`] — closed-form results from §IV (Δτ PDF for exponential
//!   delays, expected IIR, expected overlap `Q`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod datasets;
pub mod delay;
pub mod metrics;
pub mod stream;
pub mod trace;

pub use datasets::{Dataset, DatasetKind};
pub use delay::DelayModel;
pub use stream::{generate_pairs, SignalKind, StreamSpec};
pub use trace::{read_csv, write_csv, TraceError};
