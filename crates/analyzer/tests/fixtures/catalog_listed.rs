//! Metric catalog fixture in the registering layout: every name sits in
//! the kind list the registry pre-registers from.

/// Referenced by the engine fixture.
pub const ENGINE_WRITES: &str = "engine.writes";
/// Listed for registration, but no site records or reads it — still
/// drift: a mention in the catalog's own lists is not a use.
pub const ENGINE_LISTED_ONLY: &str = "engine.listed_only"; //~ catalog-sync

/// Every counter in the catalog.
pub const COUNTERS: &[&str] = &[ENGINE_WRITES, ENGINE_LISTED_ONLY];
