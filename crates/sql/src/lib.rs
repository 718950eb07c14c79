//! A focused IoTDB-style SQL layer over the mini storage engine.
//!
//! The paper's system experiments speak SQL — "the query statement is
//! formatted as `SELECT * FROM data WHERE time > current - window`"
//! (§VI-D) — so this crate provides the same surface for the subset the
//! evaluation exercises:
//!
//! ```sql
//! SELECT s1, s2 FROM root.sg.d1 WHERE time >= 10 AND time <= 20
//! SELECT * FROM root.sg.d1 WHERE time > 1000 - 200
//! SELECT count(s1), avg(s1) FROM root.sg.d1 WHERE time <= 500
//! SELECT avg(s1) FROM root.sg.d1 GROUP BY (0, 1000, 100)
//! INSERT INTO root.sg.d1(timestamp, s1, s2) VALUES (42, 3.5, 'label')
//! DELETE FROM root.sg.d1.s1 WHERE time >= 10 AND time <= 99
//! EXPLAIN SELECT * FROM root.sg.d1 WHERE time >= 10
//! EXPLAIN ANALYZE SELECT * FROM root.sg.d1 WHERE time >= 10
//! SHOW SLOW QUERIES
//! ```
//!
//! Three stages, all hand-rolled: [`lexer`] → [`parser`] (recursive
//! descent into a [`Statement`]) → [`exec`] against a
//! [`StorageEngine`](backsort_engine::StorageEngine). A raw `SELECT`'s
//! rows stay columns ([`rowset`]) until a caller asks for rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod lexer;
pub mod parser;
pub mod rowset;

pub use exec::{
    compile_insert, execute, execute_outcome, execute_statement, Outcome, QueryOutput, SpanRow,
};
pub use parser::{parse, Aggregate, Statement};
pub use rowset::{RowSet, Run};

/// A SQL-layer failure, with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlError {
    /// What went wrong, e.g. `expected FROM, found 'WHERE'`.
    pub message: String,
}

impl SqlError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SQL error: {}", self.message)
    }
}

impl std::error::Error for SqlError {}
