//! A raw `SELECT`'s result as columns: [`RowSet`].
//!
//! The engine reads each selected series as a timestamp column and the
//! typed value runs that cover it
//! ([`StorageEngine::read_columns`](backsort_engine::StorageEngine::read_columns)).
//! [`align`] lines the sensors up on the union of their timestamps
//! without building a row, and the server writes the rows frame straight
//! from the result. Rows as `(i64, Vec<Option<TsValue>>)` exist only at
//! the adapters, [`RowSet::into_rows`] and [`RowSet::from_rows`].

use backsort_engine::{TsValue, ValueColumn};

use crate::exec::QueryOutput;
use crate::SqlError;

/// A stretch of one result column.
#[derive(Debug, Clone, PartialEq)]
pub enum Run {
    /// Consecutive cells holding values of one type.
    Values(ValueColumn),
    /// Consecutive cells where the sensor has no point.
    Gap(usize),
}

impl Run {
    /// Cells the run covers.
    pub fn len(&self) -> usize {
        match self {
            Run::Values(values) => values.len(),
            Run::Gap(cells) => *cells,
        }
    }

    /// Whether the run covers no cell.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The rows of a raw `SELECT`, held as columns: the timestamps, and per
/// selected sensor a list of [`Run`]s covering exactly as many cells —
/// the shape of the wire's rows frame. A gap-free column of one type is
/// one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RowSet {
    columns: Vec<String>,
    times: Vec<i64>,
    runs: Vec<Vec<Run>>,
}

impl RowSet {
    /// A row set from its parts, checked: one run list per column, no
    /// empty run, and every list covering exactly `times.len()` cells.
    pub fn new(
        columns: Vec<String>,
        times: Vec<i64>,
        runs: Vec<Vec<Run>>,
    ) -> Result<Self, SqlError> {
        if runs.len() != columns.len() {
            return Err(SqlError::new(format!(
                "{} run lists under {} columns",
                runs.len(),
                columns.len()
            )));
        }
        for (name, column) in columns.iter().zip(&runs) {
            if column.iter().any(Run::is_empty) {
                return Err(SqlError::new(format!("column {name} has an empty run")));
            }
            let cells: usize = column.iter().map(Run::len).sum();
            if cells != times.len() {
                return Err(SqlError::new(format!(
                    "column {name} covers {cells} of {} rows",
                    times.len()
                )));
            }
        }
        Ok(Self {
            columns,
            times,
            runs,
        })
    }

    /// Column names, in select order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The rows' timestamps, ascending.
    pub fn times(&self) -> &[i64] {
        &self.times
    }

    /// Each column's runs, in column order.
    pub fn runs(&self) -> &[Vec<Run>] {
        &self.runs
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The same rows as a [`QueryOutput::Rows`], one `Vec` per row.
    ///
    /// An adapter: it exists only because `perf/` pins the row type (its
    /// oracle reads `QueryOutput::Rows`), and the columnar
    /// `QueryOutput::Rows` of ROADMAP item 4 deletes it.
    pub fn into_rows(self) -> QueryOutput {
        let width = self.columns.len();
        let mut rows: Vec<(i64, Vec<Option<TsValue>>)> = self
            .times
            .into_iter()
            .map(|t| (t, Vec::with_capacity(width)))
            .collect();
        for column in self.runs {
            // Each run fills the next `len` rows' cell of this column.
            let mut unfilled = rows.iter_mut().map(|(_, cells)| cells);
            for run in column {
                let cells = unfilled.by_ref().take(run.len());
                match run {
                    Run::Gap(_) => cells.for_each(|cells| cells.push(None)),
                    Run::Values(values) => fill(cells, values),
                }
            }
        }
        QueryOutput::Rows {
            columns: self.columns,
            rows,
        }
    }

    /// The row set of `rows`: each column a run per stretch of cells of
    /// one type or of `None`.
    ///
    /// An adapter, like [`into_rows`](Self::into_rows): the server
    /// encodes a `QueryOutput::Rows` it is handed (`perf`'s ladder,
    /// tests) through it. It exists only because `perf/` pins the row
    /// type, and ROADMAP item 4 deletes it.
    pub fn from_rows(
        columns: &[String],
        rows: &[(i64, Vec<Option<TsValue>>)],
    ) -> Result<Self, SqlError> {
        let mut runs: Vec<Vec<Run>> = vec![Vec::new(); columns.len()];
        for (_, cells) in rows {
            if cells.len() != columns.len() {
                return Err(SqlError::new(format!(
                    "a row of {} cells under {} columns",
                    cells.len(),
                    columns.len()
                )));
            }
            for (column, cell) in runs.iter_mut().zip(cells) {
                push_cell(column, cell.as_ref());
            }
        }
        Ok(Self {
            columns: columns.to_vec(),
            times: rows.iter().map(|&(t, _)| t).collect(),
            runs,
        })
    }
}

/// Pushes each of `values` as the next row's cell.
fn fill<'a>(rows: impl Iterator<Item = &'a mut Vec<Option<TsValue>>>, values: ValueColumn) {
    fn each<'a, T>(
        rows: impl Iterator<Item = &'a mut Vec<Option<TsValue>>>,
        values: Vec<T>,
        of: fn(T) -> TsValue,
    ) {
        rows.zip(values)
            .for_each(|(cells, v)| cells.push(Some(of(v))));
    }
    match values {
        ValueColumn::Int(v) => each(rows, v, TsValue::Int),
        ValueColumn::Long(v) => each(rows, v, TsValue::Long),
        ValueColumn::Float(v) => each(rows, v, TsValue::Float),
        ValueColumn::Double(v) => each(rows, v, TsValue::Double),
        ValueColumn::Bool(v) => each(rows, v, TsValue::Bool),
        ValueColumn::Text(v) => each(rows, v, TsValue::Text),
    }
}

/// Appends one cell to a column's runs, extending the last run when the
/// cell continues it.
fn push_cell(column: &mut Vec<Run>, cell: Option<&TsValue>) {
    use ValueColumn as V;
    match (column.last_mut(), cell) {
        (Some(Run::Gap(cells)), None) => *cells += 1,
        (_, None) => column.push(Run::Gap(1)),
        (Some(Run::Values(V::Int(run))), Some(TsValue::Int(v))) => run.push(*v),
        (Some(Run::Values(V::Long(run))), Some(TsValue::Long(v))) => run.push(*v),
        (Some(Run::Values(V::Float(run))), Some(TsValue::Float(v))) => run.push(*v),
        (Some(Run::Values(V::Double(run))), Some(TsValue::Double(v))) => run.push(*v),
        (Some(Run::Values(V::Bool(run))), Some(TsValue::Bool(v))) => run.push(*v),
        (Some(Run::Values(V::Text(run))), Some(TsValue::Text(v))) => run.push(v.clone()),
        // The first value, or one of another type: a run of its own.
        (_, Some(value)) => column.push(Run::Values(match value {
            TsValue::Int(v) => V::Int(vec![*v]),
            TsValue::Long(v) => V::Long(vec![*v]),
            TsValue::Float(v) => V::Float(vec![*v]),
            TsValue::Double(v) => V::Double(vec![*v]),
            TsValue::Bool(v) => V::Bool(vec![*v]),
            TsValue::Text(v) => V::Text(vec![v.clone()]),
        })),
    }
}

/// Aligns per-sensor reads — each [`StorageEngine::read_columns`]'
/// timestamps, ascending and unique, and the non-empty typed runs
/// covering them — on the union of their timestamps, a [`Run::Gap`]
/// where a sensor has no point. One read is the result as it stands;
/// several are walked k-way, and each column's values are moved over a
/// stretch at a time, never cloned.
///
/// [`StorageEngine::read_columns`]: backsort_engine::StorageEngine::read_columns
pub(crate) fn align(columns: Vec<String>, mut reads: Vec<(Vec<i64>, Vec<ValueColumn>)>) -> RowSet {
    if let [(times, values)] = reads.as_mut_slice() {
        // One sensor has nothing to align with.
        return RowSet {
            columns,
            times: std::mem::take(times),
            runs: vec![std::mem::take(values)
                .into_iter()
                .map(Run::Values)
                .collect()],
        };
    }
    // The union of the timestamps, and per column the stretches of rows
    // it is present in (`true`) or absent from, as `(present, rows)`.
    let longest = reads
        .iter()
        .map(|(times, _)| times.len())
        .max()
        .unwrap_or(0);
    let mut times = Vec::with_capacity(longest);
    let mut next = vec![0usize; reads.len()];
    let mut stretches: Vec<Vec<(bool, usize)>> = vec![Vec::new(); reads.len()];
    while let Some(t) = reads
        .iter()
        .zip(&next)
        .filter_map(|((read, _), &i)| read.get(i).copied())
        .min()
    {
        times.push(t);
        for (((read, _), i), column) in reads.iter().zip(&mut next).zip(&mut stretches) {
            let present = read.get(*i) == Some(&t);
            *i += usize::from(present);
            match column.last_mut() {
                Some((open, rows)) if *open == present => *rows += 1,
                _ => column.push((present, 1)),
            }
        }
    }
    let runs = reads
        .into_iter()
        .zip(&stretches)
        .map(|((_, values), stretches)| lay_out(values, stretches))
        .collect();
    RowSet {
        columns,
        times,
        runs,
    }
}

/// One column's runs: `stretches` of rows it is present in or absent
/// from, the present ones taking `values` in order.
fn lay_out(mut values: Vec<ValueColumn>, stretches: &[(bool, usize)]) -> Vec<Run> {
    let mut runs = Vec::new();
    // The next value to move: which of `values`, and where in it.
    let (mut source, mut offset) = (0, 0);
    for &(present, rows) in stretches {
        if !present {
            runs.push(Run::Gap(rows));
            continue;
        }
        // A read has one value per timestamp, so `values` lasts.
        let mut left = rows;
        while let Some(from) = values.get_mut(source).filter(|_| left > 0) {
            let take = left.min(from.len() - offset);
            move_values(&mut runs, from, offset, offset + take);
            left -= take;
            offset += take;
            if offset == from.len() {
                source += 1;
                offset = 0;
            }
        }
    }
    runs
}

/// Moves `from[lo..hi]` onto the end of `runs`: into its last run when
/// that holds the same type, else into a new one. Text is moved out of
/// `from`, not cloned.
fn move_values(runs: &mut Vec<Run>, from: &mut ValueColumn, lo: usize, hi: usize) {
    let continues = matches!(
        runs.last(),
        Some(Run::Values(last)) if last.data_type() == from.data_type()
    );
    if !continues {
        runs.push(Run::Values(ValueColumn::with_capacity(
            from.data_type(),
            hi - lo,
        )));
    }
    let Some(Run::Values(to)) = runs.last_mut() else {
        return;
    };
    match (to, from) {
        (ValueColumn::Int(to), ValueColumn::Int(from)) => {
            to.extend_from_slice(from.get(lo..hi).unwrap_or_default());
        }
        (ValueColumn::Long(to), ValueColumn::Long(from)) => {
            to.extend_from_slice(from.get(lo..hi).unwrap_or_default());
        }
        (ValueColumn::Float(to), ValueColumn::Float(from)) => {
            to.extend_from_slice(from.get(lo..hi).unwrap_or_default());
        }
        (ValueColumn::Double(to), ValueColumn::Double(from)) => {
            to.extend_from_slice(from.get(lo..hi).unwrap_or_default());
        }
        (ValueColumn::Bool(to), ValueColumn::Bool(from)) => {
            to.extend_from_slice(from.get(lo..hi).unwrap_or_default());
        }
        (ValueColumn::Text(to), ValueColumn::Text(from)) => {
            let moved = from.get_mut(lo..hi).unwrap_or_default();
            to.extend(moved.iter_mut().map(std::mem::take));
        }
        // The last run was given `from`'s type just above.
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doubles(v: &[f64]) -> ValueColumn {
        ValueColumn::Double(v.to_vec())
    }

    #[test]
    fn one_read_is_moved_in_whole() {
        let set = align(
            vec!["s".to_string()],
            vec![(
                vec![1, 2, 3],
                vec![doubles(&[0.5, 1.5]), ValueColumn::Long(vec![7])],
            )],
        );
        assert_eq!(set.times(), [1, 2, 3]);
        assert_eq!(
            set.runs(),
            [vec![
                Run::Values(doubles(&[0.5, 1.5])),
                Run::Values(ValueColumn::Long(vec![7]))
            ]]
        );
    }

    #[test]
    fn several_reads_align_into_runs_and_gaps() {
        let set = align(
            vec!["a".to_string(), "b".to_string(), "c".to_string()],
            vec![
                (
                    vec![1, 2, 4],
                    vec![doubles(&[1.0]), ValueColumn::Long(vec![2, 4])],
                ),
                (
                    vec![2, 3],
                    vec![ValueColumn::Text(vec!["x".to_string(), "y".to_string()])],
                ),
                (Vec::new(), Vec::new()),
            ],
        );
        assert_eq!(set.times(), [1, 2, 3, 4]);
        assert_eq!(
            set.runs(),
            [
                vec![
                    Run::Values(doubles(&[1.0])),
                    Run::Values(ValueColumn::Long(vec![2])),
                    Run::Gap(1),
                    Run::Values(ValueColumn::Long(vec![4])),
                ],
                vec![
                    Run::Gap(1),
                    Run::Values(ValueColumn::Text(vec!["x".to_string(), "y".to_string()])),
                    Run::Gap(1),
                ],
                vec![Run::Gap(4)],
            ]
        );
        assert_eq!(
            set.clone().into_rows(),
            QueryOutput::Rows {
                columns: vec!["a".to_string(), "b".to_string(), "c".to_string()],
                rows: vec![
                    (1, vec![Some(TsValue::Double(1.0)), None, None]),
                    (
                        2,
                        vec![
                            Some(TsValue::Long(2)),
                            Some(TsValue::Text("x".into())),
                            None
                        ]
                    ),
                    (3, vec![None, Some(TsValue::Text("y".into())), None]),
                    (4, vec![Some(TsValue::Long(4)), None, None]),
                ],
            }
        );
        // The adapters are each other's inverse on a row set in runs.
        let QueryOutput::Rows { columns, rows } = set.clone().into_rows() else {
            panic!("rows");
        };
        assert_eq!(RowSet::from_rows(&columns, &rows), Ok(set));
    }

    #[test]
    fn a_row_set_that_does_not_cover_its_rows_is_refused() {
        let columns = || vec!["s".to_string()];
        assert!(RowSet::new(columns(), vec![1, 2], vec![vec![Run::Gap(1)]]).is_err());
        assert!(RowSet::new(columns(), vec![1], vec![vec![Run::Gap(1), Run::Gap(0)]]).is_err());
        assert!(RowSet::new(columns(), vec![1], Vec::new()).is_err());
        assert!(RowSet::new(columns(), vec![1], vec![vec![Run::Gap(1)]]).is_ok());
        assert!(RowSet::from_rows(&columns(), &[(1, Vec::new())]).is_err());
    }
}
