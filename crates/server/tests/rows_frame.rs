//! The binary reply frames — rows (`0x84`) and aggregates (`0x85`) —
//! against their own encoders and against bytes they did not choose.
//!
//! * Arbitrary `Rows` — no columns, no rows, `None` cells, columns that
//!   change type part way, NaN/±inf/−0.0, empty and multi-byte text —
//!   survive `encode_response` → `read_response` exactly, floats
//!   compared by bits; so do arbitrary `Aggregates` and `Grouped`.
//! * A random `RowSet` written by the server's encoder
//!   (`encode_row_set`) decodes to exactly `RowSet::into_rows()`: the
//!   server's path and the in-process adapter agree.
//! * Every strict prefix of an encoded payload is refused; every single
//!   flipped bit gives an error or a well-formed response; nothing
//!   panics, and no single allocation exceeds a small multiple of the
//!   frame — measured, by a counting allocator, not assumed.
//! * A forged column count, row count, bucket count, run length or text
//!   length over a payload of some twenty bytes fails before anything is
//!   reserved for it.

mod common;

use backsort_engine::{AggValue, TsValue, ValueColumn};
use backsort_server::wire::{
    self, Response, HEADER_BYTES, MAX_RESPONSE_BYTES, STATUS_AGGREGATES, STATUS_ROWS,
};
use backsort_sql::{QueryOutput, RowSet, Run};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;

/// The most one allocation of a decode may ask for, given the frame: a
/// row's cells are reserved at one `Option<TsValue>` a column, and a
/// column costs the frame at least its name's two length bytes (and
/// decodes to one 24-byte `String`). The constant covers the error text
/// of a refused frame.
fn allocation_bound(frame_len: usize) -> usize {
    frame_len * std::mem::size_of::<Option<TsValue>>() / 2 + 512
}

type Cells = Vec<Option<TsValue>>;

/// One run's worth of cells: a single type, or all `None`.
fn run() -> impl Strategy<Value = Cells> {
    fn some<S>(values: S, of: fn(S::Value) -> TsValue) -> BoxedStrategy<Cells>
    where
        S: Strategy + 'static,
        S::Value: 'static,
    {
        vec(values, 1..120)
            .prop_map(move |run| run.into_iter().map(|v| Some(of(v))).collect())
            .boxed()
    }
    prop_oneof![
        (1..120usize).prop_map(|n| vec![None; n]),
        some(any::<i32>(), TsValue::Int),
        some(any::<i64>(), TsValue::Long),
        some(any::<f32>(), TsValue::Float),
        some(any::<f64>(), TsValue::Double),
        some(
            select(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0]),
            TsValue::Double
        ),
        some(any::<bool>(), TsValue::Bool),
        // `.` draws multi-byte characters too; `{0,…}` the empty text.
        some(".{0,6}", TsValue::Text),
    ]
}

/// Rows of up to `max_rows` timestamps under 0–4 named columns, each
/// column one to four runs long (cut or padded with `None` to fit).
fn rows(max_rows: usize) -> impl Strategy<Value = QueryOutput> {
    (
        vec(any::<i64>(), 0..max_rows + 1),
        vec((".{0,8}", vec(run(), 1..5)), 0..5),
    )
        .prop_map(|(times, named)| {
            let (columns, mut cells): (Vec<String>, Vec<Cells>) = named
                .into_iter()
                .map(|(name, runs)| (name, runs.concat()))
                .unzip();
            for column in &mut cells {
                column.resize(times.len(), None);
            }
            let rows = times
                .into_iter()
                .enumerate()
                .map(|(row, t)| (t, cells.iter().map(|column| column[row].clone()).collect()))
                .collect();
            QueryOutput::Rows { columns, rows }
        })
}

fn same_cell(a: &Option<TsValue>, b: &Option<TsValue>) -> bool {
    match (a, b) {
        (Some(TsValue::Double(a)), Some(TsValue::Double(b))) => a.to_bits() == b.to_bits(),
        (Some(TsValue::Float(a)), Some(TsValue::Float(b))) => a.to_bits() == b.to_bits(),
        _ => a == b,
    }
}

/// Equality that tells NaN payloads and the sign of zero apart.
fn same_rows(a: &QueryOutput, b: &QueryOutput) -> bool {
    let (
        QueryOutput::Rows {
            columns: a_columns,
            rows: a_rows,
        },
        QueryOutput::Rows {
            columns: b_columns,
            rows: b_rows,
        },
    ) = (a, b)
    else {
        return false;
    };
    a_columns == b_columns
        && a_rows.len() == b_rows.len()
        && a_rows.iter().zip(b_rows).all(|((ta, a), (tb, b))| {
            ta == tb && a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same_cell(a, b))
        })
}

fn encode(output: QueryOutput) -> Vec<u8> {
    let mut frame = Vec::new();
    wire::encode_response(&mut frame, 7, &Response::Output(output));
    frame
}

/// A frame of `status` around `payload`, whatever it holds.
fn framed(status: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.push(status);
    frame.extend_from_slice(&7u64.to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Decodes `frame`, reporting the largest single allocation it asked for.
fn decode(frame: &[u8]) -> (std::io::Result<Option<(u64, Response)>>, usize) {
    common::largest_allocation(|| wire::read_response(&mut &*frame, MAX_RESPONSE_BYTES))
}

proptest! {
    #[test]
    fn rows_survive_the_frame_bit_for_bit(output in rows(300)) {
        let frame = encode(output.clone());
        prop_assert_eq!(frame[4], STATUS_ROWS);
        let (decoded, largest) = decode(&frame);
        match decoded {
            Ok(Some((7, Response::Output(decoded)))) => {
                prop_assert!(same_rows(&decoded, &output), "decoded {decoded:?}");
            }
            other => prop_assert!(false, "{other:?}"),
        }
        prop_assert!(largest <= allocation_bound(frame.len()), "{largest} for {}", frame.len());
    }
}

proptest! {
    // Quadratic in the frame (every bit of it is flipped and the whole
    // decoded again), so: few cases, small frames.
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn damaged_frames_are_refused_or_well_formed_never_a_panic_or_a_huge_reservation(
        output in rows(24)
    ) {
        let frame = encode(output);
        let payload = &frame[HEADER_BYTES..];
        let bound = allocation_bound(frame.len());
        for cut in 0..payload.len() {
            let (decoded, largest) = decode(&framed(STATUS_ROWS, &payload[..cut]));
            prop_assert!(decoded.is_err(), "prefix {cut} of {} decoded", payload.len());
            prop_assert!(largest <= bound, "prefix {cut}: one allocation of {largest}");
        }
        let mut damaged = frame.clone();
        for bit in 0..payload.len() * 8 {
            let at = HEADER_BYTES + bit / 8;
            damaged[at] ^= 1 << (bit % 8);
            let (decoded, largest) = decode(&damaged);
            if let Ok(decoded) = decoded {
                let well_formed = matches!(
                    &decoded,
                    Some((7, Response::Output(QueryOutput::Rows { columns, rows })))
                        if rows.iter().all(|(_, cells)| cells.len() == columns.len())
                );
                prop_assert!(well_formed, "bit {bit}: {decoded:?}");
            }
            prop_assert!(largest <= bound, "bit {bit}: one allocation of {largest}");
            damaged[at] = frame[at];
        }
    }
}

#[test]
fn forged_counts_fail_before_anything_is_reserved() {
    // One column `s`, then a count these few bytes cannot back.
    let head = |nrows: u32| {
        let mut payload = vec![1, 0, 1, 0, b's'];
        payload.extend_from_slice(&nrows.to_le_bytes());
        payload
    };
    let forged_rows = {
        let mut payload = head(u32::MAX);
        payload.resize(20, 0);
        payload
    };
    let one_row = |run: &[u8]| {
        let mut payload = head(1);
        payload.extend_from_slice(&9i64.to_le_bytes());
        payload.extend_from_slice(run);
        assert!(payload.len() <= 26, "{}", payload.len());
        payload
    };
    let mut forged_run = vec![3];
    forged_run.extend_from_slice(&u32::MAX.to_le_bytes());
    let mut forged_text = vec![5, 1, 0, 0, 0];
    forged_text.extend_from_slice(&u32::MAX.to_le_bytes());
    let mut forged_columns = vec![0xFF, 0xFF];
    forged_columns.resize(20, 0);
    for (what, payload) in [
        ("nrows", forged_rows),
        ("run_len", one_row(&forged_run)),
        ("text len", one_row(&forged_text)),
        ("ncols", forged_columns),
    ] {
        let (decoded, largest) = decode(&framed(STATUS_ROWS, &payload));
        assert!(decoded.is_err(), "{what}: {decoded:?}");
        assert!(largest <= 512, "{what}: one allocation of {largest} bytes");
    }
}

#[test]
fn each_malformation_is_invalid_data() {
    let good = encode(QueryOutput::Rows {
        columns: vec!["b".to_string(), "t".to_string()],
        rows: vec![
            (
                1,
                vec![
                    Some(TsValue::Bool(true)),
                    Some(TsValue::Text("é".to_string())),
                ],
            ),
            (2, vec![Some(TsValue::Bool(false)), None]),
        ],
    });
    assert!(matches!(decode(&good).0, Ok(Some(_))));
    // Payload offsets: ncols 0, names 2..8, nrows 8, timestamps 12..28,
    // bool run (tag 28, len 29, cells 33..35), text run (tag 35, len 36,
    // text len 40, text 44..46), none run (tag 46, len 47), end 51.
    let cases: [(&str, usize, &[u8]); 7] = [
        ("trailing bytes", 51, &[0]),
        ("a zero-length run", 29, &[0, 0, 0, 0]),
        ("a run past nrows", 29, &[3, 0, 0, 0]),
        ("a bool byte above 1", 34, &[2]),
        ("bad UTF-8", 45, &[0xFF]),
        ("an unknown tag", 28, &[6]),
        ("a bad column name", 4, &[0xFF]),
    ];
    for (what, at, bytes) in cases {
        let mut payload = good[HEADER_BYTES..].to_vec();
        assert_eq!(payload.len(), 51);
        let end = (at + bytes.len()).min(payload.len());
        payload.splice(at..end, bytes.iter().copied());
        let (decoded, _) = decode(&framed(STATUS_ROWS, &payload));
        let kind = decoded.expect_err(what).kind();
        assert_eq!(kind, std::io::ErrorKind::InvalidData, "{what}");
    }
}

/// One of [`run`]'s stretches as a [`Run`]: all `None`, or one type.
fn as_run(cells: Cells) -> Run {
    let mut values = match cells.first() {
        Some(Some(value)) => ValueColumn::new(value.data_type()),
        _ => return Run::Gap(cells.len()),
    };
    for value in cells.into_iter().flatten() {
        values.push(value).expect("a run holds one type");
    }
    Run::Values(values)
}

/// A row set of up to `max_rows` rows under 0–4 columns, each column one
/// to four runs cut or padded to the row count. Unlike the row sets the
/// executor builds, neighbouring runs may share a type or both be gaps.
fn row_set(max_rows: usize) -> impl Strategy<Value = RowSet> {
    (
        vec(any::<i64>(), 0..max_rows + 1),
        vec((".{0,8}", vec(run(), 1..5)), 0..5),
    )
        .prop_map(|(times, named)| {
            let (columns, runs) = named
                .into_iter()
                .map(|(name, stretches)| {
                    let mut left = times.len();
                    let mut runs = Vec::new();
                    for mut cells in stretches {
                        if left == 0 {
                            break;
                        }
                        cells.truncate(left);
                        left -= cells.len();
                        runs.push(as_run(cells));
                    }
                    if left > 0 {
                        runs.push(Run::Gap(left));
                    }
                    (name, runs)
                })
                .unzip();
            RowSet::new(columns, times, runs).expect("runs fitted to the rows")
        })
}

proptest! {
    #[test]
    fn the_servers_row_set_encoder_agrees_with_the_in_process_adapter(rows in row_set(300)) {
        let mut frame = Vec::new();
        wire::encode_row_set(&mut frame, 7, &rows);
        prop_assert_eq!(frame[4], STATUS_ROWS);
        let (decoded, _) = decode(&frame);
        let adapted = rows.clone().into_rows();
        match decoded {
            Ok(Some((7, Response::Output(decoded)))) => {
                prop_assert!(same_rows(&decoded, &adapted), "decoded {decoded:?}");
            }
            other => prop_assert!(false, "{other:?}"),
        }
    }
}

fn agg_value() -> impl Strategy<Value = AggValue> {
    prop_oneof![
        any::<f64>().prop_map(AggValue::Number),
        select(vec![
            f64::NAN,
            f64::from_bits(0x7FF0_0000_DEAD_BEEF),
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
        ])
        .prop_map(AggValue::Number),
        any::<i64>().prop_map(AggValue::Time),
        select(vec![AggValue::Empty]),
    ]
}

/// `Aggregates`, or `Grouped` of up to `max_buckets` buckets, under 0–4
/// labels, every row as wide as the labels.
fn aggregates(max_buckets: usize) -> impl Strategy<Value = QueryOutput> {
    (
        vec(".{0,8}", 0..5),
        any::<bool>(),
        vec((any::<i64>(), vec(agg_value(), 0..5)), 0..max_buckets + 1),
    )
        .prop_map(|(columns, grouped, rows)| {
            let width = columns.len();
            let mut buckets: Vec<(i64, Vec<AggValue>)> = rows
                .into_iter()
                .map(|(start, mut values)| {
                    values.resize(width, AggValue::Empty);
                    (start, values)
                })
                .collect();
            if grouped {
                return QueryOutput::Grouped { columns, buckets };
            }
            let values = buckets
                .pop()
                .map_or_else(|| vec![AggValue::Empty; width], |(_, values)| values);
            QueryOutput::Aggregates { columns, values }
        })
}

/// A value as (tag, bits), so that NaN payloads and −0.0 compare.
fn agg_bits(value: &AggValue) -> (u8, u64) {
    match *value {
        AggValue::Number(v) => (0, v.to_bits()),
        AggValue::Time(t) => (1, t as u64),
        AggValue::Empty => (2, 0),
    }
}

fn same_values(a: &[AggValue], b: &[AggValue]) -> bool {
    a.iter().map(agg_bits).eq(b.iter().map(agg_bits))
}

/// Equality of aggregate outputs, values compared by bits.
fn same_aggregates(a: &QueryOutput, b: &QueryOutput) -> bool {
    match (a, b) {
        (
            QueryOutput::Aggregates {
                columns: a_columns,
                values: a,
            },
            QueryOutput::Aggregates {
                columns: b_columns,
                values: b,
            },
        ) => a_columns == b_columns && same_values(a, b),
        (
            QueryOutput::Grouped {
                columns: a_columns,
                buckets: a,
            },
            QueryOutput::Grouped {
                columns: b_columns,
                buckets: b,
            },
        ) => {
            a_columns == b_columns
                && a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((ta, a), (tb, b))| ta == tb && same_values(a, b))
        }
        _ => false,
    }
}

/// What a damaged aggregates frame may decode to: rows as wide as the
/// labels.
fn well_formed_aggregates(output: &QueryOutput) -> bool {
    match output {
        QueryOutput::Aggregates { columns, values } => values.len() == columns.len(),
        QueryOutput::Grouped { columns, buckets } => buckets
            .iter()
            .all(|(_, values)| values.len() == columns.len()),
        _ => false,
    }
}

proptest! {
    #[test]
    fn aggregates_survive_the_frame_bit_for_bit(output in aggregates(300)) {
        let frame = encode(output.clone());
        prop_assert_eq!(frame[4], STATUS_AGGREGATES);
        let (decoded, largest) = decode(&frame);
        match decoded {
            Ok(Some((7, Response::Output(decoded)))) => {
                prop_assert!(same_aggregates(&decoded, &output), "decoded {decoded:?}");
            }
            other => prop_assert!(false, "{other:?}"),
        }
        prop_assert!(largest <= allocation_bound(frame.len()), "{largest} for {}", frame.len());
    }
}

proptest! {
    // Quadratic in the frame, as for rows: few cases, small frames.
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn damaged_aggregates_frames_are_refused_or_well_formed(output in aggregates(12)) {
        let frame = encode(output);
        let payload = &frame[HEADER_BYTES..];
        let bound = allocation_bound(frame.len());
        for cut in 0..payload.len() {
            let (decoded, largest) = decode(&framed(STATUS_AGGREGATES, &payload[..cut]));
            prop_assert!(decoded.is_err(), "prefix {cut} of {} decoded", payload.len());
            prop_assert!(largest <= bound, "prefix {cut}: one allocation of {largest}");
        }
        let mut damaged = frame.clone();
        for bit in 0..payload.len() * 8 {
            let at = HEADER_BYTES + bit / 8;
            damaged[at] ^= 1 << (bit % 8);
            let (decoded, largest) = decode(&damaged);
            if let Ok(decoded) = decoded {
                let well_formed = matches!(
                    &decoded,
                    Some((7, Response::Output(output))) if well_formed_aggregates(output)
                );
                prop_assert!(well_formed, "bit {bit}: {decoded:?}");
            }
            prop_assert!(largest <= bound, "bit {bit}: one allocation of {largest}");
            damaged[at] = frame[at];
        }
    }
}

#[test]
fn forged_aggregate_counts_fail_before_anything_is_reserved() {
    // One label `s`, buckets, then a count these few bytes cannot back.
    let mut forged_buckets = vec![1, 0, 1, 0, b's', 1];
    forged_buckets.extend_from_slice(&u32::MAX.to_le_bytes());
    forged_buckets.resize(20, 0);
    let mut forged_columns = vec![0xFF, 0xFF];
    forged_columns.resize(20, 0);
    for (what, payload) in [("nbuckets", forged_buckets), ("ncols", forged_columns)] {
        let (decoded, largest) = decode(&framed(STATUS_AGGREGATES, &payload));
        assert!(decoded.is_err(), "{what}: {decoded:?}");
        assert!(largest <= 512, "{what}: one allocation of {largest} bytes");
    }
}

#[test]
fn each_aggregates_malformation_is_invalid_data() {
    let good = encode(QueryOutput::Aggregates {
        columns: vec!["c".to_string()],
        values: vec![AggValue::Number(1.0)],
    });
    assert!(matches!(decode(&good).0, Ok(Some(_))));
    // Payload offsets: ncols 0, name 2..5, shape 5, cell tag 6, cell
    // bytes 7..15, end 15.
    let cases: [(&str, usize, &[u8]); 5] = [
        ("trailing bytes", 15, &[0]),
        ("an unknown shape", 5, &[2]),
        ("an unknown cell tag", 6, &[3]),
        ("an empty cell with a byte set", 6, &[2]),
        ("a bad label", 4, &[0xFF]),
    ];
    for (what, at, bytes) in cases {
        let mut payload = good[HEADER_BYTES..].to_vec();
        assert_eq!(payload.len(), 15);
        let end = (at + bytes.len()).min(payload.len());
        payload.splice(at..end, bytes.iter().copied());
        let (decoded, _) = decode(&framed(STATUS_AGGREGATES, &payload));
        let kind = decoded.expect_err(what).kind();
        assert_eq!(kind, std::io::ErrorKind::InvalidData, "{what}");
    }
}
