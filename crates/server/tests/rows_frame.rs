//! The binary rows frame against its own encoder and against bytes it
//! did not choose.
//!
//! * Arbitrary `Rows` — no columns, no rows, `None` cells, columns that
//!   change type part way, NaN/±inf/−0.0, empty and multi-byte text —
//!   survive `encode_response` → `read_response` exactly, floats
//!   compared by bits.
//! * Every strict prefix of an encoded payload is refused; every single
//!   flipped bit gives an error or a well-formed response; nothing
//!   panics, and no single allocation exceeds a small multiple of the
//!   frame — measured, by a counting allocator, not assumed.
//! * A forged column count, row count, run length or text length over a
//!   payload of some twenty bytes fails before anything is reserved for
//!   it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use backsort_engine::TsValue;
use backsort_server::wire::{self, Response, HEADER_BYTES, MAX_RESPONSE_BYTES, STATUS_ROWS};
use backsort_sql::QueryOutput;
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;

thread_local! {
    /// The largest single allocation request this thread has made since
    /// the cell was last reset.
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = LARGEST_REQUEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping beside it
// touches a `const`-initialised thread-local `Cell` and allocates
// nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch
        // for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The most one allocation of a decode may ask for, given the frame: a
/// row's cells are reserved at one `Option<TsValue>` a column, and a
/// column costs the frame at least its name's two length bytes. The
/// constant covers the error text of a refused frame.
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

/// A rows frame around `payload`, whatever it holds.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.push(STATUS_ROWS);
    frame.extend_from_slice(&7u64.to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Decodes `frame`, reporting the largest single allocation it asked for.
fn decode(frame: &[u8]) -> (std::io::Result<Option<(u64, Response)>>, usize) {
    LARGEST_REQUEST.with(|c| c.set(0));
    let decoded = wire::read_response(&mut &*frame, MAX_RESPONSE_BYTES);
    (decoded, LARGEST_REQUEST.with(Cell::get))
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
            let (decoded, largest) = decode(&framed(&payload[..cut]));
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
        let (decoded, largest) = decode(&framed(&payload));
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
        let (decoded, _) = decode(&framed(&payload));
        let kind = decoded.expect_err(what).kind();
        assert_eq!(kind, std::io::ErrorKind::InvalidData, "{what}");
    }
}
