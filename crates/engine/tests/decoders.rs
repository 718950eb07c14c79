//! The typed page decoder against bytes it did not choose.
//!
//! * Truncated and bit-flipped `ts2diff`, `gorilla` (f32/f64),
//!   `intcolumn` (both tags), `boolpack` and `textpack` pages go through
//!   [`PageHeader::decode`]: a strict prefix of either column is `None`;
//!   a flipped bit is `None` or a page of exactly the header's count;
//!   nothing panics, and no single reservation exceeds the decoders'
//!   `count.min(1 << 20)` cap — measured, by a counting allocator, not
//!   assumed.
//! * Two images written by the *parent* commit's `TsFileWriter` (v1 and
//!   v2 footers, every value type, multi-page chunks, both integer
//!   encodings) are checked in under `fixtures/` and must decode to the
//!   points they were written from — through the typed decoder, the row
//!   adapters, and an engine that adopts them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use backsort_core::Algorithm;
use backsort_engine::encoding::{boolpack, gorilla, intcolumn, textpack, ts2diff};
use backsort_engine::tsfile::{ChunkMeta, ChunkPages, PageHeader, TsFileReader};
use backsort_engine::{
    AggValue, Aggregation, DataType, EngineConfig, SeriesKey, StorageEngine, TsValue, ValueColumn,
};

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

/// The decoders reserve at most `count.min(1 << 20)` elements up front;
/// the widest element is 8 bytes.
const RESERVATION_CAP_BYTES: usize = (1 << 20) * 8;

/// A one-page chunk laid out as `tsfile.rs` documents it, around the
/// given (possibly damaged) column bytes. Returns the image and the meta
/// that locates the chunk in it.
fn one_page_chunk(dt: DataType, count: u32, ts: &[u8], values: &[u8]) -> (Vec<u8>, ChunkMeta) {
    let key = SeriesKey::new("root.g.d", "s");
    let name = key.to_string();
    let mut buf = Vec::new();
    buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
    buf.extend_from_slice(name.as_bytes());
    buf.push(dt.tag());
    buf.extend_from_slice(&count.to_le_bytes());
    buf.extend_from_slice(&0i64.to_le_bytes());
    buf.extend_from_slice(&i64::MAX.to_le_bytes());
    buf.extend_from_slice(&1u32.to_le_bytes()); // page_count
    buf.extend_from_slice(&0i64.to_le_bytes());
    buf.extend_from_slice(&i64::MAX.to_le_bytes());
    buf.extend_from_slice(&count.to_le_bytes());
    buf.extend_from_slice(&(ts.len() as u32).to_le_bytes());
    buf.extend_from_slice(ts);
    buf.extend_from_slice(&(values.len() as u32).to_le_bytes());
    buf.extend_from_slice(values);
    let meta = ChunkMeta {
        key,
        data_type: dt,
        num_points: count,
        min_time: 0,
        max_time: i64::MAX,
        offset: 0,
    };
    (buf, meta)
}

/// Decodes the chunk's only page, reporting the largest single
/// allocation the decode asked for.
fn decode(
    dt: DataType,
    count: u32,
    ts: &[u8],
    values: &[u8],
) -> (Option<(Vec<i64>, ValueColumn)>, usize) {
    let (image, meta) = one_page_chunk(dt, count, ts, values);
    let header: PageHeader = ChunkPages::open(&image, &meta)
        .expect("hand-built chunk header parses")
        .next()
        .expect("one page");
    LARGEST_REQUEST.with(|c| c.set(0));
    let page = header.decode(&image, dt);
    (page, LARGEST_REQUEST.with(Cell::get))
}

#[test]
fn damaged_pages_are_refused_or_whole_never_a_panic_or_a_huge_reservation() {
    const N: usize = 41;
    let times: Vec<i64> = (0..N as i64)
        .map(|i| 1_000 + i * 10 + (i * i) % 7)
        .collect();
    let ts = ts2diff::encode(&times);
    let ramp: Vec<i64> = (0..N as i64).map(|i| i * i - 50).collect();
    let plateaus: Vec<i64> = (0..N as i64).map(|i| i / 14).collect();
    let doubles: Vec<f64> = (0..N).map(|i| 20.0 + (i as f64) * 0.37).collect();
    let floats: Vec<f32> = (0..N).map(|i| (i % 5) as f32 * 0.5).collect();
    let bools: Vec<bool> = (0..N).map(|i| i % 3 == 0).collect();
    let texts: Vec<String> = (0..N).map(|i| format!("v{i}")).collect();
    let narrow = |wide: &[i64]| wide.iter().map(|&v| v as i32).collect::<Vec<i32>>();
    let columns: Vec<(ValueColumn, Vec<u8>)> = vec![
        (ValueColumn::Long(ramp.clone()), intcolumn::encode(&ramp)),
        (
            ValueColumn::Long(plateaus.clone()),
            intcolumn::encode(&plateaus),
        ),
        (ValueColumn::Int(narrow(&ramp)), intcolumn::encode(&ramp)),
        (
            ValueColumn::Int(narrow(&plateaus)),
            intcolumn::encode(&plateaus),
        ),
        (
            ValueColumn::Double(doubles.clone()),
            gorilla::encode_f64(&doubles),
        ),
        (
            ValueColumn::Float(floats.clone()),
            gorilla::encode_f32(&floats),
        ),
        (ValueColumn::Bool(bools.clone()), boolpack::encode(&bools)),
        (ValueColumn::Text(texts.clone()), textpack::encode(&texts)),
    ];
    assert_eq!(
        (columns[0].1[0], columns[1].1[0]),
        (intcolumn::TAG_TS2DIFF, intcolumn::TAG_RLE),
        "both integer encodings are under test"
    );
    let count = N as u32;
    let mut refused = 0usize;
    let mut survived = 0usize;
    for (want, encoded) in &columns {
        let dt = want.data_type();
        // Undamaged, the page is what was encoded.
        let (page, largest) = decode(dt, count, &ts, encoded);
        assert_eq!(page, Some((times.clone(), want.clone())), "{dt:?}");
        assert!(largest >= N * 8, "the allocator is being watched");
        // Every strict prefix of either column is refused.
        for cut in 0..ts.len() {
            assert_eq!(
                decode(dt, count, &ts[..cut], encoded).0,
                None,
                "{dt:?} ts cut {cut}"
            );
        }
        for cut in 0..encoded.len() {
            assert_eq!(
                decode(dt, count, &ts, &encoded[..cut]).0,
                None,
                "{dt:?} values cut {cut}"
            );
        }
        // Every single flipped bit of either column: refused, or a page
        // of exactly `count` points; never a reservation past the cap.
        for (which, column) in [&ts, encoded].into_iter().enumerate() {
            for bit in 0..column.len() * 8 {
                let mut damaged = column.clone();
                damaged[bit / 8] ^= 0x80 >> (bit % 8);
                let (page, largest) = if which == 0 {
                    decode(dt, count, &damaged, encoded)
                } else {
                    decode(dt, count, &ts, &damaged)
                };
                assert!(
                    largest <= RESERVATION_CAP_BYTES,
                    "{dt:?} column {which} bit {bit}: one allocation of {largest} bytes"
                );
                match page {
                    None => refused += 1,
                    Some((t, v)) => {
                        assert_eq!(
                            (t.len(), v.len()),
                            (N, N),
                            "{dt:?} column {which} bit {bit}"
                        );
                        survived += 1;
                    }
                }
            }
        }
    }
    assert!(
        refused > 0 && survived > 0,
        "{refused} refused, {survived} survived"
    );
}

const FIXTURES: [(&str, &[u8], bool); 2] = [
    (
        "v1",
        include_bytes!("fixtures/parent_writer_v1.tsfile"),
        false,
    ),
    (
        "v2",
        include_bytes!("fixtures/parent_writer_v2.tsfile"),
        true,
    ),
];

/// What the fixture generator wrote: per sensor, how many points, at
/// which timestamps, holding which values.
const FIXTURE_SENSORS: [(&str, i64); 7] = [
    ("d", 1500),
    ("l", 1500),
    ("r", 1100),
    ("i", 300),
    ("f", 300),
    ("b", 300),
    ("x", 40),
];

fn fixture_time(i: i64) -> i64 {
    i * 10 + (i * i) % 7
}

fn fixture_value(sensor: &str, t: i64) -> TsValue {
    match sensor {
        "d" => TsValue::Double((t % 1000) as f64 * 0.125 + (t / 1000) as f64),
        "l" => TsValue::Long(t * 3 - 17),
        "r" => TsValue::Long((t / 500) * 7),
        "i" => TsValue::Int((t % 100) as i32 - 50),
        "f" => TsValue::Float((t % 64) as f32 * 0.5),
        "b" => TsValue::Bool(t % 3 == 0),
        _ => TsValue::Text(format!("v{t}")),
    }
}

fn fixture_rows(sensor: &str, n: i64) -> Vec<(i64, TsValue)> {
    (0..n)
        .map(fixture_time)
        .map(|t| (t, fixture_value(sensor, t)))
        .collect()
}

#[test]
fn images_written_before_this_change_decode_to_the_same_points() {
    for (version, image, has_filter) in FIXTURES {
        let reader = TsFileReader::open(image).expect("fixture opens");
        assert_eq!(reader.filter().is_some(), has_filter, "{version}");
        assert_eq!(reader.chunks().len(), FIXTURE_SENSORS.len(), "{version}");
        let engine = StorageEngine::new(EngineConfig {
            sorter: Algorithm::Backward(Default::default()),
            ..EngineConfig::default()
        });
        engine.adopt_file(image.to_vec()).expect("fixture adopts");
        for (sensor, n) in FIXTURE_SENSORS {
            let key = SeriesKey::new("root.fix.d0", sensor);
            let want = fixture_rows(sensor, n);
            let [meta] = reader.chunks_for(&key) else {
                panic!("{version} {sensor}: one chunk per sensor");
            };
            // The typed decoder, page by page.
            let mut typed = Vec::new();
            for header in ChunkPages::open(image, meta).expect("chunk header") {
                let (times, values) = header.decode(image, meta.data_type).expect("page");
                values.as_slice().zip_rows_into(&times, &mut typed);
            }
            assert_eq!(typed, want, "{version} {sensor}: typed pages");
            // The row adapters over it.
            assert_eq!(
                reader.read_chunk(meta).as_ref(),
                Some(&want),
                "{version} {sensor}"
            );
            assert_eq!(
                reader.query(&key, i64::MIN, i64::MAX),
                want,
                "{version} {sensor}"
            );
            // An engine reading the adopted file, rows and folds.
            assert_eq!(
                engine.query(&key, i64::MIN, i64::MAX),
                want,
                "{version} {sensor}"
            );
            let mid = fixture_time(n / 2);
            let tail: Vec<&(i64, TsValue)> = want.iter().filter(|(t, _)| *t >= mid).collect();
            assert_eq!(
                engine.aggregate_many(
                    &key,
                    mid,
                    i64::MAX,
                    &[Aggregation::Count, Aggregation::Sum, Aggregation::MaxTime]
                ),
                vec![
                    AggValue::Number(tail.len() as f64),
                    AggValue::Number(tail.iter().map(|(_, v)| v.as_f64()).sum()),
                    AggValue::Time(fixture_time(n - 1)),
                ],
                "{version} {sensor}: folds"
            );
        }
    }
}
