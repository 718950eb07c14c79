//! The typed page decoder against bytes it did not choose.
//!
//! * Truncated and bit-flipped `ts2diff`, `gorilla` (f32/f64),
//!   `intcolumn` (both tags), `boolpack` and `textpack` pages go through
//!   [`PageHeader::decode`]: a strict prefix of either column is `None`;
//!   a flipped bit is `None` or a page of exactly the header's count;
//!   nothing panics, and no single reservation exceeds the decoders'
//!   `count.min(1 << 20)` cap — measured, by a counting allocator, not
//!   assumed.
//! * The two forgeries that used to expand a few bytes without bound —
//!   a TS_2DIFF width-0 block with a forged length, an RLE stream with a
//!   forged count — are refused before a value is produced, and so is
//!   a page header declaring more than `PAGE_POINTS` points.
//! * A v3 page header (value statistics) cut at every byte, flipped at
//!   every bit and given every `sum_len`: refused, or a well-formed page.
//! * Images written by an earlier commit's `TsFileWriter` — the *parent*
//!   commit of the change that introduced each format (v1 and v2
//!   footers), and the v3 writer that introduced page statistics —
//!   covering every value type, multi-page chunks and both integer
//!   encodings, are checked in under `fixtures/` and must decode to the
//!   points they were written from: through the typed decoder, the row
//!   adapters, and an engine that adopts them and answers every
//!   aggregate — from page headers only where the format stores them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use backsort_core::Algorithm;
use backsort_engine::encoding::{boolpack, gorilla, intcolumn, textpack, ts2diff, varint};
use backsort_engine::tsfile::{
    ChunkMeta, ChunkPages, PageHeader, TsFileReader, TsFileWriter, Version, MAX_SUM_PARTIALS,
    PAGE_POINTS,
};
use backsort_engine::{
    AggValue, Aggregation, DataType, EngineConfig, ExactSum, SeriesKey, StorageEngine, TsValue,
    ValueColumn,
};
use backsort_obs::names;

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

/// A one-page chunk laid out as `tsfile.rs` documents it for a v2 image
/// (no page statistics), around the given (possibly damaged) column
/// bytes. Returns the image and the meta that locates the chunk in it.
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
        version: Version::V2,
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

#[test]
fn forged_counts_and_block_lengths_are_refused_before_a_value_is_produced() {
    const N: u32 = 41;
    let times: Vec<i64> = (0..i64::from(N)).collect();
    let ts = ts2diff::encode(&times);
    let values = intcolumn::encode(&times);
    // TS_2DIFF: one width-0 block of `block_len` equal deltas — no packed
    // bytes at all, so a forged length is free to claim anything.
    let width_zero = |count: u64, block_len: u64| {
        let mut out = Vec::new();
        varint::write_u64(&mut out, count);
        varint::write_i64(&mut out, 0); // first value
        varint::write_i64(&mut out, 1); // min delta
        out.push(0); // width
        varint::write_u64(&mut out, block_len);
        varint::write_u64(&mut out, 0); // packed_len
        out
    };
    // RLE: one run of `run` copies of 7.
    let one_run = |count: u64, run: u64| {
        let mut out = vec![intcolumn::TAG_RLE];
        varint::write_u64(&mut out, count);
        varint::write_i64(&mut out, 7);
        varint::write_u64(&mut out, run);
        out
    };
    let tagged = |ts2diff: Vec<u8>| [vec![intcolumn::TAG_TS2DIFF], ts2diff].concat();
    let huge = 1u64 << 40; // 8 TiB of i64s
    let forgeries: [(&str, Vec<u8>, Vec<u8>); 6] = [
        ("ts count", width_zero(huge, huge), values.clone()),
        (
            "ts block_len",
            width_zero(u64::from(N), huge),
            values.clone(),
        ),
        ("value count", ts.clone(), tagged(width_zero(huge, huge))),
        (
            "value block_len",
            ts.clone(),
            tagged(width_zero(u64::from(N), huge)),
        ),
        ("rle count", ts.clone(), one_run(huge, huge)),
        ("rle run", ts.clone(), one_run(u64::from(N), huge)),
    ];
    for (what, ts, values) in &forgeries {
        let (page, largest) = decode(DataType::Int64, N, ts, values);
        assert_eq!(page, None, "{what}");
        assert!(
            largest <= N as usize * 8,
            "{what}: one allocation of {largest} bytes for a {N}-point page"
        );
    }
    // The same bytes as a page that claims the forged count itself: the
    // header is refused before any column is looked at.
    let (image, meta) = one_page_chunk(DataType::Int64, 1 << 30, &ts, &values);
    assert_eq!(
        ChunkPages::open(&image, &meta).and_then(|mut p| p.next()),
        None
    );
    let (image, meta) = one_page_chunk(DataType::Int64, PAGE_POINTS as u32 + 1, &ts, &values);
    assert_eq!(
        ChunkPages::open(&image, &meta).and_then(|mut p| p.next()),
        None
    );
}

/// The header bytes of each page of a v3 chunk — every field before the
/// timestamp bytes, and the value-column length — by walking the
/// documented layout, beside where each page's `sum_len` sits and where
/// the chunk ends.
fn v3_header_bytes(image: &[u8], meta: &ChunkMeta) -> (Vec<usize>, Vec<usize>, usize) {
    let u32_at = |pos: usize| u32::from_le_bytes(image[pos..pos + 4].try_into().unwrap()) as usize;
    let name_len = u16::from_le_bytes(image[meta.offset as usize..][..2].try_into().unwrap());
    let mut pos = meta.offset as usize + 2 + usize::from(name_len) + 1 + 4 + 16;
    let pages = u32_at(pos);
    pos += 4;
    let (mut header, mut sum_lens) = (Vec::new(), Vec::new());
    for _ in 0..pages {
        let stats = pos + 20;
        let sum_len = stats + 16;
        sum_lens.push(sum_len);
        let ts_len = sum_len + 1 + 8 * usize::from(image[sum_len]);
        header.extend(pos..ts_len + 4);
        let val_len = ts_len + 4 + u32_at(ts_len);
        header.extend(val_len..val_len + 4);
        pos = val_len + 4 + u32_at(val_len);
    }
    (header, sum_lens, pos)
}

/// Walks every page of `meta` in `image` and decodes it: every header
/// that parses must be well formed, and so must every page that decodes
/// — exactly the header's count, at most a page of points, a sum of at
/// most `MAX_SUM_PARTIALS` partials, no NaN extreme. Returns how many
/// pages decoded, and the largest single allocation the walk made.
fn walk_checked(image: &[u8], meta: &ChunkMeta, what: &str) -> (usize, usize) {
    LARGEST_REQUEST.with(|c| c.set(0));
    let mut decoded = 0;
    for header in ChunkPages::open(image, meta).into_iter().flatten() {
        assert!(
            (1..=PAGE_POINTS as u32).contains(&header.count),
            "{what}: {header:?}"
        );
        let stats = header.stats.expect("a v3 DOUBLE page carries statistics");
        assert!(
            !stats.min.is_nan() && !stats.max.is_nan(),
            "{what}: {stats:?}"
        );
        if let Some(partials) = stats.sum_partials() {
            assert!(partials.len() <= MAX_SUM_PARTIALS && partials.iter().all(|p| p.is_finite()));
        }
        if let Some((times, values)) = header.decode(image, meta.data_type) {
            assert_eq!(
                (times.len(), values.len()),
                (header.count as usize, header.count as usize),
                "{what}"
            );
            decoded += 1;
        }
    }
    (decoded, LARGEST_REQUEST.with(Cell::get))
}

#[test]
fn damaged_v3_page_headers_are_refused_or_whole() {
    // Two pages whose values span 2^±100, so their sums need several
    // partials.
    let times: Vec<i64> = (0..PAGE_POINTS as i64 + 41).collect();
    let values: Vec<TsValue> = times
        .iter()
        .map(|&t| TsValue::Double(t as f64 / 7.0 * 2f64.powi((t % 9) as i32 * 25 - 100)))
        .collect();
    let mut w = TsFileWriter::new();
    w.write_chunk(&SeriesKey::new("root.g.d", "s"), &times, &values);
    let image = w.finish();
    let meta = TsFileReader::open(&image).expect("own image").chunks()[0].clone();
    let (header, sum_lens, chunk_end) = v3_header_bytes(&image, &meta);
    assert!(sum_lens
        .iter()
        .all(|&at| (2..=MAX_SUM_PARTIALS as u8).contains(&image[at])));
    assert_eq!(walk_checked(&image, &meta, "undamaged").0, 2);
    // Every strict prefix of the chunk.
    for cut in meta.offset as usize..chunk_end {
        let (decoded, largest) = walk_checked(&image[..cut], &meta, &format!("cut {cut}"));
        assert!(decoded < 2, "cut {cut}");
        assert!(
            largest <= RESERVATION_CAP_BYTES,
            "cut {cut}: {largest} bytes"
        );
    }
    // Every single bit of every header.
    let mut refused = 0;
    for &at in &header {
        for bit in 0..8 {
            let mut damaged = image.clone();
            damaged[at] ^= 1 << bit;
            let (decoded, largest) = walk_checked(&damaged, &meta, &format!("byte {at} bit {bit}"));
            refused += 2 - decoded;
            assert!(
                largest <= RESERVATION_CAP_BYTES,
                "byte {at} bit {bit}: {largest} bytes"
            );
        }
    }
    assert!(refused > 0);
    // Every `sum_len` either page could claim.
    for &at in &sum_lens {
        for forged in 0..=u8::MAX {
            let mut damaged = image.clone();
            damaged[at] = forged;
            let (_, largest) = walk_checked(&damaged, &meta, &format!("sum_len {forged} at {at}"));
            assert!(
                largest <= RESERVATION_CAP_BYTES,
                "sum_len {forged}: {largest} bytes"
            );
        }
    }
}

const FIXTURES: [(&str, &[u8], Version); 3] = [
    (
        "v1",
        include_bytes!("fixtures/parent_writer_v1.tsfile"),
        Version::V1,
    ),
    (
        "v2",
        include_bytes!("fixtures/parent_writer_v2.tsfile"),
        Version::V2,
    ),
    (
        "v3",
        include_bytes!("fixtures/writer_v3.tsfile"),
        Version::V3,
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

/// What every aggregate of `rows` must be: the exact sum rounded once,
/// extremes in `totalOrder` skipping NaN.
fn model(rows: &[(i64, TsValue)], agg: Aggregation) -> AggValue {
    let (Some(first), Some(last)) = (rows.first(), rows.last()) else {
        return AggValue::Empty;
    };
    let values = || rows.iter().map(|(_, v)| v.as_f64());
    let sum = || {
        let mut sum = ExactSum::new();
        values().for_each(|v| sum.add(v));
        sum.value()
    };
    let not_nan = || values().filter(|v| !v.is_nan());
    AggValue::Number(match agg {
        Aggregation::Count => rows.len() as f64,
        Aggregation::MinValue => not_nan().min_by(f64::total_cmp).unwrap_or(f64::INFINITY),
        Aggregation::MaxValue => not_nan()
            .max_by(f64::total_cmp)
            .unwrap_or(f64::NEG_INFINITY),
        Aggregation::Sum => sum(),
        Aggregation::Avg => sum() / rows.len() as f64,
        Aggregation::FirstValue => first.1.as_f64(),
        Aggregation::LastValue => last.1.as_f64(),
        Aggregation::MinTime => return AggValue::Time(first.0),
        Aggregation::MaxTime => return AggValue::Time(last.0),
    })
}

/// Equality that tells `-0.0` from `0.0` and two NaNs alike.
fn bits(v: AggValue) -> (u8, u64) {
    match v {
        AggValue::Empty => (0, 0),
        AggValue::Number(x) => (1, x.to_bits()),
        AggValue::Time(t) => (2, t as u64),
    }
}

const VALUE_AGGREGATES: [Aggregation; 5] = [
    Aggregation::Sum,
    Aggregation::Avg,
    Aggregation::MinValue,
    Aggregation::MaxValue,
    Aggregation::Count,
];

#[test]
fn images_written_before_this_change_decode_to_the_same_points() {
    for (version, image, format) in FIXTURES {
        let reader = TsFileReader::open(image).expect("fixture opens");
        assert_eq!(
            reader.filter().is_some(),
            format >= Version::V2,
            "{version}"
        );
        assert_eq!(reader.chunks().len(), FIXTURE_SENSORS.len(), "{version}");
        let engine = StorageEngine::new(EngineConfig {
            sorter: Algorithm::Backward(Default::default()),
            ..EngineConfig::default()
        });
        engine.adopt_file(image.to_vec()).expect("fixture adopts");
        let from_header = || {
            engine
                .obs()
                .snapshot()
                .counter(names::QUERY_PAGES_FROM_HEADER)
        };
        for (sensor, n) in FIXTURE_SENSORS {
            let key = SeriesKey::new("root.fix.d0", sensor);
            let want = fixture_rows(sensor, n);
            let [meta] = reader.chunks_for(&key) else {
                panic!("{version} {sensor}: one chunk per sensor");
            };
            assert_eq!(meta.version, format);
            // The typed decoder, page by page.
            let mut typed = Vec::new();
            for header in ChunkPages::open(image, meta).expect("chunk header") {
                assert_eq!(
                    header.stats.is_some(),
                    format == Version::V3 && meta.data_type != DataType::Text,
                    "{version} {sensor}"
                );
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
            // An engine reading the adopted file: rows, and every
            // aggregate over a cut range and the whole axis — the value
            // aggregates one at a time, so nothing but the header can
            // stand in for a page.
            assert_eq!(
                engine.query(&key, i64::MIN, i64::MAX),
                want,
                "{version} {sensor}"
            );
            let mid = fixture_time(n / 2);
            let before = from_header();
            for lo in [mid, i64::MIN] {
                let rows: Vec<(i64, TsValue)> =
                    want.iter().filter(|(t, _)| *t >= lo).cloned().collect();
                for agg in VALUE_AGGREGATES {
                    let got = engine.aggregate(&key, lo, i64::MAX, agg);
                    assert_eq!(
                        bits(got),
                        bits(model(&rows, agg)),
                        "{version} {sensor} {agg:?} from {lo}: {got:?}"
                    );
                }
            }
            let headers_used = from_header() - before;
            if format < Version::V3 {
                // Counts are answered from any header; the four value
                // aggregates of a v1/v2 page decode it.
                assert_eq!(
                    headers_used,
                    reader_pages(image, meta, mid) + reader_pages(image, meta, i64::MIN),
                    "{version} {sensor}: only the counts came from headers"
                );
            } else if meta.data_type != DataType::Text {
                assert_eq!(
                    headers_used,
                    5 * (reader_pages(image, meta, mid) + reader_pages(image, meta, i64::MIN)),
                    "{version} {sensor}: every whole page from its header"
                );
            }
            assert_eq!(
                engine.aggregate_many(
                    &key,
                    mid,
                    i64::MAX,
                    &[
                        Aggregation::FirstValue,
                        Aggregation::LastValue,
                        Aggregation::MaxTime
                    ]
                ),
                vec![
                    AggValue::Number(fixture_value(sensor, mid).as_f64()),
                    AggValue::Number(fixture_value(sensor, fixture_time(n - 1)).as_f64()),
                    AggValue::Time(fixture_time(n - 1)),
                ],
                "{version} {sensor}: ends"
            );
        }
    }
}

/// The pages of `meta` that lie wholly inside `[lo, ∞)`.
fn reader_pages(image: &[u8], meta: &ChunkMeta, lo: i64) -> u64 {
    ChunkPages::open(image, meta)
        .expect("chunk header")
        .filter(|h| h.min_time >= lo)
        .count() as u64
}

/// Regenerates `fixtures/writer_v3.tsfile` with the current writer:
/// `cargo test -p backsort-engine --test decoders -- --ignored`. The
/// committed file was written by the writer that introduced v3 and must
/// keep reading as the points above; rewrite it only for a new format.
#[test]
#[ignore = "writes a fixture into the source tree"]
fn write_the_v3_fixture() {
    let mut w = TsFileWriter::new();
    for (sensor, n) in FIXTURE_SENSORS {
        let rows = fixture_rows(sensor, n);
        let times: Vec<i64> = rows.iter().map(|(t, _)| *t).collect();
        let values: Vec<TsValue> = rows.into_iter().map(|(_, v)| v).collect();
        w.write_chunk(&SeriesKey::new("root.fix.d0", sensor), &times, &values);
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/writer_v3.tsfile"
    );
    std::fs::write(path, w.finish()).expect("fixture written");
}
