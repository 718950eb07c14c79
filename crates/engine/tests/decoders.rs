//! The typed page decoder, the TsFile footer and the WAL record decoder
//! against bytes they did not choose.
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
//!   footers), the v3 writer that introduced page statistics, and the v4
//!   writer that names a chunk's device and sensor apart —
//!   covering every value type, multi-page chunks and both integer
//!   encodings, are checked in under `fixtures/` and must decode to the
//!   points they were written from: through the typed decoder, the row
//!   adapters, and an engine that adopts them and answers every
//!   aggregate — from page headers only where the format stores them.
//! * TsFile footers and their key filter blocks, as recovery parses
//!   every listed image: seeded images cut at every byte and flipped at
//!   every bit parse or are refused, and a forged chunk count, filter
//!   length or footer offset is refused, never a panic, with no single
//!   allocation past what the image's bytes could describe.
//! * WAL records of every kind, each payload wrapped in a frame whose
//!   CRC is recomputed so the damage reaches the record decoder: every
//!   strict prefix is refused, every flipped bit gives `None` or a record
//!   that takes the whole frame, a forged point count, text length or
//!   name length is refused before anything is reserved for it, and no
//!   single allocation exceeds a small multiple of the frame.
//! * A WAL segment the earlier encoder wrote (`fixtures/parent_wal.log`:
//!   a batch of each type, a delete, a re-logged tombstone) replays to
//!   the records it was written from, and a durable engine opened on it
//!   answers their points.
//! * A directory an earlier build's durable engine wrote
//!   (`fixtures/parent_store/`: two files, a re-logged tombstone, and a
//!   delete logged after a compaction no pass persisted) recovers each
//!   delete over the files it masked when it was issued.
//! * Names the earlier record mangled: a dotted sensor's records replay
//!   under its own key, not the one its last `.` would split off, and
//!   its points and its delete read back under it across reopens; a
//!   name over `u16::MAX` bytes is refused before anything is logged, so
//!   the log behind it survives a reopen.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

use backsort_core::Algorithm;
use backsort_engine::encoding::{boolpack, gorilla, intcolumn, textpack, ts2diff, varint};
use backsort_engine::store::{crc32, replay_wal, StoreError, WalRecord};
use backsort_engine::tsfile::{
    ChunkMeta, ChunkPages, PageHeader, TsFileReader, TsFileWriter, Version, MAX_SUM_PARTIALS,
    PAGE_POINTS,
};
use backsort_engine::{
    AggValue, Aggregation, DataType, EngineConfig, ExactSum, FileHandle, PointBatch, SeriesKey,
    StorageEngine, TsValue, ValueColumn,
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
    let mut pos = meta.offset as usize;
    let names = if meta.version >= Version::V4 { 2 } else { 1 };
    for _ in 0..names {
        pos += 2 + usize::from(u16::from_le_bytes(image[pos..pos + 2].try_into().unwrap()));
    }
    pos += 1 + 4 + 16;
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

const FIXTURES: [(&str, &[u8], Version); 4] = [
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
    (
        "v4",
        include_bytes!("fixtures/writer_v4.tsfile"),
        Version::V4,
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
                    format >= Version::V3 && meta.data_type != DataType::Text,
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

/// The fixtures' image as `w` writes it.
fn fixture_image(mut w: TsFileWriter) -> Vec<u8> {
    for (sensor, n) in FIXTURE_SENSORS {
        let rows = fixture_rows(sensor, n);
        let times: Vec<i64> = rows.iter().map(|(t, _)| *t).collect();
        let values: Vec<TsValue> = rows.into_iter().map(|(_, v)| v).collect();
        w.write_chunk(&SeriesKey::new("root.fix.d0", sensor), &times, &values);
    }
    w.finish()
}

/// The writer's bytes are part of the format: an encoder rewritten for
/// speed must write the committed v3 image byte for byte, every codec's
/// pages and the page headers included.
#[test]
fn the_writer_reproduces_the_v3_fixture_byte_for_byte() {
    let (_, committed, _) = FIXTURES[2];
    let image = fixture_image(TsFileWriter::with_version(Version::V3));
    assert_eq!(image.len(), committed.len());
    let first_difference = image.iter().zip(committed).position(|(a, b)| a != b);
    assert_eq!(first_difference, None, "the image differs from the fixture");
}

/// The current format, v4, byte for byte: the v3 pages behind chunk
/// headers that name the device and the sensor apart.
#[test]
fn the_writer_reproduces_the_v4_fixture_byte_for_byte() {
    let (_, committed, _) = FIXTURES[3];
    let image = fixture_image(TsFileWriter::new());
    assert_eq!(image.len(), committed.len());
    let first_difference = image.iter().zip(committed).position(|(a, b)| a != b);
    assert_eq!(first_difference, None, "the image differs from the fixture");
}

/// Regenerates `fixtures/writer_v4.tsfile` with the current writer:
/// `cargo test -p backsort-engine --test decoders -- --ignored`. The
/// committed file was written by the writer that introduced v4 and must
/// keep reading as the points above; rewrite it only for a new format
/// (and keep the old file as that format's fixture).
#[test]
#[ignore = "writes a fixture into the source tree"]
fn write_the_v4_fixture() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/writer_v4.tsfile"
    );
    std::fs::write(path, fixture_image(TsFileWriter::new())).expect("fixture written");
}

/// A small v4 image from `seed`: one to four chunks over two devices,
/// of the types a flush writes most, each one or two pages long.
fn seeded_image(seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    let mut next = move |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % n
    };
    let mut w = TsFileWriter::new();
    let chunks = 1 + next(4);
    for c in 0..chunks {
        let key = SeriesKey::new(format!("root.f.d{}", c % 2), format!("s{c}"));
        let n = 1 + next(PAGE_POINTS as u64 + 40) as i64;
        let times: Vec<i64> = (0..n).map(|i| i * 3 + next(3) as i64).collect();
        let values: Vec<TsValue> = times
            .iter()
            .map(|&t| match c % 3 {
                0 => TsValue::Long(t * 7 - next(9) as i64),
                1 => TsValue::Double(t as f64 / 4.0),
                _ => TsValue::Text(format!("v{}", next(100))),
            })
            .collect();
        w.write_chunk(&key, &times, &values);
    }
    w.finish()
}

/// Parses `image` as recovery does, reporting whether it parsed and the
/// largest single allocation the parse asked for.
fn parse_footer(image: &[u8]) -> (bool, usize) {
    LARGEST_REQUEST.with(|c| c.set(0));
    let parsed = FileHandle::parse(0, image.to_vec()).is_some();
    (parsed, LARGEST_REQUEST.with(Cell::get))
}

/// The most one allocation of a footer's parse may ask for: each chunk
/// costs the footer eight offset bytes and becomes one [`ChunkMeta`].
fn footer_allocation_bound(image_len: usize) -> usize {
    image_len / 8 * std::mem::size_of::<ChunkMeta>() + image_len + 512
}

/// Where `image`'s footer keeps its chunk count and its filter length.
fn footer_fields(image: &[u8]) -> (usize, usize) {
    let at = image.len() - 6 - 8;
    let footer = u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
    let count = u32::from_le_bytes(image[footer..footer + 4].try_into().unwrap()) as usize;
    (footer, footer + 4 + count * 8)
}

#[test]
fn damaged_footers_and_key_filters_are_refused_or_parsed_never_a_panic_or_a_huge_reservation() {
    for seed in [3u64, 17, 40, 99] {
        let image = seeded_image(seed);
        let bound = footer_allocation_bound(image.len());
        let (parsed, largest) = parse_footer(&image);
        assert!(parsed, "seed {seed}: the image parses");
        assert!(largest <= bound, "seed {seed}: one allocation of {largest}");
        for cut in 0..image.len() {
            // `None`, or a parse: either way a bounded one.
            let (_, largest) = parse_footer(&image[..cut]);
            assert!(largest <= bound, "seed {seed} prefix {cut}: {largest}");
        }
        let mut damaged = image.clone();
        for bit in 0..image.len() * 8 {
            damaged[bit / 8] ^= 1 << (bit % 8);
            let (_, largest) = parse_footer(&damaged);
            assert!(largest <= bound, "seed {seed} bit {bit}: {largest}");
            damaged[bit / 8] = image[bit / 8];
        }
    }
}

#[test]
fn forged_chunk_counts_filter_lengths_and_footer_offsets_are_refused() {
    let image = seeded_image(17);
    let bound = footer_allocation_bound(image.len());
    let (count_at, filter_at) = footer_fields(&image);
    let count = u32::from_le_bytes(image[count_at..count_at + 4].try_into().unwrap());
    let filter_len = u32::from_le_bytes(image[filter_at..filter_at + 4].try_into().unwrap());
    let offset_at = image.len() - 6 - 8;
    let forge = |at: usize, bytes: &[u8]| {
        let mut forged = image.clone();
        forged[at..at + bytes.len()].copy_from_slice(bytes);
        forged
    };
    let mut forged = Vec::new();
    for c in [count + 1, u32::MAX / 2, u32::MAX] {
        forged.push((
            format!("chunk count {c}"),
            forge(count_at, &c.to_le_bytes()),
        ));
    }
    for f in [filter_len - 1, filter_len + 1, u32::MAX] {
        forged.push((
            format!("filter length {f}"),
            forge(filter_at, &f.to_le_bytes()),
        ));
    }
    for o in [image.len() as u64 - 3, u64::MAX] {
        forged.push((
            format!("footer offset {o}"),
            forge(offset_at, &o.to_le_bytes()),
        ));
    }
    for (what, image) in forged {
        let (parsed, largest) = parse_footer(&image);
        assert!(!parsed, "{what}: refused");
        assert!(largest <= bound, "{what}: one allocation of {largest}");
    }
}

/// One WAL frame, `len | payload | crc32`, around whatever `payload`
/// holds: the CRC is recomputed, so a damaged payload reaches the
/// record decoder instead of stopping at the checksum.
fn wal_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame
}

/// Decodes the one record `frame` holds, reporting the largest single
/// allocation the decode asked for. A record that decodes must take the
/// whole frame.
fn decode_record(frame: &[u8]) -> (Option<WalRecord>, usize) {
    LARGEST_REQUEST.with(|c| c.set(0));
    let mut pos = 0;
    let record = WalRecord::read_from(frame, &mut pos);
    let largest = LARGEST_REQUEST.with(Cell::get);
    if record.is_some() {
        assert_eq!(pos, frame.len(), "a record takes its whole frame");
    }
    (record, largest)
}

/// The most one allocation of a record's decode may ask for: a text
/// cell costs the frame at least its four length bytes and decodes to
/// one 24-byte `String`.
fn record_allocation_bound(frame_len: usize) -> usize {
    frame_len * 6 + 512
}

/// Records of every kind this build writes: a batch of each type —
/// empty and multi-byte text, NaN and −0.0 among the floats, an empty
/// batch — a delete and a re-logged tombstone, on a dotted sensor too.
fn wal_records() -> Vec<WalRecord> {
    let key = SeriesKey::new("root.wal.d1", "s.1");
    let batch = |values: ValueColumn| {
        let ts = (0..values.len() as i64).map(|i| i * 7 - 3).collect();
        WalRecord::PointBatch {
            key: key.clone(),
            batch: PointBatch::from_columns(ts, values).expect("a time per value"),
        }
    };
    vec![
        batch(ValueColumn::Int(vec![1, -2, i32::MAX, i32::MIN])),
        batch(ValueColumn::Long(vec![10, -20, i64::MAX])),
        batch(ValueColumn::Float(vec![1.5, f32::NAN, -0.0])),
        batch(ValueColumn::Double(vec![0.1, f64::NEG_INFINITY, -0.0])),
        batch(ValueColumn::Bool(vec![true, false, true])),
        batch(ValueColumn::Text(vec![
            "a".into(),
            "".into(),
            "état".into(),
        ])),
        batch(ValueColumn::Long(Vec::new())),
        WalRecord::Delete {
            key: key.clone(),
            t_lo: -5,
            t_hi: 1 << 40,
            horizon: 3,
        },
        WalRecord::Tombstone {
            key,
            t_lo: i64::MIN,
            t_hi: 9,
            horizon: u32::MAX,
        },
    ]
}

/// `record`'s payload as the current encoder writes it.
fn wal_payload(record: &WalRecord) -> Vec<u8> {
    let mut frame = Vec::new();
    record.encode_into(&mut frame);
    frame[4..frame.len() - 4].to_vec()
}

#[test]
fn damaged_wal_records_are_refused_or_whole_never_a_panic_or_a_huge_reservation() {
    // Every kind in one segment replays, in order.
    let mut segment = Vec::new();
    wal_records()
        .iter()
        .for_each(|r| r.encode_into(&mut segment));
    let (replayed, discarded) = replay_wal(&segment);
    assert_eq!(discarded, 0);
    assert!(replayed
        .iter()
        .map(wal_payload)
        .eq(wal_records().iter().map(wal_payload)));
    for record in wal_records() {
        let payload = wal_payload(&record);
        let frame = wal_frame(&payload);
        let bound = record_allocation_bound(frame.len());
        let (decoded, largest) = decode_record(&frame);
        // Bit for bit: NaN payloads and −0.0 compare by their bytes.
        let decoded = decoded.expect("the frame decodes");
        assert_eq!(wal_payload(&decoded), payload, "{record:?} round-trips");
        assert!(largest <= bound, "{record:?}: one allocation of {largest}");
        for cut in 0..payload.len() {
            let (decoded, largest) = decode_record(&wal_frame(&payload[..cut]));
            assert_eq!(decoded, None, "prefix {cut} of {record:?}");
            assert!(
                largest <= bound,
                "prefix {cut}: one allocation of {largest}"
            );
        }
        let mut damaged = payload.clone();
        for bit in 0..payload.len() * 8 {
            damaged[bit / 8] ^= 1 << (bit % 8);
            // `None`, or a record that took the whole frame.
            let (_, largest) = decode_record(&wal_frame(&damaged));
            assert!(largest <= bound, "bit {bit}: one allocation of {largest}");
            damaged[bit / 8] = payload[bit / 8];
        }
    }
}

/// A record encoded into a buffer with room for it allocates nothing —
/// no name string, no codec buffer — so the store's reused scratch
/// buffer makes a steady-state WAL append allocation-free.
#[test]
fn encoding_a_record_into_a_buffer_with_room_allocates_nothing() {
    let mut out = Vec::with_capacity(1 << 12);
    for record in wal_records() {
        out.clear();
        LARGEST_REQUEST.with(|c| c.set(0));
        record.encode_into(&mut out);
        assert_eq!(LARGEST_REQUEST.with(Cell::get), 0, "{record:?}");
        assert!(!out.is_empty());
    }
}

#[test]
fn forged_wal_counts_and_text_lengths_are_refused_before_anything_is_reserved() {
    let batch_head = |tag: DataType, count: u32| {
        let mut payload = vec![4, 1, 0, b'd', 1, 0, b's', tag.tag()];
        payload.extend_from_slice(&count.to_le_bytes());
        payload
    };
    let mut forged = Vec::new();
    for dt in [
        DataType::Int64,
        DataType::Double,
        DataType::Boolean,
        DataType::Text,
    ] {
        let mut payload = batch_head(dt, u32::MAX);
        payload.extend_from_slice(&[0; 16]);
        forged.push(payload);
    }
    // One point whose text claims four gigabytes.
    let mut text = batch_head(DataType::Text, 1);
    text.extend_from_slice(&5i64.to_le_bytes());
    text.extend_from_slice(&u32::MAX.to_le_bytes());
    text.extend_from_slice(b"abc");
    forged.push(text);
    // A name longer than what follows it.
    let mut name = vec![5];
    name.extend_from_slice(&u16::MAX.to_le_bytes());
    name.extend_from_slice(b"root.d");
    forged.push(name);
    for payload in forged {
        let (decoded, largest) = decode_record(&wal_frame(&payload));
        assert_eq!(decoded, None, "{payload:?}");
        assert!(largest <= 256, "{payload:?}: one allocation of {largest}");
    }
}

/// The records `fixtures/parent_wal.log` was written from, by the
/// encoder before a batch record carried the batch's byte form (kinds
/// 1–3: a dotted key, TS_2DIFF timestamps, the page's value codecs).
fn legacy_wal_records() -> Vec<WalRecord> {
    let key = |sensor: &str| SeriesKey::new("root.legacy.d1", sensor);
    let mut records: Vec<WalRecord> = ["i", "l", "f", "d", "b", "x"]
        .into_iter()
        .map(|sensor| WalRecord::PointBatch {
            key: key(sensor),
            batch: PointBatch::from_rows(legacy_rows(sensor)).expect("one type a sensor"),
        })
        .collect();
    records.push(WalRecord::Delete {
        key: key("l"),
        t_lo: 50,
        t_hi: 120,
        horizon: 0,
    });
    records.push(WalRecord::Tombstone {
        key: key("d"),
        t_lo: -5,
        t_hi: 5,
        horizon: 0,
    });
    records
}

fn legacy_rows(sensor: &str) -> Vec<(i64, TsValue)> {
    (0..40i64)
        .map(|i| i * 10 + (i * i) % 7 - 30)
        .map(|t| {
            let value = match sensor {
                "i" => TsValue::Int((t % 100) as i32 - 50),
                "l" => TsValue::Long(t * 3 - 17),
                "f" => TsValue::Float((t % 64) as f32 * 0.5),
                "d" => TsValue::Double(t as f64 * 0.125 - 1.0),
                "b" => TsValue::Bool(t % 3 == 0),
                _ => TsValue::Text(format!("v{t}é")),
            };
            (t, value)
        })
        .collect()
}

const PARENT_WAL: &[u8] = include_bytes!("fixtures/parent_wal.log");

#[test]
fn a_segment_written_before_this_change_replays_to_its_records() {
    let (records, discarded) = replay_wal(PARENT_WAL);
    assert_eq!(discarded, 0);
    assert_eq!(records, legacy_wal_records());
    // Damage reaches the legacy decoders too: refused or whole, never a
    // panic, and no reservation past their cap.
    let mut pos = 0;
    while pos < PARENT_WAL.len() {
        let len = u32::from_le_bytes(PARENT_WAL[pos..pos + 4].try_into().unwrap()) as usize;
        let mut damaged = PARENT_WAL[pos + 4..pos + 4 + len].to_vec();
        for bit in 0..len * 8 {
            damaged[bit / 8] ^= 1 << (bit % 8);
            let (_, largest) = decode_record(&wal_frame(&damaged));
            assert!(largest <= RESERVATION_CAP_BYTES, "bit {bit}: {largest}");
            damaged[bit / 8] ^= 1 << (bit % 8);
        }
        pos += 4 + len + 4;
    }
}

#[test]
fn a_durable_engine_recovers_a_segment_written_before_this_change() {
    let dir = scratch_dir("legacy-wal");
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    std::fs::write(dir.join("wal-1.log"), PARENT_WAL).expect("the segment");
    let config = || EngineConfig {
        sorter: Algorithm::Backward(Default::default()),
        shards: 2,
        ..EngineConfig::default()
    };
    // The second open reads what the first one persisted.
    for _ in 0..2 {
        let engine = StorageEngine::open(&dir, config()).expect("the legacy segment replays");
        assert_eq!(
            engine
                .obs()
                .counter_value(names::WAL_REPLAY_DISCARDED_BYTES),
            0
        );
        for sensor in ["i", "l", "f", "d", "b", "x"] {
            let key = SeriesKey::new("root.legacy.d1", sensor);
            let mut want = legacy_rows(sensor);
            if sensor == "l" {
                want.retain(|(t, _)| !(50..=120).contains(t));
            }
            assert_eq!(engine.query(&key, i64::MIN, i64::MAX), want, "{sensor}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The directory `fixtures/parent_store/`, which the durable engine of
/// the commit before tombstones carried stamps wrote, with
/// `memtable_max_points` 25, one shard and one series,
/// `root.legacy.d1.s`:
///
/// 1. 25 points `t ↦ t` at `0..25`: a rotation, whose pass persists
///    file F1 (`tsfile-3`);
/// 2. delete A, `[10, 19]`;
/// 3. rewrites `t ↦ -t` at `10..20`, then `flush`: the pass persists
///    file F2 (`tsfile-5`) and re-logs A as a kind-6 tombstone with
///    horizon 1 at the head of `wal-6`, the floor segment;
/// 4. `compact()`, with no pass after it;
/// 5. delete B, `[5, 14]`, logged as kind 5 with horizon 1 (the one
///    compacted file);
/// 6. `sync`, then drop.
///
/// The `MANIFEST` lists F1 and F2 as `gen:level` tokens.
const PARENT_STORE: [(&str, &[u8]); 4] = [
    ("MANIFEST", include_bytes!("fixtures/parent_store/MANIFEST")),
    (
        "tsfile-3.bstf",
        include_bytes!("fixtures/parent_store/tsfile-3.bstf"),
    ),
    (
        "tsfile-5.bstf",
        include_bytes!("fixtures/parent_store/tsfile-5.bstf"),
    ),
    (
        "wal-6.log",
        include_bytes!("fixtures/parent_store/wal-6.log"),
    ),
];

/// Recovered, A masks F1 only, so F2's rewrites stay visible, and B
/// masks both files. The second open reads what the first committed.
#[test]
fn a_directory_written_before_tombstone_stamps_recovers_its_deletes() {
    let dir = scratch_dir("parent-store");
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    for (name, bytes) in PARENT_STORE {
        std::fs::write(dir.join(name), bytes).expect("a fixture file");
    }
    let config = || EngineConfig {
        memtable_max_points: 25,
        ..one_shard()
    };
    let key = SeriesKey::new("root.legacy.d1", "s");
    let want: Vec<(i64, TsValue)> = (0..5)
        .map(|t| (t, TsValue::Long(t)))
        .chain((15..20).map(|t| (t, TsValue::Long(-t))))
        .chain((20..25).map(|t| (t, TsValue::Long(t))))
        .collect();
    for open in ["first", "second"] {
        let engine = StorageEngine::open(&dir, config()).expect("the directory recovers");
        assert_eq!(engine.query(&key, i64::MIN, i64::MAX), want, "{open} open");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh directory for a durable engine.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("backsort-decoders-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn one_shard() -> EngineConfig {
    EngineConfig {
        sorter: Algorithm::Backward(Default::default()),
        shards: 1,
        ..EngineConfig::default()
    }
}

/// The segments in `dir`, replayed oldest first.
fn replay_dir(dir: &Path) -> Vec<WalRecord> {
    let mut segments: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .expect("the directory")
        .map(|e| e.expect("an entry").path())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?;
            let gen = name
                .strip_prefix("wal-")?
                .strip_suffix(".log")?
                .parse()
                .ok()?;
            Some((gen, path))
        })
        .collect();
    segments.sort();
    let mut records = Vec::new();
    for (_, path) in segments {
        let (recs, discarded) = replay_wal(&std::fs::read(path).expect("the segment"));
        assert_eq!(discarded, 0);
        records.extend(recs);
    }
    records
}

/// A dotted sensor and the device its dot would split off are two
/// series in the log and in a flushed file: each record replays under
/// its own key, and each key answers its own points and its own delete
/// after a reopen — the first from the replayed log, the second from the
/// file that reopen persisted.
#[test]
fn a_dotted_sensor_replays_under_its_own_series() {
    let dir = scratch_dir("dotted");
    let dotted = SeriesKey::new("root.sg.d1", "s.1");
    let split = SeriesKey::new("root.sg.d1.s", "1");
    let batch = |sign: i64| {
        PointBatch::from_rows((0..10i64).map(|t| (t, TsValue::Long(sign * t)))).expect("Long rows")
    };
    let delete = |key: &SeriesKey, t_lo, t_hi| WalRecord::Delete {
        key: key.clone(),
        t_lo,
        t_hi,
        horizon: 0,
    };
    {
        let eng = StorageEngine::open(&dir, one_shard()).expect("open");
        eng.write_batch(&dotted, &batch(1)).expect("write");
        eng.write_batch(&split, &batch(-1)).expect("write");
        eng.delete_range(&dotted, 2, 3).expect("delete");
        eng.delete_range(&split, 6, 8).expect("delete");
        eng.sync().expect("sync");
    }
    assert_eq!(
        replay_dir(&dir),
        vec![
            WalRecord::PointBatch {
                key: dotted.clone(),
                batch: batch(1),
            },
            WalRecord::PointBatch {
                key: split.clone(),
                batch: batch(-1),
            },
            delete(&dotted, 2, 3),
            delete(&split, 6, 8),
        ]
    );
    let rows = |sign: i64, deleted: std::ops::RangeInclusive<i64>| -> Vec<(i64, TsValue)> {
        (0..10i64)
            .filter(|t| !deleted.contains(t))
            .map(|t| (t, TsValue::Long(sign * t)))
            .collect()
    };
    for _ in 0..2 {
        let eng = StorageEngine::open(&dir, one_shard()).expect("reopen");
        assert_eq!(eng.query(&dotted, i64::MIN, i64::MAX), rows(1, 2..=3));
        assert_eq!(eng.query(&split, i64::MIN, i64::MAX), rows(-1, 6..=8));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A v4 chunk names a dotted sensor and the device its dot would
/// split off apart; a v3 chunk's one dotted name reads back split.
#[test]
fn a_v4_chunk_keeps_a_dotted_sensor_apart_from_the_split_key() {
    let dotted = SeriesKey::new("root.sg.d1", "s.1");
    let split = SeriesKey::new("root.sg.d1.s", "1");
    for version in [Version::V3, Version::V4] {
        let mut w = TsFileWriter::with_version(version);
        w.write_chunk(&dotted, &[1], &[TsValue::Long(1)]);
        w.write_chunk(&split, &[2], &[TsValue::Long(2)]);
        let image = w.finish();
        let r = TsFileReader::open(&image).unwrap();
        let keys: Vec<&SeriesKey> = r.chunks().iter().map(|m| &m.key).collect();
        if version == Version::V4 {
            assert_eq!(keys, [&dotted, &split]);
            assert_eq!(r.query(&dotted, 0, 9), vec![(1, TsValue::Long(1))]);
            assert_eq!(r.query(&split, 0, 9), vec![(2, TsValue::Long(2))]);
        } else {
            assert_eq!(keys, [&split, &split]);
        }
    }
}

/// A name no `u16` length can hold is refused before anything is
/// logged, so the writes behind it keep their place in the log.
#[test]
fn an_over_long_name_is_refused_and_the_log_behind_it_survives() {
    let dir = scratch_dir("long-name");
    let key = SeriesKey::new("root.sg.d1", "s");
    let long = SeriesKey::new("root.sg.d1", "s".repeat(70_000));
    let batch = PointBatch::from_rows((0..5i64).map(|t| (t, TsValue::Long(t)))).expect("rows");
    let logged = |dir: &Path| replay_dir(dir).len();
    {
        let eng = StorageEngine::open(&dir, one_shard()).expect("open");
        eng.write_batch(&key, &batch).expect("write");
        eng.sync().expect("sync");
        for refused in [
            eng.write_batch(&long, &batch).map(|_| ()),
            eng.delete_range(&long, 0, 10).map(|_| ()),
        ] {
            match refused {
                Err(StoreError::Wal(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}");
                }
                other => panic!("{other:?}"),
            }
        }
        eng.sync().expect("sync");
        assert_eq!(logged(&dir), 1, "nothing was appended");
        assert!(eng.query(&long, i64::MIN, i64::MAX).is_empty());
        let later = PointBatch::from_rows([(100, TsValue::Long(100))]).expect("a row");
        eng.write_batch(&key, &later).expect("write");
        eng.sync().expect("sync");
    }
    let eng = StorageEngine::open(&dir, one_shard()).expect("reopen");
    let discarded = names::WAL_REPLAY_DISCARDED_BYTES;
    assert_eq!(eng.obs().counter_value(discarded), 0);
    assert_eq!(eng.query(&key, i64::MIN, i64::MAX).len(), 6);
    assert!(eng.query(&long, i64::MIN, i64::MAX).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
