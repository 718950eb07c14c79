//! A minimal TsFile-like on-disk layout: a sequence of per-sensor chunks
//! with encoded timestamp and value columns, closed by a chunk index.
//!
//! ```text
//! "BSTF1\0"                                magic
//! chunk*:
//!   key_len u16 | key bytes                "device.sensor"
//!   data_type u8
//!   num_points u32
//!   min_time i64 | max_time i64            little-endian
//!   page_count u32
//!   page*:
//!     min_time i64 | max_time i64 | count u32
//!     ts_len u32   | ts bytes              TS_2DIFF
//!     val_len u32  | val bytes             per-type encoding
//! footer (v2, written by [`TsFileWriter::finish`]):
//!   chunk_count u32
//!   (chunk_offset u64)*                    byte offsets of each chunk
//!   filter_len u32 | filter bytes          key existence filter
//!   footer_offset u64                      offset of chunk_count
//!   "BSTF2\0"                              trailing magic
//! footer (v1, legacy — still readable):
//!   chunk_count u32
//!   (chunk_offset u64)*
//!   footer_offset u64
//!   "BSTF1\0"                              trailing magic
//! ```
//!
//! The trailing magic is the version marker: `"BSTF1\0"` closes a v1
//! footer (no filter block), `"BSTF2\0"` a v2 footer carrying a
//! serialized [`KeyFilter`] over the file's `(device, sensor)` keys.
//! The leading magic stays `"BSTF1\0"` for both, so a v1 reader's
//! cheap header sniff still recognizes the family.

use crate::batch::{ColumnSlice, ValueColumn};
use crate::encoding::{boolpack, gorilla, intcolumn, textpack, ts2diff};
use crate::filter::{key_hash, KeyFilter};
use crate::types::{DataType, SeriesKey, TsValue};

const MAGIC: &[u8; 6] = b"BSTF1\0";
const MAGIC_V2: &[u8; 6] = b"BSTF2\0";

/// Points per page within a chunk (IoTDB's `max_number_of_points_in_page`
/// defaults to the same order of magnitude).
pub const PAGE_POINTS: usize = 1024;

/// One encoded chunk: a sensor's sorted, deduplicated points.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkMeta {
    /// Series identifier.
    pub key: SeriesKey,
    /// Value type.
    pub data_type: DataType,
    /// Points in the chunk.
    pub num_points: u32,
    /// Smallest timestamp.
    pub min_time: i64,
    /// Largest timestamp.
    pub max_time: i64,
    /// Byte offset of the chunk within the file.
    pub offset: u64,
}

/// Serializes chunks into an in-memory TsFile image.
#[derive(Debug, Default)]
pub struct TsFileWriter {
    buf: Vec<u8>,
    offsets: Vec<u64>,
    key_hashes: Vec<u64>,
    finished: bool,
}

impl TsFileWriter {
    /// Starts a new file image.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(MAGIC);
        Self {
            buf,
            offsets: Vec::new(),
            key_hashes: Vec::new(),
            finished: false,
        }
    }

    /// Appends one sensor chunk from dynamic row values. `times` must be
    /// sorted and deduplicated; `values` must all be one type and as long
    /// as `times`. Materializes a typed column and delegates to
    /// [`write_chunk_columns`](Self::write_chunk_columns) — the flush
    /// pipeline calls the columnar form directly and skips this copy.
    ///
    /// # Panics
    /// Panics on length mismatch, unsorted timestamps, or a value of the
    /// wrong type — all caller bugs.
    pub fn write_chunk(&mut self, key: &SeriesKey, times: &[i64], values: &[TsValue]) {
        assert_eq!(times.len(), values.len(), "column length mismatch");
        assert!(!values.is_empty(), "empty chunk");
        let Some(first_value) = values.first() else {
            return; // unreachable: the assert above rejects empty columns
        };
        let dt = first_value.data_type();
        let mut col = ValueColumn::with_capacity(dt, values.len());
        for v in values {
            if col.push(v.clone()).is_err() {
                type_mismatch(dt, v);
            }
        }
        self.write_chunk_columns(key, times, col.as_slice());
    }

    /// Appends one sensor chunk straight from column slices — the
    /// zero-materialization handoff the flush pipeline uses. `times` must
    /// be sorted and deduplicated and as long as `values`.
    ///
    /// # Panics
    /// Panics on length mismatch, empty input, or unsorted timestamps —
    /// all caller bugs.
    pub fn write_chunk_columns(&mut self, key: &SeriesKey, times: &[i64], values: ColumnSlice<'_>) {
        assert!(!self.finished, "writer already finished");
        assert_eq!(times.len(), values.len(), "column length mismatch");
        assert!(!times.is_empty(), "empty chunk");
        assert!(
            times.is_sorted_by(|a, b| a < b),
            "chunk timestamps must be strictly increasing"
        );
        let (Some(&first_time), Some(&last_time)) = (times.first(), times.last()) else {
            return; // unreachable: the asserts above reject empty columns
        };
        let data_type = values.data_type();

        self.key_hashes.push(key_hash(key));
        self.offsets.push(self.buf.len() as u64);
        let name = key.to_string();
        let name_bytes = name.as_bytes();
        assert!(name_bytes.len() <= u16::MAX as usize, "key too long");
        self.buf
            .extend_from_slice(&(name_bytes.len() as u16).to_le_bytes());
        self.buf.extend_from_slice(name_bytes);
        self.buf.push(data_type.tag());
        self.buf
            .extend_from_slice(&(times.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&first_time.to_le_bytes());
        self.buf.extend_from_slice(&last_time.to_le_bytes());

        // Pages: fixed point budget per page with its own statistics,
        // so range reads decode only the overlapping pages (IoTDB's
        // chunk -> page hierarchy).
        let page_count = times.len().div_ceil(PAGE_POINTS);
        self.buf
            .extend_from_slice(&(page_count as u32).to_le_bytes());
        for (page_idx, t_page) in times.chunks(PAGE_POINTS).enumerate() {
            let (Some(&page_first), Some(&page_last)) = (t_page.first(), t_page.last()) else {
                continue; // unreachable: chunks() never yields an empty slice
            };
            self.buf.extend_from_slice(&page_first.to_le_bytes());
            self.buf.extend_from_slice(&page_last.to_le_bytes());
            self.buf
                .extend_from_slice(&(t_page.len() as u32).to_le_bytes());
            let ts_bytes = ts2diff::encode(t_page);
            self.buf
                .extend_from_slice(&(ts_bytes.len() as u32).to_le_bytes());
            self.buf.extend_from_slice(&ts_bytes);
            let lo = page_idx * PAGE_POINTS;
            let val_bytes = encode_column_page(values, lo, lo + t_page.len());
            self.buf
                .extend_from_slice(&(val_bytes.len() as u32).to_le_bytes());
            self.buf.extend_from_slice(&val_bytes);
        }
    }

    /// Writes the v2 footer — chunk index plus the key existence filter
    /// built from every chunk written — and returns the file image.
    pub fn finish(mut self) -> Vec<u8> {
        self.finished = true;
        let footer_offset = self.buf.len() as u64;
        self.buf
            .extend_from_slice(&(self.offsets.len() as u32).to_le_bytes());
        for off in &self.offsets {
            self.buf.extend_from_slice(&off.to_le_bytes());
        }
        self.key_hashes.sort_unstable();
        self.key_hashes.dedup();
        let filter = KeyFilter::from_hashes(&self.key_hashes);
        self.buf
            .extend_from_slice(&(filter.serialized_len() as u32).to_le_bytes());
        filter.serialize_into(&mut self.buf);
        self.buf.extend_from_slice(&footer_offset.to_le_bytes());
        self.buf.extend_from_slice(MAGIC_V2);
        self.buf
    }

    /// Writes the legacy v1 footer (no filter block) and returns the
    /// file image. Production paths always write v2 via
    /// [`finish`](Self::finish); this exists so the reader's v1
    /// compatibility — files flushed before the format change must keep
    /// opening and querying — stays under test.
    pub fn finish_v1(mut self) -> Vec<u8> {
        self.finished = true;
        let footer_offset = self.buf.len() as u64;
        self.buf
            .extend_from_slice(&(self.offsets.len() as u32).to_le_bytes());
        for off in &self.offsets {
            self.buf.extend_from_slice(&off.to_le_bytes());
        }
        self.buf.extend_from_slice(&footer_offset.to_le_bytes());
        self.buf.extend_from_slice(MAGIC);
        self.buf
    }
}

/// Aborts on a chunk whose values do not all match the declared column
/// type — a caller bug per [`TsFileWriter::write_chunk`]'s contract.
#[cold]
fn type_mismatch(expected: DataType, got: &TsValue) -> ! {
    // analyzer:allow(panic-freedom): write_chunk documents mixed-type chunks as caller bugs; one cold panic site serves every per-value match arm below
    panic!("expected {expected:?}, got {got:?}")
}

/// Encodes one page's worth of a typed column (`lo..hi`) with the
/// per-type scheme: TS_2DIFF/RLE for integers, Gorilla for floats, bit
/// packing for booleans, length-prefixed UTF-8 for text. The INT32 arm
/// widens to `i64` per page so the shared integer codec applies.
fn encode_column_page(col: ColumnSlice<'_>, lo: usize, hi: usize) -> Vec<u8> {
    match col {
        ColumnSlice::Int(s) => {
            let widened: Vec<i64> = s[lo..hi].iter().map(|&v| i64::from(v)).collect();
            intcolumn::encode(&widened)
        }
        ColumnSlice::Long(s) => intcolumn::encode(&s[lo..hi]),
        ColumnSlice::Float(s) => gorilla::encode_f32(&s[lo..hi]),
        ColumnSlice::Double(s) => gorilla::encode_f64(&s[lo..hi]),
        ColumnSlice::Bool(s) => boolpack::encode(&s[lo..hi]),
        ColumnSlice::Text(s) => textpack::encode(&s[lo..hi]),
    }
}

/// Read access to a TsFile image.
#[derive(Debug)]
pub struct TsFileReader<'a> {
    buf: &'a [u8],
    chunks: Vec<ChunkMeta>,
    filter: Option<KeyFilter>,
}

impl<'a> TsFileReader<'a> {
    /// Parses the footer and chunk headers. `None` if the image is not a
    /// valid TsFile.
    ///
    /// Both footer versions open: the trailing magic selects the layout,
    /// and a v1 image simply carries no filter
    /// ([`TsFileReader::filter`] returns `None` — the caller falls back
    /// to chunk-index pruning alone).
    ///
    /// The chunk index is held sorted by series key (chunks of one key
    /// keep their file order), so key lookups binary-search instead of
    /// scanning — see [`TsFileReader::chunks_for`].
    pub fn open(buf: &'a [u8]) -> Option<Self> {
        if buf.len() < MAGIC.len() * 2 + 12 || &buf[..MAGIC.len()] != MAGIC {
            return None;
        }
        let trailer = buf.get(buf.len() - MAGIC.len()..)?;
        let v2 = if trailer == MAGIC_V2 {
            true
        } else if trailer == MAGIC {
            false
        } else {
            return None;
        };
        let footer_off_pos = buf.len() - MAGIC.len() - 8;
        let footer_offset = u64::from_le_bytes(
            buf.get(footer_off_pos..footer_off_pos + 8)?
                .try_into()
                .ok()?,
        ) as usize;
        let mut pos = footer_offset;
        let count = read_u32(buf, &mut pos)? as usize;
        let mut chunks = Vec::with_capacity(count);
        for _ in 0..count {
            let off = read_u64(buf, &mut pos)? as usize;
            chunks.push(Self::read_chunk_meta(buf, off)?);
        }
        let filter = if v2 {
            let filter_len = read_u32(buf, &mut pos)? as usize;
            let filter_bytes = buf.get(pos..pos.checked_add(filter_len)?)?;
            Some(KeyFilter::deserialize(filter_bytes)?)
        } else {
            None
        };
        // Stable, so multiple chunks of one key stay in file order
        // (older chunks first — the order dedup priorities rely on).
        chunks.sort_by(|a, b| a.key.cmp(&b.key));
        Some(Self {
            buf,
            chunks,
            filter,
        })
    }

    /// The v2 footer's key existence filter, or `None` for a v1 image.
    pub fn filter(&self) -> Option<&KeyFilter> {
        self.filter.as_ref()
    }

    /// Consumes the reader, handing the parsed filter (if any) to the
    /// caller — [`FileHandle::parse`](crate::read::FileHandle::parse)
    /// moves it into the cached handle instead of cloning.
    pub fn take_filter(&mut self) -> Option<KeyFilter> {
        self.filter.take()
    }

    fn read_chunk_meta(buf: &[u8], off: usize) -> Option<ChunkMeta> {
        let mut pos = off;
        let name_len = read_u16(buf, &mut pos)? as usize;
        let name = std::str::from_utf8(buf.get(pos..pos + name_len)?).ok()?;
        pos += name_len;
        let (device, sensor) = name.rsplit_once('.')?;
        let data_type = DataType::from_tag(*buf.get(pos)?)?;
        pos += 1;
        let num_points = read_u32(buf, &mut pos)?;
        let min_time = read_i64(buf, &mut pos)?;
        let max_time = read_i64(buf, &mut pos)?;
        Some(ChunkMeta {
            key: SeriesKey::new(device, sensor),
            data_type,
            num_points,
            min_time,
            max_time,
            offset: off as u64,
        })
    }

    /// The chunk index, sorted by series key (one key's chunks in file
    /// order).
    pub fn chunks(&self) -> &[ChunkMeta] {
        &self.chunks
    }

    /// The chunks of one series, located by binary search over the
    /// key-sorted index (in file order within the key).
    pub fn chunks_for(&self, key: &SeriesKey) -> &[ChunkMeta] {
        chunks_for(&self.chunks, key)
    }

    /// Decodes one chunk's points (all pages).
    pub fn read_chunk(&self, meta: &ChunkMeta) -> Option<Vec<(i64, TsValue)>> {
        self.read_chunk_range(meta, i64::MIN, i64::MAX)
            .map(|(pts, _)| pts)
    }

    /// Decodes only the pages of a chunk that overlap `[t_lo, t_hi]`,
    /// returning the in-range points and how many pages were decoded
    /// (the pruning the page statistics buy).
    pub fn read_chunk_range(
        &self,
        meta: &ChunkMeta,
        t_lo: i64,
        t_hi: i64,
    ) -> Option<(Vec<(i64, TsValue)>, usize)> {
        read_chunk_range(self.buf, meta, t_lo, t_hi)
    }

    /// Reads all points of `key` within `[t_lo, t_hi]`, binary-searching
    /// the key-sorted chunk index and pruning chunks and pages by their
    /// min/max statistics.
    pub fn query(&self, key: &SeriesKey, t_lo: i64, t_hi: i64) -> Vec<(i64, TsValue)> {
        let mut out = Vec::new();
        for meta in self.chunks_for(key) {
            if meta.max_time < t_lo || meta.min_time > t_hi {
                continue;
            }
            if let Some((points, _)) = self.read_chunk_range(meta, t_lo, t_hi) {
                out.extend(points);
            }
        }
        out
    }
}

/// The contiguous run of `chunks` belonging to `key`, located by binary
/// search. Requires `chunks` sorted by key, as [`TsFileReader::open`]
/// produces.
pub fn chunks_for<'c>(chunks: &'c [ChunkMeta], key: &SeriesKey) -> &'c [ChunkMeta] {
    let lo = chunks.partition_point(|m| m.key < *key);
    let hi = lo + chunks[lo..].partition_point(|m| m.key == *key);
    &chunks[lo..hi]
}

/// A decoded page: its timestamp column beside its typed value column,
/// index-aligned — what the one page decoder ([`PageHeader::decode`])
/// returns and the block cache holds.
pub type PageColumns = (Vec<i64>, ValueColumn);

/// One page's header: the statistics stored ahead of its encoded
/// columns, and where those columns lie in the image. A reader prunes
/// on `min_time`/`max_time`, and a fold that needs only counts and
/// times can take a whole page from here without decoding it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageHeader {
    /// Page ordinal within its chunk.
    pub index: u32,
    /// Smallest timestamp in the page.
    pub min_time: i64,
    /// Largest timestamp in the page.
    pub max_time: i64,
    /// Points in the page.
    pub count: u32,
    ts: std::ops::Range<usize>,
    values: std::ops::Range<usize>,
}

impl PageHeader {
    /// Whether any of the page's points can fall inside `[t_lo, t_hi]`.
    pub fn overlaps(&self, t_lo: i64, t_hi: i64) -> bool {
        self.max_time >= t_lo && self.min_time <= t_hi
    }

    /// Decodes the page's timestamp column alone, verifying it carries
    /// exactly `count` entries. `None` on corruption.
    pub fn decode_times(&self, buf: &[u8]) -> Option<Vec<i64>> {
        let times = ts2diff::decode(buf.get(self.ts.clone())?)?;
        (times.len() == self.count as usize).then_some(times)
    }

    /// The page decoder: both columns, typed, each verified to carry
    /// exactly `count` entries. `None` on corruption.
    pub fn decode(&self, buf: &[u8], data_type: DataType) -> Option<PageColumns> {
        let times = self.decode_times(buf)?;
        let values = ValueColumn::decode(data_type, times.len(), buf.get(self.values.clone())?)?;
        Some((times, values))
    }
}

/// Walks one chunk's page headers in file order, decoding nothing. A
/// header that does not parse ends the walk early;
/// [`read_chunk_range`] notices by the point total falling short.
#[derive(Debug, Clone)]
pub struct ChunkPages<'a> {
    buf: &'a [u8],
    pos: usize,
    pages_left: u32,
    next_index: u32,
    num_points: u32,
}

impl<'a> ChunkPages<'a> {
    /// Positions the walk at `meta`'s first page. `None` when the chunk
    /// header does not parse.
    pub fn open(buf: &'a [u8], meta: &ChunkMeta) -> Option<Self> {
        let mut pos = usize::try_from(meta.offset).ok()?;
        let name_len = read_u16(buf, &mut pos)? as usize;
        pos = pos.checked_add(name_len + 1)?; // name + type tag
        let num_points = read_u32(buf, &mut pos)?;
        pos = pos.checked_add(16)?; // chunk min/max time
        let pages_left = read_u32(buf, &mut pos)?;
        Some(Self {
            buf,
            pos,
            pages_left,
            next_index: 0,
            num_points,
        })
    }

    /// The point count the chunk header declares.
    pub fn num_points(&self) -> u32 {
        self.num_points
    }

    fn read_header(&mut self) -> Option<PageHeader> {
        let (buf, pos) = (self.buf, &mut self.pos);
        let min_time = read_i64(buf, pos)?;
        let max_time = read_i64(buf, pos)?;
        let count = read_u32(buf, pos)?;
        let ts_len = read_u32(buf, pos)? as usize;
        let ts = *pos..pos.checked_add(ts_len)?;
        *pos = ts.end;
        let val_len = read_u32(buf, pos)? as usize;
        let values = *pos..pos.checked_add(val_len)?;
        *pos = values.end;
        let index = self.next_index;
        self.next_index = index.wrapping_add(1);
        Some(PageHeader {
            index,
            min_time,
            max_time,
            count,
            ts,
            values,
        })
    }
}

impl Iterator for ChunkPages<'_> {
    type Item = PageHeader;

    fn next(&mut self) -> Option<PageHeader> {
        if self.pages_left == 0 {
            return None;
        }
        self.pages_left -= 1;
        let header = self.read_header();
        if header.is_none() {
            self.pages_left = 0;
        }
        header
    }
}

/// The index range of the ascending `times` that lies inside
/// `[t_lo, t_hi]`, by two binary searches (empty, never inverted, should
/// a corrupt page's timestamps not ascend).
pub(crate) fn range_within(times: &[i64], t_lo: i64, t_hi: i64) -> std::ops::Range<usize> {
    let lo = times.partition_point(|&t| t < t_lo);
    lo..times.partition_point(|&t| t <= t_hi).max(lo)
}

/// Decodes only the pages of a chunk that overlap `[t_lo, t_hi]`,
/// returning the in-range points as rows and how many pages were decoded
/// (the pruning the page statistics buy) — the row adapter over
/// [`PageHeader::decode`] that compaction and tests read through.
/// `None` on a corrupt chunk.
pub fn read_chunk_range(
    buf: &[u8],
    meta: &ChunkMeta,
    t_lo: i64,
    t_hi: i64,
) -> Option<(Vec<(i64, TsValue)>, usize)> {
    let pages = ChunkPages::open(buf, meta)?;
    let num_points = pages.num_points() as usize;
    let mut out = Vec::new();
    let mut pages_decoded = 0usize;
    let mut points_seen = 0usize;
    for header in pages {
        points_seen = points_seen.checked_add(header.count as usize)?;
        if !header.overlaps(t_lo, t_hi) {
            continue; // page pruned by its statistics
        }
        pages_decoded += 1;
        let (times, values) = header.decode(buf, meta.data_type)?;
        let kept = range_within(&times, t_lo, t_hi);
        values
            .slice(kept.start, kept.end)
            .zip_rows_into(&times[kept], &mut out);
    }
    if points_seen != num_points {
        return None;
    }
    Some((out, pages_decoded))
}

fn read_u16(buf: &[u8], pos: &mut usize) -> Option<u16> {
    let v = u16::from_le_bytes(buf.get(*pos..*pos + 2)?.try_into().ok()?);
    *pos += 2;
    Some(v)
}

fn read_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let v = u32::from_le_bytes(buf.get(*pos..*pos + 4)?.try_into().ok()?);
    *pos += 4;
    Some(v)
}

fn read_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let v = u64::from_le_bytes(buf.get(*pos..*pos + 8)?.try_into().ok()?);
    *pos += 8;
    Some(v)
}

fn read_i64(buf: &[u8], pos: &mut usize) -> Option<i64> {
    read_u64(buf, pos).map(|v| v as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> SeriesKey {
        SeriesKey::new("root.sg.d1", s)
    }

    #[test]
    fn roundtrip_two_chunks() {
        let mut w = TsFileWriter::new();
        let t1: Vec<i64> = (0..100).collect();
        let v1: Vec<TsValue> = (0..100).map(|i| TsValue::Double(i as f64 * 0.5)).collect();
        w.write_chunk(&key("s1"), &t1, &v1);
        let t2: Vec<i64> = (10..20).collect();
        let v2: Vec<TsValue> = (10..20).map(TsValue::Int).collect();
        w.write_chunk(&key("s2"), &t2, &v2);
        let image = w.finish();

        let r = TsFileReader::open(&image).expect("valid file");
        assert_eq!(r.chunks().len(), 2);
        assert_eq!(r.chunks()[0].key, key("s1"));
        assert_eq!(r.chunks()[0].num_points, 100);
        assert_eq!(r.chunks()[0].min_time, 0);
        assert_eq!(r.chunks()[0].max_time, 99);

        let pts = r.read_chunk(&r.chunks()[0]).unwrap();
        assert_eq!(pts.len(), 100);
        assert_eq!(pts[3], (3, TsValue::Double(1.5)));
        let pts2 = r.read_chunk(&r.chunks()[1]).unwrap();
        assert_eq!(pts2[0], (10, TsValue::Int(10)));
    }

    #[test]
    fn query_prunes_and_filters() {
        let mut w = TsFileWriter::new();
        w.write_chunk(
            &key("s"),
            &[1, 5, 9],
            &[TsValue::Long(1), TsValue::Long(5), TsValue::Long(9)],
        );
        w.write_chunk(
            &key("s"),
            &[11, 15],
            &[TsValue::Long(11), TsValue::Long(15)],
        );
        let image = w.finish();
        let r = TsFileReader::open(&image).unwrap();
        let got = r.query(&key("s"), 5, 12);
        assert_eq!(
            got,
            vec![
                (5, TsValue::Long(5)),
                (9, TsValue::Long(9)),
                (11, TsValue::Long(11))
            ]
        );
        assert!(r.query(&key("other"), 0, 100).is_empty());
        assert!(r.query(&key("s"), 100, 200).is_empty());
    }

    #[test]
    fn all_types_roundtrip() {
        let mut w = TsFileWriter::new();
        w.write_chunk(&key("i"), &[1, 2], &[TsValue::Int(-5), TsValue::Int(7)]);
        w.write_chunk(
            &key("l"),
            &[1, 2],
            &[TsValue::Long(-5), TsValue::Long(1 << 40)],
        );
        w.write_chunk(
            &key("f"),
            &[1, 2],
            &[TsValue::Float(1.5), TsValue::Float(-2.5)],
        );
        w.write_chunk(
            &key("d"),
            &[1, 2],
            &[TsValue::Double(0.1), TsValue::Double(f64::MAX)],
        );
        w.write_chunk(
            &key("b"),
            &[1, 2],
            &[TsValue::Bool(true), TsValue::Bool(false)],
        );
        let image = w.finish();
        let r = TsFileReader::open(&image).unwrap();
        assert_eq!(r.chunks().len(), 5);
        for meta in r.chunks() {
            let pts = r.read_chunk(meta).unwrap();
            assert_eq!(pts.len(), 2);
        }
    }

    #[test]
    fn chunk_index_is_key_sorted_and_binary_searchable() {
        // Write chunks in non-key order, with two chunks for "m".
        let mut w = TsFileWriter::new();
        w.write_chunk(&key("z"), &[1, 2], &[TsValue::Long(1), TsValue::Long(2)]);
        w.write_chunk(&key("m"), &[1, 5], &[TsValue::Long(1), TsValue::Long(5)]);
        w.write_chunk(&key("a"), &[3], &[TsValue::Long(3)]);
        w.write_chunk(&key("m"), &[7, 9], &[TsValue::Long(7), TsValue::Long(9)]);
        let image = w.finish();
        let r = TsFileReader::open(&image).unwrap();
        let keys: Vec<&SeriesKey> = r.chunks().iter().map(|m| &m.key).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "index key-sorted");
        let m = r.chunks_for(&key("m"));
        assert_eq!(m.len(), 2);
        assert_eq!(
            (m[0].min_time, m[1].min_time),
            (1, 7),
            "chunks of one key keep file order"
        );
        assert_eq!(r.chunks_for(&key("a")).len(), 1);
        assert!(r.chunks_for(&key("nope")).is_empty());
        // Query still sees all of "m" across both chunks.
        assert_eq!(r.query(&key("m"), 0, 10).len(), 4);
    }

    #[test]
    fn corrupt_images_are_rejected() {
        assert!(TsFileReader::open(b"").is_none());
        assert!(TsFileReader::open(b"not a tsfile at all").is_none());
        let mut w = TsFileWriter::new();
        w.write_chunk(&key("s"), &[1], &[TsValue::Int(1)]);
        let mut image = w.finish();
        let n = image.len();
        image[n - 1] ^= 0xFF; // break trailing magic
        assert!(TsFileReader::open(&image).is_none());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_chunk_is_a_caller_bug() {
        let mut w = TsFileWriter::new();
        w.write_chunk(&key("s"), &[2, 1], &[TsValue::Int(1), TsValue::Int(2)]);
    }

    #[test]
    fn empty_file_roundtrip() {
        let image = TsFileWriter::new().finish();
        let r = TsFileReader::open(&image).unwrap();
        assert!(r.chunks().is_empty());
    }

    #[test]
    fn v2_footer_carries_a_key_filter() {
        let mut w = TsFileWriter::new();
        w.write_chunk(&key("s1"), &[1, 2], &[TsValue::Long(1), TsValue::Long(2)]);
        w.write_chunk(&key("s2"), &[3], &[TsValue::Long(3)]);
        let image = w.finish();
        let r = TsFileReader::open(&image).unwrap();
        let filter = r.filter().expect("v2 images carry a filter");
        assert!(filter.may_contain(&key("s1")));
        assert!(filter.may_contain(&key("s2")));
        assert!(
            !filter.may_contain(&SeriesKey::new("root.other.d9", "nope")),
            "an absent key must be pruned (deterministic hash, no collision here)"
        );
    }

    #[test]
    fn v1_images_still_open_and_query() {
        // The backward-compatibility acceptance case: a legacy footer
        // without a filter block opens, indexes, and queries exactly as
        // before.
        let mut w = TsFileWriter::new();
        w.write_chunk(
            &key("s"),
            &[1, 5, 9],
            &[TsValue::Long(1), TsValue::Long(5), TsValue::Long(9)],
        );
        let image = w.finish_v1();
        let r = TsFileReader::open(&image).unwrap();
        assert!(r.filter().is_none(), "v1 images have no filter");
        assert_eq!(r.chunks().len(), 1);
        assert_eq!(
            r.query(&key("s"), 2, 9),
            vec![(5, TsValue::Long(5)), (9, TsValue::Long(9))]
        );
    }

    #[test]
    fn corrupt_v2_filter_block_is_rejected() {
        let mut w = TsFileWriter::new();
        w.write_chunk(&key("s"), &[1], &[TsValue::Int(1)]);
        let image = w.finish();
        let r = TsFileReader::open(&image).unwrap();
        // Locate the filter block: it sits between the chunk offsets and
        // the trailing footer_offset. Truncate its declared length by
        // corrupting the length prefix.
        let footer_off_pos = image.len() - 6 - 8;
        let footer_offset = u64::from_le_bytes(
            image[footer_off_pos..footer_off_pos + 8]
                .try_into()
                .unwrap(),
        ) as usize;
        let filter_len_pos = footer_offset + 4 + 8; // chunk_count + one offset
        let mut bad = image.clone();
        bad[filter_len_pos] ^= 0xFF;
        assert!(
            TsFileReader::open(&bad).is_none(),
            "a mangled filter length must reject the image, not mis-prune"
        );
        drop(r);
    }
}

#[cfg(test)]
mod page_tests {
    use super::*;

    fn key() -> SeriesKey {
        SeriesKey::new("root.sg.d1", "s")
    }

    fn big_chunk(n: usize) -> Vec<u8> {
        let times: Vec<i64> = (0..n as i64).collect();
        let values: Vec<TsValue> = times.iter().map(|&t| TsValue::Long(t * 3)).collect();
        let mut w = TsFileWriter::new();
        w.write_chunk(&key(), &times, &values);
        w.finish()
    }

    #[test]
    fn multi_page_chunk_roundtrips() {
        let image = big_chunk(5 * PAGE_POINTS + 17);
        let r = TsFileReader::open(&image).unwrap();
        let pts = r.read_chunk(&r.chunks()[0]).unwrap();
        assert_eq!(pts.len(), 5 * PAGE_POINTS + 17);
        assert_eq!(pts[4_000], (4_000, TsValue::Long(12_000)));
    }

    #[test]
    fn narrow_range_decodes_one_page() {
        let image = big_chunk(10 * PAGE_POINTS);
        let r = TsFileReader::open(&image).unwrap();
        let meta = &r.chunks()[0];
        // A range inside page 3 only.
        let lo = 3 * PAGE_POINTS as i64 + 10;
        let hi = lo + 50;
        let (pts, pages) = r.read_chunk_range(meta, lo, hi).unwrap();
        assert_eq!(pts.len(), 51);
        assert_eq!(pages, 1, "only the containing page should be decoded");
        // A range spanning a page boundary decodes two.
        let lo = 4 * PAGE_POINTS as i64 - 5;
        let (_, pages) = r.read_chunk_range(meta, lo, lo + 10).unwrap();
        assert_eq!(pages, 2);
        // Out-of-range decodes none.
        let (pts, pages) = r.read_chunk_range(meta, -100, -1).unwrap();
        assert!(pts.is_empty());
        assert_eq!(pages, 0);
    }

    #[test]
    fn page_boundary_exactness() {
        let image = big_chunk(2 * PAGE_POINTS);
        let r = TsFileReader::open(&image).unwrap();
        let meta = &r.chunks()[0];
        // Exactly the last element of page 0.
        let t = PAGE_POINTS as i64 - 1;
        let (pts, pages) = r.read_chunk_range(meta, t, t).unwrap();
        assert_eq!(pts, vec![(t, TsValue::Long(t * 3))]);
        assert_eq!(pages, 1);
        // Exactly the first element of page 1.
        let t = PAGE_POINTS as i64;
        let (pts, pages) = r.read_chunk_range(meta, t, t).unwrap();
        assert_eq!(pts, vec![(t, TsValue::Long(t * 3))]);
        assert_eq!(pages, 1);
    }

    #[test]
    fn chunk_pages_walks_headers_without_decoding() {
        let image = big_chunk(10 * PAGE_POINTS + 5);
        let r = TsFileReader::open(&image).unwrap();
        let meta = &r.chunks()[0];
        let pages = ChunkPages::open(&image, meta).expect("chunk header parses");
        assert_eq!(pages.num_points() as usize, 10 * PAGE_POINTS + 5);
        let headers: Vec<PageHeader> = pages.collect();
        assert_eq!(headers.len(), 11);
        for (i, h) in headers.iter().enumerate() {
            assert_eq!(h.index as usize, i);
            assert_eq!(h.min_time, (i * PAGE_POINTS) as i64);
        }
        assert_eq!(headers[10].count, 5);
        assert_eq!(headers[10].max_time, (10 * PAGE_POINTS + 4) as i64);
        assert!(headers[3].overlaps(3 * PAGE_POINTS as i64 + 10, i64::MAX));
        assert!(!headers[3].overlaps(4 * PAGE_POINTS as i64, i64::MAX));
        // A chunk offset past the image does not parse.
        let mut bad = meta.clone();
        bad.offset = image.len() as u64;
        assert!(ChunkPages::open(&image, &bad).is_none());
    }

    #[test]
    fn typed_page_decode_matches_the_row_adapter() {
        let image = big_chunk(3 * PAGE_POINTS + 100);
        let r = TsFileReader::open(&image).unwrap();
        let meta = &r.chunks()[0];
        let mut rows = Vec::new();
        for header in ChunkPages::open(&image, meta).unwrap() {
            let (times, values) = header.decode(&image, meta.data_type).expect("own page");
            assert_eq!(times.len(), header.count as usize);
            assert_eq!(times.first(), Some(&header.min_time));
            assert_eq!(times.last(), Some(&header.max_time));
            assert_eq!(header.decode_times(&image), Some(times.clone()));
            assert!(matches!(values, ValueColumn::Long(_)));
            values.as_slice().zip_rows_into(&times, &mut rows);
        }
        assert_eq!(Some(rows), r.read_chunk(meta));
    }

    #[test]
    fn tiny_chunk_is_single_page() {
        let image = big_chunk(3);
        let r = TsFileReader::open(&image).unwrap();
        let (pts, pages) = r
            .read_chunk_range(&r.chunks()[0], i64::MIN, i64::MAX)
            .unwrap();
        assert_eq!(pts.len(), 3);
        assert_eq!(pages, 1);
    }
}
