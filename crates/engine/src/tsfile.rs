//! A minimal TsFile-like on-disk layout: a sequence of per-sensor chunks
//! with encoded timestamp and value columns, closed by a chunk index.
//!
//! ```text
//! "BSTF1\0"                                magic
//! chunk*:
//!   device_len u16 | device                v4; the batch payload's names
//!   sensor_len u16 | sensor
//!   (v1–v3: key_len u16 | "device.sensor", split at its last `.`)
//!   data_type u8
//!   num_points u32
//!   min_time i64 | max_time i64            little-endian
//!   page_count u32
//!   page*:
//!     min_time i64 | max_time i64 | count u32      count in 1..=PAGE_POINTS
//!     (from v3, every type but TEXT:)
//!     min f64 | max f64                    over the values' f64 images
//!     sum_len u8 | (partial f64)*sum_len   the exact sum; 0xFF = no sum
//!     ts_len u32   | ts bytes              TS_2DIFF
//!     val_len u32  | val bytes             per-type encoding
//! footer (v4, written by [`TsFileWriter::finish`]; v2 and v3 the same):
//!   chunk_count u32
//!   (chunk_offset u64)*                    byte offsets of each chunk
//!   filter_len u32 | filter bytes          key existence filter
//!   footer_offset u64                      offset of chunk_count
//!   "BSTF4\0"                              trailing magic ("BSTF3\0", "BSTF2\0")
//! footer (v1, legacy — still readable):
//!   chunk_count u32
//!   (chunk_offset u64)*
//!   footer_offset u64
//!   "BSTF1\0"                              trailing magic
//! ```
//!
//! The trailing magic is the [`Version`] marker: `"BSTF1\0"` closes a v1
//! footer (no filter block), `"BSTF2\0"` a v2 footer carrying a
//! serialized [`KeyFilter`] over the file's `(device, sensor)` keys, and
//! `"BSTF3\0"` the same footer over pages whose headers carry value
//! statistics ([`PageStats`]), and `"BSTF4\0"` the v3 image whose chunk
//! headers name the device and the sensor apart (a v1–v3 sensor `s.1`
//! reads back split at its name's last `.`). The leading magic stays
//! `"BSTF1\0"` for all four, so a cheap header sniff still recognizes
//! the family.
//!
//! A v3 page's sum is stored as the non-overlapping partials of its
//! exact sum (the expansion Shewchuk's and Python's `math.fsum` keep, in
//! increasing magnitude, at most [`MAX_SUM_PARTIALS`]): adding them to a
//! query's [`ExactSum`] is the same as adding the page's values, so an
//! aggregate answered from headers equals the decoded one bit for bit.
//! `sum_len = 0xFF` says the page has no sum — it holds a NaN or an
//! infinity, or its sum needs more partials than a header holds — and a
//! sum over it decodes the page.

use crate::batch::{put_key, ColumnSlice, Unread, ValueColumn};
use crate::encoding::bitio::BitWriter;
use crate::encoding::{boolpack, gorilla, intcolumn, textpack, ts2diff};
use crate::filter::{key_hash, KeyFilter};
use crate::stats::{for_each_image, max_of, min_of, ExactSum};
use crate::types::{DataType, SeriesKey, TsValue};

const MAGIC: &[u8; 6] = b"BSTF1\0";
const MAGIC_V2: &[u8; 6] = b"BSTF2\0";
const MAGIC_V3: &[u8; 6] = b"BSTF3\0";
const MAGIC_V4: &[u8; 6] = b"BSTF4\0";

/// Points per page within a chunk (IoTDB's `max_number_of_points_in_page`
/// defaults to the same order of magnitude). A page header declaring
/// more is refused.
pub const PAGE_POINTS: usize = 1024;

/// The most partials a v3 page header stores for its sum.
pub const MAX_SUM_PARTIALS: usize = 8;

/// `sum_len` of a v3 page that stores no sum.
const NO_SUM: u8 = 0xFF;

/// The format generation of an image, named by its trailing magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Version {
    /// No key filter in the footer.
    V1,
    /// A key existence filter in the footer.
    V2,
    /// The v2 footer, and value statistics in every non-TEXT page header.
    V3,
    /// The v3 image, a chunk naming its device and its sensor apart.
    V4,
}

impl Version {
    fn magic(self) -> &'static [u8; 6] {
        match self {
            Version::V1 => MAGIC,
            Version::V2 => MAGIC_V2,
            Version::V3 => MAGIC_V3,
            Version::V4 => MAGIC_V4,
        }
    }

    /// How many length-prefixed names a chunk header starts with: the
    /// device and the sensor, or (before v4) one dotted name.
    fn names(self) -> usize {
        1 + usize::from(self >= Version::V4)
    }

    fn has_filter(self) -> bool {
        self >= Version::V2
    }

    /// Whether this version's pages of type `data_type` carry
    /// [`PageStats`].
    fn has_stats(self, data_type: DataType) -> bool {
        self >= Version::V3 && data_type != DataType::Text
    }
}

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
    /// The format of the image the chunk lies in — which decides how its
    /// page headers are laid out.
    pub version: Version,
}

/// Serializes chunks into an in-memory TsFile image.
#[derive(Debug)]
pub struct TsFileWriter {
    version: Version,
    buf: Vec<u8>,
    offsets: Vec<u64>,
    key_hashes: Vec<u64>,
    finished: bool,
    /// A page's encoded values, held until its statistics (known only
    /// after the values' pass) are in front of them in `buf`.
    page: Vec<u8>,
    /// The bit writer every page's encoders pack through.
    bits: BitWriter,
}

impl Default for TsFileWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl TsFileWriter {
    /// Starts a new file image in the current format (v4).
    pub fn new() -> Self {
        Self::with_version(Version::V4)
    }

    /// Starts a new file image in a given format. Production paths
    /// always write v4 via [`new`](Self::new); the older formats exist so
    /// the reader's compatibility with files written before each format
    /// change — they must keep opening and answering — stays under test
    /// and under benchmark.
    pub fn with_version(version: Version) -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(MAGIC);
        Self {
            version,
            buf,
            offsets: Vec::new(),
            key_hashes: Vec::new(),
            finished: false,
            page: Vec::new(),
            bits: BitWriter::new(),
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
        if self.version.names() == 2 {
            let named = put_key(&mut self.buf, &key.device, &key.sensor);
            assert!(named.is_ok(), "key too long");
        } else {
            let name = key.to_string();
            assert!(name.len() <= u16::MAX as usize, "key too long");
            self.buf
                .extend_from_slice(&(name.len() as u16).to_le_bytes());
            self.buf.extend_from_slice(name.as_bytes());
        }
        self.buf.push(data_type.tag());
        self.buf
            .extend_from_slice(&(times.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&first_time.to_le_bytes());
        self.buf.extend_from_slice(&last_time.to_le_bytes());

        // Pages: fixed point budget per page with its own statistics,
        // so range reads decode only the overlapping pages (IoTDB's
        // chunk -> page hierarchy). The values are encoded first, their
        // statistics folded into that pass; the timestamps go straight
        // into the image.
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
            let lo = page_idx * PAGE_POINTS;
            self.page.clear();
            let stats = encode_page_into(
                values.slice(lo, lo + t_page.len()),
                &mut self.page,
                &mut self.bits,
            );
            if self.version.has_stats(data_type) {
                stats.write_into(&mut self.buf);
            }
            let len_at = self.buf.len();
            self.buf.extend_from_slice(&[0; 4]);
            ts2diff::encode_into(t_page, &mut self.buf, &mut self.bits);
            let ts_len = (self.buf.len() - len_at - 4) as u32;
            self.buf[len_at..len_at + 4].copy_from_slice(&ts_len.to_le_bytes());
            self.buf
                .extend_from_slice(&(self.page.len() as u32).to_le_bytes());
            self.buf.extend_from_slice(&self.page);
        }
    }

    /// Writes the footer — chunk index, plus (from v2) the key
    /// existence filter built from every chunk written — and returns the
    /// file image.
    pub fn finish(mut self) -> Vec<u8> {
        self.finished = true;
        let footer_offset = self.buf.len() as u64;
        self.buf
            .extend_from_slice(&(self.offsets.len() as u32).to_le_bytes());
        for off in &self.offsets {
            self.buf.extend_from_slice(&off.to_le_bytes());
        }
        if self.version.has_filter() {
            self.key_hashes.sort_unstable();
            self.key_hashes.dedup();
            let filter = KeyFilter::from_hashes(&self.key_hashes);
            self.buf
                .extend_from_slice(&(filter.serialized_len() as u32).to_le_bytes());
            filter.serialize_into(&mut self.buf);
        }
        self.buf.extend_from_slice(&footer_offset.to_le_bytes());
        self.buf.extend_from_slice(self.version.magic());
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

/// Encodes one page's worth of a typed column with the per-type
/// scheme — TS_2DIFF/RLE for integers (INT32 as `i64`), Gorilla for
/// floats, bit packing for booleans, length-prefixed UTF-8 for text —
/// appending to `out` and packing through `bw`, which it leaves empty.
/// Returns the page's [`PageStats`] over [`for_each_image`]'s images (a
/// TEXT page's go unused: no version stores them). The statistics take
/// their own pass over the page: folded into the Gorilla loop they made
/// writing `bench_flush`'s `4x25k` columns slower, not faster
/// (EXPERIMENTS.md, "Backward-Sort's block size for flat memory").
pub(crate) fn encode_page_into(
    col: ColumnSlice<'_>,
    out: &mut Vec<u8>,
    bw: &mut BitWriter,
) -> PageStats {
    let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, ExactSum::new());
    let mut adder = sum.adder();
    for_each_image(col, |v| {
        min = min_of(min, v);
        max = max_of(max, v);
        adder.add(v);
    });
    drop(adder);
    match col {
        ColumnSlice::Int(s) => intcolumn::encode_into(s, out, bw),
        ColumnSlice::Long(s) => intcolumn::encode_into(s, out, bw),
        ColumnSlice::Float(s) => gorilla::encode_into(s.iter().map(|&v| f64::from(v)), out, bw),
        ColumnSlice::Double(s) => gorilla::encode_into(s.iter().copied(), out, bw),
        ColumnSlice::Bool(s) => boolpack::encode_into(s.iter().copied(), out, bw),
        ColumnSlice::Text(s) => textpack::encode_into(s, out),
    }
    PageStats::new(min, max, &sum)
}

/// [`encode_page_into`] into a fresh buffer, statistics dropped.
#[cfg(test)]
pub(crate) fn encode_column_page(col: ColumnSlice<'_>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_page_into(col, &mut out, &mut BitWriter::new());
    out
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
    /// Every version opens: the trailing magic selects the layout,
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
        let version = [Version::V1, Version::V2, Version::V3, Version::V4]
            .into_iter()
            .find(|v| trailer == v.magic())?;
        let footer_off_pos = buf.len() - MAGIC.len() - 8;
        let footer_offset = u64::from_le_bytes(
            buf.get(footer_off_pos..footer_off_pos + 8)?
                .try_into()
                .ok()?,
        ) as usize;
        let mut pos = footer_offset.min(buf.len());
        let count = read_u32(buf, &mut pos)? as usize;
        // Each chunk costs the footer eight offset bytes: a forged count
        // reserves no more than the image could hold, and its reads fail.
        let mut chunks = Vec::with_capacity(count.min(buf.len() / 8));
        for _ in 0..count {
            let off = read_u64(buf, &mut pos)? as usize;
            chunks.push(Self::read_chunk_meta(buf, off, version)?);
        }
        let filter = if version.has_filter() {
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

    /// The footer's key existence filter, or `None` for a v1 image.
    pub fn filter(&self) -> Option<&KeyFilter> {
        self.filter.as_ref()
    }

    /// Consumes the reader, handing the parsed filter (if any) to the
    /// caller — [`FileHandle::parse`](crate::read::FileHandle::parse)
    /// moves it into the cached handle instead of cloning.
    pub fn take_filter(&mut self) -> Option<KeyFilter> {
        self.filter.take()
    }

    fn read_chunk_meta(buf: &[u8], off: usize, version: Version) -> Option<ChunkMeta> {
        let mut unread = Unread(buf.get(off..)?);
        let key = if version.names() == 2 {
            unread.key()
        } else {
            unread.dotted_key()
        };
        let key = key.ok()?;
        let mut pos = buf.len() - unread.0.len();
        let data_type = DataType::from_tag(*buf.get(pos)?)?;
        pos += 1;
        let num_points = read_u32(buf, &mut pos)?;
        let min_time = read_i64(buf, &mut pos)?;
        let max_time = read_i64(buf, &mut pos)?;
        Some(ChunkMeta {
            key,
            data_type,
            num_points,
            min_time,
            max_time,
            offset: off as u64,
            version,
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
    /// returning the in-range points as rows and how many pages were
    /// decoded (the pruning the page statistics buy) — the row adapter
    /// over [`PageHeader::decode`] that [`query`](Self::query) and tests
    /// read through. `None` on a corrupt chunk, however few of its pages
    /// are bad; the engine's scan keeps a corrupt page's readable
    /// neighbours instead.
    pub fn read_chunk_range(
        &self,
        meta: &ChunkMeta,
        t_lo: i64,
        t_hi: i64,
    ) -> Option<(Vec<(i64, TsValue)>, usize)> {
        let pages = ChunkPages::open(self.buf, meta)?;
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
            let (times, values) = header.decode(self.buf, meta.data_type)?;
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

/// A v3 page's value statistics, over the `f64` images of its values
/// with the definitions of [`crate::stats`]: `min`/`max` in `totalOrder`
/// skipping NaN (an all-NaN page stores `+inf`/`-inf`, the fold's
/// identities), and the exact sum as partials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageStats {
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// The exact sum's partials, the first `sum_len` of them; `sum_len`
    /// is [`NO_SUM`] when the page stores no sum.
    partials: [f64; MAX_SUM_PARTIALS],
    sum_len: u8,
}

impl PageStats {
    /// The statistics of a page whose values' images fold to `min`,
    /// `max` and `sum`.
    fn new(min: f64, max: f64, sum: &ExactSum) -> Self {
        let mut stats = Self {
            min,
            max,
            partials: [0.0; MAX_SUM_PARTIALS],
            sum_len: NO_SUM,
        };
        if let Some(partials) = sum.partials() {
            if let Some(slots) = stats.partials.get_mut(..partials.len()) {
                slots.copy_from_slice(&partials);
                stats.sum_len = partials.len() as u8;
            }
        }
        stats
    }

    /// The exact sum's partials — add them to an [`ExactSum`] to add the
    /// page's values — or `None` when the page stores no sum.
    pub fn sum_partials(&self) -> Option<&[f64]> {
        self.partials.get(..usize::from(self.sum_len))
    }

    fn write_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.min.to_le_bytes());
        buf.extend_from_slice(&self.max.to_le_bytes());
        buf.push(self.sum_len);
        for p in self.sum_partials().unwrap_or_default() {
            buf.extend_from_slice(&p.to_le_bytes());
        }
    }

    /// Parses statistics written by [`write_into`](Self::write_into).
    /// `None` on a `sum_len` no writer produces, a NaN extreme or a
    /// non-finite partial.
    fn read(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let min = f64::from_bits(read_u64(buf, pos)?);
        let max = f64::from_bits(read_u64(buf, pos)?);
        let sum_len = *buf.get(*pos)?;
        *pos += 1;
        let mut stats = Self {
            min,
            max,
            partials: [0.0; MAX_SUM_PARTIALS],
            sum_len,
        };
        if sum_len != NO_SUM {
            for slot in stats.partials.get_mut(..usize::from(sum_len))? {
                *slot = f64::from_bits(read_u64(buf, pos)?);
                if !slot.is_finite() {
                    return None;
                }
            }
        }
        (!min.is_nan() && !max.is_nan()).then_some(stats)
    }
}

/// One page's header: the statistics stored ahead of its encoded
/// columns, and where those columns lie in the image. A reader prunes
/// on `min_time`/`max_time`, and a fold can take a whole page from here
/// without decoding it: counts and times from any page, sums and
/// extremes from a v3 page's [`PageStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct PageHeader {
    /// Page ordinal within its chunk.
    pub index: u32,
    /// Smallest timestamp in the page.
    pub min_time: i64,
    /// Largest timestamp in the page.
    pub max_time: i64,
    /// Points in the page, `1..=PAGE_POINTS`.
    pub count: u32,
    /// Value statistics: `Some` on v3 pages of every type but TEXT.
    pub stats: Option<PageStats>,
    ts: std::ops::Range<usize>,
    values: std::ops::Range<usize>,
}

impl PageHeader {
    /// Whether any of the page's points can fall inside `[t_lo, t_hi]`.
    pub fn overlaps(&self, t_lo: i64, t_hi: i64) -> bool {
        self.max_time >= t_lo && self.min_time <= t_hi
    }

    /// Decodes the page's timestamp column alone, verifying it carries
    /// exactly `count` entries, strictly ascending inside the header's
    /// `[min_time, max_time]`. `None` on corruption — so every decoded
    /// page is sorted, as the scan's merge and the writer it feeds need.
    pub fn decode_times(&self, buf: &[u8]) -> Option<Vec<i64>> {
        let times = ts2diff::decode(buf.get(self.ts.clone())?, self.count as usize)?;
        let within = times.first() >= Some(&self.min_time) && times.last() <= Some(&self.max_time);
        (within && times.is_sorted_by(|a, b| a < b)).then_some(times)
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
/// header that does not parse, or whose times do not follow the previous
/// page's or leave the chunk's `[min_time, max_time]`, ends the walk
/// early; [`TsFileReader::read_chunk_range`] notices by the point total
/// falling short, and the engine's scan keeps the pages before it.
#[derive(Debug, Clone)]
pub struct ChunkPages<'a> {
    buf: &'a [u8],
    pos: usize,
    pages_left: u32,
    next_index: u32,
    num_points: u32,
    /// The least `min_time` the next page may have (`None` past `i64::MAX`).
    floor: Option<i64>,
    /// The chunk's `max_time`, which no page may pass.
    ceiling: i64,
    /// Whether the page headers carry [`PageStats`] (by the chunk's
    /// version and type).
    stats: bool,
}

impl<'a> ChunkPages<'a> {
    /// Positions the walk at `meta`'s first page, reading its headers
    /// the way `meta.version` laid them out. `None` when the chunk header
    /// does not parse.
    pub fn open(buf: &'a [u8], meta: &ChunkMeta) -> Option<Self> {
        let mut pos = usize::try_from(meta.offset).ok()?;
        for _ in 0..meta.version.names() {
            let len = read_u16(buf, &mut pos)?;
            pos = pos.checked_add(usize::from(len))?;
        }
        pos = pos.checked_add(1)?; // type tag
        let num_points = read_u32(buf, &mut pos)?;
        pos = pos.checked_add(16)?; // chunk min/max time
        let pages_left = read_u32(buf, &mut pos)?;
        Some(Self {
            buf,
            pos,
            pages_left,
            next_index: 0,
            num_points,
            floor: Some(meta.min_time),
            ceiling: meta.max_time,
            stats: meta.version.has_stats(meta.data_type),
        })
    }

    /// The point count the chunk header declares.
    pub fn num_points(&self) -> u32 {
        self.num_points
    }

    #[inline] // inlined through `next`, below
    fn read_header(&mut self) -> Option<PageHeader> {
        let (buf, pos) = (self.buf, &mut self.pos);
        let min_time = read_i64(buf, pos)?;
        let max_time = read_i64(buf, pos)?;
        let count = read_u32(buf, pos)?;
        if count == 0 || count as usize > PAGE_POINTS {
            return None;
        }
        if min_time < self.floor? || min_time > max_time || max_time > self.ceiling {
            return None;
        }
        self.floor = max_time.checked_add(1);
        let stats = match self.stats {
            true => Some(PageStats::read(buf, pos)?),
            false => None,
        };
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
            stats,
            ts,
            values,
        })
    }
}

impl Iterator for ChunkPages<'_> {
    type Item = PageHeader;

    // The per-page step of every disk read (`Scan::run`, in read.rs):
    // the hint keeps it inlinable there whichever codegen unit each
    // module lands in, which otherwise shifts with edits elsewhere in
    // the crate.
    #[inline]
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

    /// A page encoded into a writer's buffers is each codec's own bytes,
    /// after whatever the buffer held, an RLE-won integer page included,
    /// and its statistics skip NaN and order signed zeros.
    #[test]
    fn a_page_encodes_into_the_buffer_it_is_given() {
        let columns = [
            ValueColumn::Int(vec![3, -7, 3, 3, i32::MAX, i32::MIN]),
            ValueColumn::Long(vec![5; 40]),
            ValueColumn::Long(vec![1 << 60, -3, 0, i64::MIN]),
            ValueColumn::Float(vec![0.5, -0.0, f32::NAN, 0.0, f32::INFINITY]),
            ValueColumn::Double(vec![-0.0, 1e300, -1e300, 2.5, 0.0]),
            ValueColumn::Bool(vec![true, false, true]),
            ValueColumn::Text(vec!["a".into(), "".into()]),
        ];
        let mut bw = BitWriter::new();
        for col in &columns {
            let mut out = vec![0xAB];
            encode_page_into(col.as_slice(), &mut out, &mut bw);
            let want = match col.as_slice() {
                ColumnSlice::Int(s) => {
                    intcolumn::encode(&s.iter().map(|&v| i64::from(v)).collect::<Vec<_>>())
                }
                ColumnSlice::Long(s) => intcolumn::encode(s),
                ColumnSlice::Float(s) => gorilla::encode_f32(s),
                ColumnSlice::Double(s) => gorilla::encode_f64(s),
                ColumnSlice::Bool(s) => boolpack::encode(s),
                ColumnSlice::Text(s) => textpack::encode(s),
            };
            assert_eq!(out[1..], want[..], "{col:?}");
        }
        let mut stats =
            |col: ValueColumn| encode_page_into(col.as_slice(), &mut Vec::new(), &mut bw);
        let float = stats(ValueColumn::Float(vec![0.5, -0.0, f32::NAN, 0.0, -2.0]));
        assert_eq!((float.min, float.max), (-2.0, 0.5));
        let zeros = stats(ValueColumn::Double(vec![0.0, -0.0]));
        assert!(zeros.min.is_sign_negative() && zeros.max.is_sign_positive());
        assert_eq!(
            stats(ValueColumn::Long(vec![5; 40])).sum_partials(),
            Some(&[200.0][..])
        );
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
        let mut w = TsFileWriter::with_version(Version::V1);
        w.write_chunk(
            &key("s"),
            &[1, 5, 9],
            &[TsValue::Long(1), TsValue::Long(5), TsValue::Long(9)],
        );
        let image = w.finish();
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
    fn v3_headers_carry_value_statistics_and_older_ones_none() {
        let times: Vec<i64> = (0..PAGE_POINTS as i64 + 3).collect();
        let values: Vec<TsValue> = times
            .iter()
            .map(|&t| TsValue::Double(t as f64 * 0.1))
            .collect();
        for version in [Version::V1, Version::V2, Version::V3, Version::V4] {
            let mut w = TsFileWriter::with_version(version);
            w.write_chunk(&key(), &times, &values);
            let texts: Vec<TsValue> = times.iter().map(|t| TsValue::Text(t.to_string())).collect();
            w.write_chunk(&SeriesKey::new("root.sg.d1", "t"), &times, &texts);
            let image = w.finish();
            let r = TsFileReader::open(&image).unwrap();
            for meta in r.chunks() {
                assert_eq!(meta.version, version);
                let headers: Vec<PageHeader> = ChunkPages::open(&image, meta).unwrap().collect();
                assert_eq!(headers.len(), 2);
                let with_stats = version >= Version::V3 && meta.data_type == DataType::Double;
                assert!(
                    headers.iter().all(|h| h.stats.is_some() == with_stats),
                    "{version:?} {:?}",
                    meta.data_type
                );
                assert_eq!(r.read_chunk(meta).map(|p| p.len()), Some(times.len()));
            }
            if version != Version::V3 {
                continue;
            }
            let meta = &r.chunks_for(&key())[0];
            let headers: Vec<PageHeader> = ChunkPages::open(&image, meta).unwrap().collect();
            let last = headers[1].stats.expect("v3 DOUBLE page");
            assert_eq!((last.min, last.max), (102.4, 102.60000000000001));
            let mut sum = ExactSum::new();
            for h in &headers {
                h.stats
                    .unwrap()
                    .sum_partials()
                    .unwrap()
                    .iter()
                    .for_each(|&p| sum.add(p));
            }
            let mut want = ExactSum::new();
            values.iter().for_each(|v| want.add(v.as_f64()));
            assert_eq!(sum.value().to_bits(), want.value().to_bits());
        }
    }

    #[test]
    fn a_page_with_a_non_finite_value_stores_no_sum() {
        let mut w = TsFileWriter::new();
        let values = [1.0, f64::NAN, -0.0, f64::INFINITY].map(TsValue::Double);
        w.write_chunk(&key(), &[1, 2, 3, 4], &values);
        let image = w.finish();
        let r = TsFileReader::open(&image).unwrap();
        let header = ChunkPages::open(&image, &r.chunks()[0])
            .unwrap()
            .next()
            .unwrap();
        let stats = header.stats.expect("v3 DOUBLE page");
        assert_eq!((stats.min, stats.max), (-0.0, f64::INFINITY));
        assert!(stats.min.is_sign_negative());
        assert_eq!(stats.sum_partials(), None);
    }

    #[test]
    fn a_header_declaring_more_than_a_page_is_refused() {
        let image = big_chunk(10);
        let r = TsFileReader::open(&image).unwrap();
        let meta = &r.chunks()[0];
        // The page's `count` follows the chunk header and the page's two
        // timestamps.
        let count_at = meta.offset as usize + 2 + key().to_string().len() + 1 + 4 + 16 + 4 + 16;
        for forged in [0u32, PAGE_POINTS as u32 + 1, u32::MAX] {
            let mut bad = image.clone();
            bad[count_at..count_at + 4].copy_from_slice(&forged.to_le_bytes());
            assert_eq!(
                ChunkPages::open(&bad, meta).unwrap().next(),
                None,
                "{forged}"
            );
        }
    }

    #[test]
    fn pages_out_of_time_order_are_corrupt() {
        let image = big_chunk(3 * PAGE_POINTS);
        let r = TsFileReader::open(&image).unwrap();
        let meta = &r.chunks()[0];
        let first = ChunkPages::open(&image, meta).unwrap().next().unwrap();
        // The second page's header starts where the first page ends:
        // its min_time, then its max_time.
        let (min_at, max_at) = (first.values.end, first.values.end + 8);
        let second_max = 2 * PAGE_POINTS as i64 - 1;
        let forgeries = [
            (min_at, first.max_time, "overlaps the page before"),
            (min_at, second_max + 1, "starts after it ends"),
            (max_at, meta.max_time + 1, "ends past the chunk"),
        ];
        for (at, forged, what) in forgeries {
            let mut bad = image.clone();
            bad[at..at + 8].copy_from_slice(&forged.to_le_bytes());
            let walked: Vec<PageHeader> = ChunkPages::open(&bad, meta).unwrap().collect();
            assert_eq!(walked, vec![first.clone()], "{what}: the walk ends");
            let bad_reader = TsFileReader::open(&bad).unwrap();
            assert_eq!(bad_reader.read_chunk_range(meta, 0, 10), None, "{what}");
        }
        // A header narrower than its own timestamps: the walk goes on,
        // but the page does not decode.
        let mut bad = image.clone();
        bad[max_at..max_at + 8].copy_from_slice(&(second_max - 1).to_le_bytes());
        let second = ChunkPages::open(&bad, meta).unwrap().nth(1).unwrap();
        assert_eq!(second.decode_times(&bad), None);
        assert!(second.decode(&bad, meta.data_type).is_none());
        assert!(ChunkPages::open(&image, meta)
            .unwrap()
            .nth(1)
            .unwrap()
            .decode_times(&image)
            .is_some());
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
