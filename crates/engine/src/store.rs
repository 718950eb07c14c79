//! Durable storage: a write-ahead log plus persisted TsFiles, with crash
//! recovery.
//!
//! [`DurableEngine`] wraps [`StorageEngine`] with the durability protocol
//! real IoTDB uses around its memtables:
//!
//! 1. every write is appended (CRC-framed) to the active WAL segment
//!    *before* it enters a memtable, and every delete is appended right
//!    after its tombstone is recorded (with the tombstone's file
//!    horizon, so a replayed delete covers the same files);
//! 2. when a shard's working memtable flushes, every other shard's
//!    buffered data is flushed alongside it (a WAL segment interleaves
//!    all shards' records, so all of them must reach files before any
//!    segment is retired), the new file images are persisted durably as
//!    `tsfile-<gen>.bstf`, still-pending tombstones are re-logged into
//!    the fresh segment, the `MANIFEST` commits the live generation set
//!    plus the new WAL floor — the single atomic point that retires the
//!    old segments — and only then is anything deleted;
//! 3. [`DurableEngine::open`] recovers by adopting every
//!    manifest-listed TsFile, then replaying the WAL segments at or
//!    above the manifest's floor (torn tails are truncated at the first
//!    bad CRC, and the discarded byte count is reported through
//!    `wal.replay_discarded_bytes`).
//!
//! Persistence is keyed on the engine's per-file *ids*, not on file
//! positions, so compaction collapsing a shard's files is picked up as
//! "old ids gone, one new id" and the disk set follows along. The
//! `MANIFEST` (live generations, CRC-guarded, written after new images
//! and *before* GC) is what makes that safe across a crash: a merged
//! image whose manifest write never happened is ignored at recovery
//! (its data is still WAL-covered or in the manifest-listed inputs),
//! and GC'd inputs that survived a mid-GC crash are dropped instead of
//! resurrecting already-deleted points.
//!
//! All file traffic goes through an injectable [`Io`] sink and every
//! state-changing step passes a named failpoint
//! ([`backsort_faults::sites`]), which is how `tests/crash_matrix.rs`
//! kills the engine at each site and checks recovery.

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use backsort_faults::io::{Io, RealIo, WalFile};
use backsort_faults::{sites as fault_sites, FailpointRegistry};
use backsort_obs::Registry;

use crate::batch::{PointBatch, ValueColumn};
use crate::encoding::{ts2diff, varint};
use crate::engine::{EngineConfig, QueryResult, StorageEngine};
use crate::flush::FlushMetrics;
use crate::types::{DataType, SeriesKey, TsValue};

/// CRC-32 (IEEE, reflected) — small table-driven implementation so the
/// WAL needs no external dependency.
pub fn crc32(data: &[u8]) -> u32 {
    const fn table() -> [u32; 256] {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    }
    const TABLE: [u32; 256] = table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// A durability-protocol failure, classified by the stage that hit it.
///
/// The stage matters to callers: a [`StoreError::Wal`] means the write
/// being acknowledged never became durable (do not ack), while a
/// [`StoreError::Persist`] or [`StoreError::Manifest`] failure leaves
/// every acknowledged record still covered by the WAL — the engine can
/// be reopened and recovery replays it. [`StoreError::Recover`] aborts
/// an `open` with the directory untouched beyond idempotent cleanup.
#[derive(Debug)]
pub enum StoreError {
    /// Appending to or syncing the active WAL segment failed.
    Wal(io::Error),
    /// Durably writing a TsFile image failed mid-persist.
    Persist(io::Error),
    /// The manifest commit (or the GC gated behind it) failed.
    Manifest(io::Error),
    /// Recovery I/O — directory scan, image adoption, or WAL replay —
    /// failed while opening.
    Recover(io::Error),
}

impl StoreError {
    /// The underlying I/O error, whatever the stage.
    pub fn io_error(&self) -> &io::Error {
        match self {
            StoreError::Wal(e)
            | StoreError::Persist(e)
            | StoreError::Manifest(e)
            | StoreError::Recover(e) => e,
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Wal(e) => write!(f, "wal append/sync failed: {e}"),
            StoreError::Persist(e) => write!(f, "tsfile persist failed: {e}"),
            StoreError::Manifest(e) => write!(f, "manifest commit failed: {e}"),
            StoreError::Recover(e) => write!(f, "recovery failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.io_error())
    }
}

/// Result alias for every fallible [`DurableEngine`] operation.
pub type StoreResult<T> = Result<T, StoreError>;

const KIND_POINT: u8 = 0;
const KIND_DELETE: u8 = 1;
const KIND_TOMBSTONE: u8 = 2;
const KIND_BATCH: u8 = 3;

/// Reserves the 4-byte length slot of a `len | payload | crc` frame and
/// returns the payload's start offset. The payload is then encoded
/// *directly* into `out` — no intermediate per-record buffer — and
/// [`end_frame`] backpatches the length and appends the CRC over the
/// payload slice in place.
fn begin_frame(out: &mut Vec<u8>) -> usize {
    out.extend_from_slice(&[0u8; 4]);
    out.len()
}

/// Closes a frame opened by [`begin_frame`]: backpatches the length
/// slot and appends `crc32` of the payload written since.
fn end_frame(out: &mut Vec<u8>, payload_start: usize) {
    let len = (out.len() - payload_start) as u32;
    let crc = crc32(&out[payload_start..]);
    if let Some(slot) = out.get_mut(payload_start - 4..payload_start) {
        slot.copy_from_slice(&len.to_le_bytes());
    }
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Writes the `name_len(u16) | name` header every payload starts with
/// (after its kind byte).
fn encode_key(out: &mut Vec<u8>, key: &SeriesKey) {
    let name = key.to_string();
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
}

/// One WAL record: a point write, a range delete, or a re-logged
/// tombstone.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A single point write.
    Point {
        /// Destination series.
        key: SeriesKey,
        /// Timestamp.
        t: i64,
        /// Value.
        v: TsValue,
    },
    /// A whole columnar batch for one series, logged as a single frame:
    /// the timestamp column TS_2DIFF-encoded, the value column under its
    /// type's native scheme (the same codecs the TsFile pages use).
    /// Replay feeds the decoded batch back through
    /// [`StorageEngine::write_batch`], so the batch is one atomic WAL
    /// unit — a torn frame loses the whole (unacknowledged) batch and
    /// nothing before it.
    PointBatch {
        /// Destination series.
        key: SeriesKey,
        /// The columnar payload.
        batch: PointBatch,
    },
    /// A range delete, with the tombstone's file horizon at the time it
    /// was recorded — replay restores the tombstone over the same files
    /// and never over files flushed after the delete.
    Delete {
        /// Target series.
        key: SeriesKey,
        /// Inclusive range start.
        t_lo: i64,
        /// Inclusive range end.
        t_hi: i64,
        /// File-count horizon the tombstone covered when recorded.
        horizon: u32,
    },
    /// A pending tombstone *re-logged* into a fresh segment at rotation
    /// (the segment carrying the original [`WalRecord::Delete`] is being
    /// retired). Replay restores only the file mask — unlike a `Delete`,
    /// it never removes memtable points, because a re-logged record sits
    /// after the records of writes issued after the original delete and
    /// must not erase them when both segments survive a crash.
    Tombstone {
        /// Target series.
        key: SeriesKey,
        /// Inclusive range start.
        t_lo: i64,
        /// Inclusive range end.
        t_hi: i64,
        /// File-count horizon the tombstone covered when recorded.
        horizon: u32,
    },
}

impl WalRecord {
    /// Serializes as `len(u32) | payload | crc32(payload)`; the payload
    /// starts with a kind byte. Encodes straight into `out` (the store
    /// reuses one scratch buffer across records) — no per-record
    /// allocation.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Point { key, t, v } => WalRecord::encode_point(out, key, *t, v),
            WalRecord::PointBatch { key, batch } => WalRecord::encode_batch(out, key, batch),
            WalRecord::Delete {
                key,
                t_lo,
                t_hi,
                horizon,
            }
            | WalRecord::Tombstone {
                key,
                t_lo,
                t_hi,
                horizon,
            } => {
                let frame = begin_frame(out);
                out.push(if matches!(self, WalRecord::Delete { .. }) {
                    KIND_DELETE
                } else {
                    KIND_TOMBSTONE
                });
                encode_key(out, key);
                out.extend_from_slice(&t_lo.to_le_bytes());
                out.extend_from_slice(&t_hi.to_le_bytes());
                out.extend_from_slice(&horizon.to_le_bytes());
                end_frame(out, frame);
            }
        }
    }

    /// Encodes a point-write frame directly from borrowed parts — the
    /// hot ingest path calls this instead of cloning the [`SeriesKey`]
    /// into a [`WalRecord::Point`] only to destructure it again.
    pub fn encode_point(out: &mut Vec<u8>, key: &SeriesKey, t: i64, v: &TsValue) {
        let frame = begin_frame(out);
        out.push(KIND_POINT);
        encode_key(out, key);
        out.extend_from_slice(&t.to_le_bytes());
        out.push(v.data_type().tag());
        match v {
            TsValue::Int(x) => out.extend_from_slice(&x.to_le_bytes()),
            TsValue::Long(x) => out.extend_from_slice(&x.to_le_bytes()),
            TsValue::Float(x) => out.extend_from_slice(&x.to_bits().to_le_bytes()),
            TsValue::Double(x) => out.extend_from_slice(&x.to_bits().to_le_bytes()),
            TsValue::Bool(x) => out.push(*x as u8),
            TsValue::Text(s) => {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
        end_frame(out, frame);
    }

    /// Encodes a columnar-batch frame from borrowed parts.
    ///
    /// Payload layout after the common `kind | name_len | name` header:
    /// `dtype(1) | varint count | u32 ts_len | ts2diff(ts) | value
    /// column` — the timestamp section is length-prefixed because the
    /// value column starts wherever it ends; the value column runs to
    /// the end of the payload (its codecs carry their own counts).
    pub fn encode_batch(out: &mut Vec<u8>, key: &SeriesKey, batch: &PointBatch) {
        let frame = begin_frame(out);
        out.push(KIND_BATCH);
        encode_key(out, key);
        out.push(batch.data_type().tag());
        varint::write_u64(out, batch.len() as u64);
        let ts_bytes = ts2diff::encode(batch.ts());
        out.extend_from_slice(&(ts_bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&ts_bytes);
        batch.values().encode_into(out);
        end_frame(out, frame);
    }

    /// Parses one record at `pos`, advancing it on success. `None` on a
    /// torn or corrupt tail (callers stop replaying there; `pos` is left
    /// at the start of the bad frame).
    pub fn read_from(buf: &[u8], pos: &mut usize) -> Option<WalRecord> {
        let len = u32::from_le_bytes(buf.get(*pos..*pos + 4)?.try_into().ok()?) as usize;
        let payload = buf.get(*pos + 4..(*pos + 4).checked_add(len)?)?;
        let crc_pos = *pos + 4 + len;
        let stored = u32::from_le_bytes(buf.get(crc_pos..crc_pos + 4)?.try_into().ok()?);
        if crc32(payload) != stored {
            return None;
        }
        // Decode the payload.
        let mut p = 0usize;
        let kind = *payload.get(p)?;
        p += 1;
        let name_len = u16::from_le_bytes(payload.get(p..p + 2)?.try_into().ok()?) as usize;
        p += 2;
        let name = std::str::from_utf8(payload.get(p..p + name_len)?).ok()?;
        p += name_len;
        let (device, sensor) = name.rsplit_once('.')?;
        let key = SeriesKey::new(device, sensor);
        let record = match kind {
            KIND_POINT => {
                let t = i64::from_le_bytes(payload.get(p..p + 8)?.try_into().ok()?);
                p += 8;
                let dt = DataType::from_tag(*payload.get(p)?)?;
                p += 1;
                let v = match dt {
                    DataType::Int32 => {
                        TsValue::Int(i32::from_le_bytes(payload.get(p..p + 4)?.try_into().ok()?))
                    }
                    DataType::Int64 => {
                        TsValue::Long(i64::from_le_bytes(payload.get(p..p + 8)?.try_into().ok()?))
                    }
                    DataType::Float => TsValue::Float(f32::from_bits(u32::from_le_bytes(
                        payload.get(p..p + 4)?.try_into().ok()?,
                    ))),
                    DataType::Double => TsValue::Double(f64::from_bits(u64::from_le_bytes(
                        payload.get(p..p + 8)?.try_into().ok()?,
                    ))),
                    DataType::Boolean => TsValue::Bool(*payload.get(p)? != 0),
                    DataType::Text => {
                        let len =
                            u32::from_le_bytes(payload.get(p..p + 4)?.try_into().ok()?) as usize;
                        p += 4;
                        let bytes = payload.get(p..p.checked_add(len)?)?;
                        TsValue::Text(std::str::from_utf8(bytes).ok()?.to_string())
                    }
                };
                WalRecord::Point { key, t, v }
            }
            KIND_BATCH => {
                let dt = DataType::from_tag(*payload.get(p)?)?;
                p += 1;
                let count = varint::read_u64(payload, &mut p)? as usize;
                let ts_len = u32::from_le_bytes(payload.get(p..p + 4)?.try_into().ok()?) as usize;
                p += 4;
                let ts_bytes = payload.get(p..p.checked_add(ts_len)?)?;
                p += ts_len;
                let ts = ts2diff::decode(ts_bytes)?;
                if ts.len() != count {
                    return None;
                }
                let values = ValueColumn::decode(dt, count, payload.get(p..)?)?;
                let batch = PointBatch::from_columns(ts, values).ok()?;
                WalRecord::PointBatch { key, batch }
            }
            KIND_DELETE | KIND_TOMBSTONE => {
                let t_lo = i64::from_le_bytes(payload.get(p..p + 8)?.try_into().ok()?);
                p += 8;
                let t_hi = i64::from_le_bytes(payload.get(p..p + 8)?.try_into().ok()?);
                p += 8;
                let horizon = u32::from_le_bytes(payload.get(p..p + 4)?.try_into().ok()?);
                if kind == KIND_DELETE {
                    WalRecord::Delete {
                        key,
                        t_lo,
                        t_hi,
                        horizon,
                    }
                } else {
                    WalRecord::Tombstone {
                        key,
                        t_lo,
                        t_hi,
                        horizon,
                    }
                }
            }
            _ => return None,
        };
        *pos = crc_pos + 4;
        Some(record)
    }
}

/// Replays a WAL segment's bytes, stopping at the first torn/corrupt
/// record. Returns the recovered records and how many trailing bytes
/// were discarded — zero for a cleanly closed segment, nonzero for a
/// torn tail or real corruption (the caller reports it through the
/// `wal.replay_discarded_bytes` counter instead of tolerating it
/// silently).
pub fn replay_wal(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        match WalRecord::read_from(bytes, &mut pos) {
            Some(rec) => out.push(rec),
            None => break,
        }
    }
    (out, bytes.len() - pos)
}

const MANIFEST_NAME: &str = "MANIFEST";
const MANIFEST_MAGIC: &str = "backsort-manifest-v1";

/// The durable commit record of a persist pass: which TsFile
/// generations are live, and the oldest WAL generation that still
/// matters.
///
/// The `wal_floor` is what makes a killed rotation recover to a clean
/// prefix: once a rotation's images are durable, its manifest raises
/// the floor past the old segments *atomically* — recovery then ignores
/// them even if their physical deletion never happened. Without it, a
/// surviving old segment would replay a committed prefix of records
/// whose newer versions are already in the adopted images, and the
/// replayed memtable (which shadows files) would resurrect stale
/// values.
#[derive(Debug, PartialEq)]
struct Manifest {
    /// Live files in merge-priority order (shard-major, each shard's
    /// files oldest-first), each with its compaction level. The order is
    /// load-bearing: a leveled compaction output sits *before* newer
    /// files of its shard but is persisted under a *later* generation,
    /// so numeric generation order no longer equals priority order —
    /// recovery must walk this list front-to-back to preserve
    /// last-write-wins.
    files: Vec<(u64, u32)>,
    wal_floor: u64,
}

impl Manifest {
    fn live_gens(&self) -> HashSet<u64> {
        self.files.iter().map(|&(gen, _)| gen).collect()
    }
}

/// Durably records the manifest. Written after new images, after the
/// pending tombstones are re-logged into the floor segment, and
/// *before* any GC — the commit point of a persist pass. CRC-guarded so
/// a torn write reads as "no manifest".
///
/// Each file token is `generation:level`, making the compaction level a
/// crash-safe part of the commit record; legacy manifests with plain
/// `generation` tokens read back as level 0.
fn write_manifest(io: &dyn Io, dir: &Path, files: &[(u64, u32)], wal_floor: u64) -> io::Result<()> {
    let list = files
        .iter()
        .map(|(gen, level)| format!("{gen}:{level}"))
        .collect::<Vec<_>>()
        .join(" ");
    let body = format!("{MANIFEST_MAGIC}\nfiles {list}\nwal-floor {wal_floor}\n");
    let full = format!("{body}crc {:08x}\n", crc32(body.as_bytes()));
    io.write_durable(&dir.join(MANIFEST_NAME), full.as_bytes())
}

/// Reads the manifest, or `None` if it is absent, torn or corrupt —
/// recovery then falls back to adopting every on-disk TsFile and
/// replaying every segment, which is safe because a manifest only goes
/// missing before the *first* persist pass completes (afterwards each
/// rewrite is atomic-durable): at that point no GC and no logical WAL
/// truncation has happened yet.
fn read_manifest(io: &dyn Io, dir: &Path) -> Option<Manifest> {
    let bytes = io.read(&dir.join(MANIFEST_NAME)).ok()?;
    let text = std::str::from_utf8(&bytes).ok()?;
    let mut lines = text.lines();
    let magic = lines.next()?;
    if magic != MANIFEST_MAGIC {
        return None;
    }
    let files_line = lines.next()?;
    let floor_line = lines.next()?;
    let crc_line = lines.next()?;
    if lines.next().is_some() {
        return None;
    }
    let body = format!("{magic}\n{files_line}\n{floor_line}\n");
    let stored = u32::from_str_radix(crc_line.strip_prefix("crc ")?, 16).ok()?;
    if crc32(body.as_bytes()) != stored {
        return None;
    }
    let mut files = Vec::new();
    for tok in files_line.strip_prefix("files ")?.split_whitespace() {
        // `gen:level` is the v2 token; a bare generation is a legacy
        // manifest written before levels existed — everything was
        // effectively level 0 then.
        let (gen, level) = match tok.split_once(':') {
            Some((gen, level)) => (gen.parse().ok()?, level.parse().ok()?),
            None => (tok.parse().ok()?, 0),
        };
        files.push((gen, level));
    }
    let wal_floor = floor_line.strip_prefix("wal-floor ")?.parse().ok()?;
    Some(Manifest { files, wal_floor })
}

/// A [`StorageEngine`] with WAL-backed durability in a directory.
pub struct DurableEngine {
    engine: StorageEngine,
    dir: PathBuf,
    io: Arc<dyn Io>,
    faults: Arc<FailpointRegistry>,
    wal: Box<dyn WalFile>,
    generation: u64,
    /// Per-shard map from engine file id to the disk generation it is
    /// persisted under. Ids missing from a shard's current file set were
    /// merged away by compaction; their disk files are deleted once no
    /// shard references the generation (a multi-device file adopted into
    /// several shards shares one).
    persisted: Vec<HashMap<u64, u64>>,
    /// Cached registry handles — the WAL append sits on the durable
    /// write path, so it must not take the registry's name-map lock.
    wal_appends: Arc<backsort_obs::Counter>,
    wal_bytes: Arc<backsort_obs::Counter>,
    wal_batch_encode_nanos: Arc<backsort_obs::Histogram>,
    /// Reusable frame-encode buffer: every record of every kind is
    /// encoded here and handed to the WAL as one slice, so the steady
    /// state allocates nothing per record.
    scratch: Vec<u8>,
}

impl DurableEngine {
    /// Opens (creating or recovering) a durable engine in `dir`, on the
    /// real file system. Failpoints arm from the `BACKSORT_FAULTS`
    /// environment variable (unset ⇒ all disarmed).
    pub fn open(dir: impl AsRef<Path>, config: EngineConfig) -> StoreResult<Self> {
        Self::open_with(dir, config, Arc::new(RealIo), FailpointRegistry::from_env())
    }

    /// Opens a durable engine over an injected [`Io`] sink and failpoint
    /// registry — the crash-matrix harness passes a
    /// [`SimIo`](backsort_faults::sim::SimIo) sharing the registry, so
    /// armed sites can fire either in the engine's control flow or at
    /// byte granularity inside the sink.
    pub fn open_with(
        dir: impl AsRef<Path>,
        config: EngineConfig,
        io: Arc<dyn Io>,
        faults: Arc<FailpointRegistry>,
    ) -> StoreResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        io.create_dir_all(&dir).map_err(StoreError::Recover)?;
        let engine = StorageEngine::with_instrumentation(
            config,
            Arc::new(Registry::new()),
            Arc::clone(&faults),
        );

        // Scan the directory for persisted TsFiles and WAL segments.
        let mut tsfiles: Vec<(u64, String)> = Vec::new();
        let mut wals: Vec<(u64, String)> = Vec::new();
        for name in io.list_dir(&dir).map_err(StoreError::Recover)? {
            if let Some(gen) = name
                .strip_prefix("tsfile-")
                .and_then(|s| s.strip_suffix(".bstf"))
                .and_then(|s| s.parse().ok())
            {
                tsfiles.push((gen, name));
            } else if let Some(gen) = name
                .strip_prefix("wal-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse().ok())
            {
                wals.push((gen, name));
            }
        }
        tsfiles.sort();
        wals.sort();

        // Adopt persisted TsFiles, oldest generation first, filtered by
        // the manifest's live set: a generation on disk but not in the
        // manifest is either a GC survivor (compaction inputs whose
        // deletion was interrupted — adopting them would resurrect
        // deleted points) or an image persisted by a rotation whose
        // manifest commit never happened (its records are still covered
        // by the replayed WAL segments). Both are removed.
        let manifest = read_manifest(io.as_ref(), &dir);
        let wal_floor = manifest.as_ref().map_or(0, |m| m.wal_floor);
        let live_gens = manifest.as_ref().map(Manifest::live_gens);
        let mut persisted: Vec<HashMap<u64, u64>> = vec![HashMap::new(); engine.shard_count()];
        let mut max_gen = 0u64;
        let mut on_disk: HashMap<u64, String> = HashMap::new();
        for (gen, name) in &tsfiles {
            max_gen = max_gen.max(*gen);
            if let Some(live) = &live_gens {
                if !live.contains(gen) {
                    remove_stale(&engine, io.as_ref(), &dir.join(name));
                    continue;
                }
            }
            on_disk.insert(*gen, name.clone());
        }
        // Adoption order is the manifest's listed order — the previous
        // process's in-memory merge-priority order, which a leveled
        // compaction output (persisted late, ranked early) makes
        // different from numeric generation order. Without a manifest
        // (nothing ever committed, so no compaction output can be on
        // disk either) numeric order is the write order and suffices.
        let adoption: Vec<(u64, u32)> = match &manifest {
            Some(m) => m.files.clone(),
            None => {
                let mut gens: Vec<(u64, u32)> = on_disk.keys().map(|&gen| (gen, 0)).collect();
                gens.sort_unstable();
                gens
            }
        };
        for (gen, level) in adoption {
            let Some(name) = on_disk.get(&gen) else {
                continue;
            };
            let path = dir.join(name);
            let bytes = io.read(&path).map_err(StoreError::Recover)?;
            match engine.adopt_file_at_level(bytes, level) {
                Some(installed) => {
                    // Already on disk under this generation; only later
                    // images need persisting.
                    for (shard, id) in installed {
                        persisted[shard].insert(id, gen);
                    }
                }
                None => {
                    // A torn tsfile write: ignore it; its WAL segment
                    // (which we only delete after a complete persist)
                    // will replay.
                    remove_stale(&engine, io.as_ref(), &path);
                }
            }
        }
        faults
            .hit(fault_sites::STORE_OPEN_AFTER_ADOPT)
            .map_err(StoreError::Recover)?;

        // Replay live WAL segments (at or above the manifest's floor)
        // into the memtables. The engine routes each record to its
        // device's shard exactly as the original write did. Segments
        // below the floor are logically dead — their surviving records
        // are stale duplicates of data already in the adopted images —
        // and are only physically deleted at the end. Live segments
        // stay on disk until the replayed data is persisted below;
        // deleting them here would lose the data to a crash mid-open.
        let mut discarded_total = 0usize;
        for (gen, name) in &wals {
            max_gen = max_gen.max(*gen);
            if *gen < wal_floor {
                continue;
            }
            let bytes = io.read(&dir.join(name)).map_err(StoreError::Recover)?;
            let (records, discarded) = replay_wal(&bytes);
            discarded_total += discarded;
            for rec in records {
                match rec {
                    // Recovery writes must not trigger re-flushing
                    // mid-replay in a surprising order; regular write
                    // handles rotation correctly anyway.
                    WalRecord::Point { key, t, v } => {
                        let _ = engine.write(&key, t, v);
                    }
                    // A batch replays through the same columnar path the
                    // live write took: one memtable lookup, the same
                    // seq/unseq split against the recovered watermarks.
                    WalRecord::PointBatch { key, batch } => {
                        faults
                            .hit(fault_sites::STORE_OPEN_BATCH_REPLAY)
                            .map_err(StoreError::Recover)?;
                        let _ = engine.write_batch(&key, &batch);
                    }
                    WalRecord::Delete {
                        key,
                        t_lo,
                        t_hi,
                        horizon,
                    } => {
                        let _ =
                            engine.apply_delete_with_horizon(&key, t_lo, t_hi, horizon as usize);
                    }
                    // Mask-only: a re-logged tombstone replays after the
                    // records of writes issued after the original delete
                    // and must not erase them from the memtables.
                    WalRecord::Tombstone {
                        key,
                        t_lo,
                        t_hi,
                        horizon,
                    } => {
                        engine.restore_tombstone(&key, t_lo, t_hi, horizon as usize);
                    }
                }
            }
        }
        if discarded_total > 0 {
            engine
                .obs()
                .counter(backsort_obs::names::WAL_REPLAY_DISCARDED_BYTES)
                .add(discarded_total as u64);
        }
        faults
            .hit(fault_sites::STORE_OPEN_AFTER_REPLAY)
            .map_err(StoreError::Recover)?;

        // Anything replayed sits in memtables again and is still covered
        // only by the old segments — flush it to files right away, then
        // commit a manifest whose floor retires those segments.
        let mut generation = max_gen;
        let (w, u) = engine.buffered_points();
        if w + u > 0 {
            engine.flush();
            engine.flush_unseq();
        }
        let dropped = write_images(
            &engine,
            io.as_ref(),
            &faults,
            &dir,
            &mut generation,
            &mut persisted,
        )?;
        let generation = generation + 1;
        let wal = io
            .open_append(&dir.join(format!("wal-{generation}.log")))
            .map_err(StoreError::Wal)?;
        let wal_appends = engine.obs().counter(backsort_obs::names::WAL_APPENDS);
        let wal_bytes = engine.obs().counter(backsort_obs::names::WAL_BYTES);
        let wal_batch_encode_nanos = engine
            .obs()
            .histogram(backsort_obs::names::WAL_BATCH_ENCODE_NANOS);
        let mut this = Self {
            engine,
            dir,
            io,
            faults,
            wal,
            generation,
            persisted,
            wal_appends,
            wal_bytes,
            wal_batch_encode_nanos,
            scratch: Vec::with_capacity(256),
        };
        // Replayed deletes recreated pending tombstones whose only
        // durable record is the segments about to be retired: re-log
        // them into the fresh floor segment *before* the manifest commit
        // makes the old segments dead.
        this.log_pending_tombstones()?;
        commit_manifest_and_gc(
            &this.engine,
            this.io.as_ref(),
            &this.faults,
            &this.dir,
            &this.persisted,
            dropped,
            this.generation,
        )?;
        this.faults
            .hit(fault_sites::STORE_OPEN_BEFORE_WAL_DELETE)
            .map_err(StoreError::Recover)?;
        for (gen, name) in &wals {
            if *gen < this.generation {
                let _ = this.io.remove(&this.dir.join(name));
            }
        }
        Ok(this)
    }

    /// The wrapped engine (for queries, aggregation, metrics).
    pub fn engine(&self) -> &StorageEngine {
        &self.engine
    }

    /// Encodes and appends one record to the active WAL segment, through
    /// the reusable scratch buffer.
    fn append_record(&mut self, record: &WalRecord) -> StoreResult<()> {
        self.scratch.clear();
        record.encode_into(&mut self.scratch);
        self.append_scratch()
    }

    /// Appends whatever frame sits in `scratch` to the active segment.
    fn append_scratch(&mut self) -> StoreResult<()> {
        self.wal.append(&self.scratch).map_err(StoreError::Wal)?;
        self.wal_appends.inc();
        self.wal_bytes.add(self.scratch.len() as u64);
        Ok(())
    }

    /// Durably writes one point: WAL first, then the memtable. On a
    /// flush, persists the file image and rotates the WAL.
    ///
    /// A point whose type contradicts the series' buffered type is
    /// rejected by the memtable (counted under
    /// `memtable.type_mismatch_rejects`) rather than aborting; its WAL
    /// frame replays into the same rejection.
    pub fn write(
        &mut self,
        key: &SeriesKey,
        t: i64,
        v: TsValue,
    ) -> StoreResult<Option<FlushMetrics>> {
        self.scratch.clear();
        WalRecord::encode_point(&mut self.scratch, key, t, &v);
        self.append_scratch()?;
        self.faults
            .hit(fault_sites::STORE_WRITE_AFTER_WAL)
            .map_err(StoreError::Wal)?;
        let flushed = self.engine.write(key, t, v);
        if flushed.is_some() {
            self.persist_and_rotate()?;
        }
        Ok(flushed)
    }

    /// Durably writes one columnar batch as a *single* WAL frame, then
    /// applies it through [`StorageEngine::write_batch`]. Any flush the
    /// batch triggers persists images and rotates the WAL, exactly as a
    /// point-triggered flush would.
    ///
    /// The frame is the atomicity unit: a crash mid-append tears the
    /// frame's CRC and replay drops the whole (unacknowledged) batch
    /// while keeping every record before it. A type-mismatched batch is
    /// rejected whole by the engine (nothing enters the memtables, the
    /// reject counter ticks) and its logged frame replays into the same
    /// whole-batch rejection.
    pub fn write_batch(
        &mut self,
        key: &SeriesKey,
        batch: &PointBatch,
    ) -> StoreResult<Vec<FlushMetrics>> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let timed = self.engine.obs().is_enabled();
        let start = timed.then(std::time::Instant::now);
        self.scratch.clear();
        WalRecord::encode_batch(&mut self.scratch, key, batch);
        if let Some(start) = start {
            self.wal_batch_encode_nanos
                .record(start.elapsed().as_nanos() as u64);
        }
        self.append_scratch()?;
        self.faults
            .hit(fault_sites::STORE_WRITE_BATCH_APPEND)
            .map_err(StoreError::Wal)?;
        let flushed = self.engine.write_batch(key, batch).unwrap_or_default();
        if !flushed.is_empty() {
            self.persist_and_rotate()?;
        }
        Ok(flushed)
    }

    /// Durably deletes all points of `key` in `[t_lo, t_hi]`: the
    /// tombstone is recorded in the engine (capturing the exact file
    /// horizon), then logged to the WAL. A crash between the two loses
    /// an unacknowledged delete — never an acknowledged one, and never a
    /// previously acknowledged write. Returns how many in-memory points
    /// were removed.
    pub fn delete_range(&mut self, key: &SeriesKey, t_lo: i64, t_hi: i64) -> StoreResult<usize> {
        let (removed, horizon) = self.engine.delete_range_with_horizon(key, t_lo, t_hi);
        let record = WalRecord::Delete {
            key: key.clone(),
            t_lo,
            t_hi,
            horizon: horizon.min(u32::MAX as usize) as u32,
        };
        self.append_record(&record)?;
        self.faults
            .hit(fault_sites::STORE_DELETE_AFTER_WAL)
            .map_err(StoreError::Wal)?;
        Ok(removed)
    }

    /// Durably flushes everything buffered.
    pub fn flush(&mut self) -> StoreResult<()> {
        self.engine.flush();
        self.persist_and_rotate()
    }

    /// Re-logs every still-pending tombstone into the active segment and
    /// syncs it. Until compaction applies a tombstone physically, the
    /// WAL is its only durable record — so each fresh segment must carry
    /// the pending set before the segments that logged it originally are
    /// truncated.
    fn log_pending_tombstones(&mut self) -> StoreResult<()> {
        let mut any = false;
        for shard in 0..self.engine.shard_count() {
            for (tomb, horizon) in self.engine.pending_tombstones(shard) {
                let record = WalRecord::Tombstone {
                    key: tomb.key,
                    t_lo: tomb.t_lo,
                    t_hi: tomb.t_hi,
                    horizon: horizon.min(u32::MAX as usize) as u32,
                };
                self.append_record(&record)?;
                any = true;
            }
        }
        if any {
            self.wal.sync().map_err(StoreError::Wal)?;
        }
        Ok(())
    }

    fn persist_and_rotate(&mut self) -> StoreResult<()> {
        self.faults
            .hit(fault_sites::STORE_ROTATE_BEGIN)
            .map_err(StoreError::Wal)?;
        // Commit the outgoing segment before any persist work. If the
        // pass dies after writing images but before its manifest commit,
        // recovery discards those images (not yet live) and must be able
        // to rebuild their content from this segment — which it can only
        // do if the records survived the crash.
        self.wal.sync().map_err(StoreError::Wal)?;
        // A WAL segment interleaves every shard's records, so before any
        // segment is deleted *all* shards' buffered data must reach
        // persisted files: flush each non-empty working memtable (the
        // shard whose rotation triggered this call is already empty) and
        // every unsequence buffer, then write out the new images.
        self.engine.flush_dirty();
        self.engine.flush_unseq();
        self.faults
            .hit(fault_sites::STORE_ROTATE_AFTER_FLUSH)
            .map_err(StoreError::Persist)?;
        let dropped = write_images(
            &self.engine,
            self.io.as_ref(),
            &self.faults,
            &self.dir,
            &mut self.generation,
            &mut self.persisted,
        )?;
        // Rotate the WAL. The old segments stay *live* until the
        // manifest commit below raises the floor past them — and before
        // that commit, any still-pending tombstones (whose only durable
        // record sits in those old segments) are re-logged into the new
        // segment and synced.
        self.generation += 1;
        let new_wal = self
            .io
            .open_append(&self.dir.join(format!("wal-{}.log", self.generation)))
            .map_err(StoreError::Wal)?;
        let old = std::mem::replace(&mut self.wal, new_wal);
        drop(old);
        self.log_pending_tombstones()?;
        commit_manifest_and_gc(
            &self.engine,
            self.io.as_ref(),
            &self.faults,
            &self.dir,
            &self.persisted,
            dropped,
            self.generation,
        )?;
        // Truncate stale segments strictly oldest-first: a crash mid-loop
        // then leaves a *suffix* of segments, so a surviving re-logged
        // tombstone record implies every later record survived too —
        // replay can re-apply the delete without losing newer writes.
        let mut stale: Vec<u64> = self
            .io
            .list_dir(&self.dir)
            .map_err(StoreError::Wal)?
            .into_iter()
            .filter_map(|name| {
                name.strip_prefix("wal-")?
                    .strip_suffix(".log")?
                    .parse()
                    .ok()
            })
            .filter(|gen| *gen < self.generation)
            .collect();
        stale.sort_unstable();
        for gen in stale {
            self.faults
                .hit(fault_sites::STORE_ROTATE_TRUNCATE)
                .map_err(StoreError::Wal)?;
            remove_stale(
                &self.engine,
                self.io.as_ref(),
                &self.dir.join(format!("wal-{gen}.log")),
            );
        }
        self.engine
            .obs()
            .counter(backsort_obs::names::WAL_ROTATIONS)
            .inc();
        Ok(())
    }

    /// Time-range query (see [`StorageEngine::query`]).
    pub fn query(&self, key: &SeriesKey, t_lo: i64, t_hi: i64) -> QueryResult {
        self.engine.query(key, t_lo, t_hi)
    }

    /// Durability barrier: fsyncs the WAL. On `Ok`, everything written
    /// so far survives a crash; on `Err`, nothing since the previous
    /// successful barrier may be assumed durable (a failed fsync leaves
    /// the page cache in an unknown state — do not ack).
    pub fn sync(&mut self) -> StoreResult<()> {
        self.faults
            .hit(fault_sites::STORE_SYNC)
            .map_err(StoreError::Wal)?;
        self.wal.sync().map_err(StoreError::Wal)
    }
}

/// Phase one of a persist pass: writes every not-yet-persisted file
/// image durably under a fresh generation, keyed by file id.
///
/// Shards are walked in ascending order, each shard's files oldest
/// first. Generation numbers are only identities here, not priorities:
/// a leveled compaction output ranks *before* newer files of its shard
/// but is persisted later (higher generation), so merge priority at
/// recovery comes from the manifest's listed order, not numeric order.
/// Returns the generations of files compaction merged away (no longer
/// referenced by any id), for [`commit_manifest_and_gc`] to collect
/// *after* the manifest commit.
fn write_images(
    engine: &StorageEngine,
    io: &dyn Io,
    faults: &FailpointRegistry,
    dir: &Path,
    generation: &mut u64,
    persisted: &mut [HashMap<u64, u64>],
) -> StoreResult<Vec<u64>> {
    let mut first_written = false;
    for (shard, done) in persisted.iter_mut().enumerate() {
        for id in engine.shard_file_ids(shard) {
            if done.contains_key(&id) {
                continue;
            }
            // The image can only be gone if compaction ran in between;
            // the merged file then carries the data under its own id.
            if let Some(image) = engine.file_image(shard, id) {
                *generation += 1;
                io.write_durable(&dir.join(format!("tsfile-{generation}.bstf")), &image)
                    .map_err(StoreError::Persist)?;
                done.insert(id, *generation);
                if !first_written {
                    first_written = true;
                    faults
                        .hit(fault_sites::STORE_PERSIST_AFTER_FIRST_WRITE)
                        .map_err(StoreError::Persist)?;
                }
            }
        }
    }
    // Forget ids compaction merged away; a generation is dropped only
    // once no shard references it anymore (a multi-device file adopted
    // into several shards shares one).
    let mut dropped_gens: Vec<u64> = Vec::new();
    for (shard, done) in persisted.iter_mut().enumerate() {
        let live: HashSet<u64> = engine.shard_file_ids(shard).into_iter().collect();
        done.retain(|id, gen| {
            if live.contains(id) {
                true
            } else {
                dropped_gens.push(*gen);
                false
            }
        });
    }
    Ok(dropped_gens)
}

/// Phase two: durably commits the manifest (live file generations plus
/// the WAL floor), then garbage-collects disk files no shard references
/// anymore. The manifest write is the commit point of the whole pass —
/// GC before it would let a crash in between resurrect compaction
/// inputs at recovery, with their tombstones already consumed by the
/// compaction.
/// Best-effort removal of a file that is no longer live (a retired WAL
/// segment, a dead tsfile generation, a torn image). Failure never
/// endangers durability — the path is already outside the manifest's
/// live set and the next open retries the removal — but it leaks disk,
/// so it is counted under `store.remove_failures` instead of being
/// silently discarded.
fn remove_stale(engine: &StorageEngine, io: &dyn Io, path: &Path) {
    if io.remove(path).is_err() {
        engine
            .obs()
            .counter(backsort_obs::names::STORE_REMOVE_FAILURES)
            .inc();
    }
}

fn commit_manifest_and_gc(
    engine: &StorageEngine,
    io: &dyn Io,
    faults: &FailpointRegistry,
    dir: &Path,
    persisted: &[HashMap<u64, u64>],
    mut dropped_gens: Vec<u64>,
    wal_floor: u64,
) -> StoreResult<()> {
    // The live list is built from the engine *now*, not captured during
    // `write_images`: a level promotion rewrites no image (same id, same
    // generation), so only the current in-memory level is authoritative.
    // Order follows each shard's current file order (the merge-priority
    // order recovery must reproduce), shards concatenated in index
    // order. A generation adopted into several shards keeps its first
    // position and takes the maximum level any shard assigned it;
    // recovery re-adopts it at that level everywhere, which only delays
    // (never corrupts) future compaction.
    let mut live_files: Vec<(u64, u32)> = Vec::new();
    let mut seen: HashMap<u64, usize> = HashMap::new();
    for (shard, done) in persisted.iter().enumerate() {
        for (id, level) in engine.shard_file_meta(shard) {
            if let Some(&gen) = done.get(&id) {
                match seen.get(&gen) {
                    Some(&pos) => {
                        let slot = &mut live_files[pos].1;
                        *slot = (*slot).max(level);
                    }
                    None => {
                        seen.insert(gen, live_files.len());
                        live_files.push((gen, level));
                    }
                }
            }
        }
    }
    let mut live_gens: Vec<u64> = live_files.iter().map(|&(gen, _)| gen).collect();
    live_gens.sort_unstable();
    // Every image of the pass is durable at this point; the manifest
    // write below is what makes them (and their levels) live.
    faults
        .hit(fault_sites::STORE_PERSIST_BEFORE_MANIFEST)
        .map_err(StoreError::Manifest)?;
    write_manifest(io, dir, &live_files, wal_floor).map_err(StoreError::Manifest)?;
    faults
        .hit(fault_sites::STORE_PERSIST_BEFORE_GC)
        .map_err(StoreError::Manifest)?;
    dropped_gens.sort_unstable();
    dropped_gens.dedup();
    for gen in dropped_gens {
        if live_gens.binary_search(&gen).is_err() {
            faults
                .hit(fault_sites::STORE_PERSIST_GC)
                .map_err(StoreError::Manifest)?;
            remove_stale(engine, io, &dir.join(format!("tsfile-{gen}.bstf")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use backsort_core::Algorithm;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("backsort-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn config(max_points: usize) -> EngineConfig {
        EngineConfig {
            memtable_max_points: max_points,
            array_size: 16,
            sorter: Algorithm::Backward(Default::default()),
            shards: 1,
            ..EngineConfig::default()
        }
    }

    fn key() -> SeriesKey {
        SeriesKey::new("root.sg.d1", "s1")
    }

    fn point(t: i64, v: TsValue) -> WalRecord {
        WalRecord::Point { key: key(), t, v }
    }

    #[test]
    fn failed_stale_removal_is_counted() {
        use backsort_faults::io::RealIo;
        let engine = StorageEngine::new(config(1024));
        let failures = backsort_obs::names::STORE_REMOVE_FAILURES;
        assert_eq!(engine.obs().counter_value(failures), 0);
        remove_stale(
            &engine,
            &RealIo,
            Path::new("/nonexistent/backsort-remove-stale-test"),
        );
        assert_eq!(engine.obs().counter_value(failures), 1);
        // A removal that succeeds leaves the counter alone.
        let dir = tmpdir("remove-stale");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.bstf");
        fs::write(&path, b"x").unwrap();
        remove_stale(&engine, &RealIo, &path);
        assert!(!path.exists());
        assert_eq!(engine.obs().counter_value(failures), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn wal_record_roundtrip_all_types() {
        let values = [
            TsValue::Int(-7),
            TsValue::Long(1 << 40),
            TsValue::Float(2.5),
            TsValue::Double(-0.125),
            TsValue::Bool(true),
            TsValue::Text("état du capteur".to_string()),
        ];
        let mut buf = Vec::new();
        for (i, v) in values.iter().enumerate() {
            point(i as i64, v.clone()).encode_into(&mut buf);
        }
        let (recs, discarded) = replay_wal(&buf);
        assert_eq!(discarded, 0);
        assert_eq!(recs.len(), values.len());
        for (i, rec) in recs.iter().enumerate() {
            assert_eq!(rec, &point(i as i64, values[i].clone()));
        }
    }

    #[test]
    fn wal_delete_record_roundtrips() {
        let mut buf = Vec::new();
        let del = WalRecord::Delete {
            key: key(),
            t_lo: -5,
            t_hi: 1 << 33,
            horizon: 7,
        };
        del.encode_into(&mut buf);
        point(1, TsValue::Int(1)).encode_into(&mut buf);
        let relog = WalRecord::Tombstone {
            key: key(),
            t_lo: -5,
            t_hi: 1 << 33,
            horizon: 7,
        };
        relog.encode_into(&mut buf);
        let (recs, discarded) = replay_wal(&buf);
        assert_eq!(discarded, 0);
        assert_eq!(recs, vec![del, point(1, TsValue::Int(1)), relog]);
    }

    #[test]
    fn torn_tail_stops_replay_cleanly() {
        let mut buf = Vec::new();
        point(1, TsValue::Int(1)).encode_into(&mut buf);
        point(2, TsValue::Int(2)).encode_into(&mut buf);
        // Simulate a crash mid-write of record 3.
        let mut partial = Vec::new();
        point(3, TsValue::Int(3)).encode_into(&mut partial);
        let torn = partial.len() / 2;
        buf.extend_from_slice(&partial[..torn]);
        let (recs, discarded) = replay_wal(&buf);
        assert_eq!(recs.len(), 2);
        assert_eq!(discarded, torn, "exactly the torn tail is discarded");
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let mut buf = Vec::new();
        point(1, TsValue::Int(1)).encode_into(&mut buf);
        let n = buf.len();
        buf[n - 1] ^= 0xFF;
        let (recs, discarded) = replay_wal(&buf);
        assert!(recs.is_empty());
        assert_eq!(discarded, n);
    }

    #[test]
    fn manifest_roundtrips_and_rejects_corruption() {
        let io = RealIo;
        let dir = tmpdir("manifest");
        io.create_dir_all(&dir).unwrap();
        write_manifest(&io, &dir, &[(3, 0), (7, 2), (12, 1)], 13).unwrap();
        assert_eq!(
            read_manifest(&io, &dir),
            Some(Manifest {
                files: vec![(3, 0), (7, 2), (12, 1)],
                wal_floor: 13,
            })
        );
        // An empty generation set is a valid manifest.
        write_manifest(&io, &dir, &[], 1).unwrap();
        assert_eq!(
            read_manifest(&io, &dir),
            Some(Manifest {
                files: Vec::new(),
                wal_floor: 1,
            })
        );
        // Any corruption (here: a flipped byte) reads as "no manifest".
        let path = dir.join(MANIFEST_NAME);
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(read_manifest(&io, &dir), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_manifest_tokens_read_as_level_zero() {
        let io = RealIo;
        let dir = tmpdir("manifest-legacy");
        io.create_dir_all(&dir).unwrap();
        // A manifest written before levels existed: bare generations.
        let body = format!("{MANIFEST_MAGIC}\nfiles 4 9 11\nwal-floor 12\n");
        let full = format!("{body}crc {:08x}\n", crc32(body.as_bytes()));
        io.write_durable(&dir.join(MANIFEST_NAME), full.as_bytes())
            .unwrap();
        assert_eq!(
            read_manifest(&io, &dir),
            Some(Manifest {
                files: vec![(4, 0), (9, 0), (11, 0)],
                wal_floor: 12,
            })
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_levels_survive_reopen() {
        let dir = tmpdir("level-reopen");
        let cfg = || EngineConfig {
            compaction: crate::engine::CompactionConfig {
                l0_trigger: 2,
                level_base_bytes: 1 << 10,
                growth: 2,
            },
            ..config(20)
        };
        {
            let mut eng = DurableEngine::open(&dir, cfg()).unwrap();
            // Four flushed files → the leveled pass folds the L0 suffix.
            for round in 0..4i64 {
                for t in 0..20i64 {
                    eng.write(&key(), round * 100 + t, TsValue::Long(round * 100 + t))
                        .unwrap();
                }
            }
            eng.engine().compact_auto();
            let meta = eng.engine().shard_file_meta(0);
            assert!(
                meta.iter().any(|&(_, level)| level > 0),
                "compaction produced a leveled file: {meta:?}"
            );
            // Force a persist pass so the manifest records the levels.
            eng.flush().unwrap();
        }
        let eng = DurableEngine::open(&dir, cfg()).unwrap();
        let meta = eng.engine().shard_file_meta(0);
        assert!(
            meta.iter().any(|&(_, level)| level > 0),
            "levels recovered from the manifest: {meta:?}"
        );
        assert_eq!(eng.query(&key(), i64::MIN, i64::MAX).len(), 80);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_batch_record_roundtrips_every_type() {
        use crate::types::DataType;
        let batches = [
            PointBatch::from_rows([(1, TsValue::Int(-7)), (5, TsValue::Int(9))]).unwrap(),
            PointBatch::from_rows([(2, TsValue::Long(1 << 40))]).unwrap(),
            PointBatch::from_rows([(3, TsValue::Float(2.5)), (4, TsValue::Float(-0.5))]).unwrap(),
            PointBatch::from_rows([(0, TsValue::Double(-0.125))]).unwrap(),
            PointBatch::from_rows([(9, TsValue::Bool(true)), (12, TsValue::Bool(false))]).unwrap(),
            PointBatch::from_rows([(7, TsValue::Text("état".into()))]).unwrap(),
            PointBatch::new(DataType::Int64), // empty batch still frames
        ];
        let mut buf = Vec::new();
        for b in &batches {
            WalRecord::PointBatch {
                key: key(),
                batch: b.clone(),
            }
            .encode_into(&mut buf);
        }
        // Interleave a point record to prove kinds coexist in a segment.
        point(99, TsValue::Int(1)).encode_into(&mut buf);
        let (recs, discarded) = replay_wal(&buf);
        assert_eq!(discarded, 0);
        assert_eq!(recs.len(), batches.len() + 1);
        for (rec, want) in recs.iter().zip(&batches) {
            assert_eq!(
                rec,
                &WalRecord::PointBatch {
                    key: key(),
                    batch: want.clone(),
                }
            );
        }
    }

    #[test]
    fn torn_batch_frame_drops_only_the_batch() {
        let mut buf = Vec::new();
        point(1, TsValue::Int(1)).encode_into(&mut buf);
        let mut partial = Vec::new();
        let batch = PointBatch::from_rows([(2, TsValue::Int(2)), (3, TsValue::Int(3))]).unwrap();
        WalRecord::PointBatch { key: key(), batch }.encode_into(&mut partial);
        // Every possible tear point: prefix survives, batch is lost whole.
        for torn in 0..partial.len() {
            let mut bytes = buf.clone();
            bytes.extend_from_slice(&partial[..torn]);
            let (recs, discarded) = replay_wal(&bytes);
            assert_eq!(recs, vec![point(1, TsValue::Int(1))], "tear at {torn}");
            assert_eq!(discarded, torn);
        }
        // Bit flips anywhere in the complete frame: total decode, the
        // frame is either rejected or (flips in the length prefix can
        // shift framing) never yields a half-applied batch.
        for i in 0..partial.len() {
            let mut bytes = buf.clone();
            bytes.extend_from_slice(&partial);
            let n = buf.len() + i;
            bytes[n] ^= 0x10;
            let (recs, _) = replay_wal(&bytes);
            for rec in recs.iter().skip(1) {
                if let WalRecord::PointBatch { batch, .. } = rec {
                    assert!(batch.len() == 2, "bit flip at {i} half-applied a batch");
                }
            }
        }
    }

    #[test]
    fn durable_batch_writes_recover_after_crash() {
        let dir = tmpdir("batch-recover");
        {
            let mut eng = DurableEngine::open(&dir, config(50)).unwrap();
            // Batches big enough to rotate mid-stream (memtable max 50),
            // with a late straggler batch routed below the watermark.
            for lo in (0..120i64).step_by(30) {
                let rows: Vec<(i64, TsValue)> =
                    (lo..lo + 30).map(|t| (t, TsValue::Long(t * 10))).collect();
                let batch = PointBatch::from_rows(rows).unwrap();
                eng.write_batch(&key(), &batch).unwrap();
            }
            let straggler =
                PointBatch::from_rows([(3, TsValue::Long(-3)), (200, TsValue::Long(2000))])
                    .unwrap();
            eng.write_batch(&key(), &straggler).unwrap();
            eng.sync().unwrap();
            // Drop without flushing: the tail lives only in batch frames.
        }
        let eng = DurableEngine::open(&dir, config(50)).unwrap();
        let got = eng.query(&key(), i64::MIN, i64::MAX);
        assert_eq!(got.len(), 121, "all batch points recovered");
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        for (t, v) in got {
            let want = if t == 3 {
                TsValue::Long(-3)
            } else {
                TsValue::Long(t * 10)
            };
            assert_eq!(v, want, "last write wins at t={t} after batch replay");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_write_and_reopen_recovers_everything() {
        let dir = tmpdir("recover");
        {
            let mut eng = DurableEngine::open(&dir, config(50)).unwrap();
            for t in 0..120i64 {
                eng.write(&key(), t, TsValue::Long(t * 10)).unwrap();
            }
            eng.sync().unwrap();
            // Drop without flushing: 20 points live only in WAL.
        }
        {
            let eng = DurableEngine::open(&dir, config(50)).unwrap();
            let got = eng.query(&key(), 0, 200);
            assert_eq!(got.len(), 120, "all points recovered");
            for (t, v) in got {
                assert_eq!(v, TsValue::Long(t * 10));
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_twice_is_idempotent() {
        let dir = tmpdir("idempotent");
        {
            let mut eng = DurableEngine::open(&dir, config(30)).unwrap();
            for t in 0..75i64 {
                eng.write(&key(), t, TsValue::Double(t as f64)).unwrap();
            }
            eng.sync().unwrap();
        }
        for _ in 0..2 {
            let eng = DurableEngine::open(&dir, config(30)).unwrap();
            assert_eq!(eng.query(&key(), 0, 100).len(), 75);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn deletes_survive_restart() {
        let dir = tmpdir("delete");
        {
            let mut eng = DurableEngine::open(&dir, config(25)).unwrap();
            for t in 0..60i64 {
                eng.write(&key(), t, TsValue::Long(t)).unwrap(); // 2 files + WAL tail
            }
            // Covers flushed files (via tombstone) and memtable points.
            let removed = eng.delete_range(&key(), 10, 54).unwrap();
            assert!(removed > 0);
            eng.sync().unwrap();
        }
        for _ in 0..2 {
            let eng = DurableEngine::open(&dir, config(25)).unwrap();
            let got = eng.query(&key(), i64::MIN, i64::MAX);
            let times: Vec<i64> = got.iter().map(|(t, _)| *t).collect();
            let want: Vec<i64> = (0..10).chain(55..60).collect();
            assert_eq!(times, want, "deleted range stays deleted after reopen");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn delete_then_write_survives_restart() {
        let dir = tmpdir("delete-rewrite");
        {
            let mut eng = DurableEngine::open(&dir, config(25)).unwrap();
            for t in 0..30i64 {
                eng.write(&key(), t, TsValue::Long(t)).unwrap();
            }
            eng.delete_range(&key(), 0, 100).unwrap();
            // Re-written points arrive after the delete and must
            // survive replay (the logged horizon excludes their file).
            for t in 5..15i64 {
                eng.write(&key(), t, TsValue::Long(-t)).unwrap();
            }
            eng.sync().unwrap();
        }
        let eng = DurableEngine::open(&dir, config(25)).unwrap();
        let got = eng.query(&key(), i64::MIN, i64::MAX);
        assert_eq!(got.len(), 10);
        for (t, v) in got {
            assert_eq!(v, TsValue::Long(-t), "re-written value wins at t={t}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_and_stragglers_survive_restart() {
        let dir = tmpdir("straggler");
        {
            let mut eng = DurableEngine::open(&dir, config(40)).unwrap();
            // Out-of-order arrivals.
            let mut x = 3u64;
            for i in 0..100i64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                eng.write(&key(), i + (x % 5) as i64, TsValue::Int(i as i32))
                    .unwrap();
            }
            // A straggler below the watermark (memtable rotated at 40).
            eng.write(&key(), 1, TsValue::Int(-1)).unwrap();
            eng.sync().unwrap();
        }
        let eng = DurableEngine::open(&dir, config(40)).unwrap();
        let got = eng.query(&key(), i64::MIN, i64::MAX);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(
            got.iter().any(|(t, v)| *t == 1 && *v == TsValue::Int(-1)),
            "straggler must survive restart and win at t=1"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_segments_are_truncated_after_flush() {
        let dir = tmpdir("truncate");
        let mut eng = DurableEngine::open(&dir, config(25)).unwrap();
        for t in 0..100i64 {
            eng.write(&key(), t, TsValue::Long(t)).unwrap();
        }
        eng.sync().unwrap();
        let wal_count = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("wal-")
            })
            .count();
        assert_eq!(wal_count, 1, "only the active WAL segment survives");
        drop(eng);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_without_rotation_survives_wal_truncation() {
        let dir = tmpdir("asymmetric");
        let sharded = || EngineConfig {
            shards: 4,
            ..config(40)
        };
        let ka = SeriesKey::new("root.sg.d0", "s"); // heavy: rotates twice
        let kb = SeriesKey::new("root.sg.d2", "s"); // light: never rotates
        {
            let mut eng = DurableEngine::open(&dir, sharded()).unwrap();
            for t in 0..10i64 {
                eng.write(&kb, t, TsValue::Long(-t)).unwrap();
            }
            // d0's rotations truncate the older WAL segments, which also
            // hold d2's only copies — d2's shard must be flushed too.
            for t in 0..85i64 {
                eng.write(&ka, t, TsValue::Long(t)).unwrap();
            }
            eng.sync().unwrap();
        }
        let eng = DurableEngine::open(&dir, sharded()).unwrap();
        assert_eq!(eng.query(&ka, 0, 200).len(), 85);
        let got = eng.query(&kb, 0, 200);
        assert_eq!(got.len(), 10, "unrotated shard's points survive");
        for (t, v) in got {
            assert_eq!(v, TsValue::Long(-t));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_under_durable_engine_keeps_later_flushes_persisted() {
        let dir = tmpdir("compact");
        let key = key();
        {
            let mut eng = DurableEngine::open(&dir, config(25)).unwrap();
            for t in 0..75i64 {
                eng.write(&key, t, TsValue::Long(t)).unwrap(); // 3 files persisted
            }
            let report = eng.engine().compact();
            assert!(report.files_in >= 2, "files_in {}", report.files_in);
            // Everything flushed *after* the compaction must still reach
            // disk (persistence keys on ids, not positions).
            for t in 75..150i64 {
                eng.write(&key, t, TsValue::Long(t)).unwrap();
            }
            eng.sync().unwrap();
        }
        let eng = DurableEngine::open(&dir, config(25)).unwrap();
        let got = eng.query(&key, 0, 300);
        assert_eq!(got.len(), 150, "post-compaction flushes survive restart");
        for (t, v) in got {
            assert_eq!(v, TsValue::Long(t));
        }
        // The merged-away generations were garbage collected from disk:
        // the compacted image plus the post-compaction files remain.
        drop(eng);
        let tsfile_count = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("tsfile-")
            })
            .count();
        assert!(
            tsfile_count <= 4,
            "stale tsfiles not collected: {tsfile_count}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_durable_engine_recovers_across_shards() {
        let dir = tmpdir("sharded");
        let sharded = || EngineConfig {
            shards: 4,
            ..config(40)
        };
        // d0 and d2 hash to different shards (FNV-1a mod 4); both flush
        // and both tails live only in the WAL at crash time.
        let ka = SeriesKey::new("root.sg.d0", "s");
        let kb = SeriesKey::new("root.sg.d2", "s");
        {
            let mut eng = DurableEngine::open(&dir, sharded()).unwrap();
            for t in 0..90i64 {
                eng.write(&ka, t, TsValue::Long(t)).unwrap();
                eng.write(&kb, t, TsValue::Long(-t)).unwrap();
            }
            eng.sync().unwrap();
        }
        let eng = DurableEngine::open(&dir, sharded()).unwrap();
        for (k, sign) in [(&ka, 1i64), (&kb, -1i64)] {
            let got = eng.query(k, 0, 200);
            assert_eq!(got.len(), 90);
            for (t, v) in got {
                assert_eq!(v, TsValue::Long(sign * t));
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
