//! Durable storage: a write-ahead log plus persisted TsFiles, with crash
//! recovery, owned by an engine opened on a directory
//! ([`StorageEngine::open`]). On an engine built by
//! [`StorageEngine::new`] the same calls log nothing.
//!
//! 1. [`StorageEngine::write_batch`] and [`StorageEngine::delete_range`]
//!    append their record (CRC-framed) to the active WAL segment
//!    *before* it is applied. Replay runs a delete as a fresh one:
//!    stamped above every file present, it masks them all, as the live
//!    delete did;
//! 2. a logged write's rotation, and [`StorageEngine::persist`], run the
//!    one persist pass: every shard's buffered data is flushed (a WAL
//!    segment interleaves all shards' records), each file not yet on
//!    disk is persisted as `tsfile-<gen>.bstf`, a fresh segment opens,
//!    and a new `MANIFEST-<floor>` commits the live generations with
//!    their levels and stamps, the pending tombstones with theirs, and
//!    the new WAL floor — the single atomic point that retires the old
//!    segments. Only then is anything deleted, and the manifest alone
//!    decides what: every older manifest first, then every file it does
//!    not name and every segment below its floor;
//! 3. [`StorageEngine::open`] recovers from the newest manifest that
//!    parses: it restores the listed tombstones at their stamps, adopts
//!    every listed file at its stamp (splitting one whose devices now
//!    span shards), replays the segments at or above the floor (a torn
//!    tail ends at the first bad CRC, counted in
//!    `wal.replay_discarded_bytes`), then runs the same pass. A listed
//!    file that is missing or does not parse, or files with no manifest
//!    that parses, refuse the open and delete nothing.
//!
//! The store sits behind one mutex, taken before any shard lock and
//! never under one: a logged write holds it from its append through the
//! pass its rotation runs. Compactions do not take it, so the pass
//! snapshots each shard's files and tombstones under one read lock.
//!
//! Persistence is keyed on file *ids*, not positions, so a compaction
//! shows as "old ids gone, one new id". A merged image whose manifest
//! write never happened is ignored at recovery (its data is still in
//! the WAL or the listed inputs), inputs that survived a mid-deletion
//! crash are dropped, and a torn or flipped manifest leaves the commit
//! before it in force. All file traffic goes through an injectable
//! [`Io`] sink, and every state-changing step passes a named failpoint
//! ([`backsort_faults::sites`]): the root crate's
//! `tests/crash_explore.rs` kills the engine at each and checks
//! recovery.

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use backsort_faults::io::{Io, RealIo, WalFile};
use backsort_faults::{sites, FailpointRegistry};
use backsort_obs::Registry;
use parking_lot::{Mutex, MutexGuard};

use crate::batch::{put_batch, put_key, read_batch, PointBatch, Unread, ValueColumn};
use crate::delete::Tombstone;
use crate::encoding::{ts2diff, varint};
use crate::engine::{EngineConfig, StorageEngine};
use crate::flush::FlushMetrics;
use crate::query::QueryResult;
use crate::read::FileHandle;
use crate::types::{DataType, SeriesKey};

/// CRC-32 (IEEE, reflected), eight bytes a step ("slicing-by-8": table
/// `k` carries a byte through `k` more zero bytes) — no dependency, and
/// a batch's cells checksum at a third of a byte-at-a-time loop's cost.
pub fn crc32(data: &[u8]) -> u32 {
    const fn tables() -> [[u32; 256]; 8] {
        let mut t = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut s = 0;
            while s < 8 {
                let mut k = 0;
                while k < 8 {
                    c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
                    k += 1;
                }
                t[s][i] = c;
                s += 1;
            }
            i += 1;
        }
        t
    }
    const TABLES: [[u32; 256]; 8] = tables();
    let [base, ..] = &TABLES;
    let (words, tail) = data.as_chunks::<8>();
    let mut c = 0xFFFF_FFFFu32;
    for word in words {
        let x = u64::from_le_bytes(*word) ^ u64::from(c);
        c = TABLES
            .iter()
            .rev()
            .enumerate()
            .fold(0, |acc, (i, t)| acc ^ t[((x >> (8 * i)) & 0xFF) as usize]);
    }
    !tail.iter().fold(c, |c, &b| {
        base[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
    })
}

/// A durability-protocol failure, classified by the stage that hit it.
///
/// The stage matters to callers: a [`StoreError::Wal`] means the write
/// being acknowledged never became durable (do not ack), while a
/// [`StoreError::Persist`] or [`StoreError::Manifest`] failure leaves
/// every acknowledged record still covered by the WAL — the engine can
/// be reopened and recovery replays it. [`StoreError::Recover`] aborts
/// an `open` with the directory untouched beyond idempotent cleanup. A
/// refused write (`Wal` of kind `InvalidInput`) is the only failure of
/// an engine without a directory.
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
            StoreError::Wal(e) if e.kind() == io::ErrorKind::InvalidInput => write!(f, "{e}"),
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

/// Result alias for [`StorageEngine::open`] and the calls that log.
pub type StoreResult<T> = Result<T, StoreError>;

// Kind 0 was a single-point write. It is refused like any unknown kind
// and never reused, so a segment an older build wrote replays up to its
// first point frame. Kinds 1–3, an older build's records (one dotted
// name, a TS_2DIFF and Gorilla batch), are read, never written.
const LEGACY_DELETE: u8 = 1;
const LEGACY_TOMBSTONE: u8 = 2;
const LEGACY_BATCH: u8 = 3;
const KIND_BATCH: u8 = 4;
pub(crate) const KIND_DELETE: u8 = 5;
const KIND_TOMBSTONE: u8 = 6;

/// Appends one `len(u32) | kind | body | crc32` frame, `body` writing
/// straight into `out` — no per-record buffer. The length and the CRC
/// cover the kind byte and the body. A body that fails, or a payload
/// past `u32::MAX` bytes, appends nothing.
fn put_frame(
    out: &mut Vec<u8>,
    kind: u8,
    body: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
) -> io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    out.push(kind);
    let framed = body(out).and_then(|()| {
        u32::try_from(out.len() - start - 4)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "a WAL record over 4 GiB"))
    });
    let len = match framed {
        Ok(len) => len,
        Err(e) => {
            out.truncate(start);
            return Err(e);
        }
    };
    out.splice(start..start + 4, len.to_le_bytes());
    let crc = crc32(out.get(start + 4..).unwrap_or_default());
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// One WAL record: a batch write, a range delete, or an older build's
/// re-logged tombstone.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A whole columnar batch for one series, logged as a single frame
    /// whose payload after the kind byte is the batch's one byte form
    /// ([`put_batch`], the wire's batch frame payload). Replay feeds the
    /// decoded batch back through
    /// [`StorageEngine::write_batch_nonblocking`], so the batch is one
    /// atomic WAL unit — a torn frame loses the whole (unacknowledged)
    /// batch and nothing before it.
    PointBatch {
        /// Destination series.
        key: SeriesKey,
        /// The columnar payload.
        batch: PointBatch,
    },
    /// A range delete. Replay runs it as a fresh delete, which masks
    /// every file present — the files holding what was written before
    /// it — as the live one did.
    Delete {
        /// Target series.
        key: SeriesKey,
        /// Inclusive range start.
        t_lo: i64,
        /// Inclusive range end.
        t_hi: i64,
        /// An older build's file-count horizon: written 0, not read.
        horizon: u32,
    },
    /// A pending tombstone an older build *re-logged* at the head of a
    /// fresh segment at rotation; nothing writes it any more (the
    /// manifest lists pending tombstones). Replay restores only the file
    /// mask, over the shard's first `horizon` files, and removes no
    /// memtable point.
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
    /// Serializes as `len(u32) | payload | crc32(payload)`, straight
    /// into `out`. The payload is a kind byte, then the batch payload
    /// ([`put_batch`]), or the same two length-prefixed names and
    /// `i64 t_lo | i64 t_hi | u32 horizon`. A record the log cannot
    /// carry appends nothing and fails a debug assertion; an engine
    /// refuses such a write before it logs.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let written = match self {
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
                let kind = match self {
                    WalRecord::Delete { .. } => KIND_DELETE,
                    _ => KIND_TOMBSTONE,
                };
                encode_range(out, kind, key, *t_lo, *t_hi, *horizon)
            }
        };
        debug_assert!(written.is_ok(), "a record the log cannot carry");
    }

    /// Encodes a batch frame from borrowed parts — the ingest path calls
    /// this instead of cloning the [`SeriesKey`] and batch into a
    /// [`WalRecord::PointBatch`] only to destructure it again. An
    /// `InvalidInput` error, with nothing appended, for a batch the log
    /// cannot carry ([`put_batch`]).
    pub fn encode_batch(out: &mut Vec<u8>, key: &SeriesKey, batch: &PointBatch) -> io::Result<()> {
        put_frame(out, KIND_BATCH, |out| {
            put_batch(out, &key.device, &key.sensor, batch)
        })
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
        let (&kind, body) = payload.split_first()?;
        let record = match kind {
            KIND_BATCH => {
                let (key, batch) = read_batch(body).ok()?;
                WalRecord::PointBatch { key, batch }
            }
            LEGACY_BATCH => read_legacy_batch(body)?,
            _ => read_range(kind, body)?,
        };
        *pos = crc_pos + 4;
        Some(record)
    }
}

/// Encodes a delete (`KIND_DELETE`) or a legacy re-logged tombstone
/// (`KIND_TOMBSTONE`) frame from borrowed parts.
pub(crate) fn encode_range(
    out: &mut Vec<u8>,
    kind: u8,
    key: &SeriesKey,
    t_lo: i64,
    t_hi: i64,
    horizon: u32,
) -> io::Result<()> {
    put_frame(out, kind, |out| {
        put_key(out, &key.device, &key.sensor)?;
        out.extend_from_slice(&t_lo.to_le_bytes());
        out.extend_from_slice(&t_hi.to_le_bytes());
        out.extend_from_slice(&horizon.to_le_bytes());
        Ok(())
    })
}

/// Decodes a delete or a tombstone record's body: its key, then
/// `i64 t_lo | i64 t_hi | u32 horizon`.
fn read_range(kind: u8, body: &[u8]) -> Option<WalRecord> {
    let mut unread = Unread(body);
    let key = match kind {
        KIND_DELETE | KIND_TOMBSTONE => unread.key().ok()?,
        LEGACY_DELETE | LEGACY_TOMBSTONE => unread.dotted_key().ok()?,
        _ => return None,
    };
    let t_lo = i64::from_le_bytes(unread.array().ok()?);
    let t_hi = i64::from_le_bytes(unread.array().ok()?);
    let horizon = u32::from_le_bytes(unread.array().ok()?);
    unread.finish().ok()?;
    Some(if matches!(kind, KIND_DELETE | LEGACY_DELETE) {
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
    })
}

/// Decodes an older build's batch record, read-only: its key, then
/// `dtype | varint count | u32 ts_len | ts2diff(ts) | value column`, the
/// value column under the TsFile page's scheme ([`ValueColumn::decode`]).
fn read_legacy_batch(body: &[u8]) -> Option<WalRecord> {
    let mut unread = Unread(body);
    let key = unread.dotted_key().ok()?;
    let [tag] = unread.array().ok()?;
    let rest = unread.0;
    let mut p = 0;
    let count = varint::read_u64(rest, &mut p)? as usize;
    let ts_len = u32::from_le_bytes(rest.get(p..p + 4)?.try_into().ok()?) as usize;
    let (ts, values) = rest.get(p + 4..)?.split_at_checked(ts_len)?;
    let ts = ts2diff::decode(ts, count)?;
    let values = ValueColumn::decode(DataType::from_tag(tag)?, count, values)?;
    let batch = PointBatch::from_columns(ts, values).ok()?;
    Some(WalRecord::PointBatch { key, batch })
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

const MANIFEST_MAGIC: &str = "backsort-manifest-v1";

/// The durable commit record of a persist pass: which TsFile
/// generations are live, where they rank and what masks them, and the
/// oldest WAL generation that still matters.
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
    /// Live files, each as `(generation, level, stamp)`, one entry per
    /// file of one shard: each shard's files oldest-first, the shards'
    /// lists merged by level, highest first. The order is load-bearing:
    /// a compaction output ranks before newer files of its shard but is
    /// persisted under a later generation, and may carry a larger stamp,
    /// so recovery must walk this list front-to-back to preserve
    /// last-write-wins. The stamp is `None`
    /// for an older build's token; recovery stamps those fresh, in
    /// listed order.
    files: Vec<(u64, u32, Option<u64>)>,
    /// The tombstones pending at the commit, each at its stamp: until
    /// compaction applies one, this is its only durable record.
    tombstones: Vec<Tombstone>,
    wal_floor: u64,
}

impl Manifest {
    /// The manifest's bytes, CRC-guarded so a torn write reads as "no
    /// manifest": the magic; a `files` line of `gen:level:stamp` tokens;
    /// a `tombstones` line of `<hex of put_key(device, sensor)>:<t_lo>:
    /// <t_hi>:<stamp>` tokens; the `wal-floor` line; then the CRC of all
    /// of it. A tombstone name over `u16::MAX` bytes is `InvalidInput`.
    fn encode(&self) -> io::Result<String> {
        let files: Vec<String> = (self.files.iter())
            .map(|&(gen, level, stamp)| match stamp {
                Some(stamp) => format!("{gen}:{level}:{stamp}"),
                None => format!("{gen}:{level}"),
            })
            .collect();
        let mut tombstones = Vec::with_capacity(self.tombstones.len());
        for t in &self.tombstones {
            let mut key = Vec::new();
            put_key(&mut key, &t.key.device, &t.key.sensor)?;
            let hex: String = key.iter().map(|b| format!("{b:02x}")).collect();
            tombstones.push(format!("{hex}:{}:{}:{}", t.t_lo, t.t_hi, t.stamp));
        }
        let body = format!(
            "{MANIFEST_MAGIC}\nfiles {}\ntombstones {}\nwal-floor {}\n",
            files.join(" "),
            tombstones.join(" "),
            self.wal_floor
        );
        Ok(format!("{body}crc {:08x}\n", crc32(body.as_bytes())))
    }
}

/// Durably records the manifest as `MANIFEST-<floor>`, beside the one
/// before it. Written after new images and *before* any GC — the commit
/// point of a persist pass.
fn write_manifest(io: &dyn Io, dir: &Path, manifest: &Manifest) -> io::Result<()> {
    let path = dir.join(name_of(MANIFEST, manifest.wal_floor));
    io.write_durable(&path, manifest.encode()?.as_bytes())
}

/// The newest manifest among `names` that parses, or `None`. A pass
/// deletes the older manifests only after its own commit, and before
/// anything they name, so a torn or flipped last write leaves the commit
/// before it in force, with its files and the segments above its floor.
fn read_manifest(io: &dyn Io, dir: &Path, names: &[String]) -> Option<Manifest> {
    let mut ranked: Vec<(u64, &String)> = (names.iter())
        .filter_map(|name| Some((manifest_rank(name)?, name)))
        .collect();
    ranked.sort_unstable_by_key(|&(rank, _)| Reverse(rank));
    (ranked.into_iter()).find_map(|(_, name)| parse_manifest(&io.read(&dir.join(name)).ok()?))
}

/// A manifest's rank by its name: its floor, or 0 for an older build's
/// single `MANIFEST`, which every numbered one outranks.
fn manifest_rank(name: &str) -> Option<u64> {
    (name == "MANIFEST")
        .then_some(0)
        .or_else(|| gen_of(name, MANIFEST))
}

/// Parses [`Manifest::encode`]'s bytes, or `None` for anything else: a
/// prefix, a CRC mismatch, a malformed token or line. An older build's
/// manifest has no `tombstones` line, and its file tokens are `gen` or
/// `gen:level` (level 0 when absent).
fn parse_manifest(bytes: &[u8]) -> Option<Manifest> {
    let text = std::str::from_utf8(bytes).ok()?;
    // The last line is the CRC of everything before it.
    let body_len = text.strip_suffix('\n')?.rfind('\n')? + 1;
    let (body, crc_line) = text.split_at_checked(body_len)?;
    let stored = crc_line.strip_prefix("crc ")?.strip_suffix('\n')?;
    if crc32(body.as_bytes()) != u32::from_str_radix(stored, 16).ok()? {
        return None;
    }
    let mut lines = body.strip_suffix('\n')?.split('\n');
    if lines.next()? != MANIFEST_MAGIC {
        return None;
    }
    let files = (lines.next()?.strip_prefix("files ")?.split_whitespace())
        .map(|token| {
            let mut fields = token.split(':');
            let gen = fields.next()?.parse().ok()?;
            let level = fields.next().map_or(Some(0), |f| f.parse().ok())?;
            let stamp = fields.next().map(str::parse).transpose().ok()?;
            fields.next().is_none().then_some((gen, level, stamp))
        })
        .collect::<Option<_>>()?;
    let mut line = lines.next()?;
    let mut tombstones = Vec::new();
    if let Some(list) = line.strip_prefix("tombstones ") {
        tombstones = list
            .split_whitespace()
            .map(parse_tombstone)
            .collect::<Option<_>>()?;
        line = lines.next()?;
    }
    let wal_floor = line.strip_prefix("wal-floor ")?.parse().ok()?;
    lines.next().is_none().then_some(Manifest {
        files,
        tombstones,
        wal_floor,
    })
}

/// Parses one `<hex key>:<t_lo>:<t_hi>:<stamp>` token.
fn parse_tombstone(token: &str) -> Option<Tombstone> {
    let mut fields = token.split(':');
    let hex = fields.next()?.as_bytes();
    let nibble = |b: u8| char::from(b).to_digit(16);
    let (pairs, odd) = hex.as_chunks::<2>();
    let key: Vec<u8> = (odd.is_empty().then_some(pairs)?.iter())
        .map(|&[hi, lo]| Some((nibble(hi)? << 4 | nibble(lo)?) as u8))
        .collect::<Option<_>>()?;
    let mut unread = Unread(&key);
    let key = unread.key().ok()?;
    unread.finish().ok()?;
    let tombstone = Tombstone {
        key,
        t_lo: fields.next()?.parse().ok()?,
        t_hi: fields.next()?.parse().ok()?,
        stamp: fields.next()?.parse().ok()?,
    };
    fields.next().is_none().then_some(tombstone)
}

/// The directory state of an engine opened on one: its WAL and what the
/// persist pass needs.
pub(crate) struct Store {
    dir: PathBuf,
    io: Arc<dyn Io>,
    wal: Box<dyn WalFile>,
    generation: u64,
    /// Engine file id → the disk generation its image is persisted
    /// under. An id is the file's stamp, unique across the engine. Each
    /// pass keeps only the ids still live, so after a commit the values
    /// are the generations its manifest names.
    persisted: HashMap<u64, u64>,
    /// Cached, so an append takes no registry lock.
    wal_bytes: Arc<backsort_obs::Counter>,
    /// Every record is encoded here, from borrowed parts, and appended as
    /// one slice: the steady state allocates nothing per record.
    scratch: Vec<u8>,
}

impl StorageEngine {
    /// Opens (creating or recovering) an engine on `dir`, on the real
    /// file system. Failpoints arm from the `BACKSORT_FAULTS`
    /// environment variable (unset ⇒ all disarmed).
    pub fn open(dir: impl AsRef<Path>, config: EngineConfig) -> StoreResult<Self> {
        Self::open_with(dir, config, Arc::new(RealIo), FailpointRegistry::from_env())
    }

    /// Opens an engine on `dir` over an injected [`Io`] sink and
    /// failpoint registry — the crash explorer passes a
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
        let mut engine = StorageEngine::instrumented(config, Arc::new(Registry::new()), faults);

        // Scan the directory for persisted TsFiles, WAL segments and
        // manifests.
        let names = io.list_dir(&dir).map_err(StoreError::Recover)?;
        let mut tsfiles: HashMap<u64, &String> = HashMap::new();
        let mut wals: Vec<(u64, &String)> = Vec::new();
        let mut max_gen = 0;
        for name in &names {
            if let Some(gen) = gen_of(name, TSFILE) {
                tsfiles.insert(gen, name);
            } else if let Some(gen) = gen_of(name, WAL) {
                wals.push((gen, name));
            }
            let gen = [TSFILE, WAL, MANIFEST]
                .into_iter()
                .find_map(|shape| gen_of(name, shape));
            max_gen = max_gen.max(gen.unwrap_or(0));
        }
        wals.sort();

        // Recovery starts from the newest whole commit. Without one, only
        // a directory that never committed opens: no file is on disk, and
        // the WAL holds everything.
        let refuse =
            |why: String| StoreError::Recover(io::Error::new(io::ErrorKind::InvalidData, why));
        let manifest = match read_manifest(io.as_ref(), &dir, &names) {
            Some(m) => m,
            None if tsfiles.is_empty() => Manifest {
                files: Vec::new(),
                tombstones: Vec::new(),
                wal_floor: 0,
            },
            None => {
                return Err(refuse(format!(
                    "{} TsFiles but no manifest parses",
                    tsfiles.len()
                )))
            }
        };
        // Every later draw lies above every stamp the manifest names, so
        // no restored tombstone masks a replayed rotation's file.
        let stamps = manifest.files.iter().filter_map(|&(_, _, stamp)| stamp);
        if let Some(max) = stamps
            .chain(manifest.tombstones.iter().map(|t| t.stamp))
            .max()
        {
            *engine.next_stamp.get_mut() = max.saturating_add(1);
        }
        // The tombstones go first, at their stamps: a split's merge
        // applies those stamped above the file it splits.
        for tombstone in manifest.tombstones {
            let shard = engine.shard_of(&tombstone.key.device);
            engine.shards[shard].get_mut().tombstones.push(tombstone);
        }
        // Adopt in the manifest's listed order, each file at its recorded
        // stamp: a shard's listed order is its rank, which a leveled
        // compaction output (persisted late, ranked early) makes differ
        // from numeric generation order. A listed file that is missing or
        // does not parse refuses the open, deleting nothing. The pass below
        // deletes what is not adopted — a generation the manifest does not
        // name (compaction inputs whose deletion was interrupted, an image
        // whose pass never committed: its records are still in the
        // replayed segments) — and the source of a split, whose pieces it
        // persists anew.
        let mut persisted = HashMap::new();
        for (gen, level, stamp) in manifest.files {
            let name = tsfiles
                .get(&gen)
                .ok_or_else(|| refuse(format!("tsfile-{gen} is missing")))?;
            let bytes = io.read(&dir.join(name)).map_err(StoreError::Recover)?;
            let stamp = stamp.unwrap_or_else(|| engine.draw_stamp());
            let installed = (engine.adopt_file_at(bytes, level, stamp))
                .ok_or_else(|| refuse(format!("tsfile-{gen} does not parse")))?;
            if installed.iter().any(|&(_, id)| id == stamp) {
                persisted.insert(stamp, gen);
            }
        }

        // A placeholder segment stands in as the outgoing one of the pass
        // that ends recovery; that pass's manifest floor retires it along
        // with every segment read here.
        let generation = max_gen + 1;
        let wal = io
            .open_append(&dir.join(name_of(WAL, generation)))
            .map_err(StoreError::Wal)?;
        let mut store = Store {
            dir: dir.clone(),
            io: Arc::clone(&io),
            wal,
            generation,
            persisted,
            wal_bytes: engine.obs().counter(backsort_obs::names::WAL_BYTES),
            scratch: Vec::with_capacity(256),
        };
        engine.failpoint(sites::STORE_OPEN_AFTER_ADOPT, StoreError::Recover)?;

        // Replay live WAL segments (at or above the manifest's floor)
        // into the memtables; the store is not attached yet, so nothing
        // is logged again. Segments below the floor are logically dead —
        // their surviving records are stale duplicates of data already
        // in the adopted images. Every segment stays on disk until the
        // pass below has persisted what was replayed; deleting one here
        // would lose its data to a crash mid-open.
        let mut discarded_total = 0usize;
        for (gen, name) in wals {
            if gen < manifest.wal_floor {
                continue;
            }
            let bytes = io.read(&dir.join(name)).map_err(StoreError::Recover)?;
            let (records, discarded) = replay_wal(&bytes);
            discarded_total += discarded;
            for rec in records {
                match rec {
                    // A batch replays through the write that logged it,
                    // a rotation installed before the next record; a
                    // mistyped one meets the rejection it met live.
                    WalRecord::PointBatch { key, batch } => {
                        engine.failpoint(sites::STORE_OPEN_BATCH_REPLAY, StoreError::Recover)?;
                        if engine.write_batch(&key, &batch).is_err() {
                            continue;
                        }
                    }
                    // Every file present holds what was written before
                    // the delete, and the fresh delete masks them all.
                    WalRecord::Delete {
                        key, t_lo, t_hi, ..
                    } => {
                        engine.delete_range(&key, t_lo, t_hi)?;
                    }
                    // An older build re-logged it at the head of the
                    // floor segment, right after adoption, where its
                    // horizon `h` counted the shard's listed files: it
                    // masks those stamped below the `h`-th, and removes
                    // no memtable point.
                    WalRecord::Tombstone {
                        key,
                        t_lo,
                        t_hi,
                        horizon,
                    } => {
                        let mut st = engine.shards[engine.shard_of(&key.device)].write();
                        let stamp = (st.files.get(horizon as usize))
                            .map_or_else(|| engine.draw_stamp(), FileHandle::id);
                        st.tombstones.push(Tombstone {
                            key,
                            t_lo,
                            t_hi,
                            stamp,
                        });
                    }
                }
            }
        }
        // Every file is in now, and a tombstone left masking nothing goes.
        for shard in &mut engine.shards {
            shard.get_mut().retain_tombstones();
        }
        if discarded_total > 0 {
            engine
                .obs()
                .counter(backsort_obs::names::WAL_REPLAY_DISCARDED_BYTES)
                .add(discarded_total as u64);
        }
        engine.failpoint(sites::STORE_OPEN_AFTER_REPLAY, StoreError::Recover)?;

        // What was replayed sits in memtables again, covered only by the
        // segments just read, and replayed deletes recreated tombstones
        // whose only durable record is the same segments: the rotation's
        // own pass persists the one and lists the other, and its
        // manifest's floor retires those segments.
        engine.commit(&mut store)?;
        engine.failpoint(sites::STORE_OPEN_BEFORE_WAL_DELETE, StoreError::Recover)?;
        engine.retire(&store)?;
        engine.store = Some(Mutex::new(store));
        Ok(engine)
    }

    /// Passes the failpoint `site`; an injected fault surfaces as `stage`.
    fn failpoint(&self, site: &str, stage: fn(io::Error) -> StoreError) -> StoreResult<()> {
        self.faults.hit(site).map_err(stage)
    }

    /// Appends the frame `encode` writes to the active segment and passes
    /// `site`, under the store mutex it returns held, so the caller
    /// applies the record (and runs the pass its rotation calls for)
    /// before another is logged. A record the log cannot carry is refused
    /// with nothing appended. Without a directory, `None`: nothing is
    /// logged.
    pub(crate) fn log(
        &self,
        site: &str,
        encode: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
    ) -> StoreResult<Option<MutexGuard<'_, Store>>> {
        let Some(store) = &self.store else {
            return Ok(None);
        };
        let mut guard = store.lock();
        let store = &mut *guard;
        store.scratch.clear();
        encode(&mut store.scratch).map_err(StoreError::Wal)?;
        (store.wal.append(&store.scratch)).map_err(StoreError::Wal)?;
        store.wal_bytes.add(store.scratch.len() as u64);
        self.failpoint(site, StoreError::Wal)?;
        Ok(Some(guard))
    }

    /// Writes one columnar batch and completes the rotation it causes
    /// inline, returning that flush's metrics. With a directory the batch
    /// is first logged as a *single* WAL frame — the atomicity unit: a
    /// torn frame loses the whole unacknowledged batch and nothing before
    /// it — and a rotation then runs the persist pass.
    ///
    /// A type-mismatched batch is rejected whole (nothing enters the
    /// memtables, the reject counter ticks) and refused
    /// [`StoreError::Wal`] (`InvalidInput`); its logged frame replays into
    /// the same rejection. A batch the log cannot carry — a name over
    /// `u16::MAX` bytes, a payload over `u32::MAX` — is refused the same
    /// way with nothing logged or applied.
    pub fn write_batch(
        &self,
        key: &SeriesKey,
        batch: &PointBatch,
    ) -> StoreResult<Option<FlushMetrics>> {
        if batch.is_empty() {
            return Ok(None);
        }
        let mut store = self.log(sites::STORE_WRITE_BATCH_APPEND, |out| {
            WalRecord::encode_batch(out, key, batch)
        })?;
        let Some(job) = (self.write_batch_nonblocking(key, batch))
            .map_err(|e| StoreError::Wal(io::Error::new(io::ErrorKind::InvalidInput, e)))?
        else {
            return Ok(None);
        };
        let flushed = self.complete_flush(job);
        if let Some(store) = store.as_deref_mut() {
            self.pass(store)?;
        }
        Ok(Some(flushed))
    }

    /// Makes everything buffered durable: with a directory, the persist
    /// pass; without one, [`flush`](Self::flush) and
    /// [`flush_unseq`](Self::flush_unseq).
    pub fn persist(&self) -> StoreResult<()> {
        if let Some(store) = &self.store {
            return self.pass(&mut store.lock());
        }
        self.flush();
        self.flush_unseq();
        Ok(())
    }

    /// Durability barrier: fsyncs the WAL. On `Ok`, everything written
    /// so far survives a crash; on `Err`, nothing since the previous
    /// successful barrier may be assumed durable (a failed fsync leaves
    /// the page cache in an unknown state — do not ack). Without a
    /// directory there is nothing to sync, and it is `Ok`.
    pub fn sync(&self) -> StoreResult<()> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        self.failpoint(sites::STORE_SYNC, StoreError::Wal)?;
        store.lock().wal.sync().map_err(StoreError::Wal)
    }

    /// The persist pass of a logged write's rotation and of
    /// [`persist`](Self::persist).
    fn pass(&self, store: &mut Store) -> StoreResult<()> {
        self.failpoint(sites::STORE_ROTATE_BEGIN, StoreError::Wal)?;
        // Sync the outgoing segment first: a pass that dies before its
        // manifest leaves images recovery discards, and their content
        // must be rebuilt from this segment.
        store.wal.sync().map_err(StoreError::Wal)?;
        self.commit(store)?;
        self.retire(store)
    }

    /// The one commit, run by every pass and by recovery: it makes
    /// everything buffered durable in files and commits a manifest whose
    /// WAL floor retires every older segment. On success,
    /// `store.persisted` maps exactly the files that manifest names.
    ///
    /// A WAL segment interleaves every shard's records, so *all* shards'
    /// buffers are flushed first. Then one read lock per shard snapshots
    /// its files with the tombstones pending on them — a compaction
    /// beside the commit is taken before its swap or after it, never
    /// half — and is released before each image not yet on disk is
    /// persisted under a fresh generation. Generations are only
    /// identities: a leveled compaction output ranks *before* newer files
    /// of its shard but is persisted later, so recovery ranks by the
    /// manifest's listed order.
    ///
    /// A commit that fails leaves the previous manifest in force. The
    /// images it did write stay recorded, so the next one names them
    /// without rewriting; whatever that one no longer names, its
    /// [`retire`](Self::retire) deletes.
    fn commit(&self, store: &mut Store) -> StoreResult<()> {
        self.flush();
        self.flush_unseq();
        self.failpoint(sites::STORE_ROTATE_AFTER_FLUSH, StoreError::Persist)?;
        let mut files = Vec::new();
        let mut tombstones = Vec::new();
        let mut live_ids = HashMap::with_capacity(store.persisted.len());
        let mut wrote_any = false;
        for lock in &self.shards {
            let snapshot = {
                let st = lock.read();
                tombstones.extend_from_slice(&st.tombstones);
                st.files.clone()
            };
            let mut floor = u32::MAX;
            for file in snapshot {
                let gen = match store.persisted.get(&file.id()) {
                    Some(&gen) => gen,
                    None => {
                        store.generation += 1;
                        let gen = store.generation;
                        let path = store.dir.join(name_of(TSFILE, gen));
                        (store.io.write_durable(&path, file.image()))
                            .map_err(StoreError::Persist)?;
                        store.persisted.insert(file.id(), gen);
                        if !wrote_any {
                            wrote_any = true;
                            self.failpoint(
                                sites::STORE_PERSIST_AFTER_FIRST_WRITE,
                                StoreError::Persist,
                            )?;
                        }
                        gen
                    }
                };
                live_ids.insert(file.id(), gen);
                floor = floor.min(file.level());
                files.push((floor, (gen, file.level(), Some(file.id()))));
            }
        }
        store.persisted = live_ids;
        // Merged by level (a stable sort on each file's lowest level so
        // far in its shard keeps every shard's order; shards share no
        // device), so a reopen at any shard count finds levels ordered.
        files.sort_by_key(|&(floor, _)| Reverse(floor));
        // Rotate the WAL. The old segments stay *live* until the
        // manifest raises the floor past them.
        store.generation += 1;
        let segment = store.dir.join(name_of(WAL, store.generation));
        store.wal = store.io.open_append(&segment).map_err(StoreError::Wal)?;
        // Every image of the pass is durable at this point; the manifest
        // write below is what makes them (their levels and stamps, and
        // the pending tombstones) live.
        self.failpoint(sites::STORE_PERSIST_BEFORE_MANIFEST, StoreError::Manifest)?;
        let manifest = Manifest {
            files: files.into_iter().map(|(_, entry)| entry).collect(),
            tombstones,
            wal_floor: store.generation,
        };
        write_manifest(store.io.as_ref(), &store.dir, &manifest).map_err(StoreError::Manifest)?;
        self.failpoint(sites::STORE_PERSIST_BEFORE_GC, StoreError::Manifest)
    }

    /// Deletes what the manifest [`commit`](Self::commit) just wrote
    /// retires: every older manifest first, then every
    /// `tsfile-<gen>.bstf` outside `store.persisted` (compaction inputs,
    /// files split across shards, the images of a pass that failed before
    /// its commit, torn images), then every `wal-<gen>.log` below the
    /// floor. Deleting only after the commit matters: before it, a crash
    /// would leave the old manifest naming compaction inputs whose files
    /// are gone. Deleting the older manifests before anything else, and
    /// stopping at the first that stays, is what lets recovery fall back
    /// to any manifest on disk.
    ///
    /// Segments go oldest-first, so a crash mid-way leaves a *suffix* of
    /// them. A failed file or segment removal is counted
    /// ([`remove_stale`]) and retried by the next pass.
    fn retire(&self, store: &Store) -> StoreResult<()> {
        let live: HashSet<u64> = store.persisted.values().copied().collect();
        let mut old_manifests = Vec::new();
        let mut dead_files = Vec::new();
        let mut dead_segments = Vec::new();
        for name in store
            .io
            .list_dir(&store.dir)
            .map_err(StoreError::Manifest)?
        {
            if gen_of(&name, TSFILE).is_some_and(|gen| !live.contains(&gen)) {
                dead_files.push(name);
            } else if let Some(gen) = gen_of(&name, WAL).filter(|&gen| gen < store.generation) {
                dead_segments.push((gen, name));
            } else if manifest_rank(&name).is_some_and(|rank| rank < store.generation) {
                old_manifests.push(name);
            }
        }
        for name in old_manifests {
            self.failpoint(sites::STORE_PERSIST_GC, StoreError::Manifest)?;
            let path = store.dir.join(name);
            store.io.remove(&path).map_err(StoreError::Manifest)?;
        }
        for name in dead_files {
            self.failpoint(sites::STORE_PERSIST_GC, StoreError::Manifest)?;
            remove_stale(self, store.io.as_ref(), &store.dir.join(name));
        }
        dead_segments.sort_unstable();
        for (_, name) in dead_segments {
            self.failpoint(sites::STORE_ROTATE_TRUNCATE, StoreError::Wal)?;
            remove_stale(self, store.io.as_ref(), &store.dir.join(name));
        }
        Ok(())
    }
}

/// A shell over an opened [`StorageEngine`], kept for the four calls
/// the benchmark ladder (`perf/`) makes; ROADMAP item 2a deletes it.
pub struct DurableEngine(StorageEngine);

impl DurableEngine {
    /// [`StorageEngine::open`].
    pub fn open(dir: impl AsRef<Path>, config: EngineConfig) -> StoreResult<Self> {
        StorageEngine::open(dir, config).map(Self)
    }

    /// [`StorageEngine::write_batch`].
    pub fn write_batch(
        &mut self,
        key: &SeriesKey,
        batch: &PointBatch,
    ) -> StoreResult<Option<FlushMetrics>> {
        self.0.write_batch(key, batch)
    }

    /// [`StorageEngine::query`].
    pub fn query(&self, key: &SeriesKey, t_lo: i64, t_hi: i64) -> QueryResult {
        self.0.query(key, t_lo, t_hi)
    }

    /// The engine itself.
    pub fn engine(&self) -> &StorageEngine {
        &self.0
    }
}

/// A persisted image's file name shape, `tsfile-<gen>.bstf`.
const TSFILE: (&str, &str) = ("tsfile-", ".bstf");
/// A WAL segment's file name shape, `wal-<gen>.log`.
const WAL: (&str, &str) = ("wal-", ".log");
/// A manifest's file name shape, `MANIFEST-<floor>`.
const MANIFEST: (&str, &str) = ("MANIFEST-", "");

/// The file name of generation `gen` in a [`TSFILE`], [`WAL`] or
/// [`MANIFEST`] shape.
fn name_of((prefix, suffix): (&str, &str), gen: u64) -> String {
    format!("{prefix}{gen}{suffix}")
}

/// The generation a file name of a [`TSFILE`], [`WAL`] or [`MANIFEST`]
/// shape carries.
fn gen_of(name: &str, (prefix, suffix): (&str, &str)) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Best-effort removal of a file that is no longer live (a retired WAL
/// segment, a dead tsfile generation, a torn image). Failure never
/// endangers durability — the path is already outside the manifest's
/// live set and the next pass retries the removal — but it leaks disk,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TsValue;
    use backsort_core::Algorithm;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::fs;

    thread_local! {
        /// The largest single allocation request this thread has made
        /// since the cell was last reset.
        static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
    }

    /// `System`, noting each request's size: the allocator
    /// `tests/decoders.rs` bounds the footer and WAL decoders with.
    struct CountingAllocator;

    fn note(size: usize) {
        // `try_with`: the allocator also runs while a thread's locals
        // are being torn down.
        let _ = LARGEST_REQUEST.try_with(|c| c.set(c.get().max(size)));
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the bookkeeping beside it
    // touches a `const`-initialised thread-local `Cell` and allocates
    // nothing.
    #[allow(unsafe_code)]
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` through this allocator,
            // with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            // SAFETY: as for `dealloc`; `new_size` is the caller's to
            // vouch for.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: CountingAllocator = CountingAllocator;

    /// Parses `bytes` as recovery does, with the largest single
    /// allocation the parse asked for. The manifest stores no count, so
    /// the bound is its length: each file token takes at least two bytes
    /// and each tombstone more, one list element apiece, and a list at
    /// most doubles its capacity past its length.
    fn parse_bounded(bytes: &[u8]) -> Option<Manifest> {
        let element = size_of::<Tombstone>().max(size_of::<(u64, u32, Option<u64>)>());
        LARGEST_REQUEST.with(|c| c.set(0));
        let parsed = parse_manifest(bytes);
        let largest = LARGEST_REQUEST.with(Cell::get);
        assert!(
            largest <= bytes.len() * element + 512,
            "{} bytes asked for one allocation of {largest}",
            bytes.len()
        );
        parsed
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("backsort-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn config(max_points: usize) -> EngineConfig {
        EngineConfig {
            memtable_max_points: max_points,
            sorter: Algorithm::Backward(Default::default()),
            shards: 1,
            ..EngineConfig::default()
        }
    }

    fn key() -> SeriesKey {
        SeriesKey::new("root.sg.d1", "s1")
    }

    /// A one-point batch record.
    fn point(t: i64, v: TsValue) -> WalRecord {
        WalRecord::PointBatch {
            key: key(),
            batch: PointBatch::from_rows([(t, v)]).expect("one point"),
        }
    }

    /// Durably writes each point as a batch of its own, so rotations
    /// fall after exactly `memtable_max_points` points.
    fn write_each(
        eng: &StorageEngine,
        key: &SeriesKey,
        points: impl IntoIterator<Item = (i64, TsValue)>,
    ) {
        for point in points {
            let batch = PointBatch::from_rows([point]).unwrap();
            eng.write_batch(key, &batch).unwrap();
        }
    }

    /// The directory as the manifest sees it: the generations the
    /// committed manifest names, the `tsfile-*` generations on disk, and
    /// the `wal-*` generations on disk, each sorted.
    fn disk_state(dir: &Path) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let manifest = newest_manifest(dir).expect("a committed manifest");
        let mut named: Vec<u64> = manifest.files.iter().map(|&(gen, ..)| gen).collect();
        named.sort_unstable();
        let (mut tsfiles, mut wals) = (Vec::new(), Vec::new());
        for name in RealIo.list_dir(dir).unwrap() {
            if let Some(gen) = gen_of(&name, TSFILE) {
                tsfiles.push(gen);
            } else if let Some(gen) = gen_of(&name, WAL) {
                wals.push(gen);
            }
        }
        tsfiles.sort_unstable();
        wals.sort_unstable();
        (named, tsfiles, wals)
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
    fn corrupt_crc_stops_replay() {
        let mut buf = Vec::new();
        point(1, TsValue::Int(1)).encode_into(&mut buf);
        let n = buf.len();
        buf[n - 1] ^= 0xFF;
        let (recs, discarded) = replay_wal(&buf);
        assert!(recs.is_empty());
        assert_eq!(discarded, n);
    }

    /// Files with levels and stamps, and tombstones whose names hold
    /// the token separators.
    fn sample_manifest() -> Manifest {
        let tombstone = |key, t_lo, t_hi, stamp| Tombstone {
            key,
            t_lo,
            t_hi,
            stamp,
        };
        Manifest {
            files: vec![(3, 0, Some(4)), (7, 2, Some(11)), (12, 1, Some(9))],
            tombstones: vec![
                tombstone(key(), -5, i64::MAX, 10),
                tombstone(SeriesKey::new("root.sg.d2", "a:b c"), i64::MIN, 0, 12),
            ],
            wal_floor: 13,
        }
    }

    /// The newest manifest in `dir` that parses, as `open` reads it.
    fn newest_manifest(dir: &Path) -> Option<Manifest> {
        read_manifest(&RealIo, dir, &RealIo.list_dir(dir).unwrap())
    }

    #[test]
    fn the_newest_manifest_that_parses_is_read() {
        let io = RealIo;
        let dir = tmpdir("manifest");
        io.create_dir_all(&dir).unwrap();
        // An empty generation set is a valid manifest.
        let empty = Manifest {
            files: Vec::new(),
            tombstones: Vec::new(),
            wal_floor: 1,
        };
        write_manifest(&io, &dir, &empty).unwrap();
        assert_eq!(newest_manifest(&dir).as_ref(), Some(&empty));
        write_manifest(&io, &dir, &sample_manifest()).unwrap();
        assert_eq!(newest_manifest(&dir), Some(sample_manifest()));
        // A corrupt one (here: a flipped byte) reads as absent, so the
        // one before it is read, and with both corrupt, none is.
        for floor in [13, 1] {
            let path = dir.join(name_of(MANIFEST, floor));
            let mut bytes = fs::read(&path).unwrap();
            bytes[0] ^= 0x01;
            fs::write(&path, &bytes).unwrap();
            let want = (floor == 13).then_some(&empty);
            assert_eq!(newest_manifest(&dir).as_ref(), want);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_manifest_tokens_read_as_level_zero() {
        // A manifest written before levels existed: bare generations.
        let body = format!("{MANIFEST_MAGIC}\nfiles 4 9 11\nwal-floor 12\n");
        let full = format!("{body}crc {:08x}\n", crc32(body.as_bytes()));
        assert_eq!(
            parse_manifest(full.as_bytes()),
            Some(Manifest {
                files: vec![(4, 0, None), (9, 0, None), (11, 0, None)],
                tombstones: Vec::new(),
                wal_floor: 12,
            })
        );
    }

    /// The manifest decoder under the mutation recipe: no prefix reads,
    /// a flipped bit reads as nothing or as the whole manifest, and a
    /// forgery with a valid CRC reads as nothing — never a panic, and
    /// never one allocation past what the bytes could hold
    /// ([`parse_bounded`]).
    #[test]
    fn the_manifest_decoder_refuses_prefixes_flips_and_forgeries() {
        let manifest = sample_manifest();
        let bytes = manifest.encode().unwrap().into_bytes();
        assert_eq!(parse_bounded(&bytes).as_ref(), Some(&manifest));
        for len in 0..bytes.len() {
            assert_eq!(parse_bounded(&bytes[..len]), None, "prefix {len}");
        }
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Some(read) = parse_bounded(&flipped) {
                assert_eq!(read, manifest, "bit {bit}");
            }
            flipped[bit / 8] ^= 1 << (bit % 8);
        }

        let mut name = Vec::new();
        put_key(&mut name, "root.sg.d1", "s1").unwrap();
        let good: String = name.iter().map(|b| format!("{b:02x}")).collect();
        let rest = &good[2..];
        let sealed = |files: &str, tombstones: &str, tail: &str| {
            let body = format!(
                "{MANIFEST_MAGIC}\nfiles {files}\ntombstones {tombstones}\nwal-floor 9\n{tail}"
            );
            format!("{body}crc {:08x}\n", crc32(body.as_bytes())).into_bytes()
        };
        let valid = parse_bounded(&sealed("3:0:4", &format!("{good}:1:2:5"), ""));
        assert_eq!(valid.map(|m| m.tombstones.len()), Some(1));
        let forged_tombstones = [
            format!("{}:1:2:5", &good[1..]),             // an odd-length name
            format!("zz{rest}:1:2:5"),                   // a non-hex name
            format!("ff{rest}:1:2:5"),                   // a name length past its bytes
            format!("{good}:123456789012345678901:2:5"), // a 21-digit bound
            format!("{good}:1:2"),                       // no stamp
        ];
        for forged in &forged_tombstones {
            assert_eq!(
                parse_bounded(&sealed("3:0:4", forged, "")),
                None,
                "{forged}"
            );
        }
        // A 21-digit stamp, a fourth field, an extra line.
        for (files, tail) in [
            ("3:0:123456789012345678901", ""),
            ("3:0:4:1", ""),
            ("3:0:4", "x\n"),
        ] {
            assert_eq!(
                parse_bounded(&sealed(files, "", tail)),
                None,
                "{files} {tail}"
            );
        }
    }

    /// A delete after a compaction no pass has persisted yet: the
    /// manifest still lists the compaction's inputs, and the delete must
    /// mask every one of them after a reopen, as it masked the output.
    #[test]
    fn an_acked_delete_after_an_unpersisted_compaction_survives_a_reopen() {
        let dir = tmpdir("delete-after-compact");
        {
            let eng = StorageEngine::open(&dir, config(25)).unwrap();
            write_each(&eng, &key(), (0..75i64).map(|t| (t, TsValue::Long(t))));
            eng.compact();
            eng.delete_range(&key(), 0, 74).unwrap();
            eng.sync().unwrap();
        }
        let eng = StorageEngine::open(&dir, config(25)).unwrap();
        assert_eq!(eng.query(&key(), 0, 300), Vec::new());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_levels_survive_reopen() {
        let dir = tmpdir("level-reopen");
        let cfg = || EngineConfig {
            compaction: crate::CompactionConfig {
                l0_trigger: 2,
                level_base_bytes: 1 << 10,
                growth: 2,
            },
            ..config(20)
        };
        {
            let eng = StorageEngine::open(&dir, cfg()).unwrap();
            // Four flushed files → the leveled pass folds the L0 suffix.
            for round in 0..4i64 {
                let ts = (0..20i64).map(|t| round * 100 + t);
                write_each(&eng, &key(), ts.map(|t| (t, TsValue::Long(t))));
            }
            eng.compact_auto();
            let files = eng.shard_files(0);
            let meta: Vec<(u64, u32)> = files.iter().map(|f| (f.id(), f.level())).collect();
            assert!(
                meta.iter().any(|&(_, level)| level > 0),
                "compaction produced a leveled file: {meta:?}"
            );
            // Force a persist pass so the manifest records the levels.
            eng.persist().unwrap();
        }
        let eng = StorageEngine::open(&dir, cfg()).unwrap();
        let files = eng.shard_files(0);
        let meta: Vec<(u64, u32)> = files.iter().map(|f| (f.id(), f.level())).collect();
        assert!(
            meta.iter().any(|&(_, level)| level > 0),
            "levels recovered from the manifest: {meta:?}"
        );
        assert_eq!(eng.query(&key(), i64::MIN, i64::MAX).len(), 80);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A point frame an older build wrote (kind 0) is refused like any
    /// unknown kind: replay keeps what precedes it and stops there.
    #[test]
    fn a_point_frame_ends_replay() {
        let mut buf = Vec::new();
        point(1, TsValue::Int(1)).encode_into(&mut buf);
        let head = buf.len();
        put_frame(&mut buf, 0, |out| {
            let name = key().to_string();
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&2i64.to_le_bytes());
            out.push(DataType::Int32.tag());
            out.extend_from_slice(&2i32.to_le_bytes());
            Ok(())
        })
        .unwrap();
        point(3, TsValue::Int(3)).encode_into(&mut buf);
        let (recs, discarded) = replay_wal(&buf);
        assert_eq!(recs, vec![point(1, TsValue::Int(1))]);
        assert_eq!(discarded, buf.len() - head);
    }

    #[test]
    fn durable_batch_writes_recover_after_crash() {
        let dir = tmpdir("batch-recover");
        {
            let eng = StorageEngine::open(&dir, config(50)).unwrap();
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
        let eng = StorageEngine::open(&dir, config(50)).unwrap();
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
    fn a_torn_wal_tail_is_counted_in_replay_discarded_bytes() {
        let discarded = |eng: &StorageEngine| {
            let name = backsort_obs::names::WAL_REPLAY_DISCARDED_BYTES;
            eng.obs().counter_value(name)
        };
        let batch =
            |lo: i64| PointBatch::from_rows((lo..lo + 10).map(|t| (t, TsValue::Long(t)))).unwrap();
        let dir = tmpdir("torn-wal-tail");
        {
            let eng = StorageEngine::open(&dir, config(1_000)).unwrap();
            eng.write_batch(&key(), &batch(0)).unwrap();
            eng.write_batch(&key(), &batch(10)).unwrap();
            eng.sync().unwrap();
        }
        // Tear the newest segment inside its last frame, as a crash
        // mid-append would.
        let newest = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter_map(|name| {
                let gen = name.strip_prefix("wal-")?.strip_suffix(".log")?;
                Some((gen.parse::<u64>().ok()?, name))
            })
            .max()
            .expect("a WAL segment")
            .1;
        let path = dir.join(newest);
        let bytes = fs::read(&path).unwrap();
        let mut last_frame = Vec::new();
        WalRecord::encode_batch(&mut last_frame, &key(), &batch(10)).unwrap();
        let torn = last_frame.len() / 2;
        assert!(bytes.ends_with(&last_frame));
        fs::write(&path, &bytes[..bytes.len() - last_frame.len() + torn]).unwrap();

        let eng = StorageEngine::open(&dir, config(1_000)).unwrap();
        assert_eq!(discarded(&eng), torn as u64, "exactly the torn frame");
        assert_eq!(eng.query(&key(), i64::MIN, i64::MAX).len(), 10);
        drop(eng);
        // Recovery rewrote the log: the next open finds nothing torn.
        let eng = StorageEngine::open(&dir, config(1_000)).unwrap();
        assert_eq!(discarded(&eng), 0);
        assert_eq!(eng.query(&key(), i64::MIN, i64::MAX).len(), 10);
        drop(eng);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_write_and_reopen_recovers_everything() {
        let dir = tmpdir("recover");
        {
            let eng = StorageEngine::open(&dir, config(50)).unwrap();
            write_each(
                &eng,
                &key(),
                (0..120i64).map(|t| (t, TsValue::Long(t * 10))),
            );
            eng.sync().unwrap();
            // Drop without flushing: 20 points live only in WAL.
        }
        {
            let eng = StorageEngine::open(&dir, config(50)).unwrap();
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
            let eng = StorageEngine::open(&dir, config(30)).unwrap();
            write_each(
                &eng,
                &key(),
                (0..75i64).map(|t| (t, TsValue::Double(t as f64))),
            );
            eng.sync().unwrap();
        }
        for _ in 0..2 {
            let eng = StorageEngine::open(&dir, config(30)).unwrap();
            assert_eq!(eng.query(&key(), 0, 100).len(), 75);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn deletes_survive_restart() {
        let dir = tmpdir("delete");
        {
            let eng = StorageEngine::open(&dir, config(25)).unwrap();
            // 2 files + WAL tail
            write_each(&eng, &key(), (0..60i64).map(|t| (t, TsValue::Long(t))));
            // Covers flushed files (via tombstone) and memtable points.
            let removed = eng.delete_range(&key(), 10, 54).unwrap();
            assert!(removed > 0);
            eng.sync().unwrap();
        }
        for _ in 0..2 {
            let eng = StorageEngine::open(&dir, config(25)).unwrap();
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
            let eng = StorageEngine::open(&dir, config(25)).unwrap();
            write_each(&eng, &key(), (0..30i64).map(|t| (t, TsValue::Long(t))));
            eng.delete_range(&key(), 0, 100).unwrap();
            // Re-written points arrive after the delete and must
            // survive replay (their file is stamped above the delete).
            write_each(&eng, &key(), (5..15i64).map(|t| (t, TsValue::Long(-t))));
            eng.sync().unwrap();
        }
        let eng = StorageEngine::open(&dir, config(25)).unwrap();
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
            let eng = StorageEngine::open(&dir, config(40)).unwrap();
            // Out-of-order arrivals.
            let mut x = 3u64;
            let arrivals = (0..100i64).map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (i + (x % 5) as i64, TsValue::Int(i as i32))
            });
            write_each(&eng, &key(), arrivals);
            // A straggler below the watermark (memtable rotated at 40).
            write_each(&eng, &key(), [(1, TsValue::Int(-1))]);
            eng.sync().unwrap();
        }
        let eng = StorageEngine::open(&dir, config(40)).unwrap();
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
        let eng = StorageEngine::open(&dir, config(25)).unwrap();
        write_each(&eng, &key(), (0..100i64).map(|t| (t, TsValue::Long(t))));
        eng.sync().unwrap();
        let (_, _, wals) = disk_state(&dir);
        assert_eq!(wals.len(), 1, "only the active WAL segment survives");
        drop(eng);
        // A reopen retires every segment it read, and the placeholder it
        // opened before its own pass, keeping only the fresh one.
        let eng = StorageEngine::open(&dir, config(25)).unwrap();
        let (_, _, wals) = disk_state(&dir);
        assert_eq!(
            wals.len(),
            1,
            "only the active WAL segment survives a reopen"
        );
        assert_eq!(eng.query(&key(), i64::MIN, i64::MAX).len(), 100);
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
            let eng = StorageEngine::open(&dir, sharded()).unwrap();
            write_each(&eng, &kb, (0..10i64).map(|t| (t, TsValue::Long(-t))));
            // d0's rotations truncate the older WAL segments, which also
            // hold d2's only copies — d2's shard must be flushed too.
            write_each(&eng, &ka, (0..85i64).map(|t| (t, TsValue::Long(t))));
            eng.sync().unwrap();
        }
        let eng = StorageEngine::open(&dir, sharded()).unwrap();
        assert_eq!(eng.query(&ka, 0, 200).len(), 85);
        let got = eng.query(&kb, 0, 200);
        assert_eq!(got.len(), 10, "unrotated shard's points survive");
        for (t, v) in got {
            assert_eq!(v, TsValue::Long(-t));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The real file system, running `hook` once just before the next
    /// TsFile image is written.
    #[derive(Default)]
    struct HookBeforeImage {
        hook: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl Io for HookBeforeImage {
        fn create_dir_all(&self, path: &Path) -> io::Result<()> {
            RealIo.create_dir_all(path)
        }
        fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
            RealIo.list_dir(path)
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            RealIo.read(path)
        }
        fn write_durable(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            let name = path.file_name().unwrap().to_string_lossy();
            if gen_of(&name, TSFILE).is_some() {
                if let Some(hook) = self.hook.lock().take() {
                    hook();
                }
            }
            RealIo.write_durable(path, bytes)
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            RealIo.remove(path)
        }
        fn open_append(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
            RealIo.open_append(path)
        }
    }

    /// A compaction that lands while a pass writes its images applies a
    /// pending delete and drops its tombstone. The pass's manifest must
    /// list the files and the tombstones of one moment: the files it
    /// snapshotted beside the tombstone that masks them, or the delete
    /// comes back after a reopen.
    #[test]
    fn a_compaction_beside_a_pass_keeps_the_delete_it_applied() {
        let dir = tmpdir("compact-beside-pass");
        let io = Arc::new(HookBeforeImage::default());
        let sink: Arc<dyn Io> = Arc::clone(&io) as Arc<dyn Io>;
        let eng = StorageEngine::open_with(&dir, config(1_000), sink, Arc::default()).unwrap();
        let eng = Arc::new(eng);
        write_each(&eng, &key(), (0..10i64).map(|t| (t, TsValue::Long(t))));
        eng.persist().unwrap();
        write_each(&eng, &key(), (10..20i64).map(|t| (t, TsValue::Long(t))));
        eng.delete_range(&key(), 0, 4).unwrap();
        let beside = Arc::clone(&eng);
        *io.hook.lock() = Some(Box::new(move || {
            assert_eq!(beside.compact().files_in, 2, "the pass's two files merge");
            assert_eq!(beside.tombstone_count(), 0, "the merge applied the delete");
        }));
        eng.persist().unwrap();
        assert!(io.hook.lock().is_none(), "the compaction ran");
        drop(eng);
        let eng = StorageEngine::open(&dir, config(1_000)).unwrap();
        let want: Vec<_> = (5..20i64).map(|t| (t, TsValue::Long(t))).collect();
        assert_eq!(eng.query(&key(), i64::MIN, i64::MAX), want);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A slot whose flush is outstanding holds acked points that are in
    /// no file yet. A durable flush beside it truncates the WAL, so it
    /// must install the slot first; the job it overtook then installs
    /// nothing.
    #[test]
    fn a_durable_flush_beside_an_outstanding_slot_loses_nothing() {
        let faults = Arc::new(FailpointRegistry::new());
        let io = Arc::new(backsort_faults::sim::SimIo::new(Arc::clone(&faults)));
        let open = || {
            let sink: Arc<dyn Io> = Arc::clone(&io) as Arc<dyn Io>;
            StorageEngine::open_with("/db", config(1_000), sink, Arc::clone(&faults)).unwrap()
        };
        let eng = open();
        for lo in [0i64, 20] {
            let batch =
                PointBatch::from_rows((lo..lo + 20).map(|t| (t, TsValue::Long(t)))).unwrap();
            assert!(eng.write_batch(&key(), &batch).unwrap().is_none());
        }
        eng.sync().unwrap();
        let job = eng.begin_flush_shard(0).expect("the shard rotates");
        eng.persist().unwrap();
        let stale = eng.complete_flush(job);
        drop(eng);
        io.crash();
        let eng = open();
        assert_eq!(eng.query(&key(), i64::MIN, i64::MAX).len(), 40);
        assert_eq!(stale, FlushMetrics::default());
    }

    #[test]
    fn compaction_under_durable_engine_keeps_later_flushes_persisted() {
        let dir = tmpdir("compact");
        let key = key();
        {
            let eng = StorageEngine::open(&dir, config(25)).unwrap();
            // 3 files persisted
            write_each(&eng, &key, (0..75i64).map(|t| (t, TsValue::Long(t))));
            let report = eng.compact();
            assert!(report.files_in >= 2, "files_in {}", report.files_in);
            // Everything flushed *after* the compaction must still reach
            // disk (persistence keys on ids, not positions).
            write_each(&eng, &key, (75..150i64).map(|t| (t, TsValue::Long(t))));
            eng.sync().unwrap();
        }
        let eng = StorageEngine::open(&dir, config(25)).unwrap();
        let got = eng.query(&key, 0, 300);
        assert_eq!(got.len(), 150, "post-compaction flushes survive restart");
        for (t, v) in got {
            assert_eq!(v, TsValue::Long(t));
        }
        // The merged-away generations were deleted from disk: exactly
        // what the manifest names remains.
        drop(eng);
        let (named, tsfiles, _) = disk_state(&dir);
        assert_eq!(tsfiles, named, "tsfiles on disk against the manifest");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A pass that fails after it persisted a compaction's output still
    /// gets the inputs deleted: the next pass removes every image its
    /// manifest does not name.
    #[test]
    fn a_failed_pass_leaks_no_merged_away_file() {
        let dir = tmpdir("failed-pass");
        let faults = Arc::new(FailpointRegistry::new());
        let eng = StorageEngine::open_with(&dir, config(25), Arc::new(RealIo), Arc::clone(&faults))
            .unwrap();
        write_each(&eng, &key(), (0..75i64).map(|t| (t, TsValue::Long(t))));
        let report = eng.compact();
        assert!(report.files_in >= 2, "files_in {}", report.files_in);
        faults.arm(
            sites::STORE_PERSIST_BEFORE_MANIFEST,
            backsort_faults::FaultMode::Error,
            1,
        );
        assert!(eng.persist().is_err());
        eng.persist().unwrap();
        let (named, tsfiles, _) = disk_state(&dir);
        assert_eq!(tsfiles, named, "tsfiles on disk against the manifest");
        drop(eng);
        let eng = StorageEngine::open(&dir, config(25)).unwrap();
        assert_eq!(eng.query(&key(), i64::MIN, i64::MAX).len(), 75);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Ten points durably flushed into one file; returns its path.
    fn one_listed_file(dir: &Path) -> PathBuf {
        let eng = StorageEngine::open(dir, config(1_000)).unwrap();
        write_each(&eng, &key(), (0..10i64).map(|t| (t, TsValue::Long(t))));
        eng.persist().unwrap();
        let (named, ..) = disk_state(dir);
        assert_eq!(named.len(), 1);
        dir.join(name_of(TSFILE, named[0]))
    }

    /// `dir`'s file names, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names = RealIo.list_dir(dir).unwrap();
        names.sort();
        names
    }

    /// An open refused for `why` that leaves `dir` as it found it.
    fn assert_refused(dir: &Path, why: &str) {
        let before = listing(dir);
        match StorageEngine::open(dir, config(1_000)) {
            Err(StoreError::Recover(e)) => assert!(e.to_string().contains(why), "{e}"),
            Err(e) => panic!("refused as {e}, not as recovery"),
            Ok(eng) => panic!("opened with {:?}", eng.query(&key(), i64::MIN, i64::MAX)),
        }
        assert_eq!(listing(dir), before, "a refused open deletes nothing");
    }

    /// A listed file whose footer no longer parses refuses the open, and
    /// stays, so the open succeeds once the image is whole again.
    #[test]
    fn a_listed_file_with_a_flipped_footer_refuses_the_open() {
        let dir = tmpdir("flipped-footer");
        let path = one_listed_file(&dir);
        let image = fs::read(&path).unwrap();
        let mut flipped = image.clone();
        // The high byte of the footer's offset, just before the magic.
        flipped[image.len() - 7] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        let name = path.file_name().unwrap().to_string_lossy();
        let gen = gen_of(&name, TSFILE).unwrap();
        assert_refused(&dir, &format!("tsfile-{gen} does not parse"));
        assert_eq!(fs::read(&path).unwrap(), flipped);
        fs::write(&path, &image).unwrap();
        let eng = StorageEngine::open(&dir, config(1_000)).unwrap();
        assert_eq!(eng.query(&key(), i64::MIN, i64::MAX).len(), 10);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A listed file that is gone refuses the open, deleting nothing.
    #[test]
    fn a_missing_listed_file_refuses_the_open() {
        let dir = tmpdir("missing-file");
        let path = one_listed_file(&dir);
        fs::remove_file(&path).unwrap();
        let name = path.file_name().unwrap().to_string_lossy();
        let gen = gen_of(&name, TSFILE).unwrap();
        assert_refused(&dir, &format!("tsfile-{gen} is missing"));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Files on disk but no manifest that parses: the open refuses
    /// rather than guess at rank and tombstones.
    #[test]
    fn files_without_a_manifest_refuse_the_open() {
        let dir = tmpdir("no-manifest");
        one_listed_file(&dir);
        for name in listing(&dir) {
            if manifest_rank(&name).is_some() {
                fs::remove_file(dir.join(name)).unwrap();
            }
        }
        assert_refused(&dir, "no manifest parses");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Runs `build` on a fresh simulated disk, then a pass whose manifest
    /// write `mode` tears and kills, and reopens after the power cut.
    fn tear_the_next_manifest(
        mode: backsort_faults::FaultMode,
        cfg: EngineConfig,
        build: impl FnOnce(&StorageEngine),
    ) -> StorageEngine {
        let faults = Arc::new(FailpointRegistry::new());
        let io = Arc::new(backsort_faults::sim::SimIo::new(Arc::clone(&faults)));
        let open = || {
            let sink: Arc<dyn Io> = Arc::clone(&io) as Arc<dyn Io>;
            StorageEngine::open_with("/db", cfg, sink, Arc::clone(&faults)).unwrap()
        };
        let eng = open();
        build(&eng);
        faults.arm(sites::IO_MANIFEST_WRITE, mode, 1);
        assert!(eng.persist().is_err());
        assert!(faults.is_dead());
        drop(eng);
        io.crash();
        faults.revive();
        open()
    }

    const TORN: [backsort_faults::FaultMode; 2] = [
        backsort_faults::FaultMode::ShortWrite,
        backsort_faults::FaultMode::BitFlip,
    ];

    /// A delete acked by a pass, still pending on the file it masks, when
    /// the next pass's manifest write is torn: the commit before it holds
    /// the tombstone.
    #[test]
    fn an_acked_delete_survives_a_torn_next_manifest() {
        for mode in TORN {
            let eng = tear_the_next_manifest(mode, config(1_000), |eng| {
                write_each(eng, &key(), (0..10i64).map(|t| (t, TsValue::Long(t))));
                eng.persist().unwrap();
                eng.delete_range(&key(), 0, 4).unwrap();
                eng.persist().unwrap();
            });
            let want: Vec<_> = (5..10i64).map(|t| (t, TsValue::Long(t))).collect();
            assert_eq!(eng.query(&key(), i64::MIN, i64::MAX), want, "{mode:?}");
        }
    }

    /// A compaction output ranked behind a newer file but persisted after
    /// it (so under a larger generation), then a torn manifest: the
    /// newer file's rewrites still win. The schedule is explorer seed
    /// 19204's, on one series.
    #[test]
    fn a_compaction_output_keeps_its_rank_past_a_torn_next_manifest() {
        let cfg = EngineConfig {
            compaction: crate::CompactionConfig {
                l0_trigger: 2,
                level_base_bytes: 1 << 10,
                growth: 2,
            },
            ..config(1_000)
        };
        for mode in TORN {
            let eng = tear_the_next_manifest(mode, cfg, |eng| {
                // Two level-1 files, each merged from two flushes.
                for lo in [0i64, 20] {
                    for lo in [lo, lo + 10] {
                        write_each(eng, &key(), (lo..lo + 10).map(|t| (t, TsValue::Long(t))));
                        eng.persist().unwrap();
                    }
                    assert_eq!(eng.compact_auto().files_in, 2);
                }
                // A newer level-0 file rewrites the first ten points.
                write_each(eng, &key(), (0..10i64).map(|t| (t, TsValue::Long(-t))));
                eng.persist().unwrap();
                // The two level-1 files merge ahead of it, and the next
                // pass persists the output under a larger generation.
                assert_eq!(eng.compact_auto().files_in, 2);
                eng.persist().unwrap();
            });
            let got = eng.query(&key(), 0, 9);
            let want: Vec<_> = (0..10i64).map(|t| (t, TsValue::Long(-t))).collect();
            assert_eq!(got, want, "{mode:?}");
            assert_eq!(eng.query(&key(), i64::MIN, i64::MAX).len(), 40);
        }
    }

    /// A batch of the wrong type for its series is refused, not acked,
    /// and its logged frame replays into the same rejection.
    #[test]
    fn a_mistyped_durable_batch_is_refused() {
        let dir = tmpdir("mistyped");
        let longs = PointBatch::from_rows((0..5i64).map(|t| (t, TsValue::Long(t)))).unwrap();
        let doubles =
            PointBatch::from_rows((5..10i64).map(|t| (t, TsValue::Double(t as f64)))).unwrap();
        let want: Vec<(i64, TsValue)> = (0..5i64).map(|t| (t, TsValue::Long(t))).collect();
        let eng = StorageEngine::open(&dir, config(1_000)).unwrap();
        eng.write_batch(&key(), &longs).unwrap();
        let err = eng
            .write_batch(&key(), &doubles)
            .expect_err("a mistyped batch is refused");
        assert!(matches!(&err, StoreError::Wal(e) if e.kind() == io::ErrorKind::InvalidInput));
        assert_eq!(eng.query(&key(), i64::MIN, i64::MAX), want);
        eng.sync().unwrap();
        drop(eng);
        let eng = StorageEngine::open(&dir, config(1_000)).unwrap();
        assert_eq!(eng.query(&key(), i64::MIN, i64::MAX), want);
        let _ = fs::remove_dir_all(&dir);
    }

    /// `root.sg.d0` and `root.sg.d2` written at one shard share a file;
    /// at four they land in shards 3 and 1.
    fn wide_file_at_one_shard(dir: &Path) -> [SeriesKey; 2] {
        let keys = ["root.sg.d0", "root.sg.d2"].map(|d| SeriesKey::new(d, "s"));
        let eng = StorageEngine::open(dir, config(1_000)).unwrap();
        for key in &keys {
            write_each(&eng, key, (0..10i64).map(|t| (t, TsValue::Long(t))));
        }
        eng.persist().unwrap();
        assert_eq!(eng.file_count(), 1);
        keys
    }

    fn reopen(dir: &Path, shards: usize) -> StorageEngine {
        let eng = StorageEngine::open(
            dir,
            EngineConfig {
                shards,
                ..config(1_000)
            },
        )
        .unwrap();
        eng.check_files().unwrap();
        eng
    }

    /// A rewrite at four shards that the owning shard compacted over its
    /// part of a file written at one shard: the reopens after it read
    /// the rewrite, not the old values.
    #[test]
    fn a_reshard_keeps_a_rewrite_over_a_wide_file() {
        let dir = tmpdir("reshard-rewrite");
        let [d0, d2] = wide_file_at_one_shard(&dir);
        {
            let eng = reopen(&dir, 4);
            assert_eq!(eng.file_count(), 2, "one piece a shard");
            write_each(&eng, &d2, (0..10i64).map(|t| (t, TsValue::Long(-t))));
            eng.persist().unwrap();
            eng.compact();
            eng.persist().unwrap();
        }
        for _ in 0..2 {
            let eng = reopen(&dir, 4);
            assert_eq!(eng.query(&d2, 5, 5), [(5, TsValue::Long(-5))]);
            assert_eq!(eng.query(&d0, 5, 5), [(5, TsValue::Long(5))]);
            let (named, on_disk, _) = disk_state(&dir);
            assert_eq!(named, on_disk, "no file but the named");
            let parses = eng.obs().counter_value(backsort_obs::names::FILE_PARSE);
            assert_eq!(
                parses,
                named.len() as u64,
                "one parse a file, nothing split"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A delete still pending on a file written at one shard stays
    /// applied across a reopen at four shards that splits the file, a
    /// compaction there (only the deleted device's shard has anything to
    /// merge), a second reopen at four and one back at one.
    #[test]
    fn a_pending_delete_on_a_wide_file_survives_a_reshard() {
        let dir = tmpdir("reshard-delete");
        let [d0, d2] = wide_file_at_one_shard(&dir);
        {
            let eng = reopen(&dir, 1);
            eng.delete_range(&d2, 3, 5).unwrap();
            eng.sync().unwrap();
        }
        let want = |key: &SeriesKey| -> Vec<(i64, TsValue)> {
            let live = (0..10i64).filter(|t| *key != d2 || !(3..=5).contains(t));
            live.map(|t| (t, TsValue::Long(t))).collect()
        };
        for (round, shards) in [4, 4, 1].into_iter().enumerate() {
            let eng = reopen(&dir, shards);
            for key in [&d0, &d2] {
                let got = eng.query(key, i64::MIN, i64::MAX);
                assert_eq!(got, want(key), "{key} at {shards} shards, reopen {round}");
            }
            if round == 0 {
                eng.compact();
                eng.persist().unwrap();
            }
        }
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
            let eng = StorageEngine::open(&dir, sharded()).unwrap();
            write_each(&eng, &ka, (0..90i64).map(|t| (t, TsValue::Long(t))));
            write_each(&eng, &kb, (0..90i64).map(|t| (t, TsValue::Long(-t))));
            eng.sync().unwrap();
        }
        let eng = StorageEngine::open(&dir, sharded()).unwrap();
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
