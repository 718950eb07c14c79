//! The failpoint site catalog — the single source of truth for every
//! named crash site in the durability stack, mirroring the metric-name
//! catalog in `backsort_obs::names`.
//!
//! The crash explorer arms every site of [`ALL`] and fails if one never
//! fires in its fixed seed set, so a refactor that silently drops an instrumented
//! site breaks CI the same way dropping a metric fails the analyzer's
//! `catalog-sync` lint.
//!
//! Naming convention: `<layer>.<operation>.<step>`. Sites under `io.`
//! are byte-granularity faults applied *inside* the simulated disk
//! ([`crate::sim::SimIo`]); everything else is a control-flow failpoint
//! the engine passes through via [`crate::FailpointRegistry::hit`] /
//! [`kill_point`](crate::FailpointRegistry::kill_point).

/// After a `PointBatch` record's WAL frame is appended, before the batch
/// is applied to the memtable. Models: crash between logging and
/// applying a whole batch — a torn frame must lose only unacked points.
pub const STORE_WRITE_BATCH_APPEND: &str = "store.write_batch.append";
/// After a delete's WAL frame is appended, before its tombstone is
/// recorded. Models: crash between logging and applying a delete.
pub const STORE_DELETE_AFTER_WAL: &str = "store.delete.after_wal";
/// Entry of the persist pass, before the outgoing segment syncs.
/// Models: crash at the rotation decision point.
pub const STORE_ROTATE_BEGIN: &str = "store.rotate.begin";
/// After every shard's memtables flushed, before images persist.
/// Models: crash with flushed-but-unpersisted file images.
pub const STORE_ROTATE_AFTER_FLUSH: &str = "store.rotate.after_flush";
/// Before each obsolete WAL segment is removed post-rotation.
/// Models: crash mid-truncation leaving stale segments behind.
pub const STORE_ROTATE_TRUNCATE: &str = "store.rotate.truncate";
/// After the first TsFile image of a persist pass is written.
/// Models: crash with a partially persisted generation set.
pub const STORE_PERSIST_AFTER_FIRST_WRITE: &str = "store.persist.after_first_write";
/// After all images and the manifest are durable, before GC starts.
/// Models: crash between commit point and stale-file cleanup.
pub const STORE_PERSIST_BEFORE_GC: &str = "store.persist.before_gc";
/// Before each file a commit retires is removed during GC: every older
/// manifest, then every stale on-disk generation. Models: crash mid-GC
/// (the write-before-delete ordering under test).
pub const STORE_PERSIST_GC: &str = "store.persist.gc";
/// During recovery, after on-disk TsFiles are adopted, before WAL replay.
/// Models: crash in the middle of a restart.
pub const STORE_OPEN_AFTER_ADOPT: &str = "store.open.after_adopt";
/// During recovery, after WAL replay, before the recovered state is
/// re-persisted. Models: crash after replay work, before it's durable.
pub const STORE_OPEN_AFTER_REPLAY: &str = "store.open.after_replay";
/// During recovery, as each replayed `PointBatch` record is applied.
/// Models: crash mid-replay of a batched log — a second replay of the
/// same batch must be harmless.
pub const STORE_OPEN_BATCH_REPLAY: &str = "store.open.batch_replay";
/// During recovery, before replayed WAL segments are deleted.
/// Models: crash after re-persist, mid-cleanup (segments must be
/// harmless to replay twice).
pub const STORE_OPEN_BEFORE_WAL_DELETE: &str = "store.open.before_wal_delete";
/// Entry of `StorageEngine::sync` — the explicit durability barrier.
/// Models: fsync failure (fsyncgate): the caller must not ack.
pub const STORE_SYNC: &str = "store.sync";

/// At the start of `complete_flush`, outside any lock: the working
/// memtable has rotated into the flushing slot, nothing is encoded yet.
/// Kill-only.
pub const FLUSH_ROTATE: &str = "flush.rotate";
/// In `complete_flush`, after the image is encoded, before it is
/// installed in the shard. Kill-only.
pub const FLUSH_COMPLETE_BEFORE_INSTALL: &str = "flush.complete.before_install";

/// After a compaction pass snapshots a shard's file list and tombstones,
/// before anything is merged; the shard still serves every file.
/// Kill-only.
pub const COMPACTION_AFTER_TAKE: &str = "compaction.after_take";
/// In the full pass, after the merged image is built and parsed, before
/// the shard write lock under which it is swapped in for its inputs.
/// Kill-only.
pub const COMPACTION_BEFORE_RESTORE: &str = "compaction.before_restore";
/// In leveled compaction, after a run's merged image is parsed (filter
/// block written, level assigned), before the shard write lock under
/// which it is swapped in for the run — i.e. between the level-move's
/// output existing and the manifest ever hearing about it. Kill-only.
/// Recovery must serve the run's data from the still-persisted inputs,
/// and no file may end up live at two levels.
pub const COMPACTION_LEVEL_PUBLISH: &str = "compaction.level.publish";
/// In the store's `commit`, after every image of the new generation
/// set is durable, before the manifest that names (and levels) them is
/// written. Models: crash between filter/image write and manifest
/// publish — the old manifest must still describe a complete, correct
/// state.
pub const STORE_PERSIST_BEFORE_MANIFEST: &str = "store.persist.before_manifest";

/// Byte-granularity: a WAL frame append inside the `Io` sink.
/// `short` commits a torn prefix of the frame then dies; `flip` commits
/// the frame with one bit flipped then dies.
pub const IO_WAL_APPEND: &str = "io.wal.append";
/// Byte-granularity: the WAL fsync. `error` fails the sync and commits
/// nothing — the lost-sync case; the caller must surface it.
pub const IO_WAL_SYNC: &str = "io.wal.sync";
/// Byte-granularity: a TsFile image write. `short` leaves a torn image
/// on disk then dies (recovery must detect and drop it).
pub const IO_TSFILE_WRITE: &str = "io.tsfile.write";
/// Byte-granularity: the manifest write. `short` leaves a torn manifest
/// then dies (recovery must fall back to the previous commit).
pub const IO_MANIFEST_WRITE: &str = "io.manifest.write";

/// Every registered failpoint site. The crash explorer arms each of
/// them and fails on any site that never fired.
pub const ALL: &[&str] = &[
    STORE_WRITE_BATCH_APPEND,
    STORE_DELETE_AFTER_WAL,
    STORE_ROTATE_BEGIN,
    STORE_ROTATE_AFTER_FLUSH,
    STORE_ROTATE_TRUNCATE,
    STORE_PERSIST_AFTER_FIRST_WRITE,
    STORE_PERSIST_BEFORE_GC,
    STORE_PERSIST_GC,
    STORE_OPEN_AFTER_ADOPT,
    STORE_OPEN_AFTER_REPLAY,
    STORE_OPEN_BATCH_REPLAY,
    STORE_OPEN_BEFORE_WAL_DELETE,
    STORE_SYNC,
    FLUSH_ROTATE,
    FLUSH_COMPLETE_BEFORE_INSTALL,
    COMPACTION_AFTER_TAKE,
    COMPACTION_BEFORE_RESTORE,
    COMPACTION_LEVEL_PUBLISH,
    STORE_PERSIST_BEFORE_MANIFEST,
    IO_WAL_APPEND,
    IO_WAL_SYNC,
    IO_TSFILE_WRITE,
    IO_MANIFEST_WRITE,
];
