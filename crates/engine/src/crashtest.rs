//! The deterministic crash matrix: every registered failpoint, exercised
//! against a simulated disk, with recovery checked against an in-memory
//! oracle.
//!
//! One *case* arms a single failpoint (`site`, [`FaultMode`], Nth-hit
//! trigger), runs a scripted write/delete/flush/compact workload over a
//! [`DurableEngine`] on a [`SimIo`] disk, lets the fault fire (an
//! injected error the engine must survive, or a simulated process death
//! that freezes the disk), then cuts the power ([`SimIo::crash`]),
//! reopens, and checks three properties:
//!
//! 1. **No acknowledged op is lost.** An op is acknowledged once a
//!    durability barrier after it succeeds — `sync()` returning `Ok`, a
//!    `flush()` returning `Ok`, or a `write_batch()` that completed a
//!    rotation. The recovered state of every series must equal the
//!    oracle's replay of some prefix of that series' ops at least as
//!    long as its acknowledged prefix.
//! 2. **No op is invented.** The matching prefix is drawn from ops the
//!    workload actually issued — recovered state containing anything
//!    else fails the comparison. An op whose call returned an error is
//!    *indeterminate* (it may or may not have reached the WAL before
//!    the fault); the checker tries both readings.
//! 3. **Recovery is idempotent.** A second crash-and-reopen lands in
//!    exactly the same state.
//!
//! [`run_matrix`] runs every case of [`matrix`] for one shard count and
//! additionally fails if any site in the [`sites::ALL`] catalog was
//! never exercised — a new failpoint that no case covers is a harness
//! bug, caught in CI rather than silently skipped.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

use backsort_core::Algorithm;
use backsort_faults::io::Io;
use backsort_faults::sim::SimIo;
use backsort_faults::{sites, FailpointRegistry, FaultMode};

use crate::batch::PointBatch;
use crate::engine::EngineConfig;
use crate::store::DurableEngine;
use crate::types::{SeriesKey, TsValue};

const DIR: &str = "/db";

/// Small enough that the scripted workload rotates the WAL many times
/// per run, at every shard count the matrix uses.
const MEMTABLE_MAX: usize = 24;

fn config(shards: usize) -> EngineConfig {
    EngineConfig {
        memtable_max_points: MEMTABLE_MAX,
        array_size: 16,
        sorter: Algorithm::Backward(Default::default()),
        shards,
        // A hair-trigger leveling policy: with files this small, every
        // scripted `compact_auto` round finds an eligible run, so the
        // level-move failpoints actually fire.
        compaction: crate::engine::CompactionConfig {
            l0_trigger: 2,
            level_base_bytes: 1 << 10,
            growth: 2,
        },
        ..EngineConfig::default()
    }
}

fn series() -> Vec<SeriesKey> {
    (0..4)
        .map(|i| SeriesKey::new(format!("root.sg.d{i}"), "s"))
        .collect()
}

/// xorshift64* — deterministic, seedable, no dependencies.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Clone, Debug)]
enum KeyOp {
    Write(i64, TsValue),
    Delete(i64, i64),
}

fn apply_op(state: &mut BTreeMap<i64, TsValue>, op: &KeyOp) {
    match op {
        KeyOp::Write(t, v) => {
            state.insert(*t, v.clone());
        }
        KeyOp::Delete(lo, hi) => {
            let doomed: Vec<i64> = state.range(*lo..=*hi).map(|(t, _)| *t).collect();
            for t in doomed {
                state.remove(&t);
            }
        }
    }
}

/// The in-memory model the recovered engine is checked against: per
/// series, the full op history, the acknowledged-prefix watermark, and
/// which ops are indeterminate (their call returned an error, so the
/// fault may have struck before or after their WAL record landed) — one
/// group a call, as a batch's rows share one frame.
struct Oracle {
    ops: Vec<Vec<KeyOp>>,
    acked: Vec<usize>,
    optional: Vec<Vec<Vec<usize>>>,
}

impl Oracle {
    fn new(n_keys: usize) -> Self {
        Oracle {
            ops: vec![Vec::new(); n_keys],
            acked: vec![0; n_keys],
            optional: vec![Vec::new(); n_keys],
        }
    }

    fn record(&mut self, k: usize, op: KeyOp) -> usize {
        self.ops[k].push(op);
        self.ops[k].len() - 1
    }

    fn mark_optional(&mut self, k: usize, idxs: Vec<usize>) {
        self.optional[k].push(idxs);
    }

    /// A durability barrier succeeded: everything issued so far is
    /// acknowledged.
    fn barrier(&mut self) {
        for k in 0..self.ops.len() {
            self.acked[k] = self.ops[k].len();
        }
    }

    /// Does `recovered` equal the replay of some admissible prefix of
    /// this series' ops? Admissible: at least the acknowledged prefix
    /// (minus excluded indeterminate ops), at most everything, with
    /// each group of indeterminate ops tried both included and excluded.
    fn check_key(&self, k: usize, recovered: &BTreeMap<i64, TsValue>) -> Result<(), String> {
        let ops = &self.ops[k];
        let optional = &self.optional[k];
        if optional.len() > 6 {
            return Err(format!(
                "{} indeterminate calls on one series — harness assumption broken",
                optional.len()
            ));
        }
        for mask in 0u32..(1 << optional.len()) {
            let excluded: Vec<usize> = optional
                .iter()
                .enumerate()
                .filter(|(bit, _)| mask >> bit & 1 == 1)
                .flat_map(|(_, group)| group.iter().copied())
                .collect();
            let floor = self.acked[k] - excluded.iter().filter(|&&i| i < self.acked[k]).count();
            let seq: Vec<&KeyOp> = ops
                .iter()
                .enumerate()
                .filter(|(i, _)| !excluded.contains(i))
                .map(|(_, op)| op)
                .collect();
            let mut state = BTreeMap::new();
            for j in 0..=seq.len() {
                if j >= floor && &state == recovered {
                    return Ok(());
                }
                if j < seq.len() {
                    apply_op(&mut state, seq[j]);
                }
            }
        }
        Err(format!(
            "recovered {} points match no acknowledged prefix (ops={}, acked={}, indeterminate={:?})",
            recovered.len(),
            ops.len(),
            self.acked[k],
            optional,
        ))
    }
}

/// One cell of the crash matrix: arm `site` to fire `mode` on its
/// `after`-th hit. `during_open` cases build a dirty directory first
/// and arm the fault across a recovery instead of a live workload.
#[derive(Clone, Copy, Debug)]
pub struct CaseSpec {
    /// Failpoint site name (one of [`sites::ALL`]).
    pub site: &'static str,
    /// What happens when it fires.
    pub mode: FaultMode,
    /// Fire on the Nth hit (1-based).
    pub after: u64,
    /// Arm across `DurableEngine::open` instead of the live workload.
    pub during_open: bool,
}

impl fmt::Display for CaseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={:?}@{}", self.site, self.mode, self.after)?;
        if self.during_open {
            write!(f, " (during open)")?;
        }
        Ok(())
    }
}

fn case(site: &'static str, mode: FaultMode, after: u64) -> CaseSpec {
    CaseSpec {
        site,
        mode,
        after,
        during_open: false,
    }
}

/// The full matrix: every site in the [`sites::ALL`] catalog, in each
/// fault mode meaningful for it, with varying Nth-hit triggers where
/// the workload hits the site more than once.
pub fn matrix() -> Vec<CaseSpec> {
    use FaultMode::{BitFlip, Error, Kill, ShortWrite};
    let mut cases = Vec::new();

    // Result-threaded engine failpoints: an injected error the caller
    // must surface cleanly, and a simulated death.
    for site in [
        sites::STORE_WRITE_BATCH_APPEND,
        sites::STORE_DELETE_AFTER_WAL,
        sites::STORE_ROTATE_BEGIN,
        sites::STORE_ROTATE_AFTER_FLUSH,
        sites::STORE_ROTATE_TRUNCATE,
        sites::STORE_PERSIST_AFTER_FIRST_WRITE,
        sites::STORE_PERSIST_BEFORE_GC,
        sites::STORE_SYNC,
    ] {
        cases.push(case(site, Error, 1));
        cases.push(case(site, Kill, 1));
        cases.push(case(site, Kill, 2));
    }
    // GC only runs after a compaction dropped generations; the workload
    // compacts twice, and a single pass can GC several files.
    cases.push(case(sites::STORE_PERSIST_GC, Error, 1));
    cases.push(case(sites::STORE_PERSIST_GC, Kill, 1));
    cases.push(case(sites::STORE_PERSIST_GC, Kill, 2));

    // Kill-only points inside the flush worker and compaction paths
    // (no Result to thread — death is the only meaningful fault).
    for site in [
        sites::FLUSH_ROTATE,
        sites::FLUSH_COMPLETE_BEFORE_INSTALL,
        sites::COMPACTION_AFTER_TAKE,
        sites::COMPACTION_BEFORE_RESTORE,
        sites::COMPACTION_LEVEL_PUBLISH,
    ] {
        cases.push(case(site, Kill, 1));
        cases.push(case(site, Kill, 2));
    }
    // The level-commit gap: every image of the pass durable, manifest
    // (which names the files and their levels) not yet written. The old
    // manifest must keep describing a complete state.
    cases.push(case(sites::STORE_PERSIST_BEFORE_MANIFEST, Error, 1));
    cases.push(case(sites::STORE_PERSIST_BEFORE_MANIFEST, Kill, 1));
    cases.push(case(sites::STORE_PERSIST_BEFORE_MANIFEST, Kill, 3));

    // Recovery-path failpoints: armed across a reopen of a dirty
    // directory (each is hit exactly once per open).
    for site in [
        sites::STORE_OPEN_AFTER_ADOPT,
        sites::STORE_OPEN_AFTER_REPLAY,
        sites::STORE_OPEN_BATCH_REPLAY,
        sites::STORE_OPEN_BEFORE_WAL_DELETE,
    ] {
        for mode in [Error, Kill] {
            cases.push(CaseSpec {
                site,
                mode,
                after: 1,
                during_open: true,
            });
        }
    }

    // Byte-granularity faults inside the Io sink.
    for mode in [Error, Kill, ShortWrite, BitFlip] {
        cases.push(case(sites::IO_WAL_APPEND, mode, 1));
    }
    cases.push(case(sites::IO_WAL_APPEND, ShortWrite, 9));
    cases.push(case(sites::IO_WAL_SYNC, Error, 1)); // fsyncgate: fails, commits nothing, stays alive
    cases.push(case(sites::IO_WAL_SYNC, Kill, 1));
    cases.push(case(sites::IO_WAL_SYNC, Kill, 3));
    for mode in [Error, Kill, ShortWrite, BitFlip] {
        cases.push(case(sites::IO_TSFILE_WRITE, mode, 1));
    }
    cases.push(case(sites::IO_TSFILE_WRITE, Kill, 2));
    for mode in [Error, Kill, ShortWrite, BitFlip] {
        cases.push(case(sites::IO_MANIFEST_WRITE, mode, 1));
    }

    cases
}

/// Durably writes `rows` to series `k` as one batch — one WAL frame —
/// and records them in the oracle: a write that completed a rotation
/// acknowledges everything issued, and a failed one leaves its rows
/// indeterminate as one group, the checker trying both readings (the
/// frame is atomic, so a half-applied batch matches neither).
fn write_rows(
    eng: &mut DurableEngine,
    oracle: &mut Oracle,
    keys: &[SeriesKey],
    k: usize,
    rows: Vec<(i64, TsValue)>,
) {
    let Ok(batch) = PointBatch::from_rows(rows.iter().cloned()) else {
        return;
    };
    let idxs: Vec<usize> = rows
        .into_iter()
        .map(|(t, v)| oracle.record(k, KeyOp::Write(t, v)))
        .collect();
    match eng.write_batch(&keys[k], &batch) {
        Ok(Some(_)) => oracle.barrier(),
        Ok(None) => {}
        Err(_) => oracle.mark_optional(k, idxs),
    }
}

/// The scripted workload: six rounds of out-of-order writes round-robin
/// across four devices, with range deletes, explicit and asynchronous
/// flushes, compactions (so GC runs), and sync barriers. Stops as soon
/// as the registry reports the process dead.
fn workload(
    eng: &mut DurableEngine,
    oracle: &mut Oracle,
    keys: &[SeriesKey],
    faults: &FailpointRegistry,
    rng: &mut Rng,
    shards: usize,
) {
    // A straggler burst first: a memtable of one series, then all of it
    // again below its watermark — the unsequence memtable's rotation.
    for _ in 0..2 {
        let rows = (0..MEMTABLE_MAX as i64)
            .map(|i| (i * 4, TsValue::Long(rng.below(100_000) as i64 - 50_000)))
            .collect();
        write_rows(eng, oracle, keys, 0, rows);
        if faults.is_dead() {
            return;
        }
    }
    let mut tick = vec![0i64; keys.len()];
    for round in 0..6u64 {
        // One point a batch, so rotations fall after exactly
        // `MEMTABLE_MAX` points of a shard.
        for i in 0..28u64 {
            let k = ((i + round) % keys.len() as u64) as usize;
            let t = tick[k] * 4 + rng.below(7) as i64 - 3;
            tick[k] += 1;
            let v = TsValue::Long(rng.below(100_000) as i64 - 50_000);
            write_rows(eng, oracle, keys, k, vec![(t, v)]);
            if faults.is_dead() {
                return;
            }
        }
        // And one batch of several points per round.
        let k = (round % keys.len() as u64) as usize;
        let rows = (0..5)
            .map(|_| {
                let t = tick[k] * 4 + rng.below(7) as i64 - 3;
                tick[k] += 1;
                (t, TsValue::Long(rng.below(100_000) as i64 - 50_000))
            })
            .collect();
        write_rows(eng, oracle, keys, k, rows);
        if faults.is_dead() {
            return;
        }
        if round % 2 == 0 {
            let k = (round as usize / 2) % keys.len();
            let hi = tick[k] * 4;
            let lo = hi - 60;
            let idx = oracle.record(k, KeyOp::Delete(lo, hi));
            if eng.delete_range(&keys[k], lo, hi).is_err() {
                oracle.mark_optional(k, vec![idx]);
            }
            if faults.is_dead() {
                return;
            }
        }
        if round == 1 || round == 3 {
            // The asynchronous flush path: rotate one dirty shard's
            // memtable and complete the flush worker-style.
            for shard in 0..shards {
                if let Some(job) = eng.engine().begin_flush_shard(shard) {
                    eng.engine().complete_flush(job);
                    break;
                }
            }
            if faults.is_dead() {
                return;
            }
        }
        if round == 2 || round == 4 {
            eng.engine().compact();
            if faults.is_dead() {
                return;
            }
        }
        if round == 3 || round == 5 {
            // The leveled path: flush whatever is buffered first so the
            // L0 suffix is long enough for the hair-trigger policy to
            // pick a run (round 4's full compaction folds everything to
            // one file, so round 5 needs the extra L0 files), then run
            // the leveled pass. The WAL still covers the flushed points.
            eng.engine().flush();
            eng.engine().flush_unseq();
            // One pass does at most one move per shard (a disjoint
            // leading file promotes instead of merging), so drain the
            // ladder: keep passing until a pass moves nothing. Bounded —
            // every pass either shrinks the file count or raises a
            // level, and the cap backstops it regardless.
            for _ in 0..4 {
                let report = eng.engine().compact_auto();
                if faults.is_dead() {
                    return;
                }
                if report.level_moves == 0 {
                    break;
                }
            }
        }
        if round >= 1 {
            if eng.flush().is_ok() {
                oracle.barrier();
            }
            if faults.is_dead() {
                return;
            }
        }
        if eng.sync().is_ok() {
            oracle.barrier();
        }
        if faults.is_dead() {
            return;
        }
    }
}

fn open(
    io: &Arc<SimIo>,
    faults: &Arc<FailpointRegistry>,
    shards: usize,
) -> crate::store::StoreResult<DurableEngine> {
    let sink: Arc<dyn Io> = Arc::clone(io) as Arc<dyn Io>;
    DurableEngine::open_with(Path::new(DIR), config(shards), sink, Arc::clone(faults))
}

fn snapshot(eng: &DurableEngine, keys: &[SeriesKey]) -> Vec<BTreeMap<i64, TsValue>> {
    keys.iter()
        .map(|k| eng.query(k, i64::MIN, i64::MAX).into_iter().collect())
        .collect()
}

/// Runs one matrix cell. `Err` carries a human-readable diagnosis: a
/// durability violation, a recovery failure, or a coverage failure (the
/// armed site was never reached, meaning the case tests nothing).
pub fn run_case(spec: &CaseSpec, shards: usize, seed: u64) -> Result<(), String> {
    let faults = Arc::new(FailpointRegistry::new());
    let io = Arc::new(SimIo::new(Arc::clone(&faults)));
    let keys = series();
    let mut oracle = Oracle::new(keys.len());
    let mut rng = Rng::new(seed);

    if spec.during_open {
        // Build a dirty directory: flushed files, a pending tombstone,
        // and a synced WAL tail — then crash and arm across recovery.
        {
            let mut eng =
                open(&io, &faults, shards).map_err(|e| format!("builder open failed: {e}"))?;
            let mut tick = vec![0i64; keys.len()];
            for i in 0..70u64 {
                let k = (i % keys.len() as u64) as usize;
                let t = tick[k] * 4 + rng.below(7) as i64 - 3;
                tick[k] += 1;
                let v = TsValue::Long(rng.below(100_000) as i64 - 50_000);
                oracle.record(k, KeyOp::Write(t, v.clone()));
                let point = PointBatch::from_rows([(t, v)]).map_err(|e| e.to_string())?;
                match eng.write_batch(&keys[k], &point) {
                    Ok(Some(_)) => oracle.barrier(),
                    Ok(None) => {}
                    Err(e) => return Err(format!("unarmored write failed: {e}")),
                }
            }
            if let (Some(&tick0), Some(key0)) = (tick.first(), keys.first()) {
                let (lo, hi) = (4, tick0 * 2);
                oracle.record(0, KeyOp::Delete(lo, hi));
                eng.delete_range(key0, lo, hi)
                    .map_err(|e| format!("unarmored delete failed: {e}"))?;
            }
            // Leave batch frames in the live WAL tail so the armed
            // recovery exercises the batch-replay path. A batch that
            // completes a rotation wipes the tail (its frame is flushed
            // and the segment retired), so keep writing until two batch
            // frames land *without* triggering one — guaranteed to
            // terminate because a rotation empties every memtable and
            // two 3-point batches cannot refill one.
            let mut pending = 2u32;
            let mut b = 0u64;
            while pending > 0 {
                let k = ((b + 1) % keys.len() as u64) as usize;
                b += 1;
                let mut rows = Vec::new();
                for _ in 0..3 {
                    let t = tick[k] * 4 + rng.below(7) as i64 - 3;
                    tick[k] += 1;
                    rows.push((t, TsValue::Long(rng.below(100_000) as i64 - 50_000)));
                }
                let Ok(batch) = PointBatch::from_rows(rows.clone()) else {
                    continue;
                };
                for (t, v) in &rows {
                    oracle.record(k, KeyOp::Write(*t, v.clone()));
                }
                let flushed = eng
                    .write_batch(&keys[k], &batch)
                    .map_err(|e| format!("unarmored batch write failed: {e}"))?;
                if flushed.is_none() {
                    pending -= 1;
                } else {
                    oracle.barrier();
                    pending = 2;
                }
            }
            eng.sync()
                .map_err(|e| format!("unarmored sync failed: {e}"))?;
            oracle.barrier();
        }
        io.crash();
        faults.arm(spec.site, spec.mode, spec.after);
        if open(&io, &faults, shards).is_ok() {
            return Err("armed recovery unexpectedly succeeded".into());
        }
        if faults.fired(spec.site) == 0 {
            return Err(format!(
                "site never fired during open (hits={})",
                faults.hits(spec.site)
            ));
        }
        faults.revive();
        io.crash();
    } else {
        let mut eng = open(&io, &faults, shards).map_err(|e| format!("first open failed: {e}"))?;
        faults.arm(spec.site, spec.mode, spec.after);
        workload(&mut eng, &mut oracle, &keys, &faults, &mut rng, shards);
        if faults.fired(spec.site) == 0 {
            return Err(format!(
                "site never fired during workload (hits={})",
                faults.hits(spec.site)
            ));
        }
        drop(eng);
        io.crash();
        faults.revive();
    }

    // Power is back: recover and hold the recovered state against the
    // oracle, then crash-and-recover once more to check idempotence.
    let eng = open(&io, &faults, shards).map_err(|e| format!("recovery open failed: {e}"))?;
    let recovered = snapshot(&eng, &keys);
    for (k, state) in recovered.iter().enumerate() {
        oracle
            .check_key(k, state)
            .map_err(|e| format!("series {}: {e}", keys[k]))?;
    }
    // Level oracle: recovery must not leave a file live twice, and each
    // shard's level sequence must stay non-increasing oldest→newest —
    // the shape the leveled picker relies on. A merge output surviving
    // alongside its inputs, or a manifest/adoption ordering bug, shows
    // up here as a duplicate id or an inversion.
    for shard in 0..shards {
        let meta = eng.engine().shard_file_meta(shard);
        let mut ids: Vec<u64> = meta.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != meta.len() {
            return Err(format!("shard {shard}: duplicate live file id in {meta:?}"));
        }
        if meta.iter().zip(meta.iter().skip(1)).any(|(a, b)| a.1 < b.1) {
            return Err(format!(
                "shard {shard}: recovered levels increase oldest→newest: {meta:?}"
            ));
        }
    }
    drop(eng);
    io.crash();
    let eng = open(&io, &faults, shards).map_err(|e| format!("second recovery failed: {e}"))?;
    if snapshot(&eng, &keys) != recovered {
        return Err("second recovery diverged from the first (reopen not idempotent)".into());
    }
    Ok(())
}

/// Outcome of a full matrix sweep at one shard count.
pub struct MatrixOutcome {
    /// How many cases ran.
    pub cases: usize,
    /// One line per failed case or unexercised site; empty means pass.
    pub failures: Vec<String>,
}

/// Runs every [`matrix`] case at the given shard count, then checks
/// coverage: every site in [`sites::ALL`] must have been exercised by a
/// passing case.
pub fn run_matrix(shards: usize, seed: u64) -> MatrixOutcome {
    let specs = matrix();
    let mut failures = Vec::new();
    let mut covered: BTreeSet<&str> = BTreeSet::new();
    for (i, spec) in specs.iter().enumerate() {
        let case_seed = seed
            .wrapping_add(i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            | 1;
        match run_case(spec, shards, case_seed) {
            Ok(()) => {
                covered.insert(spec.site);
            }
            Err(e) => failures.push(format!("shards={shards} [{spec}]: {e}")),
        }
    }
    for site in sites::ALL {
        if !covered.contains(site) {
            failures.push(format!(
                "shards={shards}: failpoint {site} was never exercised by a passing case"
            ));
        }
    }
    MatrixOutcome {
        cases: specs.len(),
        failures,
    }
}
