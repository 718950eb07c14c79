//! Seeded crash exploration: random schedules over a [`StorageEngine`]
//! opened on a simulated disk, with one failpoint armed a seed, and recovery
//! checked against an in-memory oracle.
//!
//! [`explore`] turns a seed into an armed fault ([`Fault::of`]) and a
//! schedule of 200–400 ops over six devices: batch writes with
//! stragglers, range deletes, the asynchronous and synchronous flushes,
//! `compact`, `compact_auto`, persist passes, syncs, and clean restarts
//! at 1, 2 or 4 shards. The fault stays armed across restarts, so the
//! `store.open.*` sites fire inside a recovery. When the fault kills
//! the process, or fails an open, or the schedule ends, the power is
//! cut ([`SimIo::crash`]), the engine reopens, and three properties
//! are checked:
//!
//! 1. **No acknowledged op is lost.** An op is acknowledged once a
//!    durability barrier after it succeeds — `sync()` returning `Ok`, a
//!    `persist()` returning `Ok`, or a `write_batch()` that completed a
//!    rotation. The recovered state of every series must equal the
//!    oracle's replay of some prefix of that series' ops at least as
//!    long as its acknowledged prefix.
//! 2. **No op is invented.** The matching prefix is drawn from ops the
//!    schedule actually issued — recovered state containing anything
//!    else fails the comparison. An op whose call returned an error is
//!    *indeterminate* (it may or may not have reached the WAL before
//!    the fault); the checker tries both readings.
//! 3. **Recovery is idempotent.** A second crash-and-reopen lands in
//!    exactly the same state, and so does a third at another shard
//!    count; every reopen passes [`StorageEngine::check_files`].
//!
//! A clean restart mid-schedule is taken only right after a `sync`
//! that succeeded, and is checked the same way: a restart after
//! unsynced ops would legitimately lose them, and the model would not.
//!
//! A failure names the seed, the armed fault and the op list; the seed
//! alone replays it.
//!

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

use backsort_core::{Algorithm, BackwardSort, InBlockSort};
use backsort_engine::store::StoreResult;
use backsort_engine::{
    CompactionConfig, EngineConfig, PointBatch, SeriesKey, StorageEngine, TsValue,
};
use backsort_faults::io::Io;
use backsort_faults::sim::SimIo;
use backsort_faults::{sites, FailpointRegistry, FaultMode};

const DIR: &str = "/db";

/// Small enough that a schedule rotates the WAL many times, at every
/// shard count.
const MEMTABLE_MAX: usize = 24;

const SHARDS: [usize; 3] = [1, 2, 4];
const MODES: [FaultMode; 4] = [
    FaultMode::Error,
    FaultMode::Kill,
    FaultMode::ShortWrite,
    FaultMode::BitFlip,
];
/// The hits the first laps of seeds arm, in order.
const LADDER: [u64; 4] = [1, 2, 3, 9];

/// The seeds `0..LADDER_SEEDS` arm every (site, mode) pair on hits 1,
/// 2, 3 and 9, once with the engine at one shard and once at four.
pub const LADDER_SEEDS: u64 = (LADDER.len() * 2 * MODES.len() * sites::ALL.len()) as u64;

fn config(shards: usize) -> EngineConfig {
    EngineConfig {
        memtable_max_points: MEMTABLE_MAX,
        // Stable, so that of two writes to one timestamp in one buffer
        // the later wins, as the oracle's replay has it.
        sorter: Algorithm::Backward(BackwardSort {
            in_block: InBlockSort::Stable,
            ..Default::default()
        }),
        shards,
        // A hair-trigger leveling policy: with files this small, most
        // `compact_auto` rounds find an eligible run, so the level-move
        // failpoints fire.
        compaction: CompactionConfig {
            l0_trigger: 2,
            level_base_bytes: 1 << 10,
            growth: 2,
        },
        ..EngineConfig::default()
    }
}

fn series() -> Vec<SeriesKey> {
    (0..6)
        .map(|i| SeriesKey::new(format!("root.sg.d{i}"), "s"))
        .collect()
}

/// xorshift64* — deterministic, seedable, no dependencies.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
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

    fn value(&mut self) -> TsValue {
        TsValue::Long(self.below(100_000) as i64 - 50_000)
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

/// Durably writes `rows` to series `k` as one batch — one WAL frame —
/// and records them in the oracle: a write that completed a rotation
/// acknowledges everything issued, and a failed one leaves its rows
/// indeterminate as one group, the checker trying both readings (the
/// frame is atomic, so a half-applied batch matches neither).
fn write_rows(
    eng: &StorageEngine,
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

fn open(
    io: &Arc<SimIo>,
    faults: &Arc<FailpointRegistry>,
    shards: usize,
) -> StoreResult<StorageEngine> {
    let sink: Arc<dyn Io> = Arc::clone(io) as Arc<dyn Io>;
    StorageEngine::open_with(Path::new(DIR), config(shards), sink, Arc::clone(faults))
}

fn snapshot(eng: &StorageEngine, keys: &[SeriesKey]) -> Vec<BTreeMap<i64, TsValue>> {
    keys.iter()
        .map(|k| eng.query(k, i64::MIN, i64::MAX).into_iter().collect())
        .collect()
}

/// Holds a reopened engine to the oracle and to the file invariants.
fn check(eng: &StorageEngine, oracle: &Oracle, keys: &[SeriesKey]) -> Result<(), String> {
    for (k, state) in snapshot(eng, keys).iter().enumerate() {
        (oracle.check_key(k, state)).map_err(|e| format!("series {}: {e}", keys[k]))?;
    }
    eng.check_files()
}

/// The one fault a seed arms: `site` fires `mode` on its `hit`-th hit,
/// with the engine opened at `shards`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Failpoint site name (one of [`sites::ALL`]).
    pub site: &'static str,
    /// What happens when it fires.
    pub mode: FaultMode,
    /// Fire on the Nth hit (1-based).
    pub hit: u64,
    /// The shard count the engine opens at. A ladder seed reopens at it
    /// until the fault has fired, so the fault fires at this count;
    /// later seeds draw a count at every restart.
    pub shards: usize,
}

impl Fault {
    /// The seed's fault, in mixed radix: the lowest digit picks the
    /// site, the next the mode, the next one shard or four, and the next
    /// the hit, 1, 2, 3 then 9 ([`LADDER_SEEDS`]). Each lap of seeds past
    /// those draws its shard count from 1, 2 or 4, and each seed its hit
    /// uniformly from the hits its schedule makes of the site with
    /// nothing firing (one more run of it), so rare sites fire too.
    pub fn of(seed: u64) -> Self {
        let n = sites::ALL.len() as u64;
        let lap = seed / (4 * n);
        let mut fault = Fault {
            site: sites::ALL[(seed % n) as usize],
            mode: MODES[(seed / n % 4) as usize],
            hit: u64::MAX,
            shards: [1, 4][(lap % 2) as usize],
        };
        match LADDER.get((lap / 2) as usize) {
            Some(&hit) => fault.hit = hit,
            None => {
                let mut rng = Rng::new(lap);
                fault.shards = SHARDS[rng.below(3) as usize];
                let hits = Run::new(seed, fault).hits();
                fault.hit = 1 + rng.below(hits.max(1));
            }
        }
        fault
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (site, mode, hit, shards) = (self.site, self.mode, self.hit, self.shards);
        write!(f, "{site}={mode:?}@{hit} at {shards} shards")
    }
}

/// What one seed did: its fault, and the shard count of the engine the
/// fault fired in (`None` if the schedule never reached its hit).
#[derive(Clone, Copy, Debug)]
pub struct Explored {
    /// The armed fault.
    pub fault: Fault,
    /// The shard count it fired at.
    pub fired_at: Option<usize>,
}

/// Runs seed `seed`'s schedule, crash and recovery. `Err` carries the
/// seed, the armed fault, the violation and the op list.
pub fn explore(seed: u64) -> Result<Explored, String> {
    let fault = Fault::of(seed);
    let mut run = Run::new(seed, fault);
    let result = run.schedule().and_then(|()| run.recover());
    let fired_at = run.fired_at;
    result
        .map(|()| Explored { fault, fired_at })
        .map_err(|e| format!("seed {seed} [{fault}]: {e}\nops:\n{}", run.log.join("\n")))
}

struct Run {
    seed: u64,
    io: Arc<SimIo>,
    faults: Arc<FailpointRegistry>,
    fault: Fault,
    fired_at: Option<usize>,
    keys: Vec<SeriesKey>,
    oracle: Oracle,
    rng: Rng,
    shards: usize,
    /// The engine, `None` once the process died or an open failed.
    eng: Option<StorageEngine>,
    log: Vec<String>,
}

impl Run {
    fn new(seed: u64, fault: Fault) -> Self {
        let faults = Arc::new(FailpointRegistry::new());
        let keys = series();
        Run {
            seed,
            io: Arc::new(SimIo::new(Arc::clone(&faults))),
            faults,
            fault,
            fired_at: None,
            oracle: Oracle::new(keys.len()),
            keys,
            rng: Rng::new(seed),
            shards: fault.shards,
            eng: None,
            log: Vec::new(),
        }
    }

    /// Notes the shard count the armed fault fired at, once.
    fn note_fired(&mut self) {
        if self.fired_at.is_none() && self.faults.fired(self.fault.site) > 0 {
            self.fired_at = Some(self.shards);
        }
    }

    /// Runs the schedule with a fault that never fires, counting its
    /// site's hits; the real run reports what the checks find.
    fn hits(mut self) -> u64 {
        let _ = self.schedule();
        self.faults.hits(self.fault.site)
    }

    /// Opens at `self.shards` with the fault still armed; a failed open
    /// leaves `eng` empty, which ends the schedule.
    fn reopen(&mut self) {
        self.eng = open(&self.io, &self.faults, self.shards).ok();
        self.note_fired();
    }

    fn schedule(&mut self) -> Result<(), String> {
        self.eng = Some(open(&self.io, &self.faults, self.shards).map_err(|e| e.to_string())?);
        let Fault {
            site, mode, hit, ..
        } = self.fault;
        self.faults.arm(site, mode, hit);
        let mut tick = vec![0i64; self.keys.len()];
        for _ in 0..200 + self.rng.below(201) {
            let Some(eng) = self.eng.as_ref() else {
                break;
            };
            let (keys, oracle, rng) = (&self.keys, &mut self.oracle, &mut self.rng);
            let k = rng.below(keys.len() as u64) as usize;
            let line = match rng.below(100) {
                // A batch of 1–8 points after the device's last, or one
                // of stragglers anywhere below it.
                0..=54 => {
                    let straggle = rng.below(8) == 0;
                    let rows: Vec<(i64, TsValue)> = (0..1 + rng.below(8))
                        .map(|_| {
                            let t = if straggle {
                                rng.below(tick[k] as u64 * 4 + 1) as i64
                            } else {
                                tick[k] += 1;
                                tick[k] * 4 + rng.below(7) as i64 - 3
                            };
                            (t, rng.value())
                        })
                        .collect();
                    let line = format!("write d{k} {rows:?}");
                    write_rows(eng, oracle, keys, k, rows);
                    line
                }
                55..=62 => {
                    let hi = rng.below(tick[k] as u64 * 4 + 8) as i64;
                    let lo = hi - rng.below(60) as i64;
                    let idx = oracle.record(k, KeyOp::Delete(lo, hi));
                    let result = eng.delete_range(&keys[k], lo, hi).map(|_| ());
                    if result.is_err() {
                        oracle.mark_optional(k, vec![idx]);
                    }
                    format!("delete d{k} [{lo}, {hi}] -> {result:?}")
                }
                63..=66 => {
                    let shard = rng.below(self.shards as u64) as usize;
                    if let Some(job) = eng.begin_flush_shard(shard) {
                        eng.complete_flush(job);
                    }
                    format!("begin_flush_shard({shard}) + complete_flush")
                }
                67..=69 => {
                    eng.flush();
                    "flush".into()
                }
                70..=72 => {
                    eng.flush_unseq();
                    "flush_unseq".into()
                }
                73..=75 => {
                    eng.compact();
                    "compact".into()
                }
                76..=80 => {
                    let moves = eng.compact_auto().level_moves;
                    format!("compact_auto -> {moves} level moves")
                }
                81..=85 => {
                    let result = eng.persist();
                    if result.is_ok() {
                        oracle.barrier();
                    }
                    format!("persist -> {result:?}")
                }
                86..=95 => {
                    let result = eng.sync();
                    if result.is_ok() {
                        oracle.barrier();
                    }
                    format!("sync -> {result:?}")
                }
                _ => {
                    // Only after a sync that succeeded: nothing issued is
                    // then allowed to be lost.
                    let result = eng.sync();
                    let line = format!("sync -> {result:?}");
                    if result.is_ok() {
                        oracle.barrier();
                        if self.fired_at.is_some() || self.seed >= LADDER_SEEDS {
                            self.shards = SHARDS[rng.below(3) as usize];
                        }
                        self.log.push(line);
                        self.eng = None;
                        self.io.crash();
                        self.reopen();
                        let line = format!("restart at {} shards", self.shards);
                        if let Some(eng) = &self.eng {
                            check(eng, &self.oracle, &self.keys)
                                .map_err(|e| format!("after a clean restart: {e}"))?;
                        }
                        line
                    } else {
                        line
                    }
                }
            };
            self.log.push(line);
            self.note_fired();
            if self.faults.is_dead() {
                self.eng = None;
            }
        }
        Ok(())
    }

    /// Power cut and restart with the fault disarmed: the recovered
    /// state against the oracle, then a second reopen at the same shard
    /// count and a third at another, each landing in the same state.
    fn recover(&mut self) -> Result<(), String> {
        self.eng = None;
        self.io.crash();
        self.faults.revive();
        self.log
            .push(format!("crash, recover at {} shards", self.shards));
        let eng = open(&self.io, &self.faults, self.shards)
            .map_err(|e| format!("recovery open failed: {e}"))?;
        check(&eng, &self.oracle, &self.keys)?;
        let recovered = snapshot(&eng, &self.keys);
        drop(eng);
        for count in [self.shards, if self.shards == 1 { 4 } else { 1 }] {
            self.io.crash();
            let eng = open(&self.io, &self.faults, count)
                .map_err(|e| format!("reopen at {count} failed: {e}"))?;
            eng.check_files()
                .map_err(|e| format!("reopen at {count}: {e}"))?;
            if snapshot(&eng, &self.keys) != recovered {
                return Err(format!(
                    "a reopen at {count} shards diverged from the recovery"
                ));
            }
        }
        Ok(())
    }
}
