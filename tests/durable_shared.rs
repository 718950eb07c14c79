//! One engine opened on a directory, shared by threads: four writers,
//! each writing and deleting on devices of its own, beside a thread
//! that compacts, persists and syncs in a loop. After a last `sync`
//! the power is cut, and reopens at one shard and at four must read
//! back every op, device by device, with the file invariants holding.
//!
//! The soak variant runs more rounds, over several seeds, in release:
//! `cargo test --release --test durable_shared -- --ignored`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use backsort_faults::io::Io;
use backsort_faults::sim::SimIo;
use backsort_faults::FailpointRegistry;
use backward_sort_repro::core::{Algorithm, BackwardSort, InBlockSort};
use backward_sort_repro::engine::{
    CompactionConfig, EngineConfig, PointBatch, SeriesKey, StorageEngine, TsValue,
};

const WRITERS: usize = 4;
const DEVICES_PER_WRITER: usize = 2;

fn config(shards: usize) -> EngineConfig {
    EngineConfig {
        memtable_max_points: 32,
        // Stable, so that of two writes to one timestamp in one buffer
        // the later wins, as the model has it.
        sorter: Algorithm::Backward(BackwardSort {
            in_block: InBlockSort::Stable,
            ..Default::default()
        }),
        shards,
        // Small files merge at once, so compactions run beside passes.
        compaction: CompactionConfig {
            l0_trigger: 2,
            level_base_bytes: 1 << 10,
            growth: 2,
        },
        ..EngineConfig::default()
    }
}

/// xorshift64 — deterministic, seedable.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// What a device should read back: its ops applied in the order its one
/// writer issued them.
type Model = BTreeMap<i64, TsValue>;

/// One writer's `rounds` ops over its own devices: batches of 1–8
/// points after the device's last, one in eight of them stragglers
/// anywhere below it, and range deletes. Returns each device's model.
fn write(
    engine: &StorageEngine,
    writer: usize,
    rounds: usize,
    seed: u64,
) -> Vec<(SeriesKey, Model)> {
    let mut rng = Rng((seed << 8 | writer as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut devices: Vec<(SeriesKey, Model, i64)> = (0..DEVICES_PER_WRITER)
        .map(|d| {
            (
                SeriesKey::new(format!("root.w{writer}.d{d}"), "s"),
                Model::new(),
                0,
            )
        })
        .collect();
    for _ in 0..rounds {
        let (key, model, tick) = &mut devices[rng.below(DEVICES_PER_WRITER as u64) as usize];
        if rng.below(10) == 0 {
            let hi = rng.below(*tick as u64 + 8) as i64;
            let lo = hi - rng.below(40) as i64;
            engine
                .delete_range(key, lo, hi)
                .expect("a delete is logged");
            model.retain(|t, _| !(lo..=hi).contains(t));
            continue;
        }
        let straggle = rng.below(8) == 0;
        let rows: Vec<(i64, TsValue)> = (0..1 + rng.below(8))
            .map(|_| {
                let t = if straggle {
                    rng.below(*tick as u64 + 1) as i64
                } else {
                    *tick += 1 + rng.below(3) as i64;
                    *tick
                };
                (t, TsValue::Long(rng.below(1_000_000) as i64))
            })
            .collect();
        let batch = PointBatch::from_rows(rows.iter().cloned()).expect("Long rows");
        engine.write_batch(key, &batch).expect("a batch is logged");
        model.extend(rows);
    }
    devices
        .into_iter()
        .map(|(key, model, _)| (key, model))
        .collect()
}

/// Runs the writers and the maintenance thread over one engine on a
/// simulated disk, then cuts the power and checks two reopens.
fn shared_engine_keeps_every_op(rounds: usize, seed: u64) {
    let faults = Arc::new(FailpointRegistry::new());
    let io = Arc::new(SimIo::new(Arc::clone(&faults)));
    let open = |shards| {
        let sink: Arc<dyn Io> = Arc::clone(&io) as Arc<dyn Io>;
        let dir = Path::new("/db");
        StorageEngine::open_with(dir, config(shards), sink, Arc::clone(&faults))
            .expect("the directory opens")
    };
    let engine = Arc::new(open(2));
    let done = AtomicBool::new(false);
    let (models, passes) = std::thread::scope(|s| {
        let maintainer = s.spawn(|| {
            let mut passes = 0u64;
            while !done.load(Ordering::Acquire) {
                engine.compact_auto();
                engine.persist().expect("a pass commits");
                engine.sync().expect("the log syncs");
                passes += 1;
            }
            passes
        });
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let engine = Arc::clone(&engine);
                s.spawn(move || write(&engine, w, rounds, seed))
            })
            .collect();
        let models: Vec<(SeriesKey, Model)> = writers
            .into_iter()
            .flat_map(|w| w.join().expect("a writer panicked"))
            .collect();
        done.store(true, Ordering::Release);
        (models, maintainer.join().expect("the maintainer panicked"))
    });
    assert!(passes > 0, "the maintainer ran");
    engine.sync().expect("the last sync");
    drop(engine);
    io.crash();
    for shards in [1, 4] {
        let engine = open(shards);
        engine.check_files().expect("the file invariants");
        for (key, model) in &models {
            let got: Model = engine.query(key, i64::MIN, i64::MAX).into_iter().collect();
            assert_eq!(&got, model, "{key} at {shards} shards, seed {seed}");
        }
        drop(engine);
        io.crash();
    }
}

#[test]
fn a_shared_engine_keeps_every_acked_op_across_a_crash() {
    shared_engine_keeps_every_op(1_000, 1);
}

/// CI's release soak of the same interleavings, with more rounds.
#[test]
#[ignore = "the release soak"]
fn a_shared_engine_keeps_every_acked_op_across_a_crash_soak() {
    for seed in 1..=16 {
        shared_engine_keeps_every_op(4_000, seed);
    }
}
