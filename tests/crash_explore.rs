//! Seeded crash exploration of the durable engine
//! (`backsort_sim::explore`): every run explores the ladder's seeds and
//! holds them to coverage; the soak explores 20,000 seeds in release.
//! A failure prints its seed, which replays it alone:
//! `backsort_sim::explore(seed)`.

use backsort_faults::{sites, FaultMode};
use backsort_sim::{explore, LADDER_SEEDS};

/// A fault that fired: its site, mode and hit, and the shard count of
/// the engine it fired in.
type Cell = (&'static str, FaultMode, u64, usize);

/// Explores `seeds` on two threads. Returns the cells that fired, and
/// panics with every failure if any seed failed.
fn explore_all(seeds: std::ops::Range<u64>) -> Vec<Cell> {
    let (cells, mut failures): (Vec<Cell>, Vec<String>) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|lane| {
                let seeds = seeds.clone().skip(lane).step_by(2);
                s.spawn(move || {
                    let (mut cells, mut failures) = (Vec::new(), Vec::new());
                    for seed in seeds {
                        match explore(seed) {
                            Ok(x) => cells.extend(
                                (x.fired_at).map(|n| (x.fault.site, x.fault.mode, x.fault.hit, n)),
                            ),
                            Err(e) => failures.push(e),
                        }
                    }
                    (cells, failures)
                })
            })
            .collect();
        workers
            .into_iter()
            .fold((Vec::new(), Vec::new()), |mut all, w| {
                let (cells, failures) = w.join().expect("a lane panicked");
                all.0.extend(cells);
                all.1.extend(failures);
                all
            })
    });
    failures.sort_by_key(|e| e.lines().next().map(str::to_owned));
    let heads: Vec<&str> = failures.iter().filter_map(|e| e.lines().next()).collect();
    assert!(
        failures.is_empty(),
        "{} of {} seeds failed:\n{}\n\nthe first in full:\n{}",
        failures.len(),
        seeds.end - seeds.start,
        heads.join("\n"),
        failures[0],
    );
    cells
}

/// Every cell the scripted crash matrix this explorer replaced ran, at
/// one shard and at four: each site in the modes meaningful for it, on
/// the hits it listed.
fn matrix_cells() -> Vec<(&'static str, FaultMode, u64)> {
    use FaultMode::{BitFlip, Error, Kill, ShortWrite};
    let mut cells = Vec::new();
    let mut add = |sites: &[&'static str], modes: &[(FaultMode, u64)]| {
        for &site in sites {
            cells.extend(modes.iter().map(|&(mode, hit)| (site, mode, hit)));
        }
    };
    add(
        &[
            sites::STORE_WRITE_BATCH_APPEND,
            sites::STORE_DELETE_AFTER_WAL,
            sites::STORE_ROTATE_BEGIN,
            sites::STORE_ROTATE_AFTER_FLUSH,
            sites::STORE_ROTATE_TRUNCATE,
            sites::STORE_PERSIST_AFTER_FIRST_WRITE,
            sites::STORE_PERSIST_BEFORE_GC,
            sites::STORE_SYNC,
            sites::STORE_PERSIST_GC,
        ],
        &[(Error, 1), (Kill, 1), (Kill, 2)],
    );
    add(
        &[
            sites::FLUSH_ROTATE,
            sites::FLUSH_COMPLETE_BEFORE_INSTALL,
            sites::COMPACTION_AFTER_TAKE,
            sites::COMPACTION_BEFORE_RESTORE,
            sites::COMPACTION_LEVEL_PUBLISH,
        ],
        &[(Kill, 1), (Kill, 2)],
    );
    add(
        &[sites::STORE_PERSIST_BEFORE_MANIFEST],
        &[(Error, 1), (Kill, 1), (Kill, 3)],
    );
    add(
        &[
            sites::STORE_OPEN_AFTER_ADOPT,
            sites::STORE_OPEN_AFTER_REPLAY,
            sites::STORE_OPEN_BATCH_REPLAY,
            sites::STORE_OPEN_BEFORE_WAL_DELETE,
        ],
        &[(Error, 1), (Kill, 1)],
    );
    let torn = [(Error, 1), (Kill, 1), (ShortWrite, 1), (BitFlip, 1)];
    add(&[sites::IO_WAL_APPEND], &torn);
    add(&[sites::IO_WAL_APPEND], &[(ShortWrite, 9)]);
    add(&[sites::IO_WAL_SYNC], &[(Error, 1), (Kill, 1), (Kill, 3)]);
    add(&[sites::IO_TSFILE_WRITE], &torn);
    add(&[sites::IO_TSFILE_WRITE], &[(Kill, 2)]);
    add(&[sites::IO_MANIFEST_WRITE], &torn);
    cells
}

/// The ladder's seeds pass, every cataloged site fired in one of them,
/// and so did every matrix cell at one shard and at four.
#[test]
fn the_ladder_seeds_recover_what_was_acked_at_every_cell() {
    let fired = explore_all(0..LADDER_SEEDS);
    for site in sites::ALL {
        assert!(
            fired.iter().any(|cell| cell.0 == *site),
            "{site} never fired"
        );
    }
    let matrix = matrix_cells();
    assert_eq!(matrix.len(), 65);
    for (site, mode, hit) in matrix {
        for shards in [1, 4] {
            assert!(
                fired.contains(&(site, mode, hit, shards)),
                "{site}={mode:?}@{hit} never fired at {shards} shards"
            );
        }
    }
}

/// The CI soak: `cargo test --release --test crash_explore -- --ignored`.
/// At least 95 % of its seeds fire their fault: a seed whose fault never
/// fires explores a fault-free schedule.
#[test]
#[ignore = "the release soak, about a minute"]
fn twenty_thousand_seeds_recover_what_was_acked() {
    let seeds = 20_000;
    let fired = explore_all(0..seeds).len() as u64;
    println!("{fired} of {seeds} seeds fired their fault");
    assert!(
        fired * 100 >= seeds * 95,
        "{fired} of {seeds} seeds fired their fault"
    );
}
