//! Seeded, count-fixed scripts: what every connection sends in a round,
//! with the answer the oracle expects for every query.
//!
//! A script is a pure function of `(workload, seed, connections)`. The
//! sizes below are frozen: they make one round take about a second on the
//! 2-core reference box, and a run executes `--seconds` rounds, so counts
//! repeat exactly and the cache regime is fixed by construction.

use backsort_engine::{PointBatch, SeriesKey, ValueColumn};
use backsort_workload::{generate_pairs, DelayModel, StreamSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::{Model, RowsDigest};

/// The four traffic mixes; README.md gives each one's reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IngestOoo,
    QueryWindow,
    QueryAggCold,
    MixedRecent,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::IngestOoo,
        Workload::QueryWindow,
        Workload::QueryAggCold,
        Workload::MixedRecent,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestOoo => "ingest-ooo",
            Workload::QueryWindow => "query-window",
            Workload::QueryAggCold => "query-agg-cold",
            Workload::MixedRecent => "mixed-recent",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many times a run repeats the set-up to take `setup_s` (and,
    /// for the read-only workloads, the load's write metrics) as a median:
    /// more often where one set-up takes milliseconds.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::IngestOoo => 5,
            Workload::QueryAggCold => 10,
            Workload::MixedRecent => 25,
            Workload::QueryWindow => 120,
        }
    }
}

/// Points per batch frame of the bulk phases (IoTDB-benchmark's default
/// batch size region; the paper's §VI-A2 sends "batch by batch").
const FRAME_POINTS: usize = 500;
/// Frames a connection keeps in flight in the bulk phases, so that client,
/// reader and worker overlap and no core waits for a wake-up.
const BULK_WINDOW: usize = 8;
/// Sensors under every device.
const SENSORS: usize = 4;

/// `ingest-ooo`: per connection one device, per sensor one 250k-point
/// arrival cycle under `LogNormal(4, 1)` delays, replayed lap after lap.
const INGEST_CYCLE: usize = 250_000;
const INGEST_FRAMES_PER_CONN: usize = 6_000;
/// The over-the-wire read-back sample closing each ingest round.
const INGEST_READBACK_QUERIES: usize = 400;
const INGEST_READBACK_ROWS: i64 = 500;

/// `query-window`: 2 devices × 4 sensors × 25,000 in-order points is
/// 200k points, 6.4 MB decoded — 40 % of the 16 MiB block cache.
const WINDOW_DEVICES: usize = 2;
const WINDOW_POINTS: usize = 25_000;
const WINDOW_ROWS: i64 = 2_000;
const WINDOW_QUERIES_PER_CONN: usize = 150;

/// `query-agg-cold`: 4 devices × 4 sensors × 250,000 points is 4M
/// points, 128 MB decoded — 8× the block cache.
const AGG_DEVICES: usize = 4;
const AGG_POINTS: usize = 250_000;
const AGG_RANGE: i64 = 50_000;
const AGG_QUERIES_PER_CONN: usize = 250;

/// `mixed-recent`: turns of four 100-point frames to one sensor, then a
/// `SELECT` of that sensor's newest 500 timestamps.
const MIXED_TURNS_PER_CONN: usize = 800;
const MIXED_FRAMES_PER_TURN: usize = 4;
const MIXED_FRAME_POINTS: usize = 100;
const MIXED_NEWEST: i64 = 500;

/// One request of a script.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A binary batch frame: the series' arrivals `at .. at + len`,
    /// counted from the start of its stream (see [`Series::arrival`]).
    Write {
        series: usize,
        at: usize,
        len: usize,
    },
    /// `SELECT s FROM d WHERE time >= lo AND time < hi + 1`; an open
    /// upper end is `hi == i64::MAX`.
    Select {
        series: usize,
        lo: i64,
        hi: i64,
        expect: RowsDigest,
    },
    /// `SELECT count(s), avg(s') FROM d WHERE time >= lo AND time < hi + 1`
    /// over two sensors of one device: the executor answers each
    /// aggregate with a scan of its own, and a second scan of the *same*
    /// sensor would find every page the first just cached.
    CountAvg {
        series: usize,
        avg_series: usize,
        lo: i64,
        hi: i64,
        count: u64,
        avg: f64,
    },
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Write { .. })
    }
}

/// Ops every connection runs side by side between two barriers, at one
/// pipelining depth.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    pub window: usize,
    /// Indexed by connection.
    pub ops: Vec<Vec<Op>>,
}

/// One series: its SQL names and its arrival-ordered timestamp cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    pub key: SeriesKey,
    /// Timestamps of one cycle in arrival order, a permutation of
    /// `0..cycle.len()`.
    pub cycle: Vec<i64>,
}

impl Series {
    /// The timestamp of the stream's `i`-th arrival: the cycle replayed
    /// lap after lap, each lap one cycle length later in time.
    pub fn arrival(&self, i: usize) -> i64 {
        let n = self.cycle.len();
        self.cycle[i % n] + (i / n * n) as i64
    }
}

/// Everything one run of one workload sends.
#[derive(Debug)]
pub struct Script {
    pub workload: Workload,
    pub series: Vec<Series>,
    /// Sent once while setting up, to seed the engine the rounds read.
    pub load: Option<Phase>,
    /// The timed script of one round.
    pub round: Vec<Phase>,
    /// The stored data after `load` and one round.
    pub model: Model,
}

impl Script {
    /// The value stored at `t` of `series`: a function of both, so a
    /// reply from the wrong series or time cannot pass the checksum.
    pub fn value(series: usize, t: i64) -> f64 {
        t as f64 + series as f64 * 0.25
    }

    /// Builds the batch a [`Op::Write`] sends.
    pub fn batch(&self, series: usize, at: usize, len: usize) -> PointBatch {
        let stream = &self.series[series];
        let ts: Vec<i64> = (at..at + len).map(|i| stream.arrival(i)).collect();
        let vs: Vec<f64> = ts.iter().map(|&t| Self::value(series, t)).collect();
        PointBatch::from_columns(ts, ValueColumn::Double(vs)).expect("columns are the same length")
    }

    /// The SQL text of a query op.
    pub fn sql(&self, op: &Op) -> String {
        let (items, series, lo, hi) = match op {
            Op::Select { series, lo, hi, .. } => {
                let sensor = &self.series[*series].key.sensor;
                (sensor.clone(), *series, *lo, *hi)
            }
            Op::CountAvg {
                series,
                avg_series,
                lo,
                hi,
                ..
            } => {
                let counted = &self.series[*series].key.sensor;
                let averaged = &self.series[*avg_series].key.sensor;
                (
                    format!("count({counted}), avg({averaged})"),
                    *series,
                    *lo,
                    *hi,
                )
            }
            Op::Write { .. } => panic!("a write is a batch frame, not SQL"),
        };
        let device = &self.series[series].key.device;
        if hi == i64::MAX {
            format!("SELECT {items} FROM {device} WHERE time >= {lo}")
        } else {
            format!(
                "SELECT {items} FROM {device} WHERE time >= {lo} AND time < {}",
                hi + 1
            )
        }
    }
}

/// Generates the script of `workload`. `shard_of` is the engine's device
/// routing: device names are chosen so connection `c`'s devices live in
/// shard `c`, which keeps two connections from ever contending for one
/// shard lock by an accident of hashing.
pub fn generate(
    workload: Workload,
    seed: u64,
    connections: usize,
    shard_of: &dyn Fn(&str) -> usize,
) -> Script {
    let builder = Builder {
        seed,
        connections,
        shard_of,
        series: Vec::new(),
    };
    match workload {
        Workload::IngestOoo => builder.ingest_ooo(),
        Workload::QueryWindow => builder.read_only(
            Workload::QueryWindow,
            WINDOW_DEVICES,
            WINDOW_POINTS,
            WINDOW_QUERIES_PER_CONN,
        ),
        Workload::QueryAggCold => builder.read_only(
            Workload::QueryAggCold,
            AGG_DEVICES,
            AGG_POINTS,
            AGG_QUERIES_PER_CONN,
        ),
        Workload::MixedRecent => builder.mixed_recent(),
    }
}

struct Builder<'a> {
    seed: u64,
    connections: usize,
    shard_of: &'a dyn Fn(&str) -> usize,
    series: Vec<Series>,
}

impl Builder<'_> {
    /// A generator for one purpose (`salt`) of one connection or series.
    fn rng(&self, salt: u64, index: usize) -> StdRng {
        StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(salt << 32)
                .wrapping_add(index as u64),
        )
    }

    /// Adds device `d` (routed to shard `d % connections`) with
    /// [`SENSORS`] series of `points` arrivals under `delay`; returns the
    /// index of its first series.
    fn add_device(&mut self, d: usize, points: usize, delay: DelayModel) -> usize {
        let want = d % self.connections;
        let device = (0..)
            .map(|n| format!("root.perf.d{d}n{n}"))
            .find(|name| (self.shard_of)(name) == want)
            .expect("some name hashes to every shard");
        let first = self.series.len();
        for s in 0..SENSORS {
            let stream_seed = self.rng(1, first + s).gen_range(0..u64::MAX);
            let spec = StreamSpec::new(points, delay, stream_seed);
            self.series.push(Series {
                key: SeriesKey::new(device.clone(), format!("s{s}")),
                cycle: generate_pairs(&spec).into_iter().map(|(t, _)| t).collect(),
            });
        }
        first
    }

    fn finish(
        self,
        workload: Workload,
        load: Option<Phase>,
        round: Vec<Phase>,
        model: Model,
    ) -> Script {
        Script {
            workload,
            series: self.series,
            load,
            round,
            model,
        }
    }

    /// Frames that write `frames` chunks of [`FRAME_POINTS`] to each of
    /// `series` in turn (all sensors advance together, as a device
    /// reports them).
    fn bulk_frames(series: &[usize], frames: usize) -> Vec<Op> {
        (0..frames)
            .map(|j| Op::Write {
                series: series[j % series.len()],
                at: (j / series.len()) * FRAME_POINTS,
                len: FRAME_POINTS,
            })
            .collect()
    }

    fn apply_writes(&self, model: &mut Model, ops: &[Op]) {
        for op in ops {
            if let Op::Write { series, at, len } = *op {
                for i in at..at + len {
                    let t = self.series[series].arrival(i);
                    model.insert(series, t, Script::value(series, t));
                }
            }
        }
    }

    fn ingest_ooo(mut self) -> Script {
        let delay = DelayModel::LogNormal {
            mu: 4.0,
            sigma: 1.0,
        };
        let owned: Vec<Vec<usize>> = (0..self.connections)
            .map(|c| {
                let first = self.add_device(c, INGEST_CYCLE, delay);
                (first..first + SENSORS).collect()
            })
            .collect();
        let writes: Vec<Vec<Op>> = owned
            .iter()
            .map(|series| Self::bulk_frames(series, INGEST_FRAMES_PER_CONN))
            .collect();
        let mut model = Model::new(self.series.len());
        for ops in &writes {
            self.apply_writes(&mut model, ops);
        }
        let reads: Vec<Vec<Op>> = owned
            .iter()
            .enumerate()
            .map(|(c, series)| {
                let mut rng = self.rng(2, c);
                (0..INGEST_READBACK_QUERIES)
                    .map(|_| {
                        let s = series[rng.gen_range(0..series.len())];
                        let newest = model.latest(s).expect("every series was written");
                        let lo = rng.gen_range(0..=newest - INGEST_READBACK_ROWS);
                        let hi = lo + INGEST_READBACK_ROWS - 1;
                        Op::Select {
                            series: s,
                            lo,
                            hi,
                            expect: model.select(s, lo..=hi),
                        }
                    })
                    .collect()
            })
            .collect();
        let round = vec![
            Phase {
                window: BULK_WINDOW,
                ops: writes,
            },
            Phase {
                window: 1,
                ops: reads,
            },
        ];
        self.finish(Workload::IngestOoo, None, round, model)
    }

    /// The two read-only workloads: in-order data loaded once, then
    /// seeded-uniform queries over every series from every connection.
    fn read_only(
        mut self,
        workload: Workload,
        devices: usize,
        points: usize,
        queries_per_conn: usize,
    ) -> Script {
        assert_eq!(points % FRAME_POINTS, 0);
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); self.connections];
        for d in 0..devices {
            let first = self.add_device(d, points, DelayModel::None);
            owned[d % self.connections].extend(first..first + SENSORS);
        }
        let mut model = Model::new(self.series.len());
        for s in 0..self.series.len() {
            model.load_sorted(s, (0..points as i64).map(|t| (t, Script::value(s, t))));
        }
        let load: Vec<Vec<Op>> = owned
            .iter()
            .map(|series| Self::bulk_frames(series, series.len() * points / FRAME_POINTS))
            .collect();
        let queries: Vec<Vec<Op>> = (0..self.connections)
            .map(|c| {
                let mut rng = self.rng(2, c);
                (0..queries_per_conn)
                    .map(|_| {
                        let series = rng.gen_range(0..self.series.len());
                        match workload {
                            Workload::QueryAggCold => {
                                let lo = rng.gen_range(0..=points as i64 - AGG_RANGE);
                                let hi = lo + AGG_RANGE - 1;
                                // The next sensor of the same device.
                                let avg_series = series - series % SENSORS + (series + 1) % SENSORS;
                                let (count, _) = model.count_avg(series, lo..=hi);
                                let (_, avg) = model.count_avg(avg_series, lo..=hi);
                                Op::CountAvg {
                                    series,
                                    avg_series,
                                    lo,
                                    hi,
                                    count,
                                    avg,
                                }
                            }
                            _ => {
                                let lo = rng.gen_range(0..=points as i64 - WINDOW_ROWS);
                                let hi = lo + WINDOW_ROWS - 1;
                                Op::Select {
                                    series,
                                    lo,
                                    hi,
                                    expect: model.select(series, lo..=hi),
                                }
                            }
                        }
                    })
                    .collect()
            })
            .collect();
        // The same depth as `ingest-ooo`'s writes: with one frame in
        // flight three quarters of a frame's time is thread wake-ups, and
        // the load's rate then says how the host schedules, not how the
        // program ingests (it spread 23-29 % between runs of one binary).
        let load = Phase {
            window: BULK_WINDOW,
            ops: load,
        };
        let round = vec![Phase {
            window: 1,
            ops: queries,
        }];
        self.finish(workload, Some(load), round, model)
    }

    fn mixed_recent(mut self) -> Script {
        let delay = DelayModel::LogNormal {
            mu: 1.0,
            sigma: 1.0,
        };
        // Turn `k` writes to sensor `k % SENSORS`, so each sensor's cycle
        // holds exactly what its share of the turns sends.
        let turns_per_sensor = MIXED_TURNS_PER_CONN.div_ceil(SENSORS);
        let turn_points = MIXED_FRAMES_PER_TURN * MIXED_FRAME_POINTS;
        let mut per_conn: Vec<Vec<Op>> = Vec::new();
        let firsts: Vec<usize> = (0..self.connections)
            .map(|c| self.add_device(c, turns_per_sensor * turn_points, delay))
            .collect();
        let mut model = Model::new(self.series.len());
        for &first in &firsts {
            let mut ops = Vec::new();
            for turn in 0..MIXED_TURNS_PER_CONN {
                let series = first + turn % SENSORS;
                let at = (turn / SENSORS) * turn_points;
                for f in 0..MIXED_FRAMES_PER_TURN {
                    let write = Op::Write {
                        series,
                        at: at + f * MIXED_FRAME_POINTS,
                        len: MIXED_FRAME_POINTS,
                    };
                    self.apply_writes(&mut model, std::slice::from_ref(&write));
                    ops.push(write);
                }
                let newest = model.latest(series).expect("the turn just wrote");
                let lo = newest - (MIXED_NEWEST - 1);
                ops.push(Op::Select {
                    series,
                    lo,
                    hi: i64::MAX,
                    expect: model.select(series, lo..=i64::MAX),
                });
            }
            per_conn.push(ops);
        }
        let round = vec![Phase {
            window: 1,
            ops: per_conn,
        }];
        self.finish(Workload::MixedRecent, None, round, model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(workload: Workload, seed: u64) -> Script {
        generate(workload, seed, 2, &|device| device.len() % 2)
    }

    #[test]
    fn the_same_seed_gives_the_same_ops_and_another_seed_other_ops() {
        for workload in [Workload::QueryWindow, Workload::MixedRecent] {
            let (a, b, c) = (gen(workload, 7), gen(workload, 7), gen(workload, 8));
            assert_eq!(a.series, b.series, "{}", workload.name());
            assert_eq!(a.load, b.load);
            assert_eq!(a.round, b.round);
            let ops = |s: &Script| -> Vec<usize> {
                let per_phase = |p: &Phase| p.ops.iter().map(Vec::len).sum();
                s.round.iter().map(per_phase).collect()
            };
            assert_eq!(ops(&a), ops(&c), "counts are frozen");
            assert_ne!(a.round, c.round, "{}", workload.name());
        }
    }

    #[test]
    fn devices_land_on_their_connections_shard() {
        let script = gen(Workload::QueryWindow, 1);
        for (i, series) in script.series.iter().enumerate() {
            assert_eq!(series.key.device.len() % 2, (i / SENSORS) % 2);
        }
    }

    #[test]
    fn a_write_builds_the_points_the_model_holds() {
        let script = gen(Workload::MixedRecent, 3);
        let Op::Write { series, at, len } = script.round[0].ops[0][0] else {
            panic!("a turn starts with a write");
        };
        let batch = script.batch(series, at, len);
        assert_eq!(batch.len(), MIXED_FRAME_POINTS);
        for (t, v) in batch.rows() {
            assert_eq!(v.as_f64(), Script::value(series, t));
            assert_eq!(
                script.model.select(series, t..=t),
                RowsDigest::of([(t, v.as_f64())])
            );
        }
        // Every series' final state is one full, gap-free cycle.
        let cycle = script.series[series].cycle.len() as i64;
        let full = RowsDigest::of((0..cycle).map(|t| (t, Script::value(series, t))));
        assert_eq!(script.model.select(series, i64::MIN..=i64::MAX), full);
    }

    #[test]
    fn queries_render_half_open_ranges() {
        let script = gen(Workload::QueryWindow, 5);
        let op = &script.round[0].ops[1][0];
        let Op::Select {
            series,
            lo,
            hi,
            expect,
        } = op
        else {
            panic!("query-window only selects");
        };
        assert_eq!(expect.rows, WINDOW_ROWS as u64);
        assert_eq!((expect.first, expect.last), (*lo, *hi));
        let key = &script.series[*series].key;
        assert_eq!(
            script.sql(op),
            format!(
                "SELECT {} FROM {} WHERE time >= {lo} AND time < {}",
                key.sensor,
                key.device,
                hi + 1
            )
        );
    }
}
