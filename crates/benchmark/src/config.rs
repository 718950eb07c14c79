//! Benchmark configuration.

use backsort_core::Algorithm;
use backsort_workload::DelayModel;

/// One benchmark run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Devices in the storage group.
    pub devices: usize,
    /// Sensors per device.
    pub sensors_per_device: usize,
    /// Points per write batch (the paper's tuned optimum is 500).
    pub batch_size: usize,
    /// Fraction of operations that are writes, in `[0, 1]` — the paper
    /// sweeps {0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}.
    pub write_percentage: f64,
    /// Total operations (each a batch write or one query).
    pub operations: usize,
    /// Delay model applied to generated points.
    pub delay: DelayModel,
    /// Width of each time-range query, in points, ending at the latest
    /// ingested timestamp (avoids disk I/O, §VI-D).
    pub query_window: i64,
    /// Memtable capacity in points.
    pub memtable_max_points: usize,
    /// Sort algorithm under test.
    pub sorter: Algorithm,
    /// Storage-engine shards (device-hash partitions). `1` reproduces the
    /// paper's single-lock engine exactly; higher values let concurrent
    /// writers on different devices proceed in parallel.
    pub shards: usize,
    /// Block-cache budget in bytes for flushed-file page reads
    /// (`0` disables the cache).
    pub cache_bytes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            devices: 2,
            sensors_per_device: 5,
            batch_size: 500,
            write_percentage: 0.9,
            operations: 200,
            delay: DelayModel::AbsNormal {
                mu: 0.0,
                sigma: 1.0,
            },
            query_window: 2_000,
            memtable_max_points: 100_000,
            sorter: Algorithm::Backward(backsort_core::BackwardSort::default()),
            shards: 1,
            cache_bytes: 16 << 20,
            seed: 1,
        }
    }
}

impl BenchConfig {
    /// The write-percentage grid of the paper's system experiments.
    pub const WRITE_PERCENTAGES: [f64; 7] = [0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];

    /// Total points this run will ingest.
    pub fn total_points(&self) -> usize {
        // Every op is a batch write with probability write_percentage;
        // expectation is close enough for sizing hints.
        (self.operations as f64 * self.write_percentage) as usize * self.batch_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = BenchConfig::default();
        assert_eq!(c.batch_size, 500);
        assert!(c.write_percentage > 0.0 && c.write_percentage <= 1.0);
        assert!(c.total_points() > 0);
    }

    #[test]
    fn write_grid_matches_paper() {
        assert_eq!(BenchConfig::WRITE_PERCENTAGES.len(), 7);
        assert_eq!(BenchConfig::WRITE_PERCENTAGES[0], 0.25);
        assert_eq!(*BenchConfig::WRITE_PERCENTAGES.last().unwrap(), 1.0);
    }
}
