//! Smoke tests for the system-benchmark path: small runs across delay
//! families, write percentages, and contenders must complete and produce
//! coherent metrics.

use backsort_experiments::experiments::system::{run_benchmark, BenchConfig, SystemRow};
use backward_sort_repro::core::Algorithm;
use backward_sort_repro::workload::{DatasetKind, DelayModel};

fn config(delay: DelayModel, write_pct: f64, sorter: Algorithm) -> BenchConfig {
    BenchConfig {
        devices: 1,
        sensors_per_device: 3,
        batch_size: 200,
        write_percentage: write_pct,
        operations: 50,
        delay,
        query_window: 500,
        memtable_max_points: 2_000,
        sorter,
        seed: 17,
    }
}

fn backward() -> Algorithm {
    Algorithm::Backward(Default::default())
}

#[test]
fn write_percentage_grid_completes_for_all_families() {
    assert_eq!(
        BenchConfig::WRITE_PERCENTAGES,
        [0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0],
        "the paper's write-percentage grid"
    );
    let delays = [
        DelayModel::AbsNormal {
            mu: 1.0,
            sigma: 1.0,
        },
        DelayModel::LogNormal {
            mu: 1.0,
            sigma: 1.0,
        },
        DatasetKind::SamsungS10.delay_model(),
    ];
    for delay in delays {
        for &pct in &BenchConfig::WRITE_PERCENTAGES {
            let report = run_benchmark(&config(delay, pct, backward()));
            assert_eq!(report.write_percentage, pct);
            assert!(report.total_latency_ms > 0.0);
            if pct >= 1.0 {
                assert_eq!(report.queries, 0);
                assert_eq!(report.writes, 50, "every operation is a write");
                assert!(report.query_throughput_pps.is_none());
            }
            assert_eq!(
                report.points_written,
                report.writes * 200,
                "batches are full-size until streams drain"
            );
        }
    }
}

#[test]
fn flush_metrics_attribute_sort_time() {
    let report = run_benchmark(&config(
        DelayModel::AbsNormal {
            mu: 1.0,
            sigma: 4.0,
        },
        1.0,
        backward(),
    ));
    assert!(report.flushes > 0);
    let flush = report.avg_flush_ms.expect("flushes happened");
    let sort = report.avg_flush_sort_ms.expect("sort time recorded");
    assert!(
        sort > 0.0 && sort <= flush,
        "sort {sort} within flush {flush}"
    );
}

/// Every contender sees the same seeded workload, so every count but the
/// timings is identical across them — and a 90 % write mix exercises
/// every metric the figures plot.
#[test]
fn contenders_report_comparable_workloads() {
    let mut first = None;
    for alg in Algorithm::contenders() {
        let report = run_benchmark(&config(
            DelayModel::LogNormal {
                mu: 1.0,
                sigma: 2.0,
            },
            0.9,
            alg,
        ));
        assert!(
            report.queries > 0 && report.points_queried > 0,
            "{}",
            report.sorter
        );
        assert!(report.query_throughput_pps.is_some(), "{}", report.sorter);
        assert!(
            report.flushes > 0,
            "{}: 2k-point memtable must rotate",
            report.sorter
        );
        assert!(
            report.avg_flush_ms.is_some_and(|ms| ms > 0.0),
            "{}",
            report.sorter
        );
        let shape = (
            report.writes,
            report.queries,
            report.points_written,
            report.points_queried,
            report.flushes,
        );
        match &first {
            None => first = Some(shape),
            Some(want) => assert_eq!(
                &shape, want,
                "{}: workload must be identical",
                report.sorter
            ),
        }
    }
}

#[test]
fn row_serializes_flat_to_json() {
    let row = SystemRow {
        panel: "AbsNormal(1,1)".into(),
        report: run_benchmark(&config(
            DelayModel::AbsNormal {
                mu: 1.0,
                sigma: 1.0,
            },
            0.9,
            backward(),
        )),
    };
    let json = serde_json::to_string(&row).unwrap();
    for key in ["\"panel\"", "\"sorter\"", "\"query_throughput_pps\""] {
        assert!(json.contains(key), "{key} missing from {json}");
    }
}
