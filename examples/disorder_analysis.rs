//! Disorder analysis: measure how out-of-order a stream is (inversions,
//! runs, the interval inversion ratio profile) and see how Backward-Sort
//! turns that profile into a block size — the paper's §II/§IV machinery
//! as a library.
//!
//! Run with: `cargo run --release --example disorder_analysis`

use backward_sort_repro::core::choose_block_size;
use backward_sort_repro::core::iir::{exact_iir, sampled_iir};
use backward_sort_repro::tvlist::SliceSeries;
use backward_sort_repro::workload::analysis::expected_iir_exponential;
use backward_sort_repro::workload::metrics::{inversions, runs};
use backward_sort_repro::workload::{Dataset, DatasetKind};

fn main() {
    let n = 200_000;
    println!("dataset profiles over {n} points\n");
    println!(
        "{:<18} {:>12} {:>8} {:>10} {:>10} {:>10} {:>8}",
        "dataset", "inversions", "runs", "alpha_1", "alpha_64", "alpha_4096", "chosen L"
    );
    for kind in DatasetKind::ALL {
        let ds = Dataset::generate(kind, n, 42);
        let times = ds.times();
        let inv = inversions(&times);
        let r = runs(&times);
        let mut pairs = ds.pairs.clone();
        let series = SliceSeries::new(&mut pairs);
        let a1 = exact_iir(&series, 1);
        let a64 = exact_iir(&series, 64);
        let a4096 = exact_iir(&series, 4096);
        let (l, _) = choose_block_size(&series, 0.04, 4);
        println!(
            "{:<18} {:>12} {:>8} {:>10.2e} {:>10.2e} {:>10.2e} {:>8}",
            kind.name(),
            inv,
            r,
            a1,
            a64,
            a4096,
            l
        );
    }

    // Down-sampling accuracy: the estimator Backward-Sort actually uses.
    println!("\ndown-sampled vs exact IIR (citibike-201808):");
    let mut ds = Dataset::generate(DatasetKind::Citibike201808, n, 42);
    let series = SliceSeries::new(&mut ds.pairs);
    println!("{:>8} {:>12} {:>12}", "L", "exact", "sampled");
    for e in [0u32, 2, 4, 6, 8, 10, 12] {
        let l = 1usize << e;
        println!(
            "{:>8} {:>12.4e} {:>12.4e}",
            l,
            exact_iir(&series, l),
            sampled_iir(&series, l)
        );
    }

    // Theory check: for exponential delays the IIR has a closed form.
    println!("\nProposition 2 sanity (τ ~ Exp(2)): E[alpha_L] = 1/(2e^(2L))");
    for l in [1usize, 2, 3] {
        println!("  L={l}: {:.6}", expected_iir_exponential(2.0, l as f64));
    }
}
