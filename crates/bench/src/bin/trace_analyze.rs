//! Analyze any `timestamp,value` CSV trace: disorder profile,
//! delay-only evidence, recommended block size, and a sort-time
//! comparison across all algorithms.
//!
//! Usage: `trace_analyze --file trace.csv [--reps R] [--json]`
//! With no `--file`, analyzes a built-in demo trace.

use backsort_core::iir::exact_iir;
use backsort_core::{choose_block_size, Algorithm};
use backsort_experiments::cli::Args;
use backsort_experiments::table;
use backsort_experiments::timing::time_sort_tvlist;
use backsort_tvlist::SliceSeries;
use backsort_workload::metrics::{displacement_stats, inversions, runs};
use backsort_workload::{generate_pairs, read_csv, DelayModel, StreamSpec};

fn main() {
    let args = Args::from_env();
    let reps = args.get_or("reps", 3usize);

    let pairs: Vec<(i64, f64)> = match args.get("file") {
        Some(path) => {
            let file = std::fs::File::open(path).unwrap_or_else(|e| {
                eprintln!("error: cannot open {path}: {e}");
                std::process::exit(1);
            });
            read_csv(std::io::BufReader::new(file)).unwrap_or_else(|e| {
                eprintln!("error: cannot parse {path}: {e}");
                std::process::exit(1);
            })
        }
        None => {
            eprintln!("(no --file given; analyzing a built-in AbsNormal(1,2) demo trace)");
            generate_pairs(&StreamSpec::new(
                100_000,
                DelayModel::AbsNormal {
                    mu: 1.0,
                    sigma: 2.0,
                },
                42,
            ))
        }
    };
    if pairs.len() < 2 {
        eprintln!("error: trace too short ({} point(s))", pairs.len());
        std::process::exit(1);
    }
    let times: Vec<i64> = pairs.iter().map(|p| p.0).collect();
    let int_pairs: Vec<(i64, i32)> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(t, _))| (t, i as i32))
        .collect();

    // Disorder profile.
    let inv = inversions(&times);
    let r = runs(&times);
    let disp = displacement_stats(&times);
    let mut probe = int_pairs.clone();
    let series = SliceSeries::new(&mut probe);
    let (l, loops) = choose_block_size(&series, 0.04, 4);

    table::heading("disorder profile");
    println!("points             : {}", times.len());
    println!("inversions         : {inv}");
    println!("runs               : {r}");
    println!(
        "in place / delayed / ahead : {:.1}% / {:.1}% / {:.1}%",
        disp.in_place * 100.0,
        disp.delayed * 100.0,
        disp.ahead * 100.0
    );
    println!(
        "max displacement   : {} back, {} forward",
        disp.max_backward, disp.max_forward
    );
    println!("chosen block size  : {l} (after {loops} probe rounds, Θ=0.04, L0=4)");

    table::heading("interval inversion ratio");
    let rows: Vec<Vec<String>> = (0..=16u32)
        .map(|e| {
            let interval = 1usize << e;
            vec![
                interval.to_string(),
                table::fmt_ratio(exact_iir(&series, interval)),
            ]
        })
        .collect();
    table::print_table(&["L", "alpha_L"], &rows);

    table::heading("sort time (median of reps)");
    let mut rows = Vec::new();
    for alg in Algorithm::contenders() {
        use backsort_sorts::SeriesSorter;
        rows.push(vec![
            alg.name().to_string(),
            table::fmt_nanos(time_sort_tvlist(&alg, &int_pairs, reps)),
        ]);
    }
    table::print_table(&["algorithm", "time"], &rows);
}
