//! Fig. 8: parameter tuning — IIR vs interval (panel a) and sort time vs
//! fixed block size (panel b) on the four real-world datasets.
//!
//! Usage: `fig08_tuning [--panel iir|blocksize|both|flat] [--n N] [--reps R]
//!         [--seed S] [--json] [--full]`
//! The paper uses 1M points and block sizes 2²…2¹⁷; the default is 200k
//! (`--full` restores 1M). `--panel flat` (not part of `both`) is panel
//! (b) on flat memory: ns a point at fixed `L = 2⁶…2¹⁵` and `L = N`, and
//! the block-size rule's own `L` and time, for the real datasets and
//! `ingest-ooo`'s delays at `--n` points and `bench_flush`'s three
//! memtables.

use backsort_experiments::cli::Args;
use backsort_experiments::experiments::fig08;
use backsort_experiments::table;

fn main() {
    let args = Args::from_env();
    let n = args.get_or("n", if args.full() { 1_000_000 } else { 200_000 });
    let reps = args.get_or("reps", 3usize);
    let seed = args.get_or("seed", 42u64);
    let panel = args.get("panel").unwrap_or("both").to_string();
    if !matches!(panel.as_str(), "iir" | "blocksize" | "both" | "flat") {
        eprintln!("error: unknown --panel {panel:?} (iir|blocksize|both|flat)");
        std::process::exit(1);
    }

    if panel == "iir" || panel == "both" {
        let max_exp = if args.full() { 18 } else { 16 };
        let rows = fig08::iir_rows(n, max_exp, seed);
        if args.json() {
            table::print_json(&rows);
        } else {
            table::heading("Fig. 8(a) — interval inversion ratio vs interval");
            let printable: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.dataset.clone(),
                        r.interval.to_string(),
                        table::fmt_ratio(r.iir),
                    ]
                })
                .collect();
            table::print_table(&["dataset", "L", "alpha_L"], &printable);
        }
    }

    if panel == "blocksize" || panel == "both" {
        let (min_exp, max_exp) = if args.full() { (2, 17) } else { (2, 15) };
        let rows = fig08::block_size_rows(n, min_exp, max_exp, reps, seed);
        if args.json() {
            table::print_json(&rows);
        } else {
            table::heading("Fig. 8(b) — Backward-Sort time vs fixed block size");
            let printable: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.dataset.clone(),
                        r.block_size.to_string(),
                        table::fmt_nanos(r.nanos),
                    ]
                })
                .collect();
            table::print_table(&["dataset", "L", "sort time"], &printable);
        }
    }

    if panel == "flat" {
        let (min_exp, max_exp) = if args.full() { (4, 17) } else { (6, 15) };
        let rows = fig08::flat_rows(n, min_exp, max_exp, reps, seed);
        if args.json() {
            table::print_json(&rows);
        } else {
            table::heading("Fig. 8(b) on flat memory — Backward-Sort ns a point vs block size");
            let printable: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    let l = match r.block_size {
                        usize::MAX => "N".to_string(),
                        l => l.to_string(),
                    };
                    vec![
                        r.input.clone(),
                        if r.rule { format!("rule ({l})") } else { l },
                        format!("{:.1}", r.ns_per_point),
                    ]
                })
                .collect();
            table::print_table(&["input", "L", "ns/point"], &printable);
        }
    }
}
