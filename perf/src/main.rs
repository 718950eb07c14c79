//! `perf` — the benchmark of record. See README.md.
//!
//! ```text
//! perf [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1] [--save FILE]
//! perf compare <a> <b>
//! ```

mod ladder;
mod metrics;
mod oracle;
mod report;
mod run;
mod script;
mod stats;

use std::io::Write as _;
use std::process::ExitCode;

use metrics::Metric;
use report::{Reported, RunReport};
use run::BenchConfig;
use script::Workload;

/// Fewest rounds a run makes, so quartiles over rounds exist.
const MIN_ROUNDS: u64 = 3;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    save: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perf [--workload {}|all] [--seed N] [--seconds S] [--trace 0|1] [--save FILE]\n       perf compare <a> <b>",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        save: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} takes a whole number, got {value}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => parsed.workload = None,
            "--workload" => {
                parsed.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}\n{}", usage()))?,
                );
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => parsed.trace = number()? != 0,
            "--save" => parsed.save = Some(value.clone()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(parsed)
}

/// Runs one workload in this process and prints its report; the last
/// line of standard output is the contract's result object.
fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let cfg = BenchConfig::reference();
    let rounds = args.seconds.max(MIN_ROUNDS) as usize;
    println!(
        "perf workload={} seed={} seconds={} rounds={rounds} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "load: closed loop, {} connections on {} cores, one process, loopback TCP",
        cfg.connections,
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    println!("engine: {:?}", cfg.engine);
    println!("server: {:?}", cfg.server);

    let (outcome, table): (run::Outcome, Vec<Metric>) = if args.trace {
        let outcome = ladder::traced(&cfg, workload, args.seed, rounds);
        (outcome, metrics::PER_LAYER.to_vec())
    } else {
        let outcome = run::end_to_end(&cfg, workload, args.seed, rounds);
        (
            outcome,
            metrics::END_TO_END.iter().map(|m| m.metric).collect(),
        )
    };
    let report = RunReport {
        workload: workload.name().to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        attempted: outcome.attempted,
        failed: outcome.failed,
        correct: outcome.wrong == 0,
        metrics: table
            .into_iter()
            .map(|metric| Reported {
                metric,
                summary: stats::summarize(
                    outcome.samples.get(metric.name).map_or(&[], Vec::as_slice),
                ),
            })
            .collect(),
    };
    print!("{}", report.human());
    for note in &outcome.notes {
        println!("{note}");
    }
    if let Some(path) = &args.save {
        let saved = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", report.saved_line()));
        if let Err(e) = saved {
            eprintln!("perf: cannot save to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perf: {} wrong answers or server errors", outcome.wrong);
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a child process of its own so that peak
/// memory and CPU time are that workload's alone.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut all_ok = true;
    for workload in Workload::ALL {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(path) = &args.save {
            child.args(["--save", path]);
        }
        let status = child.status().expect("start a child perf process");
        all_ok &= status.success();
        println!();
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| report::fold_results(&text))
            .map_err(|e| format!("{path}: {e}"))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (table, ok) = report::compare(&a, &b);
            print!("{table}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare(a, b),
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    match parse_args(&args) {
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
        Ok(args) => match args.workload {
            Some(workload) => run_one(workload, &args),
            None => run_all(&args),
        },
    }
}
