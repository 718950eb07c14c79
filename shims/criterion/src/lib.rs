//! Minimal offline stand-in for `criterion` 0.5.
//!
//! Mirrors the real crate's execution model: `cargo bench` passes
//! `--bench` to the binary and benchmarks are timed over
//! `sample_size` iterations (mean/min/max to stdout, no statistics
//! beyond that); under `cargo test` (no `--bench` argument) every
//! routine runs exactly once as a smoke test. The first argument that is
//! not a flag filters, as the real crate's does: `cargo bench --bench b
//! -- 'f/100k'` runs only the benchmarks whose `group/function/parameter`
//! id contains `f/100k` (a substring, where the real crate takes a
//! regex).

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Prevents the optimizer from deleting a benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Top-level benchmark context.
pub struct Criterion {
    test_mode: bool,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self {
            test_mode: !args.iter().any(|a| a == "--bench"),
            filter: args.into_iter().find(|a| !a.starts_with('-')),
        }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 100,
            throughput: None,
            test_mode: self.test_mode,
            criterion: self,
        }
    }
}

/// Units for derived throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Identifies one benchmark within a group: `function/parameter`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id shown as `function_name/parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

/// A group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    test_mode: bool,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each benchmark takes.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Sets the per-iteration throughput used in reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Whether the filter, if any, selects the benchmark `id`.
    fn selected(&self, id: &str) -> bool {
        let filter = self.criterion.filter.as_deref();
        filter.is_none_or(|f| format!("{}/{id}", self.name).contains(f))
    }

    /// Runs one benchmark over `input`, if the filter selects it.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        if !self.selected(&id.id) {
            return self;
        }
        let mut bencher = Bencher {
            samples: if self.test_mode { 1 } else { self.sample_size },
            durations: Vec::new(),
        };
        f(&mut bencher, input);
        self.report(&id.id, &bencher.durations);
        self
    }

    /// Runs one benchmark with no extra input, if the filter selects it.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        if !self.selected(&id) {
            return self;
        }
        let mut bencher = Bencher {
            samples: if self.test_mode { 1 } else { self.sample_size },
            durations: Vec::new(),
        };
        f(&mut bencher);
        self.report(&id, &bencher.durations);
        self
    }

    fn report(&self, id: &str, durations: &[Duration]) {
        if self.test_mode {
            println!("test {}/{} ... ok (smoke run)", self.name, id);
            return;
        }
        if durations.is_empty() {
            return;
        }
        let mean = durations.iter().sum::<Duration>() / durations.len() as u32;
        let min = durations.iter().min().expect("non-empty");
        let max = durations.iter().max().expect("non-empty");
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) if mean > Duration::ZERO => {
                format!("  {:.0} elem/s", n as f64 / mean.as_secs_f64())
            }
            Some(Throughput::Bytes(n)) if mean > Duration::ZERO => {
                format!("  {:.0} B/s", n as f64 / mean.as_secs_f64())
            }
            _ => String::new(),
        };
        println!(
            "{}/{}: mean {:?} (min {:?}, max {:?}, {} samples){rate}",
            self.name,
            id,
            mean,
            min,
            max,
            durations.len(),
        );
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Times benchmark routines.
pub struct Bencher {
    samples: usize,
    durations: Vec<Duration>,
}

/// How batched setup output is grouped between timings (the shim times
/// each iteration individually, so variants only document intent).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration state.
    SmallInput,
    /// Large per-iteration state.
    LargeInput,
    /// Re-run setup for every single iteration.
    PerIteration,
}

impl Bencher {
    /// Times `routine` with no per-iteration setup.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(routine());
            self.durations.push(start.elapsed());
        }
    }

    /// Times `routine` on fresh state from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.durations.push(start.elapsed());
        }
    }
}

/// Bundles benchmark functions under one name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generates `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_group(c: &mut Criterion) -> (u64, u64) {
        let mut iter_calls = 0u64;
        let mut setup_calls = 0u64;
        {
            let mut group = c.benchmark_group("g");
            group.sample_size(5);
            group.throughput(Throughput::Elements(10));
            group.bench_with_input(BenchmarkId::new("f", 1), &3u64, |b, &x| {
                b.iter_batched(
                    || {
                        setup_calls += 1;
                        x
                    },
                    |v| {
                        iter_calls += 1;
                        v * 2
                    },
                    BatchSize::LargeInput,
                )
            });
            group.finish();
        }
        (setup_calls, iter_calls)
    }

    #[test]
    fn test_mode_runs_once_per_bench() {
        // Under `cargo test` there is no `--bench` argument.
        let mut c = Criterion::default();
        assert!(c.test_mode);
        let (setups, iters) = run_group(&mut c);
        assert_eq!((setups, iters), (1, 1));
    }

    #[test]
    fn bench_mode_runs_sample_size_iterations() {
        let mut c = Criterion {
            test_mode: false,
            filter: None,
        };
        let (setups, iters) = run_group(&mut c);
        assert_eq!((setups, iters), (5, 5));
    }

    #[test]
    fn a_filter_runs_only_the_ids_that_contain_it() {
        for (filter, runs) in [("g/f/1", 1), ("f/1", 1), ("f/2", 0), ("h/", 0)] {
            let mut c = Criterion {
                test_mode: true,
                filter: Some(filter.to_string()),
            };
            assert_eq!(run_group(&mut c), (runs, runs), "{filter}");
        }
    }
}
