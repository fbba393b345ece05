//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no network access, so the workspace vendors
//! the API surface its benches use: `Criterion`, benchmark groups with
//! `sample_size`/`bench_function`/`bench_with_input`, `BenchmarkId`,
//! `Bencher::iter`, `black_box`, and the `criterion_group!`/
//! `criterion_main!` macros. Measurement is a simple warmup + repeated
//! wall-clock sampling printed as mean/min per benchmark — no statistics
//! engine, no HTML reports, but the numbers are honest monotonic-clock
//! timings suitable for before/after comparisons on one machine.
//!
//! As with real criterion, the bench binary reads its arguments: a
//! positional argument keeps only the benchmarks whose full name contains
//! it, and `--test` runs each kept benchmark once, untimed, to show it
//! does not panic. Other flags, such as the `--bench` cargo passes, are
//! ignored.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Hints the optimizer that `x` is observed (re-export of the std hint).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// A benchmark identifier: function name plus a parameter label.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Builds `function/parameter`.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{function}/{parameter}"),
        }
    }

    /// Builds a parameter-only id.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            label: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { label: s }
    }
}

/// Passed to the benchmark closure; collects timed iterations.
#[derive(Debug)]
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
    test_mode: bool,
}

impl Bencher {
    /// Runs `f` repeatedly, timing each call (once, untimed, under
    /// `--test`).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.test_mode {
            black_box(f());
            return;
        }
        // one warmup call, then up to `sample_size` timed samples bounded
        // by a total measurement budget so huge circuits stay tractable
        black_box(f());
        let budget = Duration::from_secs(3);
        let t_all = Instant::now();
        for _ in 0..self.sample_size.max(1) {
            let t0 = Instant::now();
            black_box(f());
            self.samples.push(t0.elapsed());
            if t_all.elapsed() > budget {
                break;
            }
        }
    }
}

/// The top-level harness.
#[derive(Debug, Default)]
pub struct Criterion {
    filter: Option<String>,
    test_mode: bool,
}

impl Criterion {
    /// Reads the bench binary's arguments: the first positional one is a
    /// substring filter on full benchmark names, and `--test` runs each
    /// benchmark once, untimed; other flags are ignored.
    pub fn configure_from_args(self) -> Self {
        self.configure_from(std::env::args().skip(1))
    }

    fn configure_from(mut self, args: impl IntoIterator<Item = String>) -> Self {
        for arg in args {
            if arg == "--test" {
                self.test_mode = true;
            } else if !arg.starts_with('-') && self.filter.is_none() {
                self.filter = Some(arg);
            }
        }
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            criterion: self,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        self.run_one(None, &id.into(), 10, f);
        self
    }

    fn run_one<F: FnMut(&mut Bencher)>(
        &self,
        group: Option<&str>,
        id: &BenchmarkId,
        sample_size: usize,
        mut f: F,
    ) {
        let full = match group {
            Some(g) => format!("{g}/{}", id.label),
            None => id.label.clone(),
        };
        if self.filter.as_ref().is_some_and(|s| !full.contains(s)) {
            return;
        }
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size,
            test_mode: self.test_mode,
        };
        if self.test_mode {
            println!("Testing {full}");
            f(&mut b);
            println!("Success");
            return;
        }
        f(&mut b);
        if b.samples.is_empty() {
            println!("{full:<48} (no samples)");
            return;
        }
        let total: Duration = b.samples.iter().sum();
        let mean = total / b.samples.len() as u32;
        let min = b.samples.iter().min().expect("nonempty");
        println!(
            "{full:<48} mean {mean:>10.2?}  min {min:>10.2?}  ({} samples)",
            b.samples.len()
        );
    }
}

/// A group of related benchmarks sharing a sample size.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        self.criterion
            .run_one(Some(&self.name), &id.into(), self.sample_size, f);
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.criterion
            .run_one(Some(&self.name), &id.into(), self.sample_size, |b| {
                f(b, input)
            });
        self
    }

    /// Finishes the group (formatting separator only).
    pub fn finish(self) {
        println!();
    }
}

/// Collects benchmark functions into one group function, which runs
/// them all on the harness it is given.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(criterion: &mut $crate::Criterion) {
            $($target(criterion);)+
        }
    };
}

/// Emits `main`, which configures one harness from the bench binary's
/// arguments and runs the given groups on it.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($group(&mut criterion);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static CALLS: AtomicUsize = AtomicUsize::new(0);

    fn trivial(c: &mut Criterion) {
        let mut group = c.benchmark_group("g");
        group.sample_size(3);
        group.bench_function("id", |b| b.iter(|| CALLS.fetch_add(1, Ordering::Relaxed)));
        group.bench_with_input(BenchmarkId::new("param", 7), &7u64, |b, &x| {
            b.iter(|| black_box(x * 2))
        });
        group.finish();
    }

    criterion_group!(benches, trivial);

    #[test]
    fn harness_runs() {
        // a harness of its own: the test binary's arguments are no filter
        benches(&mut Criterion::default());
        assert!(CALLS.load(Ordering::Relaxed) >= 2, "a warmup and a sample");
    }

    #[test]
    fn filter_and_test_mode_come_from_the_arguments() {
        let args = ["--bench", "sop_", "--test", "other"].map(String::from);
        let c = Criterion::default().configure_from(args);
        assert_eq!(c.filter.as_deref(), Some("sop_"));
        assert!(c.test_mode);
        let mut runs = 0;
        for id in ["sop_share_x", "bdd_apply"] {
            c.run_one(None, &id.into(), 10, |b| b.iter(|| runs += 1));
        }
        assert_eq!(runs, 1, "one untimed call, for the matching name only");
    }
}
