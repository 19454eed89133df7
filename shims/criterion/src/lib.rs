//! Offline shim for the subset of `criterion` used by this workspace.
//!
//! The benches compile against the usual API — [`Criterion`],
//! `benchmark_group`, `bench_function`, `bench_with_input`,
//! [`BenchmarkId`], [`criterion_group!`], [`criterion_main!`],
//! [`black_box`] — and running them prints a simple mean-time-per-iteration
//! report instead of criterion's statistical analysis. Good enough to keep
//! the experiment benches runnable without network access.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

/// Opaque identity function that inhibits constant-folding of its argument.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// A benchmark identifier: a function name plus an optional parameter.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Creates an id like `"{name}/{parameter}"`.
    pub fn new<P: fmt::Display>(name: impl Into<String>, parameter: P) -> Self {
        BenchmarkId {
            name: format!("{}/{parameter}", name.into()),
        }
    }

    /// Creates an id from a parameter alone.
    pub fn from_parameter<P: fmt::Display>(parameter: P) -> Self {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

/// Anything that can name a benchmark (criterion's `IntoBenchmarkId`).
pub trait IntoBenchmarkName {
    /// The display name used in the report.
    fn into_name(self) -> String;
}

impl IntoBenchmarkName for BenchmarkId {
    fn into_name(self) -> String {
        self.name
    }
}

impl IntoBenchmarkName for &str {
    fn into_name(self) -> String {
        self.to_owned()
    }
}

impl IntoBenchmarkName for String {
    fn into_name(self) -> String {
        self
    }
}

/// Times closures handed to it by a benchmark body.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `routine` repeatedly and records the mean wall-clock time.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Hands `routine` the iteration count and records the time it
    /// returns — for a body that must leave part of each iteration (an
    /// idle gap, a hand-off to another thread) off the clock.
    pub fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        self.elapsed = routine(self.iters);
    }
}

/// The benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// No-op (the shim has no CLI); kept for API compatibility.
    #[must_use]
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            _criterion: self,
        }
    }

    /// Runs a single free-standing benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl IntoBenchmarkName, f: F) {
        run_one(&id.into_name(), self.sample_size, f);
    }
}

/// A group of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl<'a> BenchmarkGroup<'a> {
    /// Sets how many timing samples to collect per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs a benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkName,
        f: F,
    ) -> &mut Self {
        run_one(
            &format!("{}/{}", self.name, id.into_name()),
            self.sample_size,
            f,
        );
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl IntoBenchmarkName,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (report flushing is immediate in the shim).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(name: &str, samples: usize, mut f: F) {
    let mut total = Duration::ZERO;
    let mut iters = 0u64;
    for _ in 0..samples {
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        total += b.elapsed;
        iters += b.iters;
    }
    let mean_ns = if iters == 0 {
        0.0
    } else {
        total.as_nanos() as f64 / iters as f64
    };
    println!("bench {name:<48} {mean_ns:>14.1} ns/iter ({iters} iters)");
}

/// Declares a function that runs a list of benchmark targets.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench `main` that invokes each group.
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

    #[test]
    fn bench_function_runs_body() {
        let mut c = Criterion::default();
        let mut ran = 0u32;
        c.bench_function("smoke", |b| b.iter(|| ran += 1));
        assert!(ran >= 10);
    }

    #[test]
    fn iter_custom_reports_the_time_the_body_returns() {
        let mut b = Bencher {
            iters: 3,
            elapsed: Duration::ZERO,
        };
        b.iter_custom(|iters| Duration::from_nanos(7 * iters));
        assert_eq!(b.elapsed, Duration::from_nanos(21));
    }

    #[test]
    fn group_runs_with_input() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(3);
        let mut seen = 0;
        group.bench_with_input(BenchmarkId::new("n", 4), &4, |b, &n| {
            b.iter(|| seen = n);
        });
        group.finish();
        assert_eq!(seen, 4);
    }
}
