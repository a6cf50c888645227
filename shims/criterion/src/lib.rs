//! Offline, dependency-free subset of the `criterion` benchmarking
//! API.
//!
//! Provides the types and macros the six `cargo-bench` benches use —
//! [`Criterion`], `benchmark_group`, `bench_function`,
//! `bench_with_input`, [`BenchmarkId`], [`Throughput`], [`black_box`],
//! [`criterion_group!`], [`criterion_main!`] — with a deliberately
//! simple measurement loop: warm-up, then a fixed time budget, then
//! report the median and min/mean per-iteration time on stdout.
//!
//! No statistical regression analysis, plots, or saved baselines; if
//! the project ever gets registry access, deleting this shim and
//! depending on real criterion is a drop-in swap.

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Measurement settings shared by a [`Criterion`] and its groups.
#[derive(Clone, Copy, Debug)]
struct Settings {
    /// Target number of measured samples.
    sample_size: usize,
    /// Wall-clock budget per benchmark (warm-up excluded).
    measurement_time: Duration,
}

impl Default for Settings {
    fn default() -> Self {
        Self {
            sample_size: 60,
            // Much shorter than real criterion's 5s: these benches run
            // in CI where trend tracking, not precision, is the goal.
            measurement_time: Duration::from_millis(400),
        }
    }
}

#[derive(Default)]
pub struct Criterion {
    settings: Settings,
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== group: {name}");
        BenchmarkGroup {
            _criterion: self,
            name,
            settings: Settings::default(),
        }
    }

    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&id.into(), self.settings, f);
        self
    }

    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.settings.sample_size = n;
        self
    }

    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.settings.measurement_time = d;
        self
    }
}

/// Throughput annotation; printed alongside timings.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
    BytesDecimal(u64),
}

/// A `name/parameter` benchmark identifier.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    name: String,
    parameter: String,
}

impl BenchmarkId {
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        Self {
            name: name.into(),
            parameter: parameter.to_string(),
        }
    }

    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            name: String::new(),
            parameter: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.name.is_empty(), self.parameter.is_empty()) {
            (true, _) => write!(f, "{}", self.parameter),
            (false, true) => write!(f, "{}", self.name),
            (false, false) => write!(f, "{}/{}", self.name, self.parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self {
            name: s.to_string(),
            parameter: String::new(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self {
            name: s,
            parameter: String::new(),
        }
    }
}

pub struct BenchmarkGroup<'c> {
    _criterion: &'c mut Criterion,
    name: String,
    settings: Settings,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.settings.sample_size = n;
        self
    }

    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.settings.measurement_time = d;
        self
    }

    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        match t {
            Throughput::Elements(n) => println!("   throughput: {n} elem/iter"),
            Throughput::Bytes(n) | Throughput::BytesDecimal(n) => {
                println!("   throughput: {n} B/iter")
            }
        }
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_one(&format!("{}/{}", self.name, id), self.settings, f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        run_one(&format!("{}/{}", self.name, id), self.settings, |b| {
            f(b, input)
        });
        self
    }

    pub fn finish(self) {}
}

/// Per-benchmark timing driver handed to the closure.
pub struct Bencher {
    settings: Settings,
    /// Per-iteration times in nanoseconds (f64 so sub-nanosecond
    /// means don't truncate to zero).
    samples: Vec<f64>,
}

impl Bencher {
    /// Times `routine` repeatedly until the sample or time budget is
    /// hit. The routine's output is passed through [`black_box`] so
    /// the optimiser cannot delete the work.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up + calibration: how many iterations fit in ~1ms?
        let t0 = Instant::now();
        black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let per_sample =
            ((Duration::from_millis(1).as_nanos() / once.as_nanos()).clamp(1, 100_000)) as u32;

        let budget = Instant::now();
        while self.samples.len() < self.settings.sample_size
            && budget.elapsed() < self.settings.measurement_time
        {
            let start = Instant::now();
            for _ in 0..per_sample {
                black_box(routine());
            }
            self.samples
                .push(start.elapsed().as_nanos() as f64 / per_sample as f64);
        }
    }

    /// `iter_batched` with per-iteration setup; `_size` policy ignored.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        let budget = Instant::now();
        while self.samples.len() < self.settings.sample_size
            && budget.elapsed() < self.settings.measurement_time
        {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.samples.push(start.elapsed().as_nanos() as f64);
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Shim-only extension (not part of real criterion's API): runs
/// `routine` through the same calibrated warm-up/measurement loop as
/// [`Criterion::bench_function`] and returns the **median
/// per-iteration nanoseconds** and the interquartile range (`Q3 − Q1`)
/// of the samples, so a harness can print them instead of scraping
/// stdout. At least one sample is always recorded; with fewer than four
/// the IQR degrades gracefully towards the full min–max spread.
pub fn measure_median_iqr_ns<O, F: FnMut() -> O>(
    sample_size: usize,
    measurement_time: Duration,
    routine: F,
) -> (f64, f64) {
    let mut b = Bencher {
        settings: Settings {
            sample_size: sample_size.max(1),
            // A non-zero budget guarantees at least one sample.
            measurement_time: measurement_time.max(Duration::from_millis(1)),
        },
        samples: Vec::new(),
    };
    b.iter(routine);
    b.samples.sort_unstable_by(|a, b| a.total_cmp(b));
    let len = b.samples.len();
    let median = b.samples[len / 2];
    let iqr = b.samples[(3 * len) / 4] - b.samples[len / 4];
    (median, iqr)
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, settings: Settings, mut f: F) {
    let mut b = Bencher {
        settings,
        samples: Vec::new(),
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("   {label}: no samples recorded");
        return;
    }
    b.samples.sort_unstable_by(|a, b| a.total_cmp(b));
    let min = b.samples[0];
    let median = b.samples[b.samples.len() / 2];
    let mean = b.samples.iter().sum::<f64>() / b.samples.len() as f64;
    println!(
        "   {label}: median {}  min {}  mean {}  ({} samples)",
        fmt_nanos(median),
        fmt_nanos(min),
        fmt_nanos(mean),
        b.samples.len()
    );
}

/// Human-scale duration formatting with sub-nanosecond resolution.
fn fmt_nanos(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.2}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2}µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

/// Declares a group runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $cfg;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `fn main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_samples() {
        let mut c = Criterion::default();
        c.sample_size(5)
            .measurement_time(Duration::from_millis(20));
        c.bench_function("noop", |b| b.iter(|| black_box(1u64 + 1)));
    }

    #[test]
    fn measure_median_iqr_ns_reports_a_sane_spread() {
        let (median, iqr) = measure_median_iqr_ns(9, Duration::from_millis(20), || {
            black_box((0..100u64).sum::<u64>())
        });
        assert!(median > 0.0 && median.is_finite());
        assert!(iqr >= 0.0 && iqr.is_finite(), "Q3 ≥ Q1 on sorted samples");
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(5)
            .measurement_time(Duration::from_millis(10))
            .throughput(Throughput::Elements(1));
        g.bench_function("f", |b| b.iter(|| black_box(2u64 * 3)));
        g.bench_with_input(BenchmarkId::new("with_input", 7), &7u64, |b, &x| {
            b.iter(|| black_box(x * x))
        });
        g.finish();
    }
}
