//! Offline micro-benchmark harness exposing the subset of the `criterion`
//! API this workspace's benches use (`benchmark_group`, `bench_function`,
//! `bench_with_input`, `BenchmarkId`, `criterion_group!`/`criterion_main!`,
//! `black_box`).
//!
//! Timing model: after a warm-up pass, each benchmark runs `sample_size`
//! samples (default 10) of an adaptively chosen iteration batch targeting
//! a few milliseconds per sample, then reports min / mean / max per-iter
//! wall time on stdout. No plots, no statistics beyond that — enough to
//! compare kernels offline (e.g. cold closure recomputation vs prepared
//! reuse) without crates.io access.
//!
//! Environment knobs: `PHOM_BENCH_FILTER` (substring filter over
//! `group/id`), `PHOM_BENCH_SAMPLES` (override sample counts; the CI smoke
//! run sets it to 1), and `PHOM_BENCH_JSON` (a file path: each benchmark
//! also appends one JSON line there,
//! `{"bench":"group/id","min_ns":…,"mean_ns":…,"max_ns":…,"samples":…}`,
//! so results can be stored and compared as data).

#![forbid(unsafe_code)]

use std::hint;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer identity (re-export of `std::hint::black_box`).
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// A benchmark identifier: `function_id/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Id with a function name and a parameter display value.
    pub fn new(function_id: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_id.into(), parameter),
        }
    }

    /// Id from a parameter display value alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Per-iteration timer handed to benchmark closures.
pub struct Bencher {
    /// Measured samples, one mean-per-iter duration each.
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `routine`, running warm-up plus `sample_size` samples.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up and batch sizing: aim for ~2ms per sample, ≥1 iter.
        let warm = Instant::now();
        black_box(routine());
        let once = warm.elapsed();
        let per_sample = Duration::from_millis(2);
        let iters = if once.is_zero() {
            64
        } else {
            (per_sample.as_nanos() / once.as_nanos().max(1)).clamp(1, 10_000) as u32
        };
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            self.samples.push(start.elapsed() / iters);
        }
    }
}

fn env_samples(default: usize) -> usize {
    std::env::var("PHOM_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn filtered_out(full_id: &str) -> bool {
    match std::env::var("PHOM_BENCH_FILTER") {
        Ok(f) if !f.is_empty() => !full_id.contains(&f),
        _ => false,
    }
}

fn run_one(full_id: &str, sample_size: usize, f: impl FnOnce(&mut Bencher)) {
    if filtered_out(full_id) {
        return;
    }
    let mut b = Bencher {
        samples: Vec::new(),
        sample_size: env_samples(sample_size),
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("bench {full_id:<52} (no samples)");
        return;
    }
    let min = b.samples.iter().min().unwrap();
    let max = b.samples.iter().max().unwrap();
    let mean = b.samples.iter().sum::<Duration>() / b.samples.len() as u32;
    println!(
        "bench {full_id:<52} [{:>12?} {:>12?} {:>12?}]",
        min, mean, max
    );
    if let Ok(path) = std::env::var("PHOM_BENCH_JSON") {
        let line = json_line(full_id, *min, mean, *max, b.samples.len());
        if let Err(e) = append_line(&path, &line) {
            eprintln!("bench {full_id}: cannot append to {path}: {e}");
        }
    }
}

/// One benchmark's result as a JSON object on one line.
fn json_line(
    full_id: &str,
    min: Duration,
    mean: Duration,
    max: Duration,
    samples: usize,
) -> String {
    let mut id = String::with_capacity(full_id.len());
    for c in full_id.chars() {
        match c {
            '"' => id.push_str("\\\""),
            '\\' => id.push_str("\\\\"),
            c if c.is_control() => id.push_str(&format!("\\u{:04x}", c as u32)),
            c => id.push(c),
        }
    }
    format!(
        "{{\"bench\":\"{id}\",\"min_ns\":{},\"mean_ns\":{},\"max_ns\":{},\"samples\":{samples}}}",
        min.as_nanos(),
        mean.as_nanos(),
        max.as_nanos()
    )
}

fn append_line(path: &str, line: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'c> {
    name: String,
    sample_size: usize,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Sets the measurement-time budget (accepted, unused by the shim).
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnOnce(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let id = id.into();
        run_one(&format!("{}/{}", self.name, id.id), self.sample_size, f);
        self
    }

    /// Runs one benchmark that borrows a prepared input.
    pub fn bench_with_input<I: ?Sized, F: FnOnce(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        f: F,
    ) -> &mut Self {
        let id = id.into();
        run_one(&format!("{}/{}", self.name, id.id), self.sample_size, |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group (no-op beyond symmetry with criterion).
    pub fn finish(&mut self) {}
}

/// Benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            _criterion: self,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F: FnOnce(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let id = id.into();
        run_one(&id.id, 10, f);
        self
    }
}

/// Declares a group of benchmark functions, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the benchmark `main` running the given groups.
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
    fn group_runs_and_reports() {
        std::env::set_var("PHOM_BENCH_SAMPLES", "2");
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(2);
        let mut ran = false;
        g.bench_function("noop", |b| {
            b.iter(|| black_box(1 + 1));
            ran = true;
        });
        g.finish();
        assert!(ran);
        std::env::remove_var("PHOM_BENCH_SAMPLES");
    }

    #[test]
    fn json_line_carries_id_times_and_samples() {
        let ns = Duration::from_nanos;
        let line = json_line("g/\"x\"", ns(1), ns(2), ns(3), 4);
        assert_eq!(
            line,
            r#"{"bench":"g/\"x\"","min_ns":1,"mean_ns":2,"max_ns":3,"samples":4}"#
        );
    }
}
