//! Percentiles with their sample counts, and the step check.

/// Share of the sample either side of a percentile that the step check
/// spans (at least three ranks): wide enough to see a valley between two
/// query classes in samples of tens of thousands.
const STEP_SHARE: f64 = 0.005;

/// One reported percentile of a latency sample.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    /// The nearest-rank value, in nanoseconds.
    pub value_ns: u64,
    /// Samples in the distribution.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Relative gap between the samples 0.5% of the sample (at least
    /// three ranks) either side of the percentile. A large gap means the
    /// percentile sits on a step between query classes of different cost,
    /// where a small shift in the mix moves it far.
    pub step: f64,
}

/// The nearest-rank `p`-quantile of an ascending sample (`p` in (0, 1]).
/// `None` for an empty sample.
pub fn percentile(sorted: &[u64], p: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let i = rank - 1;
    let window = ((n as f64 * STEP_SHARE) as usize).max(3);
    let lo = sorted[i.saturating_sub(window)];
    let hi = sorted[(i + window).min(n - 1)];
    Some(Percentile {
        value_ns: sorted[i],
        samples: n,
        beyond: n - rank,
        step: (hi - lo) as f64 / sorted[i].max(1) as f64,
    })
}

/// Median of a small sample of measurements (mean of the middle two
/// for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
