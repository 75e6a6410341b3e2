//! Order statistics and the open-loop schedule.
//!
//! Percentiles use the nearest-rank rule on a sorted sample. A
//! percentile is only *reported* when the sample supports it: at least
//! ten samples must lie beyond it (`p99` needs 1 000 samples, `p99.9`
//! needs 10 000). Failed requests enter latency samples as
//! `f64::INFINITY`, so they count as missing every latency limit.

use std::time::{Duration, Instant};

/// The percentiles a latency summary may report, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Nearest-rank percentile of an ascending sample (`pct` in `0..=100`).
/// Returns `NaN` for an empty sample.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank: the smallest position with at least `pct`% of
/// the sample at or below it. The epsilon keeps decimal percentiles such
/// as 99.9 from rounding up a rank.
fn rank(n: usize, pct: f64) -> usize {
    ((pct * n as f64 / 100.0 - 1e-9).ceil().max(1.0) as usize).min(n)
}

/// Number of samples strictly beyond the nearest-rank `pct` position.
pub fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, pct)
}

/// The highest ladder percentile with at least ten samples beyond it,
/// or `None` when even the median is unsupported (fewer than 20 samples).
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().copied().rev().find(|&p| beyond(n, p) >= 10)
}

/// Sorts a sample ascending (NaN-free input; infinities sort last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A latency distribution summary: median, the highest supported
/// percentile, and the sample count.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    pub p99: f64,
    /// The highest percentile the sample supports (`None` if < 20).
    pub top_pct: Option<f64>,
    pub top_value: f64,
}

/// Summarizes a latency sample.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values.to_vec());
    let top_pct = highest_supported(v.len());
    Summary {
        samples: v.len(),
        p50: percentile(&v, 50.0),
        p99: percentile(&v, 99.0),
        top_pct,
        top_value: top_pct.map_or(f64::NAN, |p| percentile(&v, p)),
    }
}

impl Summary {
    /// JSON object for the run report.
    pub fn json(&self) -> String {
        format!(
            "{{\"samples\": {}, \"p50\": {}, \"p99\": {}, \"p99_supported\": {}, \
             \"top_pct\": {}, \"top_value\": {}}}",
            self.samples,
            num(self.p50),
            num(self.p99),
            beyond(self.samples, 99.0) >= 10,
            self.top_pct.map_or("null".to_string(), |p| format!("{p}")),
            num(self.top_value)
        )
    }
}

/// Formats a float as a JSON number (non-finite values become `null`).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A fixed-rate open-loop schedule: request `i` is due at
/// `start + i / rate`, whether or not earlier requests were answered.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_s: f64) -> Self {
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    /// When request `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }
}

/// Generator lateness: how long after its due time each request was
/// actually sent. A run whose p99 lateness exceeds the bound measured
/// the generator, not the system, and is invalid.
#[derive(Clone, Debug, Default)]
pub struct Lateness {
    late_ms: Vec<f64>,
}

impl Lateness {
    /// Records one send.
    pub fn record(&mut self, due: Instant, sent: Instant) {
        self.late_ms
            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
    }

    pub fn samples(&self) -> usize {
        self.late_ms.len()
    }

    /// p99 lateness in milliseconds (0 with no sends).
    pub fn p99_ms(&self) -> f64 {
        if self.late_ms.is_empty() {
            return 0.0;
        }
        percentile(&sorted(self.late_ms.clone()), 99.0)
    }
}
