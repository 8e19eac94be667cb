//! Sample sets, the metric list a run prints, and failure accounting.

use std::fmt::Write as _;
use std::time::Duration;

/// Latency samples in nanoseconds.
#[derive(Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Quantile `q` in nanoseconds (0 when empty). With enough samples
    /// the run is cut into `CHUNKS` consecutive chunks, each large
    /// enough to leave at least ten samples beyond `q`, and the median of
    /// the chunks' quantiles is reported: a burst of interference in one
    /// part of the run then moves one chunk, not the figure.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        const CHUNKS: usize = 10;
        let chunk = self.0.len() / CHUNKS;
        if (chunk as f64 * (1.0 - q)) < 10.0 {
            return nearest_rank(&self.0, q);
        }
        let per_chunk: Vec<f64> = self
            .0
            .chunks_exact(chunk)
            .map(|c| nearest_rank(c, q))
            .collect();
        median(&per_chunk)
    }

    /// The sum of all samples.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.0.iter().sum())
    }

    pub fn p50_us(&self) -> f64 {
        self.quantile_ns(0.5) / 1e3
    }

    pub fn p90_us(&self) -> f64 {
        self.quantile_ns(0.90) / 1e3
    }

    pub fn p99_us(&self) -> f64 {
        self.quantile_ns(0.99) / 1e3
    }
}

/// Nearest-rank quantile of `values` (0 when empty).
fn nearest_rank(values: &[u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// The value of metric `name` (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |m| m.1)
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        out.push('}');
        out
    }
}

/// Operations attempted and failed. A failure is a transport error, a
/// `Response::Error`, a response of the wrong shape, or an answer that
/// differs from the oracle.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the run's notes.
    pub first_failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` is a failure described by the string.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.first_failures.len() < 5 {
                self.first_failures.push(why);
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for why in other.first_failures {
            if self.first_failures.len() < 5 {
                self.first_failures.push(why);
            }
        }
    }
}
