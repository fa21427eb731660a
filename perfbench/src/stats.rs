//! Percentiles, metric records and the result line.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=1).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and p99 of a sample, with its size.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub n: usize,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    Summary {
        p50: percentile(&v, 0.50),
        p90: percentile(&v, 0.90),
        p99: percentile(&v, 0.99),
        n: v.len(),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

/// The share of a run's slices or events that a reported timing stands
/// for: the run's fastest fifth.
///
/// The reference machine's speed on memory-heavy paths switches between
/// a fast and a slow state, in streaks of seconds within a run and in
/// drifts lasting minutes, while compute-only work stays within ±7%.
/// A slower program is slower in the fast stretches too, so the fast
/// fifth tracks the program while the host's slow stretches stay out of
/// it.  Over eight processes that each built and recovered ten
/// `ingest`-sized archives, the per-1 000-commit medians spread 0.16 from
/// process to process as a mean and 0.04 as their 20th percentile.  In
/// six `ingest` runs of the benchmark, recovery spread 0.13 as a mean and
/// 0.04 as the 20th percentile; the commit and query medians spread about
/// the same either way (0.12–0.13 and 0.09–0.12).
const FAST: f64 = 0.2;

/// The value that the fastest fifth of a sample of times reaches: its
/// 20th percentile (nearest rank).
pub fn fast_time(samples: &[f64]) -> f64 {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    percentile(&v, FAST)
}

/// The value that the fastest fifth of a sample of rates reaches: its
/// 80th percentile (nearest rank).
pub fn fast_rate(samples: &[f64]) -> f64 {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    percentile(&v, 1.0 - FAST)
}

/// Samples per slice: ten beyond each slice's p99.
const SLICE_SAMPLES: usize = 1_000;
const MAX_SLICES: usize = 25;

/// Latency samples of one measured phase, each with the time it
/// completed (seconds since the phase began).
#[derive(Debug, Default, Clone)]
pub struct Timeline {
    pub samples: Vec<(f64, f64)>,
    pub seconds: f64,
}

/// A phase summarised over its time slices.
#[derive(Debug, Clone, Copy)]
pub struct Sliced {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// Completions per second.
    pub rate: f64,
    pub n: usize,
}

impl Timeline {
    pub fn record(&mut self, start: Instant, done: Instant, lat_us: f64) {
        self.samples
            .push((done.saturating_duration_since(start).as_secs_f64(), lat_us));
    }

    /// Append a later phase, shifted to start where this one ended.
    pub fn then(&mut self, later: &Timeline) {
        let base = self.seconds;
        self.samples
            .extend(later.samples.iter().map(|&(t, l)| (base + t, l)));
        self.seconds += later.seconds;
    }

    /// Split the phase into equal time slices of at least 1000 samples
    /// each on average (at most 25), and report, over the slices, the
    /// fastest fifth's p50, p90, p99 and completion rate (see `FAST`).
    pub fn sliced(&self) -> Sliced {
        let n = self.samples.len();
        let w = (n / SLICE_SAMPLES).clamp(1, MAX_SLICES);
        let width = self.seconds.max(1e-9) / w as f64;
        let mut slices: Vec<Vec<f64>> = vec![Vec::new(); w];
        for &(t, l) in &self.samples {
            slices[((t / width) as usize).min(w - 1)].push(l);
        }
        let per: Vec<Summary> = slices.iter().map(|s| summarize(s)).collect();
        Sliced {
            p50: fast_time(&per.iter().map(|s| s.p50).collect::<Vec<_>>()),
            p90: fast_time(&per.iter().map(|s| s.p90).collect::<Vec<_>>()),
            p99: fast_time(&per.iter().map(|s| s.p99).collect::<Vec<_>>()),
            rate: fast_rate(
                &slices
                    .iter()
                    .map(|s| s.len() as f64 / width)
                    .collect::<Vec<_>>(),
            ),
            n,
        }
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind the value (1 for a single measurement).
    pub samples: usize,
}

/// Named metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// `<name>.p50` and `<name>.p99` of a sample.
    pub fn put_pcts(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        let s = summarize(samples);
        self.put(format!("{name}.p50"), s.p50, unit, s.n);
        self.put(format!("{name}.p99"), s.p99, unit, s.n);
    }
}

/// Format a number for JSON: finite values with every digit, anything
/// else as `null` (which the correctness verdict then rejects).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn fast_fifth() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(fast_time(&v), 2.0);
        assert_eq!(fast_rate(&v), 8.0);
        assert_eq!(fast_time(&[7.0]), 7.0);
        assert!(fast_time(&[]).is_nan());
    }
}
