//! Exact quantiles over raw samples, and the result line.

/// Latency samples in nanoseconds. A failed request is recorded as
/// `u64::MAX`, so it misses every latency limit.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<u64>);

/// A failed request's latency: beyond every limit.
pub const FAILED: u64 = u64::MAX;

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    /// Appends another set of samples.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The exact `p`-quantile in microseconds (nearest rank), or `None`
    /// when fewer than ten samples lie beyond it — a tail estimate
    /// resting on fewer is not reported.
    pub fn quantile_us(&self, p: f64) -> Option<f64> {
        let n = self.0.len();
        if n == 0 {
            return None;
        }
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        if n - rank < 10 {
            return None;
        }
        let mut sorted = self.0.clone();
        let (_, v, _) = sorted.select_nth_unstable(rank - 1);
        Some(if *v == FAILED {
            f64::INFINITY
        } else {
            *v as f64 / 1000.0
        })
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A metric.
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// JSON has no infinities or NaN; a value that is not finite (a latency
/// quantile landing on a failed request) is reported as the largest
/// finite number, which fails any bound.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let mut s = Samples::default();
        for v in 1..=2000u64 {
            s.push(v * 1000);
        }
        assert_eq!(s.quantile_us(0.5), Some(1000.0));
        assert_eq!(s.quantile_us(0.99), Some(1980.0));
    }

    #[test]
    fn a_tail_with_fewer_than_ten_samples_beyond_is_not_reported() {
        let mut s = Samples::default();
        for v in 0..500u64 {
            s.push(v);
        }
        assert_eq!(s.quantile_us(0.99), None);
        assert!(s.quantile_us(0.5).is_some());
    }

    #[test]
    fn failed_requests_miss_every_limit() {
        let mut s = Samples::default();
        for i in 0..30 {
            s.push(if i % 3 == 0 { 5 } else { FAILED });
        }
        assert_eq!(s.quantile_us(0.5), Some(f64::INFINITY));
    }
}
