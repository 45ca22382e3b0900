//! Metric records, order statistics, and the two output forms: a
//! human-readable table and the final one-line JSON result.

use serde_json::Value;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Number of samples the value summarises.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// The `q`-quantile (nearest rank) of `values`; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of positive values; `NaN` when empty.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        (log_sum / n as f64).exp()
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The outcome of benchmarking one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable descriptions of failed checks (capped).
    pub failures: Vec<String>,
    /// Extra table lines (per-class latency and the like).
    pub notes: Vec<String>,
}

/// Prints the metric table of one workload.
pub fn print_table(title: &str, outcome: &Outcome) {
    println!("== {title}");
    for m in &outcome.metrics {
        println!(
            "  {:<34} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    println!(
        "  requests attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
}

/// The final result line: `{"correct":…,"attempted":…,"failed":…,
/// "metrics":{name:{"value":…,"unit":…}}}`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::Map(vec![
                    ("value".to_string(), Value::F64(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    let line = Value::Map(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(attempted)),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("result line serialises")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean([1.0, 100.0]) - 10.0).abs() < 1e-12);
    }
}
