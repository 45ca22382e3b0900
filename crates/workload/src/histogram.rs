//! Log-bucketed latency histograms.
//!
//! One [`LatencyHistogram`] accumulates wall-clock durations — per-pass
//! planning times in the serve daemon's `/stats` report, per-request
//! latencies in workload simulations. The buckets are powers of two in
//! microseconds — fine enough to tell a 100 µs liveness pass from a
//! 100 ms allocation pass, coarse enough that a report stays a handful
//! of lines.

use serde_json::Value;

/// Number of power-of-two buckets: bucket `i` covers
/// `[2^i, 2^(i+1))` µs, so 40 buckets reach ~12 days — effectively
/// unbounded for a planning pass.
const BUCKETS: usize = 40;

/// A histogram of durations with power-of-two microsecond buckets.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    total_seconds: f64,
    max_seconds: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            total_seconds: 0.0,
            max_seconds: 0.0,
        }
    }

    /// Records one duration. Non-finite or negative values are dropped.
    pub fn record(&mut self, seconds: f64) {
        if !seconds.is_finite() || seconds < 0.0 {
            return;
        }
        self.buckets[bucket_of((seconds * 1e6).floor())] += 1;
        self.count += 1;
        self.total_seconds += seconds;
        if seconds > self.max_seconds {
            self.max_seconds = seconds;
        }
    }

    /// Number of recorded durations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean recorded duration in seconds (0 when empty).
    #[must_use]
    pub fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_seconds / self.count as f64
        }
    }

    /// JSON form: summary scalars plus the non-empty buckets as
    /// `{"count", "us_lo", "us_hi"}` rows in ascending bucket order.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut rows = Vec::new();
        for (i, &count) in self.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let (lo, hi) = bucket_bounds(i);
            rows.push(Value::Map(vec![
                ("count".to_string(), Value::U64(count)),
                ("us_hi".to_string(), Value::U64(hi)),
                ("us_lo".to_string(), Value::U64(lo)),
            ]));
        }
        Value::Map(vec![
            ("buckets".to_string(), Value::Seq(rows)),
            ("count".to_string(), Value::U64(self.count)),
            ("max_seconds".to_string(), Value::F64(self.max_seconds)),
            ("mean_seconds".to_string(), Value::F64(self.mean_seconds())),
        ])
    }
}

/// The bucket of a whole, non-negative number of microseconds: its bit
/// length, so 0 µs is bucket 0 and `[2^(i-1), 2^i)` µs is bucket `i`,
/// clamped to the last bucket. The cast saturates past `u64::MAX`.
fn bucket_of(us: f64) -> usize {
    let bits = u64::BITS - (us as u64).leading_zeros();
    (bits as usize).min(BUCKETS - 1)
}

/// `[lo, hi)` microsecond bounds of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 1)
    } else {
        (1 << (i - 1), 1 << i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_expected_ranges() {
        let mut h = LatencyHistogram::new();
        h.record(0.0); // 0 us -> bucket 0
        h.record(0.5e-6); // sub-us -> bucket 0
        h.record(1.5e-6); // [1,2) us -> bucket 1
        h.record(3e-6); // [2,4) us -> bucket 2
        h.record(1e-3); // 1000 us -> [512, 1024)
        assert_eq!(h.count(), 5);
        let v = h.to_value();
        let rows = v.get("buckets").and_then(Value::as_array).expect("rows");
        let total: u64 = rows
            .iter()
            .map(|r| r.get("count").and_then(Value::as_u64).unwrap_or(0))
            .sum();
        assert_eq!(total, 5);
        // Rows are in ascending bucket order.
        let los: Vec<u64> = rows
            .iter()
            .map(|r| r.get("us_lo").and_then(Value::as_u64).unwrap())
            .collect();
        let mut sorted = los.clone();
        sorted.sort_unstable();
        assert_eq!(los, sorted);
    }

    #[test]
    fn rejects_garbage() {
        let mut h = LatencyHistogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(-1.0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_seconds(), 0.0);
    }

    #[test]
    fn mean_and_max_track_inputs() {
        let mut h = LatencyHistogram::new();
        h.record(1.0);
        h.record(3.0);
        assert!((h.mean_seconds() - 2.0).abs() < 1e-12);
        let v = h.to_value();
        assert_eq!(v.get("max_seconds").and_then(Value::as_f64), Some(3.0));
    }

    /// The bit-length bucket is the `⌊log₂ us⌋ + 1` bucket it replaced:
    /// they agree on every `us` below 2^38, and the clamp to the last
    /// bucket covers the rest.
    #[test]
    fn bit_length_buckets_match_the_log2_rule() {
        let by_log2 = |us: f64| {
            if us < 1.0 {
                0
            } else {
                ((us.log2().floor() as usize) + 1).min(BUCKETS - 1)
            }
        };
        for us in 0..1u64 << 24 {
            assert_eq!(bucket_of(us as f64), by_log2(us as f64), "{us} us");
        }
        for shift in 24..=52 {
            let power = 1u64 << shift;
            for us in power - 2..=power + 2 {
                assert_eq!(bucket_of(us as f64), by_log2(us as f64), "{us} us");
            }
        }
        assert_eq!(bucket_of(1e300), BUCKETS - 1);
    }

    #[test]
    fn huge_durations_clamp_to_last_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(1e12); // absurd, must not panic
        assert_eq!(h.count(), 1);
    }
}
