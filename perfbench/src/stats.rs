//! Order statistics used by every metric the benchmark reports.
//!
//! Two rules from the benchmark's design are encoded here:
//!
//! - a tail percentile is only reported where at least
//!   [`TAIL_BEYOND`] samples lie beyond it (so p99 needs ≥1000 samples);
//! - a refused or failed operation has latency `+∞`: it misses every
//!   latency limit, and it sorts above every real sample.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Latency recorded for an operation that failed or was refused.
pub const REFUSED: f64 = f64::INFINITY;

/// Sorts a copy of `samples` ascending (`+∞` last).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count);
/// `NaN` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => {
            let (a, b) = (v[n / 2 - 1], v[n / 2]);
            if a == b {
                a
            } else {
                (a + b) / 2.0
            }
        }
    }
}

/// Nearest-rank percentile `p` (in percent) of `samples`, together with
/// how many samples lie beyond it; `None` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<(f64, usize)> {
    let v = sorted(samples);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let index = rank.min(v.len()) - 1;
    Some((v[index], v.len() - 1 - index))
}

/// The tail the sample supports: p99 when at least [`TAIL_BEYOND`]
/// samples lie beyond it, otherwise the highest nearest-rank percentile
/// that still has [`TAIL_BEYOND`] samples beyond it. Returns the
/// percentile (in percent) and its value; `None` when fewer than
/// `TAIL_BEYOND + 1` samples exist.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    if let Some((value, beyond)) = percentile(samples, 99.0) {
        if beyond >= TAIL_BEYOND {
            return Some((99.0, value));
        }
    }
    let index = n - 1 - TAIL_BEYOND;
    let v = sorted(samples);
    Some((100.0 * (index + 1) as f64 / n as f64, v[index]))
}

/// Quartiles exactly as Python's `statistics.quantiles(data, n=4)`
/// (the default "exclusive" method) computes them; `None` for fewer
/// than two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(samples);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((q(1), q(2), q(3)))
}

/// Inter-quartile distance as a share of the median, the steadiness
/// figure the bounds in `BENCHMARK.json` are set from.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, _, q3) = quartiles(samples)?;
    let m = median(samples);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Some((990.0, 10)));
        assert_eq!(tail(&thousand), Some((99.0, 990.0)));
        // 999 samples leave only 9 beyond nearest-rank p99, so the tail
        // falls back to the highest percentile with 10 beyond it.
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        let (p, value) = tail(&short).expect("enough samples for some tail");
        assert_eq!(value, 989.0);
        assert!(p < 99.0 && p > 98.9, "{p}");
        // Ten samples support no tail at all.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        // Eleven support exactly the lowest of them.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven).map(|t| t.1), Some(1.0));
    }

    #[test]
    fn refused_requests_count_as_infinite_latency() {
        // 989 fast requests and 11 refusals: the refusals sort last, so
        // p99 lands on a refusal and misses every latency limit.
        let mut samples = vec![1.0; 989];
        samples.extend(std::iter::repeat_n(REFUSED, 11));
        let (p, value) = tail(&samples).expect("1000 samples");
        assert_eq!(p, 99.0);
        assert!(value.is_infinite());
        // Below one percent refusals, p99 stays finite but the median
        // never hides them from the error count.
        let mut few = vec![1.0; 995];
        few.extend(std::iter::repeat_n(REFUSED, 5));
        assert_eq!(tail(&few), Some((99.0, 1.0)));
        assert_eq!(median(&[1.0, REFUSED, REFUSED]), REFUSED);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        let s = spread(&ten).expect("ten samples");
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
