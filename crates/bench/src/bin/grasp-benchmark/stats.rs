//! Order statistics over the benchmark's samples.
//!
//! Everything here works on a copy sorted with `total_cmp`, so a stray NaN
//! sorts last instead of poisoning a comparison.

/// A sorted copy of `samples`.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    gridstats::median(samples).unwrap_or(0.0)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so a spread printed here is the spread the driver will compute
/// from the same values.  `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the run-to-run spread
/// every bound is compared against.  0 when undefined.
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    match quartiles(samples) {
        Some((q1, q3)) if m != 0.0 => ((q3 - q1) / m).abs(),
        _ => 0.0,
    }
}

/// 1-based rank of the tail percentile a sample count can support: the
/// highest percentile ≤ p99 that still leaves at least ten samples beyond
/// it.  `None` when that would fall at or below the median (fewer than
/// about twenty samples), where the median itself is reported.
fn tail_rank(count: usize) -> Option<usize> {
    let p99 = (99 * count).div_ceil(100);
    let rank = p99.min(count.saturating_sub(10));
    (rank > count.div_ceil(2)).then_some(rank)
}

/// `(value, percentile used in [0.5, 0.99], sample count)` of the supported
/// tail percentile of `samples`.
pub fn tail_percentile(samples: &[f64]) -> (f64, f64, usize) {
    let n = samples.len();
    match tail_rank(n) {
        Some(rank) => (sorted(samples)[rank - 1], rank as f64 / n as f64, n),
        None => (median(samples), 0.5, n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let ramp = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // Too few samples for any tail: the median.
        for n in [9usize, 10] {
            let (value, p, count) = tail_percentile(&ramp(n));
            assert_eq!((p, count), (0.5, n));
            assert_eq!(value, median(&ramp(n)));
        }
        // 999 samples cannot carry p99 (9.99 beyond): one notch below.
        let (value, p, _) = tail_percentile(&ramp(999));
        assert!(p < 0.99 && p > 0.98, "p = {p}");
        assert_eq!(value, 989.0);
        assert!(999.0 - value >= 10.0);
        // 1 000 is the first count that carries p99 exactly.
        let (value, p, _) = tail_percentile(&ramp(1000));
        assert_eq!((value, p), (990.0, 0.99));
        // Beyond that the cap holds: p99 with 26 samples above it.
        let (value, p, _) = tail_percentile(&ramp(2600));
        assert_eq!((value, p), (2574.0, 0.99));
    }
}
