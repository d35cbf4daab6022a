//! Order statistics for repeated timings.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default exclusive method), so a spread computed here is the spread the
//! driver computes over its own runs.

/// First quartile, median and third quartile of `values`.
///
/// One value is its own quartiles; an empty slice is all zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        _ => {
            let at = |k: usize| {
                // Exclusive method: position k*(n+1)/4 on a 1-based axis;
                // the neighbours are clamped to the data, the weight is
                // not, so two or three values extrapolate as Python does.
                let pos = k * (n + 1);
                let j = (pos / 4).clamp(1, n - 1);
                let delta = pos as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (at(1), at(2), at(3))
        }
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u32], pct: f64) -> u32 {
    match sorted.len() {
        0 => 0,
        n => sorted[rank(n, pct) - 1],
    }
}

/// The median of an ascending slice, resolved below the clock's tick: the
/// mean of the samples ranked from the 45th to the 55th percentile. A store
/// hit takes ~150 ns on a 1 ns clock, so the plain median of 100 000 of them
/// is the same whole number run after run; the middle tenth averages out
/// the tick and is the plain median whenever that tenth is one sample.
pub fn mid_median(sorted: &[u32]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let band = &sorted[rank(n, 45.0) - 1..rank(n, 55.0)];
            band.iter().map(|&v| v as f64).sum::<f64>() / band.len() as f64
        }
    }
}

/// 1-based nearest rank of `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    // In tenths of a percent and whole numbers, so 99.9 % of 10 000 is
    // rank 9 990 and not one float ulp above it.
    let per_mille = (pct * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the `pct` percentile's rank.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pct)
    }
}

/// The highest of p99, p90 and p75 that still has at least ten of `n`
/// samples beyond it. With fewer than forty samples none has, and the tail
/// is the slowest sample: p100.
pub fn supported_tail(n: usize) -> f64 {
    [99.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
        .unwrap_or(100.0)
}

/// Failed operations as a share of those attempted (0 when none were).
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10,11], n=4) == [3, 6, 9]
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quartiles(&v), (3.0, 6.0, 9.0));
    }

    #[test]
    fn median_and_spread_of_degenerate_inputs() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(iqr_share(&[7.0]), 0.0);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
        assert!((iqr_share(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[5], 99.0), 5);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn mid_median_averages_the_middle_tenth() {
        assert_eq!(mid_median(&[]), 0.0);
        assert_eq!(mid_median(&[9]), 9.0);
        assert_eq!(mid_median(&[1, 2, 3]), 2.0);
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(mid_median(&v), 50.0, "ranks 45..=55");
        // Ticks of a coarse clock average out: 40 % at 164, 60 % at 165.
        let mut v = vec![164u32; 400];
        v.extend(vec![165u32; 600]);
        assert_eq!(percentile(&v, 50.0), 165);
        assert!((mid_median(&v) - 165.0).abs() < 1e-9);
        let mut v = vec![164u32; 480];
        v.extend(vec![165u32; 520]);
        assert!(mid_median(&v) > 164.6 && mid_median(&v) < 164.8);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(10_000, 99.9), 10, "no float ulp in the rank");
        assert_eq!(supported_tail(160_000), 99.0);
        assert_eq!(supported_tail(1000), 99.0);
        assert_eq!(supported_tail(999), 90.0);
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(99), 75.0);
        assert_eq!(supported_tail(40), 75.0);
        assert_eq!(supported_tail(39), 100.0);
        assert_eq!(supported_tail(3), 100.0);
    }

    #[test]
    fn failed_share_counts_against_attempts() {
        assert_eq!(failed_share(0, 0), 0.0);
        assert_eq!(failed_share(0, 10), 0.0);
        assert_eq!(failed_share(3, 12), 0.25);
        assert_eq!(failed_share(12, 12), 1.0);
    }
}
