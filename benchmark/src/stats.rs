//! Medians, quartiles, the percentile rule, and the process's peak memory.

/// Median of a sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The second-best value of a sample (the best of a sample of one): the
/// second highest where higher is better, else the second lowest. The work
/// of a repetition is a function of the seed, so what differs between
/// repetitions is what the host added. Of three long repetitions this is the
/// median; of a dozen short ones it is one the host left alone, and a single
/// freak repetition moves neither.
pub fn second_best(values: &[f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "second best of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    v[1.min(v.len() - 1)]
}

/// First and third quartile by the exclusive method (the k-th lies at
/// position k·(n+1)/4 of the sorted sample, interpolated). A sample of one
/// has no spread: both are the value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4, 1-based; past the ends it extrapolates.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (at(1), at(3))
}

/// The percentiles a report may quote, lowest first, in hundredths of a
/// percent so that the count beyond each is exact integer arithmetic.
const PERCENTILES: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// The highest percentile that still has at least ten samples beyond it;
/// 0 when even the median has not.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    PERCENTILES
        .into_iter()
        .rev()
        .find(|p| samples as u64 * (10_000 - p) / 10_000 >= 10)
        .map_or(0.0, |p| p as f64 / 100.0)
}

/// The `p`-th percentile of an ascending sample (nearest rank); 0 for an
/// empty one.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `VmHWM` of this process in MB: the most memory it ever held resident.
/// 0 where `/proc` does not say (not Linux).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_wants_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), 0.0);
        assert_eq!(highest_supported_percentile(19), 0.0);
        assert_eq!(highest_supported_percentile(20), 50.0);
        assert_eq!(highest_supported_percentile(99), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(999), 90.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        assert_eq!(highest_supported_percentile(1_000_000), 99.99);
    }

    #[test]
    fn quartiles_interpolate_and_extrapolate() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        assert_eq!((second_best(&v, false), second_best(&v, true)), (2.0, 9.0));
        assert_eq!(
            second_best(&[3.0, 1.0, 2.0], false),
            median(&[3.0, 1.0, 2.0])
        );
        assert_eq!(second_best(&[4.0], true), 4.0);
        // Three repetitions: the quartiles are the extremes.
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // Past the ends the method extrapolates.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
    }
}
