//! Order statistics for reporting timings.
//!
//! A median is reported for any non-empty sample. A tail percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it, so
//! a p95 needs 200 samples; with fewer it is `None` and the run fails
//! its output check instead of printing a tail made of a handful of
//! points.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank index of percentile `p` (0 < p <= 100) in `n` sorted
/// samples: the smallest index whose rank covers `p` percent.
fn rank_index(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even). `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `p`, or `None` unless at least
/// [`MIN_BEYOND`] samples lie beyond the reported sample's rank.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let v = sorted(values);
    let idx = rank_index(v.len(), p);
    let beyond = v.len() - 1 - idx;
    (beyond >= MIN_BEYOND).then(|| v[idx])
}

/// Mean of a non-empty sample; `None` for an empty one.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Percentile `p` of a run made of rounds: the mean of the rounds' own
/// percentiles when every round has enough samples for one, else the
/// percentile of all samples pooled. The host's speed drifts over
/// seconds; a percentile pooled over a whole run lands in whichever
/// stretch was fastest or slowest, while the mean over short rounds
/// weighs every stretch alike and so varies less from run to run.
pub fn run_percentile(rounds: &[&[f64]], p: f64) -> Option<f64> {
    let per_round: Option<Vec<f64>> = rounds.iter().map(|r| tail_percentile(r, p)).collect();
    match per_round {
        Some(v) if !v.is_empty() => mean(&v),
        _ => tail_percentile(&rounds.concat(), p),
    }
}

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), which
/// is how run-to-run spread is judged. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let v = sorted(values);
    let m = n as f64 + 1.0;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let pos = (i + 1) as f64 * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        *q = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the spread measure
/// bounds are compared against.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // 199 samples: the p95 rank is 190, leaving 9 beyond.
        assert_eq!(tail_percentile(&one_to(199), 95.0), None);
        // 200 samples: rank 190, 10 beyond.
        assert_eq!(tail_percentile(&one_to(200), 95.0), Some(190.0));
        assert_eq!(tail_percentile(&one_to(1000), 95.0), Some(950.0));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(tail_percentile(&one_to(19), 50.0), None);
        assert_eq!(tail_percentile(&one_to(20), 50.0), Some(10.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = one_to(400);
        v.reverse();
        assert_eq!(tail_percentile(&v, 95.0), Some(380.0));
    }

    #[test]
    fn percentile_rejects_bad_requests() {
        assert_eq!(tail_percentile(&[], 50.0), None);
        assert_eq!(tail_percentile(&one_to(500), 101.0), None);
    }

    #[test]
    fn mean_of_sample() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn run_percentile_takes_mean_of_rounds_or_pools() {
        let calm = one_to(200);
        let slowed: Vec<f64> = one_to(200).iter().map(|v| v * 4.0).collect();
        // Every round can report a p95 (190 and 760): their mean.
        assert_eq!(run_percentile(&[&calm, &slowed, &calm], 95.0), Some(380.0));
        // A round of 100 cannot, so all 400 samples are pooled.
        let short = one_to(100);
        assert_eq!(
            run_percentile(&[&calm, &short, &short], 95.0),
            tail_percentile(&[calm.clone(), short.clone(), short.clone()].concat(), 95.0)
        );
        assert_eq!(run_percentile(&[], 95.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&one_to(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        // (the exclusive method extrapolates past the ends).
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let r = relative_iqr(&one_to(10)).unwrap();
        assert!((r - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[5.0; 8]), Some(0.0));
    }
}
