//! Order statistics over per-round samples.

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one round.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First, second and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)`, which is what the acceptance
/// check applies to the reported values; `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let rank = (i + 1) * (n + 1);
        let j = (rank / 4).clamp(1, n - 1);
        let delta = rank as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The highest percentile of the usual ladder that still has at least ten
/// samples beyond it, with its nearest-rank value; `None` below twenty
/// samples, where even the median has fewer than ten beyond it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    // Per mille, so that ranks are exact.
    [999, 990, 950, 900, 750, 500].into_iter().find_map(|pm| {
        let rank = (n * pm).div_ceil(1000);
        (n >= rank + 10).then(|| (pm as f64 / 10.0, v[rank - 1]))
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_null_below_twenty_samples() {
        let samples: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&samples), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_climbs_the_ladder_with_the_sample_count() {
        let samples = |n: u32| (1..=n).map(f64::from).collect::<Vec<f64>>();
        assert_eq!(tail(&samples(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&samples(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&samples(1000)), Some((99.0, 990.0)));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3.0, 1.0], n=4)
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
