//! Order statistics over rep samples.
//!
//! The sandbox this benchmark was calibrated on is a 2-vCPU shared VM whose
//! neighbours slow it in bursts of several seconds: noise only ever *adds*
//! time, and a burst can cover most reps of a run, so host-time metrics
//! report the best rep instead of a central one (see README, "Estimator").

/// Ascending copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The best (smallest) rep.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn best(values: &[f64]) -> f64 {
    values
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .expect("a non-empty sample")
}

/// Nearest-rank quantile `q ∈ [0, 1]` (index `⌊q·(R−1)⌋`).
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    let idx = (q.clamp(0.0, 1.0) * (v.len() - 1) as f64).floor() as usize;
    v[idx]
}

/// Median (upper of the two middle reps on an even sample).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    v[v.len() / 2]
}

/// Arithmetic mean; 0 on an empty sample.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `(q1, q3)` by nearest rank.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    (quantile(values, 0.25), quantile(values, 0.75))
}

/// Interquartile range as a share of the median (0 when the median is 0).
#[must_use]
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

/// The highest whole percentile that still leaves at least ten samples
/// beyond it, or `None` below 20 samples (where even the median does not).
///
/// 384 samples → 97 (12 samples beyond); 40 samples → 76; 19 → `None`.
#[must_use]
pub fn tail_percentile(samples: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| samples - rank_of(samples, p) > 10)
}

/// Zero-based rank the `p`-th percentile occupies in `samples` sorted reps.
fn rank_of(samples: usize, p: u32) -> usize {
    (samples.saturating_sub(1)) * p as usize / 100
}

/// The `p`-th percentile by the same rank rule [`tail_percentile`] counts
/// with.
#[must_use]
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let v = sorted(values);
    v[rank_of(v.len(), p)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_rep_survives_a_burst_that_slows_most_of_the_run() {
        // Measured shape: a quiet floor and multi-rep bursts above it.
        let mut reps = vec![350.0, 381.0, 265.0, 267.0, 271.0, 264.0, 330.0, 298.0];
        reps.extend([232.0, 223.0, 227.0]);
        assert_eq!(best(&reps), 223.0);
        assert_eq!(best(&[7.0]), 7.0);
        assert!(
            median(&reps) > 1.15 * best(&reps),
            "the median moved, the floor did not"
        );
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(384), Some(97));
        assert_eq!(tail_percentile(2000), Some(99));
        assert_eq!(tail_percentile(40), Some(76));
        assert_eq!(tail_percentile(19), None);
        for n in [20usize, 40, 100, 384, 1000] {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank_of(n, p) > 10, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_and_quartiles_use_nearest_rank() {
        let v: Vec<f64> = (0..101).map(f64::from).collect();
        assert_eq!(percentile(&v, 95), 95.0);
        assert_eq!(quartiles(&v), (25.0, 75.0));
        assert_eq!(median(&v), 50.0);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
