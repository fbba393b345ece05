//! Order statistics over raw samples. Percentiles are exact nearest-rank
//! values over the recorded samples, never histogram bucket bounds.

/// Nearest-rank percentile: the smallest sample `x` such that at least
/// `q × n` samples are `<= x`. Returns 0 for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median, averaging the two middle samples of an even-sized slice.
/// Returns 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Geometric mean of positive samples. Returns 0 for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_hand_computed_vectors() {
        let xs = [15.0, 20.0, 35.0, 40.0, 50.0];
        // ranks: ceil(0.05·5)=1, ceil(0.3·5)=2, ceil(0.4·5)=2, ceil(0.5·5)=3, 5
        assert_eq!(percentile(&xs, 0.05), 15.0);
        assert_eq!(percentile(&xs, 0.30), 20.0);
        assert_eq!(percentile(&xs, 0.40), 20.0);
        assert_eq!(percentile(&xs, 0.50), 35.0);
        assert_eq!(percentile(&xs, 1.00), 50.0);
        // order of the input does not matter
        assert_eq!(percentile(&[50.0, 15.0, 40.0, 35.0, 20.0], 0.5), 35.0);
        // 20 samples 1..=20: p95 is rank 19, p50 rank 10
        let ramp: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&ramp, 0.95), 19.0);
        assert_eq!(percentile(&ramp, 0.50), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
    }

    #[test]
    fn median_and_geomean_on_hand_computed_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // (1·2·4)^(1/3) = 2 and (2·8)^(1/2) = 4
        assert!((geomean(&[1.0, 2.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
