//! Order statistics over latency samples.

/// The `q`-quantile of `samples` by nearest rank (`q` in `(0, 1]`), or 0 for
/// no samples. Sorts a copy: sample vectors here hold a few thousand values.
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[u64]) -> u64 {
    quantile(samples, 0.5)
}

/// The median of floating-point values (set-up times), or 0 for none.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// Geometric mean of strictly positive values; 0 if there are none.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values
        .iter()
        .map(|v| v.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / values.len() as f64)
        .exp()
}

pub fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

pub fn us(nanos: u64) -> f64 {
    nanos as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(median(&v), 50);
        assert_eq!(quantile(&v, 0.9), 90);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(median(&[7]), 7);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }
}
