//! Order statistics for the reported metrics.

/// Fewest samples a tail percentile must leave above it before the
/// benchmark reports it: with fewer, one outlier moves the figure.
const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle pair for an even count).
///
/// # Errors
/// Fails on an empty sample set.
pub fn median(samples: &[f64]) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("median of no samples".to_owned());
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    Ok(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `q` (0 < q < 1) for a latency tail. Refuses
/// when fewer than [`MIN_BEYOND`] samples lie above the chosen rank.
///
/// # Errors
/// Fails when `q` is outside (0, 1) or the sample set is too small.
pub fn tail_percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    if !(q > 0.0 && q < 1.0) {
        return Err(format!("percentile {q} is outside (0, 1)"));
    }
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples leaves {beyond} beyond it; need at least {MIN_BEYOND}",
            q * 100.0
        ));
    }
    Ok(sorted(samples)[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let nine_beyond: Vec<f64> = (0..90).map(f64::from).collect();
        assert!(tail_percentile(&nine_beyond, 0.9).is_err());
        let ten_beyond: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail_percentile(&ten_beyond, 0.9), Ok(89.0));
        assert!(tail_percentile(&ten_beyond, 1.0).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Ok(2.5));
        assert!(median(&[]).is_err());
    }
}
