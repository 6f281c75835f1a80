//! Quiet-machine estimators.
//!
//! Every workload is run as several *identical* passes (same fixture, fresh
//! master and replica each time). Identical work means interference from the
//! machine can only add time, never remove it, so the best estimate of what
//! the code costs is a minimum over passes — taken per operation, per stream
//! slice and per set-up step, not over whole passes, so one disturbed moment
//! in each pass does not survive into the result.

/// The quiet value of each sample: its minimum over passes. All passes must
/// have recorded the same number of samples (they do identical work).
pub fn quiet(passes: &[Vec<u64>]) -> Result<Vec<u64>, String> {
    let Some(first) = passes.first() else {
        return Err("no passes".into());
    };
    let mut out = first.clone();
    for p in &passes[1..] {
        if p.len() != out.len() {
            return Err(format!(
                "passes disagree on sample count: {} vs {}",
                p.len(),
                out.len()
            ));
        }
        for (q, &v) in out.iter_mut().zip(p) {
            *q = (*q).min(v);
        }
    }
    Ok(out)
}

/// Sum over samples of the minimum over passes — the quiet total of a
/// sequence of intervals (stream slices, set-up steps).
pub fn quiet_total(passes: &[Vec<u64>]) -> Result<u64, String> {
    Ok(quiet(passes)?.iter().sum())
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. `p` in (0, 1]. Returns 0 for
/// an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile position.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(n.min(1), n)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

/// Ascending copy.
pub fn sorted(values: &[u64]) -> Vec<u64> {
    let mut v = values.to_vec();
    v.sort_unstable();
    v
}

/// First quartile, median and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what
/// the driver applies to repeated runs. Fewer than two values give the one
/// value (or 0) three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_takes_the_minimum_per_sample_not_per_pass() {
        // Each pass is disturbed at a different sample; no pass is clean.
        let passes = vec![
            vec![10, 90, 10, 10],
            vec![10, 10, 80, 10],
            vec![70, 10, 10, 10],
        ];
        assert_eq!(quiet(&passes).unwrap(), vec![10, 10, 10, 10]);
        assert_eq!(quiet_total(&passes).unwrap(), 40);
        let best_pass: u64 = passes.iter().map(|p| p.iter().sum()).min().unwrap();
        assert_eq!(best_pass, 100, "a whole-pass minimum keeps the disturbance");
    }

    #[test]
    fn quiet_rejects_passes_of_unequal_length() {
        assert!(quiet(&[vec![1, 2], vec![1]]).is_err());
        assert!(quiet(&[]).is_err());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.001), 1);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        // Odd count: the median is the middle element.
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 0.5), 3);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(2000, 0.99), 20);
        assert_eq!(samples_beyond(100, 0.5), 50);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }
}
