//! Order statistics over exact samples, and the ledger arithmetic.
//!
//! Every percentile here is computed from the full sorted sample set,
//! never from a bucketed histogram, so a reported median is a value
//! some request actually saw.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The median of `samples` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by the "exclusive" method
/// of Python's `statistics.quantiles(values, n=4)`, which is how a set
/// of runs is summarised. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(samples);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// The highest whole percentile in `50..=99` whose nearest-rank value
/// leaves at least [`TAIL_BEYOND`] samples above it, for `n` samples:
/// p99 once `n >= 1000`. Below 20 samples no tail is supported and the
/// median (50) is returned.
pub fn tail_percentile(n: usize) -> u32 {
    (50..=99)
        .rev()
        .find(|&p| n.saturating_sub(nearest_rank(p, n)) >= TAIL_BEYOND)
        .unwrap_or(50)
}

/// `(percentile, value)` of the supported tail of `samples`; `None`
/// when empty.
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return None;
    }
    let p = tail_percentile(sorted.len());
    if p == 50 {
        return median(&sorted).map(|m| (p, m));
    }
    percentile(&sorted, p).map(|v| (p, v))
}

/// The nearest-rank `p`-th percentile of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    let sorted = sorted(samples);
    (!sorted.is_empty()).then(|| sorted[nearest_rank(p, sorted.len()) - 1])
}

/// 1-based nearest-rank index of percentile `p` among `n` samples.
fn nearest_rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// The share of a total that its measured phases do not explain:
/// `total - sum(phases)`. Negative when the phases, timed in a separate
/// replay, took longer than the end-to-end call.
pub fn unattributed(total: f64, phases: &[f64]) -> f64 {
    total - phases.iter().sum::<f64>()
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[cfg(test)]
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
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
    fn median_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([7, 1, 4], n=4) == [1.0, 4.0, 7.0]
        assert_eq!(quartiles(&[7.0, 1.0, 4.0]), Some([1.0, 4.0, 7.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(5000), 99);
        assert_eq!(tail_percentile(999), 98);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(25), 60);
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(3), 50);
        for n in 20..3000 {
            let p = tail_percentile(n);
            assert!(n - nearest_rank(p, n) >= TAIL_BEYOND, "n={n} p={p}");
            if p < 99 {
                assert!(
                    n - nearest_rank(p + 1, n) < TAIL_BEYOND,
                    "n={n}: p{} fits",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn tail_value_is_a_sample_with_ten_above_it() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&samples), Some((90, 90.0)));
        assert_eq!(tail(&[5.0, 1.0, 3.0]), Some((50, 3.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn percentile_is_the_nearest_rank_sample() {
        let samples: Vec<f64> = (1..=64).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 90), Some(58.0));
        assert_eq!(percentile(&samples, 100), Some(64.0));
        assert_eq!(percentile(&[2.0], 90), Some(2.0));
        assert_eq!(percentile(&[], 90), None);
    }

    #[test]
    fn unattributed_is_total_minus_phases() {
        assert_eq!(unattributed(10.0, &[2.0, 3.0, 4.0]), 1.0);
        assert_eq!(unattributed(5.0, &[]), 5.0);
        assert!(unattributed(1.0, &[0.75, 0.5]) < 0.0);
    }

    #[test]
    fn metric_names_are_validated() {
        for good in ["setup_s", "nn.layer00_ms", "a", "9-x.y_z"] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
