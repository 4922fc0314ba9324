//! Order statistics over timing samples.

/// The `q`-quantile (`q` in `[0, 1]`) of `samples` by linear interpolation
/// between closest ranks (the same rule as numpy's default and Python's
/// `statistics.quantiles(method="inclusive")`). `None` for no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The quantile of a run's per-operation host times that its end-to-end
/// timings report. On a shared host other tenants only ever add time, and
/// they do so in phases lasting from tens of milliseconds to minutes: a
/// `cache_channel` quantum takes 0.20 s in the fastest phase and 0.25 to
/// 0.42 s in slower ones. A mean or a median moves with the share of the
/// run each phase held (run-to-run spread of the mean up to 0.26 of the
/// median over ten seeds, of the median 0.31 over five); a low quantile is
/// the cost in the run's fastest phase, and sits on the host's floor
/// whenever the run reached it. It still moves one for one with the work
/// an operation does. The 1st percentile leaves ten samples below it in a
/// run of a thousand operations.
pub const FAST_QUANTILE: f64 = 0.01;

/// Samples that lie strictly above the `q`-quantile: a tail percentile is
/// only worth reporting when at least ten samples lie beyond it.
pub fn samples_beyond(samples: &[f64], q: f64) -> usize {
    match percentile(samples, q) {
        Some(p) => samples.iter().filter(|&&s| s > p).count(),
        None => 0,
    }
}

/// Summary of one timed operation's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub count: usize,
    /// The [`FAST_QUANTILE`].
    pub fast: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        Some(Summary {
            count: samples.len(),
            fast: percentile(samples, FAST_QUANTILE)?,
            p50: percentile(samples, 0.5)?,
            p99: percentile(samples, 0.99)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 1.0), Some(4.0));
        assert_eq!(percentile(&s, 0.5), Some(2.5));
        assert_eq!(percentile(&s, 0.25), Some(1.75));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn percentile_rejects_empty_input_and_bad_quantiles() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0], 1.5), None);
        assert_eq!(percentile(&[1.0], -0.1), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[10.0, 0.0]), Some(5.0));
    }

    #[test]
    fn tail_needs_enough_samples_beyond_it() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(samples_beyond(&s, 0.99), 10);
        let short: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(samples_beyond(&short, 0.99), 1);
    }

    #[test]
    fn summary_totals_and_tails() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let summary = Summary::of(&s).expect("samples");
        assert_eq!(summary.count, 100);
        assert!((summary.fast - 1.99).abs() < 1e-9);
        assert_eq!(summary.p50, 50.5);
        assert!((summary.p99 - 99.01).abs() < 1e-9);
        assert_eq!(Summary::of(&[]), None);
    }
}
