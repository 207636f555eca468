//! Order statistics for timing samples: median, quartiles, the
//! quietest-window median and the "highest percentile with at least ten
//! samples beyond it" rule.

/// Median and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear interpolation at 1-based fractional rank `rank` of a sorted
/// slice, clamped to the ends.
fn at_rank(sorted: &[f64], rank: f64) -> f64 {
    let n = sorted.len();
    let rank = rank.clamp(1.0, n as f64);
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    if lo >= n {
        sorted[n - 1]
    } else {
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    }
}

/// Median of `samples` (mean of the two middle values for even `n`).
///
/// # Panics
///
/// Panics on an empty slice: a timing without samples is a harness bug.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Median and quartiles. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method: rank
/// `q·(n+1)`), so a spread computed from this harness's output matches
/// one computed over the same numbers by the driver.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples to summarize");
    let s = sorted(samples);
    let n = s.len();
    let rank = |q: f64| q * (n as f64 + 1.0);
    Summary {
        n,
        median: at_rank(&s, rank(0.5)),
        q1: at_rank(&s, rank(0.25)),
        q3: at_rank(&s, rank(0.75)),
    }
}

/// The lowest median among the consecutive windows of `window` samples
/// (a shorter last window is dropped unless it is the only one).
///
/// The box this benchmark is measured on shares each core with another
/// tenant's hyperthread: whenever that neighbour is busy, every
/// operation here takes about 1.7 times as long, for seconds to minutes
/// at a time (README, "Noise and bounds"). A median over the whole run
/// reports how busy the neighbour was; the median of the run's quietest
/// window reports the program. Samples are in the order they were
/// measured, so a window is a stretch of wall time.
///
/// # Panics
///
/// Panics on an empty slice or a zero window.
pub fn quietest_window_median(samples: &[f64], window: usize) -> f64 {
    assert!(!samples.is_empty(), "no samples to summarize");
    let whole = samples.len() / window * window;
    let windows = if whole == 0 {
        samples
    } else {
        &samples[..whole]
    };
    windows
        .chunks(window)
        .map(median)
        .fold(f64::INFINITY, f64::min)
}

/// The percentiles a tail is reported at, ascending, each with the
/// per-mille share of samples beyond it (integers, so the ten-sample
/// rule is exact at the boundaries).
const TAIL_PERCENTILES: [(f64, usize); 3] = [(90.0, 100), (99.0, 10), (99.9, 1)];

/// The highest of the reporting percentiles that still has at least ten
/// samples beyond it at sample count `n`, or `None` when even p90 has
/// fewer (n < 100): a tail read off fewer than ten samples is noise.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .rfind(|(_, beyond_per_mille)| n * beyond_per_mille >= 10 * 1000)
        .map(|&(p, _)| p)
}

/// The `p`-th percentile (0–100) of `samples` by the nearest-rank rule
/// (the smallest sample with at least `p`% of the samples at or below
/// it), so the reported tail is a latency some request really saw.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "no samples for a percentile");
    let s = sorted(samples);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[2.0, 3.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // One sample: every quantile is that sample.
        let s = summarize(&[4.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 4.0, 4.0, 4.0));
    }

    #[test]
    fn quietest_window_is_the_lowest_window_median() {
        // Windows of 3: medians 9, 2, 5; the trailing 1.0 is dropped.
        let v = [9.0, 8.0, 10.0, 2.0, 1.0, 3.0, 5.0, 4.0, 6.0, 1.0];
        assert_eq!(quietest_window_median(&v, 3), 2.0);
        // Window of one: the fastest sample.
        assert_eq!(quietest_window_median(&v, 1), 1.0);
        // Fewer samples than a window: their median.
        assert_eq!(quietest_window_median(&[4.0, 2.0], 32), 3.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(240), Some(90.0)); // 24 beyond p90, 2.4 beyond p99
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0, 1.0], 50.0), 1.0);
    }
}
