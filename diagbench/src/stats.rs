//! The benchmark's own arithmetic: percentile selection and the rate
//! ladder's pass rule. Kept free of I/O so the self-tests can pin it.

/// Samples required beyond a reported percentile: a tail value backed
/// by fewer than this many samples is noise, not a percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of `xs` (`p` in `0..=100`), or `None` when
/// `xs` is empty. Sorting is total, so NaN-free inputs repeat exactly.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[nearest_rank(v.len(), p) - 1])
}

/// 1-based nearest rank: the smallest rank with at least `p`% of the
/// samples at or below it.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `p`th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// Whether `n` samples back a `p`th percentile with at least
/// [`TAIL_SAMPLES`] samples beyond it.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= TAIL_SAMPLES
}

/// The fewest samples that support a `p`th percentile.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| percentile_supported(n, p))
        .unwrap_or(usize::MAX)
}

/// Median (the mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Splits `xs` into `k` contiguous parts of near-equal length (at least
/// one part, none empty unless `xs` is).
pub fn parts<T>(xs: &[T], k: usize) -> Vec<&[T]> {
    let k = k.clamp(1, xs.len().max(1));
    (0..k)
        .map(|i| &xs[i * xs.len() / k..(i + 1) * xs.len() / k])
        .collect()
}

/// The median over consecutive parts of `xs` of each part's `p`th
/// percentile. Parts hold at least `min_len` samples (so a tail
/// percentile keeps its support) and there are at most `max` of them:
/// a burst of interference on the machine moves one part, not the
/// median.
pub fn segmented_percentile(xs: &[f64], p: f64, min_len: usize, max: usize) -> Option<f64> {
    let k = (xs.len() / min_len.max(1)).clamp(1, max.max(1));
    let each: Vec<f64> = parts(xs, k)
        .iter()
        .filter_map(|part| percentile(part, p))
        .collect();
    median(&each)
}

/// The median over `k` consecutive parts of the completion rate:
/// `done` holds `(seconds since the start, reports completed)` in time
/// order, and each part's rate is its reports over the time since the
/// previous part ended.
pub fn segmented_rate(done: &[(f64, usize)], k: usize) -> Option<f64> {
    let mut since = 0.0;
    let mut rates = Vec::new();
    for part in parts(done, k) {
        let Some(&(end, _)) = part.last() else {
            continue;
        };
        let reports: usize = part.iter().map(|d| d.1).sum();
        if end > since {
            rates.push(reports as f64 / (end - since));
        }
        since = end;
    }
    median(&rates)
}

/// One open-loop rate step as the ladder judges it.
#[derive(Clone, Debug)]
pub struct StepOutcome {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Latency from each request's due time, ms, in due order. A
    /// failed request (refused, errored, timed out, lost) is `None`: it
    /// misses any latency limit.
    pub latencies_ms: Vec<Option<f64>>,
}

impl StepOutcome {
    /// Requests that failed.
    pub fn failed(&self) -> usize {
        self.latencies_ms.iter().filter(|l| l.is_none()).count()
    }

    /// `p`th percentile with every failure counted as infinitely late.
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        let all: Vec<f64> = self
            .latencies_ms
            .iter()
            .map(|l| l.unwrap_or(f64::INFINITY))
            .collect();
        percentile(&all, p)
    }

    /// Median latency of the last tenth of the step (by due time),
    /// failures infinitely late. A backlog that grows through the step
    /// shows here first.
    pub fn tail_median_ms(&self) -> Option<f64> {
        let n = self.latencies_ms.len();
        let tail = (n / 10).max(1).min(n);
        let last: Vec<f64> = self.latencies_ms[n - tail..]
            .iter()
            .map(|l| l.unwrap_or(f64::INFINITY))
            .collect();
        median(&last)
    }

    /// The ladder's pass rule: nothing failed, the p90 is supported by
    /// enough samples and meets `limit_ms`, and the backlog did not
    /// grow (the last tenth's median also meets the limit).
    pub fn passes(&self, limit_ms: f64) -> bool {
        let n = self.latencies_ms.len();
        self.failed() == 0
            && percentile_supported(n, 90.0)
            && self.percentile_ms(90.0).is_some_and(|p| p <= limit_ms)
            && self.tail_median_ms().is_some_and(|t| t <= limit_ms)
    }
}

/// Index of the highest step that passes, scanning in ladder order and
/// stopping at the first failure (steps above a failing one do not
/// count even if they happened to pass).
pub fn highest_passing(steps: &[StepOutcome], limit_ms: f64) -> Option<usize> {
    steps
        .iter()
        .take_while(|s| s.passes(limit_ms))
        .count()
        .checked_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 90.0), Some(90.0));
    }

    #[test]
    fn tail_support_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(percentile_supported(100, 90.0));
        assert!(!percentile_supported(99, 90.0));
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(50.0), 20);
        assert_eq!(samples_needed(99.0), 1000);
    }

    #[test]
    fn segments_report_the_median_part() {
        assert_eq!(
            parts(&[1, 2, 3, 4, 5], 2),
            vec![&[1, 2][..], &[3, 4, 5][..]]
        );
        assert_eq!(parts::<u8>(&[], 3).len(), 1);
        // 330 samples in 3 parts of 110; a burst in the last part moves
        // its p90 but not the median of the three.
        let mut xs = vec![10.0; 330];
        for x in &mut xs[220..] {
            *x = 90.0;
        }
        assert_eq!(segmented_percentile(&xs, 90.0, 110, 5), Some(10.0));
        // Too few samples for two parts: one part, the plain percentile.
        assert_eq!(segmented_percentile(&xs[..150], 50.0, 110, 5), Some(10.0));
        // Rates: 10 reports per second, then a stalled part.
        let done: Vec<(f64, usize)> = (1..=30).map(|i| (f64::from(i) * 0.1, 1)).collect();
        let mut stalled = done.clone();
        for d in &mut stalled[20..] {
            d.0 += 5.0;
        }
        assert!((segmented_rate(&done, 3).unwrap() - 10.0).abs() < 1e-9);
        assert!((segmented_rate(&stalled, 3).unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(segmented_rate(&[], 3), None);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    fn step(rate: f64, lat: impl Fn(usize) -> Option<f64>) -> StepOutcome {
        StepOutcome {
            rate,
            latencies_ms: (0..110).map(lat).collect(),
        }
    }

    #[test]
    fn ladder_pass_rule() {
        let ok = step(10.0, |_| Some(20.0));
        assert!(ok.passes(50.0));
        // One refused request fails the step outright.
        let refused = step(10.0, |i| if i == 5 { None } else { Some(20.0) });
        assert_eq!(refused.failed(), 1);
        assert!(!refused.passes(50.0));
        // p90 over the limit.
        let slow = step(10.0, |i| Some(if i % 5 == 0 { 80.0 } else { 20.0 }));
        assert!(!slow.passes(50.0));
        // A growing backlog: the tail is late although p90 is fine.
        let mut growing = step(10.0, |_| Some(20.0));
        let n = growing.latencies_ms.len();
        for l in &mut growing.latencies_ms[n - 11..] {
            *l = Some(500.0);
        }
        assert!(growing.percentile_ms(90.0).is_some_and(|p| p <= 50.0));
        assert!(!growing.passes(50.0));
        // Too few samples cannot back a p90.
        let short = StepOutcome {
            rate: 10.0,
            latencies_ms: vec![Some(1.0); 50],
        };
        assert!(!short.passes(50.0));
    }

    #[test]
    fn ladder_stops_at_first_failure() {
        let good = step(10.0, |_| Some(20.0));
        let bad = step(20.0, |_| None);
        let steps = vec![good.clone(), good.clone(), bad, good];
        assert_eq!(highest_passing(&steps, 50.0), Some(1));
        assert_eq!(highest_passing(&steps[2..], 50.0), None);
    }
}
