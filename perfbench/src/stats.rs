//! Sample statistics and the percentile sample-count rule.
//!
//! A percentile is only worth reporting when enough samples lie beyond it
//! to make it more than the single slowest observation: the rule here is
//! at least [`MIN_BEYOND`] samples ranked above the nearest-rank position.

use std::ops::RangeInclusive;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Number of samples ranked strictly above the nearest-rank `pct`-th
/// percentile of `n` samples. Integer arithmetic, so `n = 1000, pct = 99`
/// gives exactly 10.
pub fn beyond(n: usize, pct: u32) -> usize {
    let pct = pct.min(100) as usize;
    n - (n * pct).div_ceil(100)
}

/// Whether `n` samples support reporting the `pct`-th percentile.
pub fn supports(n: usize, pct: u32) -> bool {
    beyond(n, pct) >= MIN_BEYOND
}

/// The highest whole percentile `n` samples support, if any.
pub fn max_supported_pct(n: usize) -> Option<u32> {
    (1..100).rev().find(|&p| supports(n, p))
}

/// Fewest samples a round of the window must hold for its percentile to
/// be taken: fewer, and which pooled queries the round happened to draw
/// moves its percentile more than the engine does.
pub const MIN_ROUND: usize = 100;

/// The most rounds, up to `max`, that `n` samples split into while each
/// round still holds [`MIN_ROUND`] samples and supports the `pct`-th
/// percentile; 1 when none does.
pub fn supported_rounds(n: usize, pct: u32, max: usize) -> usize {
    (1..=max.max(1))
        .rev()
        .find(|&r| n / r >= MIN_ROUND && supports(n / r, pct))
        .unwrap_or(1)
}

/// A bag of observations of one quantity, in the caller's unit.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Linear-interpolated percentile (`pct` in 0..=100); NaN when empty,
    /// so a metric nothing was measured for is caught rather than read as 0.
    pub fn percentile(&self, pct: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        onex_bench::harness::percentile(&self.values, pct)
    }

    /// The observations in the order they were taken.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Whether a repeated timing (in seconds) should be taken again: always
    /// until it has `counts.start()` samples, then while it has fewer than
    /// `counts.end()` and they add up to less than `budget_s`.
    pub fn wants_more(&self, counts: &RangeInclusive<usize>, budget_s: f64) -> bool {
        let n = self.len();
        n < *counts.start() || (n < *counts.end() && self.sum() < budget_s)
    }
}

/// Observations stamped with when they completed, so a run can be cut
/// into equal rounds and a statistic taken per round. On a small shared
/// machine other tenants slow the benchmark in stretches of seconds; a
/// stretch slows the rounds it covers, and a quantile over rounds that
/// leans to the unhurt ones reads the engine rather than its neighbours.
#[derive(Debug, Default, Clone)]
pub struct Timed {
    at_s: Vec<f64>,
    values: Vec<f64>,
}

impl Timed {
    pub fn push(&mut self, at_s: f64, v: f64) {
        self.at_s.push(at_s);
        self.values.push(v);
    }

    pub fn extend(&mut self, other: &Timed) {
        self.at_s.extend_from_slice(&other.at_s);
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Every observation, regardless of round.
    pub fn all(&self) -> Samples {
        Samples {
            values: self.values.clone(),
        }
    }

    /// The observations of each of `rounds` equal stretches of
    /// `[0, span_s)`; later stamps fall into the last round.
    pub fn rounds(&self, span_s: f64, rounds: usize) -> Vec<Samples> {
        let mut out = vec![Samples::default(); rounds];
        for (&t, &v) in self.at_s.iter().zip(&self.values) {
            let k = ((t / span_s * rounds as f64).max(0.0) as usize).min(rounds - 1);
            out[k].push(v);
        }
        out
    }

    /// The `across`-th percentile over rounds of each round's `pct`-th
    /// percentile.
    pub fn round_percentile(&self, pct: f64, across: f64, span_s: f64, rounds: usize) -> f64 {
        let mut per_round = Samples::default();
        for r in self.rounds(span_s, rounds) {
            if r.len() > 0 {
                per_round.push(r.percentile(pct));
            }
        }
        per_round.percentile(across)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 99), 10);
        assert!(supports(1000, 99));
        assert_eq!(beyond(999, 99), 9);
        assert!(!supports(999, 99));
    }

    #[test]
    fn p90_needs_a_hundred_and_p50_twenty() {
        assert!(supports(100, 90));
        assert!(!supports(99, 90));
        assert!(supports(20, 50));
        assert!(!supports(19, 50));
    }

    #[test]
    fn max_supported_percentile_follows_sample_count() {
        assert_eq!(max_supported_pct(5), None);
        assert_eq!(max_supported_pct(20), Some(50));
        assert_eq!(max_supported_pct(100), Some(90));
        assert_eq!(max_supported_pct(1000), Some(99));
    }

    #[test]
    fn rounds_shrink_until_each_supports_the_percentile() {
        assert_eq!(supported_rounds(20_000, 90, 10), 10);
        assert_eq!(supported_rounds(450, 90, 10), 4);
        assert_eq!(supported_rounds(250, 50, 10), 2);
        assert_eq!(supported_rounds(250, 50, 4), 2);
        assert_eq!(supported_rounds(3_000, 50, 4), 4);
        assert_eq!(supported_rounds(1_100, 99, 10), 1);
        assert_eq!(supported_rounds(90, 90, 10), 1);
        assert_eq!(supported_rounds(0, 50, 10), 1);
    }

    #[test]
    fn rounds_split_by_completion_time() {
        let mut t = Timed::default();
        for (at, v) in [(0.1, 1.0), (0.6, 2.0), (0.9, 3.0), (1.2, 4.0)] {
            t.push(at, v);
        }
        let r = t.rounds(1.0, 2);
        assert_eq!((r[0].len(), r[1].len()), (1, 3));
        assert_eq!(r[1].median(), 3.0);
    }

    #[test]
    fn round_percentile_ignores_spoilt_rounds() {
        let mut t = Timed::default();
        for k in 0..5 {
            let slow = if k == 2 { 100.0 } else { 1.0 };
            for i in 0..10 {
                t.push(k as f64 + i as f64 / 10.0, slow + i as f64 / 100.0);
            }
        }
        assert!(t.all().percentile(99.0) > 99.0);
        assert!((t.round_percentile(99.0, 50.0, 5.0, 5) - 1.0891).abs() < 1e-9);
        assert!((t.round_percentile(99.0, 25.0, 5.0, 5) - 1.0891).abs() < 1e-9);
    }

    #[test]
    fn repeats_stop_at_the_budget_after_the_least_count() {
        let mut s = Samples::default();
        let counts = 2..=4;
        assert!(s.wants_more(&counts, 1.0));
        s.push(5.0);
        assert!(s.wants_more(&counts, 1.0));
        s.push(5.0);
        assert!(!s.wants_more(&counts, 1.0));
        assert!(s.wants_more(&counts, 11.0));
        s.push(0.1);
        s.push(0.1);
        assert!(!s.wants_more(&counts, 100.0));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 4.0);
        assert!(Samples::default().median().is_nan());
    }
}
