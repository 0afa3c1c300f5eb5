//! The estimators the protocol rests on: within-round percentiles under
//! the ten-samples-beyond rule, and the across-round quiet decile.

/// Which way a metric improves; decides which decile is the quiet one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Nearest-rank percentile of an unsorted sample, or `None` when the
/// sample cannot support it: above the median, a percentile is reported
/// only with at least ten samples beyond it (p90 needs n >= 100).
/// Failed operations enter as `f64::INFINITY`, so they push every
/// percentile up instead of vanishing from it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "percentile: q out of range");
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if q > 0.5 && n - rank < 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Quantile with linear interpolation between order statistics (the
/// "inclusive" method), for the handful of per-round values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss)]
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    #[allow(clippy::cast_precision_loss)]
    let frac = pos - lo as f64;
    // An infinite neighbour (a round full of failures) must not turn a
    // finite quantile into NaN through `inf * 0`.
    if frac == 0.0 {
        sorted[lo]
    } else {
        sorted[lo] + frac * (sorted[hi] - sorted[lo])
    }
}

/// The quiet-decile aggregate of one value per round: the lower decile
/// for a metric that is better lower, the upper decile for one that is
/// better higher.
///
/// Interference on a shared host only ever slows a round down, so the
/// quiet side of the distribution is the one that repeats. How far out on
/// that side was measured, not assumed: in its noisy phases this host
/// flips between two levels every few seconds (`try_serve` of one node at
/// 41-43 us or at 62-68 us, nothing in between) and spends as little as a
/// fifth of the time on the fast one, so the lower *quartile* of a run's
/// rounds landed on either level by chance (ten-run spread 51 %). The
/// decile needs one quiet round in ten, and unlike the minimum it is not
/// set by a single round once a run has more than ten.
pub fn quiet_decile(per_round: &[f64], better: Better) -> f64 {
    match better {
        Better::Lower => quantile(per_round, 0.10),
        Better::Higher => quantile(per_round, 0.90),
    }
}

/// Sample count and min/q25/median/q75/max across rounds, for the
/// provenance block.
#[derive(Clone, Copy, Debug)]
pub struct Spread {
    pub n: usize,
    pub min: f64,
    pub q25: f64,
    pub median: f64,
    pub q75: f64,
    pub max: f64,
}

pub fn spread(values: &[f64]) -> Spread {
    Spread {
        n: values.len(),
        min: quantile(values, 0.0),
        q25: quantile(values, 0.25),
        median: quantile(values, 0.5),
        q75: quantile(values, 0.75),
        max: quantile(values, 1.0),
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the test also covers the sort.
        #[allow(clippy::cast_precision_loss)]
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
    }

    #[test]
    fn median_is_always_supported() {
        assert_eq!(percentile(&[3.0], 0.5), Some(3.0));
        assert_eq!(percentile(&ramp(4), 0.5), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn failed_operations_raise_the_percentile() {
        let mut s = ramp(100);
        for v in s.iter_mut().take(20) {
            *v = f64::INFINITY;
        }
        assert_eq!(percentile(&s, 0.9), Some(f64::INFINITY));
        assert!(percentile(&s, 0.5).unwrap().is_finite());
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[1.0, 2.0, f64::INFINITY], 0.5), 2.0);
    }

    /// 20 rounds around 100 with +-1 % jitter; rounds 2..18 (80 %) sit in
    /// a +55 % interference phase.
    fn rounds_with_burst(burst: bool) -> Vec<f64> {
        (0..20u32)
            .map(|r| {
                let quiet = 100.0 + f64::from(r * 7 % 5) * 0.5 - 1.0;
                if burst && (2..18).contains(&r) {
                    quiet * 1.55
                } else {
                    quiet
                }
            })
            .collect()
    }

    #[test]
    fn interference_over_80_percent_of_rounds_does_not_move_the_quiet_decile() {
        let clean = quiet_decile(&rounds_with_burst(false), Better::Lower);
        let hit = quiet_decile(&rounds_with_burst(true), Better::Lower);
        assert!(
            (hit - clean).abs() / clean < 0.01,
            "latency: {clean} -> {hit}"
        );
        // The median moves with it, and so does the lower quartile.
        assert!(median(&rounds_with_burst(true)) / median(&rounds_with_burst(false)) > 1.5);
        assert!(quantile(&rounds_with_burst(true), 0.25) / clean > 1.2);

        // Same for a rate, where interference lowers the value.
        let rate = |burst| {
            rounds_with_burst(burst)
                .iter()
                .map(|t| 1e6 / t)
                .collect::<Vec<_>>()
        };
        let clean = quiet_decile(&rate(false), Better::Higher);
        let hit = quiet_decile(&rate(true), Better::Higher);
        assert!((hit - clean).abs() / clean < 0.01, "rate: {clean} -> {hit}");
    }

    #[test]
    fn spread_reports_the_five_numbers() {
        let s = spread(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(
            (s.n, s.min, s.q25, s.median, s.q75, s.max),
            (5, 1.0, 2.0, 3.0, 4.0, 5.0)
        );
    }
}
