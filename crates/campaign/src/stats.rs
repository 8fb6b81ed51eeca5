//! Statistical fault injection: sample sizing, confidence intervals, and
//! the streaming per-cell statistics the sequential sampling engine folds.
//!
//! Sec. IV: "The number of executions of each application for every
//! experiment varied from 2501 to 2504 and has been calculated using the
//! method presented in [Leveugle et al., DATE'09], setting 99% as a target
//! confidence level and 1% as the error margin."
//!
//! The fixed-n sizing pre-commits to the worst case (p = 0.5). The
//! sequential engine ([`crate::adaptive`]) instead folds outcomes into a
//! [`CellStats`] as they arrive and stops a cell the moment every
//! outcome-rate confidence interval is tighter than the target half-width.
//! That stopping rule needs the **Wilson score interval**: the naive normal
//! approximation has zero half-width at p̂ ∈ {0, 1}, so a sequential
//! stopper using it would terminate every cell after its very first
//! sample.

use crate::report::OutcomeTable;
use gemfi::Outcome;
use std::fmt;

/// Two-sided z-value for a 99% confidence level.
pub const Z_99: f64 = 2.5758;
/// Two-sided z-value for a 95% confidence level.
pub const Z_95: f64 = 1.9600;

/// The Leveugle et al. statistical-fault-injection sample size:
///
/// ```text
/// n = N / (1 + e²·(N−1) / (t²·p·(1−p)))
/// ```
///
/// where `N` is the fault-space population, `e` the error margin, `t` the
/// confidence z-value, and `p` the (worst-case 0.5) outcome proportion.
///
/// # Panics
///
/// Panics on nonsensical inputs (`e <= 0`, `p` outside (0,1), `population
/// == 0`).
pub fn leveugle_sample_size(population: u64, error_margin: f64, z: f64, p: f64) -> u64 {
    assert!(population > 0, "empty fault space");
    assert!(error_margin > 0.0 && z > 0.0);
    assert!(p > 0.0 && p < 1.0);
    let n = population as f64;
    let denom = 1.0 + error_margin * error_margin * (n - 1.0) / (z * z * p * (1.0 - p));
    (n / denom).ceil() as u64
}

/// The Wilson score confidence interval for a proportion
/// `successes/trials` at z-value `z`, as `(lower, upper)` bounds in
/// `[0, 1]`:
///
/// ```text
/// (p̂ + z²/2n ± z·√(p̂(1−p̂)/n + z²/4n²)) / (1 + z²/n)
/// ```
///
/// Unlike the normal approximation, the interval stays non-degenerate at
/// the boundaries: at p̂ = 1 the lower bound is `n/(n+z²)`, never 1 — the
/// property the sequential stopper relies on. Returns `(0, 1)` for zero
/// trials (no information).
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Wilson-score confidence half-interval for a proportion
/// `successes/trials` at z-value `z`: half the width of
/// [`wilson_interval`].
///
/// This used to be the normal-approximation half-width
/// `z·√(p̂(1−p̂)/n)`, which collapses to zero at p̂ ∈ {0, 1} — fatal for
/// sequential stopping (one sample would "decide" any cell) and
/// misleading even for the Fig. 7-style error bars it was drawn for.
pub(crate) fn proportion_ci(successes: u64, trials: u64, z: f64) -> f64 {
    if trials == 0 {
        return 0.0;
    }
    let (lo, hi) = wilson_interval(successes, trials, z);
    (hi - lo) / 2.0
}

/// Mean and the half-width of a z-based confidence interval over samples
/// (for timing comparisons like Fig. 7).
pub fn mean_ci(samples: &[f64], z: f64) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return (mean, 0.0);
    }
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1.0);
    (mean, z * (var / n).sqrt())
}

/// Streaming outcome statistics for one campaign cell (one fault family of
/// one workload): an incremental fold of classified outcomes with Wilson
/// confidence intervals over every outcome rate. This is the aggregation
/// the sequential engine's stopping rule reads after every round, and the
/// same per-cell fold a campaign server's metrics endpoint would serve.
///
/// Infrastructure failures are *not* experiment evidence and must not be
/// folded here (the drivers count them against the budget instead).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellStats {
    table: OutcomeTable,
}

impl CellStats {
    /// An empty fold.
    pub fn new() -> CellStats {
        CellStats::default()
    }

    /// Folds one classified experiment outcome.
    ///
    /// # Panics
    ///
    /// Panics on [`Outcome::Infrastructure`]: harness failures carry no
    /// information about the cell and would bias every rate.
    pub fn record(&mut self, outcome: Outcome) {
        assert!(outcome.is_experiment_outcome(), "fold experiment outcomes only, got {outcome}");
        self.table.add(outcome);
    }

    /// Experiments folded so far.
    pub fn n(&self) -> u64 {
        self.table.total()
    }

    /// The observed rate of one outcome class.
    pub fn rate(&self, outcome: Outcome) -> f64 {
        self.table.fraction(outcome)
    }

    /// Wilson confidence half-interval of one outcome rate at z-value `z`.
    pub fn halfwidth(&self, outcome: Outcome, z: f64) -> f64 {
        proportion_ci(self.table.count(outcome), self.n(), z)
    }

    /// The widest Wilson half-interval over all experiment outcome classes
    /// — the quantity the stopping rule compares against the target. With
    /// no samples yet this is 0.5 (the `(0, 1)` no-information interval).
    pub fn max_halfwidth(&self, z: f64) -> f64 {
        if self.n() == 0 {
            return 0.5;
        }
        Outcome::ALL
            .iter()
            .filter(|o| o.is_experiment_outcome())
            .map(|o| self.halfwidth(*o, z))
            .fold(0.0, f64::max)
    }

    /// The underlying outcome counts.
    pub fn table(&self) -> &OutcomeTable {
        &self.table
    }
}

/// The sequential stopping rule: a cell is decided once it holds at least
/// `min_n` experiments *and* every outcome-rate Wilson CI at confidence
/// `z` is no wider than `halfwidth` on each side.
///
/// The `min_n` floor guards the rule against tiny-sample flukes: Wilson
/// intervals are honest but a lopsided cell could otherwise stop on single-
/// digit evidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StopRule {
    /// Confidence z-value of the per-rate intervals.
    pub z: f64,
    /// Target half-width every outcome-rate CI must reach.
    pub halfwidth: f64,
    /// Minimum experiments per cell before it may stop.
    pub min_n: u64,
}

impl StopRule {
    /// Whether `stats` satisfies the rule.
    pub fn satisfied(&self, stats: &CellStats) -> bool {
        stats.n() >= self.min_n && stats.max_halfwidth(self.z) <= self.halfwidth
    }
}

/// The per-cell sampling state machine. A cell starts [`Sampling`] and
/// transitions exactly once, at a round boundary, to either [`Decided`]
/// (the stopping rule is satisfied — the cell stops consuming budget) or
/// [`Exhausted`] (its fault-space population or the campaign budget ran
/// out first; the estimate stands, at whatever width it reached).
///
/// [`Sampling`]: CellDecision::Sampling
/// [`Decided`]: CellDecision::Decided
/// [`Exhausted`]: CellDecision::Exhausted
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellDecision {
    /// Still drawing samples.
    Sampling,
    /// Stopped: every outcome-rate CI reached the target half-width.
    Decided {
        /// Experiments folded when the rule was met.
        n: u64,
    },
    /// Stopped without meeting the rule (population or budget exhausted).
    Exhausted {
        /// Experiments folded when sampling ended.
        n: u64,
    },
}

impl CellDecision {
    /// Whether the cell is still drawing.
    pub fn is_sampling(self) -> bool {
        matches!(self, CellDecision::Sampling)
    }

    /// Whether the cell stopped because the CI target was met.
    pub fn is_decided(self) -> bool {
        matches!(self, CellDecision::Decided { .. })
    }
}

impl fmt::Display for CellDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellDecision::Sampling => write!(f, "sampling"),
            CellDecision::Decided { n } => write!(f, "decided@{n}"),
            CellDecision::Exhausted { n } => write!(f, "exhausted@{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_population_converges_to_the_asymptote() {
        // n∞ = t²·p(1−p)/e² ≈ 16587 for 99%/1%/0.5.
        let n = leveugle_sample_size(u64::MAX / 2, 0.01, Z_99, 0.5);
        assert!((16_000..17_200).contains(&n), "n = {n}");
    }

    #[test]
    fn small_population_needs_nearly_everything() {
        let n = leveugle_sample_size(100, 0.01, Z_99, 0.5);
        assert!(n >= 99, "n = {n}");
    }

    #[test]
    fn reproduces_the_papers_2501_scale() {
        // The paper's ≈2501 samples correspond to a population around 2.9k
        // under 99%/1%: check the formula lands in that regime.
        let n = leveugle_sample_size(2945, 0.01, Z_99, 0.5);
        assert!((2480..2520).contains(&n), "n = {n}");
    }

    #[test]
    fn sample_size_is_monotone_in_population() {
        let mut last = 0;
        for pop in [10, 100, 1_000, 10_000, 100_000, 1_000_000] {
            let n = leveugle_sample_size(pop, 0.01, Z_99, 0.5);
            assert!(n >= last);
            assert!(n <= pop);
            last = n;
        }
    }

    #[test]
    fn wider_margin_means_fewer_samples() {
        let tight = leveugle_sample_size(1_000_000, 0.01, Z_99, 0.5);
        let loose = leveugle_sample_size(1_000_000, 0.05, Z_99, 0.5);
        assert!(loose < tight / 10);
    }

    /// Tabulated Wilson 95% intervals (z = 1.96), e.g. Brown/Cai/DasGupta
    /// ("Interval Estimation for a Binomial Proportion") and any standard
    /// Wilson calculator.
    #[test]
    fn wilson_matches_tabulated_values() {
        let cases = [
            (0, 10, 0.0000, 0.2775),
            (1, 10, 0.0179, 0.4041),
            (5, 10, 0.2366, 0.7634),
            (10, 10, 0.7225, 1.0000),
            (50, 100, 0.4038, 0.5962),
            (90, 100, 0.8254, 0.9448),
        ];
        for (s, n, lo, hi) in cases {
            let (wlo, whi) = wilson_interval(s, n, Z_95);
            assert!((wlo - lo).abs() < 5e-4, "{s}/{n}: lo {wlo:.4} want {lo:.4}");
            assert!((whi - hi).abs() < 5e-4, "{s}/{n}: hi {whi:.4} want {hi:.4}");
        }
    }

    #[test]
    fn wilson_is_nondegenerate_at_the_boundaries() {
        // At p̂ = 1 the lower bound is n/(n+z²); at p̂ = 0 the upper bound
        // is z²/(n+z²). A normal-approximation interval is a point here.
        let z2 = Z_95 * Z_95;
        for n in [1u64, 5, 40, 385] {
            let (lo, hi) = wilson_interval(n, n, Z_95);
            assert!((hi - 1.0).abs() < 1e-12);
            assert!((lo - n as f64 / (n as f64 + z2)).abs() < 1e-9, "n={n} lo={lo}");
            assert!(proportion_ci(n, n, Z_95) > 0.0, "never zero at p̂=1");
            assert!(proportion_ci(0, n, Z_95) > 0.0, "never zero at p̂=0");
        }
    }

    #[test]
    fn proportion_ci_shrinks_with_trials() {
        let a = proportion_ci(50, 100, Z_95);
        let b = proportion_ci(500, 1_000, Z_95);
        assert!(b < a);
        assert_eq!(proportion_ci(0, 0, Z_95), 0.0);
    }

    #[test]
    fn mean_ci_basics() {
        let (m, ci) = mean_ci(&[2.0, 4.0, 6.0], Z_95);
        assert!((m - 4.0).abs() < 1e-12);
        assert!(ci > 0.0);
        assert_eq!(mean_ci(&[], Z_95), (0.0, 0.0));
        assert_eq!(mean_ci(&[3.0], Z_95), (3.0, 0.0));
    }

    #[test]
    fn cell_stats_fold_incrementally() {
        let mut s = CellStats::new();
        assert_eq!(s.n(), 0);
        assert!((s.max_halfwidth(Z_95) - 0.5).abs() < 1e-12, "no info: (0,1)/2");
        for _ in 0..9 {
            s.record(Outcome::Crashed);
        }
        s.record(Outcome::Sdc);
        assert_eq!(s.n(), 10);
        assert!((s.rate(Outcome::Crashed) - 0.9).abs() < 1e-12);
        // The widest CI belongs to the most-mixed class.
        let w = s.max_halfwidth(Z_95);
        assert!((w - s.halfwidth(Outcome::Crashed, Z_95)).abs() < 1e-12);
        assert!(w > 0.0 && w < 0.5);
    }

    #[test]
    fn lopsided_cells_tighten_much_faster_than_mixed_ones() {
        let mut lopsided = CellStats::new();
        let mut mixed = CellStats::new();
        for i in 0..60 {
            lopsided.record(Outcome::NonPropagated);
            mixed.record(if i % 2 == 0 { Outcome::Crashed } else { Outcome::Sdc });
        }
        assert!(lopsided.max_halfwidth(Z_95) < mixed.max_halfwidth(Z_95) / 2.0);
    }

    #[test]
    fn stop_rule_enforces_the_min_n_floor() {
        let rule = StopRule { z: Z_95, halfwidth: 0.2, min_n: 30 };
        let mut s = CellStats::new();
        for _ in 0..29 {
            s.record(Outcome::NonPropagated);
            assert!(!rule.satisfied(&s), "n={} below the floor", s.n());
        }
        s.record(Outcome::NonPropagated);
        assert!(rule.satisfied(&s), "perfectly lopsided at n=30, target 0.2");
    }

    #[test]
    fn stop_rule_waits_for_every_rate_not_just_the_dominant_one() {
        // 50/50 at n=40: the two live classes have ~±0.15 intervals.
        let rule = StopRule { z: Z_95, halfwidth: 0.1, min_n: 10 };
        let mut s = CellStats::new();
        for i in 0..40 {
            s.record(if i % 2 == 0 { Outcome::Crashed } else { Outcome::Correct });
        }
        assert!(!rule.satisfied(&s));
        for i in 0..160 {
            s.record(if i % 2 == 0 { Outcome::Crashed } else { Outcome::Correct });
        }
        assert!(rule.satisfied(&s), "hw={}", s.max_halfwidth(Z_95));
    }

    #[test]
    #[should_panic(expected = "experiment outcomes only")]
    fn infrastructure_outcomes_are_rejected_by_the_fold() {
        CellStats::new().record(Outcome::Infrastructure);
    }

    #[test]
    fn decisions_display_compactly() {
        assert_eq!(CellDecision::Sampling.to_string(), "sampling");
        assert_eq!(CellDecision::Decided { n: 42 }.to_string(), "decided@42");
        assert_eq!(CellDecision::Exhausted { n: 7 }.to_string(), "exhausted@7");
        assert!(CellDecision::Sampling.is_sampling());
        assert!(CellDecision::Decided { n: 1 }.is_decided());
        assert!(!CellDecision::Exhausted { n: 1 }.is_decided());
    }
}
