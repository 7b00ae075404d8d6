//! Reward normalization: running statistics, standardization, logistic.
//!
//! §IV-C defines MAK's reward as the *standardized* increment in link
//! coverage, `r̂_t = (r_t − r̄_t)/σ_t`, where `r̄_t` and `σ_t` are the mean
//! and standard deviation of all increments observed up to time `t`. §IV-D
//! then squashes `r̂_t ∈ (−∞, ∞)` into Exp3.1's required `[0, 1]` with the
//! logistic function `1/(1 + e^{−x})`, as in SyzVegas.

/// Numerically stable running mean/variance (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes a value.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Sample standard deviation (n − 1 denominator; 0 with fewer than two
    /// observations). Used for the error bands of Fig. 2.
    pub fn sample_std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }
}

/// The logistic squash `1/(1 + e^{−x})` (§IV-D).
pub fn logistic(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// MAK's reward transform: standardize each raw increment against the
/// history of increments, then squash to `[0, 1]`.
///
/// The current increment is included in the history *before*
/// standardizing — "the mean and standard deviation of all the observed
/// increments up to t" (§IV-C). While the standard deviation is zero (first
/// observations, or a constant stream) the standardized value is defined as
/// 0, i.e. a neutral reward of 0.5 after the squash.
///
/// # Examples
///
/// ```
/// use mak_bandit::normalize::StandardizedReward;
///
/// let mut sr = StandardizedReward::new();
/// let first = sr.transform(10.0);
/// assert!((first - 0.5).abs() < 1e-12, "no history yet: neutral");
/// let spike = sr.transform(50.0);
/// assert!(spike > 0.5, "above-average increment rewards > 0.5");
/// let drought = sr.transform(0.0);
/// assert!(drought < 0.5, "below-average increment rewards < 0.5");
/// ```
#[derive(Debug, Clone, Default)]
pub struct StandardizedReward {
    stats: RunningStats,
}

impl StandardizedReward {
    /// Creates the transform with empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes the raw increment `r_t` and returns the squashed
    /// standardized reward in `[0, 1]`.
    pub fn transform(&mut self, increment: f64) -> f64 {
        self.stats.push(increment);
        let sigma = self.stats.std_dev();
        let standardized = if sigma > 0.0 { (increment - self.stats.mean()) / sigma } else { 0.0 };
        logistic(standardized)
    }

    /// The underlying history statistics.
    pub fn stats(&self) -> &RunningStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = RunningStats::new();
        for x in data {
            s.push(x);
        }
        let mean: f64 = data.iter().sum::<f64>() / data.len() as f64;
        let var: f64 = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / data.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.sample_std_dev(), 0.0);
    }

    #[test]
    fn sample_std_exceeds_population_std() {
        let mut s = RunningStats::new();
        for x in [1.0, 2.0, 3.0] {
            s.push(x);
        }
        assert!(s.sample_std_dev() > s.std_dev());
    }

    #[test]
    fn logistic_properties() {
        assert!((logistic(0.0) - 0.5).abs() < 1e-12);
        assert!(logistic(10.0) > 0.999);
        assert!(logistic(-10.0) < 0.001);
        assert!(logistic(f64::INFINITY) <= 1.0);
        assert!(logistic(f64::NEG_INFINITY) >= 0.0);
    }

    #[test]
    fn constant_stream_is_neutral() {
        let mut sr = StandardizedReward::new();
        for _ in 0..10 {
            assert!((sr.transform(5.0) - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn stagnation_then_small_gain_rewards_well() {
        // §IV-C: "we would not penalize a small increment if the link
        // coverage has stagnated over many steps".
        let mut sr = StandardizedReward::new();
        for _ in 0..50 {
            sr.transform(0.0);
        }
        let after_stagnation = sr.transform(2.0);
        assert!(after_stagnation > 0.9, "got {after_stagnation}");
    }

    #[test]
    fn small_gain_after_boom_is_penalized() {
        // §IV-C: "we would penalize a small increment in link coverage if it
        // follows a significant increase over a short period".
        let mut sr = StandardizedReward::new();
        for _ in 0..20 {
            sr.transform(30.0);
        }
        let small = sr.transform(1.0);
        assert!(small < 0.1, "got {small}");
    }

    #[test]
    fn transform_output_always_in_unit_interval() {
        let mut sr = StandardizedReward::new();
        for i in 0..1_000 {
            let r = sr.transform(((i * 7919) % 97) as f64 - 48.0);
            assert!((0.0..=1.0).contains(&r));
        }
    }
}
