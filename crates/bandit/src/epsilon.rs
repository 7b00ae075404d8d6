//! ε-greedy stochastic bandit — an ablation baseline.
//!
//! Not part of the paper's system, but used by the ablation benches to show
//! why MAK needs an *adversarial* bandit: ε-greedy estimates a fixed mean
//! reward per arm, so when the best navigation strategy changes between
//! application regions (§IV-D) its stale estimates keep it on the old arm.

use crate::policy::BanditPolicy;
use rand::Rng;

/// ε-greedy over `K` arms with empirical-mean value estimates.
///
/// # Examples
///
/// ```
/// use mak_bandit::epsilon::EpsilonGreedy;
/// use mak_bandit::policy::BanditPolicy;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut bandit = EpsilonGreedy::new(3, 0.1);
/// for _ in 0..300 {
///     let arm = bandit.choose(&mut rng);
///     bandit.update(arm, if arm == 2 { 0.9 } else { 0.1 });
/// }
/// let probs = bandit.probabilities();
/// assert!(probs[2] > probs[0], "greedy mass on the best arm");
/// ```
#[derive(Debug, Clone)]
pub struct EpsilonGreedy {
    epsilon: f64,
    counts: Vec<u64>,
    means: Vec<f64>,
}

impl EpsilonGreedy {
    /// Creates the learner.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `epsilon` is outside `[0, 1]`.
    pub fn new(k: usize, epsilon: f64) -> Self {
        assert!(k > 0, "EpsilonGreedy needs at least one arm");
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0, 1]");
        EpsilonGreedy { epsilon, counts: vec![0; k], means: vec![0.0; k] }
    }

    fn greedy_arm(&self) -> usize {
        // Prefer untried arms, then the best empirical mean.
        if let Some(i) = self.counts.iter().position(|&c| c == 0) {
            return i;
        }
        self.means
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("means are finite"))
            .map(|(i, _)| i)
            .expect("non-empty")
    }
}

impl BanditPolicy for EpsilonGreedy {
    fn arms(&self) -> usize {
        self.counts.len()
    }

    fn choose<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        if rng.gen::<f64>() < self.epsilon {
            rng.gen_range(0..self.counts.len())
        } else {
            self.greedy_arm()
        }
    }

    fn update(&mut self, arm: usize, reward: f64) {
        assert!(arm < self.counts.len(), "arm {arm} out of range");
        self.counts[arm] += 1;
        let n = self.counts[arm] as f64;
        self.means[arm] += (reward - self.means[arm]) / n;
    }

    fn probabilities(&self) -> Vec<f64> {
        let k = self.counts.len();
        let mut p = vec![self.epsilon / k as f64; k];
        p[self.greedy_arm()] += 1.0 - self.epsilon;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn converges_to_best_arm() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = EpsilonGreedy::new(3, 0.1);
        for _ in 0..1_000 {
            let arm = b.choose(&mut rng);
            b.update(arm, if arm == 2 { 1.0 } else { 0.2 });
        }
        assert_eq!(b.greedy_arm(), 2);
        let p = b.probabilities();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tries_every_arm_first() {
        let mut b = EpsilonGreedy::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            let arm = b.choose(&mut rng);
            seen.insert(arm);
            b.update(arm, 0.0);
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn is_slow_to_adapt_to_drift() {
        // The motivation for the adversarial formulation: after a long
        // stationary phase, ε-greedy's empirical means take a long time to
        // flip, unlike Exp3.1's epoch resets.
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = EpsilonGreedy::new(2, 0.05);
        for _ in 0..5_000 {
            let arm = b.choose(&mut rng);
            b.update(arm, if arm == 0 { 1.0 } else { 0.0 });
        }
        // Drift: arm 1 becomes the good arm.
        for _ in 0..500 {
            let arm = b.choose(&mut rng);
            b.update(arm, if arm == 1 { 1.0 } else { 0.0 });
        }
        assert_eq!(b.greedy_arm(), 0, "stale means keep the old arm greedy");
    }
}
