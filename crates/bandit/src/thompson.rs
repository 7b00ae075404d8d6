//! Thompson sampling with Beta posteriors — an ablation baseline.
//!
//! A Bayesian stochastic bandit: each arm keeps a Beta(α, β) posterior over
//! its success probability; at each step the learner samples from every
//! posterior and plays the argmax. Rewards in `[0, 1]` update the posterior
//! fractionally (α += r, β += 1 − r). Like ε-greedy and UCB1 it assumes
//! stationary rewards, so the `ablation2` family uses it to probe the cost
//! of the stochastic assumption that §IV-D argues against.

use crate::policy::BanditPolicy;
use rand::Rng;

/// Thompson sampling over `K` arms with Beta posteriors.
///
/// # Examples
///
/// ```
/// use mak_bandit::thompson::Thompson;
/// use mak_bandit::policy::BanditPolicy;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut bandit = Thompson::new(2);
/// for _ in 0..500 {
///     let arm = bandit.choose(&mut rng);
///     bandit.update(arm, if arm == 0 { 0.9 } else { 0.1 });
/// }
/// assert!(bandit.posterior_mean(0) > bandit.posterior_mean(1));
/// ```
#[derive(Debug, Clone)]
pub struct Thompson {
    alpha: Vec<f64>,
    beta: Vec<f64>,
}

impl Thompson {
    /// Creates the learner with uniform Beta(1, 1) priors.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "Thompson sampling needs at least one arm");
        Thompson { alpha: vec![1.0; k], beta: vec![1.0; k] }
    }

    /// The posterior mean of `arm`.
    pub fn posterior_mean(&self, arm: usize) -> f64 {
        self.alpha[arm] / (self.alpha[arm] + self.beta[arm])
    }

    /// Draws one Beta(α, β) sample via two Gamma draws
    /// (Marsaglia–Tsang for shape ≥ 1, boosted below 1).
    fn sample_beta<R: Rng + ?Sized>(rng: &mut R, alpha: f64, beta: f64) -> f64 {
        let x = Self::sample_gamma(rng, alpha);
        let y = Self::sample_gamma(rng, beta);
        if x + y == 0.0 {
            0.5
        } else {
            x / (x + y)
        }
    }

    fn sample_gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
        if shape < 1.0 {
            // Boost: Gamma(a) = Gamma(a+1) * U^{1/a}.
            let u: f64 = rng.gen::<f64>().max(1e-300);
            return Self::sample_gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            // Standard normal via Box–Muller.
            let u1: f64 = rng.gen::<f64>().max(1e-300);
            let u2: f64 = rng.gen();
            let n = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let v = (1.0 + c * n).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = rng.gen::<f64>().max(1e-300);
            if u.ln() < -(0.5 * n * n) + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

impl BanditPolicy for Thompson {
    fn arms(&self) -> usize {
        self.alpha.len()
    }

    fn choose<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        (0..self.alpha.len())
            .map(|i| (i, Self::sample_beta(rng, self.alpha[i], self.beta[i])))
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("beta samples are finite"))
            .map(|(i, _)| i)
            .expect("non-empty")
    }

    fn update(&mut self, arm: usize, reward: f64) {
        assert!(arm < self.alpha.len(), "arm {arm} out of range");
        let reward = reward.clamp(0.0, 1.0);
        self.alpha[arm] += reward;
        self.beta[arm] += 1.0 - reward;
    }

    fn probabilities(&self) -> Vec<f64> {
        // Thompson's selection distribution has no closed form; report the
        // normalized posterior means as the interpretable summary.
        let means: Vec<f64> = (0..self.alpha.len()).map(|i| self.posterior_mean(i)).collect();
        let total: f64 = means.iter().sum();
        means.into_iter().map(|m| m / total).collect()
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
        let mut t = Thompson::new(3);
        for _ in 0..2_000 {
            let arm = t.choose(&mut rng);
            t.update(arm, if arm == 2 { 0.9 } else { 0.1 });
        }
        assert!(t.posterior_mean(2) > 0.7);
        assert!(t.posterior_mean(2) > t.posterior_mean(0));
        // The best arm must have been played far more than the others.
        assert!(t.alpha[2] + t.beta[2] > 1_000.0);
    }

    #[test]
    fn posterior_starts_uniform() {
        let t = Thompson::new(4);
        for i in 0..4 {
            assert!((t.posterior_mean(i) - 0.5).abs() < 1e-12);
        }
        let p = t.probabilities();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fractional_rewards_update_fractionally() {
        let mut t = Thompson::new(2);
        t.update(0, 0.25);
        assert!((t.alpha[0] - 1.25).abs() < 1e-12);
        assert!((t.beta[0] - 1.75).abs() < 1e-12);
        // Out-of-range rewards clamp.
        t.update(1, 7.0);
        assert!((t.alpha[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn beta_samples_are_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        for &(a, b) in &[(0.5, 0.5), (1.0, 1.0), (5.0, 2.0), (40.0, 60.0)] {
            for _ in 0..200 {
                let x = Thompson::sample_beta(&mut rng, a, b);
                assert!((0.0..=1.0).contains(&x), "Beta({a},{b}) sample {x}");
            }
        }
    }

    #[test]
    fn beta_sample_mean_tracks_parameters() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 5_000;
        let mean: f64 =
            (0..n).map(|_| Thompson::sample_beta(&mut rng, 8.0, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.8).abs() < 0.02, "got {mean}");
    }

    #[test]
    #[should_panic(expected = "at least one arm")]
    fn zero_arms_panics() {
        let _ = Thompson::new(0);
    }
}
