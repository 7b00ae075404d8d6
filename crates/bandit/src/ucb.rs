//! UCB1 (Auer et al., 2002) — a stochastic-bandit ablation baseline.
//!
//! Like [ε-greedy](crate::epsilon), UCB1 assumes i.i.d. rewards per arm;
//! the ablation benches contrast it with Exp3.1 under the drifting rewards
//! web crawling produces (§IV-D).

use crate::policy::BanditPolicy;
use rand::Rng;

/// UCB1 over `K` arms.
///
/// # Examples
///
/// ```
/// use mak_bandit::ucb::Ucb1;
/// use mak_bandit::policy::BanditPolicy;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut bandit = Ucb1::new(2);
/// for _ in 0..200 {
///     let arm = bandit.choose(&mut rng);
///     bandit.update(arm, if arm == 1 { 0.8 } else { 0.2 });
/// }
/// assert_eq!(bandit.probabilities(), vec![0.0, 1.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Ucb1 {
    counts: Vec<u64>,
    means: Vec<f64>,
    total: u64,
}

impl Ucb1 {
    /// Creates the learner.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "UCB1 needs at least one arm");
        Ucb1 { counts: vec![0; k], means: vec![0.0; k], total: 0 }
    }

    /// The upper confidence index of `arm`; infinite for untried arms.
    pub fn index(&self, arm: usize) -> f64 {
        if self.counts[arm] == 0 {
            return f64::INFINITY;
        }
        let bonus = (2.0 * (self.total.max(1) as f64).ln() / self.counts[arm] as f64).sqrt();
        self.means[arm] + bonus
    }
}

impl BanditPolicy for Ucb1 {
    fn arms(&self) -> usize {
        self.counts.len()
    }

    fn choose<R: Rng + ?Sized>(&mut self, _rng: &mut R) -> usize {
        (0..self.counts.len())
            .max_by(|&a, &b| self.index(a).partial_cmp(&self.index(b)).expect("comparable"))
            .expect("non-empty")
    }

    fn update(&mut self, arm: usize, reward: f64) {
        assert!(arm < self.counts.len(), "arm {arm} out of range");
        self.counts[arm] += 1;
        self.total += 1;
        let n = self.counts[arm] as f64;
        self.means[arm] += (reward - self.means[arm]) / n;
    }

    fn probabilities(&self) -> Vec<f64> {
        // UCB1 is deterministic: all mass on the current argmax index.
        let best = (0..self.counts.len())
            .max_by(|&a, &b| self.index(a).partial_cmp(&self.index(b)).expect("comparable"))
            .expect("non-empty");
        let mut p = vec![0.0; self.counts.len()];
        p[best] = 1.0;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tries_all_arms_then_exploits() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = Ucb1::new(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            let arm = b.choose(&mut rng);
            seen.insert(arm);
            b.update(arm, if arm == 1 { 1.0 } else { 0.0 });
        }
        assert_eq!(seen.len(), 3);
        for _ in 0..500 {
            let arm = b.choose(&mut rng);
            b.update(arm, if arm == 1 { 1.0 } else { 0.0 });
        }
        assert_eq!(b.probabilities(), vec![0.0, 1.0, 0.0]);
        assert!(b.counts[1] > 400);
    }

    #[test]
    fn index_is_infinite_for_untried() {
        let b = Ucb1::new(2);
        assert!(b.index(0).is_infinite());
    }

    #[test]
    fn keeps_exploring_occasionally() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut b = Ucb1::new(2);
        for _ in 0..10_000 {
            let arm = b.choose(&mut rng);
            b.update(arm, if arm == 0 { 0.6 } else { 0.5 });
        }
        assert!(b.counts[1] > 10, "log bonus forces continued exploration");
    }
}
