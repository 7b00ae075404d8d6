//! The Exp3.1 algorithm (Auer, Cesa-Bianchi, Freund, Schapire, 2002) —
//! Algorithm 1 of the paper, implemented literally.
//!
//! Exp3.1 runs Exp3 in *epochs*: epoch `m` assumes a bound
//! `g_m = (K ln K)/(e − 1) · 4^m` on the best arm's total estimated gain and
//! derives the exploration rate `γ_m = min(1, √(K ln K / ((e − 1) g_m)))`.
//! When the maximum estimated gain `Ĝ_i` exceeds `g_m − K/γ_m`, the epoch
//! ends: arm weights reset to 1 and the learning rate shrinks. The paper
//! picks Exp3.1 precisely for this periodic reset, which lets the crawler
//! re-adapt when the reward distributions drift between application regions
//! (§IV-D).

use crate::policy::{sample_discrete, BanditPolicy};
use mak_obs::event::Event;
use mak_obs::sink::SinkHandle;
use mak_obs::span::Phase;
use rand::Rng;

/// Exp3.1 over `K` arms. Rewards must lie in `[0, 1]`.
///
/// See the [crate docs](crate) for a usage example.
#[derive(Debug, Clone)]
pub struct Exp31 {
    k: usize,
    /// Estimated cumulated gains `Ĝ_i` (importance-weighted).
    g_hat: Vec<f64>,
    /// Current epoch's arm weights `w_i`.
    weights: Vec<f64>,
    /// Current epoch index `m`.
    epoch: u32,
    /// Total updates processed (the algorithm's `t`).
    t: u64,
    /// Test-only fault injection: when set, epoch advances are skipped so
    /// invariant oracles can prove they catch the resulting drift. Always
    /// `false` outside `testing_disable_epoch_advance`.
    skip_epoch_advance: bool,
    /// Observability: receives `PolicyUpdated` / `EpochAdvanced` events.
    /// Inert by default; never influences the learner's state.
    sink: SinkHandle,
}

impl Exp31 {
    /// Creates the learner for `k` arms.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`. `k == 1` is allowed and degenerates to always
    /// choosing the single arm.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "Exp3.1 needs at least one arm");
        Exp31 {
            k,
            g_hat: vec![0.0; k],
            weights: vec![1.0; k],
            epoch: 0,
            t: 0,
            skip_epoch_advance: false,
            sink: SinkHandle::none(),
        }
    }

    /// Attaches an event sink; the learner emits [`Event::PolicyUpdated`]
    /// after every completed update and [`Event::EpochAdvanced`] on each
    /// epoch reset.
    pub fn attach_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    /// `K ln K / (e − 1)`, the scale of the epoch gain bounds.
    fn base_gain(&self) -> f64 {
        let k = self.k as f64;
        k * k.ln() / (std::f64::consts::E - 1.0)
    }

    /// `g_m` for the current epoch (line 6 of Algorithm 1).
    pub fn epoch_gain_bound(&self) -> f64 {
        self.base_gain() * 4f64.powi(self.epoch as i32)
    }

    /// `γ_m` for the current epoch (line 7 of Algorithm 1).
    pub fn gamma(&self) -> f64 {
        let g_m = self.epoch_gain_bound();
        if g_m <= 0.0 {
            // K == 1: ln K == 0. Degenerate, fully exploratory.
            return 1.0;
        }
        (self.base_gain() / g_m).sqrt().min(1.0)
    }

    /// The current epoch index `m`.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Number of updates processed so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// The current epoch's arm weights `w_i` (invariant-oracle
    /// introspection: all must stay finite and positive).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The estimated cumulated gains `Ĝ_i` (invariant-oracle
    /// introspection).
    pub fn gains(&self) -> &[f64] {
        &self.g_hat
    }

    /// The epoch-termination threshold `g_m − K/γ_m` of line 9: after every
    /// completed update, `max_i Ĝ_i` must not exceed it — the mechanical
    /// invariant that fails when epoch advancement is broken.
    pub fn epoch_termination_bound(&self) -> f64 {
        self.epoch_gain_bound() - self.k as f64 / self.gamma()
    }

    /// Fault injection for the testkit self-test: disables epoch advances
    /// (the known bug the invariant oracle must catch). Never used outside
    /// tests; release crawl paths construct learners only via [`Exp31::new`].
    #[doc(hidden)]
    pub fn testing_disable_epoch_advance(&mut self) {
        self.skip_epoch_advance = true;
    }

    /// Advances epochs while the termination condition of line 9 fails,
    /// i.e. while `max_i Ĝ_i > g_m − K/γ_m`, resetting weights (line 8).
    fn advance_epochs(&mut self) {
        if self.skip_epoch_advance {
            return;
        }
        let max_gain = self.g_hat.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        while max_gain > self.epoch_gain_bound() - self.k as f64 / self.gamma() {
            self.epoch += 1;
            self.weights = vec![1.0; self.k];
            self.sink.emit_with(|| Event::EpochAdvanced { epoch: self.epoch, gamma: self.gamma() });
        }
    }

    /// Rescales weights when they grow large. Weights only ever grow
    /// within an epoch (the update multiplier is ≥ 1), so unbounded runs
    /// would eventually overflow `f64`; dividing every weight by the
    /// maximum preserves the policy exactly.
    fn renormalize(&mut self) {
        let max = self.weights.iter().cloned().fold(0.0, f64::max);
        if max > 1e100 {
            for w in &mut self.weights {
                *w /= max;
            }
        }
    }

    /// The policy `π` of line 10: the γ-smoothed weight distribution.
    fn policy(&self) -> Vec<f64> {
        let gamma = self.gamma();
        let total: f64 = self.weights.iter().sum();
        self.weights.iter().map(|w| (1.0 - gamma) * w / total + gamma / self.k as f64).collect()
    }
}

impl BanditPolicy for Exp31 {
    fn arms(&self) -> usize {
        self.k
    }

    fn choose<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        // The draw is instantaneous in virtual time (the clock charge is
        // the engine's policy-overhead line); when profiling, mark it at
        // the latched clock so the Perfetto timeline shows each draw.
        self.sink.span_instant(Phase::BanditChoose);
        self.advance_epochs();
        if self.k == 1 {
            return 0;
        }
        sample_discrete(rng, &self.policy())
    }

    /// Lines 12–16 of Algorithm 1: importance-weighted reward estimate,
    /// exponential weight update, gain accumulation.
    ///
    /// # Panics
    ///
    /// Panics if `arm >= K`. Rewards are clamped to `[0, 1]` (the paper
    /// guarantees this range by construction via the logistic squash).
    fn update(&mut self, arm: usize, reward: f64) {
        self.sink.span_instant(Phase::RewardUpdate);
        assert!(arm < self.k, "arm {arm} out of range (K = {})", self.k);
        let reward = reward.clamp(0.0, 1.0);
        let gamma = self.gamma();
        let pi = self.policy();
        let r_hat = reward / pi[arm];
        self.weights[arm] *= (gamma * r_hat / self.k as f64).exp();
        self.renormalize();
        self.g_hat[arm] += r_hat;
        self.t += 1;
        // Advance epochs *after* bumping `g_hat` (line 9's check runs at the
        // end of each round), so observers and the next `choose` agree on
        // the post-reset distribution. Advancing lazily in `choose` instead
        // left `probabilities()` reporting the stale pre-reset policy
        // between an epoch-crossing update and the next draw.
        self.advance_epochs();
        self.sink.emit_with(|| {
            let max_gain = self.g_hat.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let (mut min_w, mut max_w) = (f64::INFINITY, f64::NEG_INFINITY);
            for w in &self.weights {
                min_w = min_w.min(*w);
                max_w = max_w.max(*w);
            }
            Event::PolicyUpdated {
                probs: self.policy(),
                gamma: self.gamma(),
                epoch: self.epoch,
                updates: self.t,
                max_gain,
                bound: self.epoch_termination_bound(),
                min_weight: min_w,
                max_weight: max_w,
            }
        });
    }

    fn probabilities(&self) -> Vec<f64> {
        if self.k == 1 {
            return vec![1.0];
        }
        self.policy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn starts_uniform() {
        let b = Exp31::new(3);
        let p = b.probabilities();
        for pi in &p {
            assert!((pi - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn probabilities_sum_to_one_throughout() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut b = Exp31::new(4);
        for step in 0..500 {
            let arm = b.choose(&mut rng);
            b.update(arm, if arm == 2 { 0.9 } else { 0.1 });
            let sum: f64 = b.probabilities().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "step {step}: sum {sum}");
        }
    }

    #[test]
    fn converges_to_best_arm() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = Exp31::new(3);
        let mut late_best_plays = 0;
        for t in 0..2_000 {
            let arm = b.choose(&mut rng);
            if t >= 1_000 && arm == 0 {
                late_best_plays += 1;
            }
            b.update(arm, if arm == 0 { 1.0 } else { 0.0 });
        }
        // Epoch resets periodically re-flatten the distribution, so dominance
        // is asserted on realized late-round play counts (robust to where the
        // last reset falls) rather than the instantaneous distribution.
        assert!(
            late_best_plays > 600,
            "best arm should dominate late play: {late_best_plays}/1000"
        );
        let p = b.probabilities();
        assert!(p[0] >= p[1] && p[0] >= p[2], "best arm keeps the largest mass: {p:?}");
    }

    #[test]
    fn epochs_advance_and_reset_weights() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut b = Exp31::new(3);
        // Epoch 0's bound is negative for K = 3, so the learner starts in a
        // later epoch already after the first advance.
        let before = b.epoch();
        b.choose(&mut rng);
        assert!(b.epoch() >= before);
        let e1 = b.epoch();
        for _ in 0..5_000 {
            let arm = b.choose(&mut rng);
            b.update(arm, 1.0);
        }
        assert!(b.epoch() > e1, "constant max rewards must trigger epoch resets");
    }

    #[test]
    fn probabilities_match_next_choose_distribution() {
        // Regression: `g_hat` used to be bumped *after* the epoch check, so
        // an epoch-crossing update left `probabilities()` reporting the
        // pre-reset distribution while the next `choose` played the
        // post-reset one.
        let mut rng = StdRng::seed_from_u64(13);
        let mut b = Exp31::new(3);
        for step in 0..5_000 {
            let arm = b.choose(&mut rng);
            b.update(arm, 1.0);
            let reported = b.probabilities();
            let mut next = b.clone();
            next.advance_epochs(); // exactly what the next `choose` does before sampling
            assert_eq!(reported, next.policy(), "step {step}: observer and sampler disagree");
        }
        assert!(b.epoch() > 1, "constant max rewards must cross epochs for this to bite");
    }

    #[test]
    fn adapts_when_best_arm_changes() {
        // The adversarial setting of §IV-D: the reward distribution drifts.
        let mut rng = StdRng::seed_from_u64(7);
        let mut b = Exp31::new(3);
        for _ in 0..3_000 {
            let arm = b.choose(&mut rng);
            b.update(arm, if arm == 0 { 0.9 } else { 0.05 });
        }
        assert!(b.probabilities()[0] > 0.5);
        for _ in 0..6_000 {
            let arm = b.choose(&mut rng);
            b.update(arm, if arm == 2 { 0.9 } else { 0.05 });
        }
        let p = b.probabilities();
        assert!(p[2] > p[0], "policy must shift to the new best arm: {p:?}");
    }

    #[test]
    fn gamma_shrinks_with_epochs() {
        let mut b = Exp31::new(3);
        b.epoch = 1;
        let g1 = b.gamma();
        b.epoch = 3;
        let g3 = b.gamma();
        assert!(g3 < g1);
        assert!(g1 <= 1.0 && g3 > 0.0);
    }

    #[test]
    fn rewards_are_clamped() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut b = Exp31::new(2);
        for _ in 0..100 {
            let arm = b.choose(&mut rng);
            b.update(arm, 42.0); // out of range: clamped to 1.0
        }
        for w in &b.weights {
            assert!(w.is_finite());
        }
    }

    #[test]
    fn single_arm_is_degenerate_but_total() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut b = Exp31::new(1);
        for _ in 0..10 {
            assert_eq!(b.choose(&mut rng), 0);
            b.update(0, 0.5);
        }
        assert_eq!(b.probabilities(), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one arm")]
    fn zero_arms_panics() {
        let _ = Exp31::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_checks_arm_bounds() {
        let mut b = Exp31::new(2);
        b.update(5, 0.5);
    }

    #[test]
    fn weights_renormalize_instead_of_overflowing() {
        // Regression: tens of millions of constant-reward updates within
        // late epochs used to push weights to infinity (NaN policy). Seed
        // the near-overflow state directly and update through it.
        let mut rng = StdRng::seed_from_u64(12);
        let mut b = Exp31::new(3);
        b.weights = vec![1e300, 1.0, 1.0];
        for _ in 0..50 {
            let arm = b.choose(&mut rng);
            b.update(arm, 1.0);
            let p = b.probabilities();
            assert!(p.iter().all(|x| x.is_finite()), "{p:?}");
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        assert!(b.weights.iter().all(|w| w.is_finite() && *w > 0.0));
        assert!(b.weights.iter().cloned().fold(0.0, f64::max) <= 1e100 * std::f64::consts::E);
    }

    #[test]
    fn weights_stay_finite_under_adversarial_rewards() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut b = Exp31::new(3);
        for t in 0..20_000u32 {
            let arm = b.choose(&mut rng);
            // Adversary flips the good arm every 100 steps.
            let good = ((t / 100) % 3) as usize;
            b.update(arm, if arm == good { 1.0 } else { 0.0 });
        }
        for w in &b.weights {
            assert!(w.is_finite() && *w > 0.0);
        }
    }
}
