//! The MAK crawler (§IV) and its design-choice variants.

use crate::framework::crawler::{CrawlEnd, Crawler, StepReport};
use crate::framework::linklog::LinkLog;
use crate::mak::deque::{Arm, LeveledDeque};
use crate::mak::policy::{ArmPolicy, RewardKind};
use mak_bandit::normalize::StandardizedReward;
use mak_browser::client::{BrowseError, Browser};
use mak_browser::page::Page;
use mak_obs::event::Event;
use mak_obs::sink::SinkHandle;
use mak_websim::url::Url;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Cow;

/// Multi-Armed Krawler: stateless, Exp3.1-driven, link-coverage rewarded.
///
/// The default configuration ([`MakCrawler::new`]) is the paper's MAK;
/// [`MakCrawler::variant`] assembles ablation variants with a different
/// arm policy, reward, or a flat (single-level) element pool, and
/// [`MakCrawler::with_fixed_arm`] pins one arm to obtain the §V-C static
/// baselines.
///
/// # Examples
///
/// ```
/// use mak::framework::engine::{run_crawl, EngineConfig};
/// use mak::mak::MakCrawler;
/// use mak_websim::apps;
///
/// let mut crawler = MakCrawler::new(7);
/// let report = run_crawl(&mut crawler, apps::build("vanilla").unwrap(),
///                        &EngineConfig::with_budget_minutes(1.0), 7);
/// assert_eq!(report.crawler, "mak");
/// assert!(report.distinct_urls > 0);
/// ```
#[derive(Debug)]
pub struct MakCrawler {
    name: String,
    policy: ArmPolicy,
    reward_kind: RewardKind,
    deque: LeveledDeque,
    links: LinkLog,
    reward: StandardizedReward,
    rng: StdRng,
    started: bool,
    /// When false, elements re-enter the pool at level 0: a flat deque
    /// without the curiosity-in-action-space mechanism of §IV-B.
    leveled: bool,
    /// When set, the policy is bypassed and this arm is always played —
    /// §V-C: "these strategies can be simulated with MAK by always
    /// executing one of its three actions".
    fixed_arm: Option<Arm>,
    /// Observability: receives `ActionChosen` / `DequeDepth`. Inert by
    /// default; never influences crawl decisions.
    sink: SinkHandle,
}

impl MakCrawler {
    /// Creates the paper's crawler: Exp3.1 policy, standardized
    /// link-coverage reward, leveled deque.
    pub fn new(seed: u64) -> Self {
        Self::variant(
            "mak",
            ArmPolicy::exp31(Arm::ALL.len()),
            RewardKind::StandardizedLinkCoverage,
            true,
            seed,
        )
    }

    /// Assembles a design-choice variant (used by the `ablation2` bench).
    pub fn variant(
        name: impl Into<String>,
        policy: ArmPolicy,
        reward_kind: RewardKind,
        leveled: bool,
        seed: u64,
    ) -> Self {
        MakCrawler {
            name: name.into(),
            policy,
            reward_kind,
            deque: LeveledDeque::new(),
            links: LinkLog::new(),
            reward: StandardizedReward::new(),
            rng: StdRng::seed_from_u64(seed),
            started: false,
            leveled,
            fixed_arm: None,
            sink: SinkHandle::none(),
        }
    }

    /// Creates a non-learning variant that always plays `arm`, named
    /// `name` — the BFS/DFS/Random ablation crawlers of §V-C.
    pub fn with_fixed_arm(name: impl Into<String>, arm: Arm, seed: u64) -> Self {
        let mut c = Self::new(seed);
        c.name = name.into();
        c.fixed_arm = Some(arm);
        c
    }

    /// The arm policy (uniform and unused when an arm is pinned).
    pub fn policy(&self) -> &ArmPolicy {
        &self.policy
    }

    /// The current probability of each arm, in [`Arm::ALL`] order.
    pub fn arm_probabilities(&self) -> Vec<f64> {
        self.policy.probabilities(Arm::ALL.len())
    }

    /// The reward configuration.
    pub fn reward_kind(&self) -> RewardKind {
        self.reward_kind
    }

    /// The element pool.
    pub fn deque(&self) -> &LeveledDeque {
        &self.deque
    }

    /// The link-coverage log (diagnostics: its URL interner's table size is
    /// printed by `mak-cli cache stats` under `MAK_LOG=debug`).
    pub fn links(&self) -> &LinkLog {
        &self.links
    }

    /// Testkit fault injection: mutable access to the arm policy, so the
    /// oracle self-test can plant a known bug (e.g. disabling Exp3.1 epoch
    /// advances) and prove the invariant oracle catches it.
    pub fn policy_mut(&mut self) -> &mut ArmPolicy {
        &mut self.policy
    }

    /// Opens the seed page if not yet started. `Ok(false)` means a
    /// transient fault spoiled the seed fetch: the failed attempt's time
    /// is already charged, and the next step retries.
    fn ensure_started(&mut self, browser: &mut Browser) -> Result<bool, CrawlEnd> {
        if self.started {
            return Ok(true);
        }
        let page = match browser.open_seed() {
            Ok(p) => p,
            Err(BrowseError::BudgetExhausted) => return Err(CrawlEnd::BudgetExhausted),
            Err(BrowseError::ExternalDomain(_)) => unreachable!("seed is same-origin"),
            Err(
                BrowseError::TooManyRedirects(_)
                | BrowseError::Transient { .. }
                | BrowseError::StaleElement,
            ) => return Ok(false),
        };
        // The seed page's links seed both the pool and the link log; they
        // predate any action, so no reward is granted for them.
        ingest(&mut self.links, &mut self.deque, &page, browser.origin());
        self.started = true;
        Ok(true)
    }

    fn compute_reward(&mut self, increment: u64, level: usize) -> f64 {
        match self.reward_kind {
            RewardKind::StandardizedLinkCoverage => self.reward.transform(increment as f64),
            RewardKind::RawLinkCoverage => (increment as f64 / 10.0).min(1.0),
            RewardKind::Curiosity => 1.0 / (level as f64 + 1.0),
        }
    }
}

/// Absorbs a fetched page: counts new URLs (the raw reward increment) and
/// enqueues newly discovered same-origin elements at level 0. The elements
/// of a document the log has absorbed before were all pushed then, and the
/// pool's dedup table only grows, so they are not pushed again.
pub(crate) fn ingest(
    links: &mut LinkLog,
    deque: &mut LeveledDeque,
    page: &Page,
    origin: &Url,
) -> u64 {
    let absorbed = links.absorb_page(page, origin);
    if !absorbed.known_document {
        for el in page.valid_interactables(origin) {
            deque.push_new(el);
        }
    }
    absorbed.new_urls
}

impl Crawler for MakCrawler {
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, browser: &mut Browser) -> Result<StepReport, CrawlEnd> {
        if !self.ensure_started(browser)? {
            // Transient fault on the seed fetch; its cost is charged, the
            // next step retries from scratch.
            return Ok(StepReport { action: Cow::Borrowed("SeedRetry"), reward: None });
        }

        let arm = match self.fixed_arm {
            Some(arm) => arm,
            None => Arm::from_index(self.policy.choose(&mut self.rng, Arm::ALL.len())),
        };
        self.sink.emit_with(|| Event::ActionChosen {
            arm: arm.to_string(),
            probs: self.arm_probabilities(),
        });

        let Some((element, level)) = self.deque.pop(arm, &mut self.rng) else {
            return Err(CrawlEnd::Stuck);
        };

        let page = match browser.execute(&element) {
            Ok(p) => p,
            Err(BrowseError::BudgetExhausted) => {
                self.deque.reinsert(element, level);
                return Err(CrawlEnd::BudgetExhausted);
            }
            Err(BrowseError::ExternalDomain(_)) => {
                // Ingest filters external targets, so this is unreachable in
                // practice; drop the element defensively.
                return Ok(StepReport { action: Cow::Borrowed(arm.name()), reward: None });
            }
            Err(
                BrowseError::TooManyRedirects(_)
                | BrowseError::Transient { .. }
                | BrowseError::StaleElement,
            ) => {
                // Graceful degradation: the action failed but the crawl
                // goes on. The arm is penalized with a zero reward and the
                // element demoted a level — never blacklisted, so a
                // transiently flaky element stays reachable.
                if self.fixed_arm.is_none() {
                    self.policy.update(arm.index(), 0.0);
                }
                let next_level = if self.leveled { level + 1 } else { 0 };
                self.deque.reinsert(element, next_level);
                self.sink.emit_with(|| Event::DequeDepth {
                    len: self.deque.len() as u64,
                    levels: (0..self.deque.level_count())
                        .map(|l| self.deque.level_len(l) as u64)
                        .collect(),
                });
                return Ok(StepReport { action: Cow::Borrowed(arm.name()), reward: Some(0.0) });
            }
        };

        let increment = ingest(&mut self.links, &mut self.deque, &page, browser.origin());
        let reward = self.compute_reward(increment, level);
        if self.fixed_arm.is_none() {
            self.policy.update(arm.index(), reward);
        }
        let next_level = if self.leveled { level + 1 } else { 0 };
        self.deque.reinsert(element, next_level);
        self.sink.emit_with(|| Event::DequeDepth {
            len: self.deque.len() as u64,
            levels: (0..self.deque.level_count()).map(|l| self.deque.level_len(l) as u64).collect(),
        });

        Ok(StepReport { action: Cow::Borrowed(arm.name()), reward: Some(reward) })
    }

    fn distinct_urls(&self) -> usize {
        self.links.len()
    }

    fn attach_sink(&mut self, sink: SinkHandle) {
        self.policy.attach_sink(sink.clone());
        self.sink = sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mak_browser::clock::VirtualClock;
    use mak_websim::apps;
    use mak_websim::server::AppHost;

    fn browser(app: &str, minutes: f64, seed: u64) -> Browser {
        let host = AppHost::new(apps::build(app).unwrap());
        Browser::new(host, VirtualClock::with_budget_minutes(minutes), seed)
    }

    #[test]
    fn first_step_bootstraps_from_seed() {
        let mut b = browser("addressbook", 30.0, 1);
        let mut c = MakCrawler::new(1);
        let report = c.step(&mut b).unwrap();
        assert!(report.reward.is_some());
        assert_eq!(b.interaction_count(), 1);
        assert!(c.distinct_urls() > 1);
        assert!(!c.deque().is_empty());
    }

    #[test]
    fn is_stateless() {
        let c = MakCrawler::new(1);
        assert_eq!(c.state_count(), None);
        assert_eq!(c.name(), "mak");
        assert_eq!(c.reward_kind(), RewardKind::StandardizedLinkCoverage);
    }

    #[test]
    fn fixed_arm_never_updates_policy() {
        let mut b = browser("vanilla", 5.0, 2);
        let mut c = MakCrawler::with_fixed_arm("bfs", Arm::Head, 2);
        for _ in 0..30 {
            if c.step(&mut b).is_err() {
                break;
            }
        }
        let p = c.arm_probabilities();
        assert!((p[0] - p[1]).abs() < 1e-12, "policy stays uniform: {p:?}");
        assert!((p[1] - p[2]).abs() < 1e-12);
    }

    #[test]
    fn interacted_elements_move_up_levels() {
        let mut b = browser("addressbook", 30.0, 3);
        let mut c = MakCrawler::new(3);
        // Run enough steps to exhaust level 0 on this small app.
        for _ in 0..120 {
            if c.step(&mut b).is_err() {
                break;
            }
        }
        assert!(c.deque().level_count() >= 2, "elements were re-inserted at higher levels");
        assert!(c.deque().level_len(1) > 0 || c.deque().level_len(0) == 0);
    }

    #[test]
    fn flat_variant_never_grows_levels() {
        let mut b = browser("addressbook", 30.0, 3);
        let mut c = MakCrawler::variant(
            "mak-flat",
            ArmPolicy::exp31(3),
            RewardKind::StandardizedLinkCoverage,
            false,
            3,
        );
        for _ in 0..120 {
            if c.step(&mut b).is_err() {
                break;
            }
        }
        assert_eq!(c.deque().level_count(), 1, "flat pool keeps everything at level 0");
    }

    #[test]
    fn curiosity_variant_rewards_by_level() {
        let mut b = browser("addressbook", 30.0, 4);
        let mut c = MakCrawler::variant(
            "mak-curiosity",
            ArmPolicy::exp31(3),
            RewardKind::Curiosity,
            true,
            4,
        );
        let mut rewards = Vec::new();
        for _ in 0..150 {
            match c.step(&mut b) {
                Ok(r) => rewards.push(r.reward.unwrap()),
                Err(_) => break,
            }
        }
        // Early (level 0) rewards are exactly 1.0; once elements recycle at
        // level 1 the reward halves.
        assert!(rewards.iter().take(10).all(|&r| (r - 1.0).abs() < 1e-12));
        assert!(rewards.iter().any(|&r| (r - 0.5).abs() < 1e-12));
    }

    #[test]
    fn budget_exhaustion_is_propagated() {
        let host = AppHost::new(apps::build("addressbook").unwrap());
        let mut b = Browser::new(host, VirtualClock::new(1_500.0), 4);
        let mut c = MakCrawler::new(4);
        let mut saw_end = false;
        for _ in 0..10 {
            match c.step(&mut b) {
                Err(CrawlEnd::BudgetExhausted) => {
                    saw_end = true;
                    break;
                }
                Err(CrawlEnd::Stuck) => panic!("should not be stuck"),
                Ok(_) => {}
            }
        }
        assert!(saw_end);
    }

    #[test]
    fn rewards_reflect_link_discovery() {
        let mut b = browser("drupal", 30.0, 5);
        let mut c = MakCrawler::new(5);
        let mut rewards = Vec::new();
        for _ in 0..40 {
            match c.step(&mut b) {
                Ok(r) => rewards.push(r.reward.unwrap()),
                Err(_) => break,
            }
        }
        assert!(rewards.iter().all(|r| (0.0..=1.0).contains(r)));
        let distinct: std::collections::BTreeSet<u64> =
            rewards.iter().map(|r| (r * 1e9) as u64).collect();
        assert!(distinct.len() > 3, "rewards vary with discovery rate");
    }
}
