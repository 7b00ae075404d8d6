//! An ensemble of stateless MAK agents (extension).
//!
//! §VI of the paper, discussing multi-agent RL crawlers: "Our proposal has
//! the potential to improve multi-agent RL-based crawlers as well, because
//! each agent of the ensemble can benefit from our stateless approach."
//! This crawler realises that hint in the simplest faithful way: `n`
//! independent Exp3.1 policies take turns (round-robin) over one shared
//! element pool and one browser session. Each agent learns only from the
//! rewards of its own steps, so agents can settle on *different* arm mixes
//! — a soft division of labour between breadth, depth, and random probing.

use crate::framework::checkpoint::{CrawlerState, EnsembleState};
use crate::framework::crawler::{CrawlEnd, Crawler, StepReport};
use crate::framework::linklog::LinkLog;
use crate::mak::crawler::ingest;
use crate::mak::deque::{Arm, LeveledDeque};
use mak_bandit::exp31::Exp31;
use mak_bandit::normalize::StandardizedReward;
use mak_bandit::policy::BanditPolicy;
use mak_browser::client::{BrowseError, Browser};
use mak_obs::event::Event;
use mak_obs::sink::SinkHandle;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize as _, Serialize as _};
use std::borrow::Cow;

/// A round-robin ensemble of independent MAK policies over a shared pool.
#[derive(Debug)]
pub struct EnsembleCrawler {
    name: String,
    policies: Vec<Exp31>,
    rewards: Vec<StandardizedReward>,
    next_agent: usize,
    deque: LeveledDeque,
    links: LinkLog,
    rng: StdRng,
    started: bool,
    sink: SinkHandle,
}

impl EnsembleCrawler {
    /// Creates an ensemble of `agents` independent policies.
    ///
    /// # Panics
    ///
    /// Panics if `agents` is zero.
    pub fn new(agents: usize, seed: u64) -> Self {
        assert!(agents > 0, "ensemble needs at least one agent");
        EnsembleCrawler {
            name: format!("mak-ensemble{agents}"),
            policies: (0..agents).map(|_| Exp31::new(Arm::ALL.len())).collect(),
            rewards: (0..agents).map(|_| StandardizedReward::new()).collect(),
            next_agent: 0,
            deque: LeveledDeque::new(),
            links: LinkLog::new(),
            rng: StdRng::seed_from_u64(seed),
            started: false,
            sink: SinkHandle::none(),
        }
    }

    /// Number of agents in the ensemble.
    pub fn agent_count(&self) -> usize {
        self.policies.len()
    }

    /// The arm probabilities of agent `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn agent_probabilities(&self, i: usize) -> Vec<f64> {
        self.policies[i].probabilities()
    }
}

impl Crawler for EnsembleCrawler {
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, browser: &mut Browser) -> Result<StepReport, CrawlEnd> {
        if !self.started {
            let page = match browser.open_seed() {
                Ok(p) => p,
                Err(BrowseError::BudgetExhausted) => return Err(CrawlEnd::BudgetExhausted),
                Err(BrowseError::ExternalDomain(_)) => unreachable!("seed is same-origin"),
                Err(
                    BrowseError::TooManyRedirects(_)
                    | BrowseError::Transient { .. }
                    | BrowseError::StaleElement,
                ) => {
                    // Transient fault on the seed fetch; its cost is
                    // charged, the next step retries from scratch.
                    return Ok(StepReport { action: Cow::Borrowed("SeedRetry"), reward: None });
                }
            };
            ingest(&mut self.links, &mut self.deque, &page, browser.origin());
            self.started = true;
        }

        let agent = self.next_agent;
        self.next_agent = (self.next_agent + 1) % self.policies.len();

        let arm = Arm::from_index(self.policies[agent].choose(&mut self.rng));
        self.sink.emit_with(|| Event::ActionChosen {
            arm: format!("agent{agent}:{arm}"),
            probs: self.policies[agent].probabilities(),
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
                return Ok(StepReport { action: Cow::Borrowed(arm.name()), reward: None });
            }
            Err(
                BrowseError::TooManyRedirects(_)
                | BrowseError::Transient { .. }
                | BrowseError::StaleElement,
            ) => {
                // Graceful degradation: penalize the acting agent with a
                // zero reward and demote the element — never blacklist it.
                self.policies[agent].update(arm.index(), 0.0);
                self.deque.reinsert(element, level + 1);
                return Ok(StepReport {
                    action: Cow::Owned(format!("agent{agent}:{arm}")),
                    reward: Some(0.0),
                });
            }
        };

        let increment = ingest(&mut self.links, &mut self.deque, &page, browser.origin());
        // Each agent standardizes against its *own* reward history — its
        // private sense of what a good step looks like.
        let reward = self.rewards[agent].transform(increment as f64);
        self.policies[agent].update(arm.index(), reward);
        self.deque.reinsert(element, level + 1);
        self.sink.emit_with(|| Event::DequeDepth {
            len: self.deque.len() as u64,
            levels: (0..self.deque.level_count()).map(|l| self.deque.level_len(l) as u64).collect(),
        });

        Ok(StepReport { action: Cow::Owned(format!("agent{agent}:{arm}")), reward: Some(reward) })
    }

    fn distinct_urls(&self) -> usize {
        self.links.len()
    }

    fn attach_sink(&mut self, sink: SinkHandle) {
        for policy in &mut self.policies {
            policy.attach_sink(sink.clone());
        }
        self.sink = sink;
    }

    fn snapshot_state(&self) -> Option<CrawlerState> {
        Some(CrawlerState::Ensemble(EnsembleState {
            policies: self.policies.iter().map(|p| p.to_value()).collect(),
            rewards: self.rewards.iter().map(|r| r.to_value()).collect(),
            next_agent: self.next_agent as u64,
            deque: self.deque.to_value(),
            links: self.links.to_value(),
            rng: self.rng.state().to_vec(),
            started: self.started,
        }))
    }

    fn restore_state(&mut self, state: &CrawlerState) -> Result<(), serde::Error> {
        let CrawlerState::Ensemble(s) = state else {
            return Err(serde::Error::custom(format!(
                "crawler `{}` cannot restore a non-ensemble state",
                self.name
            )));
        };
        if s.policies.len() != self.policies.len() {
            return Err(serde::Error::custom(format!(
                "checkpoint has {} agents, crawler has {}",
                s.policies.len(),
                self.policies.len()
            )));
        }
        if s.rewards.len() != s.policies.len() || s.next_agent as usize >= s.policies.len() {
            return Err(serde::Error::custom("inconsistent ensemble checkpoint"));
        }
        if s.rng.len() != 4 || s.rng.iter().all(|&w| w == 0) {
            return Err(serde::Error::custom("invalid RNG state in ensemble checkpoint"));
        }
        let mut words = [0u64; 4];
        words.copy_from_slice(&s.rng);
        self.policies = s.policies.iter().map(Exp31::from_value).collect::<Result<Vec<_>, _>>()?;
        self.rewards =
            s.rewards.iter().map(StandardizedReward::from_value).collect::<Result<Vec<_>, _>>()?;
        self.next_agent = s.next_agent as usize;
        self.deque = LeveledDeque::from_value(&s.deque)?;
        self.links = LinkLog::from_value(&s.links)?;
        self.rng = StdRng::from_state(words);
        self.started = s.started;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::engine::{run_crawl, EngineConfig};
    use mak_websim::apps;

    #[test]
    fn ensemble_crawls_and_reports() {
        let mut c = EnsembleCrawler::new(3, 1);
        assert_eq!(c.agent_count(), 3);
        let report = run_crawl(
            &mut c,
            apps::build("vanilla").unwrap(),
            &EngineConfig::with_budget_minutes(3.0),
            1,
        );
        assert_eq!(report.crawler, "mak-ensemble3");
        assert!(report.final_lines_covered > 0);
        assert!(report.state_count.is_none(), "agents are stateless");
    }

    #[test]
    fn agents_take_turns() {
        let mut cfg = EngineConfig::with_budget_minutes(2.0);
        cfg.record_trace = true;
        let mut c = EnsembleCrawler::new(2, 2);
        let report = run_crawl(&mut c, apps::build("addressbook").unwrap(), &cfg, 2);
        let agents: Vec<&str> =
            report.trace.iter().map(|t| t.action.split(':').next().unwrap()).collect();
        // Strict round-robin: agent0, agent1, agent0, ...
        for (i, a) in agents.iter().enumerate() {
            assert_eq!(*a, format!("agent{}", i % 2));
        }
    }

    #[test]
    fn agents_learn_independently() {
        let mut c = EnsembleCrawler::new(2, 3);
        let _ = run_crawl(
            &mut c,
            apps::build("hotcrp").unwrap(),
            &EngineConfig::with_budget_minutes(10.0),
            3,
        );
        let p0 = c.agent_probabilities(0);
        let p1 = c.agent_probabilities(1);
        assert!(
            p0.iter().zip(&p1).any(|(a, b)| (a - b).abs() > 1e-6),
            "independent policies should diverge: {p0:?} vs {p1:?}"
        );
    }

    #[test]
    fn single_agent_matches_plain_mak_coverage_scale() {
        let cfg = EngineConfig::with_budget_minutes(5.0);
        let mut ensemble = EnsembleCrawler::new(1, 4);
        let e = run_crawl(&mut ensemble, apps::build("phpbb2").unwrap(), &cfg, 4);
        let mut plain = crate::mak::MakCrawler::new(4);
        let p = run_crawl(&mut plain, apps::build("phpbb2").unwrap(), &cfg, 4);
        let ratio = e.final_lines_covered as f64 / p.final_lines_covered as f64;
        assert!((0.9..=1.1).contains(&ratio), "one-agent ensemble ≈ MAK: {ratio}");
    }

    #[test]
    #[should_panic(expected = "at least one agent")]
    fn zero_agents_panics() {
        let _ = EnsembleCrawler::new(0, 1);
    }
}
