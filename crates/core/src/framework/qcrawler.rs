//! The generic Q-learning trajectory crawler.
//!
//! WebExplor and QExplore share the skeleton of Algorithm 2 and differ only
//! in four building blocks (Table I): the state abstraction, the action
//! selection, the policy update, and the curiosity-reward flavor. The
//! paper's evaluation framework implements them once and instantiates both
//! tools from the same loop to avoid engineering bias (§V-A.1); this module
//! is that shared implementation.
//!
//! Unlike MAK, a [`QCrawler`] is *trajectory-based*: at each step it picks
//! among the interactable elements of the page it currently sits on, and
//! restarts from the seed URL when its trajectory dead-ends.

use crate::framework::checkpoint::{CrawlerState, QState};
use crate::framework::crawler::{CrawlEnd, Crawler, StepReport};
use crate::framework::linklog::LinkLog;
use mak_bandit::gumbel::gumbel_softmax_sample;
use mak_bandit::qlearning::{argmax, QTable};
use mak_browser::client::{BrowseError, Browser};
use mak_browser::cost::CostModel;
use mak_browser::page::Page;
use mak_intern::{FastBuildHasher, FastHashMap};
use mak_websim::dom::Interactable;
use mak_websim::url::Url;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize as _, Serialize as _};
use std::borrow::Cow;

/// `GET_STATE` of Algorithm 2: maps pages to abstract state identifiers,
/// creating new states as needed.
pub trait StateAbstraction: std::fmt::Debug + Send + Sync {
    /// The state of `page`, allocating a fresh state if no existing one
    /// matches under this abstraction's similarity function.
    fn state_of(&mut self, page: &Page) -> u64;

    /// Number of states created so far — the quantity that explodes under
    /// the brittle abstractions of §III-A.
    fn state_count(&self) -> usize;

    /// Checkpointing: a stable tag naming this abstraction (`"webexplor"`,
    /// `"qexplore"`), recorded in checkpoints so a restore can refuse a
    /// payload produced by a different abstraction.
    fn kind(&self) -> &'static str;

    /// Checkpointing: the abstraction's full state table as a value tree.
    /// Must be a deterministic function of the table's *content* (sorted,
    /// never hasher-order dependent).
    fn snapshot_value(&self) -> serde::Value;

    /// Checkpointing: overwrites this (fresh) abstraction's table from a
    /// [`snapshot_value`](StateAbstraction::snapshot_value) payload, such
    /// that subsequent `state_of` calls return the ids the snapshotted
    /// instance would have.
    ///
    /// # Errors
    ///
    /// When the payload is malformed; never panics on corrupt input.
    fn restore_value(&mut self, value: &serde::Value) -> Result<(), serde::Error>;
}

/// `CHOOSE_ACTION` of Algorithm 2.
#[derive(Debug, Clone, Copy)]
pub enum ActionSelection {
    /// WebExplor: sample from the Gumbel-softmax over Q-values.
    GumbelSoftmax {
        /// Softmax temperature.
        temperature: f64,
    },
    /// QExplore: deterministically pick the maximum-Q action.
    MaxQ,
}

/// `UPDATE_POLICY` of Algorithm 2.
#[derive(Debug, Clone, Copy)]
pub enum UpdateRule {
    /// WebExplor: the standard Bellman update.
    Bellman,
    /// QExplore: Bellman plus a bonus towards action-rich successor states.
    QExplore {
        /// Bonus weight β.
        beta: f64,
    },
}

/// `GET_REWARD` of Algorithm 2: both tools use curiosity (visit-count)
/// rewards, with slightly different decay shapes. The first execution of an
/// action already pays strictly less than the optimistic initial Q-value
/// promises for untried actions, so freshness always wins ties.
#[derive(Debug, Clone, Copy)]
pub enum CuriosityReward {
    /// `1 / √(visits + 1)` — WebExplor-style frequency counters.
    InverseSqrt,
    /// `1 / (visits + 1)` — QExplore-style sharper decay.
    Inverse,
}

impl CuriosityReward {
    fn value(self, visits: u64) -> f64 {
        debug_assert!(visits >= 1);
        match self {
            CuriosityReward::InverseSqrt => 1.0 / ((visits + 1) as f64).sqrt(),
            CuriosityReward::Inverse => 1.0 / (visits + 1) as f64,
        }
    }
}

/// The valid actions of `page` — its interactables whose targets stay on
/// `origin` (§V-A ii) — each with its signature hash, read from the
/// document's memo instead of re-hashed.
fn keyed_actions<'p, 'o>(
    page: &'p Page,
    origin: &'o Url,
) -> impl Iterator<Item = (&'p Interactable, u64)> + use<'p, 'o> {
    let shared = &**page.shared();
    shared
        .interactables()
        .iter()
        .zip(shared.signature_hashes().iter().copied())
        .filter(move |(el, _)| el.target_url().same_origin(origin))
}

/// A Q-learning trajectory crawler assembled from the building blocks.
#[derive(Debug)]
pub struct QCrawler<S> {
    name: String,
    states: S,
    q: QTable<FastBuildHasher>,
    visit_counts: FastHashMap<(u64, u64), u64>,
    selection: ActionSelection,
    update: UpdateRule,
    curiosity: CuriosityReward,
    links: LinkLog,
    rng: StdRng,
    current: Option<(u64, Page)>,
    restarts: u64,
    overhead_factor: f64,
}

impl<S: StateAbstraction> QCrawler<S> {
    /// Assembles a crawler from its building blocks and a configured
    /// [`QTable`]. The discount and optimistic initial value matter: with a
    /// curiosity reward, the fixed point of a repeated action's Q-value is
    /// `r/(1 − γ)`, so `γ` must be small enough that decayed-curiosity
    /// actions fall *below* the optimistic initial value of untried ones —
    /// otherwise the crawler loops forever on its first trajectory.
    pub fn new(
        name: impl Into<String>,
        states: S,
        selection: ActionSelection,
        update: UpdateRule,
        curiosity: CuriosityReward,
        q: QTable<FastBuildHasher>,
        seed: u64,
    ) -> Self {
        QCrawler {
            name: name.into(),
            states,
            q,
            visit_counts: FastHashMap::default(),
            selection,
            update,
            curiosity,
            links: LinkLog::new(),
            rng: StdRng::seed_from_u64(seed),
            current: None,
            restarts: 0,
            overhead_factor: 1.0,
        }
    }

    /// Scales the per-decision policy overhead. QExplore's pre-processing
    /// re-hashes the attribute values of *every* interactable on each page,
    /// which is costlier than WebExplor's URL-indexed lookup; the paper's
    /// §V-D interaction counts (854 vs 827) reflect this. The cost is the
    /// modeled tool's and is charged on the virtual clock only: this crawler
    /// reads the hash from the document's memo.
    #[must_use]
    pub fn with_overhead_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "overhead factor must be positive");
        self.overhead_factor = factor;
        self
    }

    /// Times the crawler restarted from the seed URL after a dead end.
    pub fn restart_count(&self) -> u64 {
        self.restarts
    }

    /// The underlying Q-table.
    pub fn q_table(&self) -> &QTable<FastBuildHasher> {
        &self.q
    }

    /// Re-opens the seed. `Ok(None)` means a transient fault spoiled the
    /// fetch: the attempt's time is charged and the caller should retry on
    /// the next step.
    fn open_seed(&mut self, browser: &mut Browser) -> Result<Option<(u64, Page)>, CrawlEnd> {
        let page = match browser.open_seed() {
            Ok(p) => p,
            Err(BrowseError::BudgetExhausted) => return Err(CrawlEnd::BudgetExhausted),
            Err(BrowseError::ExternalDomain(_)) => unreachable!("seed is same-origin"),
            Err(
                BrowseError::TooManyRedirects(_)
                | BrowseError::Transient { .. }
                | BrowseError::StaleElement,
            ) => return Ok(None),
        };
        self.links.absorb_page(&page, browser.origin());
        let state = self.states.state_of(&page);
        Ok(Some((state, page)))
    }
}

impl<S: StateAbstraction> Crawler for QCrawler<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, browser: &mut Browser) -> Result<StepReport, CrawlEnd> {
        // GET_STATE: establish the current position, restarting if needed.
        let (mut state, mut page) = match self.current.take() {
            Some(cur) => cur,
            None => match self.open_seed(browser)? {
                Some(sp) => sp,
                None => return Ok(StepReport { action: Cow::Borrowed("SeedRetry"), reward: None }),
            },
        };

        // GET_ACTIONS: the interactable elements of the current page. The
        // actions borrow the page snapshot — nothing on this hot path clones
        // an element.
        if page.valid_interactables(browser.origin()).next().is_none() {
            // Dead end (e.g. a body-less error response): restart.
            self.restarts += 1;
            let Some((s, p)) = self.open_seed(browser)? else {
                return Ok(StepReport { action: Cow::Borrowed("SeedRetry"), reward: None });
            };
            state = s;
            page = p;
        }
        let (actions, action_keys): (Vec<&Interactable>, Vec<u64>) =
            keyed_actions(&page, browser.origin()).unzip();
        if actions.is_empty() {
            return Err(CrawlEnd::Stuck);
        }

        // CHOOSE_ACTION.
        let values = self.q.values_for(state, &action_keys);
        let idx = match self.selection {
            ActionSelection::GumbelSoftmax { temperature } => {
                gumbel_softmax_sample(&mut self.rng, &values, temperature)
            }
            ActionSelection::MaxQ => argmax(&values).expect("non-empty actions"),
        };
        let chosen = actions[idx];
        let chosen_key = action_keys[idx];

        // EXECUTE.
        let next_page = match browser.execute(chosen) {
            Ok(p) => p,
            Err(BrowseError::BudgetExhausted) => {
                self.current = Some((state, page));
                return Err(CrawlEnd::BudgetExhausted);
            }
            Err(BrowseError::ExternalDomain(_)) => {
                // Valid-action filtering makes this unreachable; restart
                // defensively.
                let action = Cow::Owned(chosen.signature());
                self.current = None;
                return Ok(StepReport { action, reward: None });
            }
            Err(
                BrowseError::TooManyRedirects(_)
                | BrowseError::Transient { .. }
                | BrowseError::StaleElement,
            ) => {
                // Graceful degradation: the trajectory dead-ends on the
                // fault, so restart from the seed next step. No reward, no
                // Q-update — the fault is noise, not signal.
                let action = Cow::Owned(chosen.signature());
                self.current = None;
                return Ok(StepReport { action, reward: None });
            }
        };

        // GET_STATE (s') and GET_REWARD: curiosity over (s, a) visits.
        let origin = browser.origin();
        self.links.absorb_page(&next_page, origin);
        let next_state = self.states.state_of(&next_page);
        let next_actions: Vec<u64> =
            keyed_actions(&next_page, origin).map(|(_, key)| key).collect();
        let visits = self.visit_counts.entry((state, chosen_key)).or_insert(0);
        *visits += 1;
        let reward = self.curiosity.value(*visits);

        // UPDATE_POLICY.
        match self.update {
            UpdateRule::Bellman => {
                self.q.bellman_update(state, chosen_key, reward, next_state, &next_actions);
            }
            UpdateRule::QExplore { beta } => {
                self.q.qexplore_update(state, chosen_key, reward, next_state, &next_actions, beta);
            }
        }

        let action = Cow::Owned(chosen.signature());
        self.current = Some((next_state, next_page));
        Ok(StepReport { action, reward: Some(reward) })
    }

    fn policy_overhead_ms(&self, cost: &CostModel) -> f64 {
        self.overhead_factor * cost.state_policy_cost(self.states.state_count())
    }

    fn state_count(&self) -> Option<usize> {
        Some(self.states.state_count())
    }

    fn distinct_urls(&self) -> usize {
        self.links.len()
    }

    fn snapshot_state(&self) -> Option<CrawlerState> {
        let mut visit_counts: Vec<(u64, u64, u64)> =
            self.visit_counts.iter().map(|(&(s, a), &n)| (s, a, n)).collect();
        visit_counts.sort_unstable();
        Some(CrawlerState::Q(QState {
            abstraction: self.states.kind().to_owned(),
            states: self.states.snapshot_value(),
            q: self.q.to_value(),
            visit_counts,
            links: self.links.to_value(),
            rng: self.rng.state().to_vec(),
            current: self.current.as_ref().map(|(s, p)| (*s, p.to_value())),
            restarts: self.restarts,
        }))
    }

    fn restore_state(&mut self, state: &CrawlerState) -> Result<(), serde::Error> {
        let CrawlerState::Q(s) = state else {
            return Err(serde::Error::custom(format!(
                "crawler `{}` cannot restore a non-Q state",
                self.name
            )));
        };
        if s.abstraction != self.states.kind() {
            return Err(serde::Error::custom(format!(
                "checkpoint holds a `{}` state table, crawler uses `{}`",
                s.abstraction,
                self.states.kind()
            )));
        }
        if s.rng.len() != 4 || s.rng.iter().all(|&w| w == 0) {
            return Err(serde::Error::custom("invalid RNG state in Q checkpoint"));
        }
        let mut words = [0u64; 4];
        words.copy_from_slice(&s.rng);
        self.states.restore_value(&s.states)?;
        self.q = QTable::from_value(&s.q)?;
        self.visit_counts = s.visit_counts.iter().map(|&(st, a, n)| ((st, a), n)).collect();
        self.links = LinkLog::from_value(&s.links)?;
        self.rng = StdRng::from_state(words);
        self.current = match &s.current {
            Some((st, page)) => Some((*st, Page::from_value(page)?)),
            None => None,
        };
        self.restarts = s.restarts;
        Ok(())
    }
}
