//! The QExplore baseline (Sherin et al., JSS 2023), reimplemented per the
//! paper's description (Table I and §III):
//!
//! - **state abstraction**: the hash of the sequence of attribute values of
//!   the page's interactable elements;
//! - **reward**: curiosity — inverse visit counters;
//! - **policy update**: Q-learning modified to steer towards states with
//!   more actions;
//! - **action selection**: deterministic maximum-Q (with optimistic
//!   initialization so fresh actions get tried).

pub mod state;

pub use state::QExploreState;

use crate::framework::qcrawler::{ActionSelection, CuriosityReward, QCrawler, UpdateRule};

/// Builds the QExplore crawler with the given RNG seed.
///
/// # Examples
///
/// ```
/// use mak::framework::engine::{run_crawl, EngineConfig};
/// use mak_websim::apps;
///
/// let mut crawler = mak::qexplore::qexplore(7);
/// let report = run_crawl(&mut crawler, apps::build("addressbook").unwrap(),
///                        &EngineConfig::with_budget_minutes(1.0), 7);
/// assert_eq!(report.crawler, "qexplore");
/// ```
pub fn qexplore(seed: u64) -> QCrawler<QExploreState> {
    QCrawler::new(
        "qexplore",
        QExploreState::new(),
        ActionSelection::MaxQ,
        UpdateRule::QExplore { beta: 0.2 },
        CuriosityReward::Inverse,
        // Deterministic arg-max relies on the optimistic init to drive
        // exploration: with γ = 0.2, first-use reward 0.5 and the ≤ 0.2
        // action-count bonus, used actions peak around 0.88 < 0.9.
        mak_bandit::qlearning::QTable::with_hasher(0.5, 0.2, 0.9),
        seed,
    )
    // Hashing every element's attribute values per page costs more than
    // WebExplor's URL-indexed lookup (§V-D: 827 vs 854 interactions).
    .with_overhead_factor(2.2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::crawler::Crawler;
    use mak_browser::client::Browser;
    use mak_browser::clock::VirtualClock;
    use mak_websim::apps;
    use mak_websim::server::AppHost;

    #[test]
    fn crawls_and_builds_states() {
        let host = AppHost::new(apps::build("vanilla").unwrap());
        let mut b = Browser::new(host, VirtualClock::with_budget_minutes(5.0), 1);
        let mut c = qexplore(1);
        for _ in 0..60 {
            if c.step(&mut b).is_err() {
                break;
            }
        }
        assert!(c.state_count().unwrap() > 3);
        assert!(b.interaction_count() > 40);
    }

    #[test]
    fn mutating_trap_creates_unbounded_states() {
        // Fig. 1 (bottom): every Drupal-shortcut submission changes the
        // element list, so the attribute-value hash allocates a new state.
        let host = AppHost::new(apps::build("drupal").unwrap());
        let mut b = Browser::new(host, VirtualClock::with_budget_minutes(15.0), 2);
        // Drive the browser to the trap page and submit the form repeatedly
        // through a crawler-independent probe: each re-render must map to a
        // fresh QExplore state.
        let mut states = QExploreState::new();
        use crate::framework::qcrawler::StateAbstraction;
        let trap_url: mak_websim::url::Url = "http://drupal.local/shortcuts".parse().unwrap();
        let page0 = b.navigate(&trap_url).unwrap();
        let s0 = states.state_of(&page0);
        let form = page0
            .valid_interactables(&trap_url)
            .find(|i| matches!(i, mak_websim::dom::Interactable::Form(_)))
            .cloned()
            .unwrap();
        let mut last = s0;
        for _ in 0..5 {
            let page = b.execute(&form).unwrap();
            let s = states.state_of(&page);
            assert_ne!(s, last, "each submission must look like a brand-new state");
            last = s;
        }
        assert_eq!(states.state_count(), 6);
    }
}
