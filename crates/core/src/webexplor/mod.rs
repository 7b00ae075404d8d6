//! The WebExplor baseline (Zheng et al., ICSE 2021), reimplemented per the
//! paper's description (Table I and §III):
//!
//! - **state abstraction**: a page is the pair (exact URL, sequence of HTML
//!   tags); similarity first requires an exact URL match, then compares tag
//!   sequences with a pattern-matching tolerance;
//! - **reward**: curiosity — inverse-square-root visit counters per
//!   state/action pair;
//! - **policy update**: standard Bellman Q-learning;
//! - **action selection**: Gumbel-softmax over the current state's
//!   Q-values.
//!
//! The DFA guidance of the original tool is intentionally omitted, exactly
//! as in the paper's evaluation (§V-A.2 assumption iii).

pub mod state;

pub use state::WebExplorState;

use crate::framework::qcrawler::{ActionSelection, CuriosityReward, QCrawler, UpdateRule};

/// Builds the WebExplor crawler with the given RNG seed.
///
/// # Examples
///
/// ```
/// use mak::framework::engine::{run_crawl, EngineConfig};
/// use mak_websim::apps;
///
/// let mut crawler = mak::webexplor::webexplor(7);
/// let report = run_crawl(&mut crawler, apps::build("addressbook").unwrap(),
///                        &EngineConfig::with_budget_minutes(1.0), 7);
/// assert_eq!(report.crawler, "webexplor");
/// assert!(report.state_count.unwrap() > 0);
/// ```
pub fn webexplor(seed: u64) -> QCrawler<WebExplorState> {
    QCrawler::new(
        "webexplor",
        WebExplorState::new(),
        ActionSelection::GumbelSoftmax { temperature: 0.2 },
        UpdateRule::Bellman,
        CuriosityReward::InverseSqrt,
        // γ = 0.2 with first-use reward 1/√2 puts the reachable Q ceiling at
        // ≈ 0.88; the optimistic init 0.9 therefore stays strictly above
        // every used action, so Gumbel-softmax keeps favoring fresh ones.
        mak_bandit::qlearning::QTable::with_hasher(0.5, 0.2, 0.9),
        seed,
    )
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
        let host = AppHost::new(apps::build("addressbook").unwrap());
        let mut b = Browser::new(host, VirtualClock::with_budget_minutes(5.0), 1);
        let mut c = webexplor(1);
        for _ in 0..50 {
            if c.step(&mut b).is_err() {
                break;
            }
        }
        assert!(c.state_count().unwrap() > 3);
        assert!(c.distinct_urls() > 3);
        assert!(b.interaction_count() > 30);
    }

    #[test]
    fn url_aliases_explode_webexplor_states() {
        // Fig. 1 (top): on HotCRP-like aliased URLs, exact URL matching
        // manufactures a distinct state for every alias of the same page.
        let host = AppHost::new(apps::build("hotcrp").unwrap());
        let mut b = Browser::new(host, VirtualClock::with_budget_minutes(10.0), 2);
        let mut c = webexplor(2);
        let mut steps = 0;
        while steps < 300 && c.step(&mut b).is_ok() {
            steps += 1;
        }
        let states = c.state_count().unwrap();
        assert!(
            states > 60,
            "alias URLs should inflate the state table: {states} states in {steps} steps"
        );
    }

    #[test]
    fn policy_overhead_grows_with_states() {
        let cost = mak_browser::cost::CostModel::default();
        let host = AppHost::new(apps::build("addressbook").unwrap());
        let mut b = Browser::new(host, VirtualClock::with_budget_minutes(5.0), 3);
        let mut c = webexplor(3);
        let before = c.policy_overhead_ms(&cost);
        for _ in 0..40 {
            if c.step(&mut b).is_err() {
                break;
            }
        }
        assert!(c.policy_overhead_ms(&cost) > before);
    }
}
