//! Non-learning baseline crawlers: BFS, DFS, Random (§V-C).
//!
//! The ablation of §V-C compares MAK against the three classical
//! navigation strategies. As the paper notes, "these strategies can be
//! simulated with MAK by always executing one of its three actions Head,
//! Tail, and Random" — which is exactly how [`StaticCrawler`] is built, so
//! the comparison isolates the learning component.

use crate::framework::crawler::{CrawlEnd, Crawler, StepReport};
use crate::mak::crawler::MakCrawler;
use crate::mak::deque::Arm;
use mak_browser::client::Browser;
use mak_browser::cost::CostModel;

/// A non-learning crawler pinned to one navigation strategy.
#[derive(Debug)]
pub struct StaticCrawler {
    inner: MakCrawler,
}

impl StaticCrawler {
    /// Breadth-first search: always plays `Head`.
    pub fn bfs(seed: u64) -> Self {
        StaticCrawler { inner: MakCrawler::with_fixed_arm("bfs", Arm::Head, seed) }
    }

    /// Depth-first search: always plays `Tail`.
    pub fn dfs(seed: u64) -> Self {
        StaticCrawler { inner: MakCrawler::with_fixed_arm("dfs", Arm::Tail, seed) }
    }

    /// Random strategy: always plays `Random`.
    pub fn random(seed: u64) -> Self {
        StaticCrawler { inner: MakCrawler::with_fixed_arm("random", Arm::Random, seed) }
    }

    /// Builds the static crawler named `name` (`"bfs"`, `"dfs"`,
    /// `"random"`), or `None` for an unknown name.
    pub fn by_name(name: &str, seed: u64) -> Option<Self> {
        match name {
            "bfs" => Some(Self::bfs(seed)),
            "dfs" => Some(Self::dfs(seed)),
            "random" => Some(Self::random(seed)),
            _ => None,
        }
    }
}

impl Crawler for StaticCrawler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn step(&mut self, browser: &mut Browser) -> Result<StepReport, CrawlEnd> {
        self.inner.step(browser)
    }

    fn policy_overhead_ms(&self, cost: &CostModel) -> f64 {
        // No policy at all: cheaper than even the stateless learner.
        cost.stateless_policy_cost() * 0.5
    }

    fn distinct_urls(&self) -> usize {
        self.inner.distinct_urls()
    }

    fn attach_sink(&mut self, sink: mak_obs::sink::SinkHandle) {
        self.inner.attach_sink(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::engine::{run_crawl, EngineConfig};
    use mak_websim::apps;

    #[test]
    fn by_name_builds_all_three() {
        assert_eq!(StaticCrawler::by_name("bfs", 1).unwrap().name(), "bfs");
        assert_eq!(StaticCrawler::by_name("dfs", 1).unwrap().name(), "dfs");
        assert_eq!(StaticCrawler::by_name("random", 1).unwrap().name(), "random");
        assert!(StaticCrawler::by_name("astar", 1).is_none());
    }

    #[test]
    fn strategies_visit_different_frontiers() {
        let cfg = EngineConfig::with_budget_minutes(3.0);
        let mut bfs = StaticCrawler::bfs(1);
        let mut dfs = StaticCrawler::dfs(1);
        let b = run_crawl(&mut bfs, apps::build("wordpress").unwrap(), &cfg, 1);
        let d = run_crawl(&mut dfs, apps::build("wordpress").unwrap(), &cfg, 1);
        assert_ne!(
            b.final_lines_covered, d.final_lines_covered,
            "BFS and DFS must explore differently on a deep/wide app"
        );
    }

    #[test]
    fn dfs_sinks_into_pagination_traps() {
        // WordPress has long near-empty archive chains: depth-first should
        // pay for them with lower coverage than breadth-first on average.
        let cfg = EngineConfig::with_budget_minutes(10.0);
        let mean = |make: fn(u64) -> StaticCrawler| -> f64 {
            (1..=3u64)
                .map(|seed| {
                    let mut c = make(seed);
                    run_crawl(&mut c, apps::build("wordpress").unwrap(), &cfg, seed)
                        .final_lines_covered as f64
                })
                .sum::<f64>()
                / 3.0
        };
        let b = mean(StaticCrawler::bfs);
        let d = mean(StaticCrawler::dfs);
        assert!(b > d, "bfs {b} vs dfs {d}");
    }
}
