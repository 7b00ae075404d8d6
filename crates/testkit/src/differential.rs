//! Differential oracles: the same `(spec, crawler, seed, config)` cell
//! must produce byte-identical [`CrawlReport`]s no matter *how* it is
//! executed.
//!
//! Four execution paths are cross-checked:
//!
//! - **rerun ≡ first run** — rebuilding the crawler and the app from the
//!   spec and crawling again yields the identical report (the workspace
//!   determinism contract).
//! - **session ≡ one-shot** — driving the cell through the resumable
//!   [`Session`](mak::framework::session::Session) state machine, one
//!   step at a time from outside, yields the identical report (the
//!   serving layer's equivalence contract).
//! - **parallel ≡ sequential** — running all crawlers concurrently on
//!   their own app instances matches the sequential reports (no hidden
//!   shared state, no iteration-order leaks).
//! - **cached ≡ fresh** — a report saved through the
//!   [`RunStore`](mak_metrics::store::RunStore) and loaded back is
//!   field-for-field identical to the fresh one.
//!
//! Reports are compared through their canonical JSON serialization so a
//! mismatch in *any* field (including the full coverage series and trace)
//! is caught, and the differing serialization can be embedded in the
//! violation.

use crate::generate::BlueprintSpec;
use crate::oracle::{InvariantOracle, Violation};
use mak::framework::crawler::Crawler;
use mak::framework::engine::{run_crawl, run_crawl_with_sink, CrawlReport, EngineConfig};
use mak::spec::build_crawler;
use mak_metrics::store::{CacheMode, RunStore};
use mak_obs::sink::{SinkHandle, VecSink};
use mak_obs::trace::first_divergence;

/// Runs one crawl under the event-level invariant oracle, returning both
/// the report and any violations the oracle recorded.
pub fn oracle_crawl(
    crawler: &mut dyn Crawler,
    spec: &BlueprintSpec,
    config: &EngineConfig,
    seed: u64,
) -> (CrawlReport, Vec<Violation>) {
    let (sink, cell) = SinkHandle::shared(InvariantOracle::new());
    let report = run_crawl_with_sink(crawler, Box::new(spec.build()), config, seed, &sink);
    // The crawler keeps a clone of the sink, so take the violations by
    // value instead of unwrapping the cell.
    let violations = cell.lock().unwrap().violations().to_vec();
    (report, violations)
}

/// Canonical JSON form of a report, used for byte-exact comparison.
pub fn report_json(report: &CrawlReport) -> String {
    serde_json::to_string(report).expect("CrawlReport serializes")
}

fn diff_violation(invariant: &str, details: String) -> Violation {
    Violation { step: 0, invariant: invariant.to_owned(), details }
}

fn summarize_mismatch(context: &str, a: &CrawlReport, b: &CrawlReport) -> String {
    format!(
        "{context}: reports differ \
         (interactions {} vs {}, lines {} vs {}, urls {} vs {}, states {:?} vs {:?})",
        a.interactions,
        b.interactions,
        a.final_lines_covered,
        b.final_lines_covered,
        a.distinct_urls,
        b.distinct_urls,
        a.state_count,
        b.state_count,
    )
}

/// Replays one cell with a recording sink and returns its event stream.
fn recorded_crawl(
    spec: &BlueprintSpec,
    crawler_name: &str,
    seed: u64,
    config: &EngineConfig,
) -> Vec<mak_obs::Event> {
    let (sink, cell) = SinkHandle::shared(VecSink::new());
    let mut crawler = build_crawler(crawler_name, seed)
        .unwrap_or_else(|| panic!("unknown crawler {crawler_name}"));
    run_crawl_with_sink(&mut *crawler, Box::new(spec.build()), config, seed, &sink);
    let events = cell.lock().unwrap().events().to_vec();
    events
}

/// On a rerun mismatch, replays the cell twice under event recording and
/// names the first divergent event — turning a bare "reports differ" into
/// a witness with an exact step and payload pair.
fn pinpoint_rerun_divergence(
    spec: &BlueprintSpec,
    crawler_name: &str,
    seed: u64,
    config: &EngineConfig,
) -> String {
    let a = recorded_crawl(spec, crawler_name, seed, config);
    let b = recorded_crawl(spec, crawler_name, seed, config);
    match first_divergence(a, b) {
        Some(div) => format!("; {div}"),
        // The reports differ but two instrumented replays agree: the
        // nondeterminism is outside the event taxonomy (or was triggered
        // by the original, uninstrumented execution path).
        None => "; instrumented replays agree — divergence is outside the event stream".to_owned(),
    }
}

/// Checks that rebuilding everything from the spec and re-crawling yields
/// a byte-identical report.
pub fn check_rerun_identical(
    spec: &BlueprintSpec,
    crawler_name: &str,
    seed: u64,
    config: &EngineConfig,
    first: &CrawlReport,
) -> Result<(), Violation> {
    let mut crawler = build_crawler(crawler_name, seed)
        .unwrap_or_else(|| panic!("unknown crawler {crawler_name}"));
    let rerun = run_crawl(&mut *crawler, Box::new(spec.build()), config, seed);
    if report_json(first) == report_json(&rerun) {
        Ok(())
    } else {
        let mut details =
            summarize_mismatch(&format!("{crawler_name} seed {seed} rerun"), first, &rerun);
        details.push_str(&pinpoint_rerun_divergence(spec, crawler_name, seed, config));
        Err(diff_violation("rerun-identical", details))
    }
}

/// Checks that re-running the cell through a step-driven
/// [`Session`](mak::framework::session::Session) — the state machine the
/// serving layer multiplexes — yields a byte-identical report to the
/// one-shot run.
pub fn check_session_equivalence(
    spec: &BlueprintSpec,
    crawler_name: &str,
    seed: u64,
    config: &EngineConfig,
    first: &CrawlReport,
) -> Result<(), Violation> {
    let crawler = build_crawler(crawler_name, seed)
        .unwrap_or_else(|| panic!("unknown crawler {crawler_name}"));
    let mut session =
        mak::framework::session::Session::new(Box::new(spec.build()), crawler, config, seed);
    while session.step().is_running() {}
    let stepped = session.finish();
    if report_json(first) == report_json(&stepped) {
        Ok(())
    } else {
        Err(diff_violation(
            "session-equivalence",
            summarize_mismatch(&format!("{crawler_name} seed {seed} session"), first, &stepped),
        ))
    }
}

/// Checks that running the given crawlers in parallel (one thread each,
/// each with its own app instance built from the spec) reproduces the
/// sequential reports byte-for-byte.
pub fn check_parallel_sequential(
    spec: &BlueprintSpec,
    crawlers: &[String],
    seed: u64,
    config: &EngineConfig,
    sequential: &[CrawlReport],
) -> Vec<Violation> {
    assert_eq!(crawlers.len(), sequential.len());
    let parallel: Vec<CrawlReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = crawlers
            .iter()
            .map(|name| {
                scope.spawn(move || {
                    let mut crawler =
                        build_crawler(name, seed).unwrap_or_else(|| panic!("unknown {name}"));
                    run_crawl(&mut *crawler, Box::new(spec.build()), config, seed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("crawl thread panicked")).collect()
    });
    let mut violations = Vec::new();
    for ((name, seq), par) in crawlers.iter().zip(sequential).zip(&parallel) {
        if report_json(seq) != report_json(par) {
            violations.push(diff_violation(
                "parallel-sequential",
                summarize_mismatch(&format!("{name} seed {seed} parallel"), seq, par),
            ));
        }
    }
    violations
}

/// Checks that interrupting a session mid-crawl, round-tripping its
/// checkpoint through JSON, and resuming in a *fresh* session (new app
/// instance built from the spec, new crawler seeded from scratch, the
/// checkpoint's steps replayed) yields a byte-identical report to the
/// uninterrupted run — the durability contract the serving layer's crash
/// recovery stands on, exercised on applications nobody hand-wrote.
///
/// The session is interrupted near the midpoint of the first run's
/// interaction count, so the replay must reproduce half a crawl and
/// arrive at the checkpoint's recorded progress before the second half
/// runs.
pub fn check_snapshot_roundtrip(
    spec: &BlueprintSpec,
    crawler_name: &str,
    seed: u64,
    config: &EngineConfig,
    first: &CrawlReport,
) -> Result<(), Violation> {
    use mak::framework::checkpoint::SessionCheckpoint;
    use mak::framework::session::Session;
    use serde::{Deserialize as _, Serialize as _};

    let fail = |details: String| diff_violation("snapshot-roundtrip", details);
    let context = format!("{crawler_name} seed {seed}");

    let crawler = build_crawler(crawler_name, seed)
        .unwrap_or_else(|| panic!("unknown crawler {crawler_name}"));
    let mut session = Session::new(Box::new(spec.build()), crawler, config, seed);
    let halfway = (first.interactions / 2).max(1);
    while session.steps_taken() < halfway && session.step().is_running() {}

    let checkpoint = session.snapshot();
    let json = serde_json::to_string(&checkpoint.to_value())
        .map_err(|e| fail(format!("{context}: checkpoint does not serialize: {e}")))?;
    let value = serde_json::from_str(&json)
        .map_err(|e| fail(format!("{context}: checkpoint JSON unreadable: {e}")))?;
    let decoded = SessionCheckpoint::from_value(&value)
        .map_err(|e| fail(format!("{context}: checkpoint did not round-trip: {e}")))?;

    let fresh_crawler = build_crawler(crawler_name, seed).expect("crawler name checked above");
    let mut resumed = Session::restore_owned(
        Box::new(spec.build()),
        fresh_crawler,
        &decoded,
        mak_obs::sink::SinkHandle::none(),
    )
    .map_err(|e| fail(format!("{context}: restore failed: {e}")))?;
    while resumed.step().is_running() {}
    let report = resumed.finish();
    if report_json(first) == report_json(&report) {
        Ok(())
    } else {
        Err(fail(summarize_mismatch(&format!("{context} resumed"), first, &report)))
    }
}

/// Checks that saving a fresh report through the run cache and loading it
/// back yields a field-for-field identical report. Uses a private store
/// rooted in a per-call temp directory; the directory is removed before
/// returning.
pub fn check_cache_roundtrip(
    spec: &BlueprintSpec,
    crawler_name: &str,
    seed: u64,
    config: &EngineConfig,
    fresh: &CrawlReport,
) -> Result<(), Violation> {
    let dir = std::env::temp_dir().join(format!(
        "mak-testkit-cache-{}-{}-{crawler_name}-{seed}",
        std::process::id(),
        spec.name
    ));
    let store = RunStore::at(&dir, CacheMode::ReadWrite);
    store.save(fresh, config);
    let loaded = store.load(&fresh.app, crawler_name, seed, config);
    let result = match loaded {
        None => Err(diff_violation(
            "cache-roundtrip",
            format!("{crawler_name} seed {seed}: saved report not found on load"),
        )),
        Some(cached) if report_json(&cached) != report_json(fresh) => Err(diff_violation(
            "cache-roundtrip",
            summarize_mismatch(&format!("{crawler_name} seed {seed} cached"), fresh, &cached),
        )),
        Some(_) => Ok(()),
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> EngineConfig {
        EngineConfig::with_budget_minutes(0.5)
    }

    #[test]
    fn rerun_is_identical_for_all_core_crawlers() {
        let spec = BlueprintSpec::generate(5);
        let config = small_config();
        for name in ["mak", "bfs", "dfs", "random", "webexplor", "qexplore"] {
            let mut c = build_crawler(name, 2).unwrap();
            let (report, violations) = oracle_crawl(&mut *c, &spec, &config, 2);
            assert!(violations.is_empty(), "{name}: {violations:?}");
            check_rerun_identical(&spec, name, 2, &config, &report)
                .unwrap_or_else(|v| panic!("{v}"));
        }
    }

    #[test]
    fn stepped_session_matches_one_shot_on_generated_apps() {
        let spec = BlueprintSpec::generate(7);
        let config = small_config();
        for name in ["mak", "qexplore", "dfs"] {
            let mut c = build_crawler(name, 3).unwrap();
            let report = run_crawl(&mut *c, Box::new(spec.build()), &config, 3);
            check_session_equivalence(&spec, name, 3, &config, &report)
                .unwrap_or_else(|v| panic!("{v}"));
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let spec = BlueprintSpec::generate(9);
        let config = small_config();
        let crawlers: Vec<String> =
            ["mak", "bfs", "random"].iter().map(|s| (*s).to_owned()).collect();
        let sequential: Vec<CrawlReport> = crawlers
            .iter()
            .map(|name| {
                let mut c = build_crawler(name, 4).unwrap();
                run_crawl(&mut *c, Box::new(spec.build()), &config, 4)
            })
            .collect();
        let violations = check_parallel_sequential(&spec, &crawlers, 4, &config, &sequential);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn pinpoint_on_a_deterministic_cell_reports_agreement() {
        let spec = BlueprintSpec::generate(3);
        let config = small_config();
        // The workspace is deterministic, so two instrumented replays
        // agree and the pinpointer says so instead of inventing a
        // divergence.
        let msg = pinpoint_rerun_divergence(&spec, "mak", 1, &config);
        assert!(msg.contains("instrumented replays agree"), "{msg}");
    }

    #[test]
    fn snapshot_roundtrip_matches_uninterrupted_for_every_crawler() {
        let spec = BlueprintSpec::generate(21);
        let config = small_config();
        for name in ["mak", "bfs", "dfs", "random", "webexplor", "qexplore"] {
            let mut c = build_crawler(name, 8).unwrap();
            let report = run_crawl(&mut *c, Box::new(spec.build()), &config, 8);
            check_snapshot_roundtrip(&spec, name, 8, &config, &report)
                .unwrap_or_else(|v| panic!("{v}"));
        }
    }

    #[test]
    fn snapshot_roundtrip_holds_under_faults_on_generated_apps() {
        use mak_browser::fault::FaultPlan;
        let spec = BlueprintSpec::generate(33);
        let mut config = small_config();
        config.faults = FaultPlan::profile("heavy").unwrap();
        for name in ["mak", "qexplore"] {
            let mut c = build_crawler(name, 15).unwrap();
            let report = run_crawl(&mut *c, Box::new(spec.build()), &config, 15);
            check_snapshot_roundtrip(&spec, name, 15, &config, &report)
                .unwrap_or_else(|v| panic!("{v}"));
        }
    }

    #[test]
    fn cache_roundtrip_is_exact() {
        let spec = BlueprintSpec::generate(13);
        let config = small_config();
        let mut c = build_crawler("mak", 6).unwrap();
        let report = run_crawl(&mut *c, Box::new(spec.build()), &config, 6);
        check_cache_roundtrip(&spec, "mak", 6, &config, &report).unwrap_or_else(|v| panic!("{v}"));
    }
}
