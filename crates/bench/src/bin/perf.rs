//! Regenerates the **§V-D performance evaluation**: the mean number of
//! elements each crawler interacted with per run.
//!
//! Paper result: MAK 883, WebExplor 854, QExplore 827 — MAK's coverage gain
//! is "not merely due to more frequent interactions but rather to a more
//! effective selection of elements".
//!
//! Besides the paper table, this binary folds the same runs' virtual-time
//! phase breakdowns into per-app totals and writes them to
//! `results/BENCH_perf.json` ([`PerfPhaseView`]), which `regress` holds to
//! the blessed per-phase share ceilings. Wall-clock cost is the repository
//! benchmark's job (`benchmark/`), not this binary's.

use mak::spec::RL_CRAWLERS;
use mak_bench::phase::{AppPhases, PerfPhaseView};
use mak_bench::{budget_minutes, matrix, seeds, store, threads, write_result, write_summaries};
use mak_metrics::experiment::run_matrix_cached;
use mak_metrics::report::{markdown_table, RunSummary};
use mak_metrics::stats::{mean, sample_std};
use mak_obs::span::PhaseTotals;
use mak_websim::apps;
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn main() {
    let all = apps::all_names();
    let m = matrix(all.iter().copied(), RL_CRAWLERS.iter().copied());
    mak_obs::progress!(
        "perf: {} runs ({} apps x {} crawlers x {} seeds) on {} threads",
        m.run_count(),
        all.len(),
        RL_CRAWLERS.len(),
        seeds(),
        threads()
    );
    let reports = run_matrix_cached(&m, threads(), &store());

    let mut rows = Vec::new();
    for crawler in RL_CRAWLERS {
        let counts: Vec<f64> = reports
            .iter()
            .filter(|r| &r.crawler == crawler)
            .map(|r| r.interactions as f64)
            .collect();
        let states: Vec<f64> = reports
            .iter()
            .filter(|r| &r.crawler == crawler)
            .filter_map(|r| r.state_count.map(|s| s as f64))
            .collect();
        rows.push(vec![
            (*crawler).to_owned(),
            format!("{:.0}", mean(&counts)),
            format!("{:.0}", sample_std(&counts)),
            if states.is_empty() { "-".to_owned() } else { format!("{:.0}", mean(&states)) },
        ]);
    }

    let table = markdown_table(
        &["Crawler", "Mean interacted elements / run", "Std", "Mean states created"],
        &rows,
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Performance (§V-D): interactions per 30-minute run, averaged over the {} \napplications x {} seeds.\n",
        all.len(),
        seeds()
    );
    let _ = writeln!(out, "{table}");
    let _ = writeln!(out, "Paper reference: MAK 883, WebExplor 854, QExplore 827.");
    println!("{out}");
    write_result("perf.md", &out);
    let summaries: Vec<RunSummary> = reports.iter().map(RunSummary::from).collect();
    write_summaries("perf_runs.json", &summaries);

    let mut phase_by_app: BTreeMap<&str, PhaseTotals> = BTreeMap::new();
    for report in &reports {
        phase_by_app.entry(report.app.as_str()).or_default().add(&report.phase);
    }
    let view = PerfPhaseView {
        budget_minutes: budget_minutes(),
        seeds: seeds(),
        phase_by_app: phase_by_app
            .into_iter()
            .map(|(app, phase)| AppPhases { app: app.to_owned(), phase })
            .collect(),
    };
    write_result(
        "BENCH_perf.json",
        &serde_json::to_string_pretty(&view).expect("phase breakdown serializes"),
    );
}
