//! Regenerates **Table II**: estimated mean code coverage of MAK,
//! WebExplor and QExplore on all eleven applications.
//!
//! Following §V-B: for PHP-style (live-coverage) applications the ground
//! truth is the union of unique covered lines across all crawlers and runs;
//! for Node.js-style applications the denominator is the tool-reported
//! total line count.

use mak::spec::RL_CRAWLERS;
use mak_bench::{matrix, pct, seeds, store, threads, write_result, write_summaries};
use mak_metrics::experiment::run_matrix_cached;
use mak_metrics::ground_truth::UnionCoverage;
use mak_metrics::plot::{BarChart, BarSeries};
use mak_metrics::report::{markdown_table, RunSummary};
use mak_metrics::stats::mean;
use mak_websim::apps::{self, NODE_APPS};
use std::fmt::Write as _;

fn main() {
    let all = apps::all_names();
    let m = matrix(all.iter().copied(), RL_CRAWLERS.iter().copied());
    mak_obs::progress!(
        "table2: {} runs ({} apps x {} crawlers x {} seeds) on {} threads",
        m.run_count(),
        all.len(),
        RL_CRAWLERS.len(),
        seeds(),
        threads()
    );
    let reports = run_matrix_cached(&m, threads(), &store());

    let mut rows = Vec::new();
    let mut chart_values: Vec<Vec<f64>> = vec![Vec::new(); RL_CRAWLERS.len()];
    for app in &all {
        let app_reports: Vec<_> = reports.iter().filter(|r| &r.app == app).collect();
        let union = UnionCoverage::from_reports(app_reports.iter().copied());
        let node = NODE_APPS.contains(app);
        let denominator =
            if node { app_reports[0].total_declared_lines as f64 } else { union.len() as f64 };

        let mut row = vec![(*app).to_owned()];
        let mut best = (0usize, f64::MIN);
        let mut values = Vec::new();
        for (i, crawler) in RL_CRAWLERS.iter().enumerate() {
            let covs: Vec<f64> = app_reports
                .iter()
                .filter(|r| &r.crawler == crawler)
                .map(|r| r.final_lines_covered as f64 / denominator)
                .collect();
            let v = mean(&covs);
            if v > best.1 {
                best = (i, v);
            }
            values.push(v);
        }
        for (i, v) in values.iter().enumerate() {
            let cell = if i == best.0 { format!("**{}**", pct(*v)) } else { pct(*v) };
            row.push(cell);
            chart_values[i].push(100.0 * v);
        }
        rows.push(row);
    }

    // SVG companion: grouped bars per application (the markdown table is
    // the table view).
    let mut chart = BarChart::new(
        format!("Table II — estimated mean coverage ({} seeds)", seeds()),
        "% of ground truth",
        all.iter().copied(),
    );
    for (i, crawler) in RL_CRAWLERS.iter().enumerate() {
        chart = chart
            .series(BarSeries { name: (*crawler).to_owned(), values: chart_values[i].clone() });
    }
    write_result("table2.svg", &chart.to_svg());

    let mut headers = vec!["Application"];
    headers.extend(["MAK", "WebExplor", "QExplore"]);
    let table = markdown_table(&headers, &rows);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table II: estimated mean code coverage ({} seeds per cell; PHP apps vs union\nground truth, Node.js apps vs tool-reported totals). Best per app in bold.\n",
        seeds()
    );
    let _ = writeln!(out, "{table}");
    println!("{out}");
    write_result("table2.md", &out);
    let summaries: Vec<RunSummary> = reports.iter().map(RunSummary::from).collect();
    write_summaries("table2_runs.json", &summaries);
}
