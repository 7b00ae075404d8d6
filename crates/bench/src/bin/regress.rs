//! The coverage/perf **regression gate**: runs a small cache-accelerated
//! matrix (all apps × all six crawlers), folds it into
//! `results/BENCH_coverage.json`, and compares the deterministic metrics
//! (per-pair mean coverage and interactions, per-crawler cumulative
//! regret) against the committed `results/baselines.json`, exiting
//! non-zero on any regression beyond the blessed tolerances.
//!
//! ```text
//! cargo run --release -p mak-bench --bin regress            # gate
//! cargo run --release -p mak-bench --bin regress -- --bless # re-bless
//! ```
//!
//! Unlike the paper-scale binaries, the gate defaults to a small matrix:
//! `MAK_SEEDS` defaults to **2** and `MAK_BUDGET_MINUTES` to **5** here,
//! so an uncached pass stays in the seconds range. Baselines embed the
//! knobs they were blessed under; a mismatched run refuses to compare
//! instead of reporting phantom drift. The aggregate wall-clock envelope
//! is reported on stderr only — it is not deterministic and never gates —
//! but per-app steps/sec is held to the blessed floors at a generous
//! fractional tolerance (apps whose cells all came from the cache are
//! skipped: cached cells carry no wall-clock signal).
//!
//! The gate also holds the **per-phase shares**: the per-app virtual-time
//! phase breakdown in `results/BENCH_perf.json` (written by the `perf`
//! binary) is checked against the blessed share ceilings in
//! `results/phase_gate.json` (see [`mak_bench::phase`]). `--bless`
//! re-derives the ceilings alongside the coverage baselines, and the
//! phase half skips with a note when either file is absent.

use mak::framework::engine::EngineConfig;
use mak::spec::CRAWLER_NAMES;
use mak_bench::gate::{compare, measure, Baselines, CellResult, GateConfig, Tolerances};
use mak_bench::phase::{PerfPhaseView, PhaseGate};
use mak_bench::{results_dir, store, threads, write_result};
use mak_metrics::experiment::{run_matrix_cached_observed, RunMatrix};
use mak_obs::sink::{SharedSink, VecSink};
use mak_websim::apps;
use std::process::ExitCode;

/// Seeds per pair — `MAK_SEEDS`, defaulting to the gate-sized 2 (not the
/// paper-scale 10 of `mak_bench::seeds`).
fn gate_seeds() -> u64 {
    std::env::var("MAK_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(2)
}

/// Budget per run — `MAK_BUDGET_MINUTES`, defaulting to the gate-sized 5.
fn gate_budget_minutes() -> f64 {
    std::env::var("MAK_BUDGET_MINUTES").ok().and_then(|s| s.parse().ok()).unwrap_or(5.0)
}

/// The per-phase half of the gate. With `bless`, derives and writes
/// `results/phase_gate.json` from the current perf report's per-app
/// phase breakdown. Without, returns the share findings (empty = pass).
/// A missing report or missing blessed ceilings skip with a note; an
/// unparseable file is an `Err` — a corrupt artifact must fail loudly,
/// not silently widen the gate.
fn phase_gate(bless: bool) -> Result<Vec<String>, String> {
    let report_path = results_dir().join("BENCH_perf.json");
    let text = match std::fs::read_to_string(&report_path) {
        Ok(t) => t,
        Err(_) => {
            println!(
                "phase gate skipped: {} absent (generate with: \
                 cargo run --release -p mak-bench --bin perf)",
                report_path.display()
            );
            return Ok(Vec::new());
        }
    };
    let view: PerfPhaseView = serde_json::from_str(&text)
        .map_err(|e| format!("{} is not a valid perf report: {e}", report_path.display()))?;

    if bless {
        let gate = PhaseGate::bless(&view);
        write_result(
            "phase_gate.json",
            &serde_json::to_string_pretty(&gate).expect("phase gate serializes"),
        );
        println!(
            "blessed per-phase share ceilings for {} apps ({} seeds x {} min)",
            gate.apps.len(),
            gate.blessed_seeds,
            gate.blessed_budget_minutes
        );
        return Ok(Vec::new());
    }

    let gate_path = results_dir().join("phase_gate.json");
    let gate_text = match std::fs::read_to_string(&gate_path) {
        Ok(t) => t,
        Err(_) => {
            println!(
                "phase gate skipped: {} absent (bless with: \
                 cargo run --release -p mak-bench --bin regress -- --bless)",
                gate_path.display()
            );
            return Ok(Vec::new());
        }
    };
    let gate: PhaseGate = serde_json::from_str(&gate_text)
        .map_err(|e| format!("{} is not a valid phase gate file: {e}", gate_path.display()))?;
    let findings = gate.check(&view);
    if findings.is_empty() {
        println!(
            "phase gate passed: {} apps within their blessed per-phase share ceilings",
            gate.apps.len()
        );
    }
    Ok(findings)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bless = args.iter().any(|a| a == "--bless");
    if args.iter().any(|a| a != "--bless") {
        eprintln!("usage: regress [--bless]");
        return ExitCode::FAILURE;
    }

    let config = GateConfig { seeds: gate_seeds(), budget_minutes: gate_budget_minutes() };
    let all = apps::all_names();
    let m = RunMatrix::new(all.iter().copied(), CRAWLER_NAMES.iter().copied(), config.seeds)
        .with_config(EngineConfig::with_budget_minutes(config.budget_minutes));
    mak_obs::progress!(
        "regress: {} runs ({} apps x {} crawlers x {} seeds, {} min) on {} threads",
        m.run_count(),
        all.len(),
        CRAWLER_NAMES.len(),
        config.seeds,
        config.budget_minutes,
        threads()
    );

    let store = store();
    let (cell_sink, cells_collected) = SharedSink::shared(VecSink::new());
    let reports = run_matrix_cached_observed(&m, threads(), &store, &cell_sink);
    let events =
        cells_collected.lock().unwrap_or_else(std::sync::PoisonError::into_inner).events().to_vec();
    let bench = measure(reports.iter().map(CellResult::from), events.iter(), config);

    write_result(
        "BENCH_coverage.json",
        &serde_json::to_string_pretty(&bench).expect("bench serializes"),
    );
    // Advisory only: wall time is run-dependent, so it lives on stderr
    // and never affects the exit code.
    mak_obs::progress!(
        "perf envelope (advisory): {} fresh cells, mean {:.1} ms/cell, {:.0} steps/s",
        bench.perf.fresh_cells,
        bench.perf.mean_wall_ms,
        bench.perf.mean_steps_per_sec
    );

    let baseline_path = results_dir().join("baselines.json");
    if bless {
        let base = Baselines::from_bench(&bench, Tolerances::default());
        write_result(
            "baselines.json",
            &serde_json::to_string_pretty(&base).expect("baselines serialize"),
        );
        println!(
            "blessed {} pairs, {} crawler regrets, {} steps/sec floors \
             (seeds={}, budget={} min)",
            base.pairs.len(),
            base.regret.len(),
            base.perf_floors.len(),
            base.config.seeds,
            base.config.budget_minutes
        );
        if let Err(e) = phase_gate(true) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "cannot read {}: {e}\nbless initial baselines with: \
                 cargo run --release -p mak-bench --bin regress -- --bless",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let base: Baselines = match serde_json::from_str(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{} is not a valid baselines file: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
    };

    let mut findings = match compare(&bench, &base) {
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        Ok(findings) => findings,
    };
    match phase_gate(false) {
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        Ok(phase_findings) => findings.extend(phase_findings),
    }

    if findings.is_empty() {
        let checked_floors = bench
            .app_perf
            .iter()
            .filter(|p| base.perf_floors.iter().any(|f| f.app == p.app))
            .count();
        println!(
            "regression gate passed: {} pairs, {} crawler regrets, and {} of {} \
             steps/sec floors within tolerance",
            base.pairs.len(),
            base.regret.len(),
            checked_floors,
            base.perf_floors.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("regression gate FAILED with {} findings:", findings.len());
        for f in &findings {
            println!("  {f}");
        }
        ExitCode::FAILURE
    }
}
