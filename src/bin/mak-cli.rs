//! `mak-cli` — drive the MAK reproduction from the command line.
//!
//! ```text
//! mak-cli apps                       list the testbed applications
//! mak-cli crawlers                   list the registered crawlers
//! mak-cli crawl <app> [options]      run one crawl and print a report
//! mak-cli compare <app> [options]    run every crawler on one app
//! mak-cli profile <app> <crawler>    run one instrumented crawl and print where
//!                                    the virtual budget went; --perfetto FILE
//!                                    also records the hierarchical span tree
//!                                    and writes it as Chrome/Perfetto
//!                                    trace_events JSON (load at
//!                                    ui.perfetto.dev or chrome://tracing)
//! mak-cli scan <app> [options]       crawl then probe for reflected inputs
//! mak-cli serve <app> [options]      multiplex many concurrent sessions through
//!                                    the in-process crawl service and summarize
//! mak-cli fuzz [options]             fuzz generated apps under the invariant oracles
//! mak-cli fuzz --replay <file>       re-run a saved failure artifact
//! mak-cli cache stats [--json]       summarize the on-disk run cache (under
//!                                    MAK_LOG=debug, also size the hot-path
//!                                    interner tables on a fixed probe crawl);
//!                                    --json prints a machine-readable document
//!                                    instead of the table
//! mak-cli cache clear                delete every cached run
//! mak-cli trace summarize <file>     fold a recorded JSONL trace into a flight
//!                                    report (markdown + SVGs under results/)
//! mak-cli trace diff <a> <b>         compare two traces; print the first
//!                                    divergent event (exit 1 when they differ)
//! mak-cli trace check <file>         replay a trace through the invariant
//!                                    oracle offline (exit 1 on violations)
//!
//! options:
//!   --crawler <name>    crawler for `crawl` (default: mak)
//!   --minutes <f64>     virtual budget (default: 30; fuzz default: 1)
//!   --seed <u64>        RNG seed (default: 0; fuzz: base blueprint seed)
//!   --seeds <u64>       repetitions for `compare`, crawl seeds for `fuzz`,
//!                       concurrent sessions for `serve` (default: 3)
//!   --apps <u64>        generated applications for `fuzz` (default: 25)
//!   --replay <file>     replay a fuzz failure artifact instead of fuzzing
//!   --trace <file>      write the run's observability event stream as JSONL
//!                       (crawl only; also prints the per-step action trace)
//!   --faults <profile>  inject deterministic faults: none, light, moderate,
//!                       or heavy (crawl only; part of the cache key)
//!   --chaos             fuzz under the moderate fault profile (fuzz only)
//!   --metrics <file>    after `serve` drains, write the service metrics as
//!                       Prometheus text to <file> and as a JSON snapshot to
//!                       <file>.json (virtual-domain families are deterministic;
//!                       wall-clock families are marked `domain: wall`)
//!   --perfetto <file>   record phase spans during `profile` and write them as
//!                       Chrome/Perfetto trace_events JSON (virtual-clock
//!                       timestamps, so the file is byte-deterministic)
//!   --checkpoint-dir <dir>  `serve` only: persist session checkpoints to
//!                       <dir> on a cadence, so a crashed or killed process
//!                       can be resumed; sessions also park here when the
//!                       service drains gracefully
//!   --checkpoint-every <n>  steps between cadence checkpoints (default 256)
//!   --resume            `serve` only: instead of submitting fresh sessions,
//!                       recover every parked/crashed session found under
//!                       --checkpoint-dir and run it to completion; each
//!                       recovered session replays its recorded steps on
//!                       the workers and finishes bit-identical to an
//!                       uninterrupted run; a file that fails its checks
//!                       is quarantined and named on stderr
//!
//! `crawl` and `compare` consult the run cache under `results/cache/`
//! (`MAK_CACHE=off|rw|ro` to control, `MAK_CACHE_DIR` to relocate).
//! `fuzz` writes shrunk failure artifacts to `results/fuzz/`.
//! `MAK_LOG=off|progress|debug` controls stderr logging (default: progress).
//! ```

use mak::framework::engine::{run_crawl_with_sink, EngineConfig};
use mak::spec::{build_crawler, CRAWLER_NAMES, MAK_VARIANTS};
use mak_metrics::experiment::{run_matrix_cached, run_one_cached, RunMatrix};
use mak_metrics::ground_truth::UnionCoverage;
use mak_metrics::report::markdown_table;
use mak_metrics::stats::mean;
use mak_metrics::store::RunStore;
use mak_obs::aggregate::Aggregator;
use mak_obs::sink::{JsonlSink, SinkHandle};
use mak_websim::apps;
use std::process::ExitCode;

#[derive(Debug)]
struct Options {
    crawler: String,
    /// `None` means "command default" (30 min for crawls, 1 min for fuzz).
    minutes: Option<f64>,
    seed: u64,
    seeds: u64,
    apps: u64,
    replay: Option<String>,
    /// Target JSONL file for the observability event stream.
    trace: Option<String>,
    /// Fault plan for `crawl` (named profile) — `None` means fault-free.
    faults: Option<mak_browser::fault::FaultPlan>,
    /// `fuzz --chaos`: run the campaign under the moderate fault profile.
    chaos: bool,
    /// `serve --metrics`: write the service's metrics here after the
    /// drain (Prometheus text at the path, JSON snapshot at `.json`).
    metrics: Option<String>,
    /// `profile --perfetto`: record the span tree and write it here as
    /// Chrome/Perfetto `trace_events` JSON.
    perfetto: Option<String>,
    /// `serve --checkpoint-dir`: durable session checkpoints live here;
    /// enables cadence checkpointing and graceful drain on this dir.
    checkpoint_dir: Option<String>,
    /// `serve --checkpoint-every`: steps between cadence checkpoints
    /// (default: the service default, 256).
    checkpoint_every: Option<u64>,
    /// `serve --resume`: recover parked/crashed sessions from
    /// `--checkpoint-dir` instead of submitting fresh ones.
    resume: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            crawler: "mak".to_owned(),
            minutes: None,
            seed: 0,
            seeds: 3,
            apps: 25,
            replay: None,
            trace: None,
            faults: None,
            chaos: false,
            metrics: None,
            perfetto: None,
            checkpoint_dir: None,
            checkpoint_every: None,
            resume: false,
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--crawler" => {
                opts.crawler = it.next().ok_or("--crawler needs a value")?.clone();
            }
            "--minutes" => {
                opts.minutes = Some(
                    it.next()
                        .ok_or("--minutes needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --minutes: {e}"))?,
                );
            }
            "--seed" => {
                opts.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--seeds" => {
                opts.seeds = it
                    .next()
                    .ok_or("--seeds needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seeds: {e}"))?;
            }
            "--apps" => {
                opts.apps = it
                    .next()
                    .ok_or("--apps needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --apps: {e}"))?;
            }
            "--replay" => {
                opts.replay = Some(it.next().ok_or("--replay needs a file path")?.clone());
            }
            "--trace" => {
                opts.trace = Some(it.next().ok_or("--trace needs a file path")?.clone());
            }
            "--faults" => {
                let name = it.next().ok_or("--faults needs a profile name")?;
                opts.faults = Some(mak_browser::fault::FaultPlan::profile(name).ok_or(format!(
                    "unknown fault profile `{name}` (try none, light, moderate, heavy)"
                ))?);
            }
            "--chaos" => {
                opts.chaos = true;
            }
            "--metrics" => {
                opts.metrics = Some(it.next().ok_or("--metrics needs a file path")?.clone());
            }
            "--perfetto" => {
                opts.perfetto = Some(it.next().ok_or("--perfetto needs a file path")?.clone());
            }
            "--checkpoint-dir" => {
                opts.checkpoint_dir =
                    Some(it.next().ok_or("--checkpoint-dir needs a directory path")?.clone());
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = Some(
                    it.next()
                        .ok_or("--checkpoint-every needs a step count")?
                        .parse()
                        .map_err(|e| format!("bad --checkpoint-every: {e}"))?,
                );
            }
            "--resume" => {
                opts.resume = true;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if opts.minutes.is_some_and(|m| m <= 0.0) {
        return Err("--minutes must be positive".to_owned());
    }
    if opts.seeds == 0 {
        return Err("--seeds must be at least 1".to_owned());
    }
    if opts.apps == 0 {
        return Err("--apps must be at least 1".to_owned());
    }
    if opts.resume && opts.checkpoint_dir.is_none() {
        return Err("--resume needs --checkpoint-dir".to_owned());
    }
    if opts.checkpoint_every == Some(0) {
        return Err("--checkpoint-every must be at least 1".to_owned());
    }
    Ok(opts)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: mak-cli <apps|crawlers|crawl <app>|compare <app>|profile <app> <crawler>|\
         scan <app>|serve <app>|fuzz|cache <stats [--json]|clear>|\
         trace <summarize FILE|diff A B|check FILE>> \
         [--crawler NAME] [--minutes F] [--seed N] \
         [--seeds N] [--apps N] [--replay FILE] [--trace FILE] \
         [--faults PROFILE] [--chaos] [--metrics FILE] [--perfetto FILE] \
         [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]"
    );
    ExitCode::FAILURE
}

/// Reads a whole JSONL trace into memory, failing on the first
/// unreadable or unparseable line.
fn load_trace(path: &str) -> Result<Vec<mak_obs::Event>, String> {
    let iter = mak_obs::trace::read(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut events = Vec::new();
    for ev in iter {
        events.push(ev.map_err(|e| format!("{path}: {e}"))?);
    }
    Ok(events)
}

fn cmd_trace_summarize(path: &str) -> ExitCode {
    // Stream the trace straight into the recorder; only the report is
    // held in memory.
    let iter = match mak_obs::trace::read(path) {
        Ok(it) => it,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut recorder = mak_obs::FlightRecorder::new();
    for ev in iter {
        match ev {
            Ok(ev) => mak_obs::EventSink::on_event(&mut recorder, &ev),
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let report = recorder.into_report();
    if report.events == 0 {
        eprintln!("{path}: empty trace");
        return ExitCode::FAILURE;
    }
    let rendered = mak_metrics::flight::render(&report);

    let stem = std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "trace".to_owned());
    let out_dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let md_path = out_dir.join(format!("trace_{stem}.md"));
    if let Err(e) = std::fs::write(&md_path, &rendered.markdown) {
        eprintln!("cannot write {}: {e}", md_path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "{} on {} (seed {}): {} events, {} steps, {} lines covered",
        report.crawler, report.app, report.seed, report.events, report.steps, report.lines
    );
    println!("[wrote {}]", md_path.display());
    for (suffix, svg) in &rendered.svgs {
        let svg_path = out_dir.join(format!("trace_{stem}_{suffix}.svg"));
        if let Err(e) = std::fs::write(&svg_path, svg) {
            eprintln!("cannot write {}: {e}", svg_path.display());
            return ExitCode::FAILURE;
        }
        println!("[wrote {}]", svg_path.display());
    }
    ExitCode::SUCCESS
}

fn cmd_trace_diff(left: &str, right: &str) -> ExitCode {
    let (a, b) = match (load_trace(left), load_trace(right)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (na, nb) = (a.len(), b.len());
    match mak_obs::first_divergence(a, b) {
        None => {
            println!("traces are identical ({na} events)");
            ExitCode::SUCCESS
        }
        Some(div) => {
            println!("{left} ({na} events) vs {right} ({nb} events)");
            println!("{div}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_trace_check(path: &str) -> ExitCode {
    use mak_obs::sink::EventSink;
    use mak_testkit::oracle::InvariantOracle;
    let iter = match mak_obs::trace::read(path) {
        Ok(it) => it,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut oracle = InvariantOracle::new();
    let mut events = 0u64;
    for ev in iter {
        match ev {
            Ok(ev) => {
                oracle.on_event(&ev);
                events += 1;
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let violations = oracle.violations();
    if violations.is_empty() {
        println!("{path}: no invariant violations in {events} events");
        ExitCode::SUCCESS
    } else {
        println!("{path}: {} invariant violations in {events} events", violations.len());
        for v in violations {
            println!("  {v}");
        }
        ExitCode::FAILURE
    }
}

/// The `cache stats --json` document: the same numbers as the table, in
/// a stable machine-readable shape for scripting.
#[derive(serde::Serialize)]
struct CacheStatsJson {
    dir: String,
    mode: String,
    fingerprint: String,
    entries: u64,
    bytes: u64,
    per_pair: Vec<CachePairJson>,
}

/// One `(app, crawler)` row of [`CacheStatsJson`].
#[derive(serde::Serialize)]
struct CachePairJson {
    app: String,
    crawler: String,
    entries: u64,
    bytes: u64,
}

fn cmd_cache_stats(json: bool) -> ExitCode {
    let store = RunStore::from_env();
    let stats = store.stats();
    if json {
        let doc = CacheStatsJson {
            dir: store.root().display().to_string(),
            mode: format!("{:?}", store.mode()),
            fingerprint: format!("{:016x}", store.fingerprint()),
            entries: stats.entries as u64,
            bytes: stats.bytes,
            per_pair: stats
                .per_pair
                .iter()
                .map(|((app, crawler), pair)| CachePairJson {
                    app: app.clone(),
                    crawler: crawler.clone(),
                    entries: pair.entries as u64,
                    bytes: pair.bytes,
                })
                .collect(),
        };
        println!("{}", serde_json::to_string_pretty(&doc).expect("cache stats serialize"));
        return ExitCode::SUCCESS;
    }
    println!("cache dir   : {}", store.root().display());
    println!("mode        : {:?}", store.mode());
    println!("fingerprint : {:016x}", store.fingerprint());
    println!("entries     : {}", stats.entries);
    println!("size        : {:.1} MiB", stats.bytes as f64 / (1024.0 * 1024.0));
    if !stats.per_pair.is_empty() {
        let fmt = |stats: &std::collections::BTreeMap<String, mak_metrics::store::PairStats>| {
            stats
                .iter()
                .map(|(k, s)| {
                    format!("{k} ({} entries, {:.1} KiB)", s.entries, s.bytes as f64 / 1024.0)
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!("per app     : {}", fmt(&stats.per_app_stats()));
        println!("per crawler : {}", fmt(&stats.per_crawler_stats()));
        println!("per (app, crawler):");
        for ((app, crawler), pair) in &stats.per_pair {
            println!(
                "  {app:<14} {crawler:<12} {:>5} entries  {:>9.1} KiB",
                pair.entries,
                pair.bytes as f64 / 1024.0
            );
        }
    }
    if mak_obs::logger::enabled(mak_obs::logger::Level::Debug) {
        // Size the hot-path interner tables on a fixed probe crawl
        // (phpbb2 / mak / seed 0 / 1 virtual minute — deterministic, so
        // the numbers are stable across machines).
        let mut crawler = mak::mak::MakCrawler::new(0);
        let config = EngineConfig::with_budget_minutes(1.0);
        let report = run_crawl_with_sink(
            &mut crawler,
            apps::build("phpbb2").expect("phpbb2 is a registered app"),
            &config,
            0,
            &SinkHandle::none(),
        );
        let deque = crawler.deque().interner();
        let links = crawler.links().interner();
        mak_obs::debug!(
            "interners (probe: phpbb2/mak/seed 0, 1 min, {} interactions):",
            report.interactions
        );
        mak_obs::debug!(
            "  deque signatures : {:>6} symbols  {:>9.1} KiB",
            deque.len(),
            deque.bytes() as f64 / 1024.0
        );
        mak_obs::debug!(
            "  link-log URLs    : {:>6} symbols  {:>9.1} KiB",
            links.len(),
            links.bytes() as f64 / 1024.0
        );
    }
    ExitCode::SUCCESS
}

fn cmd_cache_clear() -> ExitCode {
    let store = RunStore::from_env();
    match store.clear() {
        Ok(removed) => {
            println!("removed {removed} cached runs from {}", store.root().display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("failed to clear {}: {e}", store.root().display());
            ExitCode::FAILURE
        }
    }
}

fn cmd_scan(app: &str, opts: &Options) -> ExitCode {
    use mak_scanner::probe::Sink;
    use mak_scanner::scan::{run_scan, ScanConfig};
    let minutes = opts.minutes.unwrap_or(30.0);
    let config = ScanConfig::with_minutes(minutes, (minutes / 3.0).max(1.0));
    let Some(report) = run_scan(&opts.crawler, app, &config, opts.seed) else {
        eprintln!("unknown crawler `{}` or app `{app}`", opts.crawler);
        return ExitCode::FAILURE;
    };
    println!(
        "{} scanned {}: {} endpoints, {} params, {} forms from {} crawl interactions",
        report.crawler,
        report.app,
        report.surface.endpoint_count(),
        report.surface.param_count(),
        report.surface.form_count(),
        report.crawl_interactions,
    );
    if report.findings.is_empty() {
        println!("no reflected inputs found");
    } else {
        for f in &report.findings {
            match &f.sink {
                Sink::QueryParam { path, param } => {
                    println!("REFLECTED  GET  {path} param `{param}`");
                }
                Sink::FormField { action, field } => {
                    println!("REFLECTED  POST {action} field `{field}`");
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_apps() -> ExitCode {
    println!("{:<14} {:>10}  coverage", "app", "lines");
    for name in apps::all_names() {
        let app = apps::build(name).expect("registered app");
        let mode = match app.coverage_mode() {
            mak_websim::coverage::CoverageMode::Live => "live (Xdebug-style)",
            mak_websim::coverage::CoverageMode::Final => "final (coverage-node-style)",
        };
        println!("{name:<14} {:>10}  {mode}", app.code_model().total_lines());
    }
    ExitCode::SUCCESS
}

fn cmd_crawlers() -> ExitCode {
    println!("paper crawlers : {}", CRAWLER_NAMES.join(", "));
    println!("MAK variants   : {}", MAK_VARIANTS.join(", "));
    ExitCode::SUCCESS
}

fn cmd_crawl(app: &str, opts: &Options) -> ExitCode {
    let Some(app_model) = apps::build(app) else {
        eprintln!("unknown app `{app}`; run `mak-cli apps`");
        return ExitCode::FAILURE;
    };
    if build_crawler(&opts.crawler, opts.seed).is_none() {
        eprintln!("unknown crawler `{}`; run `mak-cli crawlers`", opts.crawler);
        return ExitCode::FAILURE;
    }
    let total = app_model.code_model().total_lines();
    let mut config = EngineConfig::with_budget_minutes(opts.minutes.unwrap_or(30.0));
    config.record_trace = opts.trace.is_some();
    if let Some(plan) = &opts.faults {
        config.faults = plan.clone();
    }

    let store = RunStore::from_env();
    let report = match &opts.trace {
        // A trace wants the event stream, so the run must execute rather
        // than load from the cache (the report is still saved, and it is
        // byte-identical to what a cached rerun would return).
        Some(path) => {
            let file = match std::fs::File::create(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot create trace file {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let sink = JsonlSink::new(std::io::BufWriter::new(file));
            let (handle, cell) = SinkHandle::shared(sink);
            let mut crawler =
                build_crawler(&opts.crawler, opts.seed).expect("existence checked above");
            let report = run_crawl_with_sink(&mut *crawler, app_model, &config, opts.seed, &handle);
            // Dropping the crawler and our handle releases every clone of
            // the sink, so the cell unwraps and the writer can be flushed.
            drop(crawler);
            drop(handle);
            match std::sync::Arc::try_unwrap(cell) {
                Ok(mutex) => {
                    let sink = mutex.into_inner().unwrap_or_else(|p| p.into_inner());
                    let (_, error) = sink.finish();
                    if let Some(e) = error {
                        eprintln!("trace write to {path} failed: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!("[trace written to {path}]");
                }
                Err(_) => {
                    eprintln!("trace file {path} may be unflushed (sink still shared)");
                }
            }
            store.save(&report, &config);
            report
        }
        None => run_one_cached(app, &opts.crawler, opts.seed, &config, &store),
    };
    println!(
        "{} on {}: {}/{} lines ({:.1}%), {} interactions, {} URLs, {:.0}s virtual",
        report.crawler,
        report.app,
        report.final_lines_covered,
        total,
        100.0 * report.final_lines_covered as f64 / total as f64,
        report.interactions,
        report.distinct_urls,
        report.elapsed_secs,
    );
    if let Some(states) = report.state_count {
        println!("states created: {states}");
    }
    if opts.faults.is_some() {
        let f = &report.faults;
        println!(
            "faults: {} injected ({} session expiries, {} stale elements), \
             {} retries, {} recoveries, {} exhausted",
            f.injected, f.session_expiries, f.stale_elements, f.retries, f.recoveries, f.exhausted,
        );
    }
    if opts.trace.is_some() {
        for entry in &report.trace {
            match entry.reward {
                Some(r) => println!("{:8.1}s  {:<60}  r={r:.3}", entry.secs, entry.action),
                None => println!("{:8.1}s  {:<60}", entry.secs, entry.action),
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_profile(app: &str, crawler_name: &str, opts: &Options) -> ExitCode {
    let Some(app_model) = apps::build(app) else {
        eprintln!("unknown app `{app}`; run `mak-cli apps`");
        return ExitCode::FAILURE;
    };
    let Some(mut crawler) = build_crawler(crawler_name, opts.seed) else {
        eprintln!("unknown crawler `{crawler_name}`; run `mak-cli crawlers`");
        return ExitCode::FAILURE;
    };
    let config = EngineConfig::with_budget_minutes(opts.minutes.unwrap_or(30.0));
    let started = std::time::Instant::now();
    let agg = match &opts.perfetto {
        // A Perfetto export needs the raw span events, so buffer the
        // stream and fold the aggregate afterwards; the span machinery is
        // only switched on here, keeping the plain profile zero-overhead.
        Some(path) => {
            use mak_obs::sink::EventSink;
            let (handle, cell) = SinkHandle::shared(mak_obs::sink::VecSink::new());
            let handle = handle.with_spans();
            run_crawl_with_sink(&mut *crawler, app_model, &config, opts.seed, &handle);
            drop(crawler);
            drop(handle);
            let cell = cell.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let mut trace = mak_obs::perfetto::PerfettoTrace::new(format!(
                "{app} / {crawler_name} / seed {}",
                opts.seed
            ));
            let mut agg = Aggregator::new();
            for event in cell.events() {
                trace.push(event);
                agg.on_event(event);
            }
            if let Err(e) = std::fs::write(path, trace.to_json()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("[wrote {path}: {} spans]", trace.len());
            agg
        }
        None => {
            let (handle, cell) = SinkHandle::shared(Aggregator::new());
            run_crawl_with_sink(&mut *crawler, app_model, &config, opts.seed, &handle);
            drop(crawler);
            drop(handle);
            let mutex = std::sync::Arc::try_unwrap(cell)
                .unwrap_or_else(|_| panic!("all sink clones dropped"));
            mutex.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner)
        }
    };
    let wall = started.elapsed();

    println!(
        "{} on {} (seed {}): {} steps, {} pages (+{} redirects), {} lines, {:.0}s virtual",
        agg.crawler,
        agg.app,
        agg.seed,
        agg.steps,
        agg.pages,
        agg.redirects,
        agg.lines,
        agg.elapsed_ms / 1000.0,
    );
    println!("\nvirtual budget breakdown:");
    let elapsed = agg.elapsed_ms.max(1.0);
    for (bucket, ms) in agg.profile.rows() {
        println!("  {bucket:<9} {:>9.1}s  {:>5.1}%", ms / 1000.0, 100.0 * ms / elapsed);
    }
    if agg.spans > 0 {
        println!("\nspan phase attribution ({} spans):", agg.spans);
        for (phase, ms) in agg.span_phase_ms.iter() {
            println!("  {phase:<20} {:>9.1}s  {:>5.1}%", ms / 1000.0, 100.0 * ms / elapsed);
        }
    }
    if !agg.steps_per_arm.is_empty() {
        println!("\nper-arm usage:");
        for (arm, count) in agg.steps_per_arm.iter() {
            let mean = agg.rewards_per_arm.get(arm).map(|s| s.mean()).unwrap_or(0.0);
            println!("  {arm:<24} {count:>5} steps  mean reward {mean:.3}");
        }
    }
    println!("\npage cost histogram (ms):");
    for (label, count) in agg.fetch_cost.rows() {
        if count > 0 {
            println!("  {label:<9} {count:>5}");
        }
    }
    println!("\npeak deque depth : {}", agg.deque_peak);
    println!("exp3.1 epochs    : max {} ({} advances)", agg.max_epoch, agg.epoch_advances);
    println!("throughput       : {:.1} steps / virtual s", agg.steps_per_virtual_sec());
    println!("wall time        : {:.3}s ({:.0}x real time)", wall.as_secs_f64(), {
        let w = wall.as_secs_f64();
        if w > 0.0 {
            (agg.elapsed_ms / 1000.0) / w
        } else {
            f64::INFINITY
        }
    });
    ExitCode::SUCCESS
}

fn cmd_compare(app: &str, opts: &Options) -> ExitCode {
    if apps::build(app).is_none() {
        eprintln!("unknown app `{app}`; run `mak-cli apps`");
        return ExitCode::FAILURE;
    }
    let matrix = RunMatrix::new([app], CRAWLER_NAMES.iter().copied(), opts.seeds)
        .with_config(EngineConfig::with_budget_minutes(opts.minutes.unwrap_or(30.0)));
    mak_obs::progress!("running {} crawls…", matrix.run_count());
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let reports = run_matrix_cached(&matrix, threads, &RunStore::from_env());

    let union = UnionCoverage::from_reports(reports.iter());
    let mut rows = Vec::new();
    for crawler in CRAWLER_NAMES {
        let lines: Vec<f64> = reports
            .iter()
            .filter(|r| &r.crawler == crawler)
            .map(|r| r.final_lines_covered as f64)
            .collect();
        rows.push(vec![
            (*crawler).to_owned(),
            format!("{:.0}", mean(&lines)),
            format!("{:.1}%", 100.0 * mean(&lines) / union.len() as f64),
        ]);
    }
    println!("{}", markdown_table(&["Crawler", "Mean lines", "% of union"], &rows));
    ExitCode::SUCCESS
}

/// `serve <app>`: submit `--seeds` concurrent sessions of one crawler to
/// the in-process crawl service, drain them on the scheduler, and print
/// per-session results plus aggregate throughput.
fn cmd_serve(app: &str, opts: &Options) -> ExitCode {
    use mak_serve::{CrawlService, ServiceConfig, SessionSpec};

    if apps::build(app).is_none() {
        eprintln!("unknown app `{app}`; run `mak-cli apps`");
        return ExitCode::FAILURE;
    }
    if build_crawler(&opts.crawler, 0).is_none() {
        eprintln!("unknown crawler `{}`; run `mak-cli crawlers`", opts.crawler);
        return ExitCode::FAILURE;
    }
    let mut config = EngineConfig::with_budget_minutes(opts.minutes.unwrap_or(30.0));
    if let Some(plan) = &opts.faults {
        config.faults = plan.clone();
    }
    // Metrics output should include the wall-clock latency histogram,
    // so sampling rides along with --metrics.
    let mut service_config =
        ServiceConfig { sample_latency: opts.metrics.is_some(), ..ServiceConfig::default() };
    if let Some(dir) = &opts.checkpoint_dir {
        service_config.checkpoint_dir = Some(dir.into());
    }
    if let Some(every) = opts.checkpoint_every {
        service_config.checkpoint_every_steps = every;
    }
    let threads = service_config.threads;
    let mut service = CrawlService::new(service_config);
    if opts.resume {
        let report = match service.recover() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("recover failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        for (file, reason) in &report.quarantined {
            eprintln!("quarantined {file}: {reason}");
        }
        for (id, err) in &report.rejected {
            eprintln!("session {id} not re-admitted: {err}");
        }
        if report.restored == 0 {
            println!("no sessions to resume under {}", opts.checkpoint_dir.as_deref().unwrap());
            return if report.corrupt_quarantined > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            };
        }
        mak_obs::progress!(
            "resuming {} checkpointed sessions on {} threads…",
            report.restored,
            threads
        );
    } else {
        for s in 0..opts.seeds {
            if let Err(e) = service.submit(
                SessionSpec::new("cli", app, &opts.crawler, opts.seed + s).config(config.clone()),
            ) {
                eprintln!("submit failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        mak_obs::progress!(
            "serving {} concurrent sessions of {} on {app} ({} threads)…",
            service.in_flight(),
            opts.crawler,
            threads
        );
    }
    let started = std::time::Instant::now();
    let done = service.run_to_drain();
    let wall = started.elapsed().as_secs_f64();
    // Replays run on the workers, so a checkpoint whose replay fails its
    // checks is found during the drain.
    for (session, reason) in service.last_quarantined() {
        eprintln!("quarantined {session}: {reason}");
    }

    println!(
        "{:>8}  {:>6}  {:>12}  {:>6}  {:>8}",
        "seed", "lines", "interactions", "urls", "virtual"
    );
    for c in &done {
        println!(
            "{:>8}  {:>6}  {:>12}  {:>6}  {:>7.0}s",
            c.report.seed,
            c.report.final_lines_covered,
            c.report.interactions,
            c.report.distinct_urls,
            c.report.elapsed_secs,
        );
    }
    let lines: Vec<f64> = done.iter().map(|c| c.report.final_lines_covered as f64).collect();
    println!(
        "\n{} sessions drained in {wall:.2}s ({:.0} sessions/hour), mean {:.0} lines, {} aborted",
        done.len(),
        if wall > 0.0 { done.len() as f64 / (wall / 3600.0) } else { f64::INFINITY },
        mean(&lines),
        service.aborted(),
    );
    if let Some(path) = &opts.metrics {
        let snapshot = service.metrics().snapshot();
        if let Err(e) = std::fs::write(path, snapshot.to_prometheus()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        let json_path = format!("{path}.json");
        if let Err(e) = std::fs::write(&json_path, snapshot.to_json()) {
            eprintln!("cannot write {json_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("[wrote {path} and {json_path}]");
    }
    // As when `recover()` quarantines every file: a resume that brought
    // no session back fails.
    if service.aborted() > 0 || (done.is_empty() && !service.last_quarantined().is_empty()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_fuzz(opts: &Options) -> ExitCode {
    use mak_testkit::fuzz::{replay, run_fuzz, FuzzConfig};

    if let Some(path) = &opts.replay {
        let outcome = match replay(std::path::Path::new(path)) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "replaying {path}: {} on {} (seed {}, {} min, {} pages)",
            outcome.artifact.crawler,
            outcome.artifact.spec.name,
            outcome.artifact.seed,
            outcome.artifact.budget_minutes,
            outcome.artifact.spec.total_pages(),
        );
        println!("recorded violation: {}", outcome.artifact.violation);
        return match outcome.reproduced {
            Some(v) => {
                println!("STILL REPRODUCES: {v}");
                ExitCode::FAILURE
            }
            None => {
                println!("does not reproduce — the underlying bug appears fixed");
                ExitCode::SUCCESS
            }
        };
    }

    let cfg = FuzzConfig {
        apps: opts.apps,
        seeds: opts.seeds,
        base_seed: opts.seed,
        budget_minutes: opts.minutes.unwrap_or(1.0),
        progress: true,
        faults: if opts.chaos {
            mak_browser::fault::FaultPlan::profile("moderate").expect("registered profile")
        } else {
            mak_browser::fault::FaultPlan::none()
        },
        ..FuzzConfig::default()
    };
    println!(
        "fuzzing {} generated apps x {} seeds x {} crawlers ({} min budget each{})",
        cfg.apps,
        cfg.seeds,
        cfg.crawlers.len(),
        cfg.budget_minutes,
        if opts.chaos { ", chaos: moderate faults" } else { "" },
    );
    let outcome = match run_fuzz(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fuzz I/O error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{} apps, {} oracle runs", outcome.apps, outcome.runs);
    if outcome.clean() {
        println!("no invariant or differential violations");
        ExitCode::SUCCESS
    } else {
        println!("{} failures; artifacts:", outcome.failures.len());
        for (path, artifact) in &outcome.failures {
            println!("  {}  ({})", path.display(), artifact.violation);
        }
        println!("replay with: mak-cli fuzz --replay <file>");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { return usage() };
    match command.as_str() {
        "apps" => cmd_apps(),
        "crawlers" => cmd_crawlers(),
        "fuzz" => match parse_options(&args[1..]) {
            Ok(opts) => cmd_fuzz(&opts),
            Err(e) => {
                eprintln!("{e}");
                usage()
            }
        },
        "cache" => match (args.get(1).map(String::as_str), args.get(2).map(String::as_str)) {
            (Some("stats"), None) => cmd_cache_stats(false),
            (Some("stats"), Some("--json")) => cmd_cache_stats(true),
            (Some("clear"), None) => cmd_cache_clear(),
            _ => {
                eprintln!("`cache` needs a subcommand: stats [--json] or clear");
                usage()
            }
        },
        "trace" => match (args.get(1).map(String::as_str), args.get(2), args.get(3)) {
            (Some("summarize"), Some(file), None) => cmd_trace_summarize(file),
            (Some("diff"), Some(a), Some(b)) => cmd_trace_diff(a, b),
            (Some("check"), Some(file), None) => cmd_trace_check(file),
            _ => {
                eprintln!(
                    "`trace` needs a subcommand: summarize <file>, diff <a> <b>, or check <file>"
                );
                usage()
            }
        },
        "profile" => {
            let (Some(app), Some(crawler)) = (args.get(1), args.get(2)) else {
                eprintln!("`profile` needs an application and a crawler name");
                return usage();
            };
            match parse_options(&args[3..]) {
                Ok(opts) => cmd_profile(app, crawler, &opts),
                Err(e) => {
                    eprintln!("{e}");
                    usage()
                }
            }
        }
        "crawl" | "compare" | "scan" | "serve" => {
            let Some(app) = args.get(1) else {
                eprintln!("`{command}` needs an application name");
                return usage();
            };
            let opts = match parse_options(&args[2..]) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            match command.as_str() {
                "crawl" => cmd_crawl(app, &opts),
                "scan" => cmd_scan(app, &opts),
                "serve" => cmd_serve(app, &opts),
                _ => cmd_compare(app, &opts),
            }
        }
        _ => usage(),
    }
}
