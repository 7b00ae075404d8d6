//! The repository benchmark: wall-clock cost of paper-scale crawls and of
//! the crawl service, measured from outside through public entry points.
//!
//! ```text
//! mak-benchmark run    --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--scale F]
//! mak-benchmark trace  --workload <name> [--seed N] [--seconds S] [--scale F]
//! mak-benchmark spread --runs N [--seconds S] [--workload <name>] [--trace 0|1]
//! mak-benchmark bless  [--rounds K] [--scale F] [--workload <name>] [--out FILE]
//! ```
//!
//! `run` prints one JSON object as its last line of output: whether the
//! outputs were correct, sessions attempted and failed, and every
//! end-to-end metric (`--trace 1`: every per-layer metric, from a traced
//! run). It exits non-zero when any output is wrong. See README.md.

mod ledger;
mod stats;
mod workload;

use ledger::GapState;
use stats::{median, quantile};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workload::{Runner, Tally, Tracer, Workload, THREADS};

/// Rounds whose reference digests `bless` records by default.
const BLESS_ROUNDS: usize = 128;
/// Reference digests of rounds at seed 0, from uninterrupted standalone
/// sessions (`bless`).
const EXPECTED: &str = include_str!("../expected.json");

/// Every end-to-end metric, in output order: name and unit.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("sessions_per_h", "1/h"),
    ("step_us_p50", "us"),
    ("step_us_p99", "us"),
    ("peak_rss_mb", "MB"),
];

struct Args {
    command: String,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    expected: Option<PathBuf>,
    runs: usize,
    rounds: usize,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1).peekable();
    let command = match raw.peek() {
        Some(c) if !c.starts_with("--") => raw.next().expect("peeked"),
        _ => "run".to_owned(),
    };
    let mut args = Args {
        command,
        workloads: Vec::new(),
        seed: 0,
        seconds: 25.0,
        trace: false,
        scale: 1.0,
        expected: None,
        runs: 5,
        rounds: BLESS_ROUNDS,
        out: None,
    };
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args
                .workloads
                .push(Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--scale" => args.scale = value.parse().map_err(|_| bad())?,
            "--expected" => args.expected = Some(value.into()),
            "--runs" => args.runs = value.parse().map_err(|_| bad())?,
            "--rounds" => args.rounds = value.parse().map_err(|_| bad())?,
            "--out" => args.out = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let finite = args.scale.is_finite() && args.seconds.is_finite();
    if !finite || args.scale <= 0.0 || args.seconds < 0.0 {
        return Err("--scale must be positive and --seconds non-negative".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mak-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let one = || match args.workloads.as_slice() {
        [w] => Ok(*w),
        _ => Err("name exactly one --workload"),
    };
    let result = match args.command.as_str() {
        "run" if args.trace => one().map(|w| trace(&args, w)),
        "run" => one().map(|w| run(&args, w)),
        "trace" => one().map(|w| trace(&args, w)),
        "spread" => Ok(spread(&args)),
        "bless" => Ok(bless(&args)),
        _ => Err("commands: run, trace, spread, bless"),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("mak-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// The measured run: rounds for `--seconds`, then the correctness checks.
fn run(args: &Args, workload: Workload) -> ExitCode {
    let mut runner = Runner::setup(workload, args.seed, args.scale);
    let mut tally = Tally::default();
    runner.warm_up(&mut tally, args.seconds);
    runner.run_for(Duration::from_secs_f64(args.seconds), &mut tally, None);
    runner.differential(&mut tally);
    check_digests(args, workload, &mut tally);
    drop(runner);

    // Each rate and latency is a median over the timed rounds, so a
    // transient slowdown of the host moves few rounds and not the result.
    let per_round = |f: &dyn Fn(&workload::RoundStats) -> f64| {
        median(&tally.stats.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let values = [
        median(&tally.setup_s).unwrap_or(0.0),
        per_round(&|r| r.steps as f64 / r.wall_s),
        per_round(&|r| r.sessions as f64 / r.wall_s * 3600.0),
        per_round(&|r| r.step_us_p50),
        per_round(&|r| r.step_us_p99),
        workload::rss_kb("VmHWM:") / 1024.0,
    ];
    let rates: Vec<f64> = tally.stats.iter().map(|r| r.steps as f64 / r.wall_s).collect();
    let (q1, q3) = stats::quartiles(&rates).unwrap_or_default();
    eprintln!(
        "{}: {} timed rounds, {} sampled, {} mismatches; steps/s per round q1 {q1:.0} q3 {q3:.0}",
        workload.name(),
        tally.stats.len(),
        tally.sampled.len(),
        tally.mismatches
    );
    let metrics: Vec<(&str, &str, f64)> =
        END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect();
    report(tally.failed == 0, tally.attempted, tally.failed, &metrics)
}

/// Compares each round's digest with the committed reference (seed and
/// scale permitting); a mismatching round fails all its sessions.
fn check_digests(args: &Args, workload: Workload, tally: &mut Tally) {
    let text = match &args.expected {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display())),
        None => EXPECTED.to_owned(),
    };
    let expected: serde::Value = serde_json::from_str(&text).expect("expected digests parse");
    let field = |key| expected.get(key).and_then(number);
    if field("seed") != Some(args.seed as f64) || field("scale") != Some(args.scale) {
        return;
    }
    let Some(serde::Value::Array(rounds)) =
        expected.get("rounds").and_then(|r| r.get(workload.name()))
    else {
        return;
    };
    for (round, sessions, digest) in &tally.rounds {
        match rounds.get(*round) {
            Some(serde::Value::Str(want)) if want == digest => {}
            Some(serde::Value::Str(want)) => {
                eprintln!("round {round}: digest {digest}, expected {want}");
                tally.mismatches += 1;
                tally.failed += sessions;
            }
            _ => {}
        }
    }
}

/// The traced run: an untraced half and a traced half of `--seconds`,
/// then replays through single layers; writes the trace, the layer
/// ledger and the machine fingerprint to `benchmark/out/`.
fn trace(args: &Args, workload: Workload) -> ExitCode {
    let mut runner = Runner::setup(workload, args.seed, args.scale);
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let mut plain = Tally::default();
    runner.warm_up(&mut plain, args.seconds);
    runner.run_for(half, &mut plain, None);
    let tracer = Tracer::new();
    let traced_started = Instant::now();
    let mut traced = Tally::default();
    runner.run_for(half, &mut traced, Some(&tracer));
    let traced_wall = traced_started.elapsed().as_secs_f64();
    for tally in [&mut plain, &mut traced] {
        runner.differential(tally);
        check_digests(args, workload, tally);
    }

    // Session-level attribution: the traced pass itself for paper-matrix,
    // a traced standalone replay of the sampled sessions otherwise.
    let sessions = Arc::new(Mutex::new(GapState::default()));
    if workload == Workload::PaperMatrix {
        let mut merged = sessions.lock().expect("fresh lock");
        for g in &tracer.gaps {
            merged.merge(&g.lock().expect("bench threads have ended"));
        }
    } else {
        runner.traced_replay(&plain.sampled, &sessions);
        runner.traced_replay(&traced.sampled, &sessions);
    }
    let gaps = sessions.lock().expect("replays have ended");
    let replay = ledger::replay(&runner.models, &gaps);

    let mut failed = plain.failed + traced.failed;
    let mut attempted = plain.attempted + traced.attempted;
    let (mut telemetry_overhead, mut scaling_eff) = (0.0, 0.0);
    if workload == Workload::ServeBurst {
        let on = runner.probe_wave(THREADS, true);
        let off = runner.probe_wave(THREADS, false);
        let single = runner.probe_wave(1, true);
        attempted += 3 * runner.round_len() as u64;
        failed += on.2 + off.2 + single.2;
        if on.1 != off.1 || on.1 != single.1 {
            eprintln!("probe waves disagree: {} / {} / {}", on.1, off.1, single.1);
            failed += 1;
        }
        telemetry_overhead = on.0 / off.0 - 1.0;
        scaling_eff = single.0 / (THREADS as f64 * on.0);
    }

    let overhead = 1.0 - traced.steps_per_s() / plain.steps_per_s();
    let (layers, threads) = if workload == Workload::PaperMatrix {
        (gaps.layers.clone(), THREADS)
    } else {
        (tracer.spans.self_times(&["round"]), 1)
    };
    let (layers_json, residual) = ledger::layers_json(
        workload.name(),
        traced_wall,
        threads,
        &layers,
        &[
            ("untraced_steps_per_s", plain.steps_per_s()),
            ("traced_steps_per_s", traced.steps_per_s()),
            ("overhead_frac", overhead),
        ],
        &gaps,
        workload != Workload::PaperMatrix,
    );
    let out = ledger::out_dir();
    let name = workload.name();
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| {
            std::fs::write(out.join(format!("{name}.trace.json")), tracer.spans.chrome_json())
        })
        .and_then(|()| std::fs::write(out.join(format!("{name}.layers.json")), &layers_json))
        .and_then(|()| std::fs::write(out.join("fingerprint.json"), ledger::fingerprint()));
    if let Err(e) = written {
        eprintln!("writing trace artifacts to {}: {e}", out.display());
        failed += 1;
    }
    eprintln!("{layers_json}");

    let mut metrics = per_layer(&plain, &gaps, &replay);
    metrics.extend([
        ("telemetry.overhead_frac".to_owned(), "frac", telemetry_overhead),
        ("serve.scaling_eff".to_owned(), "frac", scaling_eff),
        // The first wave grows the heap; later ones reuse what it freed.
        (
            "mem.rss_kb_per_session".to_owned(),
            "kB",
            plain.serve.rss_kb_per_session.first().copied().unwrap_or(0.0),
        ),
        ("trace.overhead_frac".to_owned(), "frac", overhead),
        ("trace.residual_frac".to_owned(), "frac", residual),
    ]);
    let metrics: Vec<(&str, &str, f64)> =
        metrics.iter().map(|(n, u, v)| (n.as_str(), *u, *v)).collect();
    report(failed == 0, attempted, failed, &metrics)
}

/// The per-layer metrics the untraced rounds, the session attribution
/// and the replays give, in `BENCHMARK.json` order; 0 where a layer does
/// not run in the workload.
fn per_layer(
    plain: &Tally,
    gaps: &GapState,
    replay: &ledger::Replay,
) -> Vec<(String, &'static str, f64)> {
    let s = &plain.serve;
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let q = |v: &[f64], q| quantile(v, q).unwrap_or(0.0);
    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    let per_s = |(s, n): (f64, u64)| if s > 0.0 { n as f64 / s } else { 0.0 };
    let us_per = |(s, n): (f64, u64)| if n > 0 { s / n as f64 * 1e6 } else { 0.0 };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let steps = gaps.counts.get("StepStarted").copied().unwrap_or(0) as f64;
    let events_per_step = ratio(gaps.plain_events as f64, steps);
    let mut metrics = Vec::new();
    for crawler in ["mak", "webexplor", "qexplore"] {
        let v = plain.times.by_crawler.get(crawler).copied().unwrap_or_default();
        metrics.push((format!("core.step_us.{crawler}"), "us", us_per(v)));
    }
    for app in mak_websim::apps::all_names() {
        let v = plain.times.by_app.get(app).copied().unwrap_or_default();
        metrics.push((format!("core.steps_per_s.{app}"), "1/s", per_s(v)));
    }
    let rows = [
        ("core.session_open_us", "us", mean(&plain.times.open_us)),
        ("core.finish_us", "us", mean(&plain.times.finish_us)),
        ("bandit.choose_ns", "ns", gaps.per_marker("bandit.choose", "BanditChoose") * 1e9),
        ("bandit.update_ns", "ns", gaps.per_marker("bandit.update", "RewardUpdate") * 1e9),
        ("core.mak.deque_insert_us", "us", us_per(gaps.segment("PolicyUpdated", "DequeDepth"))),
        ("browser.fetch_us", "us", us_per(gaps.mak_browser)),
        ("websim.fetch_us", "us", replay.fetch_us),
        ("browser.extract_us", "us", replay.extract_us),
        ("websim.normalize_ns", "ns", replay.normalize_ns),
        ("serve.submit_us_p50", "us", q(&s.submit_us, 0.5)),
        ("serve.submit_us_p99", "us", q(&s.submit_us, 0.99)),
        ("serve.dispatch_ns_p50", "ns", q(&s.dispatch_ns, 0.5)),
        ("serve.dispatch_ns_p99", "ns", q(&s.dispatch_ns, 0.99)),
        ("serve.steals", "count", mean(&s.steals)),
        ("serve.queue_peak", "count", s.queue_peak),
        ("serve.drain_rate_ratio", "ratio", med(&s.drain_ratio)),
        ("serve.fold_s", "s", med(&s.fold_s)),
        ("serve.checkpoint.bytes_per_write", "B", ratio(s.ckpt_bytes, s.ckpt_writes.iter().sum())),
        ("serve.checkpoint.writes", "count", med(&s.ckpt_writes)),
        ("serve.park_us", "us", med(&s.park_us)),
        ("serve.recover_us", "us", med(&s.recover_us)),
        ("serve.recover_s", "s", med(&s.recover_s)),
        ("obs.events_per_step", "count", events_per_step),
        ("obs.jsonl_bytes_per_step", "B", replay.jsonl_bytes_per_event * events_per_step),
        ("obs.jsonl_encode_ns", "ns", replay.encode_ns),
    ];
    metrics.extend(rows.into_iter().map(|(n, u, v)| (n.to_owned(), u, v)));
    metrics
}

/// A JSON number as `f64`.
fn number(value: &serde::Value) -> Option<f64> {
    match value {
        serde::Value::Float(f) => Some(*f),
        serde::Value::UInt(n) => Some(*n as f64),
        serde::Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

/// Prints the result line and turns correctness into the exit code.
fn report(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> ExitCode {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload `--runs` times in fresh processes, interleaved,
/// and prints median, quartiles and relative IQR per metric.
fn spread(args: &Args) -> ExitCode {
    let workloads =
        if args.workloads.is_empty() { Workload::ALL.to_vec() } else { args.workloads.clone() };
    let exe = std::env::current_exe().expect("own executable path");
    let mut values: BTreeMap<(&str, String), (String, Vec<f64>)> = BTreeMap::new();
    for run in 0..args.runs {
        for w in &workloads {
            let output = std::process::Command::new(&exe)
                .args(["run", "--workload", w.name()])
                .args(["--seed", &(args.seed + run as u64).to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--scale", &args.scale.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output()
                .expect("spawning a benchmark run");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            let parsed: serde::Value = match serde_json::from_str(line) {
                Ok(v) if output.status.success() => v,
                _ => {
                    eprintln!("run {run} of {} failed: {line}", w.name());
                    return ExitCode::FAILURE;
                }
            };
            for (name, m) in parsed.get("metrics").and_then(|m| m.as_object()).unwrap_or(&[]) {
                let unit = match m.get("unit") {
                    Some(serde::Value::Str(u)) => u.clone(),
                    _ => String::new(),
                };
                let value = m.get("value").and_then(number).unwrap_or(f64::NAN);
                values.entry((w.name(), name.clone())).or_insert((unit, Vec::new())).1.push(value);
            }
        }
    }
    let raw: Vec<String> = values
        .iter()
        .map(|((w, name), (_, v))| {
            let list: Vec<String> = v.iter().map(f64::to_string).collect();
            format!("  \"{w} {name}\": [{}]", list.join(", "))
        })
        .collect();
    let raw_path = ledger::out_dir().join("spread.json");
    let saved = std::fs::create_dir_all(ledger::out_dir())
        .and_then(|()| std::fs::write(&raw_path, format!("{{\n{}\n}}\n", raw.join(",\n"))));
    if let Err(e) = saved {
        eprintln!("writing {}: {e}", raw_path.display());
    }
    println!("| workload | metric | unit | median | q1 | q3 | rel IQR |");
    println!("|---|---|---|---|---|---|---|");
    for ((w, name), (unit, v)) in &values {
        let (q1, q3) = stats::quartiles(v).unwrap_or((f64::NAN, f64::NAN));
        let rel = stats::relative_iqr(v).map_or("-".to_owned(), |r| format!("{:.2}%", r * 100.0));
        println!(
            "| {w} | {name} | {unit} | {:.6} | {q1:.6} | {q3:.6} | {rel} |",
            median(v).unwrap_or(f64::NAN)
        );
    }
    ExitCode::SUCCESS
}

/// Writes the reference digests of rounds `0..--rounds` for every
/// workload (or the named ones), computed from uninterrupted standalone
/// sessions.
fn bless(args: &Args) -> ExitCode {
    let workloads =
        if args.workloads.is_empty() { Workload::ALL.to_vec() } else { args.workloads.clone() };
    let mut body = Vec::new();
    for w in workloads {
        let started = Instant::now();
        let digests = workload::reference_digests(w, args.seed, args.scale, args.rounds);
        eprintln!(
            "{}: {} rounds in {:.1}s",
            w.name(),
            digests.len(),
            started.elapsed().as_secs_f64()
        );
        let list: Vec<String> = digests.iter().map(|d| format!("\"{d}\"")).collect();
        body.push(format!("    \"{}\": [{}]", w.name(), list.join(", ")));
    }
    let text = format!(
        "{{\n  \"seed\": {},\n  \"scale\": {},\n  \"rounds\": {{\n{}\n  }}\n}}\n",
        args.seed,
        args.scale,
        body.join(",\n")
    );
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected.json"));
    match std::fs::write(&path, text) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("writing {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}
