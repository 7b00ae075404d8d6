//! The four workloads: the crawls each generates per round, how a round
//! drives the program, and what it measures from outside.
//!
//! A run repeats rounds until its time budget is spent. Round `r` of a
//! workload is a fixed list of crawl specs derived from `(seed, r)`, so
//! every round's outcome digest is reproducible and checkable on its own,
//! however many rounds a machine manages in the budget.

use crate::ledger::{out_dir, GapSink, GapState, Span, Spans};
use crate::stats::{self, Digest};
use mak::framework::engine::{CrawlReport, EngineConfig};
use mak::framework::session::Session;
use mak::spec::build_crawler;
use mak_obs::sink::{JsonlSink, SinkHandle};
use mak_serve::{CompletedSession, CrawlService, ServiceConfig, SessionSpec, TenantQuota};
use mak_websim::apps;
use mak_websim::server::WebApp;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Threads that carry the load: bench threads for `paper-matrix`, service
/// workers for the serve workloads. Fixed, so results do not depend on
/// the core count of the machine.
pub const THREADS: usize = 2;
/// Steps timed together in a standalone session (the service's slice).
const QUANTUM: usize = 64;
/// One in this many sessions is re-run standalone and compared.
const SAMPLE_EVERY: usize = 100;
/// `serve-durable` checkpoint cadence, in steps.
const CADENCE: u64 = 64;
/// Untimed rounds run this long before the timed ones.
const WARM_UP: Duration = Duration::from_secs(2);
const TENANT: &str = "bench";

const SERVE_APPS: &[&str] = &["addressbook", "vanilla", "phpbb2"];
const SERVE_CRAWLERS: &[&str] = &["mak", "bfs", "random"];
const TRACED_APPS: &[&str] = &["addressbook", "vanilla", "phpbb2", "hotcrp"];
const RL_CRAWLERS: &[&str] = &["mak", "webexplor", "qexplore"];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperMatrix,
    ServeBurst,
    ServeDurable,
    ServeTraced,
}

/// Round shape: who crawls what, how long, and how many per round.
struct Shape {
    apps: Vec<&'static str>,
    crawlers: &'static [&'static str],
    per_round: usize,
    minutes: f64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperMatrix,
        Workload::ServeBurst,
        Workload::ServeDurable,
        Workload::ServeTraced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMatrix => "paper-matrix",
            Workload::ServeBurst => "serve-burst",
            Workload::ServeDurable => "serve-durable",
            Workload::ServeTraced => "serve-traced",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn shape(self) -> Shape {
        match self {
            // The paper's matrix: every app under each learning crawler,
            // four seeds per round, 30 virtual minutes each.
            Workload::PaperMatrix => Shape {
                apps: apps::all_names(),
                crawlers: RL_CRAWLERS,
                per_round: 11 * 3 * 4,
                minutes: 30.0,
            },
            Workload::ServeBurst => Shape {
                apps: SERVE_APPS.to_vec(),
                crawlers: SERVE_CRAWLERS,
                per_round: 10_000,
                minutes: 0.5,
            },
            Workload::ServeDurable => Shape {
                apps: SERVE_APPS.to_vec(),
                crawlers: SERVE_CRAWLERS,
                per_round: 200,
                minutes: 5.0,
            },
            Workload::ServeTraced => Shape {
                apps: TRACED_APPS.to_vec(),
                crawlers: RL_CRAWLERS,
                per_round: 250,
                minutes: 5.0,
            },
        }
    }

    /// Apps the workload crawls.
    pub fn apps(self) -> Vec<&'static str> {
        self.shape().apps
    }

    /// The crawls of round `round`: a pure function of its arguments.
    pub fn round_specs(self, seed: u64, round: usize, scale: f64) -> Vec<Spec> {
        let shape = self.shape();
        let n = ((shape.per_round as f64 * scale).round() as usize).max(1);
        (0..n)
            .map(|i| Spec {
                app: shape.apps[i % shape.apps.len()],
                crawler: shape.crawlers[(i / shape.apps.len()) % shape.crawlers.len()],
                seed: session_seed(seed, round, i),
                minutes: shape.minutes,
                record_events: self == Workload::ServeTraced,
            })
            .collect()
    }
}

/// A session's seed from the run seed and its place in the run.
pub fn session_seed(seed: u64, round: usize, index: usize) -> u64 {
    stats::mix64(stats::mix64(seed) ^ ((round as u64) << 32 | index as u64))
}

/// Whether session `index` of a round is re-run standalone afterwards:
/// one in [`SAMPLE_EVERY`], at least one per round.
fn sampled_index(seed: u64, round: usize, index: usize, len: usize) -> bool {
    let offset = stats::mix64(seed ^ round as u64) as usize % SAMPLE_EVERY.min(len);
    index % SAMPLE_EVERY == offset
}

/// One crawl, as the program receives it.
#[derive(Debug, Clone)]
pub struct Spec {
    pub app: &'static str,
    pub crawler: &'static str,
    pub seed: u64,
    pub minutes: f64,
    pub record_events: bool,
}

impl Spec {
    fn config(&self) -> EngineConfig {
        EngineConfig::with_budget_minutes(self.minutes)
    }

    fn session_spec(&self) -> SessionSpec {
        SessionSpec::new(TENANT, self.app, self.crawler, self.seed)
            .config(self.config())
            .record_events(self.record_events)
    }
}

/// Folds one crawl's outcome into a digest: the report's identifying
/// fields and, for recorded sessions, the JSONL stream.
pub fn fold(digest: &mut Digest, report: &CrawlReport, jsonl: Option<&[u8]>) {
    let jsonl_hash = jsonl.map_or(0, |bytes| stats::hash_fields(&[bytes]));
    digest.add(&[
        report.app.as_bytes(),
        report.crawler.as_bytes(),
        &report.seed.to_le_bytes(),
        &report.interactions.to_le_bytes(),
        &report.final_lines_covered.to_le_bytes(),
        &(report.distinct_urls as u64).to_le_bytes(),
        &report.elapsed_secs.to_bits().to_le_bytes(),
        &jsonl_hash.to_le_bytes(),
    ]);
}

/// A standalone session's result and when its phases ended.
pub struct Run {
    pub report: CrawlReport,
    pub jsonl: Option<Vec<u8>>,
    pub steps: u64,
    /// Call started, session opened, last step returned, report sealed.
    pub marks: [Instant; 4],
}

/// Runs `spec` as a standalone session over a shared model, timing its
/// steps in quanta of [`QUANTUM`] into `quanta` as `(µs per step, steps)`.
/// With `gaps`, the session writes to a timestamping sink with spans on;
/// otherwise a recorded spec writes JSONL and others write nowhere.
pub fn run_standalone(
    model: &Arc<dyn WebApp>,
    spec: &Spec,
    gaps: Option<&Arc<Mutex<GapState>>>,
    quanta: &mut Vec<(f64, u64)>,
) -> Run {
    let config = spec.config();
    let mut jsonl = None;
    let sink = match gaps {
        Some(state) => {
            lock(state).session(spec.app, spec.crawler);
            SinkHandle::new(GapSink(state.clone())).with_spans()
        }
        None if spec.record_events => {
            let (handle, cell) = SinkHandle::shared(JsonlSink::new(Vec::new()));
            jsonl = Some(cell);
            handle
        }
        None => SinkHandle::none(),
    };
    let call = |layer: Option<&'static str>| gaps.inspect(|g| lock(g).begin(layer));
    let done = || gaps.inspect(|g| lock(g).end());

    let started = Instant::now();
    call(Some("core.session_open"));
    let crawler = build_crawler(spec.crawler, spec.seed).expect("workload crawlers are registered");
    let mut session = if sink.is_active() {
        Session::shared_with_sink(model.clone(), crawler, &config, spec.seed, sink)
    } else {
        Session::with_shared_app(model.clone(), crawler, &config, spec.seed)
    };
    done();
    let opened = Instant::now();
    loop {
        let before = session.steps_taken();
        let quantum_started = Instant::now();
        let mut running = true;
        for _ in 0..QUANTUM {
            call(None);
            running = session.step().is_running();
            done();
            if !running {
                break;
            }
        }
        let ran = session.steps_taken() - before;
        if ran > 0 {
            quanta.push((quantum_started.elapsed().as_secs_f64() * 1e6 / ran as f64, ran));
        }
        if !running {
            break;
        }
    }
    let stepped = Instant::now();
    let steps = session.steps_taken();
    call(Some("core.finish"));
    let report = session.finish();
    done();
    let finished = Instant::now();
    let jsonl = jsonl.map(|cell| {
        let sink = Arc::try_unwrap(cell)
            .unwrap_or_else(|_| panic!("a finished session holds no sink handle"))
            .into_inner()
            .expect("JSONL sink lock");
        let (bytes, error) = sink.finish();
        assert!(error.is_none(), "writing JSONL into memory cannot fail");
        bytes
    });
    Run { report, jsonl, steps, marks: [started, opened, stepped, finished] }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("lock poisoned by a panicking bench thread")
}

/// Bench-timed standalone sessions: per-step and per-call wall time.
#[derive(Debug, Default)]
pub struct StepTimes {
    /// Seconds and steps, per crawler and per app.
    pub by_crawler: BTreeMap<&'static str, (f64, u64)>,
    pub by_app: BTreeMap<&'static str, (f64, u64)>,
    pub open_us: Vec<f64>,
    pub finish_us: Vec<f64>,
}

impl StepTimes {
    fn record(&mut self, spec: &Spec, run: &Run) {
        let [started, opened, stepped, finished] = run.marks;
        let step_s = (stepped - opened).as_secs_f64();
        for (key, map) in [(spec.crawler, &mut self.by_crawler), (spec.app, &mut self.by_app)] {
            let e = map.entry(key).or_default();
            e.0 += step_s;
            e.1 += run.steps;
        }
        self.open_us.push((opened - started).as_secs_f64() * 1e6);
        self.finish_us.push((finished - stepped).as_secs_f64() * 1e6);
    }

    fn merge(&mut self, other: StepTimes) {
        for (mine, theirs) in
            [(&mut self.by_crawler, other.by_crawler), (&mut self.by_app, other.by_app)]
        {
            for (k, (s, n)) in theirs {
                let e = mine.entry(k).or_default();
                e.0 += s;
                e.1 += n;
            }
        }
        self.open_us.extend(other.open_us);
        self.finish_us.extend(other.finish_us);
    }
}

/// A session kept for the standalone differential.
pub struct Sampled {
    pub spec: Spec,
    pub report: CrawlReport,
    pub jsonl: Option<Vec<u8>>,
}

/// Service-side measurements, one entry per drain or round.
#[derive(Debug, Default)]
pub struct ServeStats {
    pub submit_us: Vec<f64>,
    pub dispatch_ns: Vec<f64>,
    pub steals: Vec<f64>,
    pub queue_peak: f64,
    pub drain_ratio: Vec<f64>,
    pub fold_s: Vec<f64>,
    pub ckpt_writes: Vec<f64>,
    pub ckpt_bytes: f64,
    pub park_us: Vec<f64>,
    pub recover_us: Vec<f64>,
    pub recover_s: Vec<f64>,
    pub rss_kb_per_session: Vec<f64>,
}

/// What one round's timed operations did.
#[derive(Debug, Clone, Copy)]
pub struct RoundStats {
    pub wall_s: f64,
    pub steps: u64,
    pub sessions: u64,
    pub step_us_p50: f64,
    pub step_us_p99: f64,
}

/// Everything a pass of rounds measured.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    /// Rejected, aborted and lost sessions, plus correctness mismatches.
    pub failed: u64,
    pub mismatches: u64,
    /// `(round, sessions, digest)` per round, warm-up included.
    pub rounds: Vec<(usize, u64, String)>,
    /// Timed rounds only.
    pub stats: Vec<RoundStats>,
    /// Seconds per set-up, one after each timed round.
    pub setup_s: Vec<f64>,
    pub sampled: Vec<Sampled>,
    pub times: StepTimes,
    pub serve: ServeStats,
}

impl Tally {
    /// Steps per second over all timed rounds.
    pub fn steps_per_s(&self) -> f64 {
        let steps: u64 = self.stats.iter().map(|r| r.steps).sum();
        steps as f64 / self.stats.iter().map(|r| r.wall_s).sum::<f64>()
    }
}

/// One round's timed work, as the round runners report it.
#[derive(Default)]
struct Timed {
    wall: Duration,
    steps: u64,
    sessions: u64,
    /// `(µs per step, steps)`: bench-timed quanta or service slices.
    step_us: Vec<(f64, u64)>,
}

/// The traced pass's instruments.
pub struct Tracer {
    pub spans: Spans,
    pub gaps: Vec<Arc<Mutex<GapState>>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { spans: Spans::new(), gaps: (0..THREADS).map(|_| Arc::default()).collect() }
    }
}

/// A workload ready to run: its models, its service, the next round.
pub struct Runner {
    pub workload: Workload,
    seed: u64,
    scale: f64,
    pub models: BTreeMap<&'static str, Arc<dyn WebApp>>,
    service: Option<CrawlService>,
    ckpt_dir: Option<PathBuf>,
    next_round: usize,
}

impl Runner {
    /// Builds the workload's app models, and for the serve workloads its
    /// service and checkpoint store: the set-up a run pays once.
    pub fn setup(workload: Workload, seed: u64, scale: f64) -> Runner {
        let models = workload
            .apps()
            .into_iter()
            .map(|name| (name, apps::build_shared(name).expect("workload apps are registered")))
            .collect();
        // One directory per set-up: the timed set-ups run beside the live
        // runner.
        static SETUPS: AtomicUsize = AtomicUsize::new(0);
        let ckpt_dir = (workload == Workload::ServeDurable).then(|| {
            let n = SETUPS.fetch_add(1, Ordering::Relaxed);
            out_dir().join(format!("ckpt-{}-{n}", std::process::id()))
        });
        if let Some(dir) = &ckpt_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let mut runner =
            Runner { workload, seed, scale, models, service: None, ckpt_dir, next_round: 0 };
        if workload != Workload::PaperMatrix {
            runner.service = Some(CrawlService::new(runner.service_config(THREADS, true, CADENCE)));
        }
        runner
    }

    /// Sessions per round.
    pub fn round_len(&self) -> usize {
        self.workload.round_specs(self.seed, 0, self.scale).len()
    }

    fn service_config(&self, threads: usize, collect_metrics: bool, cadence: u64) -> ServiceConfig {
        ServiceConfig {
            threads,
            sample_latency: true,
            // About fifty drain-progress points per drain.
            checkpoint_every: (self.round_len() as u64 / 50).max(1),
            collect_metrics,
            default_quota: TenantQuota::concurrent(usize::MAX),
            checkpoint_dir: self.ckpt_dir.clone(),
            checkpoint_every_steps: cadence,
            ..ServiceConfig::default()
        }
    }

    /// Untimed rounds for [`WARM_UP`] (at most the run's own `seconds`)
    /// first: lazily filled caches and first-touch page faults are not
    /// charged to timed rounds, and on a VM whose second vCPU only gets a
    /// core of its own after about a second of two-thread load, the timed
    /// rounds start with both. Their outcomes are checked like any other
    /// round's.
    pub fn warm_up(&mut self, tally: &mut Tally, seconds: f64) {
        let mut scratch = Tally::default();
        self.run_for(WARM_UP.min(Duration::from_secs_f64(seconds)), &mut scratch, None);
        tally.attempted += scratch.attempted;
        tally.failed += scratch.failed;
        tally.rounds.extend(scratch.rounds);
        tally.sampled.extend(scratch.sampled);
    }

    /// Runs rounds until `budget` has passed (at least one round). After
    /// each round, outside its timed window, the workload's set-up is
    /// built once more and timed: spread over the run, the set-up samples
    /// the same states of the host as the rounds do.
    pub fn run_for(&mut self, budget: Duration, tally: &mut Tally, tracer: Option<&Tracer>) {
        let started = Instant::now();
        loop {
            self.round(tally, tracer);
            let setup_started = Instant::now();
            let setup = Runner::setup(self.workload, self.seed, self.scale);
            tally.setup_s.push(setup_started.elapsed().as_secs_f64());
            drop(setup);
            if started.elapsed() >= budget {
                break;
            }
        }
    }

    fn round(&mut self, tally: &mut Tally, tracer: Option<&Tracer>) {
        let round = self.next_round;
        self.next_round += 1;
        let specs = self.workload.round_specs(self.seed, round, self.scale);
        let started = Instant::now();
        let round_span = tracer.map_or(0, |t| t.spans.id());
        let (digest, timed) = match self.workload {
            Workload::PaperMatrix => self.paper_round(round, &specs, tally, tracer, round_span),
            _ => self.serve_round(round, &specs, tally, tracer, round_span),
        };
        if let Some(t) = tracer {
            t.spans.record(span(round_span, 0, "round", started, Instant::now()));
        }
        tally.attempted += specs.len() as u64;
        tally.rounds.push((round, specs.len() as u64, digest.hex()));
        let quantile = |q| stats::weighted_quantile(&timed.step_us, q).unwrap_or(0.0);
        tally.stats.push(RoundStats {
            wall_s: timed.wall.as_secs_f64(),
            steps: timed.steps,
            sessions: timed.sessions,
            step_us_p50: quantile(0.5),
            step_us_p99: quantile(0.99),
        });
    }

    /// Two bench threads each start the next crawl when the previous one
    /// finishes, until the round's list is empty.
    fn paper_round(
        &self,
        round: usize,
        specs: &[Spec],
        tally: &mut Tally,
        tracer: Option<&Tracer>,
        round_span: u64,
    ) -> (Digest, Timed) {
        let next = AtomicUsize::new(0);
        let started = Instant::now();
        let per_thread: Vec<(Digest, Timed, StepTimes, Vec<Sampled>)> =
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|tid| {
                        let next = &next;
                        scope.spawn(move || {
                            let mut digest = Digest::default();
                            let mut timed = Timed::default();
                            let mut times = StepTimes::default();
                            let mut sampled = Vec::new();
                            let gaps = tracer.map(|t| &t.gaps[tid]);
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(spec) = specs.get(i) else { break };
                                let model = &self.models[spec.app];
                                let run = run_standalone(model, spec, gaps, &mut timed.step_us);
                                fold(&mut digest, &run.report, None);
                                times.record(spec, &run);
                                timed.steps += run.steps;
                                if let Some(t) = tracer {
                                    let session = (round * specs.len() + i) as u64;
                                    record_session(&t.spans, round_span, session, tid, &run);
                                }
                                if sampled_index(self.seed, round, i, specs.len()) {
                                    sampled.push(Sampled {
                                        spec: spec.clone(),
                                        report: run.report,
                                        jsonl: None,
                                    });
                                }
                            }
                            (digest, timed, times, sampled)
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().expect("bench thread panicked")).collect()
            });
        let mut total =
            Timed { wall: started.elapsed(), sessions: specs.len() as u64, ..Timed::default() };
        let mut digest = Digest::default();
        for (d, timed, times, sampled) in per_thread {
            digest.merge(d);
            total.steps += timed.steps;
            total.step_us.extend(timed.step_us);
            tally.times.merge(times);
            tally.sampled.extend(sampled);
        }
        (digest, total)
    }

    /// Submits the whole round, then drains it on the service's workers.
    /// `serve-durable` instead prepares the round untimed — admission,
    /// a 64-step cadence run, and parking every session, all of which
    /// fsync — and times recovering the parked sessions into a fresh
    /// service and draining them there without mid-run writes.
    fn serve_round(
        &mut self,
        round: usize,
        specs: &[Spec],
        tally: &mut Tally,
        tracer: Option<&Tracer>,
        round_span: u64,
    ) -> (Digest, Timed) {
        let durable = self.workload == Workload::ServeDurable;
        let mut service = match self.service.take() {
            Some(service) => service,
            None => CrawlService::new(self.service_config(THREADS, true, CADENCE)),
        };
        let counter = |s: &CrawlService, name| s.metrics().registry().counter_total(name);
        const WRITES: &str = "mak_serve_checkpoint_writes_total";
        const BYTES: &str = "mak_serve_checkpoint_bytes_total";
        let aborted0 = service.aborted();
        let rss_before = rss_kb("VmRSS:");

        let t0 = Instant::now();
        let mut index_of = BTreeMap::new();
        for (i, spec) in specs.iter().enumerate() {
            let submitted = Instant::now();
            let result = service.submit(spec.session_spec());
            tally.serve.submit_us.push(submitted.elapsed().as_secs_f64() * 1e6);
            if let Ok(id) = result {
                index_of.insert(id, i);
            }
        }
        let t1 = Instant::now();
        let rss_after = rss_kb("VmRSS:");
        tally.serve.rss_kb_per_session.push((rss_after - rss_before) / specs.len() as f64);
        let add = |name, s, e| tracer.map(|t| t.spans.add(name, round_span, s, e));
        add("serve.submit", t0, t1);

        let mut timed = Timed::default();
        let (mut done, aborted) = if durable {
            let limit = Some(specs.len() as u64 * CADENCE);
            let mut done = drain(&mut service, limit, tally, tracer, round_span, None);
            let t2 = Instant::now();
            let parked = service.drain().expect("the checkpoint directory is writable");
            let t3 = Instant::now();
            add("serve.park", t2, t3);
            let stats = &mut tally.serve;
            stats.park_us.push((t3 - t2).as_secs_f64() * 1e6 / parked.max(1) as f64);
            let writes = counter(&service, WRITES);
            stats.ckpt_writes.push(writes);
            stats.ckpt_bytes += counter(&service, BYTES);
            let aborted = service.aborted() - aborted0;
            drop(service);

            // The timed part: a fresh service recovers the parked sessions
            // and drains them. The next round prepares in a fresh service.
            let t4 = Instant::now();
            let mut resumed = CrawlService::new(self.service_config(THREADS, true, 0));
            let recovery = resumed.recover().expect("the checkpoint directory is readable");
            let t5 = Instant::now();
            add("serve.recover", t4, t5);
            let recover_s = (t5 - t4).as_secs_f64();
            tally.serve.recover_s.push(recover_s);
            tally.serve.recover_us.push(recover_s * 1e6 / recovery.restored.max(1) as f64);
            done.extend(drain(&mut resumed, None, tally, tracer, round_span, Some(&mut timed)));
            timed.wall += t5 - t4;
            (done, aborted + resumed.aborted())
        } else {
            let done = drain(&mut service, None, tally, tracer, round_span, Some(&mut timed));
            timed.wall += t1 - t0;
            let aborted = service.aborted() - aborted0;
            self.service = Some(service);
            (done, aborted)
        };
        tally.failed += failures(specs.len(), index_of.len(), aborted, done.len());

        let folded = Instant::now();
        let mut digest = Digest::default();
        for c in done.drain(..) {
            let jsonl = c.events_jsonl;
            fold(&mut digest, &c.report, jsonl.as_deref());
            let index = index_of[&c.id];
            if sampled_index(self.seed, round, index, specs.len()) {
                tally.sampled.push(Sampled { spec: specs[index].clone(), report: c.report, jsonl });
            }
        }
        add("bench.digest", folded, Instant::now());
        (digest, timed)
    }

    /// One extra `serve-burst` wave on a fresh service, for the traced
    /// run's comparisons: its wall seconds, digest and failures.
    pub fn probe_wave(&self, threads: usize, collect_metrics: bool) -> (f64, String, u64) {
        let specs = self.workload.round_specs(self.seed, self.next_round, self.scale);
        let mut service = CrawlService::new(self.service_config(threads, collect_metrics, CADENCE));
        let started = Instant::now();
        let accepted = specs.iter().filter(|s| service.submit(s.session_spec()).is_ok()).count();
        let done = service.run_to_drain();
        let wall = started.elapsed().as_secs_f64();
        let mut digest = Digest::default();
        for c in &done {
            fold(&mut digest, &c.report, c.events_jsonl.as_deref());
        }
        (wall, digest.hex(), failures(specs.len(), accepted, service.aborted(), done.len()))
    }

    /// Re-runs every sampled session standalone, timing it into
    /// `tally.times`, and counts those whose report or JSONL differs.
    pub fn differential(&self, tally: &mut Tally) {
        let mut quanta = Vec::new();
        for s in &tally.sampled {
            let run = run_standalone(&self.models[s.spec.app], &s.spec, None, &mut quanta);
            tally.times.record(&s.spec, &run);
            if run.report != s.report || run.jsonl != s.jsonl {
                eprintln!(
                    "mismatch: {} {} seed {} differs from its standalone run",
                    s.spec.app, s.spec.crawler, s.spec.seed
                );
                tally.mismatches += 1;
                tally.failed += 1;
            }
        }
    }

    /// Re-runs the sampled sessions standalone with the timestamping sink.
    pub fn traced_replay(&self, sampled: &[Sampled], gaps: &Arc<Mutex<GapState>>) {
        let mut quanta = Vec::new();
        for s in sampled {
            run_standalone(&self.models[s.spec.app], &s.spec, Some(gaps), &mut quanta);
        }
    }
}

impl Drop for Runner {
    fn drop(&mut self) {
        if let Some(dir) = &self.ckpt_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Records a paper-matrix session's spans: the session under its round,
/// and its open, steps and finish under it.
fn record_session(spans: &Spans, round_span: u64, session: u64, tid: usize, run: &Run) {
    let id = spans.id();
    let [a, b, c, d] = run.marks;
    let tid = tid as u64 + 1;
    for (name, s, e) in [("core.session_open", a, b), ("core.steps", b, c), ("core.finish", c, d)] {
        spans.record(Span { session, tid, ..span(spans.id(), id, name, s, e) });
    }
    spans.record(Span { session, tid, ..span(id, round_span, "core.session", a, d) });
}

/// Rejected, aborted and lost sessions of a round: lost ones were
/// admitted but neither completed nor aborted.
fn failures(specs: usize, admitted: usize, aborted: u64, completed: usize) -> u64 {
    let rejected = (specs - admitted) as u64;
    let lost = (admitted as u64).saturating_sub(completed as u64 + aborted);
    rejected + aborted + lost
}

/// Runs the service's scheduler (to the end, or for `limit` steps) and
/// records what it reports about itself; a `timed` drain also adds its
/// wall time, steps, completions and step latencies to the round's.
fn drain(
    service: &mut CrawlService,
    limit: Option<u64>,
    tally: &mut Tally,
    tracer: Option<&Tracer>,
    round_span: u64,
    timed: Option<&mut Timed>,
) -> Vec<CompletedSession> {
    let counter = |s: &CrawlService, name| s.metrics().registry().counter_total(name);
    let (inside0, steals0) = (
        counter(service, "mak_serve_drain_wall_seconds_total"),
        counter(service, "mak_serve_scheduler_steals_total"),
    );
    let started = Instant::now();
    let done = match limit {
        Some(steps) => service.run_for_steps(steps),
        None => service.run_to_drain(),
    };
    let ended = Instant::now();
    let inside = counter(service, "mak_serve_drain_wall_seconds_total") - inside0;
    let fold_s = ((ended - started).as_secs_f64() - inside).max(0.0);
    let stats = &mut tally.serve;
    stats.fold_s.push(fold_s);
    stats.steals.push(counter(service, "mak_serve_scheduler_steals_total") - steals0);
    let peak = service.metrics().registry().gauge_value("mak_serve_queue_depth_peak", &[]);
    stats.queue_peak = stats.queue_peak.max(peak.unwrap_or(0.0));
    let latencies = service.last_latencies();
    stats.dispatch_ns.extend(latencies.dispatch_samples().iter().map(|&ns| ns as f64));
    if let Some(ratio) = drain_rate_ratio(service.last_checkpoints()) {
        stats.drain_ratio.push(ratio);
    }
    if let Some(timed) = timed {
        timed.wall += ended - started;
        timed.steps += latencies.total_steps();
        timed.sessions += done.len() as u64;
        timed
            .step_us
            .extend(latencies.samples().iter().map(|&(ns, n)| (ns as f64 / 1e3, n as u64)));
    }
    if let Some(t) = tracer {
        let name = if limit.is_some() { "serve.run_for_steps" } else { "serve.run_to_drain" };
        let id = t.spans.add(name, round_span, started, ended);
        t.spans.add("serve.fold", id, ended - Duration::from_secs_f64(fold_s), ended);
    }
    done
}

/// Completions per second over the last fifth of a drain's progress
/// points, over those of the first fifth (from the first completion on,
/// so the wait before any session finishes is not a rate).
fn drain_rate_ratio(points: &[mak_serve::Checkpoint]) -> Option<f64> {
    if points.len() < 10 {
        return None;
    }
    let fifth = points.len() / 5;
    let rate = |a: &mak_serve::Checkpoint, b: &mak_serve::Checkpoint| {
        (b.sessions_done - a.sessions_done) as f64 / (b.wall_secs - a.wall_secs)
    };
    let first = rate(&points[0], &points[fifth]);
    let last = rate(&points[points.len() - 1 - fifth], &points[points.len() - 1]);
    (first > 0.0 && last.is_finite()).then(|| last / first)
}

fn span(id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) -> Span {
    Span { id, parent, name, start, end, session: 0, tid: 0 }
}

/// A field of `/proc/self/status` in kB (0 where it is unavailable).
pub fn rss_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse().ok()))
        })
        .unwrap_or(0.0)
}

/// Round digests of rounds `0..rounds` computed from uninterrupted
/// standalone sessions on two threads: the reference a run is checked
/// against.
pub fn reference_digests(workload: Workload, seed: u64, scale: f64, rounds: usize) -> Vec<String> {
    let models: BTreeMap<&'static str, Arc<dyn WebApp>> = workload
        .apps()
        .into_iter()
        .map(|name| (name, apps::build_shared(name).expect("workload apps are registered")))
        .collect();
    (0..rounds)
        .map(|round| {
            let specs = workload.round_specs(seed, round, scale);
            let next = AtomicUsize::new(0);
            let digests: Vec<Digest> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut digest = Digest::default();
                            let mut quanta = Vec::new();
                            while let Some(spec) = specs.get(next.fetch_add(1, Ordering::Relaxed)) {
                                let run =
                                    run_standalone(&models[spec.app], spec, None, &mut quanta);
                                fold(&mut digest, &run.report, run.jsonl.as_deref());
                                quanta.clear();
                            }
                            digest
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().expect("reference thread panicked")).collect()
            });
            let mut digest = Digest::default();
            digests.into_iter().for_each(|d| digest.merge(d));
            digest.hex()
        })
        .collect()
}
