//! The traced run's instruments: bench-side spans around every call into
//! the program, an event sink that timestamps each event a session emits,
//! replays of captured inputs through single layers, and the artifacts
//! written when the traced run ends.
//!
//! Attribution rule for the event sink: the wall time between two
//! consecutive events of one session (or between the bench's call into
//! `Session::step` and the first event, or the last event and the call's
//! return) is charged to the layer that ran in that interval. Most
//! instrumentation points sit at the *end* of the work they mark, so the
//! interval is named after the event that closes it; Exp3.1 marks the
//! *start* of a draw and of an update, so the interval after a
//! `BanditChoose` or `RewardUpdate` span is the bandit's. Time inside the
//! sink itself is `obs.sink`. The intervals of one call partition it
//! exactly, so the layers of a traced step sum to its wall time.

use crate::workload::THREADS;
use mak_browser::page::Page;
use mak_obs::event::Event;
use mak_obs::sink::{EventSink, JsonlSink};
use mak_obs::span::Phase;
use mak_websim::http::{Body, Request};
use mak_websim::server::{AppHost, WebApp};
use mak_websim::url::Url;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Captured page URLs kept per app for the fetch replay.
const URLS_PER_APP: usize = 1_000;
/// Captured events kept per sink state for the JSONL replay.
const EVENTS_KEPT: usize = 20_000;
/// Spans kept for the Chrome trace; later ones are counted, not kept.
const SPANS_KEPT: usize = 200_000;

/// Where the benchmark writes its artifacts and scratch files: `out/`
/// beside this package's manifest, inside the checkout being measured.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Per-thread state of the event-timestamping sink.
#[derive(Debug, Default)]
pub struct GapState {
    last: Option<Instant>,
    /// Marker that opened the current interval.
    prev: &'static str,
    /// Layer of the previous interval (an `EpochAdvanced` continues it).
    carry: &'static str,
    /// Whole-call layer (session open, finish) overriding the rule.
    forced: Option<&'static str>,
    crawler: &'static str,
    app: &'static str,
    /// Seconds per layer.
    pub layers: BTreeMap<&'static str, f64>,
    /// Seconds and count per `(opening marker, closing marker)` interval.
    pub segments: BTreeMap<(&'static str, &'static str), (f64, u64)>,
    /// Markers seen, by name.
    pub counts: BTreeMap<&'static str, u64>,
    /// Browser-layer seconds and pages fetched in MAK sessions, whose
    /// bandit markers separate the crawler's choice from the fetch.
    pub mak_browser: (f64, u64),
    /// Non-span events seen (what a session with a plain sink emits).
    pub plain_events: u64,
    /// Page URLs fetched, per app.
    pub urls: BTreeMap<&'static str, Vec<String>>,
    /// A prefix of the non-span events, for the JSONL replay.
    pub events: Vec<Event>,
}

impl GapState {
    /// Names the session whose events follow.
    pub fn session(&mut self, app: &'static str, crawler: &'static str) {
        self.app = app;
        self.crawler = crawler;
    }

    /// The bench is about to call into the session; `layer` charges the
    /// whole call to one layer instead of applying the rule.
    pub fn begin(&mut self, layer: Option<&'static str>) {
        self.last = Some(Instant::now());
        self.prev = "call";
        self.carry = "core.engine";
        self.forced = layer;
    }

    /// The call returned.
    pub fn end(&mut self) {
        let now = Instant::now();
        let layer = self.forced.take().unwrap_or("core.engine");
        self.charge("return", layer, now);
    }

    fn charge(&mut self, next: &'static str, layer: &'static str, now: Instant) {
        let gap = self.last.map_or(0.0, |last| now.duration_since(last).as_secs_f64());
        *self.layers.entry(layer).or_default() += gap;
        let segment = self.segments.entry((self.prev, next)).or_default();
        segment.0 += gap;
        segment.1 += 1;
        if layer == "browser" && self.crawler == "mak" {
            self.mak_browser.0 += gap;
        }
        self.carry = layer;
        self.prev = next;
    }

    fn on_event(&mut self, event: &Event) {
        let entered = Instant::now();
        let marker = match event {
            Event::SpanClosed { phase, .. } => Phase::parse(phase).map_or("Span", Phase::as_str),
            other => other.kind(),
        };
        let layer = self.forced.unwrap_or_else(|| layer_of(self.prev, marker, self.carry));
        self.charge(marker, layer, entered);
        *self.counts.entry(marker).or_default() += 1;
        match event {
            Event::SpanClosed { .. } => {}
            Event::PageFetched { url, .. } => {
                self.plain_events += 1;
                if self.crawler == "mak" {
                    self.mak_browser.1 += 1;
                }
                let urls = self.urls.entry(self.app).or_default();
                if urls.len() < URLS_PER_APP {
                    urls.push(url.clone());
                }
                self.keep(event);
            }
            _ => {
                self.plain_events += 1;
                self.keep(event);
            }
        }
        let left = Instant::now();
        *self.layers.entry("obs.sink").or_default() += left.duration_since(entered).as_secs_f64();
        self.last = Some(left);
    }

    fn keep(&mut self, event: &Event) {
        if self.events.len() < EVENTS_KEPT {
            self.events.push(event.clone());
        }
    }

    /// Folds another thread's state in.
    pub fn merge(&mut self, other: &GapState) {
        for (k, v) in &other.layers {
            *self.layers.entry(k).or_default() += v;
        }
        for (k, (s, n)) in &other.segments {
            let e = self.segments.entry(*k).or_default();
            e.0 += s;
            e.1 += n;
        }
        for (k, n) in &other.counts {
            *self.counts.entry(k).or_default() += n;
        }
        self.mak_browser.0 += other.mak_browser.0;
        self.mak_browser.1 += other.mak_browser.1;
        self.plain_events += other.plain_events;
        for (app, urls) in &other.urls {
            let mine = self.urls.entry(app).or_default();
            let room = URLS_PER_APP.saturating_sub(mine.len());
            mine.extend(urls.iter().take(room).cloned());
        }
        let room = EVENTS_KEPT.saturating_sub(self.events.len());
        self.events.extend(other.events.iter().take(room).cloned());
    }

    /// Mean seconds per occurrence of `marker` spent in `layer`.
    pub fn per_marker(&self, layer: &str, marker: &str) -> f64 {
        let n = self.counts.get(marker).copied().unwrap_or(0);
        if n == 0 {
            return 0.0;
        }
        self.layers.get(layer).copied().unwrap_or(0.0) / n as f64
    }

    /// Seconds and count of the intervals from `prev` to `next`.
    pub fn segment(&self, prev: &str, next: &str) -> (f64, u64) {
        self.segments.get(&(prev, next)).copied().unwrap_or_default()
    }
}

/// The layer that ran between marker `prev` and marker `next`.
fn layer_of(prev: &str, next: &str, carry: &'static str) -> &'static str {
    match prev {
        "BanditChoose" => return "bandit.choose",
        "RewardUpdate" => return "bandit.update",
        "EpochAdvanced" => return carry,
        _ => {}
    }
    match next {
        "EpochAdvanced" => carry,
        // MAK re-inserts the played element after its policy update;
        // other crawlers' deque work follows ingest in one interval.
        "DequeDepth" if prev == "PolicyUpdated" => "core.mak.deque",
        // A crawler without bandit markers chooses and issues its request
        // in one interval; it is the crawler's, not the browser's.
        "CoverageDelta" | "Render" | "RedirectFollowed" if prev == "StepStarted" => "core.crawler",
        "CoverageDelta"
        | "Render"
        | "Think"
        | "ExtractInteractables"
        | "PageFetched"
        | "RedirectFollowed"
        | "ExecuteAction"
        | "Backoff"
        | "FaultInjected"
        | "RetryScheduled"
        | "FaultRecovered" => "browser",
        "BanditChoose" | "RewardUpdate" | "RewardComputed" | "ActionChosen" | "PolicyUpdated"
        | "DequeDepth" => "core.crawler",
        _ => "core.engine",
    }
}

/// The sink a traced session writes to: it only timestamps and counts.
pub struct GapSink(pub Arc<Mutex<GapState>>);

impl EventSink for GapSink {
    fn on_event(&mut self, event: &Event) {
        self.0.lock().expect("gap state lock: a traced session panicked").on_event(event);
    }
}

/// One closed bench-side span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub session: u64,
    pub tid: u64,
}

/// Bench-side spans, kept in memory until the traced run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    next: AtomicU64,
    kept: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            kept: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// A fresh span id, for a parent recorded after its children.
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a closed span under `id`.
    pub fn record(&self, span: Span) {
        let mut kept = self.kept.lock().expect("span list lock");
        if kept.len() < SPANS_KEPT {
            kept.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a closed span with a new id; returns the id.
    pub fn add(&self, name: &'static str, parent: u64, start: Instant, end: Instant) -> u64 {
        let id = self.id();
        self.record(Span { id, parent, name, start, end, session: 0, tid: 0 });
        id
    }

    /// Self seconds per span name: each span's duration less its
    /// children's. Names in `glue` are not layers; their self time is
    /// left to the residual.
    pub fn self_times(&self, glue: &[&str]) -> BTreeMap<&'static str, f64> {
        let kept = self.kept.lock().expect("span list lock");
        let mut child: BTreeMap<u64, f64> = BTreeMap::new();
        for s in kept.iter() {
            *child.entry(s.parent).or_default() += dur(s);
        }
        let mut out = BTreeMap::new();
        for s in kept.iter().filter(|s| !glue.contains(&s.name)) {
            let own = dur(s) - child.get(&s.id).copied().unwrap_or(0.0);
            *out.entry(s.name).or_default() += own;
        }
        out
    }

    /// The spans as a Chrome `traceEvents` document (loads in Perfetto).
    pub fn chrome_json(&self) -> String {
        let kept = self.kept.lock().expect("span list lock");
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in kept.iter().enumerate() {
            let ts = s.start.duration_since(self.origin).as_secs_f64() * 1e6;
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"session\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.tid,
                ts,
                dur(s) * 1e6,
                s.id,
                s.parent,
                s.session,
            );
        }
        let _ = write!(
            out,
            "\n],\"otherData\":{{\"dropped_spans\":{}}}}}\n",
            self.dropped.load(Ordering::Relaxed)
        );
        out
    }
}

fn dur(s: &Span) -> f64 {
    s.end.duration_since(s.start).as_secs_f64()
}

/// What one replay of captured inputs through single layers measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    pub normalize_ns: f64,
    pub fetch_us: f64,
    pub extract_us: f64,
    pub encode_ns: f64,
    pub jsonl_bytes_per_event: f64,
}

/// Replays captured page URLs through `Url` parsing and normalization,
/// `AppHost::fetch`, and `Page::from_document`, and captured events
/// through `JsonlSink`.
pub fn replay(models: &BTreeMap<&'static str, Arc<dyn WebApp>>, gaps: &GapState) -> Replay {
    let (mut normalize, mut fetch, mut extract) = ((0.0, 0u64), (0.0, 0u64), (0.0, 0u64));
    for (app, urls) in &gaps.urls {
        let mut host = AppHost::with_shared(models[app].clone());
        let mut cookie = None;
        for text in urls {
            let t0 = Instant::now();
            let url: Url = text.parse().expect("a fetched page's URL parses");
            black_box(url.normalized());
            let t1 = Instant::now();
            let mut request = Request::get(url);
            request.session = cookie;
            let response = host.fetch(&request);
            let t2 = Instant::now();
            cookie = response.session.or(cookie);
            normalize = (normalize.0 + (t1 - t0).as_secs_f64(), normalize.1 + 1);
            fetch = (fetch.0 + (t2 - t1).as_secs_f64(), fetch.1 + 1);
            if let Body::Html(doc) = response.body {
                let t3 = Instant::now();
                let page = Page::from_document(response.status, doc);
                black_box(page.interactables().len());
                extract = (extract.0 + t3.elapsed().as_secs_f64(), extract.1 + 1);
            }
        }
    }
    let mut sink = JsonlSink::new(Vec::with_capacity(gaps.events.len() * 128));
    let t0 = Instant::now();
    for event in &gaps.events {
        sink.on_event(event);
    }
    let encode = t0.elapsed().as_secs_f64();
    let (bytes, error) = sink.finish();
    assert!(error.is_none(), "encoding into memory cannot fail");
    let per = |(s, n): (f64, u64), unit: f64| if n == 0 { 0.0 } else { s / n as f64 * unit };
    let events = gaps.events.len() as u64;
    Replay {
        normalize_ns: per(normalize, 1e9),
        fetch_us: per(fetch, 1e6),
        extract_us: per(extract, 1e6),
        encode_ns: per((encode, events), 1e9),
        jsonl_bytes_per_event: per((bytes.len() as f64, events), 1.0),
    }
}

/// The wall-time ledger of one traced run: layer self times plus the
/// residual sum to `capacity_s`, the traced wall time times the threads
/// whose time the layers account for.
pub fn layers_json(
    workload: &str,
    wall_s: f64,
    threads: usize,
    layers: &BTreeMap<&'static str, f64>,
    extra: &[(&str, f64)],
    sessions: &GapState,
    replayed: bool,
) -> (String, f64) {
    let capacity = wall_s * threads as f64;
    let attributed: f64 = layers.values().sum();
    let residual = capacity - attributed;
    let residual_frac = if capacity > 0.0 { residual / capacity } else { 0.0 };
    let mut out = format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"wall_s\": {wall_s},\n  \"threads\": {threads},\n  \"capacity_s\": {capacity},\n  \"layers_s\": {{"
    );
    push_map(&mut out, layers.iter().map(|(k, v)| (k.to_string(), *v)));
    let _ = write!(out, "}},\n  \"residual_s\": {residual},\n  \"residual_frac\": {residual_frac}");
    for (k, v) in extra {
        let _ = write!(out, ",\n  \"{k}\": {v}");
    }
    if replayed {
        // The serve workloads' sampled sessions, replayed standalone with
        // the timestamping sink: where a session's own time goes.
        out.push_str(",\n  \"session_layers_s\": {");
        push_map(&mut out, sessions.layers.iter().map(|(k, v)| (k.to_string(), *v)));
        out.push('}');
    }
    // Every interval between two markers, for finer attribution than the
    // layers give.
    out.push_str(",\n  \"session_segments_s\": {");
    push_map(&mut out, sessions.segments.iter().map(|((a, b), (s, _))| (format!("{a}>{b}"), *s)));
    out.push('}');
    out.push_str("\n}\n");
    (out, residual_frac)
}

fn push_map(out: &mut String, entries: impl Iterator<Item = (String, f64)>) {
    for (i, (k, v)) in entries.enumerate() {
        let _ = write!(out, "{}\n    \"{k}\": {v}", if i == 0 { "" } else { "," });
    }
    out.push_str("\n  ");
}

/// The machine a traced run ran on.
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\n  \"nproc\": {nproc},\n  \"bench_threads\": {THREADS},\n  \"cpu_model\": {},\n  \"rustc\": {},\n  \"git_rev\": {}\n}}\n",
        quote(&cpu),
        quote(&rustc),
        quote(&git_rev()),
    )
}

/// The checkout's commit, read from `.git` without running git (the
/// measured checkout need not be a repository).
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_owned() };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find(|l| l.ends_with(reference)).map(|l| l[..l.len().min(40)].to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn quote(s: &str) -> String {
    serde_json::to_string(&s.to_owned()).expect("strings serialize")
}
