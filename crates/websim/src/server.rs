//! Application hosting: the boundary between crawlers and simulated apps.
//!
//! A [`WebApp`] is a deterministic server-side program: given a request and
//! its session, it records executed code [blocks](crate::coverage::Block)
//! and produces a response. An [`AppHost`] wires an app to a
//! [`CoverageTracker`] and a [`SessionStore`], playing the role of the
//! deployed application + instrumentation stack of the paper's testbed.

use crate::coverage::{Block, CodeModel, CoverageMode, CoverageTracker};
use crate::http::{Request, Response};
use crate::session::{Session, SessionStore};
use crate::url::Url;
use mak_obs::event::Event;
use mak_obs::sink::SinkHandle;

/// Per-request context handed to [`WebApp::handle`]: the requester's session
/// and the coverage recorder.
#[derive(Debug)]
pub struct RequestCtx<'a> {
    session: &'a mut Session,
    coverage: &'a mut CoverageTracker,
    request_index: u64,
}

impl<'a> RequestCtx<'a> {
    /// The requester's server-side session.
    pub fn session(&mut self) -> &mut Session {
        self.session
    }

    /// The 1-based index of this request since deployment — lets apps model
    /// deterministic transient failures (every n-th request erroring).
    pub fn request_index(&self) -> u64 {
        self.request_index
    }

    /// Records execution of a code block.
    pub fn execute(&mut self, block: Block) {
        self.coverage.hit(block);
    }

    /// Records execution of several blocks.
    pub fn execute_all(&mut self, blocks: &[Block]) {
        for b in blocks {
            self.coverage.hit(*b);
        }
    }
}

/// A deterministic simulated web application.
///
/// Implementations must be pure functions of `(request, session)`: the
/// simulator relies on this for reproducible experiments. Apps are
/// `Send + Sync` — [`handle`](WebApp::handle) takes `&self`, with all
/// per-run mutability confined to the [`RequestCtx`] — so one immutable
/// model can be shared (`Arc<dyn WebApp>`) by thousands of concurrent
/// crawl sessions, each with its own [`AppHost`].
pub trait WebApp: Send + Sync {
    /// Short identifier, e.g. `"drupal"`.
    fn name(&self) -> &str;

    /// The URL crawling starts from (§II-B: the seed URL).
    fn seed_url(&self) -> Url;

    /// The app's declared server-side code.
    fn code_model(&self) -> &CodeModel;

    /// Whether coverage is observable live (Xdebug/PHP) or only at the end
    /// (coverage-node/Node.js).
    fn coverage_mode(&self) -> CoverageMode;

    /// Base page-load latency in virtual milliseconds, used by the
    /// browser's cost model. Larger applications respond more slowly.
    fn base_latency_ms(&self) -> f64 {
        300.0
    }

    /// Handles one request.
    fn handle(&self, req: &Request, ctx: &mut RequestCtx<'_>) -> Response;
}

/// How a host references its application model: exclusively owned (the
/// classic one-run path) or shared with other hosts (the serving path,
/// where thousands of concurrent sessions deploy the same immutable
/// model without cloning it).
enum AppRef {
    Owned(Box<dyn WebApp>),
    Shared(std::sync::Arc<dyn WebApp>),
}

impl std::ops::Deref for AppRef {
    type Target = dyn WebApp;

    fn deref(&self) -> &(dyn WebApp + 'static) {
        match self {
            AppRef::Owned(app) => &**app,
            AppRef::Shared(app) => &**app,
        }
    }
}

/// A hosted application instance: app + coverage + sessions + counters.
///
/// One `AppHost` corresponds to one fresh deployment, i.e. one experimental
/// run. The host is the *measurement* boundary: crawlers only see
/// [`Response`]s, while the harness reads coverage through
/// [`tracker`](AppHost::tracker). The application model itself is
/// immutable and may be [shared](AppHost::with_shared) across many
/// hosts; everything mutable (coverage, sessions, counters) is per-host.
pub struct AppHost {
    app: AppRef,
    /// The app's seed URL, built once: requests off its origin get `404`.
    origin: Url,
    tracker: CoverageTracker,
    sessions: SessionStore,
    requests: u64,
    sink: SinkHandle,
}

impl std::fmt::Debug for AppHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppHost")
            .field("app", &self.app.name())
            .field("requests", &self.requests)
            .finish_non_exhaustive()
    }
}

impl AppHost {
    /// Deploys `app` with a fresh coverage tracker and session store.
    pub fn new(app: Box<dyn WebApp>) -> Self {
        Self::from_ref(AppRef::Owned(app))
    }

    /// Deploys a *shared* application model: this host gets its own
    /// coverage tracker, session store, and request counter, but the
    /// model itself stays one allocation shared with every other host
    /// built from the same `Arc`. Behaviour is identical to
    /// [`AppHost::new`] on a fresh copy of the model — apps are pure
    /// functions of `(request, session)`, so sharing is unobservable.
    pub fn with_shared(app: std::sync::Arc<dyn WebApp>) -> Self {
        Self::from_ref(AppRef::Shared(app))
    }

    fn from_ref(app: AppRef) -> Self {
        let tracker = CoverageTracker::new(app.code_model(), app.coverage_mode());
        AppHost {
            origin: app.seed_url(),
            app,
            tracker,
            sessions: SessionStore::new(),
            requests: 0,
            sink: SinkHandle::none(),
        }
    }

    /// Attaches an event sink; the host emits [`Event::CoverageDelta`]
    /// whenever a request grows server-side line coverage. Purely
    /// observational — responses and coverage accounting are identical
    /// with or without a sink.
    pub fn set_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    /// The hosted application.
    pub fn app(&self) -> &dyn WebApp {
        &*self.app
    }

    /// Serves one request: resolves the session, dispatches to the app, and
    /// stamps the session cookie on the response.
    ///
    /// Requests for foreign hosts are answered with `404` — the simulator
    /// hosts exactly one application, like the paper's per-app testbeds.
    pub fn fetch(&mut self, req: &Request) -> Response {
        self.requests += 1;
        if !req.url.same_origin(&self.origin) {
            return Response::not_found();
        }
        let lines_before =
            if self.sink.is_active() { self.tracker.lines_covered_unchecked() } else { 0 };
        let (sid, session) = self.sessions.get_or_create(req.session);
        let mut ctx =
            RequestCtx { session, coverage: &mut self.tracker, request_index: self.requests };
        let mut resp = self.app.handle(req, &mut ctx);
        resp.session = Some(sid);
        if self.sink.is_active() {
            let lines_after = self.tracker.lines_covered_unchecked();
            if lines_after > lines_before {
                self.sink.emit(Event::CoverageDelta {
                    request: self.requests,
                    lines: lines_after,
                    delta: lines_after - lines_before,
                });
            }
        }
        resp
    }

    /// Number of requests served so far.
    pub fn request_count(&self) -> u64 {
        self.requests
    }

    /// Ends the run, sealing final-mode coverage.
    pub fn shutdown(&mut self) {
        self.tracker.seal();
    }

    /// The coverage tracker (measurement side).
    pub fn tracker(&self) -> &CoverageTracker {
        &self.tracker
    }

    /// Live covered-line count for harness-side time series. Not available
    /// to crawlers; respects nothing — see
    /// [`CoverageTracker::observe_lines_covered`] for the tool-faithful view.
    pub fn harness_lines_covered(&self) -> u64 {
        self.tracker.lines_covered_unchecked()
    }

    /// Allocated session id for `cookie`, if the store knows it.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }
}

/// Convenience: a trivial single-page app used in tests and doctests.
///
/// # Examples
///
/// ```
/// use mak_websim::server::{AppHost, StaticApp};
/// use mak_websim::http::Request;
///
/// let mut host = AppHost::new(Box::new(StaticApp::default()));
/// let resp = host.fetch(&Request::get(host.app().seed_url()));
/// assert!(resp.document().is_some());
/// assert!(host.harness_lines_covered() > 0);
/// ```
#[derive(Debug)]
pub struct StaticApp {
    model: CodeModel,
    block: Block,
}

impl Default for StaticApp {
    fn default() -> Self {
        let mut model = CodeModel::new();
        let file = model.declare_file("index.php", 10);
        StaticApp { model, block: Block { file, start: 1, end: 10 } }
    }
}

impl WebApp for StaticApp {
    fn name(&self) -> &str {
        "static"
    }

    fn seed_url(&self) -> Url {
        Url::new("static.local", "/")
    }

    fn code_model(&self) -> &CodeModel {
        &self.model
    }

    fn coverage_mode(&self) -> CoverageMode {
        CoverageMode::Live
    }

    fn handle(&self, req: &Request, ctx: &mut RequestCtx<'_>) -> Response {
        use crate::dom::{Element, Tag};
        ctx.execute(self.block);
        let body =
            Element::new(Tag::Body).child(Element::new(Tag::A).attr("href", "/").text("home"));
        Response::html(crate::dom::Document::new(req.url.clone(), "static", body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_serves_and_tracks_coverage() {
        let mut host = AppHost::new(Box::new(StaticApp::default()));
        let req = Request::get(host.app().seed_url());
        let resp = host.fetch(&req);
        assert_eq!(resp.status, crate::http::Status::Ok);
        assert!(resp.session.is_some());
        assert_eq!(host.harness_lines_covered(), 10);
        assert_eq!(host.request_count(), 1);
    }

    #[test]
    fn foreign_host_is_not_found() {
        let mut host = AppHost::new(Box::new(StaticApp::default()));
        let resp = host.fetch(&Request::get("http://elsewhere.example/".parse().unwrap()));
        assert_eq!(resp.status, crate::http::Status::NotFound);
    }

    #[test]
    fn sessions_persist_across_requests() {
        let mut host = AppHost::new(Box::new(StaticApp::default()));
        let first = host.fetch(&Request::get(host.app().seed_url()));
        let sid = first.session.unwrap();
        let mut req = Request::get(host.app().seed_url());
        req.session = Some(sid);
        let second = host.fetch(&req);
        assert_eq!(second.session, Some(sid));
        assert_eq!(host.session_count(), 1);
    }

    #[test]
    fn shutdown_seals_coverage() {
        let mut host = AppHost::new(Box::new(StaticApp::default()));
        host.fetch(&Request::get(host.app().seed_url()));
        host.shutdown();
        assert!(host.tracker().is_sealed());
        assert_eq!(host.tracker().observe_lines_covered(), Ok(10));
    }
}
