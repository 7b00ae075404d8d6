//! The black-box browsing client.
//!
//! [`Browser`] is the `EXECUTE(p, a)` primitive of the paper's Algorithm 2:
//! it navigates to URLs, clicks buttons, fills and submits forms, follows
//! redirects, refuses external domains (§V-A assumption ii), carries the
//! session cookie, and charges every operation to the virtual clock.

use crate::clock::VirtualClock;
use crate::cost::CostModel;
use crate::fault::{self, FaultKind, FaultPlan, FaultStats};
use crate::page::Page;
use mak_obs::event::Event;
use mak_obs::sink::SinkHandle;
use mak_obs::span::{Phase, PhaseTotals};
use mak_websim::dom::{FieldKind, FormSpec, Interactable};
use mak_websim::http::{Body, Method, Request, SessionId, Status};
use mak_websim::server::AppHost;
use mak_websim::url::Url;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Maximum redirects followed per navigation, as in real browsers.
const MAX_REDIRECTS: usize = 5;

/// Errors surfaced to crawlers by the browser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrowseError {
    /// The virtual time budget is exhausted; the run is over.
    BudgetExhausted,
    /// The target URL leaves the application's origin; the action is
    /// invalid per §V-A assumption ii.
    ExternalDomain(Url),
    /// A same-origin redirect chain exceeded [`MAX_REDIRECTS`] hops — a
    /// redirect loop, surfaced as a typed error instead of a silently
    /// truncated error page.
    TooManyRedirects(Url),
    /// An injected transient fault survived every retry (see
    /// [`crate::fault::FaultPlan`]); the navigation was abandoned.
    Transient {
        /// The fault kind that kept firing.
        kind: FaultKind,
        /// Failed attempts made before giving up.
        attempts: u32,
    },
    /// The targeted interactable went stale before execution (injected;
    /// see [`crate::fault::FaultPlan::stale_element`]).
    StaleElement,
}

impl fmt::Display for BrowseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrowseError::BudgetExhausted => write!(f, "virtual time budget exhausted"),
            BrowseError::ExternalDomain(url) => write!(f, "external domain: {url}"),
            BrowseError::TooManyRedirects(url) => write!(f, "redirect loop at: {url}"),
            BrowseError::Transient { kind, attempts } => {
                write!(f, "transient {kind} fault persisted across {attempts} attempts")
            }
            BrowseError::StaleElement => write!(f, "stale element reference"),
        }
    }
}

impl std::error::Error for BrowseError {}

/// Callback invoked with every page the browser renders; see
/// [`Browser::set_page_observer`]. `Send + Sync` so a [`Browser`] owning
/// one stays movable between scheduler worker threads.
pub type PageObserver = Box<dyn FnMut(&Page) + Send + Sync>;

/// A black-box browsing client bound to one hosted application.
pub struct Browser {
    host: AppHost,
    origin: Url,
    cookie: Option<SessionId>,
    clock: VirtualClock,
    cost: CostModel,
    rng: StdRng,
    interactions: u64,
    fill_counter: u64,
    observer: Option<PageObserver>,
    sink: SinkHandle,
    faults: FaultPlan,
    /// Seed of the fault-decision stream: `plan.fault_seed ^ run seed`.
    fault_stream_seed: u64,
    /// Monotonic decision counter; each injection decision consumes one
    /// index of the stream and never touches `rng`.
    fault_counter: u64,
    fault_stats: FaultStats,
    /// Always-on per-phase attribution of every clock charge (see
    /// [`PhaseTotals`]); the clock advances themselves are untouched, so
    /// the virtual timeline is bit-identical with or without readers.
    phase: PhaseTotals,
}

impl std::fmt::Debug for Browser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Browser")
            .field("origin", &self.origin)
            .field("interactions", &self.interactions)
            .field("elapsed_ms", &self.clock.elapsed_ms())
            .field("has_observer", &self.observer.is_some())
            .finish_non_exhaustive()
    }
}

impl Browser {
    /// Opens a browser against `host` with the default cost model.
    pub fn new(host: AppHost, clock: VirtualClock, seed: u64) -> Self {
        Self::with_cost_model(host, clock, seed, CostModel::default())
    }

    /// Opens a browser with an explicit cost model and no fault plan.
    pub fn with_cost_model(host: AppHost, clock: VirtualClock, seed: u64, cost: CostModel) -> Self {
        Self::with_faults(host, clock, seed, cost, FaultPlan::none())
    }

    /// Opens a browser with an explicit cost model and fault plan. With
    /// [`FaultPlan::none`] this is exactly [`Self::with_cost_model`]: the
    /// fault layer is never consulted and behaviour is bit-identical.
    pub fn with_faults(
        host: AppHost,
        clock: VirtualClock,
        seed: u64,
        cost: CostModel,
        faults: FaultPlan,
    ) -> Self {
        let origin = host.app().seed_url();
        let fault_stream_seed = faults.fault_seed ^ seed;
        Browser {
            host,
            origin,
            cookie: None,
            clock,
            cost,
            rng: StdRng::seed_from_u64(seed),
            interactions: 0,
            fill_counter: 0,
            observer: None,
            sink: SinkHandle::none(),
            faults,
            fault_stream_seed,
            fault_counter: 0,
            fault_stats: FaultStats::default(),
            phase: PhaseTotals::default(),
        }
    }

    /// Attaches an event sink to the browser and the host it drives; the
    /// browser emits [`Event::PageFetched`] / [`Event::RedirectFollowed`]
    /// with the cost-model breakdown of every charge, the host its
    /// coverage deltas. Purely observational — the charges themselves are
    /// identical with or without a sink.
    pub fn set_sink(&mut self, sink: SinkHandle) {
        self.host.set_sink(sink.clone());
        self.sink = sink;
    }

    /// Installs a callback invoked with every rendered page, in fetch
    /// order — how a scanner shadowing the crawl collects the attack
    /// surface without altering crawler behaviour.
    pub fn set_page_observer(&mut self, observer: impl FnMut(&Page) + Send + Sync + 'static) {
        self.observer = Some(Box::new(observer));
    }

    /// The application's origin (seed URL).
    pub fn origin(&self) -> &Url {
        &self.origin
    }

    /// The virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The cost model in effect, so crawlers can price their own policy
    /// overhead (see [`CostModel::state_policy_cost`]).
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Number of element interactions executed so far — the §V-D metric.
    pub fn interaction_count(&self) -> u64 {
        self.interactions
    }

    /// What the fault layer did so far (all zeros without a fault plan).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Where the virtual time went so far: every clock charge attributed
    /// to one leaf phase. The buckets partition
    /// [`VirtualClock::elapsed_ms`] exactly (up to float summation
    /// order).
    pub fn phase_totals(&self) -> &PhaseTotals {
        &self.phase
    }

    /// The hosted application (measurement side).
    pub fn host(&self) -> &AppHost {
        &self.host
    }

    /// Seals the run and returns the host for final measurement.
    pub fn finish(mut self) -> AppHost {
        self.host.shutdown();
        self.host
    }

    /// Charges policy-decision overhead to the clock (called by the crawl
    /// engine once per decision; see [`CostModel`]).
    pub fn charge_policy_overhead(&mut self, ms: f64) {
        self.clock.advance(ms);
        self.phase.policy_ms += ms;
        self.sink.span_set_now(self.clock.elapsed_ms());
    }

    /// Loads the application's seed URL — the start of every crawl.
    ///
    /// # Errors
    ///
    /// Returns [`BrowseError::BudgetExhausted`] if the budget is spent.
    pub fn open_seed(&mut self) -> Result<Page, BrowseError> {
        let seed = self.origin.clone();
        self.navigate(&seed)
    }

    /// Navigates to `url` with `GET`, following redirects.
    ///
    /// # Errors
    ///
    /// - [`BrowseError::BudgetExhausted`] if the budget is spent;
    /// - [`BrowseError::ExternalDomain`] if `url` leaves the origin.
    pub fn navigate(&mut self, url: &Url) -> Result<Page, BrowseError> {
        self.request(Request::get(url.clone()))
    }

    /// Sends a raw `POST` with an explicit body — the primitive scanners
    /// use to replay a discovered form with chosen values rather than the
    /// browser's standard fill.
    ///
    /// # Errors
    ///
    /// Same conditions as [`navigate`](Self::navigate).
    pub fn post(&mut self, url: &Url, form: Vec<(String, String)>) -> Result<Page, BrowseError> {
        self.request(Request::post(url.clone(), form))
    }

    /// Executes an interactable element: follows a link, clicks a button, or
    /// fills and submits a form. Counts as one atomic interaction (§V-D).
    ///
    /// # Errors
    ///
    /// Same conditions as [`navigate`](Self::navigate).
    pub fn execute(&mut self, action: &Interactable) -> Result<Page, BrowseError> {
        let span = self.sink.span_open(Phase::ExecuteAction, self.clock.elapsed_ms());
        let result = self.execute_inner(action);
        self.sink.span_close(span, self.clock.elapsed_ms());
        result
    }

    fn execute_inner(&mut self, action: &Interactable) -> Result<Page, BrowseError> {
        if !self.faults.is_none() {
            if self.clock.expired() {
                return Err(BrowseError::BudgetExhausted);
            }
            let roll = self.next_fault_roll();
            if self.faults.element_stale(roll) {
                // The element reference died before any request went out:
                // charge the aborted round trip, no interaction counted.
                let kind = FaultKind::StaleElement;
                let wait = self.cost.fault_wait_ms(
                    self.host.app().base_latency_ms(),
                    kind.round_trips(&self.faults),
                );
                let start = self.clock.elapsed_ms();
                self.clock.advance(wait);
                self.charge_render(start, wait);
                self.fault_stats.injected += 1;
                self.fault_stats.stale_elements += 1;
                let url = action_target(action).normalized().to_owned();
                self.sink.emit_with(|| Event::FaultInjected {
                    kind: kind.name().to_owned(),
                    url,
                    wait_ms: wait,
                });
                return Err(BrowseError::StaleElement);
            }
        }
        let result = match action {
            Interactable::Link { href, .. } => self.request(Request::get(href.clone())),
            Interactable::Button { target, .. } => {
                self.request(Request::post(target.clone(), Vec::new()))
            }
            Interactable::Form(form) => {
                let data = self.fill_form(form);
                match form.method {
                    Method::Get => {
                        let mut url = form.action.clone();
                        for (k, v) in data {
                            url = url.with_query(k, v);
                        }
                        self.request(Request::get(url))
                    }
                    Method::Post => self.request(Request::post(form.action.clone(), data)),
                }
            }
        };
        if result.is_ok() {
            self.interactions += 1;
        }
        result
    }

    /// Fills a form the way the unified framework does for all crawlers
    /// (§V-A assumption i): generated strings for text fields, echoed hidden
    /// values, the first option for selects, a fixed password.
    fn fill_form(&mut self, form: &FormSpec) -> Vec<(String, String)> {
        use rand::Rng as _;
        let mut data = Vec::with_capacity(form.fields.len());
        for field in &form.fields {
            self.fill_counter += 1;
            let value = match &field.kind {
                // Unique within the run (counter) and across runs (seeded
                // salt): different runs submit different values, so
                // input-dependent server branches vary per seed — the
                // run-to-run diversity behind the §V-B union ground truth.
                FieldKind::Text => {
                    format!("input{}-{:04x}", self.fill_counter, self.rng.gen::<u16>())
                }
                FieldKind::Hidden(v) => v.clone(),
                FieldKind::Select(options) => options.first().cloned().unwrap_or_default(),
                FieldKind::Password => "password123".to_owned(),
            };
            data.push((field.name.clone(), value));
        }
        data
    }

    /// The next draw of the fault-decision stream — a pure function of
    /// `(fault_stream_seed, counter)`, deliberately separate from `rng`
    /// so injection never shifts the cost-model jitter sequence.
    fn next_fault_roll(&mut self) -> f64 {
        let index = self.fault_counter;
        self.fault_counter += 1;
        fault::roll(self.fault_stream_seed, index)
    }

    fn request(&mut self, req: Request) -> Result<Page, BrowseError> {
        if self.clock.expired() {
            return Err(BrowseError::BudgetExhausted);
        }
        if !req.url.same_origin(&self.origin) {
            return Err(BrowseError::ExternalDomain(req.url));
        }
        if self.faults.is_none() {
            // Zero-fault fast path: no decision stream, bit-identical to
            // the pre-fault-injection browser.
            return self.perform(req);
        }
        let mut attempts: u32 = 0;
        loop {
            let roll = self.next_fault_roll();
            if let Some(kind) = self.faults.transient_fault(roll) {
                if kind == FaultKind::SessionExpiry {
                    // The server forgot us: drop the cookie and proceed as
                    // an anonymous visitor — a recoverable reset, not an
                    // error (MAK's statelessness is motivated by exactly
                    // this, §II).
                    self.cookie = None;
                    self.fault_stats.injected += 1;
                    self.fault_stats.session_expiries += 1;
                    let url = req.url.normalized().to_owned();
                    self.sink.emit_with(|| Event::FaultInjected {
                        kind: kind.name().to_owned(),
                        url,
                        wait_ms: 0.0,
                    });
                } else {
                    let wait = self.cost.fault_wait_ms(
                        self.host.app().base_latency_ms(),
                        kind.round_trips(&self.faults),
                    );
                    let start = self.clock.elapsed_ms();
                    self.clock.advance(wait);
                    self.charge_render(start, wait);
                    self.fault_stats.injected += 1;
                    attempts += 1;
                    let url = req.url.normalized().to_owned();
                    self.sink.emit_with(|| Event::FaultInjected {
                        kind: kind.name().to_owned(),
                        url,
                        wait_ms: wait,
                    });
                    if self.clock.expired() {
                        return Err(BrowseError::BudgetExhausted);
                    }
                    if attempts >= self.faults.retry.max_attempts {
                        self.fault_stats.exhausted += 1;
                        return Err(BrowseError::Transient { kind, attempts });
                    }
                    let backoff = self.faults.retry.backoff_ms(attempts);
                    let start = self.clock.elapsed_ms();
                    self.clock.advance(backoff);
                    self.phase.backoff_ms += backoff;
                    self.sink.span_leaf(Phase::Backoff, start, backoff);
                    self.sink.span_set_now(self.clock.elapsed_ms());
                    self.fault_stats.retries += 1;
                    self.fault_stats.backoff_ms += backoff;
                    self.sink.emit_with(|| Event::RetryScheduled {
                        attempt: attempts as u64,
                        backoff_ms: backoff,
                    });
                    if self.clock.expired() {
                        return Err(BrowseError::BudgetExhausted);
                    }
                    continue;
                }
            }
            let page = self.perform(req.clone())?;
            if attempts > 0 {
                self.fault_stats.recoveries += 1;
                let recovered_after = attempts as u64;
                self.sink.emit_with(|| Event::FaultRecovered { attempts: recovered_after });
            }
            return Ok(page);
        }
    }

    /// One actual navigation (no injection): fetch, follow redirects,
    /// charge the cost model, render the page.
    fn perform(&mut self, mut req: Request) -> Result<Page, BrowseError> {
        let mut hops = 0;
        loop {
            req.session = self.cookie;
            let resp = self.host.fetch(&req);
            if resp.session.is_some() {
                self.cookie = resp.session;
            }
            let latency = self.host.app().base_latency_ms();
            match resp.body {
                Body::Redirect(location) => {
                    // Redirect hop: charge a headers-only round trip.
                    let hop_ms = latency * 0.5;
                    let start = self.clock.elapsed_ms();
                    self.clock.advance(hop_ms);
                    self.charge_render(start, hop_ms);
                    self.sink.emit_with(|| Event::RedirectFollowed {
                        url: location.normalized().to_owned(),
                        fetch_ms: hop_ms,
                    });
                    hops += 1;
                    if !location.same_origin(&self.origin) {
                        // Off-origin redirect: not followed, rendered as an
                        // error page (the crawler sees a dead end, not a
                        // failure).
                        return Ok(Page::empty(Status::ServerError, location));
                    }
                    if hops > MAX_REDIRECTS {
                        // A same-origin redirect loop is a navigation
                        // failure, surfaced as a typed error rather than a
                        // silently truncated error page.
                        return Err(BrowseError::TooManyRedirects(location));
                    }
                    req = Request::get(location);
                }
                Body::Html(doc) => {
                    let page = Page::from_document(resp.status, doc);
                    let cost = self.cost.fetch_cost_parts(
                        &mut self.rng,
                        latency,
                        page.interactables().len(),
                    );
                    let start = self.clock.elapsed_ms();
                    self.clock.advance(cost.total());
                    self.charge_fetch(start, cost.fetch_ms, cost.think_ms, cost.interact_ms);
                    self.sink.emit_with(|| Event::PageFetched {
                        url: page.url().normalized().to_owned(),
                        status: page.status().code(),
                        fetch_ms: cost.fetch_ms,
                        think_ms: cost.think_ms,
                        interact_ms: cost.interact_ms,
                        elements: page.interactables().len() as u64,
                    });
                    if let Some(observer) = &mut self.observer {
                        observer(&page);
                    }
                    return Ok(page);
                }
                Body::Empty => {
                    let cost = self.cost.fetch_cost_parts(&mut self.rng, latency, 0);
                    let start = self.clock.elapsed_ms();
                    self.clock.advance(cost.total());
                    self.charge_fetch(start, cost.fetch_ms, cost.think_ms, cost.interact_ms);
                    let page = Page::empty(resp.status, req.url);
                    self.sink.emit_with(|| Event::PageFetched {
                        url: page.url().normalized().to_owned(),
                        status: page.status().code(),
                        fetch_ms: cost.fetch_ms,
                        think_ms: cost.think_ms,
                        interact_ms: cost.interact_ms,
                        elements: 0,
                    });
                    if let Some(observer) = &mut self.observer {
                        observer(&page);
                    }
                    return Ok(page);
                }
            }
        }
    }
}

impl Browser {
    /// Attributes a network-shaped charge (fault wait, redirect hop)
    /// already advanced on the clock: bucket it under `Render` and emit
    /// the leaf span when profiling. Never advances the clock itself.
    fn charge_render(&mut self, start_ms: f64, ms: f64) {
        self.phase.render_ms += ms;
        self.sink.span_leaf(Phase::Render, start_ms, ms);
        self.sink.span_set_now(self.clock.elapsed_ms());
    }

    /// Attributes one fetch charge (already advanced as a single
    /// `cost.total()` so the timeline is unchanged) to its three parts,
    /// laying the leaf spans out consecutively from `start_ms`.
    fn charge_fetch(&mut self, start_ms: f64, fetch_ms: f64, think_ms: f64, interact_ms: f64) {
        self.phase.render_ms += fetch_ms;
        self.phase.think_ms += think_ms;
        self.phase.extract_ms += interact_ms;
        if self.sink.spans_active() {
            self.sink.span_leaf(Phase::Render, start_ms, fetch_ms);
            self.sink.span_leaf(Phase::Think, start_ms + fetch_ms, think_ms);
            self.sink.span_leaf(
                Phase::ExtractInteractables,
                start_ms + fetch_ms + think_ms,
                interact_ms,
            );
            self.sink.span_set_now(self.clock.elapsed_ms());
        }
    }
}

/// The URL an interactable resolves to — used to label fault events.
fn action_target(action: &Interactable) -> &Url {
    match action {
        Interactable::Link { href, .. } => href,
        Interactable::Button { target, .. } => target,
        Interactable::Form(form) => &form.action,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mak_websim::apps;

    fn browser(app: &str, budget_min: f64) -> Browser {
        let host = AppHost::new(apps::build(app).expect("known app"));
        Browser::new(host, VirtualClock::with_budget_minutes(budget_min), 7)
    }

    #[test]
    fn open_seed_charges_time_and_returns_elements() {
        let mut b = browser("addressbook", 30.0);
        let page = b.open_seed().unwrap();
        assert!(!page.interactables().is_empty());
        assert!(b.clock().elapsed_ms() > 0.0);
        assert_eq!(b.interaction_count(), 0, "bare navigation is not an interaction");
    }

    #[test]
    fn execute_link_counts_interaction() {
        let mut b = browser("addressbook", 30.0);
        let page = b.open_seed().unwrap();
        let origin = b.origin().clone();
        let link = page
            .valid_interactables(&origin)
            .find(|i| matches!(i, Interactable::Link { .. }))
            .cloned()
            .unwrap();
        let next = b.execute(&link).unwrap();
        assert_eq!(b.interaction_count(), 1);
        assert_eq!(next.status(), Status::Ok);
    }

    #[test]
    fn external_navigation_is_rejected() {
        let mut b = browser("addressbook", 30.0);
        let err = b.navigate(&"http://evil.example/".parse().unwrap()).unwrap_err();
        assert!(matches!(err, BrowseError::ExternalDomain(_)));
        assert_eq!(b.interaction_count(), 0);
    }

    #[test]
    fn budget_exhaustion_stops_navigation() {
        let host = AppHost::new(apps::build("addressbook").unwrap());
        let mut b = Browser::new(host, VirtualClock::new(1.0), 7);
        // First fetch may still run (budget not yet spent)...
        let _ = b.open_seed().unwrap();
        // ...but afterwards the clock has advanced past 1ms.
        let err = b.open_seed().unwrap_err();
        assert_eq!(err, BrowseError::BudgetExhausted);
    }

    #[test]
    fn session_cookie_persists_across_requests() {
        let mut b = browser("oscommerce2", 30.0);
        b.open_seed().unwrap();
        b.navigate(&"http://oscommerce.local/cart".parse().unwrap()).unwrap();
        b.navigate(&"http://oscommerce.local/cart".parse().unwrap()).unwrap();
        assert_eq!(b.host().session_count(), 1, "one session reused");
    }

    #[test]
    fn form_submission_reaches_server_state() {
        let mut b = browser("drupal", 30.0);
        let trap = b.navigate(&"http://drupal.local/shortcuts".parse().unwrap()).unwrap();
        let origin = b.origin().clone();
        let form = trap
            .valid_interactables(&origin)
            .find(|i| matches!(i, Interactable::Form(_)))
            .cloned()
            .expect("trap page has a form");
        let before = trap.interactables().len();
        let after_page = b.execute(&form).unwrap();
        assert_eq!(after_page.interactables().len(), before + 1, "trap form adds a broken link");
    }

    #[test]
    fn filled_text_fields_are_unique_per_submission() {
        let mut b = browser("wordpress", 30.0);
        let page = b.navigate(&"http://wordpress.local/search".parse().unwrap()).unwrap();
        let origin = b.origin().clone();
        let form = page
            .valid_interactables(&origin)
            .find(|i| matches!(i, Interactable::Form(_)))
            .cloned()
            .unwrap();
        let r1 = b.execute(&form).unwrap();
        let r2 = b.execute(&form).unwrap();
        assert_ne!(r1.url(), r2.url(), "distinct generated queries yield distinct URLs");
    }

    fn faulty_browser(app: &str, plan: FaultPlan, seed: u64) -> Browser {
        let host = AppHost::new(apps::build(app).expect("known app"));
        Browser::with_faults(
            host,
            VirtualClock::with_budget_minutes(30.0),
            seed,
            CostModel::default(),
            plan,
        )
    }

    #[test]
    fn zero_fault_plan_is_bit_identical_to_default_browser() {
        let crawl = |mut b: Browser| {
            let page = b.open_seed().unwrap();
            let origin = b.origin().clone();
            if let Some(link) = page
                .valid_interactables(&origin)
                .find(|i| matches!(i, Interactable::Link { .. }))
                .cloned()
            {
                b.execute(&link).unwrap();
            }
            (b.clock().elapsed_ms().to_bits(), b.interaction_count())
        };
        let plain = crawl(browser("addressbook", 30.0));
        let none = crawl(faulty_browser("addressbook", FaultPlan::none(), 7));
        assert_eq!(plain, none, "FaultPlan::none() changes nothing, bit for bit");
    }

    #[test]
    fn fault_schedule_is_deterministic_across_reruns() {
        let crawl = |seed| {
            let mut b = faulty_browser("addressbook", FaultPlan::uniform(0.3), seed);
            for _ in 0..30 {
                let _ = b.open_seed();
            }
            (b.clock().elapsed_ms().to_bits(), b.fault_stats().clone())
        };
        let (t1, s1) = crawl(5);
        let (t2, s2) = crawl(5);
        assert_eq!(t1, t2, "same seed, same virtual timeline");
        assert_eq!(s1, s2, "same seed, same fault schedule");
        assert!(s1.injected > 0, "a 30% plan fires over 30 navigations");
        let (_, other) = crawl(6);
        assert_ne!(s1, other, "a different seed reschedules the faults");
    }

    #[test]
    fn retryable_faults_recover_and_are_counted() {
        let mut b = faulty_browser("addressbook", FaultPlan::uniform(0.4), 11);
        let mut pages = 0;
        for _ in 0..40 {
            if b.open_seed().is_ok() {
                pages += 1;
            }
        }
        let stats = b.fault_stats();
        assert!(pages > 0, "the crawl survives a 40% fault rate");
        assert!(stats.injected > 0);
        assert!(stats.retries > 0, "retryable faults schedule retries");
        assert!(stats.recoveries > 0, "some navigations succeed after faults");
    }

    #[test]
    fn exhausted_retries_surface_a_typed_transient_error() {
        let plan = FaultPlan { http_5xx: 1.0, ..FaultPlan::none() };
        let max = plan.retry.max_attempts;
        let mut b = faulty_browser("addressbook", plan, 1);
        let err = b.open_seed().unwrap_err();
        assert_eq!(err, BrowseError::Transient { kind: FaultKind::Http5xx, attempts: max });
        let stats = b.fault_stats();
        assert_eq!(stats.injected, max as u64);
        assert_eq!(stats.retries, (max - 1) as u64);
        assert_eq!(stats.exhausted, 1);
        assert_eq!(stats.recoveries, 0);
        assert!(b.clock().elapsed_ms() > 0.0, "failed attempts and backoffs were charged");
    }

    #[test]
    fn session_expiry_drops_the_cookie_and_mints_a_new_session() {
        let plan = FaultPlan { session_expiry: 1.0, ..FaultPlan::none() };
        let mut b = faulty_browser("oscommerce2", plan, 3);
        b.open_seed().unwrap();
        b.navigate(&"http://oscommerce.local/cart".parse().unwrap()).unwrap();
        b.navigate(&"http://oscommerce.local/cart".parse().unwrap()).unwrap();
        assert!(b.host().session_count() >= 3, "every navigation re-logs-in");
        assert_eq!(b.fault_stats().session_expiries, b.fault_stats().injected);
    }

    #[test]
    fn stale_elements_fail_fast_without_counting_an_interaction() {
        let plan = FaultPlan { stale_element: 1.0, ..FaultPlan::none() };
        let mut b = faulty_browser("addressbook", plan, 2);
        let page = b.open_seed().unwrap();
        let origin = b.origin().clone();
        let link = page.valid_interactables(&origin).next().cloned().unwrap();
        let before = b.clock().elapsed_ms();
        assert_eq!(b.execute(&link).unwrap_err(), BrowseError::StaleElement);
        assert_eq!(b.interaction_count(), 0, "a stale element is not an interaction");
        assert!(b.clock().elapsed_ms() > before, "the aborted attempt still costs time");
        assert_eq!(b.fault_stats().stale_elements, 1);
    }

    #[test]
    fn heavy_faults_never_outlive_the_budget() {
        let plan = FaultPlan { timeout: 1.0, ..FaultPlan::none() };
        let host = AppHost::new(apps::build("addressbook").unwrap());
        let mut b = Browser::with_faults(
            host,
            VirtualClock::with_budget_minutes(0.05),
            9,
            CostModel::default(),
            plan,
        );
        loop {
            if let Err(BrowseError::BudgetExhausted) = b.open_seed() {
                break;
            }
        }
        assert!(b.clock().expired());
    }

    #[test]
    fn phase_totals_partition_elapsed_time() {
        // Every clock charge lands in exactly one PhaseTotals bucket, so
        // the buckets sum to the elapsed virtual time (float-association
        // noise only). Includes redirects (login flows) and interactions.
        let mut b = browser("phpbb2", 30.0);
        let mut page = b.open_seed().unwrap();
        let origin = b.origin().clone();
        for _ in 0..20 {
            let Some(action) = page.valid_interactables(&origin).next().cloned() else { break };
            match b.execute(&action) {
                Ok(next) => page = next,
                Err(_) => break,
            }
        }
        b.charge_policy_overhead(25.0);
        let elapsed = b.clock().elapsed_ms();
        let totals = b.phase_totals();
        assert!(elapsed > 0.0);
        assert!(
            (totals.total_ms() - elapsed).abs() <= 1e-6 * elapsed,
            "phase buckets must partition elapsed time: {} vs {elapsed}",
            totals.total_ms(),
        );
        assert!(totals.render_ms > 0.0);
        assert!(totals.think_ms > 0.0);
        assert_eq!(totals.policy_ms, 25.0);
    }

    #[test]
    fn faulty_phase_totals_still_partition_and_fill_backoff() {
        let mut b = faulty_browser("addressbook", FaultPlan::uniform(0.4), 11);
        for _ in 0..40 {
            let _ = b.open_seed();
        }
        let elapsed = b.clock().elapsed_ms();
        let totals = b.phase_totals();
        assert!(b.fault_stats().retries > 0, "the plan fired");
        assert!(totals.backoff_ms > 0.0, "retry backoff is attributed");
        assert_eq!(totals.backoff_ms, b.fault_stats().backoff_ms);
        assert!(
            (totals.total_ms() - elapsed).abs() <= 1e-6 * elapsed,
            "fault waits and backoffs stay inside the partition",
        );
    }

    #[test]
    fn execute_emits_a_span_tree_when_profiling() {
        use mak_obs::sink::VecSink;
        let mut b = browser("addressbook", 30.0);
        let (handle, cell) = SinkHandle::shared(VecSink::new());
        b.set_sink(handle.with_spans());
        let page = b.open_seed().unwrap();
        let origin = b.origin().clone();
        let link = page
            .valid_interactables(&origin)
            .find(|i| matches!(i, Interactable::Link { .. }))
            .cloned()
            .unwrap();
        b.execute(&link).unwrap();

        let events = cell.lock().unwrap().events().to_vec();
        let spans: Vec<(u64, String)> = events
            .iter()
            .filter_map(|e| match e {
                Event::SpanClosed { parent, phase, .. } => Some((*parent, phase.clone())),
                _ => None,
            })
            .collect();
        let exec = spans.iter().find(|(_, p)| p == "ExecuteAction").expect("umbrella span");
        assert_eq!(exec.0, 0, "no engine around it, so ExecuteAction is a root");
        // The executed link's fetch parts nest under the umbrella; the
        // seed fetch's parts (before the umbrella opened) are roots.
        assert!(
            spans.iter().filter(|(parent, _)| *parent != 0).count() >= 3,
            "fetch leaf spans nest under ExecuteAction: {spans:?}",
        );
    }

    #[test]
    fn finish_seals_coverage() {
        let mut b = browser("actual", 30.0);
        b.open_seed().unwrap();
        let host = b.finish();
        assert!(host.tracker().is_sealed());
        assert!(host.tracker().observe_lines_covered().unwrap() > 0);
    }
}
