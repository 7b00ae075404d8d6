//! The resumable crawl session: `run_crawl` as a `Send + Sync` state
//! machine.
//!
//! A [`Session`] is one crawl — one crawler on one freshly deployed app
//! under one budget — factored so that *the caller* owns the loop:
//! [`Session::step`] performs exactly one engine iteration (charge policy
//! overhead, one crawler decision + interaction, event emission, live
//! coverage sampling) and [`Session::finish`] seals the run into the same
//! [`CrawlReport`] the one-shot engine produces. The legacy
//! [`run_crawl`](crate::framework::engine::run_crawl) entry point is a
//! thin wrapper over this type, so the two paths cannot drift; the
//! `session_equivalence` differential suite additionally proves the
//! step-driven path byte-identical, reports and JSONL traces included.
//!
//! Sessions are `Send + Sync`: every piece of per-run state (browser,
//! clock, coverage tracker, crawler policy state, event sink) lives
//! inside the session and nothing refers to thread-local or global
//! mutable state. A scheduler may therefore interleave thousands of
//! sessions across worker threads in any order — each session remains a
//! pure function of `(app, crawler, seed, config)`, which is the
//! serving layer's per-session determinism contract (see `mak-serve`).

use crate::framework::checkpoint::{Progress, SessionCheckpoint, CHECKPOINT_VERSION};
use crate::framework::crawler::{CrawlEnd, Crawler, StepReport};
use crate::framework::engine::{CoverageSample, CrawlReport, EngineConfig, TraceEntry};
use mak_browser::client::Browser;
use mak_browser::clock::VirtualClock;
use mak_obs::event::Event;
use mak_obs::sink::SinkHandle;
use mak_obs::span::Phase;
use mak_websim::coverage::CoverageMode;
use mak_websim::server::{AppHost, WebApp};
use std::sync::Arc;

/// What [`Session::step`] reports back to the driving loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// The step ran (or was skipped because the budget expired mid-check)
    /// and the session can take further steps.
    Running,
    /// The session is over: the budget expired or the crawler is stuck.
    /// Further `step` calls are no-ops returning `Finished`; call
    /// [`Session::finish`] to obtain the report.
    Finished,
}

impl SessionStatus {
    /// `true` while the session accepts further steps.
    pub fn is_running(self) -> bool {
        matches!(self, SessionStatus::Running)
    }
}

/// How a session holds its crawler: exclusively owned (the serving path)
/// or borrowed for the duration of the run (the legacy `run_crawl` path,
/// whose signature lends the engine a `&mut dyn Crawler`).
enum CrawlerSlot<'c> {
    Owned(Box<dyn Crawler>),
    Borrowed(&'c mut dyn Crawler),
}

impl CrawlerSlot<'_> {
    fn get(&mut self) -> &mut dyn Crawler {
        match self {
            CrawlerSlot::Owned(c) => &mut **c,
            CrawlerSlot::Borrowed(c) => *c,
        }
    }

    fn get_ref(&self) -> &dyn Crawler {
        match self {
            CrawlerSlot::Owned(c) => &**c,
            CrawlerSlot::Borrowed(c) => *c,
        }
    }
}

/// One resumable crawl run. See the [module docs](self) for the contract.
///
/// # Examples
///
/// ```
/// use mak::framework::session::Session;
/// use mak::framework::engine::EngineConfig;
/// use mak::spec::build_crawler;
/// use mak_websim::apps;
///
/// let mut session = Session::new(
///     apps::build("addressbook").unwrap(),
///     build_crawler("mak", 7).unwrap(),
///     &EngineConfig::with_budget_minutes(1.0),
///     7,
/// );
/// while session.step().is_running() {}
/// let report = session.finish();
/// assert!(report.interactions > 0);
/// ```
pub struct Session<'c> {
    crawler: CrawlerSlot<'c>,
    browser: Browser,
    sink: SinkHandle,
    app_name: String,
    seed: u64,
    live: bool,
    record_trace: bool,
    sample_interval_secs: f64,
    total_declared_lines: u64,
    series: Vec<CoverageSample>,
    next_sample: f64,
    trace: Vec<TraceEntry>,
    step_index: u64,
    done: bool,
    /// The full engine configuration, kept so checkpoints are
    /// self-contained ([`Session::snapshot`] embeds it).
    config: EngineConfig,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("app", &self.app_name)
            .field("crawler", &self.crawler.get_ref().name())
            .field("seed", &self.seed)
            .field("steps", &self.step_index)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl<'c> Session<'c> {
    /// Opens a session that owns its crawler — the serving-layer entry
    /// point. Equivalent to [`run_crawl`](crate::framework::engine::run_crawl)
    /// driven one step at a time.
    pub fn new(
        app: Box<dyn WebApp>,
        crawler: Box<dyn Crawler>,
        config: &EngineConfig,
        seed: u64,
    ) -> Session<'static> {
        Session::start(
            AppHost::new(app),
            CrawlerSlot::Owned(crawler),
            config,
            seed,
            SinkHandle::none(),
        )
    }

    /// Like [`Session::new`], but deploys a *shared* application model:
    /// the session gets its own coverage tracker and server-side session
    /// store while the model stays one allocation shared with every
    /// other session crawling the same app.
    pub fn with_shared_app(
        app: Arc<dyn WebApp>,
        crawler: Box<dyn Crawler>,
        config: &EngineConfig,
        seed: u64,
    ) -> Session<'static> {
        Session::start(
            AppHost::with_shared(app),
            CrawlerSlot::Owned(crawler),
            config,
            seed,
            SinkHandle::none(),
        )
    }

    /// Like [`Session::new`] with an event sink wired through the whole
    /// stack (engine, browser, host, crawler policy) for the life of the
    /// session.
    pub fn with_sink(
        app: Box<dyn WebApp>,
        crawler: Box<dyn Crawler>,
        config: &EngineConfig,
        seed: u64,
        sink: SinkHandle,
    ) -> Session<'static> {
        Session::start(AppHost::new(app), CrawlerSlot::Owned(crawler), config, seed, sink)
    }

    /// [`Session::with_shared_app`] plus an event sink — the full
    /// serving-layer constructor (shared model, per-session stream).
    pub fn shared_with_sink(
        app: Arc<dyn WebApp>,
        crawler: Box<dyn Crawler>,
        config: &EngineConfig,
        seed: u64,
        sink: SinkHandle,
    ) -> Session<'static> {
        Session::start(AppHost::with_shared(app), CrawlerSlot::Owned(crawler), config, seed, sink)
    }

    /// Opens a session over a *borrowed* crawler — the compatibility
    /// constructor behind [`run_crawl`](crate::framework::engine::run_crawl),
    /// whose callers keep ownership of the crawler to inspect it after
    /// the run.
    pub fn borrowed(
        crawler: &'c mut dyn Crawler,
        app: Box<dyn WebApp>,
        config: &EngineConfig,
        seed: u64,
        sink: SinkHandle,
    ) -> Session<'c> {
        Session::start(AppHost::new(app), CrawlerSlot::Borrowed(crawler), config, seed, sink)
    }

    fn start(
        host: AppHost,
        mut crawler: CrawlerSlot<'c>,
        config: &EngineConfig,
        seed: u64,
        sink: SinkHandle,
    ) -> Session<'c> {
        let app_name = host.app().name().to_owned();
        let live = host.app().coverage_mode() == CoverageMode::Live;
        let total_declared_lines = host.app().code_model().total_lines();
        let clock = VirtualClock::with_budget_minutes(config.budget_minutes);
        let budget_ms = clock.budget_ms();
        let mut browser =
            Browser::with_faults(host, clock, seed, config.cost.clone(), config.faults.clone());
        browser.set_sink(sink.clone());
        crawler.get().attach_sink(sink.clone());

        sink.emit_with(|| Event::RunStarted {
            app: app_name.clone(),
            crawler: crawler.get_ref().name().to_owned(),
            seed,
            budget_ms,
        });

        let mut series = Vec::new();
        if live {
            // The t = 0 baseline is sampled *before* the first step so the
            // series starts from the pre-crawl coverage (the deployed app
            // with nothing visited yet), not from whatever the first step
            // reached.
            series
                .push(CoverageSample { secs: 0.0, lines: browser.host().harness_lines_covered() });
        }

        Session {
            crawler,
            browser,
            sink,
            app_name,
            seed,
            live,
            record_trace: config.record_trace,
            sample_interval_secs: config.sample_interval_secs,
            total_declared_lines,
            series,
            next_sample: config.sample_interval_secs,
            trace: Vec::new(),
            step_index: 0,
            done: false,
            config: config.clone(),
        }
    }

    /// Captures this session as a [`SessionCheckpoint`]: its spec, the
    /// steps taken, and where they led. Call only *between* steps (never
    /// from inside a step); a session restored from the checkpoint
    /// continues bit-identically — same report, same trace, and an event
    /// stream equal to the uninterrupted run's suffix after a
    /// `SessionResumed` marker.
    pub fn snapshot(&self) -> SessionCheckpoint {
        SessionCheckpoint {
            version: CHECKPOINT_VERSION,
            app: self.app_name.clone(),
            crawler: self.crawler_name().to_owned(),
            seed: self.seed,
            config: self.config.clone(),
            steps: self.step_index,
            done: self.done,
            progress: self.progress(),
            spans: self.sink.span_snapshot(),
        }
    }

    /// Where the session stands, read from state it already holds.
    fn progress(&self) -> Progress {
        Progress {
            elapsed_ms: self.browser.clock().elapsed_ms(),
            interactions: self.browser.interaction_count(),
            lines: self.browser.host().harness_lines_covered(),
            distinct_urls: self.crawler.get_ref().distinct_urls() as u64,
        }
    }

    /// Rebuilds a session from a checkpoint over a *shared* application
    /// model by replaying it: a fresh session, without a sink, takes the
    /// checkpoint's steps and must arrive at its recorded progress. Then
    /// `sink` is attached, a `SessionResumed` event (not `RunStarted`) is
    /// emitted, and the session continues bit-identically to the
    /// interrupted run. `crawler` must be freshly built under the
    /// checkpoint's name and seed (e.g. via
    /// [`build_crawler`](crate::spec::build_crawler)).
    ///
    /// This is [`open_replay`](Self::open_replay),
    /// [`advance_replay`](Self::advance_replay) to the target and
    /// [`resume`](Self::resume) in one call; a scheduler that wants to
    /// spread the replay over time slices makes the three calls itself.
    ///
    /// # Errors
    ///
    /// When the checkpoint's version is not [`CHECKPOINT_VERSION`], its
    /// budget or sample interval is not positive and finite, its app/crawler
    /// names do not match, the replay ends before the
    /// recorded step count, or the replay's progress differs from the
    /// recorded one. Each error names the field at fault; corrupt
    /// checkpoints produce errors, never panics.
    pub fn restore(
        app: Arc<dyn WebApp>,
        crawler: Box<dyn Crawler>,
        checkpoint: &SessionCheckpoint,
        sink: SinkHandle,
    ) -> Result<Session<'static>, serde::Error> {
        Session::replay(AppHost::with_shared(app), crawler, checkpoint, sink)
    }

    /// Owned-model variant of [`Session::restore`], for applications that
    /// are not worth sharing (tests, generated testkit apps).
    ///
    /// # Errors
    ///
    /// As for [`Session::restore`].
    pub fn restore_owned(
        app: Box<dyn WebApp>,
        crawler: Box<dyn Crawler>,
        checkpoint: &SessionCheckpoint,
        sink: SinkHandle,
    ) -> Result<Session<'static>, serde::Error> {
        Session::replay(AppHost::new(app), crawler, checkpoint, sink)
    }

    fn replay(
        host: AppHost,
        crawler: Box<dyn Crawler>,
        checkpoint: &SessionCheckpoint,
        sink: SinkHandle,
    ) -> Result<Session<'static>, serde::Error> {
        let mut session = Session::open(host, crawler, checkpoint)?;
        session.advance_replay(checkpoint, u64::MAX)?;
        session.resume(checkpoint, sink)?;
        Ok(session)
    }

    /// Opens the replay of `checkpoint` over a *shared* application model:
    /// a fresh session at step 0 with no sink. Checks only what needs no
    /// step: the checkpoint's version and config and the app and crawler
    /// names. Drive it to the checkpoint with
    /// [`advance_replay`](Self::advance_replay), then call
    /// [`resume`](Self::resume).
    ///
    /// # Errors
    ///
    /// When the version is not [`CHECKPOINT_VERSION`], the budget or sample
    /// interval is not positive and finite, or the app/crawler names do
    /// not match. Each error names the field at fault.
    pub fn open_replay(
        app: Arc<dyn WebApp>,
        crawler: Box<dyn Crawler>,
        checkpoint: &SessionCheckpoint,
    ) -> Result<Session<'static>, serde::Error> {
        Session::open(AppHost::with_shared(app), crawler, checkpoint)
    }

    fn open(
        host: AppHost,
        crawler: Box<dyn Crawler>,
        checkpoint: &SessionCheckpoint,
    ) -> Result<Session<'static>, serde::Error> {
        checkpoint.validate()?;
        if host.app().name() != checkpoint.app {
            return Err(serde::Error::custom(format!(
                "checkpoint is for app `{}`, given `{}`",
                checkpoint.app,
                host.app().name()
            )));
        }
        if crawler.name() != checkpoint.crawler {
            return Err(serde::Error::custom(format!(
                "checkpoint is for crawler `{}`, given `{}`",
                checkpoint.crawler,
                crawler.name()
            )));
        }
        Ok(Session::start(
            host,
            CrawlerSlot::Owned(crawler),
            &checkpoint.config,
            checkpoint.seed,
            SinkHandle::none(),
        ))
    }

    /// Replays at most `max_steps` more of the checkpoint's steps on a
    /// session from [`open_replay`](Self::open_replay). Returns whether
    /// the session now stands at the checkpoint's step count.
    ///
    /// # Errors
    ///
    /// When the session ends before the recorded step count; the error
    /// names `steps`.
    pub fn advance_replay(
        &mut self,
        checkpoint: &SessionCheckpoint,
        max_steps: u64,
    ) -> Result<bool, serde::Error> {
        // The budget bounds this loop: a step count past the session's end
        // stops at the end, however large it is.
        for _ in 0..checkpoint.steps.saturating_sub(self.step_index).min(max_steps) {
            if !self.step().is_running() {
                return Err(serde::Error::custom(format!(
                    "`steps`: the checkpoint records {}, but the session ends after {}",
                    checkpoint.steps, self.step_index
                )));
            }
        }
        Ok(self.step_index == checkpoint.steps)
    }

    /// Ends a replay that [`advance_replay`](Self::advance_replay) brought
    /// to the checkpoint's step count: checks `done` (a finished session
    /// takes one more step, which must find its end), then the progress
    /// record; only then attaches `sink` to the browser, host and crawler,
    /// with the span allocator seeded from the stored pair, and emits
    /// `SessionResumed`.
    ///
    /// # Errors
    ///
    /// When `done` or the progress record does not match the replay. Each
    /// error names the first field at fault; the session then has no sink.
    pub fn resume(
        &mut self,
        checkpoint: &SessionCheckpoint,
        sink: SinkHandle,
    ) -> Result<(), serde::Error> {
        debug_assert_eq!(self.step_index, checkpoint.steps, "resume before the replay's end");
        if checkpoint.done && self.step().is_running() {
            return Err(serde::Error::custom(format!(
                "`done`: the checkpoint records a session that ended after {} steps, \
                 but the replay continues",
                checkpoint.steps
            )));
        }
        checkpoint.progress.check(&self.progress())?;

        // Seed the span allocator before any clone is distributed, so the
        // browser, host, and crawler all link into the continued id space.
        let sink = match checkpoint.spans {
            Some((next_id, now_ms)) => sink.with_spans_restored(next_id, now_ms),
            None => sink,
        };
        self.browser.set_sink(sink.clone());
        self.crawler.get().attach_sink(sink.clone());
        self.sink = sink;
        self.sink.emit_with(|| Event::SessionResumed {
            app: checkpoint.app.clone(),
            crawler: checkpoint.crawler.clone(),
            seed: checkpoint.seed,
            step: checkpoint.steps,
            t_ms: self.browser.clock().elapsed_ms(),
        });
        Ok(())
    }

    /// Performs one engine iteration: charge the crawler's policy
    /// overhead, execute one decision + interaction, emit step events,
    /// and advance the live coverage series. Exactly the loop body of the
    /// one-shot engine; a session stepped to completion and
    /// [finished](Session::finish) is byte-identical to
    /// [`run_crawl`](crate::framework::engine::run_crawl).
    pub fn step(&mut self) -> SessionStatus {
        if self.done {
            return SessionStatus::Finished;
        }
        if self.browser.clock().expired() {
            self.done = true;
            return SessionStatus::Finished;
        }
        let step_start_ms = self.browser.clock().elapsed_ms();
        let step_span = self.sink.span_open(Phase::Step, step_start_ms);
        let crawler = self.crawler.get();
        let policy_ms = crawler.policy_overhead_ms(self.browser.cost_model());
        self.browser.charge_policy_overhead(policy_ms);
        self.sink.span_leaf(Phase::PolicyChoose, step_start_ms, policy_ms);
        let step_index = self.step_index;
        let t_ms = self.browser.clock().elapsed_ms();
        self.sink.emit_with(|| Event::StepStarted { step: step_index, t_ms, policy_ms });
        match crawler.step(&mut self.browser) {
            // The action label is a `Cow`: on the hot path (no sink, no
            // trace) it is never turned into a `String`, so a step with a
            // static label allocates nothing here.
            Ok(StepReport { action, reward }) => {
                if let Some(reward) = reward {
                    self.sink.emit_with(|| Event::RewardComputed {
                        step: step_index,
                        action: action.clone().into_owned(),
                        reward,
                    });
                }
                if self.sink.is_active() {
                    self.sink.emit(Event::StepFinished {
                        step: step_index,
                        t_ms: self.browser.clock().elapsed_ms(),
                        action: action.clone().into_owned(),
                        reward,
                        interactions: self.browser.interaction_count(),
                        lines: self.browser.host().harness_lines_covered(),
                        distinct_urls: self.crawler.get_ref().distinct_urls() as u64,
                    });
                }
                self.step_index += 1;
                if self.record_trace {
                    self.trace.push(TraceEntry {
                        secs: self.browser.clock().elapsed_secs(),
                        action: action.into_owned(),
                        reward,
                    });
                }
            }
            Err(CrawlEnd::BudgetExhausted) | Err(CrawlEnd::Stuck) => {
                self.done = true;
                self.sink.span_close(step_span, self.browser.clock().elapsed_ms());
                return SessionStatus::Finished;
            }
        }
        if self.live {
            let now = self.browser.clock().elapsed_secs();
            while self.next_sample <= now {
                self.series.push(CoverageSample {
                    secs: self.next_sample,
                    lines: self.browser.host().harness_lines_covered(),
                });
                self.next_sample += self.sample_interval_secs;
            }
        }
        self.sink.span_close(step_span, self.browser.clock().elapsed_ms());
        SessionStatus::Running
    }

    /// Whether the session has ended (budget expiry or a stuck crawler).
    pub fn is_finished(&self) -> bool {
        self.done
    }

    /// Steps executed so far.
    pub fn steps_taken(&self) -> u64 {
        self.step_index
    }

    /// Virtual seconds consumed so far.
    pub fn elapsed_secs(&self) -> f64 {
        self.browser.clock().elapsed_secs()
    }

    /// The seed this session runs under.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The application under crawl.
    pub fn app_name(&self) -> &str {
        &self.app_name
    }

    /// The crawler's identifier.
    pub fn crawler_name(&self) -> &str {
        self.crawler.get_ref().name()
    }

    /// Injected-fault count so far (all zeros without a fault plan).
    pub fn faults_injected(&self) -> u64 {
        self.browser.fault_stats().injected
    }

    /// Runs the session to completion.
    pub fn run(&mut self) -> &mut Self {
        while self.step().is_running() {}
        self
    }

    /// Seals the run and assembles the [`CrawlReport`] — the exact
    /// post-loop epilogue of the one-shot engine. Any remaining budget is
    /// consumed first (stepping until the session ends), so
    /// `Session::new(..).finish()` equals `run_crawl(..)`.
    pub fn finish(mut self) -> CrawlReport {
        self.run();
        let interactions = self.browser.interaction_count();
        let elapsed_secs = self.browser.clock().elapsed_secs();
        if self.live {
            // Close the series with a sample at the moment the run
            // actually ended (budget expiry or the crawler getting stuck),
            // so the curve spans the whole budget instead of stopping at
            // the last crossed interval boundary.
            let lines = self.browser.host().harness_lines_covered();
            if self.series.last().is_none_or(|s| s.secs < elapsed_secs) {
                self.series.push(CoverageSample { secs: elapsed_secs, lines });
            }
        }
        let step_index = self.step_index;
        self.sink.emit_with(|| Event::RunFinished {
            t_ms: self.browser.clock().elapsed_ms(),
            steps: step_index,
            interactions,
            lines: self.browser.host().harness_lines_covered(),
        });
        let fault_stats = self.browser.fault_stats().clone();
        let phase = *self.browser.phase_totals();
        let host = self.browser.finish();
        let tracker = host.tracker();
        let covered_lines: Vec<(u32, u32)> =
            tracker.covered_lines().into_iter().map(|(f, l)| (f.index(), l)).collect();

        CrawlReport {
            crawler: self.crawler.get_ref().name().to_owned(),
            app: self.app_name,
            seed: self.seed,
            interactions,
            final_lines_covered: tracker.lines_covered_unchecked(),
            total_declared_lines: self.total_declared_lines,
            coverage_series: self.series,
            covered_lines,
            distinct_urls: self.crawler.get_ref().distinct_urls(),
            state_count: self.crawler.get_ref().state_count(),
            elapsed_secs,
            trace: self.trace,
            faults: fault_stats,
            phase,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::engine::run_crawl;
    use crate::spec::build_crawler;
    use mak_websim::apps;
    use serde::{Deserialize as _, Serialize as _};

    fn short() -> EngineConfig {
        EngineConfig::with_budget_minutes(1.0)
    }

    #[test]
    fn sessions_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session<'static>>();
        assert_send_sync::<SessionStatus>();
    }

    #[test]
    fn stepped_session_matches_one_shot_engine() {
        let cfg = short();
        let mut session = Session::new(
            apps::build("addressbook").unwrap(),
            build_crawler("mak", 3).unwrap(),
            &cfg,
            3,
        );
        let mut steps = 0u64;
        while session.step().is_running() {
            steps += 1;
            assert_eq!(session.steps_taken(), steps);
        }
        assert!(session.is_finished());
        let stepped = session.finish();

        let mut crawler = build_crawler("mak", 3).unwrap();
        let oneshot = run_crawl(&mut *crawler, apps::build("addressbook").unwrap(), &cfg, 3);
        assert_eq!(stepped, oneshot);
    }

    #[test]
    fn finish_consumes_any_remaining_budget() {
        let cfg = short();
        let mut session = Session::new(
            apps::build("addressbook").unwrap(),
            build_crawler("bfs", 5).unwrap(),
            &cfg,
            5,
        );
        // Take only a handful of steps, then finish: the epilogue must
        // first run the session to its end, matching the one-shot path.
        for _ in 0..5 {
            assert!(session.step().is_running());
        }
        let early_finished = session.finish();
        let mut crawler = build_crawler("bfs", 5).unwrap();
        let oneshot = run_crawl(&mut *crawler, apps::build("addressbook").unwrap(), &cfg, 5);
        assert_eq!(early_finished, oneshot);
    }

    #[test]
    fn step_after_end_is_an_idempotent_no_op() {
        let cfg = EngineConfig::with_budget_minutes(0.25);
        let mut session = Session::new(
            apps::build("vanilla").unwrap(),
            build_crawler("random", 2).unwrap(),
            &cfg,
            2,
        );
        session.run();
        let steps = session.steps_taken();
        for _ in 0..3 {
            assert_eq!(session.step(), SessionStatus::Finished);
        }
        assert_eq!(session.steps_taken(), steps);
    }

    #[test]
    fn snapshot_restore_continues_bit_identically_for_every_crawler() {
        // The durability contract at its core: snapshot mid-run, rebuild
        // from the serialized checkpoint, and the restored session's final
        // report is byte-identical to never having stopped. Exercised for
        // all six registry crawlers plus the ensemble extension, with
        // traces recorded so per-step actions and rewards are compared too.
        let mut cfg = EngineConfig::with_budget_minutes(1.0);
        cfg.record_trace = true;
        for crawler in ["mak", "webexplor", "qexplore", "bfs", "dfs", "random", "mak-ensemble2"] {
            let seed = 11;
            let app = apps::build_shared("phpbb2").unwrap();
            let uninterrupted = Session::with_shared_app(
                app.clone(),
                build_crawler(crawler, seed).unwrap(),
                &cfg,
                seed,
            )
            .finish();

            let mut session = Session::with_shared_app(
                app.clone(),
                build_crawler(crawler, seed).unwrap(),
                &cfg,
                seed,
            );
            for _ in 0..7 {
                assert!(session.step().is_running(), "{crawler} ended too early");
            }
            let checkpoint = session.snapshot();
            drop(session);

            // Round-trip through JSON: what the serving layer writes to
            // disk is what a restore actually sees.
            let json = serde_json::to_string(&checkpoint.to_value()).unwrap();
            let back = SessionCheckpoint::from_value(&serde_json::from_str(&json).unwrap())
                .unwrap_or_else(|e| panic!("{crawler}: {e}"));
            assert_eq!(back, checkpoint, "{crawler} checkpoint JSON round-trip");

            let restored = Session::restore(
                app,
                build_crawler(crawler, seed).unwrap(),
                &back,
                SinkHandle::none(),
            )
            .unwrap_or_else(|e| panic!("{crawler}: {e}"));
            assert_eq!(restored.steps_taken(), 7);
            assert_eq!(restored.finish(), uninterrupted, "{crawler} diverged after restore");
        }
    }

    #[test]
    fn snapshot_restore_is_bit_identical_under_heavy_faults() {
        let mut cfg = EngineConfig::with_budget_minutes(1.0);
        cfg.record_trace = true;
        cfg.faults = mak_browser::fault::FaultPlan::profile("heavy").unwrap();
        for crawler in ["mak", "qexplore"] {
            let seed = 23;
            let app = apps::build_shared("oscommerce2").unwrap();
            let uninterrupted = Session::with_shared_app(
                app.clone(),
                build_crawler(crawler, seed).unwrap(),
                &cfg,
                seed,
            )
            .finish();
            let mut session = Session::with_shared_app(
                app.clone(),
                build_crawler(crawler, seed).unwrap(),
                &cfg,
                seed,
            );
            for _ in 0..9 {
                assert!(session.step().is_running());
            }
            let checkpoint = session.snapshot();
            let restored = Session::restore(
                app,
                build_crawler(crawler, seed).unwrap(),
                &checkpoint,
                SinkHandle::none(),
            )
            .unwrap();
            assert_eq!(restored.finish(), uninterrupted, "{crawler} under heavy faults");
        }
    }

    #[test]
    fn a_finished_session_restores_finished() {
        let cfg = EngineConfig::with_budget_minutes(0.25);
        let app = apps::build_shared("vanilla").unwrap();
        let mut session =
            Session::with_shared_app(app.clone(), build_crawler("random", 2).unwrap(), &cfg, 2);
        session.run();
        let checkpoint = session.snapshot();
        assert!(checkpoint.done);
        let uninterrupted = session.finish();
        let restored = Session::restore(
            app,
            build_crawler("random", 2).unwrap(),
            &checkpoint,
            SinkHandle::none(),
        )
        .unwrap();
        assert!(restored.is_finished());
        assert_eq!(restored.finish(), uninterrupted);
    }

    #[test]
    fn restore_refuses_mismatched_identity() {
        let cfg = short();
        let mut session = Session::new(
            apps::build("addressbook").unwrap(),
            build_crawler("mak", 3).unwrap(),
            &cfg,
            3,
        );
        session.step();
        let checkpoint = session.snapshot();
        let wrong_app = Session::restore(
            apps::build_shared("vanilla").unwrap(),
            build_crawler("mak", 3).unwrap(),
            &checkpoint,
            SinkHandle::none(),
        );
        assert!(wrong_app.is_err(), "app name mismatch must be rejected");
        let wrong_crawler = Session::restore(
            apps::build_shared("addressbook").unwrap(),
            build_crawler("bfs", 3).unwrap(),
            &checkpoint,
            SinkHandle::none(),
        );
        assert!(wrong_crawler.is_err(), "crawler name mismatch must be rejected");
    }

    #[test]
    fn shared_app_sessions_match_owned_ones() {
        let cfg = short();
        let shared = apps::build_shared("phpbb2").unwrap();
        let a = Session::with_shared_app(shared.clone(), build_crawler("mak", 9).unwrap(), &cfg, 9)
            .finish();
        let b =
            Session::with_shared_app(shared, build_crawler("mak", 9).unwrap(), &cfg, 9).finish();
        let mut crawler = build_crawler("mak", 9).unwrap();
        let owned = run_crawl(&mut *crawler, apps::build("phpbb2").unwrap(), &cfg, 9);
        assert_eq!(a, owned, "shared-model session equals owned-model run");
        assert_eq!(a, b, "two sessions over one shared model do not interfere");
    }
}
