//! The crawl service: admission, shared app models, and the drain loop.
//!
//! A [`CrawlService`] is a long-running, in-process session multiplexer.
//! [`submit`](CrawlService::submit) admits a [`SessionSpec`] against the
//! tenant ledger (typed [`SubmitError`] backpressure, never a panic),
//! instantiates the session immediately — so "in flight" means a live
//! [`Session`] state machine holding its browser, clock, and policy
//! state — and parks it on the scheduler's injector.
//! [`run_to_drain`](CrawlService::run_to_drain) spins up the worker pool
//! and runs every in-flight session to the end of its virtual budget,
//! returning [`CompletedSession`]s in submission order.
//!
//! App models are shared: the first submission naming an app builds it
//! once via [`apps::build_shared`] and every later session for that app
//! clones the `Arc`. One hundred thousand in-flight PhpBB2 crawls hold
//! one PhpBB2 model.

use crate::checkpoint::{CheckpointStats, CheckpointStore, LoadOutcome, StoredSession};
use crate::error::SubmitError;
use crate::metrics::ServiceMetrics;
use crate::scheduler::{
    self, Checkpoint, CheckpointHook, DrainConfig, ScheduleOrder, SessionTask, StepLatencies,
};
use crate::tenant::{TenantLedger, TenantQuota};
use mak::framework::engine::{CrawlReport, EngineConfig};
use mak::framework::session::Session;
use mak::spec::build_crawler;
use mak_obs::sink::{SinkHandle, VecSink};
use mak_websim::apps;
use mak_websim::server::WebApp;
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// Service-assigned session identifier, unique for the service lifetime
/// and monotone in submission order.
pub type SessionId = u64;

/// Knobs for a [`CrawlService`]. `Default` reads the same environment
/// the bench harness uses (`MAK_THREADS`), so a service dropped into a
/// bench or CI job behaves like the rest of the workspace.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads for the drain loop (minimum 1).
    pub threads: usize,
    /// Virtual-clock steps one session runs per scheduling quantum.
    /// Larger slices amortize queue traffic; smaller slices interleave
    /// sessions more finely. Outcomes are identical either way.
    pub steps_per_slice: usize,
    /// Quota applied to tenants without an explicit
    /// [`set_quota`](CrawlService::set_quota).
    pub default_quota: TenantQuota,
    /// Queue discipline — an adversarial-testing knob; see
    /// [`ScheduleOrder`].
    pub order: ScheduleOrder,
    /// Record wall-clock per-step latency samples during drains (the
    /// benchmark's serve workloads turn this on; it costs two `Instant`
    /// reads per slice).
    pub sample_latency: bool,
    /// Record a throughput [`Checkpoint`] every N session completions
    /// during drains (0 = off) — the benchmark's drain-rate feed.
    pub checkpoint_every: u64,
    /// Fold session outcomes into the service's [`ServiceMetrics`]
    /// registry. On by default; the benchmark turns it off to measure the
    /// cost of collection itself.
    pub collect_metrics: bool,
    /// Directory for durable session checkpoints (`None` = durability
    /// off). When set, sessions checkpoint every
    /// [`checkpoint_every_steps`](Self::checkpoint_every_steps) steps
    /// and on [`drain`](CrawlService::drain), and
    /// [`recover`](CrawlService::recover) re-admits parked sessions
    /// after a restart or crash.
    pub checkpoint_dir: Option<PathBuf>,
    /// Mid-run checkpoint cadence in virtual-clock steps (0 = only on
    /// explicit drain/eviction, never mid-run). Rounded up to slice
    /// boundaries: between steps is the only sound snapshot point.
    pub checkpoint_every_steps: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let threads = std::env::var("MAK_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4));
        ServiceConfig {
            threads,
            steps_per_slice: 64,
            default_quota: TenantQuota::default(),
            order: ScheduleOrder::RoundRobin,
            sample_latency: false,
            checkpoint_every: 0,
            collect_metrics: true,
            checkpoint_dir: None,
            checkpoint_every_steps: 256,
        }
    }
}

/// One session submission: who wants it, what to crawl, and how.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The submitting tenant (quota accounting key).
    pub tenant: String,
    /// Application name, resolved through [`apps::build_shared`].
    pub app: String,
    /// Crawler name, resolved through [`build_crawler`].
    pub crawler: String,
    /// The session's RNG seed.
    pub seed: u64,
    /// Engine configuration (budget, cost model, fault plan, …).
    pub config: EngineConfig,
    /// Capture the session's event stream and return it as JSONL bytes
    /// on completion.
    pub record_events: bool,
    /// Also open hierarchical phase spans on the session's sink, so the
    /// captured stream carries `SpanClosed` events (Perfetto export,
    /// per-phase flight sections). Implies event capture: span records
    /// ride the same stream.
    pub record_spans: bool,
}

impl SessionSpec {
    /// A spec with the default [`EngineConfig`] and no event capture.
    pub fn new(
        tenant: impl Into<String>,
        app: impl Into<String>,
        crawler: impl Into<String>,
        seed: u64,
    ) -> Self {
        SessionSpec {
            tenant: tenant.into(),
            app: app.into(),
            crawler: crawler.into(),
            seed,
            config: EngineConfig::default(),
            record_events: false,
            record_spans: false,
        }
    }

    /// Replaces the engine configuration.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Requests the session's JSONL event stream alongside its report.
    pub fn record_events(mut self, record: bool) -> Self {
        self.record_events = record;
        self
    }

    /// Requests phase spans in the recorded stream (implies
    /// [`record_events`](Self::record_events)).
    pub fn record_spans(mut self, record: bool) -> Self {
        self.record_spans = record;
        self
    }
}

/// A drained session: its report plus service-side metadata.
#[derive(Debug)]
pub struct CompletedSession {
    /// The id [`submit`](CrawlService::submit) returned for this session.
    pub id: SessionId,
    /// The tenant that submitted it.
    pub tenant: String,
    /// The sealed crawl report — byte-identical to a standalone
    /// `run_crawl` of the same `(app, crawler, seed, config)`.
    pub report: CrawlReport,
    /// The session's event stream as JSONL bytes, when the spec asked
    /// for it — byte-identical to a standalone run writing through
    /// `JsonlSink`.
    pub events_jsonl: Option<Vec<u8>>,
    /// Virtual-clock steps the session ran.
    pub steps: u64,
    /// Scheduling quanta the session consumed.
    pub slices: u64,
}

/// The in-process crawl service. See the [module docs](self).
pub struct CrawlService {
    config: ServiceConfig,
    ledger: TenantLedger,
    /// App-model cache: one shared model per app name, built lazily on
    /// first submission. `BTreeMap` for deterministic iteration.
    models: BTreeMap<String, Arc<dyn WebApp>>,
    pending: Vec<SessionTask>,
    next_id: SessionId,
    aborted_total: u64,
    last_latencies: StepLatencies,
    last_checkpoints: Vec<Checkpoint>,
    metrics: ServiceMetrics,
    /// Durable checkpoint store (present iff `checkpoint_dir` is set).
    store: Option<Arc<CheckpointStore>>,
    /// Store counters already folded into `metrics` — the fold is by
    /// delta so counters stay monotone across drains and recoveries.
    folded_ckpt: CheckpointStats,
}

impl CrawlService {
    /// An empty service; no worker threads run until a drain.
    ///
    /// # Panics
    ///
    /// Panics if [`ServiceConfig::checkpoint_dir`] is set but cannot be
    /// created — silently running without durability would betray the
    /// operator who asked for it.
    pub fn new(config: ServiceConfig) -> Self {
        let ledger = TenantLedger::new(config.default_quota);
        let metrics = ServiceMetrics::new(config.collect_metrics);
        let store = config.checkpoint_dir.as_ref().map(|dir| {
            Arc::new(
                CheckpointStore::open(dir)
                    .unwrap_or_else(|e| panic!("checkpoint dir {}: {e}", dir.display())),
            )
        });
        CrawlService {
            config,
            ledger,
            models: BTreeMap::new(),
            pending: Vec::new(),
            next_id: 0,
            aborted_total: 0,
            last_latencies: StepLatencies::default(),
            last_checkpoints: Vec::new(),
            metrics,
            store,
            folded_ckpt: CheckpointStats::default(),
        }
    }

    /// Pins an explicit quota for `tenant`.
    pub fn set_quota(&mut self, tenant: &str, quota: TenantQuota) {
        self.ledger.set_quota(tenant, quota);
    }

    /// Admits and instantiates one session, returning its id.
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownApp`] / [`SubmitError::UnknownCrawler`] for
    /// names outside the registries (checked *before* quota, so a typo
    /// does not burn budget); [`SubmitError::QuotaExceeded`] /
    /// [`SubmitError::BudgetExhausted`] from the tenant ledger.
    pub fn submit(&mut self, spec: SessionSpec) -> Result<SessionId, SubmitError> {
        let (tenant, app, crawler) = (spec.tenant.clone(), spec.app.clone(), spec.crawler.clone());
        match self.admit(spec) {
            Ok(id) => {
                self.metrics.record_submitted(&tenant, &app, &crawler);
                Ok(id)
            }
            Err(err) => {
                self.metrics.record_rejection(&tenant, &err);
                Err(err)
            }
        }
    }

    fn admit(&mut self, spec: SessionSpec) -> Result<SessionId, SubmitError> {
        let model = match self.models.get(&spec.app) {
            Some(model) => model.clone(),
            None => {
                let model = apps::build_shared(&spec.app)
                    .ok_or_else(|| SubmitError::UnknownApp(spec.app.clone()))?;
                self.models.insert(spec.app.clone(), model.clone());
                model
            }
        };
        let crawler = build_crawler(&spec.crawler, spec.seed)
            .ok_or_else(|| SubmitError::UnknownCrawler(spec.crawler.clone()))?;
        let slice = self.config.steps_per_slice as u64;
        self.ledger.admit(&spec.tenant).map_err(|err| match err {
            // The ledger leaves the backoff hint blank; the service knows
            // its slice length — the soonest a neighbor can finish and
            // free a slot.
            SubmitError::QuotaExceeded { tenant, in_flight, limit, .. } => {
                SubmitError::QuotaExceeded {
                    tenant,
                    in_flight,
                    limit,
                    retry_after_steps: Some(slice),
                }
            }
            other => other,
        })?;

        let (sink, events) = if spec.record_events || spec.record_spans {
            let (handle, cell) = SinkHandle::shared(VecSink::new());
            let handle = if spec.record_spans { handle.with_spans() } else { handle };
            (handle, Some(cell))
        } else {
            (SinkHandle::none(), None)
        };
        let session = Session::shared_with_sink(model, crawler, &spec.config, spec.seed, sink);
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push(SessionTask {
            id,
            tenant: spec.tenant,
            session,
            events,
            record_events: spec.record_events,
            record_spans: spec.record_spans,
            slices: 0,
            last_ckpt_steps: 0,
        });
        // Admission-time checkpoint: a durable service records the
        // session *before* its first step, so a hard crash loses nothing
        // — a session killed inside its first cadence window simply
        // replays from step zero, bit-identically. Best-effort like the
        // cadence writes: a transient failure is counted, not fatal.
        if let Some(store) = &self.store {
            let _ = store.save(&self.pending.last().expect("just pushed").to_stored());
        }
        Ok(id)
    }

    /// Sessions currently in flight (admitted, not yet drained).
    pub fn in_flight(&self) -> usize {
        self.ledger.total_in_flight()
    }

    /// Sessions currently in flight for one tenant.
    pub fn tenant_in_flight(&self, tenant: &str) -> usize {
        self.ledger.in_flight(tenant)
    }

    /// Sessions aborted (panicked mid-step) over the service lifetime.
    /// Stays zero for in-tree crawlers; the benchmark counts any as a
    /// failure.
    pub fn aborted(&self) -> u64 {
        self.aborted_total
    }

    /// Latency samples from the most recent drain (empty unless
    /// [`ServiceConfig::sample_latency`] is set).
    pub fn last_latencies(&self) -> &StepLatencies {
        &self.last_latencies
    }

    /// Throughput checkpoints from the most recent drain (empty unless
    /// [`ServiceConfig::checkpoint_every`] is set). Wall-clock domain.
    pub fn last_checkpoints(&self) -> &[Checkpoint] {
        &self.last_checkpoints
    }

    /// The service's metrics: counters fold on every submit and drain
    /// (unless [`ServiceConfig::collect_metrics`] is off). The
    /// virtual-domain snapshot is deterministic; see [`ServiceMetrics`].
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Runs every in-flight session to the end of its virtual budget on
    /// the worker pool, releases their quota slots, folds outcomes into
    /// the metrics registry (in session-id order, so virtual-domain
    /// snapshots stay deterministic), and returns the completed sessions
    /// in submission (id) order.
    pub fn run_to_drain(&mut self) -> Vec<CompletedSession> {
        self.run_scheduler(None)
    }

    /// Like [`run_to_drain`](Self::run_to_drain), but stops dispatching
    /// once roughly `max_steps` virtual-clock steps have run across all
    /// sessions (each worker may overshoot by at most one slice).
    /// Sessions still mid-budget stay in flight — pending, quota held —
    /// and a later run continues them. This is the crash-simulation and
    /// incremental-drain mode; outcomes of sessions that do complete are
    /// identical to an unbounded drain.
    pub fn run_for_steps(&mut self, max_steps: u64) -> Vec<CompletedSession> {
        self.run_scheduler(Some(max_steps))
    }

    fn run_scheduler(&mut self, step_limit: Option<u64>) -> Vec<CompletedSession> {
        let tasks = std::mem::take(&mut self.pending);
        let durable = self.store.as_ref().map(|store| CheckpointHook {
            store: store.clone(),
            every_steps: self.config.checkpoint_every_steps,
        });
        let mut outcome = scheduler::drain(
            tasks,
            DrainConfig {
                threads: self.config.threads,
                steps_per_slice: self.config.steps_per_slice,
                order: self.config.order,
                sample_latency: self.config.sample_latency,
                checkpoint_every: self.config.checkpoint_every,
                durable,
                step_limit,
            },
        );
        // Survivors of a bounded run stay in flight, in id order so the
        // next run's injector sees a deterministic queue.
        outcome.unfinished.sort_unstable_by_key(|t| t.id);
        self.pending = std::mem::take(&mut outcome.unfinished);
        self.aborted_total += outcome.aborted;
        self.metrics.record_aborted(outcome.aborted);
        self.metrics.record_drain(
            outcome.wall_secs,
            outcome.steals,
            outcome.queue_peak,
            &outcome.latencies,
        );
        self.last_latencies = outcome.latencies;
        self.last_checkpoints = outcome.checkpoints;
        // Id order before folding: completion order is schedule-dependent,
        // the fold must not be.
        outcome.finished.sort_unstable_by_key(|t| t.id);
        let done: Vec<CompletedSession> = outcome
            .finished
            .into_iter()
            .map(|t| {
                self.ledger.release(&t.tenant);
                self.metrics.record_completed(&t.tenant, t.steps, &t.report);
                CompletedSession {
                    id: t.id,
                    tenant: t.tenant,
                    report: t.report,
                    events_jsonl: t.events_jsonl,
                    steps: t.steps,
                    slices: t.slices,
                }
            })
            .collect();
        self.fold_checkpoint_stats();
        done
    }

    /// Folds the checkpoint store's counter deltas into the metrics
    /// registry. Safe to call repeatedly; each delta folds once.
    fn fold_checkpoint_stats(&mut self) {
        let Some(store) = &self.store else { return };
        let now = store.stats();
        let prev = std::mem::replace(&mut self.folded_ckpt, now);
        self.metrics.record_checkpoints(CheckpointStats {
            writes: now.writes - prev.writes,
            bytes: now.bytes - prev.bytes,
            restores: now.restores - prev.restores,
            corrupt_quarantined: now.corrupt_quarantined - prev.corrupt_quarantined,
            write_failures: now.write_failures - prev.write_failures,
        });
    }

    /// Checkpoints and parks every in-flight session: each one's spec and
    /// step count go durably to the checkpoint directory, its quota slot
    /// is released, and the service's pending queue empties.
    /// The graceful half of crash recovery — a later
    /// [`recover`](Self::recover) (same process or the next one) picks
    /// the sessions back up bit-identically.
    ///
    /// Returns the number of sessions parked.
    ///
    /// # Errors
    ///
    /// Fails if no [`checkpoint_dir`](ServiceConfig::checkpoint_dir) is
    /// configured, or on filesystem failures — in which case
    /// already-parked sessions are on disk and the failing session (plus
    /// the rest) remain in flight, so nothing is lost either way.
    pub fn drain(&mut self) -> io::Result<u64> {
        let Some(store) = self.store.clone() else {
            return Err(io::Error::other("drain requires ServiceConfig::checkpoint_dir"));
        };
        let mut parked = 0usize;
        let result: io::Result<()> = self.pending.iter().try_for_each(|task| {
            store.save(&task.to_stored())?;
            parked += 1;
            Ok(())
        });
        // The successfully parked prefix leaves the service either way;
        // on error the failing session and everything after it stay in
        // flight, still runnable.
        for task in self.pending.drain(..parked) {
            self.ledger.release(&task.tenant);
        }
        self.fold_checkpoint_stats();
        result.map(|()| parked as u64)
    }

    /// Re-admits every parked session from the checkpoint directory:
    /// each checkpoint is CRC-verified (corrupt files are quarantined
    /// and counted, never trusted, never fatal), its tenant re-admitted
    /// under the *current* quota (rejections leave the checkpoint on
    /// disk for a later attempt), and the session rebuilt by replaying
    /// its recorded steps, which must arrive at its recorded progress
    /// (a replay that does not is quarantined) — its remaining run is
    /// bit-identical to never having stopped.
    ///
    /// # Errors
    ///
    /// Fails if no [`checkpoint_dir`](ServiceConfig::checkpoint_dir) is
    /// configured, or on directory-listing/file-read failures.
    pub fn recover(&mut self) -> io::Result<RecoveryReport> {
        let Some(store) = self.store.clone() else {
            return Err(io::Error::other("recover requires ServiceConfig::checkpoint_dir"));
        };
        let mut report = RecoveryReport::default();
        // A restored session's file stays on disk until its next cadence
        // write or completion (small crash window beats a durability
        // gap), so a repeat recover() must skip what is already live.
        let live: std::collections::BTreeSet<SessionId> =
            self.pending.iter().map(|t| t.id).collect();
        for outcome in store.load_all()? {
            let stored = match outcome {
                LoadOutcome::Loaded(stored) if live.contains(&stored.id) => continue,
                LoadOutcome::Loaded(stored) => *stored,
                LoadOutcome::Quarantined { file, reason } => {
                    report.corrupt_quarantined += 1;
                    report.quarantined.push((file, reason));
                    continue;
                }
            };
            match self.readmit(stored) {
                Ok(id) => {
                    store.note_restored();
                    report.restored += 1;
                    self.next_id = self.next_id.max(id + 1);
                }
                Err(ReadmitError::Rejected(id, err)) => report.rejected.push((id, err)),
                Err(ReadmitError::Invalid(id, reason)) => {
                    // CRC-clean but semantically unusable (e.g. an app
                    // model that left the registry): quarantine like any
                    // other corruption.
                    store.quarantine(id, &reason);
                    report.corrupt_quarantined += 1;
                    report.quarantined.push((format!("session {id}"), reason));
                }
            }
        }
        self.fold_checkpoint_stats();
        Ok(report)
    }

    fn readmit(&mut self, stored: StoredSession) -> Result<SessionId, ReadmitError> {
        let id = stored.id;
        let checkpoint = &stored.checkpoint;
        let model = match self.models.get(&checkpoint.app) {
            Some(model) => model.clone(),
            None => match apps::build_shared(&checkpoint.app) {
                Some(model) => {
                    self.models.insert(checkpoint.app.clone(), model.clone());
                    model
                }
                None => {
                    let reason = format!("unknown app `{}`", checkpoint.app);
                    return Err(ReadmitError::Invalid(id, reason));
                }
            },
        };
        let Some(crawler) = build_crawler(&checkpoint.crawler, checkpoint.seed) else {
            let reason = format!("unknown crawler `{}`", checkpoint.crawler);
            return Err(ReadmitError::Invalid(id, reason));
        };
        if let Err(err) = self.ledger.admit(&stored.tenant) {
            return Err(ReadmitError::Rejected(id, err));
        }
        let (sink, events) = if stored.record_events || stored.record_spans {
            // A fresh buffer: the recovered stream opens with
            // `SessionResumed` and carries exactly the uninterrupted
            // run's suffix from there.
            let (handle, cell) = SinkHandle::shared(VecSink::new());
            (handle, Some(cell))
        } else {
            (SinkHandle::none(), None)
        };
        // The replay runs here, on the recovering thread; DESIGN.md §15
        // weighs this against replaying in each session's first slice.
        let session = match Session::restore(model, crawler, checkpoint, sink) {
            Ok(session) => session,
            Err(err) => {
                self.ledger.release(&stored.tenant);
                return Err(ReadmitError::Invalid(id, err.to_string()));
            }
        };
        self.pending.push(SessionTask {
            id,
            tenant: stored.tenant,
            last_ckpt_steps: session.steps_taken(),
            session,
            events,
            record_events: stored.record_events,
            record_spans: stored.record_spans,
            slices: 0,
        });
        Ok(id)
    }
}

enum ReadmitError {
    /// The tenant's current quota refused the session; the checkpoint
    /// stays on disk.
    Rejected(SessionId, SubmitError),
    /// The checkpoint verified but cannot be rebuilt; quarantined.
    Invalid(SessionId, String),
}

/// What [`CrawlService::recover`] found on disk.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Sessions restored and re-admitted.
    pub restored: u64,
    /// Files quarantined (CRC/header/payload corruption, or verified
    /// checkpoints that no longer rebuild).
    pub corrupt_quarantined: u64,
    /// `(file or session, reason)` per quarantined entry.
    pub quarantined: Vec<(String, String)>,
    /// Sessions whose tenants' current quotas refused re-admission;
    /// their checkpoints remain on disk.
    pub rejected: Vec<(SessionId, SubmitError)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> SessionSpec {
        SessionSpec::new("t", "addressbook", "random", seed)
            .config(EngineConfig::with_budget_minutes(0.25))
    }

    #[test]
    fn unknown_names_are_typed_errors_and_cost_no_quota() {
        let mut service = CrawlService::new(ServiceConfig::default());
        service.set_quota("t", TenantQuota { max_concurrent: 8, max_total: Some(1) });
        let mut bad_app = quick(1);
        bad_app.app = "geocities".into();
        assert!(matches!(service.submit(bad_app), Err(SubmitError::UnknownApp(_))));
        let mut bad_crawler = quick(1);
        bad_crawler.crawler = "googlebot".into();
        assert!(matches!(service.submit(bad_crawler), Err(SubmitError::UnknownCrawler(_))));
        // Budget of one is still intact after the two rejections.
        service.submit(quick(1)).unwrap();
    }

    #[test]
    fn drain_returns_submission_order_and_zeroes_in_flight() {
        let mut service = CrawlService::new(ServiceConfig::default());
        let ids: Vec<_> = (0..6).map(|s| service.submit(quick(s)).unwrap()).collect();
        assert_eq!(service.in_flight(), 6);
        let done = service.run_to_drain();
        assert_eq!(done.iter().map(|c| c.id).collect::<Vec<_>>(), ids);
        assert_eq!(service.in_flight(), 0);
        assert_eq!(service.aborted(), 0);
        for c in &done {
            assert!(c.report.interactions > 0);
            assert!(c.slices > 0);
        }
    }

    #[test]
    fn one_model_allocation_serves_every_session_of_an_app() {
        let mut service = CrawlService::new(ServiceConfig::default());
        for seed in 0..3 {
            service.submit(quick(seed)).unwrap();
        }
        let model = service.models.get("addressbook").unwrap();
        // 3 sessions (one AppHost each) + the registry's own handle.
        assert_eq!(Arc::strong_count(model), 4);
    }
}
