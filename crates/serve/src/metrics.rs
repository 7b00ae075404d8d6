//! Service-level telemetry: the [`ServiceMetrics`] facade over a
//! [`MetricsRegistry`].
//!
//! Every metric the service emits is declared here, in one place, split
//! by clock domain:
//!
//! - **Virtual** — session outcomes and admission decisions. The service
//!   folds them in a fixed order (rejections in program order inside
//!   `submit`, completions in session-id order inside `run_to_drain`),
//!   so [`ServiceMetrics::virtual_snapshot`] is bit-identical across
//!   `MAK_THREADS`, schedule disciplines, and reruns.
//! - **Wall** — drain durations, step-latency histograms, steal counts,
//!   queue depths. Schedule- and machine-dependent by nature; excluded
//!   from the deterministic snapshot.
//!
//! The fold is per-session and per-drain, never per-step: a session
//! contributes a handful of `BTreeMap` updates after running thousands
//! of virtual-clock steps, which is what keeps metrics-on throughput
//! within noise of metrics-off ([`ServiceConfig::collect_metrics`]).
//!
//! [`ServiceConfig::collect_metrics`]: crate::ServiceConfig::collect_metrics

use crate::error::SubmitError;
use crate::scheduler::StepLatencies;
use mak::framework::engine::CrawlReport;
use mak_telemetry::{Domain, MetricsRegistry, MetricsSnapshot};

/// Session-length histogram bounds, in virtual-clock steps.
const SESSION_STEP_BUCKETS: [f64; 8] =
    [10.0, 30.0, 100.0, 300.0, 1_000.0, 3_000.0, 10_000.0, 30_000.0];

/// Per-phase virtual-time histogram bounds, in virtual milliseconds per
/// completed session (budgets run from fractions of a minute in tests to
/// the paper's 30 minutes).
const PHASE_MS_BUCKETS: [f64; 7] =
    [100.0, 1_000.0, 10_000.0, 60_000.0, 300_000.0, 900_000.0, 1_800_000.0];

/// Step-latency histogram bounds, in wall-clock nanoseconds per step.
const STEP_LATENCY_BUCKETS: [f64; 10] = [
    500.0,
    1_000.0,
    2_000.0,
    5_000.0,
    10_000.0,
    20_000.0,
    50_000.0,
    100_000.0,
    1_000_000.0,
    10_000_000.0,
];

/// The service's metrics registry plus the fold methods the service
/// calls. Constructed enabled (the default) or disabled — when disabled
/// every fold is a skipped branch and snapshots are empty, which is how
/// the benchmark measures the cost of collection itself.
pub struct ServiceMetrics {
    registry: MetricsRegistry,
    enabled: bool,
}

impl ServiceMetrics {
    /// A registry with every service family declared (none when
    /// disabled: a disabled registry snapshots to nothing at all).
    pub fn new(enabled: bool) -> Self {
        let mut r = MetricsRegistry::new();
        if !enabled {
            return ServiceMetrics { registry: r, enabled };
        }
        // Virtual domain: admission and outcomes.
        r.register_counter(
            "mak_serve_sessions_submitted_total",
            Domain::Virtual,
            "Sessions admitted past the tenant ledger",
        );
        r.register_counter(
            "mak_serve_quota_rejections_total",
            Domain::Virtual,
            "Submissions refused, by tenant and SubmitError variant",
        );
        r.register_counter(
            "mak_serve_sessions_completed_total",
            Domain::Virtual,
            "Sessions drained to the end of their virtual budget",
        );
        r.register_counter(
            "mak_serve_sessions_aborted_total",
            Domain::Virtual,
            "Sessions dropped after panicking mid-step",
        );
        r.register_counter(
            "mak_serve_steps_total",
            Domain::Virtual,
            "Virtual-clock steps executed by completed sessions",
        );
        r.register_counter(
            "mak_serve_interactions_total",
            Domain::Virtual,
            "Browser interactions spent by completed sessions",
        );
        r.register_counter(
            "mak_serve_lines_covered_total",
            Domain::Virtual,
            "Final covered lines summed over completed sessions",
        );
        r.register_histogram(
            "mak_serve_session_steps",
            Domain::Virtual,
            "Virtual-clock steps per completed session",
            &SESSION_STEP_BUCKETS,
        );
        r.register_counter(
            "mak_serve_faults_injected_total",
            Domain::Virtual,
            "Faults injected into completed sessions",
        );
        r.register_counter(
            "mak_serve_fault_retries_total",
            Domain::Virtual,
            "Retries scheduled after retryable faults",
        );
        r.register_counter(
            "mak_serve_fault_recoveries_total",
            Domain::Virtual,
            "Navigations that succeeded after at least one fault",
        );
        r.register_counter(
            "mak_serve_fault_backoff_virtual_ms_total",
            Domain::Virtual,
            "Virtual milliseconds spent waiting out retry backoff",
        );
        r.register_counter(
            "mak_serve_tenant_sessions_total",
            Domain::Virtual,
            "Lifetime budget burn per tenant (admitted sessions)",
        );
        r.register_histogram(
            "mak_serve_phase_virtual_ms",
            Domain::Virtual,
            "Virtual milliseconds per leaf phase per completed session",
            &PHASE_MS_BUCKETS,
        );
        // Durability: checkpoint traffic and recovery outcomes. Write
        // and byte counts are virtual-domain — cadence boundaries are a
        // pure function of each session's step count and the slice
        // length, and the payload bytes are content-deterministic.
        r.register_counter(
            "mak_serve_checkpoint_writes_total",
            Domain::Virtual,
            "Durable session checkpoints written",
        );
        r.register_counter(
            "mak_serve_checkpoint_bytes_total",
            Domain::Virtual,
            "Payload bytes across durable checkpoint writes",
        );
        r.register_counter(
            "mak_serve_checkpoint_restores_total",
            Domain::Virtual,
            "Sessions restored from durable checkpoints",
        );
        r.register_counter(
            "mak_serve_checkpoint_corrupt_total",
            Domain::Virtual,
            "Checkpoint files quarantined as corrupt or unrebuildable",
        );
        r.register_gauge(
            "mak_serve_retry_after_steps",
            Domain::Virtual,
            "Backoff hint handed out with the latest quota rejection, per tenant",
        );
        // Wall domain: scheduler mechanics.
        r.register_counter(
            "mak_serve_drains_total",
            Domain::Wall,
            "run_to_drain calls over the service lifetime",
        );
        r.register_counter(
            "mak_serve_drain_wall_seconds_total",
            Domain::Wall,
            "Wall-clock seconds spent inside drains",
        );
        r.register_counter(
            "mak_serve_scheduler_steals_total",
            Domain::Wall,
            "Work-stealing operations between worker deques",
        );
        r.register_gauge(
            "mak_serve_queue_depth_peak",
            Domain::Wall,
            "High-water mark of observed scheduler queue depth",
        );
        r.register_histogram(
            "mak_serve_step_latency_ns",
            Domain::Wall,
            "Wall-clock nanoseconds per virtual step, weighted by steps (needs sample_latency)",
            &STEP_LATENCY_BUCKETS,
        );
        r.register_histogram(
            "mak_serve_dispatch_ns",
            Domain::Wall,
            "Wall-clock nanoseconds per scheduler dispatch — queue locks, injector \
             batching, and steals before a session runs (needs sample_latency)",
            &STEP_LATENCY_BUCKETS,
        );
        r.register_counter(
            "mak_serve_checkpoint_write_failures_total",
            Domain::Wall,
            "Checkpoint writes that failed at the filesystem layer (environmental)",
        );
        ServiceMetrics { registry: r, enabled }
    }

    /// One admitted session (called from `submit`, program order).
    pub(crate) fn record_submitted(&mut self, tenant: &str, app: &str, crawler: &str) {
        if !self.enabled {
            return;
        }
        self.registry.inc(
            "mak_serve_sessions_submitted_total",
            &[("tenant", tenant), ("app", app), ("crawler", crawler)],
            1,
        );
        self.registry.inc("mak_serve_tenant_sessions_total", &[("tenant", tenant)], 1);
    }

    /// One refused submission, labeled by the typed error's
    /// [`reason`](SubmitError::reason) slug.
    pub(crate) fn record_rejection(&mut self, tenant: &str, error: &SubmitError) {
        if !self.enabled {
            return;
        }
        self.registry.inc(
            "mak_serve_quota_rejections_total",
            &[("tenant", tenant), ("reason", error.reason())],
            1,
        );
        // Surface the machine-readable backoff hint in the exposition so
        // scrapers see the same advice the rejected caller got.
        if let SubmitError::QuotaExceeded { retry_after_steps: Some(steps), .. } = error {
            self.registry.set_gauge(
                "mak_serve_retry_after_steps",
                &[("tenant", tenant)],
                *steps as f64,
            );
        }
    }

    /// Folds one batch of checkpoint-store counter deltas. Zero deltas
    /// are skipped so a service with durability off (or idle) exposes no
    /// checkpoint series at all — existing snapshots stay byte-stable.
    pub(crate) fn record_checkpoints(&mut self, delta: crate::checkpoint::CheckpointStats) {
        if !self.enabled {
            return;
        }
        if delta.writes > 0 {
            self.registry.inc("mak_serve_checkpoint_writes_total", &[], delta.writes);
        }
        if delta.bytes > 0 {
            self.registry.inc("mak_serve_checkpoint_bytes_total", &[], delta.bytes);
        }
        if delta.restores > 0 {
            self.registry.inc("mak_serve_checkpoint_restores_total", &[], delta.restores);
        }
        if delta.corrupt_quarantined > 0 {
            self.registry.inc("mak_serve_checkpoint_corrupt_total", &[], delta.corrupt_quarantined);
        }
        if delta.write_failures > 0 {
            self.registry.inc(
                "mak_serve_checkpoint_write_failures_total",
                &[],
                delta.write_failures,
            );
        }
    }

    /// One completed session's outcome. MUST be called in session-id
    /// order: the float sums (backoff milliseconds) are only reproducible
    /// when folded in a fixed sequence.
    pub(crate) fn record_completed(&mut self, tenant: &str, steps: u64, report: &CrawlReport) {
        if !self.enabled {
            return;
        }
        let by_session = [
            ("tenant", tenant),
            ("app", report.app.as_str()),
            ("crawler", report.crawler.as_str()),
        ];
        let by_kind = [("app", report.app.as_str()), ("crawler", report.crawler.as_str())];
        self.registry.inc("mak_serve_sessions_completed_total", &by_session, 1);
        self.registry.inc("mak_serve_steps_total", &by_kind, steps);
        self.registry.inc("mak_serve_interactions_total", &by_kind, report.interactions);
        self.registry.inc("mak_serve_lines_covered_total", &by_kind, report.final_lines_covered);
        self.registry.observe("mak_serve_session_steps", &by_kind, steps as f64);
        // Leaf phases in the fixed `rows()` order — virtual-domain, so
        // the fold stays deterministic in session-id order.
        for (phase, ms) in report.phase.rows() {
            self.registry.observe(
                "mak_serve_phase_virtual_ms",
                &[
                    ("app", report.app.as_str()),
                    ("crawler", report.crawler.as_str()),
                    ("phase", phase.as_str()),
                ],
                ms,
            );
        }
        let faults = &report.faults;
        if faults.injected > 0 {
            self.registry.inc("mak_serve_faults_injected_total", &by_kind, faults.injected);
            self.registry.inc("mak_serve_fault_retries_total", &by_kind, faults.retries);
            self.registry.inc("mak_serve_fault_recoveries_total", &by_kind, faults.recoveries);
            self.registry.inc_f64(
                "mak_serve_fault_backoff_virtual_ms_total",
                &by_kind,
                faults.backoff_ms,
            );
        }
    }

    /// Sessions dropped after panicking during a drain.
    pub(crate) fn record_aborted(&mut self, count: u64) {
        if !self.enabled || count == 0 {
            return;
        }
        self.registry.inc("mak_serve_sessions_aborted_total", &[], count);
    }

    /// One drain's wall-clock telemetry: duration, steals, peak queue
    /// depth, and (when sampled) the weighted step-latency histogram.
    pub(crate) fn record_drain(
        &mut self,
        wall_secs: f64,
        steals: u64,
        queue_peak: u64,
        latencies: &StepLatencies,
    ) {
        if !self.enabled {
            return;
        }
        self.registry.inc("mak_serve_drains_total", &[], 1);
        self.registry.inc_f64("mak_serve_drain_wall_seconds_total", &[], wall_secs);
        self.registry.inc("mak_serve_scheduler_steals_total", &[], steals);
        self.registry.set_gauge_max("mak_serve_queue_depth_peak", &[], queue_peak as f64);
        for &(ns, weight) in latencies.samples() {
            self.registry.observe_n("mak_serve_step_latency_ns", &[], ns as f64, weight as u64);
        }
        for &ns in latencies.dispatch_samples() {
            self.registry.observe("mak_serve_dispatch_ns", &[], ns as f64);
        }
    }

    /// Whether folds are active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The underlying registry (counter reads in tests, custom renders).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Both domains — the operational snapshot behind `--metrics`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The virtual-time domain only: bit-identical across thread counts,
    /// schedule orders, and reruns of the same submissions.
    pub fn virtual_snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot_virtual()
    }
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        ServiceMetrics::new(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_metrics_fold_nothing() {
        let mut m = ServiceMetrics::new(false);
        m.record_submitted("t", "addressbook", "mak");
        m.record_rejection("t", &SubmitError::UnknownApp("x".into()));
        m.record_aborted(3);
        assert!(!m.is_enabled());
        assert_eq!(m.registry().counter_total("mak_serve_sessions_submitted_total"), 0.0);
        assert_eq!(m.registry().counter_total("mak_serve_quota_rejections_total"), 0.0);
    }

    #[test]
    fn rejection_reasons_label_the_counter() {
        let mut m = ServiceMetrics::default();
        m.record_rejection("t", &SubmitError::UnknownApp("x".into()));
        m.record_rejection("t", &SubmitError::UnknownCrawler("y".into()));
        m.record_rejection(
            "t",
            &SubmitError::QuotaExceeded {
                tenant: "t".into(),
                in_flight: 1,
                limit: 1,
                retry_after_steps: Some(64),
            },
        );
        let r = m.registry();
        for reason in ["unknown_app", "unknown_crawler", "quota_exceeded"] {
            assert_eq!(
                r.counter_value(
                    "mak_serve_quota_rejections_total",
                    &[("tenant", "t"), ("reason", reason)],
                ),
                1.0,
                "reason {reason}"
            );
        }
    }

    #[test]
    fn latency_samples_feed_the_wall_histogram() {
        let mut m = ServiceMetrics::default();
        let lat = StepLatencies::default();
        m.record_drain(1.5, 4, 100, &lat);
        let r = m.registry();
        assert_eq!(r.counter_value("mak_serve_drain_wall_seconds_total", &[]), 1.5);
        assert_eq!(r.counter_value("mak_serve_scheduler_steals_total", &[]), 4.0);
        assert_eq!(r.gauge_value("mak_serve_queue_depth_peak", &[]), Some(100.0));
        // The wall families never appear in the virtual snapshot.
        let virt = m.virtual_snapshot();
        assert!(virt.families.iter().all(|f| f.domain == "virtual"));
        assert!(m.snapshot().families.iter().any(|f| f.domain == "wall"));
    }
}
