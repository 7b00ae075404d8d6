//! Per-phase share gating: the schema of `results/BENCH_perf.json` and
//! the blessed per-phase share ceilings the `regress` binary holds it to
//! (`results/phase_gate.json`).
//!
//! The crawl engine attributes every virtual-clock charge to one leaf
//! phase (`mak_obs::span::PhaseTotals`), and the `perf` binary folds the
//! per-cell breakdowns into per-app totals. This gate pins each app's
//! per-phase *share* of virtual time: a cost-model edit that silently
//! doubles policy overhead, or a retry loop that starts burning the
//! budget in backoff, moves a share past its blessed ceiling and fails
//! `regress` — even when coverage happens to survive. Shares are
//! virtual-domain and therefore deterministic, so the headroom
//! ([`REL_HEADROOM`] / [`ABS_SLACK`]) guards against intentional
//! calibration drift, not machine noise. Bless after such a change:
//!
//! ```text
//! cargo run --release -p mak-bench --bin perf      # writes BENCH_perf.json
//! cargo run --release -p mak-bench --bin regress -- --bless
//! ```

use mak_obs::span::{Phase, PhaseTotals};
use serde::{Deserialize, Serialize};

/// The `results/BENCH_perf.json` document: written by the `perf` binary,
/// read back by `regress`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfPhaseView {
    /// Virtual budget per run, minutes.
    pub budget_minutes: f64,
    /// Seeds per (app, crawler) pair.
    pub seeds: u64,
    /// Per-app phase totals summed over the matrix.
    pub phase_by_app: Vec<AppPhases>,
}

/// One app's phase breakdown, as written by the `perf` binary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppPhases {
    /// Application identifier.
    pub app: String,
    /// Virtual-time totals summed over every crawler and seed.
    pub phase: PhaseTotals,
}

/// Multiplicative headroom applied to each measured share when blessing.
pub const REL_HEADROOM: f64 = 1.25;

/// Absolute slack added on top, so near-zero shares (backoff without a
/// fault plan) don't bless a zero ceiling that any future epsilon trips.
pub const ABS_SLACK: f64 = 0.02;

/// Blessed per-app, per-phase share ceilings (`results/phase_gate.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseGate {
    /// The workload the ceilings were blessed under — a differently-sized
    /// run refuses to compare instead of reporting phantom drift.
    pub blessed_seeds: u64,
    /// Virtual budget per run the ceilings were blessed under.
    pub blessed_budget_minutes: f64,
    /// One ceiling row per app, sorted by app name.
    pub apps: Vec<AppPhaseCeilings>,
}

/// Per-phase share ceilings for one app, in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppPhaseCeilings {
    /// Application identifier.
    pub app: String,
    /// Ceiling on the `PolicyChoose` share of virtual time.
    pub policy: f64,
    /// Ceiling on the `Render` share.
    pub render: f64,
    /// Ceiling on the `Think` share.
    pub think: f64,
    /// Ceiling on the `ExtractInteractables` share.
    pub extract: f64,
    /// Ceiling on the `Backoff` share.
    pub backoff: f64,
}

/// `min(1, share * headroom + slack)` — the blessed ceiling for one
/// measured share.
fn ceiling(share: f64) -> f64 {
    (share * REL_HEADROOM + ABS_SLACK).min(1.0)
}

impl PhaseGate {
    /// Derives blessed ceilings from one measured perf report.
    pub fn bless(view: &PerfPhaseView) -> Self {
        let mut apps: Vec<AppPhaseCeilings> = view
            .phase_by_app
            .iter()
            .map(|row| AppPhaseCeilings {
                app: row.app.clone(),
                policy: ceiling(row.phase.share(Phase::PolicyChoose)),
                render: ceiling(row.phase.share(Phase::Render)),
                think: ceiling(row.phase.share(Phase::Think)),
                extract: ceiling(row.phase.share(Phase::ExtractInteractables)),
                backoff: ceiling(row.phase.share(Phase::Backoff)),
            })
            .collect();
        apps.sort_by(|a, b| a.app.cmp(&b.app));
        PhaseGate { blessed_seeds: view.seeds, blessed_budget_minutes: view.budget_minutes, apps }
    }

    /// Gates `view` against the blessed ceilings. Returns one finding per
    /// violated ceiling (empty = pass). Apps present in the report but
    /// never blessed pass with no finding — bless picks them up; blessed
    /// apps missing from the report fire, since a silently dropped app is
    /// exactly the kind of drift the gate exists to catch.
    pub fn check(&self, view: &PerfPhaseView) -> Vec<String> {
        let mut findings = Vec::new();
        if view.seeds != self.blessed_seeds || view.budget_minutes != self.blessed_budget_minutes {
            findings.push(format!(
                "phase gate: workload mismatch — blessed under {} seeds x {} min, \
                 measured {} seeds x {} min (re-bless or match the workload)",
                self.blessed_seeds, self.blessed_budget_minutes, view.seeds, view.budget_minutes
            ));
            return findings;
        }
        for blessed in &self.apps {
            let Some(row) = view.phase_by_app.iter().find(|r| r.app == blessed.app) else {
                findings.push(format!(
                    "phase gate: app `{}` has blessed ceilings but no measured breakdown",
                    blessed.app
                ));
                continue;
            };
            let checks = [
                (Phase::PolicyChoose, blessed.policy),
                (Phase::Render, blessed.render),
                (Phase::Think, blessed.think),
                (Phase::ExtractInteractables, blessed.extract),
                (Phase::Backoff, blessed.backoff),
            ];
            for (phase, ceiling) in checks {
                let share = row.phase.share(phase);
                if share > ceiling {
                    findings.push(format!(
                        "phase gate: {}/{phase} share {:.1}% exceeds its blessed \
                         ceiling {:.1}%",
                        blessed.app,
                        100.0 * share,
                        100.0 * ceiling
                    ));
                }
            }
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> PerfPhaseView {
        PerfPhaseView {
            budget_minutes: 5.0,
            seeds: 2,
            phase_by_app: vec![
                AppPhases {
                    app: "addressbook".into(),
                    phase: PhaseTotals {
                        policy_ms: 100.0,
                        render_ms: 400.0,
                        think_ms: 300.0,
                        extract_ms: 200.0,
                        backoff_ms: 0.0,
                    },
                },
                AppPhases {
                    app: "drupal".into(),
                    phase: PhaseTotals {
                        policy_ms: 50.0,
                        render_ms: 600.0,
                        think_ms: 250.0,
                        extract_ms: 100.0,
                        backoff_ms: 0.0,
                    },
                },
            ],
        }
    }

    #[test]
    fn blessed_report_passes_its_own_gate() {
        let v = view();
        let gate = PhaseGate::bless(&v);
        assert!(gate.check(&v).is_empty());
        assert_eq!(gate.apps.len(), 2);
        assert_eq!(gate.apps[0].app, "addressbook", "rows are sorted by app");
    }

    #[test]
    fn a_share_past_its_ceiling_fires_one_finding() {
        let v = view();
        let mut gate = PhaseGate::bless(&v);
        // Hand-bump: tighten drupal's render ceiling below its measured
        // ~46% share.
        let drupal = gate.apps.iter_mut().find(|a| a.app == "drupal").unwrap();
        drupal.render = 0.10;
        let findings = gate.check(&v);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("drupal/Render"));
        // Re-blessing restores the pass.
        assert!(PhaseGate::bless(&v).check(&v).is_empty());
    }

    #[test]
    fn zero_shares_bless_a_nonzero_ceiling() {
        // Without a fault plan the backoff share is exactly 0; the
        // absolute slack keeps the ceiling permissive enough that float
        // epsilon never trips it.
        let gate = PhaseGate::bless(&view());
        assert!(gate.apps.iter().all(|a| a.backoff >= ABS_SLACK));
    }

    #[test]
    fn workload_mismatch_refuses_to_compare() {
        let gate = PhaseGate::bless(&view());
        let mut other = view();
        other.seeds = 10;
        let findings = gate.check(&other);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("workload mismatch"));
    }

    #[test]
    fn a_blessed_app_missing_from_the_report_fires() {
        let gate = PhaseGate::bless(&view());
        let mut other = view();
        other.phase_by_app.retain(|r| r.app != "drupal");
        let findings = gate.check(&other);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("no measured breakdown"));
    }

    #[test]
    fn gate_round_trips_through_json() {
        let gate = PhaseGate::bless(&view());
        let json = serde_json::to_string_pretty(&gate).unwrap();
        let back: PhaseGate = serde_json::from_str(&json).unwrap();
        assert_eq!(back, gate);
    }
}
