//! Durable session checkpoints: every piece of mid-crawl state as data.
//!
//! A [`SessionCheckpoint`] captures a [`Session`](super::session::Session)
//! between two steps — crawler learning state, browser/clock/RNG position,
//! server-side coverage and sessions, engine progress — precisely enough
//! that a session restored from it continues **bit-identically** to the
//! uninterrupted run (reports, traces, and JSONL event streams included;
//! proven by `crates/serve/tests/recovery.rs`). That contract is what lets
//! `mak-serve` survive crashes: the paper's determinism invariant (a run is
//! a pure function of `(app, crawler, seed, config)`) extends to "… from
//! any checkpoint of that run".
//!
//! Checkpoints are plain [`serde::Value`] trees. Everything validates on
//! deserialization — corrupt payloads produce [`serde::Error`]s, never
//! panics — because the serving layer feeds them from disk files it does
//! not trust (see `mak-serve`'s `checkpoint` module for the CRC-guarded
//! store).

use crate::framework::engine::{CoverageSample, EngineConfig, TraceEntry};

/// On-disk/OTW schema version of [`SessionCheckpoint`]. Bump on any layout
/// change; restore rejects mismatching versions instead of guessing.
pub const CHECKPOINT_VERSION: u32 = 1;

/// The mutable state of one crawler, tagged by family.
///
/// The six registry crawlers map onto three variants: `mak`, `bfs`, `dfs`,
/// `random`, and every `mak-*` ablation variant are [`CrawlerState::Mak`]
/// (the static baselines are MAK with a pinned arm); `webexplor` and
/// `qexplore` are [`CrawlerState::Q`] distinguished by their state
/// abstraction's `kind`; `mak-ensemble<N>` is [`CrawlerState::Ensemble`].
///
/// Sub-states are pre-serialized [`serde::Value`] payloads: only the type
/// that produced a payload knows how to validate it, and keeping the enum
/// payload-agnostic means a new learner needs no checkpoint-schema change.
#[derive(Debug, Clone, PartialEq)]
pub enum CrawlerState {
    /// [`MakCrawler`](crate::mak::MakCrawler) in any configuration.
    Mak(MakState),
    /// [`EnsembleCrawler`](crate::mak::EnsembleCrawler).
    Ensemble(EnsembleState),
    /// A [`QCrawler`](crate::framework::qcrawler::QCrawler) (WebExplor or
    /// QExplore, per [`QState::abstraction`]).
    Q(QState),
}

/// Mutable state of a [`MakCrawler`](crate::mak::MakCrawler).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct MakState {
    /// The arm policy (tagged by name, hyper-parameters included).
    pub policy: serde::Value,
    /// The reward standardizer's running statistics.
    pub reward: serde::Value,
    /// The leveled element pool.
    pub deque: serde::Value,
    /// The link log (URLs in insertion order).
    pub links: serde::Value,
    /// xoshiro256++ words of the crawler's RNG stream.
    pub rng: Vec<u64>,
    /// Whether the seed page has been ingested.
    pub started: bool,
}

/// Mutable state of an [`EnsembleCrawler`](crate::mak::EnsembleCrawler).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct EnsembleState {
    /// Per-agent Exp3.1 learner states, in round-robin order.
    pub policies: Vec<serde::Value>,
    /// Per-agent reward standardizers, aligned with `policies`.
    pub rewards: Vec<serde::Value>,
    /// The agent whose turn is next.
    pub next_agent: u64,
    /// The shared leveled element pool.
    pub deque: serde::Value,
    /// The shared link log.
    pub links: serde::Value,
    /// xoshiro256++ words of the shared RNG stream.
    pub rng: Vec<u64>,
    /// Whether the seed page has been ingested.
    pub started: bool,
}

/// Mutable state of a [`QCrawler`](crate::framework::qcrawler::QCrawler).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct QState {
    /// The state abstraction's kind tag (`"webexplor"` / `"qexplore"`);
    /// restore refuses a payload produced by a different abstraction.
    pub abstraction: String,
    /// The state abstraction's own serialized table.
    pub states: serde::Value,
    /// The Q-table (hyper-parameters included).
    pub q: serde::Value,
    /// `(state, action, visits)` triples, sorted by `(state, action)`.
    pub visit_counts: Vec<(u64, u64, u64)>,
    /// The link log.
    pub links: serde::Value,
    /// xoshiro256++ words of the crawler's RNG stream.
    pub rng: Vec<u64>,
    /// The trajectory position: `(state id, page)`; `None` when the next
    /// step restarts from the seed.
    pub current: Option<(u64, serde::Value)>,
    /// Seed restarts performed so far.
    pub restarts: u64,
}

fn rng_field(rng: &serde::Value) -> Result<Vec<u64>, serde::Error> {
    let words: Vec<u64> = serde::Deserialize::from_value(rng)?;
    if words.len() != 4 {
        return Err(serde::Error::custom(format!("expected 4 RNG words, got {}", words.len())));
    }
    if words.iter().all(|&w| w == 0) {
        return Err(serde::Error::custom("all-zero RNG state is invalid"));
    }
    Ok(words)
}

impl serde::Deserialize for MakState {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let entries =
            v.as_object().ok_or_else(|| serde::Error::custom("expected MakState object"))?;
        Ok(MakState {
            policy: serde::__field(entries, "policy")?,
            reward: serde::__field(entries, "reward")?,
            deque: serde::__field(entries, "deque")?,
            links: serde::__field(entries, "links")?,
            rng: rng_field(
                v.get("rng").ok_or_else(|| serde::Error::custom("missing field `rng`"))?,
            )?,
            started: serde::__field(entries, "started")?,
        })
    }
}

impl serde::Deserialize for EnsembleState {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let entries =
            v.as_object().ok_or_else(|| serde::Error::custom("expected EnsembleState object"))?;
        let state = EnsembleState {
            policies: serde::__field(entries, "policies")?,
            rewards: serde::__field(entries, "rewards")?,
            next_agent: serde::__field(entries, "next_agent")?,
            deque: serde::__field(entries, "deque")?,
            links: serde::__field(entries, "links")?,
            rng: rng_field(
                v.get("rng").ok_or_else(|| serde::Error::custom("missing field `rng`"))?,
            )?,
            started: serde::__field(entries, "started")?,
        };
        if state.policies.is_empty() {
            return Err(serde::Error::custom("ensemble needs at least one agent"));
        }
        if state.policies.len() != state.rewards.len() {
            return Err(serde::Error::custom("policies/rewards length mismatch"));
        }
        if state.next_agent as usize >= state.policies.len() {
            return Err(serde::Error::custom("next_agent out of range"));
        }
        Ok(state)
    }
}

impl serde::Deserialize for QState {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let entries =
            v.as_object().ok_or_else(|| serde::Error::custom("expected QState object"))?;
        let visit_counts: Vec<(u64, u64, u64)> = serde::__field(entries, "visit_counts")?;
        for w in visit_counts.windows(2) {
            if (w[1].0, w[1].1) <= (w[0].0, w[0].1) {
                return Err(serde::Error::custom("visit_counts not sorted by (state, action)"));
            }
        }
        Ok(QState {
            abstraction: serde::__field(entries, "abstraction")?,
            states: serde::__field(entries, "states")?,
            q: serde::__field(entries, "q")?,
            visit_counts,
            links: serde::__field(entries, "links")?,
            rng: rng_field(
                v.get("rng").ok_or_else(|| serde::Error::custom("missing field `rng`"))?,
            )?,
            current: serde::__field(entries, "current")?,
            restarts: serde::__field(entries, "restarts")?,
        })
    }
}

impl CrawlerState {
    /// The family tag and its payload.
    fn tagged(&self) -> (&'static str, &dyn serde::Serialize) {
        match self {
            CrawlerState::Mak(s) => ("mak", s),
            CrawlerState::Ensemble(s) => ("ensemble", s),
            CrawlerState::Q(s) => ("q", s),
        }
    }
}

impl serde::Serialize for CrawlerState {
    fn to_value(&self) -> serde::Value {
        let (tag, payload) = self.tagged();
        serde::Value::Object(vec![(tag.to_owned(), payload.to_value())])
    }

    /// The same `{"tag":payload}` shape, with the payload's
    /// pre-serialized subtrees written in place rather than cloned.
    fn write_json(&self, out: &mut String) {
        let (tag, payload) = self.tagged();
        out.push('{');
        tag.write_json(out);
        out.push(':');
        payload.write_json(out);
        out.push('}');
    }
}

impl serde::Deserialize for CrawlerState {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let entries =
            v.as_object().ok_or_else(|| serde::Error::custom("expected CrawlerState object"))?;
        let [(tag, payload)] = entries else {
            return Err(serde::Error::custom("expected single-variant CrawlerState object"));
        };
        Ok(match tag.as_str() {
            "mak" => CrawlerState::Mak(MakState::from_value(payload)?),
            "ensemble" => CrawlerState::Ensemble(EnsembleState::from_value(payload)?),
            "q" => CrawlerState::Q(QState::from_value(payload)?),
            other => return Err(serde::Error::custom(format!("unknown crawler state `{other}`"))),
        })
    }
}

/// A complete, self-contained snapshot of one mid-crawl session.
///
/// Produced by [`Session::snapshot`](super::session::Session::snapshot)
/// between steps; consumed by
/// [`Session::restore`](super::session::Session::restore). The embedded
/// [`EngineConfig`] makes the checkpoint self-describing — restoring needs
/// only the application model (by the recorded `app` name) and a fresh
/// crawler of the recorded `crawler` name.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct SessionCheckpoint {
    /// Schema version ([`CHECKPOINT_VERSION`] at write time).
    pub version: u32,
    /// Application name (registry key or generated-app label).
    pub app: String,
    /// Crawler name (a [`crate::spec::build_crawler`] key).
    pub crawler: String,
    /// The run's seed.
    pub seed: u64,
    /// The engine configuration the run was started with.
    pub config: EngineConfig,
    /// Steps completed so far.
    pub step_index: u64,
    /// Whether the session had already ended.
    pub done: bool,
    /// Next live-coverage sample boundary, in virtual seconds.
    pub next_sample: f64,
    /// Live coverage samples collected so far.
    pub series: Vec<CoverageSample>,
    /// Per-step trace collected so far (empty unless `config.record_trace`).
    pub trace: Vec<TraceEntry>,
    /// Browser-side state (clock, RNG, cookie, fault stream, host).
    pub browser: serde::Value,
    /// The crawler's learning state.
    pub crawler_state: CrawlerState,
    /// Span allocator `(next_id, now_ms)` when the interrupted run had
    /// span collection enabled; restoring seeds the allocator so span ids
    /// continue where they left off.
    pub spans: Option<(u64, f64)>,
}

impl serde::Deserialize for SessionCheckpoint {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let entries = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected SessionCheckpoint object"))?;
        let version: u32 = serde::__field(entries, "version")?;
        if version != CHECKPOINT_VERSION {
            return Err(serde::Error::custom(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            )));
        }
        let checkpoint = SessionCheckpoint {
            version,
            app: serde::__field(entries, "app")?,
            crawler: serde::__field(entries, "crawler")?,
            seed: serde::__field(entries, "seed")?,
            config: serde::__field(entries, "config")?,
            step_index: serde::__field(entries, "step_index")?,
            done: serde::__field(entries, "done")?,
            next_sample: serde::__field(entries, "next_sample")?,
            series: serde::__field(entries, "series")?,
            trace: serde::__field(entries, "trace")?,
            browser: serde::__field(entries, "browser")?,
            crawler_state: serde::__field(entries, "crawler_state")?,
            spans: serde::__field(entries, "spans")?,
        };
        if !checkpoint.next_sample.is_finite() || checkpoint.next_sample < 0.0 {
            return Err(serde::Error::custom("next_sample must be a finite non-negative time"));
        }
        if checkpoint.config.budget_minutes <= 0.0 || checkpoint.config.sample_interval_secs <= 0.0
        {
            return Err(serde::Error::custom("checkpointed config has non-positive budget"));
        }
        Ok(checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize as _, Serialize as _};

    fn mak_state() -> CrawlerState {
        CrawlerState::Mak(MakState {
            policy: serde::Value::Object(vec![("uniform".to_owned(), serde::Value::Null)]),
            reward: serde::Value::Null,
            deque: serde::Value::Null,
            links: serde::Value::Array(vec![]),
            rng: vec![1, 2, 3, 4],
            started: false,
        })
    }

    #[test]
    fn crawler_state_round_trips() {
        for state in [
            mak_state(),
            CrawlerState::Ensemble(EnsembleState {
                policies: vec![serde::Value::Null, serde::Value::Null],
                rewards: vec![serde::Value::Null, serde::Value::Null],
                next_agent: 1,
                deque: serde::Value::Null,
                links: serde::Value::Null,
                rng: vec![9, 0, 0, 1],
                started: true,
            }),
            CrawlerState::Q(QState {
                abstraction: "webexplor".to_owned(),
                states: serde::Value::Array(vec![]),
                q: serde::Value::Null,
                visit_counts: vec![(0, 1, 2), (0, 2, 1), (3, 0, 5)],
                links: serde::Value::Null,
                rng: vec![5, 6, 7, 8],
                current: None,
                restarts: 2,
            }),
        ] {
            let back = CrawlerState::from_value(&state.to_value()).unwrap();
            assert_eq!(back, state);
        }
    }

    #[test]
    fn corrupt_crawler_states_error_instead_of_panicking() {
        // All-zero RNG words would panic inside StdRng::from_state if they
        // reached it; the deserializer must reject them first.
        let mut zero_rng = mak_state();
        if let CrawlerState::Mak(s) = &mut zero_rng {
            s.rng = vec![0, 0, 0, 0];
        }
        assert!(CrawlerState::from_value(&zero_rng.to_value()).is_err());

        let mut short_rng = mak_state();
        if let CrawlerState::Mak(s) = &mut short_rng {
            s.rng = vec![1, 2];
        }
        assert!(CrawlerState::from_value(&short_rng.to_value()).is_err());

        let unknown = serde::Value::Object(vec![("gpt".to_owned(), serde::Value::Null)]);
        assert!(CrawlerState::from_value(&unknown).is_err());

        let unsorted = CrawlerState::Q(QState {
            abstraction: "qexplore".to_owned(),
            states: serde::Value::Null,
            q: serde::Value::Null,
            visit_counts: vec![(3, 0, 5), (0, 1, 2)],
            links: serde::Value::Null,
            rng: vec![5, 6, 7, 8],
            current: None,
            restarts: 0,
        });
        assert!(CrawlerState::from_value(&unsorted.to_value()).is_err());

        let empty_ensemble = CrawlerState::Ensemble(EnsembleState {
            policies: vec![],
            rewards: vec![],
            next_agent: 0,
            deque: serde::Value::Null,
            links: serde::Value::Null,
            rng: vec![1, 0, 0, 0],
            started: false,
        });
        assert!(CrawlerState::from_value(&empty_ensemble.to_value()).is_err());
    }

    #[test]
    fn session_checkpoint_rejects_future_versions() {
        let checkpoint = SessionCheckpoint {
            version: CHECKPOINT_VERSION,
            app: "vanilla".to_owned(),
            crawler: "mak".to_owned(),
            seed: 7,
            config: EngineConfig::with_budget_minutes(1.0),
            step_index: 12,
            done: false,
            next_sample: 30.0,
            series: vec![CoverageSample { secs: 0.0, lines: 3 }],
            trace: vec![],
            browser: serde::Value::Null,
            crawler_state: mak_state(),
            spans: Some((41, 6_000.0)),
        };
        let ok = SessionCheckpoint::from_value(&checkpoint.to_value()).unwrap();
        assert_eq!(ok, checkpoint);

        let mut future = checkpoint.to_value();
        if let serde::Value::Object(entries) = &mut future {
            entries[0].1 = serde::Value::UInt(u64::from(CHECKPOINT_VERSION) + 1);
        }
        let err = SessionCheckpoint::from_value(&future).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }
}
