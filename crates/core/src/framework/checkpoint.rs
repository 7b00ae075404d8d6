//! Durable session checkpoints: a session's spec and how far it got.
//!
//! A crawl is a pure function of `(app, crawler, seed, config)`, so a
//! [`SessionCheckpoint`] records exactly that spec plus the number of
//! steps taken. [`Session::restore`](super::session::Session::restore)
//! rebuilds the session and replays those steps with no sink attached;
//! the replayed session *is* the interrupted one, and it continues
//! **bit-identically** to the uninterrupted run (reports, traces, and
//! JSONL event streams included; proven by
//! `crates/serve/tests/recovery.rs`).
//!
//! A short [`Progress`] record, read from the session when the checkpoint
//! is written, lets the replay check that it arrived where the original
//! stood; a mismatch is an error naming the first differing field, so a
//! determinism regression surfaces at recovery instead of as a silently
//! different crawl.

use crate::framework::engine::EngineConfig;

/// Schema version of [`SessionCheckpoint`]. Bump on any layout or meaning
/// change; restore rejects mismatching versions instead of guessing.
/// Version 1 held a serialized copy of every mutable field; version 2
/// holds the spec and a step count.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Where a session stood when its checkpoint was written. Read from state
/// the session already holds, and only when a checkpoint is written.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Progress {
    /// Virtual milliseconds elapsed.
    pub elapsed_ms: f64,
    /// Interactions executed (§V-D metric).
    pub interactions: u64,
    /// Covered lines, as the harness reports them mid-run.
    pub lines: u64,
    /// Distinct same-origin URLs the crawler has observed.
    pub distinct_urls: u64,
}

impl Progress {
    /// Compares a replayed session's progress against this record.
    ///
    /// # Errors
    ///
    /// Names the first field that differs, with both values. Times compare
    /// bit for bit: a replay is the same computation, not an approximation.
    pub(crate) fn check(&self, replayed: &Progress) -> Result<(), serde::Error> {
        let mismatch =
            |field: &str, stored: &dyn std::fmt::Display, got: &dyn std::fmt::Display| {
                Err(serde::Error::custom(format!(
                    "progress mismatch in `{field}`: checkpoint has {stored}, replay reached {got}"
                )))
            };
        if self.elapsed_ms.to_bits() != replayed.elapsed_ms.to_bits() {
            return mismatch("elapsed_ms", &self.elapsed_ms, &replayed.elapsed_ms);
        }
        if self.interactions != replayed.interactions {
            return mismatch("interactions", &self.interactions, &replayed.interactions);
        }
        if self.lines != replayed.lines {
            return mismatch("lines", &self.lines, &replayed.lines);
        }
        if self.distinct_urls != replayed.distinct_urls {
            return mismatch("distinct_urls", &self.distinct_urls, &replayed.distinct_urls);
        }
        Ok(())
    }
}

/// One mid-crawl session, as the spec that starts it and the number of
/// steps that brought it here.
///
/// Produced by [`Session::snapshot`](super::session::Session::snapshot);
/// consumed by [`Session::restore`](super::session::Session::restore),
/// which needs only the application model (by the recorded `app` name)
/// and a fresh crawler of the recorded `crawler` name.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
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
    pub steps: u64,
    /// Whether the session had already ended: a replay then takes one
    /// more step, which must find the end.
    pub done: bool,
    /// Where the session stood; the replay must arrive at the same place.
    pub progress: Progress,
    /// Span allocator `(next_id, now_ms)` when the interrupted run had
    /// span collection enabled; restoring seeds the allocator so span ids
    /// continue where they left off.
    pub spans: Option<(u64, f64)>,
}

impl SessionCheckpoint {
    /// Checks what can be checked without replaying: the schema version
    /// and a configuration a session can run under. A positive, finite
    /// budget is also what bounds the replay.
    ///
    /// # Errors
    ///
    /// Names the offending field.
    pub(crate) fn validate(&self) -> Result<(), serde::Error> {
        if self.version != CHECKPOINT_VERSION {
            return Err(serde::Error::custom(format!(
                "unsupported checkpoint version {} (expected {CHECKPOINT_VERSION})",
                self.version
            )));
        }
        let positive = |x: f64| x > 0.0 && x.is_finite();
        if !positive(self.config.budget_minutes) {
            return Err(serde::Error::custom(format!(
                "config.budget_minutes must be positive and finite, got {}",
                self.config.budget_minutes
            )));
        }
        if !positive(self.config.sample_interval_secs) {
            return Err(serde::Error::custom(format!(
                "config.sample_interval_secs must be positive and finite, got {}",
                self.config.sample_interval_secs
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize as _, Serialize as _};

    fn checkpoint() -> SessionCheckpoint {
        SessionCheckpoint {
            version: CHECKPOINT_VERSION,
            app: "vanilla".to_owned(),
            crawler: "mak".to_owned(),
            seed: 7,
            config: EngineConfig::with_budget_minutes(1.0),
            steps: 12,
            done: false,
            progress: Progress {
                elapsed_ms: 6_000.5,
                interactions: 12,
                lines: 40,
                distinct_urls: 9,
            },
            spans: Some((41, 6_000.0)),
        }
    }

    #[test]
    fn session_checkpoint_rejects_future_versions() {
        let ok = checkpoint();
        let back = SessionCheckpoint::from_value(&ok.to_value()).unwrap();
        assert_eq!(back, ok);
        back.validate().unwrap();

        let future = SessionCheckpoint { version: CHECKPOINT_VERSION + 1, ..ok };
        let err = future.validate().unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn progress_mismatch_names_the_first_differing_field() {
        let stored = checkpoint().progress;
        stored.check(&stored).unwrap();
        let later = Progress { interactions: 13, lines: 41, ..stored };
        let err = stored.check(&later).unwrap_err().to_string();
        assert!(
            err.contains("`interactions`") && err.contains("12") && err.contains("13"),
            "{err}"
        );
        let next_float =
            Progress { elapsed_ms: f64::from_bits(stored.elapsed_ms.to_bits() + 1), ..stored };
        assert!(stored.check(&next_float).unwrap_err().to_string().contains("`elapsed_ms`"));
    }
}
