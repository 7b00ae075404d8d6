//! # mak-serve — crawl-as-a-service
//!
//! The paper's pitch is coverage *per interaction*; it matters at scale
//! only if the engine can run many crawls cheaply and concurrently. This
//! crate is the serving layer over the
//! [`Session`](mak::framework::session::Session) state machine: a
//! long-running, in-process (no-network) service that multiplexes
//! thousands of concurrent crawl sessions over shared immutable app
//! models, with
//!
//! - a **work-stealing scheduler** ([`scheduler`]) batching virtual-clock
//!   steps across sessions on `MAK_THREADS` workers;
//! - **shared app models**: one `Arc<dyn WebApp>` per application, handed
//!   to every session ([`AppHost::with_shared`]), so a hundred thousand
//!   in-flight crawls of one app hold a single model allocation;
//! - **per-tenant budgets and quotas** ([`tenant`]) with typed
//!   backpressure errors ([`SubmitError`]) instead of panics;
//! - **result streaming** over the existing `mak-obs` JSONL event
//!   protocol: any session can record its event stream and return the
//!   byte-exact JSONL alongside its [`CrawlReport`];
//! - **resilience**: an [`EngineConfig::faults`] plan on a submission
//!   injects the PR 5 chaos layer per session — faulty sessions retry,
//!   back off, and finish their budget without wedging the scheduler;
//! - **durability** ([`checkpoint`]): with a
//!   [`checkpoint_dir`](service::ServiceConfig::checkpoint_dir)
//!   configured, every session checkpoints to an atomic, CRC-guarded
//!   on-disk store at admission and on a step cadence;
//!   [`CrawlService::drain`](service::CrawlService::drain) parks all
//!   pending work and
//!   [`CrawlService::recover`](service::CrawlService::recover) re-admits
//!   it by replaying each session's recorded steps — in the same or a
//!   fresh process, after a graceful stop or a `kill -9` — finishing
//!   bit-identically to an uninterrupted run (`tests/recovery.rs`);
//!   corrupt files, and files whose replay does not arrive where they
//!   say, are quarantined, never trusted.
//!
//! ## Determinism contract
//!
//! Determinism is *per-session*: each session's report and event stream
//! are a pure function of `(app, crawler, seed, config)`, no matter how
//! many worker threads run, in what order the scheduler interleaves
//! sessions, or what its neighbors do (`tests/determinism.rs` drives the
//! same workload through round-robin, LIFO, and seeded-random schedules
//! on 1/4/8 workers and asserts byte-identical outcomes — all equal to a
//! standalone [`run_crawl`](mak::framework::engine::run_crawl)).
//!
//! ## Quick start
//!
//! ```
//! use mak_serve::{CrawlService, ServiceConfig, SessionSpec};
//! use mak::framework::engine::EngineConfig;
//!
//! let mut service = CrawlService::new(ServiceConfig::default());
//! let spec = SessionSpec::new("tenant-a", "addressbook", "mak", 1)
//!     .config(EngineConfig::with_budget_minutes(0.5));
//! service.submit(spec).expect("within quota");
//! let done = service.run_to_drain();
//! assert_eq!(done.len(), 1);
//! assert!(done[0].report.interactions > 0);
//! ```
//!
//! [`AppHost::with_shared`]: mak_websim::server::AppHost::with_shared
//! [`EngineConfig::faults`]: mak::framework::engine::EngineConfig

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod error;
pub mod metrics;
pub mod scheduler;
pub mod service;
pub mod tenant;

pub use checkpoint::{CheckpointStats, CheckpointStore, LoadOutcome, StoredSession};
pub use error::SubmitError;
pub use metrics::ServiceMetrics;
pub use scheduler::{Checkpoint, ScheduleOrder, StepLatencies};
pub use service::{
    CompletedSession, CrawlService, RecoveryReport, ServiceConfig, SessionId, SessionSpec,
};
pub use tenant::{TenantLedger, TenantQuota};
