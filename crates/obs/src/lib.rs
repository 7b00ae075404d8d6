//! `mak-obs` — the structured, deterministic observability layer.
//!
//! Every other crate in the workspace emits typed [`Event`]s into an
//! [`EventSink`] instead of printing ad-hoc diagnostics. Three rules keep
//! the layer compatible with the workspace determinism contract
//! (CLAUDE.md):
//!
//! 1. **Events are derived observations.** Emitting an event never
//!    mutates crawl state, draws from a seeded RNG, or advances the
//!    virtual clock; a crawl with a sink attached produces a
//!    [`CrawlReport`] byte-identical to one without (enforced by
//!    `tests/observability.rs`).
//! 2. **Virtual time only inside a run.** Per-crawl events carry
//!    virtual-clock milliseconds, never wall time, so a JSONL stream is
//!    bit-identical across reruns and thread counts. The single
//!    exception is [`Event::CellFinished`], a *bench-side* event emitted
//!    outside any crawl (through [`sink::SharedSink`]) that records
//!    wall-clock cost for the `regress` gate's steps/sec floors; it never
//!    enters a per-crawl trace.
//! 3. **No-op by default, lazy when attached.** [`sink::SinkHandle`]
//!    defaults to inert; `emit_with` takes a closure so event
//!    construction (string formatting, prob-vector clones) is skipped
//!    entirely when no sink listens.
//!
//! Modules: [`event`] (the taxonomy), [`sink`] (the trait, handles, and
//! JSONL/Vec sinks), [`aggregate`] (counters, histograms, and the
//! budget-attribution profile), [`trace`] (streaming JSONL readback and
//! stream diffing), [`flight`] (the flight-recorder analyzer), [`logger`]
//! (the `MAK_LOG` stderr logger).
//!
//! [`Event`]: event::Event
//! [`EventSink`]: sink::EventSink
//! [`CrawlReport`]: https://docs.rs/ (see `mak::framework::engine`)

pub mod aggregate;
pub mod event;
pub mod flight;
pub mod logger;
pub mod perfetto;
pub mod sink;
pub mod span;
pub mod trace;

pub use aggregate::Aggregator;
pub use event::Event;
pub use flight::{FlightRecorder, FlightReport};
pub use sink::{EventSink, JsonlSink, SharedSink, SinkHandle, VecSink};
pub use span::{Phase, PhaseTotals, SpanToken};
pub use trace::{first_divergence, Divergence, TraceIter};
