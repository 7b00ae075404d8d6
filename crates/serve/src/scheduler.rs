//! The work-stealing scheduler: batches virtual-clock steps across
//! thousands of concurrent sessions.
//!
//! Layout: one global injector queue (everything submitted lands there)
//! plus one local deque per worker. A worker serves its local deque
//! first, refills from the injector in batches when empty, and steals
//! half of a sibling's deque as a last resort. One scheduling quantum
//! ("slice") runs up to [`steps_per_slice`] virtual-clock steps of one
//! session — batching amortizes queue traffic over many steps while
//! keeping interleaving fine-grained enough that a hundred thousand
//! sessions all make progress.
//!
//! Because every session is an independent
//! [`Session`](mak::framework::session::Session) state machine, the
//! schedule — worker count, queue discipline, steal victims — is
//! *unobservable* in session outcomes. [`ScheduleOrder`] exists to prove
//! exactly that: the determinism suite replays identical workloads under
//! round-robin, LIFO, and seeded-random disciplines and asserts
//! byte-identical reports and event streams.
//!
//! A panicking session (impossible for in-tree crawlers, but the
//! scheduler must not trust its tenants) is caught, counted as aborted,
//! and dropped; the worker and every other session continue.
//!
//! A recovered session enters the queues still *replaying*: its slices
//! take the checkpoint's steps with no sink, and the slice that reaches
//! the checkpoint's step count checks the session there, then resumes it
//! or quarantines its file. A replay slice is bounded like any other, so
//! a checkpoint with a huge step count costs only its own slices.
//! Replayed steps count toward a drain's step limit but are not drained
//! steps: no latency sample covers them.
//!
//! [`steps_per_slice`]: crate::ServiceConfig::steps_per_slice

use crate::checkpoint::{CheckpointStore, StoredSession};
use mak::framework::checkpoint::SessionCheckpoint;
use mak::framework::engine::CrawlReport;
use mak::framework::session::Session;
use mak_obs::sink::{SinkHandle, VecSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The queue discipline workers use on their local deques and the
/// injector. Session outcomes are identical under every variant — the
/// order only decides *when* each session's steps run, never what they
/// compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleOrder {
    /// Serve the oldest runnable session first (fair round-robin).
    RoundRobin,
    /// Serve the newest runnable session first (adversarially unfair:
    /// early sessions starve until late ones finish).
    Lifo,
    /// Serve a pseudo-random runnable session, from a seeded stream
    /// (adversarial shuffling; deterministic per seed).
    Random(u64),
}

/// One schedulable unit: a session plus its service-side bookkeeping.
pub(crate) struct SessionTask {
    pub id: u64,
    pub tenant: String,
    pub session: Session<'static>,
    /// Buffer behind the session's event sink when the submission asked
    /// for its JSONL stream.
    pub events: Option<Arc<Mutex<VecSink>>>,
    pub record_events: bool,
    pub record_spans: bool,
    /// Scheduling quanta this session has consumed so far.
    pub slices: u64,
    /// `steps_taken` at the last durable checkpoint — drives the
    /// every-N-steps cadence.
    pub last_ckpt_steps: u64,
    /// Present while a recovered session replays toward its checkpoint.
    pub replay: Option<Box<Replay>>,
}

/// A recovered session's way back: where its replay must arrive, and the
/// sink it gets once it has.
pub(crate) struct Replay {
    /// The checkpoint the session was recovered from. Until the replay
    /// reaches it and passes its checks, this is the session's durable
    /// state: nothing past it is verified.
    pub checkpoint: SessionCheckpoint,
    /// Attached at the target, after the checks.
    pub sink: SinkHandle,
}

impl SessionTask {
    /// The task as the checkpoint store persists it. A replaying session
    /// persists the checkpoint it was recovered from, unchanged: a
    /// snapshot of an unverified prefix would turn a lying file into a
    /// valid one.
    pub(crate) fn to_stored(&self) -> StoredSession {
        StoredSession {
            id: self.id,
            tenant: self.tenant.clone(),
            record_events: self.record_events,
            record_spans: self.record_spans,
            checkpoint: match &self.replay {
                Some(replay) => replay.checkpoint.clone(),
                None => self.session.snapshot(),
            },
        }
    }
}

/// Durable-checkpoint knobs for one drain: where to write and how often.
#[derive(Clone)]
pub(crate) struct CheckpointHook {
    pub store: Arc<CheckpointStore>,
    /// Write a session's checkpoint once it has run this many steps past
    /// its previous one (0 = only on drain/eviction, never mid-run).
    pub every_steps: u64,
}

/// A recovered session whose replay failed its checks; its file is
/// already in `quarantine/`.
pub(crate) struct QuarantinedTask {
    pub id: u64,
    pub tenant: String,
    /// What the check found, naming the field at fault.
    pub reason: String,
}

/// A drained session: the task's bookkeeping plus its sealed report and,
/// when recorded, its event stream already encoded as JSONL by the worker
/// that finished it.
pub(crate) struct FinishedTask {
    pub id: u64,
    pub tenant: String,
    pub report: CrawlReport,
    pub events_jsonl: Option<Vec<u8>>,
    pub slices: u64,
    pub steps: u64,
}

/// Wall-clock step-latency samples, one per scheduling slice, weighted
/// by the number of steps the slice ran. Collected only when the service
/// asks for latency sampling (the benchmark's serve workloads do; tests
/// do not).
#[derive(Debug, Default)]
pub struct StepLatencies {
    /// `(nanoseconds per step, steps in the slice)` pairs.
    samples: Vec<(u64, u32)>,
    /// Wall nanoseconds per successful dispatch — the time `next_task`
    /// spent in queue locks, injector batching, and stealing before it
    /// handed a session to the worker. Idle polls (no task found) are
    /// not recorded.
    dispatch: Vec<u64>,
}

impl StepLatencies {
    /// Total steps across all samples (saturating: a pathological sample
    /// set cannot wrap the sum).
    pub fn total_steps(&self) -> u64 {
        self.samples.iter().fold(0u64, |acc, &(_, n)| acc.saturating_add(n as u64))
    }

    /// The `q`-quantile (0.0–1.0, clamped) of per-step latency in
    /// nanoseconds, weighted by steps. `None` when there are no samples
    /// with positive weight: a quantile of nothing is not zero, and
    /// callers must treat the two cases differently. Zero-weight samples
    /// carry no steps and are ignored.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        let mut sorted: Vec<(u64, u32)> =
            self.samples.iter().copied().filter(|&(_, n)| n > 0).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_unstable();
        let total = self.total_steps();
        // `as u64` saturates on overflow/NaN in Rust, and the `.min`
        // keeps a rounded-up target from walking past the end.
        let target = ((q.clamp(0.0, 1.0) * total as f64) as u64).min(total);
        let mut seen = 0u64;
        for &(ns, n) in &sorted {
            seen = seen.saturating_add(n as u64);
            if seen >= target {
                return Some(ns);
            }
        }
        sorted.last().map(|&(ns, _)| ns)
    }

    /// All samples as `(nanoseconds per step, steps)` pairs — feed for
    /// the wall-domain latency histogram.
    pub fn samples(&self) -> &[(u64, u32)] {
        &self.samples
    }

    /// Dispatch-path samples, wall nanoseconds per acquired task — feed
    /// for the wall-domain `SchedulerDispatch` histogram.
    pub fn dispatch_samples(&self) -> &[u64] {
        &self.dispatch
    }

    fn merge(&mut self, other: StepLatencies) {
        self.samples.extend(other.samples);
        self.dispatch.extend(other.dispatch);
    }
}

/// One point of the drain progress time-series, recorded every
/// [`checkpoint_every`](crate::ServiceConfig::checkpoint_every) session
/// completions. Wall-clock domain: the *order* sessions finish in is
/// schedule-dependent, so checkpoints describe throughput, never
/// outcomes.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Checkpoint {
    /// Seconds since the drain started.
    pub wall_secs: f64,
    /// Sessions completed so far.
    pub sessions_done: u64,
    /// Virtual-clock steps executed so far (across all sessions, replayed
    /// steps included).
    pub steps_done: u64,
}

/// Everything the worker pool shares.
struct Pool {
    injector: Mutex<VecDeque<SessionTask>>,
    locals: Vec<Mutex<VecDeque<SessionTask>>>,
    done: Mutex<Vec<FinishedTask>>,
    quarantined: Mutex<Vec<QuarantinedTask>>,
    /// Tasks not yet finished, aborted or quarantined — the termination
    /// condition.
    remaining: AtomicUsize,
    aborted: AtomicU64,
    /// Steal operations (a worker taking from a sibling's deque).
    steals: AtomicU64,
    /// High-water mark of observed queue depth (injector or a victim
    /// deque at steal time) — a contention signal, not an exact census.
    queue_peak: AtomicU64,
    /// Sessions completed so far; drives checkpointing.
    completed: AtomicU64,
    /// Virtual-clock steps executed so far, across all sessions.
    steps_done: AtomicU64,
    /// Record a [`Checkpoint`] every N completions (0 = off).
    checkpoint_every: u64,
    checkpoints: Mutex<Vec<Checkpoint>>,
    started: Instant,
    steps_per_slice: usize,
    order: ScheduleOrder,
    sample_latency: bool,
    /// Durable checkpointing at cadence, when configured.
    checkpoint: Option<CheckpointHook>,
    /// Stop dispatching once this many total steps have run — the crash/
    /// partial-drain mode. Unfinished tasks are handed back to the
    /// caller.
    step_limit: Option<u64>,
}

impl Pool {
    fn note_depth(&self, depth: usize) {
        self.queue_peak.fetch_max(depth as u64, Ordering::Relaxed);
    }
}

/// Scheduler knobs for one [`drain`] call.
pub(crate) struct DrainConfig {
    pub threads: usize,
    pub steps_per_slice: usize,
    pub order: ScheduleOrder,
    pub sample_latency: bool,
    pub checkpoint_every: u64,
    /// Durable-checkpoint store + cadence (None = durability off).
    pub durable: Option<CheckpointHook>,
    /// Total-step budget for this drain call (None = run to completion).
    pub step_limit: Option<u64>,
}

/// What `drain` hands back: finished sessions (submission order is NOT
/// preserved — callers key by id), abort count, latency samples, and
/// wall-clock scheduler telemetry.
pub(crate) struct DrainOutcome {
    pub finished: Vec<FinishedTask>,
    /// Tasks still mid-budget when a `step_limit` stopped the drain
    /// (always empty for unbounded drains). Order is schedule-dependent;
    /// callers sort by id.
    pub unfinished: Vec<SessionTask>,
    pub aborted: u64,
    /// Recovered sessions whose replay failed its checks (unordered).
    pub quarantined: Vec<QuarantinedTask>,
    pub latencies: StepLatencies,
    pub wall_secs: f64,
    pub steals: u64,
    pub queue_peak: u64,
    pub checkpoints: Vec<Checkpoint>,
}

/// Runs every task to completion across `config.threads` workers.
pub(crate) fn drain(tasks: Vec<SessionTask>, config: DrainConfig) -> DrainOutcome {
    let threads = config.threads.max(1);
    let total = tasks.len();
    let pool = Pool {
        injector: Mutex::new(tasks.into()),
        locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
        done: Mutex::new(Vec::with_capacity(total)),
        quarantined: Mutex::new(Vec::new()),
        remaining: AtomicUsize::new(total),
        aborted: AtomicU64::new(0),
        steals: AtomicU64::new(0),
        queue_peak: AtomicU64::new(total as u64),
        completed: AtomicU64::new(0),
        steps_done: AtomicU64::new(0),
        checkpoint_every: config.checkpoint_every,
        checkpoints: Mutex::new(Vec::new()),
        started: Instant::now(),
        steps_per_slice: config.steps_per_slice.max(1),
        order: config.order,
        sample_latency: config.sample_latency,
        checkpoint: config.durable,
        step_limit: config.step_limit,
    };
    let mut latencies = StepLatencies::default();
    {
        let pool = &pool;
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..threads).map(|me| scope.spawn(move || worker(pool, me))).collect();
            for handle in handles {
                latencies.merge(handle.join().expect("scheduler worker panicked"));
            }
        });
    }
    // Tasks stranded by a step limit: everything still queued.
    let mut unfinished: Vec<SessionTask> =
        pool.injector.into_inner().unwrap_or_else(|p| p.into_inner()).into();
    for local in pool.locals {
        unfinished.extend(local.into_inner().unwrap_or_else(|p| p.into_inner()));
    }
    DrainOutcome {
        finished: pool.done.into_inner().unwrap_or_else(|p| p.into_inner()),
        unfinished,
        aborted: pool.aborted.into_inner(),
        quarantined: pool.quarantined.into_inner().unwrap_or_else(|p| p.into_inner()),
        latencies,
        wall_secs: pool.started.elapsed().as_secs_f64(),
        steals: pool.steals.into_inner(),
        queue_peak: pool.queue_peak.into_inner(),
        checkpoints: pool.checkpoints.into_inner().unwrap_or_else(|p| p.into_inner()),
    }
}

fn worker(pool: &Pool, me: usize) -> StepLatencies {
    let mut rng = match pool.order {
        // Distinct streams per worker so two workers never mirror each
        // other's choices; any fixed derivation works, determinism of
        // session outcomes does not depend on it.
        ScheduleOrder::Random(seed) => {
            Some(StdRng::seed_from_u64(seed ^ (me as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        }
        _ => None,
    };
    let mut latencies = StepLatencies::default();
    loop {
        // Crash/partial-drain mode: stop dispatching once the pool's
        // step budget is spent. Stranded tasks stay queued for the
        // caller to collect.
        if pool.step_limit.is_some_and(|limit| pool.steps_done.load(Ordering::Relaxed) >= limit) {
            break;
        }
        let dispatch_started = pool.sample_latency.then(Instant::now);
        let Some(task) = next_task(pool, me, &mut rng) else {
            if pool.remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            // Someone else holds the remaining sessions inside their
            // current slice; let them run.
            std::thread::yield_now();
            continue;
        };
        if let Some(started) = dispatch_started {
            latencies.dispatch.push(started.elapsed().as_nanos() as u64);
        }
        run_slice(pool, me, task, &mut latencies);
    }
    latencies
}

/// Pops the next task: local deque first, then an injector batch, then
/// stealing half of the fullest sibling deque.
fn next_task(pool: &Pool, me: usize, rng: &mut Option<StdRng>) -> Option<SessionTask> {
    if let Some(task) = pop_ordered(&mut pool.locals[me].lock().unwrap(), pool.order, rng) {
        return Some(task);
    }
    {
        let mut injector = pool.injector.lock().unwrap();
        if !injector.is_empty() {
            pool.note_depth(injector.len());
            // Grab a batch proportional to our share of the backlog so a
            // hundred thousand submissions do not serialize on this lock.
            let batch = (injector.len() / pool.locals.len()).clamp(1, 4096);
            let mut local = pool.locals[me].lock().unwrap();
            for _ in 0..batch {
                match injector.pop_front() {
                    Some(task) => local.push_back(task),
                    None => break,
                }
            }
            drop(injector);
            return pop_ordered(&mut local, pool.order, rng);
        }
    }
    // Steal half of the first non-empty sibling, scanning from our right
    // neighbor so thieves spread out instead of mobbing worker 0.
    let n = pool.locals.len();
    for offset in 1..n {
        let victim = (me + offset) % n;
        let mut their = pool.locals[victim].lock().unwrap();
        let len = their.len();
        if len == 0 {
            continue;
        }
        pool.note_depth(len);
        pool.steals.fetch_add(1, Ordering::Relaxed);
        let take = len.div_ceil(2);
        let mut local = pool.locals[me].lock().unwrap();
        for _ in 0..take {
            if let Some(task) = their.pop_front() {
                local.push_back(task);
            }
        }
        drop(their);
        return pop_ordered(&mut local, pool.order, rng);
    }
    None
}

fn pop_ordered(
    queue: &mut VecDeque<SessionTask>,
    order: ScheduleOrder,
    rng: &mut Option<StdRng>,
) -> Option<SessionTask> {
    match order {
        ScheduleOrder::RoundRobin => queue.pop_front(),
        ScheduleOrder::Lifo => queue.pop_back(),
        ScheduleOrder::Random(_) => {
            if queue.is_empty() {
                None
            } else {
                let idx = rng.as_mut().expect("random order has an rng").gen_range(0..queue.len());
                queue.swap_remove_back(idx)
            }
        }
    }
}

/// Steps the next slice may run: `steps_per_slice`, trimmed under a step
/// limit so the drain stops close to the requested point (concurrent
/// workers may still overshoot by at most one slice each — the limit
/// simulates a crash, not a barrier). `None` once the limit is spent.
fn quantum(pool: &Pool) -> Option<usize> {
    match pool.step_limit {
        Some(limit) => {
            let done = pool.steps_done.load(Ordering::Relaxed);
            (done < limit).then(|| (pool.steps_per_slice as u64).min(limit - done) as usize)
        }
        None => Some(pool.steps_per_slice),
    }
}

/// Runs one scheduling quantum of `task`: up to `steps_per_slice` steps,
/// then either completion (report sealed, counters settled) or requeue
/// on our local deque.
fn run_slice(pool: &Pool, me: usize, mut task: SessionTask, latencies: &mut StepLatencies) {
    if task.replay.is_some() {
        return replay_slice(pool, me, task);
    }
    let started = pool.sample_latency.then(Instant::now);
    let steps_before = task.session.steps_taken();
    let Some(quantum) = quantum(pool) else {
        pool.locals[me].lock().unwrap().push_back(task);
        return;
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        for _ in 0..quantum {
            if !task.session.step().is_running() {
                break;
            }
        }
        task
    }));
    let mut task = match outcome {
        Ok(task) => task,
        Err(_) => {
            // The session panicked mid-step. Count it, drop it, move on:
            // one hostile session must never wedge the scheduler or its
            // neighbors.
            pool.aborted.fetch_add(1, Ordering::Relaxed);
            pool.remaining.fetch_sub(1, Ordering::AcqRel);
            return;
        }
    };
    task.slices += 1;
    let ran = task.session.steps_taken() - steps_before;
    pool.steps_done.fetch_add(ran, Ordering::Relaxed);
    if let Some(started) = started {
        if let Some(ns_per_step) = (started.elapsed().as_nanos() as u64).checked_div(ran) {
            latencies.samples.push((ns_per_step, ran.min(u32::MAX as u64) as u32));
        }
    }
    if task.session.is_finished() {
        if let Some(hook) = &pool.checkpoint {
            // The session is done; its parked state is obsolete.
            let _ = hook.store.remove(task.id);
        }
        let steps = task.session.steps_taken();
        let SessionTask { id, tenant, session, events, slices, .. } = task;
        let report = session.finish();
        // Encode here, on the worker, after the latency sample closed:
        // the stream is final, and the serial fold after the drain then
        // only moves bytes. The event buffer dies with `events`.
        let events_jsonl =
            events.map(|cell| cell.lock().unwrap_or_else(|p| p.into_inner()).to_jsonl());
        pool.done.lock().unwrap_or_else(|p| p.into_inner()).push(FinishedTask {
            id,
            tenant,
            report,
            events_jsonl,
            slices,
            steps,
        });
        let completed = pool.completed.fetch_add(1, Ordering::Relaxed) + 1;
        if pool.checkpoint_every > 0 && completed.is_multiple_of(pool.checkpoint_every) {
            let point = Checkpoint {
                wall_secs: pool.started.elapsed().as_secs_f64(),
                sessions_done: completed,
                steps_done: pool.steps_done.load(Ordering::Relaxed),
            };
            pool.checkpoints.lock().unwrap_or_else(|p| p.into_inner()).push(point);
        }
        pool.remaining.fetch_sub(1, Ordering::AcqRel);
    } else {
        if let Some(hook) = &pool.checkpoint {
            let ran_total = task.session.steps_taken();
            if hook.every_steps > 0 && ran_total - task.last_ckpt_steps >= hook.every_steps {
                // Between steps is the only sound snapshot point, and the
                // end of a slice is exactly that. Write failures are
                // counted by the store and never fatal to the session —
                // durability degrades, the crawl does not.
                task.last_ckpt_steps = ran_total;
                let _ = hook.store.save(&task.to_stored());
            }
        }
        pool.locals[me].lock().unwrap().push_back(task);
    }
}

/// Runs one quantum of a recovered session's replay, with no sink and no
/// latency sample; the steps still count toward the step limit. The slice
/// that reaches the checkpoint's step count checks the session there:
/// a session that passes gets its sink and is requeued to run on (its
/// cadence counting from the checkpoint), and one that fails has its file
/// quarantined and leaves the pool.
fn replay_slice(pool: &Pool, me: usize, mut task: SessionTask) {
    let Some(quantum) = quantum(pool) else {
        pool.locals[me].lock().unwrap().push_back(task);
        return;
    };
    let steps_before = task.session.steps_taken();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let replay = task.replay.as_deref().expect("a replaying task");
        let checked = match task.session.advance_replay(&replay.checkpoint, quantum as u64) {
            Ok(true) => {
                let Replay { checkpoint, sink } = *task.replay.take().expect("a replaying task");
                task.session.resume(&checkpoint, sink)
            }
            Ok(false) => Ok(()),
            Err(err) => Err(err),
        };
        (task, checked)
    }));
    let Ok((mut task, checked)) = outcome else {
        pool.aborted.fetch_add(1, Ordering::Relaxed);
        pool.remaining.fetch_sub(1, Ordering::AcqRel);
        return;
    };
    task.slices += 1;
    pool.steps_done.fetch_add(task.session.steps_taken() - steps_before, Ordering::Relaxed);
    match checked {
        Ok(()) => {
            if task.replay.is_none() {
                task.last_ckpt_steps = task.session.steps_taken();
                if let Some(hook) = &pool.checkpoint {
                    hook.store.note_restored();
                }
            }
            pool.locals[me].lock().unwrap().push_back(task);
        }
        Err(err) => {
            let reason = err.to_string();
            if let Some(hook) = &pool.checkpoint {
                hook.store.quarantine(task.id, &reason);
            }
            let SessionTask { id, tenant, .. } = task;
            let quarantined = QuarantinedTask { id, tenant, reason };
            pool.quarantined.lock().unwrap_or_else(|p| p.into_inner()).push(quarantined);
            pool.remaining.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_quantiles_interpolate_over_steps() {
        let lat = StepLatencies { samples: vec![(100, 90), (1_000, 10)], dispatch: vec![] };
        assert_eq!(lat.total_steps(), 100);
        assert_eq!(lat.quantile_ns(0.5), Some(100));
        assert_eq!(lat.quantile_ns(0.99), Some(1_000));
        assert_eq!(StepLatencies::default().quantile_ns(0.5), None);
    }

    #[test]
    fn empty_and_zero_weight_sample_sets_have_no_quantile() {
        assert_eq!(StepLatencies::default().quantile_ns(0.0), None);
        assert_eq!(StepLatencies::default().quantile_ns(1.0), None);
        // Zero-weight samples carry no steps: still no quantile.
        let lat = StepLatencies { samples: vec![(500, 0), (900, 0)], dispatch: vec![] };
        assert_eq!(lat.quantile_ns(0.5), None);
        assert_eq!(lat.total_steps(), 0);
    }

    #[test]
    fn single_sample_answers_every_quantile() {
        let lat = StepLatencies { samples: vec![(250, 1)], dispatch: vec![] };
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(lat.quantile_ns(q), Some(250));
        }
    }

    #[test]
    fn out_of_range_quantiles_clamp() {
        let lat = StepLatencies { samples: vec![(100, 50), (1_000, 50)], dispatch: vec![] };
        assert_eq!(lat.quantile_ns(-3.0), Some(100));
        assert_eq!(lat.quantile_ns(7.5), Some(1_000));
        assert_eq!(lat.quantile_ns(f64::NAN), Some(100)); // NaN clamps to the floor
    }

    #[test]
    fn zero_weight_samples_do_not_skew_quantiles() {
        // A zero-weight outlier below the real data must not become the
        // answer for low quantiles.
        let lat = StepLatencies { samples: vec![(1, 0), (100, 10)], dispatch: vec![] };
        assert_eq!(lat.quantile_ns(0.0), Some(100));
        assert_eq!(lat.quantile_ns(1.0), Some(100));
    }

    #[test]
    fn near_max_weights_do_not_overflow() {
        // Five slices each claiming u32::MAX steps: the step total would
        // overflow u32 math and stress f64 rounding; the saturating sum
        // and clamped target keep every quantile inside the sample set.
        let w = u32::MAX;
        let lat = StepLatencies {
            samples: vec![(10, w), (20, w), (30, w), (40, w), (50, w)],
            dispatch: vec![],
        };
        assert_eq!(lat.total_steps(), 5 * u64::from(w));
        assert_eq!(lat.quantile_ns(0.0), Some(10));
        assert_eq!(lat.quantile_ns(0.5), Some(30));
        assert_eq!(lat.quantile_ns(1.0), Some(50));
    }
}
