//! The durability contract, adversarially: park a live service mid-run
//! (gracefully or by simulated crash), restore it into a fresh service,
//! and every recovered session's final report — and the event stream
//! past the `SessionResumed` marker — is byte-identical to never having
//! stopped. Corrupt checkpoints are quarantined and counted, never
//! trusted, and never abort the recovery of their neighbors.
//!
//! Every checkpoint directory is tmpdir-scoped and removed on success;
//! nothing leaks into `results/`.

use mak::framework::engine::{CrawlReport, EngineConfig};
use mak::spec::CRAWLER_NAMES;
use mak_browser::fault::FaultPlan;
use mak_serve::{
    CrawlService, ScheduleOrder, ServiceConfig, SessionSpec, SubmitError, TenantQuota,
};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mak-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn engine_config(profile: &str) -> EngineConfig {
    // ~60 virtual steps per minute on this cost model: two minutes keeps
    // every crash point below well under half the workload's step total,
    // so partial runs always strand sessions mid-budget.
    let mut cfg = EngineConfig::with_budget_minutes(2.0);
    if profile != "none" {
        cfg.faults = FaultPlan::profile(profile).expect("known fault profile");
    }
    cfg
}

/// One session per registry crawler, all on PhpBB2, events recorded.
fn workload(profile: &str) -> Vec<SessionSpec> {
    CRAWLER_NAMES
        .iter()
        .enumerate()
        .map(|(i, crawler)| {
            SessionSpec::new("recovery", "phpbb2", *crawler, 40 + i as u64)
                .config(engine_config(profile))
                .record_events(true)
        })
        .collect()
}

fn durable_config(dir: &Path, order: ScheduleOrder) -> ServiceConfig {
    // Two virtual minutes is ~61 steps on this cost model, so slices and
    // cadence are shrunk below a session's lifetime: sessions interleave
    // across many slices and checkpoint several times each.
    ServiceConfig {
        threads: 4,
        steps_per_slice: 8,
        order,
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every_steps: 16,
        ..ServiceConfig::default()
    }
}

/// Uninterrupted truth, keyed by session id (= submission index).
fn uninterrupted(profile: &str) -> BTreeMap<u64, (CrawlReport, Vec<u8>)> {
    let mut service = CrawlService::new(ServiceConfig::default());
    for spec in workload(profile) {
        service.submit(spec).unwrap();
    }
    service
        .run_to_drain()
        .into_iter()
        .map(|c| (c.id, (c.report, c.events_jsonl.expect("events recorded"))))
        .collect()
}

/// A recovered session's stream must be `SessionResumed` plus exactly
/// the uninterrupted run's suffix.
fn assert_resumed_stream(recovered: &[u8], truth: &[u8], context: &str) {
    let newline = recovered
        .iter()
        .position(|&b| b == b'\n')
        .unwrap_or_else(|| panic!("{context}: empty recovered stream"));
    let first = std::str::from_utf8(&recovered[..newline]).unwrap();
    assert!(
        first.contains("\"SessionResumed\""),
        "{context}: stream must open with SessionResumed, got {first}"
    );
    let suffix = &recovered[newline + 1..];
    assert!(
        truth.ends_with(suffix),
        "{context}: post-resume events are not a suffix of the uninterrupted stream \
         ({} suffix bytes vs {} truth bytes)",
        suffix.len(),
        truth.len()
    );
}

/// The tentpole matrix: all six crawlers × {none, heavy} fault profiles
/// × three adversarial schedule orders. Run partway, drain to disk, kill
/// the service, recover into a fresh one, finish — final reports are
/// byte-identical to uninterrupted runs and recovered event streams
/// splice cleanly.
#[test]
fn graceful_drain_and_recover_is_bit_identical() {
    for profile in ["none", "heavy"] {
        let truth = uninterrupted(profile);
        for (oi, order) in
            [ScheduleOrder::RoundRobin, ScheduleOrder::Lifo, ScheduleOrder::Random(0xFEED)]
                .into_iter()
                .enumerate()
        {
            let context = format!("profile={profile} order={order:?}");
            let dir = tmpdir(&format!("graceful-{profile}-{oi}"));
            let mut service = CrawlService::new(durable_config(&dir, order));
            for spec in workload(profile) {
                service.submit(spec).unwrap();
            }
            // Stop partway through the drain, then park the survivors.
            let early = service.run_for_steps(150);
            let parked = service.drain().unwrap();
            assert_eq!(
                early.len() as u64 + parked,
                CRAWLER_NAMES.len() as u64,
                "{context}: every session either completed early or parked"
            );
            assert!(parked > 0, "{context}: the crash point must strand some sessions");
            assert_eq!(service.in_flight(), 0, "{context}: drain releases quota slots");
            drop(service);

            // "Process restart": a brand-new service over the same dir.
            let mut revived = CrawlService::new(durable_config(&dir, order));
            let recovery = revived.recover().unwrap();
            assert_eq!(recovery.restored, parked, "{context}");
            assert_eq!(recovery.corrupt_quarantined, 0, "{context}");
            assert!(recovery.rejected.is_empty(), "{context}");
            let late = revived.run_to_drain();
            assert_eq!(revived.aborted(), 0, "{context}");

            let mut all: BTreeMap<u64, _> = BTreeMap::new();
            for c in early {
                all.insert(c.id, (c.report, c.events_jsonl.unwrap(), false));
            }
            for c in late {
                all.insert(c.id, (c.report, c.events_jsonl.unwrap(), true));
            }
            assert_eq!(all.len(), truth.len(), "{context}: no session lost or duplicated");
            for (id, (report, events, resumed)) in &all {
                let (truth_report, truth_events) = &truth[id];
                assert_eq!(report, truth_report, "{context}: report diverged for session {id}");
                if *resumed {
                    assert_resumed_stream(events, truth_events, &format!("{context} id={id}"));
                } else {
                    assert_eq!(
                        events, truth_events,
                        "{context}: pre-crash completion diverged for session {id}"
                    );
                }
            }
            // Completed sessions scrub their checkpoints; the live dir
            // holds nothing once everything drained.
            let leftovers = fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
                .count();
            assert_eq!(leftovers, 0, "{context}: recovered sessions scrub their files");
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// A hard crash: the service is dropped with no drain call at all. Only
/// admission-time and cadence checkpoints exist; recovered sessions replay
/// from their last one, finish bit-identically, and none goes missing.
/// The crash points cover sessions that crossed several cadence
/// boundaries and a crash before any session reached its first, where
/// only the admission-time checkpoints can bring the sessions back.
#[test]
fn hard_crash_recovers_from_cadence_checkpoints() {
    let truth = uninterrupted("heavy");
    for (cadence, crash_at) in [(16, 200), (8, 200), (8, 4)] {
        let context = format!("cadence {cadence}, crash at step {crash_at}");
        let dir = tmpdir(&format!("hard-crash-{cadence}-{crash_at}"));
        let config = |order| ServiceConfig {
            checkpoint_every_steps: cadence,
            ..durable_config(&dir, order)
        };
        let mut service = CrawlService::new(config(ScheduleOrder::RoundRobin));
        for spec in workload("heavy") {
            service.submit(spec).unwrap();
        }
        let early = service.run_for_steps(crash_at);
        // No drain(): simulate SIGKILL by dropping the live service.
        drop(service);

        let mut revived = CrawlService::new(config(ScheduleOrder::Lifo));
        let recovery = revived.recover().unwrap();
        assert!(recovery.restored > 0, "{context}: unfinished sessions must be restored");
        assert_eq!(recovery.corrupt_quarantined, 0, "{context}");
        let late = revived.run_to_drain();
        assert_eq!(late.len() as u64, recovery.restored, "{context}");
        assert_eq!(early.len() + late.len(), truth.len(), "{context}: a session was lost");
        for c in early.iter().chain(&late) {
            let (truth_report, _) = &truth[&c.id];
            assert_eq!(&c.report, truth_report, "{context}: session {} diverged", c.id);
        }
        let restores =
            revived.metrics().registry().counter_value("mak_serve_checkpoint_restores_total", &[]);
        assert_eq!(restores, recovery.restored as f64, "{context}");
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// Corrupt checkpoints — bit-flipped, truncated, torn, or garbage — are
/// quarantined and counted; the intact neighbors recover and finish
/// bit-identically. Recovery never panics on hostile bytes.
#[test]
fn corrupt_checkpoints_are_quarantined_never_trusted() {
    let truth = uninterrupted("none");
    let dir = tmpdir("corrupt");
    let mut service = CrawlService::new(durable_config(&dir, ScheduleOrder::RoundRobin));
    for spec in workload("none") {
        service.submit(spec).unwrap();
    }
    let early = service.run_for_steps(100);
    let parked = service.drain().unwrap();
    assert!(parked >= 3, "need at least three parked sessions to corrupt");
    drop(service);

    // Corrupt two parked files two different ways and drop a stray
    // non-checkpoint file into the directory for good measure.
    let mut parked_files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    parked_files.sort();
    let mut raw = fs::read(&parked_files[0]).unwrap();
    let mid = raw.len() / 2;
    raw[mid] ^= 0x01;
    fs::write(&parked_files[0], &raw).unwrap();
    let raw = fs::read(&parked_files[1]).unwrap();
    fs::write(&parked_files[1], &raw[..raw.len() - 7]).unwrap();
    fs::write(dir.join("README.txt"), b"not a checkpoint").unwrap();

    let mut revived = CrawlService::new(durable_config(&dir, ScheduleOrder::RoundRobin));
    let recovery = revived.recover().unwrap();
    assert_eq!(recovery.corrupt_quarantined, 2);
    assert_eq!(recovery.restored, parked - 2);
    // The damaged files moved to quarantine/ for forensics.
    assert_eq!(fs::read_dir(dir.join("quarantine")).unwrap().count(), 2);
    // And the counter in the exposition agrees.
    let corrupt =
        revived.metrics().registry().counter_value("mak_serve_checkpoint_corrupt_total", &[]);
    assert_eq!(corrupt, 2.0);

    let late = revived.run_to_drain();
    for c in early.iter().chain(&late) {
        let (truth_report, _) = &truth[&c.id];
        assert_eq!(&c.report, truth_report, "survivor {} diverged", c.id);
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Recovery re-admits under the *current* quota: a tightened cap rejects
/// the overflow with a typed, hint-carrying error and leaves those
/// checkpoints on disk for a later attempt.
#[test]
fn recovery_respects_current_tenant_quotas() {
    let dir = tmpdir("quota");
    let mut service = CrawlService::new(durable_config(&dir, ScheduleOrder::RoundRobin));
    for spec in workload("none") {
        service.submit(spec).unwrap();
    }
    service.run_for_steps(100);
    let parked = service.drain().unwrap();
    assert!(parked >= 2);
    drop(service);

    let mut revived = CrawlService::new(durable_config(&dir, ScheduleOrder::RoundRobin));
    revived.set_quota("recovery", TenantQuota::concurrent(1));
    let recovery = revived.recover().unwrap();
    assert_eq!(recovery.restored, 1, "one slot, one re-admission");
    assert_eq!(recovery.rejected.len() as u64, parked - 1);
    for (_, err) in &recovery.rejected {
        assert!(matches!(err, SubmitError::QuotaExceeded { .. }), "rejections are typed: {err}");
    }
    // The rejected checkpoints are still on disk: widen the quota and a
    // second recovery picks them up.
    revived.set_quota("recovery", TenantQuota::default());
    let second = revived.recover().unwrap();
    assert_eq!(second.restored, parked - 1);
    assert_eq!(revived.run_to_drain().len() as u64, parked);
    fs::remove_dir_all(&dir).unwrap();
}

/// Durability off (the default) never touches the filesystem and drain()
/// is a typed error, not a silent no-op.
#[test]
fn drain_and_recover_require_a_checkpoint_dir() {
    let mut service = CrawlService::new(ServiceConfig::default());
    service.submit(workload("none").remove(0)).unwrap();
    assert!(service.drain().is_err());
    assert!(service.recover().is_err());
    // The session is still in flight and runnable.
    assert_eq!(service.run_to_drain().len(), 1);
}

/// Runs `specs` through a plain service, uninterrupted: the truth for
/// sessions whose specs differ from [`workload`]'s.
fn truth_of(specs: &[SessionSpec]) -> BTreeMap<u64, (CrawlReport, Vec<u8>, u64)> {
    let mut service = CrawlService::new(ServiceConfig::default());
    for spec in specs {
        service.submit(spec.clone()).unwrap();
    }
    service
        .run_to_drain()
        .into_iter()
        .map(|c| (c.id, (c.report, c.events_jsonl.expect("events recorded"), c.steps)))
        .collect()
}

/// Submits `specs` to a durable service over `dir`, runs it for
/// `crash_at` steps and parks the survivors. Returns the sessions that
/// completed before the park.
fn park(dir: &Path, specs: &[SessionSpec], crash_at: u64) -> Vec<mak_serve::CompletedSession> {
    let mut service = CrawlService::new(durable_config(dir, ScheduleOrder::RoundRobin));
    for spec in specs {
        service.submit(spec.clone()).unwrap();
    }
    let early = service.run_for_steps(crash_at);
    assert!(service.drain().unwrap() > 0, "the park point must strand some sessions");
    early
}

/// The live checkpoint files in `dir`, in session-id order.
fn parked_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    files.sort();
    files
}

/// Sessions that record spans park and recover with their span ids
/// continuing where they stopped: each recovered stream is
/// `SessionResumed` plus the uninterrupted run's suffix, `SpanClosed`
/// records and their ids included, and each report is unchanged.
#[test]
fn spanned_sessions_resume_with_continued_span_ids() {
    let specs: Vec<SessionSpec> =
        workload("heavy").into_iter().map(|spec| spec.record_spans(true)).collect();
    let truth = truth_of(&specs);
    let dir = tmpdir("spans");
    let early = park(&dir, &specs, 150);

    let mut revived = CrawlService::new(durable_config(&dir, ScheduleOrder::Lifo));
    let recovery = revived.recover().unwrap();
    assert!(recovery.restored > 0 && recovery.quarantined.is_empty(), "{recovery:?}");
    let late = revived.run_to_drain();
    assert_eq!(early.len() + late.len(), truth.len());
    for c in &late {
        let (report, events, _) = &truth[&c.id];
        assert_eq!(&c.report, report, "session {} diverged", c.id);
        let recovered = c.events_jsonl.as_deref().unwrap();
        let spans = recovered.windows(12).filter(|w| w == b"\"SpanClosed\"").count();
        assert!(spans > 0, "session {}: the resumed stream carries no spans", c.id);
        assert_resumed_stream(recovered, events, &format!("spanned session {}", c.id));
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// The field at `path` inside a JSON object tree, for editing in place.
fn field_mut<'a>(value: &'a mut serde::Value, path: &[&str]) -> &'a mut serde::Value {
    path.iter().fold(value, |node, key| match node {
        serde::Value::Object(entries) => {
            &mut entries.iter_mut().find(|(k, _)| k == key).unwrap_or_else(|| panic!("{key}")).1
        }
        other => panic!("{key}: not an object: {other:?}"),
    })
}

/// Rewrites a parked file with `edit` applied to its payload, under a
/// header and CRC that verify: the store's integrity check passes, and
/// only the replay can tell the file lies.
fn rewrite_checkpoint(path: &Path, edit: &dyn Fn(&mut serde::Value)) {
    let raw = fs::read(path).unwrap();
    let newline = raw.iter().position(|&b| b == b'\n').unwrap();
    let mut payload: serde::Value =
        serde_json::from_str(std::str::from_utf8(&raw[newline + 1..]).unwrap()).unwrap();
    edit(&mut payload);
    let payload = serde_json::to_string(&payload).unwrap();
    let crc = mak_serve::checkpoint::crc32(payload.as_bytes());
    let header =
        format!("makckpt {} {crc:08x} {}\n", mak_serve::checkpoint::STORE_VERSION, payload.len());
    fs::write(path, [header.as_bytes(), payload.as_bytes()].concat()).unwrap();
}

/// Hostile checkpoints that pass the CRC: each case changes one field of
/// one parked file. The file is quarantined with a reason naming that
/// field, `recover()` returns, and every untouched neighbour finishes
/// bit-identically to never having stopped. A lie about the spec is found
/// by `recover()` itself; a lie about where the steps lead is found by
/// the replay, which runs on the workers, so it is read after the drain.
#[test]
fn checkpoints_that_lie_are_quarantined_by_the_replay() {
    let specs = workload("none");
    let truth = truth_of(&specs);
    let setup = tmpdir("lies-setup");
    let early = park(&setup, &specs, 100);
    let originals: Vec<(String, Vec<u8>)> = parked_files(&setup)
        .iter()
        .map(|p| (p.file_name().unwrap().to_string_lossy().into_owned(), fs::read(p).unwrap()))
        .collect();
    assert!(originals.len() >= 2, "the lie needs an untouched neighbour");
    fs::remove_dir_all(&setup).unwrap();

    // The victim is the first parked session; its uninterrupted length
    // decides what "one step past the end" means.
    let victim_id: u64 =
        originals[0].0.trim_start_matches("session-").trim_end_matches(".ckpt").parse().unwrap();
    let total_steps = truth[&victim_id].2;
    let uint = |n: u64| serde::Value::UInt(n);
    let float = |x: f64| serde::Value::Float(x);
    type Edit = Box<dyn Fn(&mut serde::Value)>;
    let set = |path: &'static [&'static str], to: serde::Value| -> Edit {
        Box::new(move |v: &mut serde::Value| *field_mut(v, path) = to.clone())
    };
    // (case, field the reason names, found by the replay, edit)
    let cases: Vec<(&str, &str, bool, Edit)> = vec![
        (
            "interactions + 1",
            "interactions",
            true,
            Box::new(|v: &mut serde::Value| {
                let field = field_mut(v, &["checkpoint", "progress", "interactions"]);
                let serde::Value::UInt(n) = *field else { panic!("{field:?}") };
                *field = serde::Value::UInt(n + 1);
            }),
        ),
        (
            "elapsed_ms moved to the next float",
            "elapsed_ms",
            true,
            Box::new(|v: &mut serde::Value| {
                let field = field_mut(v, &["checkpoint", "progress", "elapsed_ms"]);
                let serde::Value::Float(t) = *field else { panic!("{field:?}") };
                *field = serde::Value::Float(f64::from_bits(t.to_bits() + 1));
            }),
        ),
        (
            "steps one past the end",
            "steps",
            true,
            set(&["checkpoint", "steps"], uint(total_steps + 1)),
        ),
        ("steps = u64::MAX", "steps", true, set(&["checkpoint", "steps"], uint(u64::MAX))),
        (
            "unknown app",
            "app",
            false,
            set(&["checkpoint", "app"], serde::Value::Str("geocities".into())),
        ),
        (
            "unknown crawler",
            "crawler",
            false,
            set(&["checkpoint", "crawler"], serde::Value::Str("googlebot".into())),
        ),
        (
            "budget 0",
            "budget_minutes",
            false,
            set(&["checkpoint", "config", "budget_minutes"], float(0.0)),
        ),
        (
            "budget NaN",
            "budget_minutes",
            false,
            set(&["checkpoint", "config", "budget_minutes"], float(f64::NAN)),
        ),
        (
            "sample interval 0",
            "sample_interval_secs",
            false,
            set(&["checkpoint", "config", "sample_interval_secs"], float(0.0)),
        ),
        ("version 1", "version", false, set(&["checkpoint", "version"], uint(1))),
        ("done mid-run", "done", true, set(&["checkpoint", "done"], serde::Value::Bool(true))),
    ];

    for (i, (case, field, by_replay, edit)) in cases.iter().enumerate() {
        let dir = tmpdir(&format!("lies-{i}"));
        let store = mak_serve::CheckpointStore::open(&dir).unwrap();
        for (name, bytes) in &originals {
            fs::write(store.dir().join(name), bytes).unwrap();
        }
        rewrite_checkpoint(&store.dir().join(&originals[0].0), edit.as_ref());

        let mut revived = CrawlService::new(durable_config(&dir, ScheduleOrder::RoundRobin));
        let recovery = revived.recover().unwrap();
        let late = if *by_replay {
            // `recover()` admits the lying file; the drain's replay finds it.
            assert_eq!(recovery.restored as usize, originals.len(), "{case}: {recovery:?}");
            let late = revived.run_to_drain();
            let quarantined = revived.last_quarantined();
            assert_eq!(quarantined.len(), 1, "{case}: {quarantined:?}");
            let (_, reason) = &quarantined[0];
            assert!(reason.contains(field), "{case}: the reason must name `{field}`: {reason}");
            assert_eq!(
                fs::read_dir(dir.join("quarantine")).unwrap().count(),
                1,
                "{case}: the lying file is kept as evidence"
            );
            late
        } else {
            assert_eq!(recovery.corrupt_quarantined, 1, "{case}: {recovery:?}");
            let (_, reason) = &recovery.quarantined[0];
            assert!(reason.contains(field), "{case}: the reason must name `{field}`: {reason}");
            assert_eq!(recovery.restored as usize, originals.len() - 1, "{case}");
            assert_eq!(
                fs::read_dir(dir.join("quarantine")).unwrap().count(),
                1,
                "{case}: the lying file is kept as evidence"
            );
            revived.run_to_drain()
        };
        let corrupt =
            revived.metrics().registry().counter_value("mak_serve_checkpoint_corrupt_total", &[]);
        assert_eq!(corrupt, 1.0, "{case}");
        assert_eq!(early.len() + late.len() + 1, truth.len(), "{case}");
        for c in &late {
            let (report, events, _) = &truth[&c.id];
            assert_eq!(&c.report, report, "{case}: neighbour {} diverged", c.id);
            assert_resumed_stream(c.events_jsonl.as_deref().unwrap(), events, case);
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// Parking a session that was just recovered, with no step between,
/// rewrites its checkpoint byte for byte: the replayed session is the
/// session it was parked as, span allocator included.
#[test]
fn reparking_a_recovered_service_rewrites_identical_checkpoints() {
    let specs: Vec<SessionSpec> = workload("heavy")
        .into_iter()
        .enumerate()
        .map(|(i, spec)| spec.record_spans(i % 2 == 0))
        .collect();
    let dir = tmpdir("repark");
    park(&dir, &specs, 150);
    let before: Vec<(PathBuf, Vec<u8>)> =
        parked_files(&dir).into_iter().map(|p| (p.clone(), fs::read(&p).unwrap())).collect();

    let mut revived = CrawlService::new(durable_config(&dir, ScheduleOrder::RoundRobin));
    let recovery = revived.recover().unwrap();
    assert_eq!(recovery.restored as usize, before.len(), "{recovery:?}");
    assert_eq!(revived.drain().unwrap() as usize, before.len());
    let after: Vec<(PathBuf, Vec<u8>)> =
        parked_files(&dir).into_iter().map(|p| (p.clone(), fs::read(&p).unwrap())).collect();
    assert_eq!(after.len(), before.len());
    for ((path, old), (_, new)) in before.iter().zip(&after) {
        assert!(old == new, "{} changed when re-parked", path.display());
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// The session id in a checkpoint file's name.
fn id_of(path: &Path) -> u64 {
    let name = path.file_name().unwrap().to_string_lossy();
    name.trim_start_matches("session-").trim_end_matches(".ckpt").parse().unwrap()
}

/// The step count a checkpoint file records.
fn recorded_steps(raw: &[u8]) -> u64 {
    let newline = raw.iter().position(|&b| b == b'\n').unwrap();
    let mut payload: serde::Value =
        serde_json::from_str(std::str::from_utf8(&raw[newline + 1..]).unwrap()).unwrap();
    match field_mut(&mut payload, &["checkpoint", "steps"]) {
        serde::Value::UInt(n) => *n,
        other => panic!("steps: {other:?}"),
    }
}

/// A checkpoint with a valid header and CRC, a budget of 1e9 virtual
/// minutes and a step count of `u64::MAX` costs only its own slices, as
/// a submission with that budget would. At one worker in round-robin
/// order, `recover()` returns, and within twice the neighbours' own step
/// total every neighbour finishes bit-identically while the hostile
/// session is still replaying; parked again, its file is unchanged.
#[test]
fn a_hostile_checkpoint_costs_only_its_own_slices() {
    let specs = workload("none");
    let truth = truth_of(&specs);
    let dir = tmpdir("hostile");
    let early = park(&dir, &specs, 100);
    let files = parked_files(&dir);
    assert!(files.len() >= 2, "the hostile file needs a neighbour");
    // MAK never runs out of things to try, so its replay runs until the
    // budget ends rather than stopping at a stuck crawler.
    let victim = files
        .iter()
        .find(|p| specs[id_of(p) as usize].crawler == "mak")
        .expect("the MAK session is parked")
        .clone();
    rewrite_checkpoint(&victim, &|v: &mut serde::Value| {
        *field_mut(v, &["checkpoint", "config", "budget_minutes"]) = serde::Value::Float(1e9);
        *field_mut(v, &["checkpoint", "steps"]) = serde::Value::UInt(u64::MAX);
    });
    let hostile = fs::read(&victim).unwrap();
    let neighbours: u64 = files.iter().filter(|p| **p != victim).map(|p| truth[&id_of(p)].2).sum();

    let config = ServiceConfig { threads: 1, ..durable_config(&dir, ScheduleOrder::RoundRobin) };
    let mut revived = CrawlService::new(config);
    let recovery = revived.recover().unwrap();
    assert_eq!(recovery.restored as usize, files.len(), "{recovery:?}");
    let late = revived.run_for_steps(2 * neighbours);
    assert_eq!(late.len(), files.len() - 1, "every neighbour completes");
    assert_eq!(early.len() + late.len() + 1, truth.len());
    for c in &late {
        let (report, events, _) = &truth[&c.id];
        assert_eq!(&c.report, report, "neighbour {} diverged", c.id);
        assert_resumed_stream(c.events_jsonl.as_deref().unwrap(), events, "hostile neighbour");
    }
    assert_eq!(revived.in_flight(), 1, "the hostile session is still replaying");
    assert!(revived.last_quarantined().is_empty(), "{:?}", revived.last_quarantined());
    assert_eq!(revived.drain().unwrap(), 1);
    assert!(fs::read(&victim).unwrap() == hostile, "the hostile file was re-parked changed");
    fs::remove_dir_all(&dir).unwrap();
}

/// A crash while recovered sessions replay. For each crash point k
/// through the replay window (until every replay has passed its checks),
/// recover, run k steps at one worker, drop the service, recover again
/// and drain: no session is lost or runs twice, every report is
/// byte-identical, and nothing was written for a session mid-replay —
/// each file left on disk is the parked one, byte for byte, or was
/// written after its session passed its checks, so it records more steps
/// than the parked one.
#[test]
fn crash_mid_replay_loses_nothing_and_writes_nothing_unverified() {
    let specs = workload("heavy");
    let truth = truth_of(&specs);
    let setup = tmpdir("mid-replay-setup");
    let early = park(&setup, &specs, 150);
    let parked: BTreeMap<u64, Vec<u8>> =
        parked_files(&setup).iter().map(|p| (id_of(p), fs::read(p).unwrap())).collect();
    fs::remove_dir_all(&setup).unwrap();
    assert!(parked.values().any(|raw| recorded_steps(raw) > 0), "some replay must take steps");
    let config =
        |dir: &Path| ServiceConfig { threads: 1, ..durable_config(dir, ScheduleOrder::RoundRobin) };
    let restores = |service: &CrawlService| {
        service.metrics().registry().counter_value("mak_serve_checkpoint_restores_total", &[])
    };

    let mut crash_at = 0;
    loop {
        let context = format!("crash at step {crash_at}");
        let dir = tmpdir(&format!("mid-replay-{crash_at}"));
        let store = mak_serve::CheckpointStore::open(&dir).unwrap();
        for (&id, raw) in &parked {
            fs::write(store.path_for(id), raw).unwrap();
        }
        let mut first = CrawlService::new(config(&dir));
        let recovery = first.recover().unwrap();
        assert_eq!(recovery.restored as usize, parked.len(), "{context}");
        let before = first.run_for_steps(crash_at);
        assert!(first.last_quarantined().is_empty(), "{context}");
        let passed = restores(&first);
        drop(first);

        let mut rewritten = 0;
        for (&id, raw) in &parked {
            match fs::read(store.path_for(id)) {
                Err(_) => assert!(
                    before.iter().any(|c| c.id == id),
                    "{context}: session {id} lost its file without completing"
                ),
                Ok(now) if now == *raw => {}
                Ok(now) => {
                    rewritten += 1;
                    assert!(
                        recorded_steps(&now) > recorded_steps(raw),
                        "{context}: session {id}'s file was rewritten mid-replay"
                    );
                }
            }
        }
        assert!(rewritten as f64 <= passed, "{context}: {rewritten} files, {passed} replays");

        let mut second = CrawlService::new(config(&dir));
        let again = second.recover().unwrap();
        assert_eq!(again.corrupt_quarantined, 0, "{context}: {again:?}");
        let after = second.run_to_drain();
        assert!(second.last_quarantined().is_empty(), "{context}");
        let mut ids: Vec<u64> = early.iter().chain(&before).chain(&after).map(|c| c.id).collect();
        ids.sort_unstable();
        let all: Vec<u64> = truth.keys().copied().collect();
        assert_eq!(ids, all, "{context}: a session was lost or ran twice");
        for c in before.iter().chain(&after) {
            let (report, events, _) = &truth[&c.id];
            assert_eq!(&c.report, report, "{context}: session {} diverged", c.id);
            let recovered = c.events_jsonl.as_deref().unwrap();
            assert_resumed_stream(recovered, events, &format!("{context} id={}", c.id));
        }
        fs::remove_dir_all(&dir).unwrap();
        if passed as usize == parked.len() {
            break;
        }
        crash_at += 1;
    }
}

/// Replayed steps are not drained steps. After `recover()` and
/// `run_to_drain()`, the latency samples cover exactly the steps each
/// session took past its parked checkpoint; after a drain of fresh
/// submissions they cover every step.
#[test]
fn latency_samples_cover_drained_steps_only() {
    let specs = workload("none");
    let dir = tmpdir("accounting");
    park(&dir, &specs, 100);
    let parked: BTreeMap<u64, u64> = parked_files(&dir)
        .iter()
        .map(|p| (id_of(p), recorded_steps(&fs::read(p).unwrap())))
        .collect();
    assert!(parked.values().any(|&steps| steps > 0), "some replay must take steps");

    let config =
        ServiceConfig { sample_latency: true, ..durable_config(&dir, ScheduleOrder::RoundRobin) };
    let mut revived = CrawlService::new(config);
    revived.recover().unwrap();
    let late = revived.run_to_drain();
    assert_eq!(late.len(), parked.len());
    let drained: u64 = late.iter().map(|c| c.steps - parked[&c.id]).sum();
    assert_eq!(revived.last_latencies().total_steps(), drained);

    let mut fresh =
        CrawlService::new(ServiceConfig { sample_latency: true, ..ServiceConfig::default() });
    for spec in specs {
        fresh.submit(spec).unwrap();
    }
    let done = fresh.run_to_drain();
    let steps: u64 = done.iter().map(|c| c.steps).sum();
    assert_eq!(fresh.last_latencies().total_steps(), steps);
    fs::remove_dir_all(&dir).unwrap();
}
