//! Crash-kill smoke test: SIGKILL a real `mak-cli serve` process mid-run
//! and prove the survivors resume from their on-disk checkpoints to
//! results bit-identical with an uninterrupted run.
//!
//! The serve-crate tests (`crates/serve/tests/recovery.rs`) drop the
//! service in-process, which exercises the restore path but not the one
//! failure mode checkpoints exist for: the operating system taking the
//! process away mid-write with no destructors run. This test does it for
//! real — a child process, `SIGKILL` (what [`std::process::Child::kill`]
//! sends on Unix), a fresh process recovering from whatever bytes made
//! it to disk.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const CLI: &str = env!("CARGO_BIN_EXE_mak-cli");

/// A scratch checkpoint dir under the system temp dir, scoped to this
/// process so parallel test runs never share state.
fn tmp_ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mak-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Parses the per-session table `mak-cli serve` prints into
/// `seed -> whole row` (whitespace-normalized). Rows are pure functions
/// of `(app, crawler, seed, config)`, so equal rows mean equal reports.
fn session_rows(stdout: &str) -> BTreeMap<u64, String> {
    let mut rows = BTreeMap::new();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() == 5 {
            if let Ok(seed) = fields[0].parse::<u64>() {
                rows.insert(seed, fields.join(" "));
            }
        }
    }
    rows
}

/// The live checkpoint files in `dir` (temp files of in-flight writes
/// excluded).
fn checkpoint_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    entries
        .flatten()
        .filter(|e| {
            e.path().extension().is_some_and(|x| x == "ckpt")
                && !e.file_name().to_string_lossy().starts_with('.')
        })
        .map(|e| e.path())
        .collect()
}

fn any_checkpoint_on_disk(dir: &Path) -> bool {
    !checkpoint_files(dir).is_empty()
}

/// Whether some checkpoint records a session past step 0, i.e. one
/// written mid-run rather than at admission. Read-only: a file is never
/// moved, and one that vanishes between listing and reading is skipped.
fn any_mid_run_checkpoint(dir: &Path) -> bool {
    checkpoint_files(dir).iter().any(|path| {
        let Ok(raw) = std::fs::read(path) else { return false };
        let text = String::from_utf8_lossy(&raw);
        text.find("\"steps\":").is_some_and(|at| {
            let digits: String =
                text[at + 8..].chars().take_while(|c| c.is_ascii_digit()).collect();
            digits.parse::<u64>().is_ok_and(|steps| steps > 0)
        })
    })
}

#[test]
fn sigkilled_serve_resumes_bit_identically() {
    let dir = tmp_ckpt_dir("sigkill");
    // Enough work that the child cannot finish before we see a mid-run
    // checkpoint land: 16 sessions × ~900 virtual steps each, with a
    // checkpoint every 4 steps past each 64-step slice.
    let workload =
        ["serve", "phpbb2", "--crawler", "mak", "--seeds", "16", "--seed", "7", "--minutes", "30"];

    // Ground truth: the same workload, uninterrupted, no durability.
    let truth_out = Command::new(CLI)
        .args(workload)
        .env("MAK_LOG", "off")
        .output()
        .expect("run uninterrupted serve");
    assert!(truth_out.status.success(), "uninterrupted run failed: {truth_out:?}");
    let truth = session_rows(&String::from_utf8_lossy(&truth_out.stdout));
    assert_eq!(truth.len(), 16, "expected one row per seed");

    // Crash run: same workload with checkpoints on; SIGKILL the child the
    // moment some checkpoint records a session past step 0, so the resume
    // replays a real prefix (an admission checkpoint replays nothing).
    let mut child = Command::new(CLI)
        .args(workload)
        .args(["--checkpoint-dir", dir.to_str().unwrap(), "--checkpoint-every", "4"])
        .env("MAK_LOG", "off")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve child");
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut saw_checkpoint = false;
    while Instant::now() < deadline {
        if any_mid_run_checkpoint(&dir) {
            saw_checkpoint = true;
            break;
        }
        if child.try_wait().expect("poll child").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().expect("SIGKILL the serve child");
    child.wait().expect("reap the serve child");
    assert!(
        saw_checkpoint && any_mid_run_checkpoint(&dir),
        "no mid-run checkpoint survived the kill — workload too small"
    );

    // Recovery: a fresh process picks up whatever survived the kill.
    let resumed_out = Command::new(CLI)
        .args(["serve", "phpbb2", "--resume", "--checkpoint-dir", dir.to_str().unwrap()])
        .env("MAK_LOG", "off")
        .output()
        .expect("run resume");
    let resumed_stdout = String::from_utf8_lossy(&resumed_out.stdout);
    assert!(resumed_out.status.success(), "resume failed: {resumed_out:?}");
    assert!(
        !resumed_stdout.contains("no sessions to resume"),
        "SIGKILL landed after a checkpoint existed, so recovery must find work"
    );
    let resumed = session_rows(&resumed_stdout);
    assert!(!resumed.is_empty(), "resume printed no session rows:\n{resumed_stdout}");

    // Every recovered session finishes exactly as if never interrupted.
    // Sessions admitted but killed before their first checkpoint are
    // legitimately absent — the loss window the cadence bounds.
    for (seed, row) in &resumed {
        assert_eq!(Some(row), truth.get(seed), "seed {seed} diverged after crash recovery");
    }

    // Completion consumed the checkpoints; nothing was quarantined.
    assert!(!any_checkpoint_on_disk(&dir), "finished sessions must remove their checkpoints");
    let quarantined = std::fs::read_dir(dir.join("quarantine")).map(|it| it.count()).unwrap_or(0);
    assert_eq!(quarantined, 0, "a clean kill must not quarantine anything");
    let _ = std::fs::remove_dir_all(&dir);
}
