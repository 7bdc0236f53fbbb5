//! Chaos harness for the serve daemon: SIGKILL a live daemon at a
//! randomized point in its input stream (or abort it from an injected
//! crash point inside a WAL append / checkpoint write), recover with
//! `--resume` + `--wal`, and require the stitched run's telemetry to be
//! byte-identical to an uninterrupted reference run — at a different
//! resume `--edge-threads`, in both serve modes, under the ci_smoke
//! fault scenario.
//!
//! The kill points come from a seeded generator (`0xC0FFEE`; override
//! with the `CHAOS_SEED` env var). Every assertion message carries the
//! seed so a CI failure is reproducible locally.

#![cfg(unix)]

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use cne_core::wal;
use cne_core::Checkpoint;

const BIN: &str = env!("CARGO_BIN_EXE_carbon-edge");
const FAULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/ci_smoke.json");
const DEFAULT_CHAOS_SEED: u64 = 0xC0FFEE;
const SLOTS: usize = 12;
const EDGES: usize = 4;
const SEED: &str = "7";

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_CHAOS_SEED)
}

/// splitmix64 — deterministic kill-point generator, no dependencies.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cne-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The known arrival schedule: `rows[t][e]` requests for edge `e` in
/// slot `t`. The upstream source can re-send any suffix of it, which is
/// exactly what crash recovery needs.
fn rows() -> Vec<Vec<u64>> {
    (0..SLOTS)
        .map(|t| (0..EDGES).map(|e| ((t * 7 + e * 3) % 5) as u64).collect())
        .collect()
}

/// The full wire stream: one request line per `(slot, edge)` with
/// traffic, then an explicit `slot_end` per slot.
fn full_stream() -> Vec<String> {
    let rows = rows();
    let mut lines = Vec::new();
    for row in &rows {
        for (e, &c) in row.iter().enumerate() {
            if c > 0 {
                lines.push(format!("{{\"edge\":{e},\"count\":{c}}}"));
            }
        }
        lines.push("{\"slot_end\":true}".to_owned());
    }
    lines
}

/// What the source re-sends after a crash: the open slot's missing
/// arrivals (full row minus what the WAL already acknowledged), then
/// every later slot verbatim.
fn remainder_stream(cursor: usize, open: &[u64]) -> Vec<String> {
    let rows = rows();
    let mut lines = Vec::new();
    for (t, row) in rows.iter().enumerate().skip(cursor) {
        for (e, &want) in row.iter().enumerate() {
            let have = if t == cursor { open[e] } else { 0 };
            assert!(
                have <= want,
                "WAL acknowledged {have} requests for edge {e} in slot {t}, \
                 but the source only ever sent {want}"
            );
            if want > have {
                lines.push(format!("{{\"edge\":{e},\"count\":{}}}", want - have));
            }
        }
        lines.push("{\"slot_end\":true}".to_owned());
    }
    lines
}

/// Base `serve` invocation; every run shares the deterministic knobs so
/// traces are comparable.
fn serve_cmd(per_request: bool, extra: &[&str]) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.arg("serve")
        .args(["--quick", "--edges", "4", "--slots", "12"])
        .args(["--seed", SEED, "--policy", "ours", "--faults", FAULTS]);
    if per_request {
        cmd.arg("--serve-per-request");
    }
    cmd.args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

/// Runs a daemon to completion over the given lines; returns its output.
fn run_to_completion(mut cmd: Command, lines: &[String]) -> Output {
    let mut child = cmd.spawn().expect("spawn daemon");
    let mut stdin = child.stdin.take().expect("stdin");
    for line in lines {
        // EPIPE is expected when the daemon dies mid-stream (crash
        // injection) or finishes its horizon early.
        if writeln!(stdin, "{line}").is_err() {
            break;
        }
    }
    drop(stdin);
    child.wait_with_output().expect("wait")
}

/// The uninterrupted reference run's telemetry bytes.
fn reference_trace(dir: &Path, per_request: bool) -> Vec<u8> {
    let out = dir.join("ref.jsonl");
    let output = run_to_completion(
        serve_cmd(
            per_request,
            &["--telemetry", out.to_str().expect("utf-8 path")],
        ),
        &full_stream(),
    );
    assert!(
        output.status.success(),
        "reference run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    std::fs::read(&out).expect("reference telemetry")
}

/// Feeds `kill_after` lines to a daemon, waits for its WAL to stop
/// growing (it has durably acknowledged everything it will), then
/// SIGKILLs it. The stdin pipe stays open throughout — EOF would make
/// the daemon pad out the horizon and exit cleanly instead.
fn run_and_kill(mut cmd: Command, lines: &[String], kill_after: usize, waldir: &Path) {
    let mut child = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let mut stdin = child.stdin.take().expect("stdin");
    for line in &lines[..kill_after] {
        writeln!(stdin, "{line}").expect("write stream");
    }
    stdin.flush().expect("flush stream");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last = usize::MAX;
    let mut stable = 0;
    while Instant::now() < deadline && stable < 4 {
        std::thread::sleep(Duration::from_millis(75));
        let n = wal::read_records(waldir).map_or(0, |r| r.records.len());
        if n == last && n > 0 {
            stable += 1;
        } else {
            stable = 0;
            last = n;
        }
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");
    drop(stdin);
}

/// Reconstructs the recovered cursor the same way `--resume` will: the
/// checkpoint's covered prefix plus the WAL tail's closed slots, and
/// the open slot's acknowledged arrivals.
fn recovered_state(ckpt: &Path, waldir: &Path) -> (usize, Vec<u64>) {
    let start = if ckpt.exists() {
        Checkpoint::load(ckpt)
            .expect("readable checkpoint")
            .arrivals
            .len()
    } else {
        0
    };
    let recovery = wal::read_records(waldir).expect("scan WAL");
    let tail = wal::replay(&recovery.records, EDGES, start as u64).expect("replay");
    (start + tail.closed.len(), tail.open)
}

/// Resumes a crashed run and returns `(daemon output, telemetry bytes)`.
fn resume_run(
    dir: &Path,
    waldir: &Path,
    ckpt: &Path,
    per_request: bool,
    edge_threads: &str,
) -> (Output, Vec<u8>) {
    let (cursor, open) = recovered_state(ckpt, waldir);
    assert!(cursor < SLOTS, "daemon was killed after its horizon");
    resume_with(
        dir,
        waldir,
        ckpt,
        per_request,
        &["--edge-threads", edge_threads],
        &remainder_stream(cursor, &open),
    )
}

/// Resumes a crashed run over `lines` with `extra` flags; returns
/// `(daemon output, telemetry bytes)`.
fn resume_with(
    dir: &Path,
    waldir: &Path,
    ckpt: &Path,
    per_request: bool,
    extra: &[&str],
    lines: &[String],
) -> (Output, Vec<u8>) {
    let out = dir.join(format!("resume-{}.jsonl", extra.join("")));
    let mut args = vec![
        "--resume",
        ckpt.to_str().expect("utf-8 path"),
        "--checkpoint",
        ckpt.to_str().expect("utf-8 path"),
        "--checkpoint-every",
        "3",
        "--wal",
        waldir.to_str().expect("utf-8 path"),
        "--telemetry",
        out.to_str().expect("utf-8 path"),
    ];
    args.extend_from_slice(extra);
    let output = run_to_completion(serve_cmd(per_request, &args), lines);
    assert!(
        output.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    (output, std::fs::read(&out).expect("resumed telemetry"))
}

/// SIGKILL at seeded random stream offsets, across fsync policies,
/// serve modes, and resume edge-thread counts: recovery is always
/// byte-identical to the uninterrupted run.
#[test]
fn sigkill_recovery_is_bit_identical() {
    let seed = chaos_seed();
    let mut rng = seed;
    eprintln!("chaos seed   : {seed:#x} (override with CHAOS_SEED)");
    let lines = full_stream();

    // (per_request, wal_sync, resume edge threads)
    let grid = [
        (false, "every", "4"),
        (false, "slot", "1"),
        (false, "off", "4"),
        (true, "slot", "1"),
    ];
    for (i, (per_request, wal_sync, threads)) in grid.into_iter().enumerate() {
        let dir = temp_dir(&format!("kill{i}"));
        let reference = reference_trace(&dir, per_request);
        let waldir = dir.join("wal");
        let ckpt = dir.join("state.ckpt");
        let kill_after = 1 + (next_rand(&mut rng) as usize) % (lines.len() - 1);
        run_and_kill(
            serve_cmd(
                per_request,
                &[
                    "--checkpoint",
                    ckpt.to_str().expect("utf-8 path"),
                    "--checkpoint-every",
                    "3",
                    "--wal",
                    waldir.to_str().expect("utf-8 path"),
                    "--wal-sync",
                    wal_sync,
                    "--telemetry",
                    dir.join("chaos.jsonl").to_str().expect("utf-8 path"),
                ],
            ),
            &lines,
            kill_after,
            &waldir,
        );
        let (_, trace) = resume_run(&dir, &waldir, &ckpt, per_request, threads);
        assert_eq!(
            trace, reference,
            "telemetry diverged after SIGKILL at line {kill_after} \
             (chaos seed {seed:#x}, per_request={per_request}, \
             wal-sync={wal_sync}, resume threads {threads})"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// SIGKILL immediately after a group-committed burst: a batch of
/// request lines delivered as one pipe write, several of them for the
/// same edge, lands in the WAL as a single per-edge `Tally` (the group
/// commit must actually happen, not degrade to per-line appends, and
/// must count lines, not pairs), the surviving log is a clean record
/// prefix, and resuming from it reproduces the reference telemetry
/// byte-for-byte.
#[test]
fn group_commit_burst_survives_sigkill() {
    let dir = temp_dir("group-commit");
    let reference = reference_trace(&dir, false);
    let waldir = dir.join("wal");
    let ckpt = dir.join("state.ckpt");

    // Slot 0 complete, then slot 1's requests with no slot_end, each
    // count above 1 sent as a 1-request line and a later line for the
    // rest (per-slot totals, and so the trace, are unchanged): the
    // daemon is killed with slot 1 open but its burst durably
    // acknowledged as one coalesced record.
    let lines = full_stream();
    let slot0 = lines
        .iter()
        .position(|l| l.contains("slot_end"))
        .expect("slot 0 end")
        + 1;
    let row = &rows()[1];
    let line = |e: usize, c: u64| format!("{{\"edge\":{e},\"count\":{c}}}");
    let mut open_lines: Vec<String> = (0..EDGES)
        .filter(|&e| row[e] > 0)
        .map(|e| line(e, 1))
        .collect();
    open_lines.extend(
        (0..EDGES)
            .filter(|&e| row[e] > 1)
            .map(|e| line(e, row[e] - 1)),
    );
    let open_edges = row.iter().filter(|&&c| c > 0).count();
    assert!(open_lines.len() > open_edges, "the burst repeats edges");
    let burst = [&lines[..slot0], &open_lines[..]].concat().join("\n") + "\n";

    let mut child = serve_cmd(
        false,
        &[
            "--checkpoint",
            ckpt.to_str().expect("utf-8 path"),
            "--checkpoint-every",
            "3",
            "--wal",
            waldir.to_str().expect("utf-8 path"),
            "--wal-sync",
            "every",
            "--telemetry",
            dir.join("chaos.jsonl").to_str().expect("utf-8 path"),
        ],
    )
    .stdout(Stdio::null())
    .stderr(Stdio::null())
    .spawn()
    .expect("spawn daemon");
    let mut stdin = child.stdin.take().expect("stdin");
    // One write syscall: the whole burst reaches the block reader as a
    // single chunk, so the daemon must coalesce it into one record.
    stdin.write_all(burst.as_bytes()).expect("write burst");
    stdin.flush().expect("flush burst");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last = usize::MAX;
    let mut stable = 0;
    while Instant::now() < deadline && stable < 4 {
        std::thread::sleep(Duration::from_millis(75));
        let n = wal::read_records(&waldir).map_or(0, |r| r.records.len());
        if n == last && n > 0 {
            stable += 1;
        } else {
            stable = 0;
            last = n;
        }
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");
    drop(stdin);

    // The surviving log is a readable prefix and the burst was group
    // committed: slot 1 is one tally covering every burst line, with
    // one pair per edge.
    let recovery = wal::read_records(&waldir).expect("clean WAL prefix after SIGKILL");
    let slot1: Vec<&wal::WalRecord> = recovery
        .records
        .iter()
        .filter(|r| matches!(r, wal::WalRecord::Tally { slot: 1, .. }))
        .collect();
    assert!(
        matches!(
            slot1[..],
            [wal::WalRecord::Tally { lines, pairs, .. }]
                if *lines == open_lines.len() as u64 && pairs.len() == open_edges
        ),
        "burst was not group committed as one tally: {:?}",
        recovery.records
    );
    let tail = wal::replay(&recovery.records, EDGES, 0).expect("replay");
    assert_eq!(
        tail.open_lines,
        open_lines.len() as u64,
        "a tally must replay per-line accounting"
    );
    assert_eq!(&tail.open, row, "the burst's counts, per edge");

    let (_, trace) = resume_run(&dir, &waldir, &ckpt, false, "4");
    assert_eq!(
        trace, reference,
        "telemetry diverged after SIGKILL mid group-committed burst"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--slot-requests` across a crash: SIGKILL with the open slot's
/// first lines logged as tallies, resume, and re-send the stream from
/// the first line the WAL did not acknowledge. The resumed slot must
/// close at the same line as the uninterrupted run, so the trace is
/// byte-identical. The logged lines are all `count: 0`: they move no
/// count, so only the tallies' line totals carry them across the crash.
#[test]
fn slot_requests_resume_mid_slot_from_a_tally() {
    const PER_SLOT: usize = 6;
    let dir = temp_dir("slot-requests");
    let waldir = dir.join("wal");
    let ckpt = dir.join("state.ckpt");
    let per_slot = PER_SLOT.to_string();
    // Edges 0–2 only, rotating per slot, so every slot repeats edges;
    // counts 0, 0, 0, 1, 2, 3 within each slot.
    let lines: Vec<String> = (0..SLOTS * PER_SLOT)
        .map(|i| {
            format!(
                "{{\"edge\":{},\"count\":{}}}",
                (i + i / PER_SLOT) % 3,
                (i % PER_SLOT).saturating_sub(2)
            )
        })
        .collect();

    let reference = dir.join("ref.jsonl");
    let output = run_to_completion(
        serve_cmd(
            false,
            &[
                "--slot-requests",
                &per_slot,
                "--telemetry",
                reference.to_str().expect("utf-8 path"),
            ],
        ),
        &lines,
    );
    assert!(
        output.status.success(),
        "reference run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let reference = std::fs::read(&reference).expect("reference telemetry");

    // Past the slot-3 checkpoint, halfway into slot 4.
    let kill_after = 4 * PER_SLOT + PER_SLOT / 2;
    run_and_kill(
        serve_cmd(
            false,
            &[
                "--slot-requests",
                &per_slot,
                "--checkpoint",
                ckpt.to_str().expect("utf-8 path"),
                "--checkpoint-every",
                "3",
                "--wal",
                waldir.to_str().expect("utf-8 path"),
                "--telemetry",
                dir.join("chaos.jsonl").to_str().expect("utf-8 path"),
            ],
        ),
        &lines,
        kill_after,
        &waldir,
    );
    let start = Checkpoint::load(&ckpt)
        .expect("slot-3 checkpoint")
        .arrivals
        .len();
    assert_eq!(start, 3);
    let recovery = wal::read_records(&waldir).expect("scan WAL");
    assert!(
        recovery
            .records
            .iter()
            .any(|r| matches!(r, wal::WalRecord::Tally { slot: 4, .. })),
        "the open slot is logged as tallies: {:?}",
        recovery.records
    );
    let tail = wal::replay(&recovery.records, EDGES, start as u64).expect("replay");
    let acked = (start + tail.closed.len()) * PER_SLOT + tail.open_lines as usize;
    assert_eq!(
        (start + tail.closed.len(), tail.open_lines as usize),
        (4, PER_SLOT / 2),
        "slot 4 is open and partly logged"
    );
    assert_eq!(tail.open, vec![0; EDGES], "only count: 0 lines so far");
    assert_eq!(acked, kill_after);

    let (resumed, trace) = resume_with(
        &dir,
        &waldir,
        &ckpt,
        false,
        &["--slot-requests", &per_slot],
        &lines[acked..],
    );
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(
        stdout.contains(&format!("and {} open-slot request line(s)", PER_SLOT / 2)),
        "resume banner: {stdout}"
    );
    assert_eq!(
        trace, reference,
        "telemetry diverged after a --slot-requests resume mid-slot"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Injected crash points inside the storage layer itself — a torn WAL
/// append, a torn checkpoint temp file, a fully written but un-renamed
/// checkpoint — all recover bit-identically, and the torn WAL tail is
/// reported (then truncated), never a panic.
#[test]
fn injected_crash_points_recover_bit_identically() {
    let cases = [
        ("wal-torn-append:5", true),
        ("ckpt-torn-tmp:1", false),
        ("ckpt-pre-rename:2", false),
    ];
    for (spec, expect_torn) in cases {
        let tag = spec.split(':').next().expect("point");
        let dir = temp_dir(tag);
        let reference = reference_trace(&dir, false);
        let waldir = dir.join("wal");
        let ckpt = dir.join("state.ckpt");
        let mut cmd = serve_cmd(
            false,
            &[
                "--checkpoint",
                ckpt.to_str().expect("utf-8 path"),
                "--checkpoint-every",
                "3",
                "--wal",
                waldir.to_str().expect("utf-8 path"),
                "--telemetry",
                dir.join("chaos.jsonl").to_str().expect("utf-8 path"),
            ],
        );
        cmd.env("CARBON_EDGE_CRASH", spec);
        let output = run_to_completion(cmd, &full_stream());
        assert!(!output.status.success(), "{spec} must abort the daemon");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("\"event\":\"crash_injected\""),
            "{spec}: missing crash event in {stderr}"
        );

        let (resumed, trace) = resume_run(&dir, &waldir, &ckpt, false, "4");
        let resumed_err = String::from_utf8_lossy(&resumed.stderr);
        if expect_torn {
            assert!(
                resumed_err.contains("\"event\":\"wal_torn_tail\""),
                "{spec}: torn tail not reported in {resumed_err}"
            );
        }
        assert_eq!(trace, reference, "telemetry diverged after {spec}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A fresh (non-`--resume`) start refuses to clobber a WAL directory
/// that still holds a previous run's segments.
#[test]
fn fresh_start_refuses_existing_wal() {
    let dir = temp_dir("clobber");
    let waldir = dir.join("wal");
    let (mut handle, _) = wal::Wal::open(&waldir, wal::WalOptions::default()).expect("seed WAL");
    handle
        .append(&wal::WalRecord::SlotClose { slot: 0 })
        .expect("append");
    drop(handle);

    let output = run_to_completion(
        serve_cmd(false, &["--wal", waldir.to_str().expect("utf-8 path")]),
        &[],
    );
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("already holds WAL segments"),
        "missing clobber refusal in {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Hostile wire input end-to-end: garbage within the `--max-bad-lines`
/// budget is rejected line-by-line without touching the deterministic
/// run; a blown budget kills the daemon with a structured error.
#[test]
fn bad_line_budget_is_enforced_end_to_end() {
    let garbage = [
        "### not json at all",
        "{\"edge\": \"zero\"}",
        "{\"edge\": 0, \"count\": -3}",
    ];

    // Within budget: the run completes and matches the clean reference.
    let dir = temp_dir("budget-ok");
    let reference = reference_trace(&dir, false);
    let mut lines = full_stream();
    for (i, g) in garbage.iter().enumerate() {
        lines.insert(i * 7, (*g).to_owned());
    }
    let out = dir.join("noisy.jsonl");
    let output = run_to_completion(
        serve_cmd(false, &["--telemetry", out.to_str().expect("utf-8 path")]),
        &lines,
    );
    assert!(
        output.status.success(),
        "in-budget garbage must not kill the daemon: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("\"event\":\"bad_line\""),
        "rejections must be logged: {stderr}"
    );
    assert_eq!(
        std::fs::read(&out).expect("telemetry"),
        reference,
        "garbage lines leaked into the deterministic trace"
    );
    std::fs::remove_dir_all(&dir).ok();

    // Blown budget: a structured fatal error, not a hang or a panic.
    let dir = temp_dir("budget-blown");
    let mut lines: Vec<String> = garbage.iter().map(|g| (*g).to_owned()).collect();
    lines.push("more garbage".to_owned());
    lines.extend(full_stream());
    let output = run_to_completion(serve_cmd(false, &["--max-bad-lines", "2"]), &lines);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("too many bad wire lines"),
        "missing budget error in {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A `count` that would overflow the slot's request total is rejected
/// as a bad line before it reaches the accumulator or the WAL, so the
/// live run and its recovery fold identical arrivals: a daemon
/// SIGKILLed in the open slot right after a `count=u64::MAX` line and a
/// rejected `count=2` line resumes byte-identically to an uninterrupted
/// run over the same hostile stream.
#[test]
fn count_overflow_is_rejected_and_resumes_bit_identically() {
    // The hostile lines open slot 5, where edge 0 has no ordinary
    // traffic: u64::MAX fits, and every later request of the slot
    // (the `count=2` line, then edges 1–3's rows) would overflow it.
    const SLOT: usize = 5;
    assert_eq!(rows()[SLOT][0], 0);
    let overflowing = 1 + rows()[SLOT].iter().filter(|&&c| c > 0).count();
    let hostile = [
        format!("{{\"edge\":0,\"count\":{}}}", u64::MAX),
        "{\"edge\":0,\"count\":2}".to_owned(),
    ];
    let mut lines = full_stream();
    let slot_start = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains("slot_end"))
        .nth(SLOT - 1)
        .map(|(i, _)| i + 1)
        .expect("slot boundary");
    lines.splice(slot_start..slot_start, hostile.iter().cloned());

    let dir = temp_dir("count-overflow");
    let out = dir.join("ref.jsonl");
    let output = run_to_completion(
        serve_cmd(false, &["--telemetry", out.to_str().expect("utf-8 path")]),
        &lines,
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "hostile reference run failed: {stderr}"
    );
    let rejected: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("\"event\":\"bad_line\""))
        .collect();
    assert_eq!(rejected.len(), overflowing, "{stderr}");
    assert!(
        rejected[0].contains(r#""snippet":"{\"edge\":0,\"count\":2}""#),
        "the count=2 line must be the first rejected: {}",
        rejected[0]
    );
    for line in &rejected {
        assert!(
            line.contains("count overflows the slot accumulator"),
            "{line}"
        );
    }
    let reference = std::fs::read(&out).expect("reference telemetry");

    // Kill inside the hostile slot, after both hostile lines and one
    // (rejected) ordinary request have been processed.
    let waldir = dir.join("wal");
    let ckpt = dir.join("state.ckpt");
    run_and_kill(
        serve_cmd(
            false,
            &[
                "--checkpoint",
                ckpt.to_str().expect("utf-8 path"),
                "--checkpoint-every",
                "3",
                "--wal",
                waldir.to_str().expect("utf-8 path"),
                "--wal-sync",
                "every",
                "--telemetry",
                dir.join("chaos.jsonl").to_str().expect("utf-8 path"),
            ],
        ),
        &lines,
        slot_start + hostile.len() + 1,
        &waldir,
    );
    let (cursor, open) = recovered_state(&ckpt, &waldir);
    assert_eq!(cursor, SLOT, "killed in the wrong slot");
    assert_eq!(
        open[0],
        u64::MAX,
        "the WAL must hold the accepted count and nothing of the rejected one"
    );
    // The source re-sends the open slot's unacknowledged remainder —
    // rejected again on resume, exactly as in the reference; edge 0's
    // hostile count is already acknowledged in full.
    let mut acknowledged = open.clone();
    acknowledged[0] = 0;
    let out = dir.join("resumed.jsonl");
    let output = run_to_completion(
        serve_cmd(
            false,
            &[
                "--resume",
                ckpt.to_str().expect("utf-8 path"),
                "--wal",
                waldir.to_str().expect("utf-8 path"),
                "--telemetry",
                out.to_str().expect("utf-8 path"),
            ],
        ),
        &remainder_stream(cursor, &acknowledged),
    );
    assert!(
        output.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(
        std::fs::read(&out).expect("resumed telemetry"),
        reference,
        "telemetry diverged after resuming across a count overflow"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--slots` beyond the workload trace is an actionable startup error
/// naming the trace length, never a panic.
#[test]
fn slots_beyond_the_workload_trace_is_an_error() {
    let output = Command::new(BIN)
        .args(["serve", "--quick", "--edges", "2", "--slots", "41"])
        .stdin(Stdio::null())
        .output()
        .expect("run daemon");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("--slots 41 exceeds the workload trace, which has 40 slots"),
        "{stderr}"
    );
}

/// A persistently failing checkpoint path flips the daemon into
/// degraded-durability mode (structured event, retries logged) but the
/// run itself keeps serving and still produces the reference trace.
#[test]
fn persistent_checkpoint_failure_degrades_but_serves() {
    let dir = temp_dir("degraded");
    let reference = reference_trace(&dir, false);
    let out = dir.join("degraded.jsonl");
    let ckpt = dir.join("no-such-dir").join("state.ckpt");
    let output = run_to_completion(
        serve_cmd(
            false,
            &[
                "--checkpoint",
                ckpt.to_str().expect("utf-8 path"),
                "--checkpoint-every",
                "6",
                "--telemetry",
                out.to_str().expect("utf-8 path"),
            ],
        ),
        &full_stream(),
    );
    assert!(
        output.status.success(),
        "a durability failure must not kill the run: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("\"event\":\"checkpoint_retry\""),
        "retries must be logged: {stderr}"
    );
    assert!(
        stderr.contains("\"event\":\"durability_degraded\""),
        "degradation must be announced: {stderr}"
    );
    assert_eq!(
        std::fs::read(&out).expect("telemetry"),
        reference,
        "degraded mode leaked into the deterministic trace"
    );
    std::fs::remove_dir_all(&dir).ok();
}
