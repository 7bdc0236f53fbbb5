//! The untraced end-to-end run: one operator lifecycle of the real
//! `carbon-edge serve` binary over unix sockets.
//!
//! Start the daemon in a fresh directory, stream the workload's slots
//! into its data socket, SIGKILL it at the workload's kill slot,
//! restart it with `--resume` in the same directory, stream the rest,
//! and let it exit with its summary. `/metrics` on the admin socket
//! tells the generator when a slot has been served.

use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::gen::{self, Spec, Stream, CHECKPOINT_EVERY};
use crate::oracle::{self, Expected};
use crate::proc::{self, Proc, RunDir, Usage};
use crate::stats;

/// How long the generator waits for one slot to be served.
const SLOT_TIMEOUT: Duration = Duration::from_secs(60);
/// Slot-close latencies the closed loop keeps to time its scrapes.
const RECENT: usize = 32;
/// Slots after each daemon start whose close times are not sampled.
/// The first slots fault in pages and fill caches: slot 0 of `fleet`
/// takes about three times the steady-state time. That cost is paid
/// once per start, not on every slot. Left in, these slots fill most of
/// the 16 places above a lifecycle's p90, and the p90 then swings with
/// their exact order.
const WARMUP_SLOTS: usize = 16;
/// Shortest pause between two scrapes of a closed loop.
const MIN_POLL: Duration = Duration::from_micros(100);

/// Everything one lifecycle measured.
#[derive(Debug, Default)]
pub struct Lifecycle {
    /// Spawn → data socket accepts, first daemon.
    pub setup_s: f64,
    /// SIGKILL → restarted daemon accepts on its data socket.
    pub recovery_s: f64,
    /// First wire byte → final exit, less the kill-to-ready gap.
    pub stream_s: f64,
    /// Spawn of the first daemon → exit of the second.
    pub wall_s: f64,
    /// `slot_end` written → `/metrics` shows the slot served, per slot,
    /// leaving out the first [`WARMUP_SLOTS`] after each start.
    pub slot_close_ms: Vec<f64>,
    /// Peak RSS of either daemon (MiB) and their summed CPU time.
    pub usage: Usage,
    /// RSS of the first daemon right after set-up, MiB.
    pub rss_after_setup_mb: f64,
    /// Duration of each `/metrics` scrape, µs.
    pub scrape_us: Vec<f64>,
    /// Body length of each `/metrics` page scraped, bytes.
    pub page_bytes: Vec<f64>,
    /// Closed loop: served slot observed → next slot's first byte, µs.
    pub lateness_us: Vec<f64>,
    /// Lines the daemons rejected (`bad_line` events).
    pub bad_lines: u64,
    /// Why the final summary or trace failed its oracle, if it did.
    pub mismatch: Option<String>,
}

/// The `serve` command line for `spec` in its run directory.
fn serve_args(spec: &Spec, seed: u64, resume: bool) -> Vec<String> {
    let mut args: Vec<String> = [
        "serve",
        "--edges",
        &spec.edges.to_string(),
        "--seed",
        &seed.to_string(),
        "--policy",
        oracle::POLICY,
        "--listen",
        "unix:data.sock",
        "--admin",
        "unix:admin.sock",
        "--telemetry",
        "trace.jsonl",
        "--wal",
        "wal",
        "--wal-sync",
        spec.wal_sync,
        "--checkpoint",
        "state.ckpt",
        "--checkpoint-every",
        &CHECKPOINT_EVERY.to_string(),
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    if resume {
        args.extend(["--resume".to_owned(), "state.ckpt".to_owned()]);
    }
    args
}

/// What the `/metrics` poller has seen of one daemon.
struct Progress {
    /// Highest `serve_next_slot` seen.
    latest: AtomicU64,
    /// When each `serve_next_slot` value was first seen.
    seen_at: Mutex<Vec<Option<Instant>>>,
    /// Scrape durations (µs) and page lengths (bytes).
    scrapes: Mutex<Vec<(f64, f64)>>,
    /// A scrape failed: the daemon may have exited.
    gone: AtomicBool,
}

impl Progress {
    fn new(start: u64) -> Self {
        Self {
            latest: AtomicU64::new(start),
            seen_at: Mutex::new(vec![None; gen::HORIZON + 1]),
            scrapes: Mutex::new(Vec::new()),
            gone: AtomicBool::new(false),
        }
    }

    /// One scrape; records any advance. `Ok(latest)` on success.
    fn poll(&self, admin: &Path) -> Result<u64, String> {
        let started = Instant::now();
        let (next, page_bytes) = proc::scrape(admin).inspect_err(|_| {
            self.gone.store(true, Ordering::SeqCst);
        })?;
        let now = Instant::now();
        self.scrapes
            .lock()
            .expect("scrape log lock")
            .push(((now - started).as_secs_f64() * 1e6, page_bytes as f64));
        let prev = self.latest.load(Ordering::SeqCst);
        if let Some(next) = next.filter(|&n| n > prev && n as usize <= gen::HORIZON) {
            let mut seen = self.seen_at.lock().expect("progress lock");
            for slot in prev + 1..=next {
                seen[slot as usize] = Some(now);
            }
            self.latest.store(next, Ordering::SeqCst);
        }
        Ok(self.latest.load(Ordering::SeqCst))
    }
}

/// One daemon process of the lifecycle, from spawn to ready.
struct Daemon {
    proc: Proc,
    data: UnixStream,
    ready_at: Instant,
}

fn start(dir: &RunDir, bin: &Path, spec: &Spec, seed: u64, resume: bool) -> Result<Daemon, String> {
    let tag = if resume { "resumed" } else { "first" };
    let mut proc = dir.spawn(bin, &serve_args(spec, seed, resume), tag)?;
    let data = match proc::connect_when_ready(&dir.join("data.sock"), &mut proc) {
        Ok(data) => data,
        Err(e) => {
            let _ = proc.sigkill();
            let _ = proc.reap();
            return Err(format!("{e}: {}", dir.read(&format!("{tag}.err")).trim()));
        }
    };
    Ok(Daemon {
        proc,
        data,
        ready_at: Instant::now(),
    })
}

/// Streams slots `from..to` into `daemon`, recording when each
/// `slot_end` was written, and returns once slot `to - 1` is served
/// (or, for the final slot, once the daemon has stopped answering).
fn stream_slots(
    daemon: &mut Daemon,
    dir: &RunDir,
    spec: &Spec,
    stream: &Stream,
    from: usize,
    to: usize,
    out: &mut Lifecycle,
) -> Result<(), String> {
    let admin = dir.join("admin.sock");
    let progress = Arc::new(Progress::new(from as u64));
    let mut ends: Vec<(usize, Instant)> = Vec::with_capacity(to - from);
    let stop = Arc::new(AtomicBool::new(false));
    let poller = (!spec.closed_loop).then(|| {
        let (progress, stop, admin, poll) =
            (progress.clone(), stop.clone(), admin.clone(), spec.poll);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let _ = progress.poll(&admin);
                std::thread::sleep(poll);
            }
        })
    });
    let result: Result<(), String> = (|| {
        let mut served_seen: Option<Instant> = None;
        let mut recent: Vec<f64> = Vec::with_capacity(RECENT);
        for t in from..to {
            if let Some(seen) = served_seen.take() {
                out.lateness_us.push(seen.elapsed().as_secs_f64() * 1e6);
            }
            daemon
                .data
                .write_all(&stream.slots[t])
                .map_err(|e| format!("writing slot {t}: {e}"))?;
            let end = Instant::now();
            ends.push((t, end));
            if spec.closed_loop || t + 1 == to {
                // Scrape only from 70% of the recent median latency on:
                // a slot served sooner reads as served at that point,
                // which is still below the median, so the median and
                // every higher percentile are unchanged, while the
                // daemon shares its cores with far fewer scrapes.
                // After that, scrape every 5% of it (within the
                // workload's bounds), so the time a scrape adds stays a
                // small, fixed share of the latency being measured.
                let (quiet, poll) = match stats::median(&recent) {
                    Ok(m) => (
                        Duration::from_secs_f64(0.7 * m / 1e3),
                        Duration::from_secs_f64(0.05 * m / 1e3).clamp(MIN_POLL, spec.poll),
                    ),
                    Err(_) => (Duration::ZERO, spec.poll),
                };
                std::thread::sleep(quiet);
                served_seen = wait_served(&progress, &admin, spec.closed_loop, poll, t, to)?;
                if let Some(seen) = served_seen {
                    if recent.len() == RECENT {
                        recent.remove(0);
                    }
                    recent.push((seen - end).as_secs_f64() * 1e3);
                }
            }
        }
        Ok(())
    })();
    stop.store(true, Ordering::SeqCst);
    if let Some(poller) = poller {
        poller.join().map_err(|_| "the /metrics poller panicked")?;
    }
    result?;
    let seen = progress.seen_at.lock().expect("progress lock");
    for &(t, end) in ends.iter().skip(WARMUP_SLOTS) {
        if let Some(served) = seen[t + 1] {
            out.slot_close_ms
                .push(served.saturating_duration_since(end).as_secs_f64() * 1e3);
        }
    }
    for &(us, bytes) in progress.scrapes.lock().expect("scrape log lock").iter() {
        out.scrape_us.push(us);
        out.page_bytes.push(bytes);
    }
    Ok(())
}

/// Waits until slot `t` is served. The final slot of the run may be
/// missed when the daemon exits before a scrape sees it.
fn wait_served(
    progress: &Progress,
    admin: &Path,
    scrape: bool,
    poll: Duration,
    t: usize,
    to: usize,
) -> Result<Option<Instant>, String> {
    let started = Instant::now();
    let last_of_run = to == gen::HORIZON && t + 1 == to;
    loop {
        let latest = if scrape {
            progress
                .poll(admin)
                .unwrap_or_else(|_| progress.latest.load(Ordering::SeqCst))
        } else {
            progress.latest.load(Ordering::SeqCst)
        };
        if latest > t as u64 {
            return Ok(Some(Instant::now()));
        }
        if last_of_run && progress.gone.load(Ordering::SeqCst) {
            return Ok(None);
        }
        if started.elapsed() > SLOT_TIMEOUT {
            return Err(format!("slot {t} not served within 60 s"));
        }
        std::thread::sleep(poll);
    }
}

fn bad_lines(text: &str) -> u64 {
    text.matches("\"event\":\"bad_line\"").count() as u64
}

/// Runs one lifecycle in `dir_path` and checks its output.
///
/// # Errors
/// Fails when a daemon cannot be started or stops answering; an output
/// mismatch is reported in [`Lifecycle::oracle`] instead.
pub fn lifecycle(
    bin: &Path,
    spec: &Spec,
    seed: u64,
    stream: &Stream,
    expected: &Expected,
    dir_path: PathBuf,
) -> Result<Lifecycle, String> {
    let dir = RunDir::fresh(dir_path)?;
    let kill = gen::kill_slot(seed);
    let mut out = Lifecycle::default();

    let spawned = Instant::now();
    let mut first = start(&dir, bin, spec, seed, false)?;
    out.setup_s = (first.ready_at - spawned).as_secs_f64();
    out.rss_after_setup_mb = first.proc.rss_mb().unwrap_or(0.0);
    let streaming = Instant::now();
    let streamed = stream_slots(&mut first, &dir, spec, stream, 0, kill, &mut out);
    let killed = Instant::now();
    first.proc.sigkill()?;
    let first_usage = first.proc.reap()?;
    streamed?;
    let before_kill = killed - streaming;

    let mut second = start(&dir, bin, spec, seed, true)?;
    out.recovery_s = (second.ready_at - killed).as_secs_f64();
    let streamed = stream_slots(
        &mut second,
        &dir,
        spec,
        stream,
        kill,
        gen::HORIZON,
        &mut out,
    );
    if streamed.is_err() {
        let _ = second.proc.sigkill();
    }
    let second_usage = second.proc.reap()?;
    let exited = Instant::now();
    streamed?;
    drop(second.data);
    out.stream_s = (before_kill + (exited - second.ready_at)).as_secs_f64();
    out.wall_s = (exited - spawned).as_secs_f64();
    out.usage = Usage {
        cpu_s: first_usage.cpu_s + second_usage.cpu_s,
        peak_rss_mb: first_usage.peak_rss_mb.max(second_usage.peak_rss_mb),
        success: second_usage.success,
    };
    out.bad_lines = bad_lines(&dir.read("first.err")) + bad_lines(&dir.read("resumed.err"));
    let stdout = dir.read("resumed.out");
    out.mismatch = if second_usage.success {
        let trace = std::fs::read(dir.join("trace.jsonl")).unwrap_or_default();
        oracle::check(expected, &stdout, &trace).err()
    } else {
        Some(format!(
            "resumed daemon failed: {}",
            dir.read("resumed.err").trim()
        ))
    };
    Ok(out)
}
