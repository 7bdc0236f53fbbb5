//! `carbon-edge serve` — a long-lived streaming daemon — and
//! `carbon-edge gen-arrivals`, its seeded request-stream generator.
//!
//! The daemon reads newline-delimited JSON request lines from stdin, a
//! Unix socket, or a TCP socket, accumulates them into the open slot,
//! and closes the slot on an explicit `{"slot_end": true}` marker, a
//! `--slot-requests` count, or a `--slot-ms` wall-clock deadline. Each
//! closed slot flows through the same `ServeSession` machinery the
//! batch driver uses, so a served trace is byte-comparable to a batch
//! replay of the same arrivals. Between slots the daemon can write a
//! versioned checkpoint (`--checkpoint`/`--checkpoint-every`), halt at
//! a planned slot (`--halt-at-slot`), or catch SIGINT/SIGTERM — and a
//! later `--resume` continues the run bit-identically. With `--wal DIR`
//! every arrival is also appended to a durable write-ahead log before
//! it is applied, so `--resume` recovers bit-identically even from a
//! SIGKILL or power loss: last checkpoint + WAL-tail replay. Ingest is
//! hardened against hostile clients (`--max-line-bytes`,
//! `--max-bad-lines`), transient transport/storage failures retry with
//! backoff, and persistent storage failures flip the daemon into an
//! explicit degraded-durability mode (503 on `/readyz`) instead of
//! killing it. The wire protocol, checkpoint format, and WAL format
//! are specified in `SERVING.md`.

use std::io::BufRead as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cne_core::combos::Combo;
use cne_core::wal::{self, Wal, WalOptions, WalRecord};
use cne_core::wire;
use cne_core::{Checkpoint, ServeOptions, ServeSession};
use cne_edgesim::ServeMode;
use cne_faults::WallRetry;
use cne_simdata::{ArrivalGen, ArrivalProcess};
use cne_util::expo;
use cne_util::json::Json;
use cne_util::telemetry::{Recorder, Value};
use cne_util::SeedSequence;

use crate::admin::{self, AdminState};
use crate::args::Options;
use crate::commands::{build_config, build_zoo, write_telemetry};

/// Interval at which the serve loop polls for shutdown signals while
/// no request line is pending.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Slots per synthetic day for `gen-arrivals` (matches the fast-test
/// workload cadence so a 40-slot quick horizon spans 2.5 days).
const SLOTS_PER_DAY: usize = 16;

/// Bucket upper bounds for the ops latency histograms, microseconds
/// (50µs … 1s; slower observations land in the overflow bucket).
const LATENCY_BOUNDS_US: [f64; 14] = [
    50.0,
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
    250_000.0,
    500_000.0,
    1_000_000.0,
];

/// Ops latency-histogram name → profiler span path, for the stages the
/// stepper times itself.
const STAGE_LATENCIES: [(&str, &str); 4] = [
    ("serve.latency.select_us", "slot/select"),
    ("serve.latency.trade_us", "slot/trade"),
    ("serve.latency.serve_us", "slot/serve"),
    ("serve.latency.feedback_us", "slot/feedback"),
];

#[cfg(unix)]
mod signals {
    //! Cooperative SIGINT/SIGTERM handling: the handler only flips an
    //! atomic flag (async-signal-safe); the serve loop polls it
    //! between slots and turns it into a checkpoint + clean exit.

    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    extern "C" fn handle(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub fn install() {
        // SAFETY: `signal` with a handler that only stores to an
        // atomic is async-signal-safe; both signals default to
        // process termination, so replacing them cannot lose any
        // behavior the daemon relies on.
        unsafe {
            signal(SIGINT, handle);
            signal(SIGTERM, handle);
        }
    }

    pub fn triggered() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}

    pub fn triggered() -> bool {
        false
    }
}

/// One parsed request-stream line (see [`cne_core::wire`]). The serve
/// loop composes the zero-alloc fast path with this strict reference
/// path per `--wire-decode`.
type WireLine = wire::WireMsg;

/// Parses one line of the wire protocol through the strict reference
/// decoder — full JSON parse, canonical error strings.
fn parse_line(line: &str, num_edges: usize) -> Result<WireLine, String> {
    wire::decode_strict(line, num_edges)
}

/// Transport read buffer, and therefore the upper bound on one
/// [`LineBlock`]. Large enough to amortize syscalls and channel sends
/// over thousands of wire lines, small enough that the group-commit
/// loss window after a hard kill (arrivals applied but not yet
/// WAL-flushed — at most one block) stays well under a second of
/// stream at any realistic rate.
const READ_CHUNK: usize = 256 * 1024;

/// Line blocks the transport reader may queue ahead of the serve loop.
/// Once they are queued the reader blocks, and a client that writes
/// faster than the daemon serves meets socket backpressure instead of
/// growing the daemon's memory: the queue holds at most this many
/// blocks, each at most one [`READ_CHUNK`] plus one carried
/// `--max-line-bytes` partial line. Eight
/// blocks are about 20 ms of decode at ten million lines per second,
/// so the serve loop does not wait on the reader while input flows.
const READ_AHEAD_BLOCKS: usize = 8;

/// Longest `bad_line` snippet shipped in events, in bytes.
const SNIPPET_MAX: usize = 64;

/// A batch of complete wire lines, shipped to the serve loop as one
/// buffer: raw bytes, `\n`-separated (the final line may omit the
/// terminator at EOF), never a partial line. One channel send and one
/// allocation cover the whole block, which is what lets the ingest
/// loop run at millions of lines per second.
struct LineBlock {
    /// Raw line bytes, each line within the `--max-line-bytes` cap
    /// unless it arrived whole inside one read chunk (the serve loop
    /// re-checks per line; the cap's *memory* bound is enforced here).
    data: Vec<u8>,
    /// Stream byte offset of `data[0]`, for `bad_line` diagnostics.
    offset: u64,
}

/// What the transport reader thread hands the serve loop. Transport
/// errors have already been retried; oversized lines that could not be
/// buffered have been classified and consumed. UTF-8 and length
/// classification of in-block lines happens in the serve loop, which
/// sees the raw bytes.
enum ReaderMsg {
    /// A batch of complete wire lines.
    Block(LineBlock),
    /// A line the reader rejected without shipping — oversized; the
    /// rest of it was discarded up to the next newline. Counts against
    /// the `--max-bad-lines` budget.
    Bad {
        /// Human-readable cause, for the structured stderr event.
        reason: String,
        /// Stream byte offset where the rejected line began.
        offset: u64,
        /// Up to [`SNIPPET_MAX`] bytes of the line, lossily decoded.
        snippet: String,
    },
    /// The transport died and stayed dead through the retry budget.
    Fatal(String),
}

/// An oversized line mid-discard: `read_blocks` stopped buffering it
/// and is counting bytes until the next newline.
struct Oversize {
    /// Stream byte offset where the line began.
    offset: u64,
    /// Content bytes seen so far (excluding the newline).
    total: usize,
    /// The line's first bytes, kept for the `bad_line` event.
    snippet: Vec<u8>,
}

impl Oversize {
    fn into_msg(self, max_line: usize) -> ReaderMsg {
        ReaderMsg::Bad {
            reason: format!(
                "line exceeds --max-line-bytes {max_line} ({} bytes discarded)",
                self.total
            ),
            offset: self.offset,
            snippet: snippet_of(&self.snippet),
        }
    }
}

/// Lossily decodes the first [`SNIPPET_MAX`] bytes of a line for a
/// `bad_line` event.
fn snippet_of(line: &[u8]) -> String {
    String::from_utf8_lossy(&line[..line.len().min(SNIPPET_MAX)]).into_owned()
}

/// One rejected wire line, as recorded by [`DaemonOps::record_bad_line`].
struct BadLine<'a> {
    /// Human-readable cause (canonical strict-path or reader text).
    reason: &'a str,
    /// Absolute stream byte offset where the line began.
    offset: u64,
    /// Up to [`SNIPPET_MAX`] bytes of the line, lossily decoded.
    snippet: &'a str,
}

/// The open slot's arrival accumulator: per-edge counts, their total,
/// and the number of request lines folded in (for `--slot-requests`),
/// plus the watermark of what the WAL already holds of them.
struct OpenSlot {
    counts: Vec<u64>,
    /// `Σ counts`, kept representable: a line that would overflow it is
    /// rejected (see [`classify_line`]), so every per-edge count and
    /// every per-slot request total downstream fits in a `u64`.
    total: u64,
    lines: usize,
    /// Per-edge counts as of the last WAL flush (see [`flush_arrivals`]).
    logged: Vec<u64>,
    /// `lines` as of the last WAL flush.
    logged_lines: usize,
}

impl OpenSlot {
    fn new(num_edges: usize) -> Self {
        Self {
            counts: vec![0; num_edges],
            total: 0,
            lines: 0,
            logged: vec![0; num_edges],
            logged_lines: 0,
        }
    }

    /// Pre-seeds the slot with the arrivals a WAL tail acknowledged;
    /// the log already holds them, so they are the watermark too.
    fn seed(&mut self, counts: Vec<u64>, lines: usize) {
        self.total = counts.iter().fold(0, |sum: u64, &c| sum.saturating_add(c));
        self.logged.clone_from(&counts);
        self.counts = counts;
        self.lines = lines;
        self.logged_lines = lines;
    }

    /// Folds in one request line [`classify_line`] accepted.
    fn add(&mut self, edge: usize, count: u64) {
        self.counts[edge] += count;
        self.total += count;
        self.lines += 1;
    }

    /// The arrivals folded in since the last flush, as `(lines, pairs)`
    /// with one `(edge, increment)` pair per edge whose count moved,
    /// in ascending edge order; advances the watermark past them.
    fn take_tally(&mut self) -> (u64, Vec<(u64, u64)>) {
        let pairs = self
            .counts
            .iter()
            .zip(&mut self.logged)
            .enumerate()
            .filter(|(_, (count, logged))| **count != **logged)
            .map(|(edge, (&count, logged))| {
                let moved = count - *logged;
                *logged = count;
                (edge as u64, moved)
            })
            .collect();
        let lines = (self.lines - self.logged_lines) as u64;
        self.logged_lines = self.lines;
        (lines, pairs)
    }

    fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.logged.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.lines = 0;
        self.logged_lines = 0;
    }
}

/// Classifies one raw wire line (without its newline) against the open
/// slot: `Ok(None)` for a blank line, `Err(reason)` for a line to reject
/// under `--max-bad-lines` — oversized, non-UTF-8, malformed, or a
/// count that would overflow the slot's request total. Rejection
/// happens before the line touches the accumulator or the WAL, so a
/// live run and its recovery always fold the same arrivals.
fn classify_line(
    line: &[u8],
    max_line_bytes: usize,
    use_fast: bool,
    open: &OpenSlot,
) -> Result<Option<WireLine>, String> {
    let num_edges = open.counts.len();
    // The reader's memory bound only catches lines that span read
    // chunks; one that arrived whole inside a block is rejected here,
    // with the same reason and accounting.
    if line.len() > max_line_bytes {
        return Err(format!(
            "line exceeds --max-line-bytes {max_line_bytes} ({} bytes discarded)",
            line.len()
        ));
    }
    // Fast path first (`--wire-decode fast`): a hit is certain to match
    // the strict path, and is pure ASCII, so the UTF-8/trim/parse
    // pipeline below can be skipped outright.
    let fast = if use_fast {
        wire::decode_fast(line, num_edges)
    } else {
        None
    };
    let parsed = match fast {
        Some(msg) => msg,
        None => {
            let text = std::str::from_utf8(line)
                .map_err(|_| format!("non-UTF-8 line ({} bytes)", line.len()))?;
            let trimmed = text.trim();
            if trimmed.is_empty() {
                return Ok(None);
            }
            parse_line(trimmed, num_edges)?
        }
    };
    if let WireLine::Request { count, .. } = parsed {
        if open.total.checked_add(count).is_none() {
            return Err(format!(
                "count overflows the slot accumulator ({} requests already in this \
                 slot, +{count})",
                open.total
            ));
        }
    }
    Ok(Some(parsed))
}

/// Counts one rejected wire line against `--max-bad-lines` and reports
/// it to operators; returns the fatal error once the budget is spent.
fn reject_line(
    bad: &BadLine<'_>,
    slot: u64,
    bad_lines: &mut u64,
    opts: &Options,
    ops: &mut DaemonOps,
) -> Option<String> {
    *bad_lines += 1;
    ops.record_bad_line(bad, slot, *bad_lines, opts.max_bad_lines);
    (*bad_lines > opts.max_bad_lines).then(|| {
        format!(
            "too many bad wire lines ({} rejected, --max-bad-lines {})",
            *bad_lines, opts.max_bad_lines
        )
    })
}

/// Group-commits the open slot: every request line applied since the
/// last flush goes out as one per-edge tally (one frame, unless it
/// touches more than [`wal::MAX_TALLY_PAIRS`] edges), whenever the line
/// count moved — a `count: 0` line is still a line. The write-ahead
/// invariant holds at batch granularity — a flush always precedes the
/// slot close, checkpoint, shutdown sync, or fatal exit that would
/// otherwise leave the log behind the applied state — so recovery
/// still replays a clean prefix of the stream, and a hard kill can
/// lose at most the current block's tail.
fn flush_arrivals(open: &mut OpenSlot, slot: u64, dur: &mut Durability, ops: &mut DaemonOps) {
    if open.lines == open.logged_lines {
        return;
    }
    let (lines, pairs) = open.take_tally();
    for record in WalRecord::tally_frames(slot, lines, &pairs) {
        dur.append(&record, ops);
    }
}

/// Drains one transport connection into the channel as line blocks.
/// Returns when the input ends, the receiver hangs up, or the
/// transport fails for good (after sending [`ReaderMsg::Fatal`]).
///
/// The reader never holds more than one read chunk plus one
/// `--max-line-bytes` partial line: a line that outgrows the cap
/// before its newline arrives flips into discard-and-count mode
/// ([`Oversize`]), exactly like the old bounded per-line reader.
fn pump<R: std::io::Read>(source: R, tx: &mpsc::SyncSender<ReaderMsg>, max_line: usize) {
    let mut reader = std::io::BufReader::with_capacity(READ_CHUNK, source);
    let retry = WallRetry::daemon_default();
    // Absolute stream offset of the next byte `fill_buf` returns.
    let mut pos: u64 = 0;
    // Partial line carried across read chunks, and its start offset.
    let mut carry: Vec<u8> = Vec::new();
    let mut carry_at: u64 = 0;
    let mut oversize: Option<Oversize> = None;
    loop {
        // Probe with retries first; `fill_buf` is then repeatable
        // without I/O while its buffer is non-empty, so the zero-copy
        // borrow below cannot hit a fresh transport error.
        let probe = retry.run(
            || match reader.fill_buf() {
                Ok(buf) => Ok(buf.len()),
                Err(e) => Err(format!("transport read failed: {e}")),
            },
            |attempt, err, delay| {
                eprintln!(
                    "{{\"event\":\"transport_retry\",\"attempt\":{attempt},\
                     \"delay_ms\":{},\"error\":{}}}",
                    delay.as_millis(),
                    Json::Str(err.to_owned()).encode()
                );
            },
        );
        let n = match probe {
            Ok(n) => n,
            Err(e) => {
                let _ = tx.send(ReaderMsg::Fatal(e));
                return;
            }
        };
        if n == 0 {
            // EOF: a pending partial line still counts (as with
            // `BufRead::lines`), and an oversized one is still bad.
            if let Some(over) = oversize.take() {
                let _ = tx.send(over.into_msg(max_line));
            } else if !carry.is_empty() {
                let _ = tx.send(ReaderMsg::Block(LineBlock {
                    data: std::mem::take(&mut carry),
                    offset: carry_at,
                }));
            }
            return;
        }
        let (msg, consumed) = {
            let chunk = match reader.fill_buf() {
                Ok(buf) => buf,
                Err(e) => {
                    let _ = tx.send(ReaderMsg::Fatal(format!("transport read failed: {e}")));
                    return;
                }
            };
            if let Some(over) = &mut oversize {
                // Discarding: count until the line's newline.
                match chunk.iter().position(|&b| b == b'\n') {
                    Some(nl) => {
                        over.total = over.total.saturating_add(nl);
                        let msg = oversize.take().expect("checked above").into_msg(max_line);
                        (Some(msg), nl + 1)
                    }
                    None => {
                        over.total = over.total.saturating_add(chunk.len());
                        (None, chunk.len())
                    }
                }
            } else {
                match chunk.iter().rposition(|&b| b == b'\n') {
                    Some(last) => {
                        // Complete lines available: ship carry + chunk
                        // up to the last newline as one block.
                        let block_at = if carry.is_empty() { pos } else { carry_at };
                        let mut data = std::mem::take(&mut carry);
                        data.extend_from_slice(&chunk[..=last]);
                        carry_at = pos + last as u64 + 1;
                        carry.extend_from_slice(&chunk[last + 1..]);
                        (
                            Some(ReaderMsg::Block(LineBlock {
                                data,
                                offset: block_at,
                            })),
                            chunk.len(),
                        )
                    }
                    None => {
                        if carry.is_empty() {
                            carry_at = pos;
                        }
                        carry.extend_from_slice(chunk);
                        (None, chunk.len())
                    }
                }
            }
        };
        reader.consume(consumed);
        pos += consumed as u64;
        // The carried partial line hit the cap: stop buffering it and
        // switch to counting (memory stays bounded by the cap).
        if oversize.is_none() && carry.len() > max_line {
            oversize = Some(Oversize {
                offset: carry_at,
                total: carry.len(),
                snippet: carry[..carry.len().min(SNIPPET_MAX)].to_vec(),
            });
            carry.clear();
            carry.shrink_to_fit();
        }
        if let Some(msg) = msg {
            if tx.send(msg).is_err() {
                return;
            }
        }
    }
}

/// Accepts one connection, retrying transient `accept()` failures with
/// backoff. Returns `None` (after sending [`ReaderMsg::Fatal`]) when
/// the listener fails for good.
fn accept_with_retry<L, S>(
    listener: &L,
    accept: impl Fn(&L) -> std::io::Result<S>,
    tx: &mpsc::SyncSender<ReaderMsg>,
) -> Option<S> {
    let retry = WallRetry::daemon_default();
    match retry.run(
        || accept(listener).map_err(|e| format!("accept failed: {e}")),
        |attempt, err, delay| {
            eprintln!(
                "{{\"event\":\"transport_retry\",\"attempt\":{attempt},\
                 \"delay_ms\":{},\"error\":{}}}",
                delay.as_millis(),
                Json::Str(err.to_owned()).encode()
            );
        },
    ) {
        Ok(stream) => Some(stream),
        Err(e) => {
            let _ = tx.send(ReaderMsg::Fatal(e));
            None
        }
    }
}

/// The reader → serve-loop channel, bounded at [`READ_AHEAD_BLOCKS`].
fn read_ahead_channel() -> (mpsc::SyncSender<ReaderMsg>, mpsc::Receiver<ReaderMsg>) {
    mpsc::sync_channel(READ_AHEAD_BLOCKS)
}

/// Spawns the transport reader: a thread that feeds line blocks into a
/// channel bounded at [`READ_AHEAD_BLOCKS`], so the serve loop can poll
/// deadlines and signals while the transport blocks, and a fast client
/// is held back by the transport rather than buffered. Dropping the
/// sender signals EOF.
fn spawn_reader(
    listen: Option<&str>,
    max_line: usize,
) -> Result<mpsc::Receiver<ReaderMsg>, String> {
    let (tx, rx) = read_ahead_channel();
    match listen {
        None => {
            std::thread::spawn(move || pump(std::io::stdin(), &tx, max_line));
        }
        #[cfg(unix)]
        Some(addr) if addr.starts_with("unix:") => {
            let Some(path) = addr.strip_prefix("unix:").map(str::to_owned) else {
                return Err(format!("malformed transport address '{addr}'"));
            };
            // Stale socket files from a previous run would make bind
            // fail; the daemon owns the path.
            let _ = std::fs::remove_file(&path);
            let listener = std::os::unix::net::UnixListener::bind(&path)
                .map_err(|e| format!("cannot listen on unix:{path}: {e}"))?;
            eprintln!("serve        : listening on unix:{path}");
            std::thread::spawn(move || {
                if let Some(stream) =
                    accept_with_retry(&listener, |l| l.accept().map(|(s, _)| s), &tx)
                {
                    pump(stream, &tx, max_line);
                }
                let _ = std::fs::remove_file(&path);
            });
        }
        Some(addr) if addr.starts_with("tcp:") => {
            let Some(host) = addr.strip_prefix("tcp:").map(str::to_owned) else {
                return Err(format!("malformed transport address '{addr}'"));
            };
            let listener = std::net::TcpListener::bind(&host)
                .map_err(|e| format!("cannot listen on tcp:{host}: {e}"))?;
            eprintln!("serve        : listening on tcp:{host}");
            std::thread::spawn(move || {
                if let Some(stream) =
                    accept_with_retry(&listener, |l| l.accept().map(|(s, _)| s), &tx)
                {
                    pump(stream, &tx, max_line);
                }
            });
        }
        Some(other) => {
            return Err(format!(
                "unknown transport '{other}' (expected 'unix:PATH' or 'tcp:HOST:PORT')"
            ));
        }
    }
    Ok(rx)
}

/// The daemon's durability manager: the optional WAL handle, the
/// retry schedule shared by WAL and checkpoint writes, and the
/// degraded-durability state machine.
///
/// The state machine has two states. **Normal**: every arrival and
/// slot close is appended to the WAL before it is applied, and
/// checkpoints garbage-collect the log. **Degraded** (entered when a
/// WAL or checkpoint write keeps failing through the retry budget):
/// serving continues — availability over durability — but WAL appends
/// stop entirely, because a log with a gap would replay silently
/// wrong, which is strictly worse than a log that honestly ends.
/// `/readyz` reads 503 for the duration. The only way back to normal
/// is a fully durable checkpoint: it supersedes everything the log
/// missed, the WAL restarts fresh from its marker, and `/readyz`
/// recovers.
struct Durability {
    wal: Option<Wal>,
    retry: WallRetry,
    degraded: bool,
}

impl Durability {
    fn new(wal: Option<Wal>) -> Self {
        Self {
            wal,
            retry: WallRetry::daemon_default(),
            degraded: false,
        }
    }

    /// Appends one record ahead of applying it, retrying transient
    /// failures; a persistent failure flips the daemon to degraded.
    /// No-op without `--wal` or while degraded (see the struct docs).
    fn append(&mut self, record: &WalRecord, ops: &mut DaemonOps) {
        if self.degraded {
            return;
        }
        let Some(wal) = self.wal.as_mut() else { return };
        let retry = self.retry;
        let result = retry.run(
            || wal.append(record),
            |attempt, err, delay| {
                ops.record_wal_retry();
                eprintln!(
                    "{{\"event\":\"wal_retry\",\"attempt\":{attempt},\"delay_ms\":{},\
                     \"error\":{}}}",
                    delay.as_millis(),
                    Json::Str(err.to_owned()).encode()
                );
            },
        );
        if let Err(e) = result {
            self.degrade(ops, &format!("WAL append failed: {e}"));
        }
    }

    /// Writes the session's checkpoint durably (with retries) and
    /// prints the confirmation line. The caller decides whether a
    /// persistent failure degrades (periodic checkpoints) or aborts
    /// (halt and shutdown, where the operator asked for the state).
    fn write_checkpoint(
        &mut self,
        session: &ServeSession<'_>,
        path: &str,
        ops: &mut DaemonOps,
    ) -> Result<(), String> {
        let ckpt = session.checkpoint()?;
        let retry = self.retry;
        retry.run(
            || ckpt.save(Path::new(path)),
            |attempt, err, delay| {
                ops.record_checkpoint_retry();
                eprintln!(
                    "{{\"event\":\"checkpoint_retry\",\"attempt\":{attempt},\
                     \"delay_ms\":{},\"error\":{}}}",
                    delay.as_millis(),
                    Json::Str(err.to_owned()).encode()
                );
            },
        )?;
        println!(
            "checkpoint   : slot {} written to {path}",
            session.next_slot()
        );
        Ok(())
    }

    /// After a durable checkpoint at a slot boundary (the open
    /// accumulator is empty, so every WAL record is covered):
    /// garbage-collects the log and, if degraded, restores full
    /// durability — the checkpoint supersedes whatever the log missed.
    ///
    /// Only call at a slot boundary: GC deletes every record before
    /// the marker, which must not include open-slot arrivals.
    fn checkpoint_installed(&mut self, slot: u64, ops: &mut DaemonOps) {
        let Some(wal) = self.wal.as_mut() else {
            if self.degraded {
                self.restore(ops);
            }
            return;
        };
        let retry = self.retry;
        let result = retry.run(
            || wal.install_checkpoint(slot),
            |attempt, err, delay| {
                ops.record_wal_retry();
                eprintln!(
                    "{{\"event\":\"wal_retry\",\"attempt\":{attempt},\"delay_ms\":{},\
                     \"error\":{}}}",
                    delay.as_millis(),
                    Json::Str(err.to_owned()).encode()
                );
            },
        );
        match result {
            Ok(()) => {
                if self.degraded {
                    self.restore(ops);
                }
            }
            Err(e) => self.degrade(ops, &format!("WAL checkpoint marker failed: {e}")),
        }
    }

    /// Best-effort final fsync on clean exits, so the open slot's
    /// arrivals survive even under `--wal-sync off`/`slot`.
    fn shutdown_sync(&mut self) {
        if let Some(wal) = self.wal.as_mut() {
            if let Err(e) = wal.sync() {
                eprintln!(
                    "{{\"event\":\"wal_retry\",\"attempt\":0,\"delay_ms\":0,\"error\":{}}}",
                    Json::Str(format!("final sync failed: {e}")).encode()
                );
            }
        }
    }

    fn degrade(&mut self, ops: &mut DaemonOps, why: &str) {
        if self.degraded {
            return;
        }
        self.degraded = true;
        ops.set_degraded(true);
        eprintln!(
            "{{\"event\":\"durability_degraded\",\"error\":{}}}",
            Json::Str(why.to_owned()).encode()
        );
    }

    fn restore(&mut self, ops: &mut DaemonOps) {
        self.degraded = false;
        ops.set_degraded(false);
        eprintln!("{{\"event\":\"durability_restored\"}}");
    }
}

/// The daemon's operational side channel: a wall-clock [`Recorder`]
/// (slot/request counters, carbon and allowance gauges, per-stage
/// latency histograms, live envelope verdicts) that is rendered into
/// the admin endpoint's `/metrics` page after every slot and written
/// to the `<telemetry>.ops.jsonl` sidecar at exit. Everything here is
/// operational — the deterministic telemetry trace never sees any of
/// it, so traces stay byte-identical with observability on or off.
struct DaemonOps {
    rec: Recorder,
    admin: Option<Arc<AdminState>>,
    /// The profiler's cumulative per-stage totals after the previous
    /// slot (µs): `STAGE_LATENCIES` order, then the `slot` root.
    prev_us: [f64; 5],
}

impl DaemonOps {
    fn new(
        session: &ServeSession<'_>,
        run_seed: u64,
        startup: &StartupTimes,
        admin: Option<Arc<AdminState>>,
    ) -> Self {
        let mut rec = Recorder::new();
        rec.set_label("policy", session.policy_name());
        rec.set_label("seed", run_seed.to_string());
        rec.set_label("stream", "ops");
        // A resumed daemon only observes slots from here on; `report`
        // restricts its live-vs-recomputed cross-check accordingly.
        rec.gauge("serve.start_slot", session.next_slot() as f64);
        rec.gauge("serve.horizon", session.horizon() as f64);
        rec.gauge("serve.startup.zoo_train_ms", startup.zoo_train_ms);
        rec.gauge("serve.startup.session_ms", startup.session_ms);
        rec.gauge("serve.startup.wal_open_ms", startup.wal_open_ms);
        Self {
            rec,
            admin,
            prev_us: [0.0; 5],
        }
    }

    /// Folds one closed slot into the ops recorder: counters, ledger
    /// gauges, live envelope verdicts, stage latencies — then
    /// republishes the metrics page.
    fn after_slot(&mut self, session: &mut ServeSession<'_>, requests: u64, slot_wall_us: f64) {
        self.rec.incr("serve.slots", 1);
        self.rec.incr("serve.requests", requests);
        self.rec
            .gauge("serve.next_slot", session.next_slot() as f64);

        let ledger = *session.ledger();
        self.rec.gauge("carbon.cap", ledger.cap().get());
        self.rec
            .gauge("carbon.emitted", ledger.emitted().to_allowances().get());
        self.rec.gauge("carbon.held", ledger.held().get());
        self.rec
            .gauge("carbon.slack", ledger.neutrality_slack().get());
        self.rec.gauge("allowance.bought", ledger.bought().get());
        self.rec.gauge("allowance.sold", ledger.sold().get());
        self.rec
            .gauge("market.net_cost_cents", ledger.net_trading_cost().get());

        if let Some(monitor) = session.live_monitor() {
            if let Some(lambda) = monitor.last_lambda() {
                self.rec.gauge("dual.lambda", lambda);
            }
            self.rec
                .gauge("envelope.live.fit_observed", monitor.fit_observed());
            self.rec
                .gauge("envelope.live.fit_bound", monitor.fit_bound());
            self.rec
                .gauge("envelope.live.lambda_ceiling", monitor.lambda_ceiling());
        }
        for finding in session.take_live_findings() {
            let class = if finding.excused {
                "envelope.live.excused"
            } else {
                "envelope.live.violations"
            };
            self.rec.incr(class, 1);
            self.rec
                .incr(&format!("envelope.live.{}", finding.monitor), 1);
            let mut fields: Vec<(&str, Value)> = vec![
                ("monitor", finding.monitor.into()),
                ("excused", finding.excused.into()),
            ];
            fields.extend(finding.detail.iter().cloned());
            self.rec.event(finding.slot, "envelope_live", &fields);
            // The moment-it-happened structured event for operators.
            let mut line = vec![
                ("event".to_owned(), Json::Str("envelope_breach".to_owned())),
                (
                    "slot".to_owned(),
                    finding.slot.map_or(Json::Null, Json::UInt),
                ),
                ("monitor".to_owned(), Json::Str(finding.monitor.to_owned())),
                ("excused".to_owned(), Json::Bool(finding.excused)),
            ];
            for (name, value) in &finding.detail {
                line.push(((*name).to_owned(), json_value(value)));
            }
            eprintln!("{}", Json::Obj(line).encode());
        }

        if let Some(profiler) = session.profiler() {
            for (i, (metric, path)) in STAGE_LATENCIES.iter().enumerate() {
                let total = profiler.total_us(path);
                let delta = (total - self.prev_us[i]).max(0.0);
                self.prev_us[i] = total;
                self.rec
                    .histogram_with_bounds(metric, &LATENCY_BOUNDS_US)
                    .record(delta);
            }
            let step_total = profiler.total_us("slot");
            let step = (step_total - self.prev_us[4]).max(0.0);
            self.prev_us[4] = step_total;
            // What the daemon spent around the stepper: arrival
            // ingestion, live monitoring, bookkeeping.
            self.rec
                .histogram_with_bounds("serve.latency.ingest_us", &LATENCY_BOUNDS_US)
                .record((slot_wall_us - step).max(0.0));
        }
        self.rec
            .histogram_with_bounds("serve.latency.slot_us", &LATENCY_BOUNDS_US)
            .record(slot_wall_us);
        self.publish(session);
    }

    /// Tallies one checkpoint write into the ops recorder.
    fn record_checkpoint(&mut self, wall_us: f64) {
        self.rec.incr("serve.checkpoints", 1);
        self.rec
            .histogram_with_bounds("serve.latency.checkpoint_us", &LATENCY_BOUNDS_US)
            .record(wall_us);
    }

    /// Tallies one rejected wire line and emits the structured stderr
    /// event operators alert on, carrying the absolute stream byte
    /// offset and a truncated snippet so the offending input can be
    /// located in a multi-GB stream. The same fields land in the ops
    /// recorder as a `bad_line` event (surfaced by `report`). The
    /// budget check stays with the caller.
    fn record_bad_line(&mut self, bad: &BadLine<'_>, slot: u64, total: u64, budget: u64) {
        self.rec.incr("serve.bad_lines", 1);
        self.rec.event(
            Some(slot),
            "bad_line",
            &[
                ("reason", Value::Str(bad.reason.to_owned())),
                ("offset", Value::UInt(bad.offset)),
                ("snippet", Value::Str(bad.snippet.to_owned())),
            ],
        );
        eprintln!(
            "{{\"event\":\"bad_line\",\"total\":{total},\"budget\":{budget},\"offset\":{},\
             \"snippet\":{},\"reason\":{}}}",
            bad.offset,
            Json::Str(bad.snippet.to_owned()).encode(),
            Json::Str(bad.reason.to_owned()).encode()
        );
    }

    /// Tallies raw wire input shipped by the transport reader, for the
    /// ingest throughput panel (`watch`, `/metrics`).
    fn record_ingest_bytes(&mut self, bytes: u64) {
        self.rec.incr("serve.ingest.bytes", bytes);
    }

    /// Tallies one WAL append/marker retry.
    fn record_wal_retry(&mut self) {
        self.rec.incr("serve.wal_retries", 1);
    }

    /// Tallies one checkpoint-write retry.
    fn record_checkpoint_retry(&mut self) {
        self.rec.incr("serve.checkpoint_retries", 1);
    }

    /// Publishes the degraded-durability state to the ops gauge and
    /// the admin endpoint (`/readyz` flips 503 while set).
    fn set_degraded(&mut self, on: bool) {
        self.rec.gauge("serve.degraded", if on { 1.0 } else { 0.0 });
        if let Some(state) = &self.admin {
            state.set_degraded(on);
        }
    }

    /// Renders the exposition page — the deterministic trace (when
    /// carried) plus the ops recorder — and hands it to the admin
    /// endpoint. Read-only with respect to the session.
    fn publish(&self, session: &ServeSession<'_>) {
        let Some(state) = &self.admin else { return };
        let mut recorders: Vec<&Recorder> = Vec::with_capacity(2);
        if let Some(trace) = session.telemetry() {
            recorders.push(trace);
        }
        recorders.push(&self.rec);
        let page =
            expo::render(&recorders).unwrap_or_else(|e| format!("# exposition error: {e}\n"));
        state.publish(page);
    }

    /// Marks the run complete for `/readyz` and writes the ops sidecar
    /// next to the telemetry trace (when one is being written).
    fn finish(&self, telemetry_path: Option<&str>) -> Result<(), String> {
        if let Some(state) = &self.admin {
            state.mark_done();
        }
        if let Some(trace_path) = telemetry_path {
            let path = expo::ops_sidecar_path(trace_path);
            std::fs::write(&path, self.rec.to_jsonl_string())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("ops          : operational metrics written to {path}");
        }
        Ok(())
    }
}

/// Telemetry [`Value`] → [`Json`], for the live-breach stderr events.
fn json_value(value: &Value) -> Json {
    match value {
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Int(*i),
        Value::UInt(u) => Json::UInt(*u),
        Value::Float(f) if f.is_finite() => Json::Float(*f),
        Value::Float(_) => Json::Null,
        Value::Str(s) => Json::Str(s.clone()),
    }
}

/// Wall-clock cost of each startup phase, in milliseconds: training
/// the model zoo, building (or resuming) the session, and opening the
/// WAL and replaying its tail. Reported in the startup banner and as
/// `serve.startup.*` ops gauges; never part of the deterministic trace.
#[derive(Debug, Default)]
struct StartupTimes {
    zoo_train_ms: f64,
    session_ms: f64,
    wal_open_ms: f64,
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// The one-line structured startup banner, written to stderr so it
/// never interleaves with the stdout summary or a piped trace.
fn startup_banner(
    opts: &Options,
    session: &ServeSession<'_>,
    run_seed: u64,
    startup: &StartupTimes,
    scenario: Option<&str>,
    admin_addr: Option<&str>,
) {
    let opt_str = |v: Option<&str>| v.map_or(Json::Null, |s| Json::Str(s.to_owned()));
    let mut triggers = vec![Json::Str("slot_end".to_owned())];
    if let Some(n) = opts.slot_requests {
        triggers.push(Json::Str(format!("requests:{n}")));
    }
    if let Some(ms) = opts.slot_ms {
        triggers.push(Json::Str(format!("ms:{ms}")));
    }
    let banner = Json::Obj(vec![
        ("event".to_owned(), Json::Str("serve_start".to_owned())),
        ("policy".to_owned(), Json::Str(opts.policy.clone())),
        ("seed".to_owned(), Json::UInt(run_seed)),
        ("scenario".to_owned(), opt_str(scenario)),
        (
            "serve_mode".to_owned(),
            Json::Str(
                if opts.serve_per_request {
                    "per-request"
                } else {
                    "batched"
                }
                .to_owned(),
            ),
        ),
        (
            "edge_threads".to_owned(),
            Json::UInt(opts.edge_threads.unwrap_or(1) as u64),
        ),
        (
            "next_slot".to_owned(),
            Json::UInt(session.next_slot() as u64),
        ),
        ("horizon".to_owned(), Json::UInt(session.horizon() as u64)),
        ("edges".to_owned(), Json::UInt(session.num_edges() as u64)),
        (
            "listen".to_owned(),
            Json::Str(opts.listen.clone().unwrap_or_else(|| "stdin".to_owned())),
        ),
        ("admin".to_owned(), opt_str(admin_addr)),
        ("slot_triggers".to_owned(), Json::Arr(triggers)),
        ("telemetry".to_owned(), opt_str(opts.telemetry.as_deref())),
        ("checkpoint".to_owned(), opt_str(opts.checkpoint.as_deref())),
        ("wal".to_owned(), opt_str(opts.wal.as_deref())),
        ("wal_sync".to_owned(), Json::Str(opts.wal_sync.to_string())),
        (
            "wire_decode".to_owned(),
            Json::Str(opts.wire_decode.to_string()),
        ),
        (
            "max_line_bytes".to_owned(),
            Json::UInt(opts.max_line_bytes as u64),
        ),
        ("max_bad_lines".to_owned(), Json::UInt(opts.max_bad_lines)),
        (
            "zoo_train_ms".to_owned(),
            Json::UInt(startup.zoo_train_ms.round() as u64),
        ),
        (
            "session_ms".to_owned(),
            Json::UInt(startup.session_ms.round() as u64),
        ),
        (
            "wal_open_ms".to_owned(),
            Json::UInt(startup.wal_open_ms.round() as u64),
        ),
    ]);
    eprintln!("{}", banner.encode());
}

/// `carbon-edge serve`.
pub fn serve(opts: &Options) -> Result<(), String> {
    if opts.policy.eq_ignore_ascii_case("offline") {
        return Err("serve needs an online policy — the offline oracle \
                    requires the whole arrival sequence in advance"
            .to_owned());
    }
    let combo: Combo = opts.policy.parse().map_err(|e| format!("{e}"))?;
    if opts.checkpoint.is_none() && (opts.checkpoint_every.is_some() || opts.halt_at_slot.is_some())
    {
        return Err(
            "--checkpoint-every and --halt-at-slot need --checkpoint FILE \
                    (where should the state go?)"
                .to_owned(),
        );
    }

    let mut config = build_config(opts)?;
    if let Some(slots) = opts.slots {
        let trace = config.workload.total_slots();
        if slots > trace {
            return Err(format!(
                "--slots {slots} exceeds the workload trace, which has {trace} slots{} — \
                 pass --slots {trace} or fewer",
                if opts.quick { " under --quick" } else { "" }
            ));
        }
        config.horizon = slots;
    }
    let started = Instant::now();
    let zoo = build_zoo(opts);
    let mut startup = StartupTimes {
        zoo_train_ms: ms_since(started),
        ..StartupTimes::default()
    };
    let scenario = config.faults.as_ref().map(|s| s.name.clone());
    let serve_opts = ServeOptions {
        serve_mode: if opts.serve_per_request {
            ServeMode::PerRequest
        } else {
            ServeMode::Batched
        },
        edge_threads: opts.edge_threads.unwrap_or(1),
        telemetry: opts.telemetry.is_some(),
        // Both feed only the ops side channel (admin endpoint, watch,
        // ops sidecar); the deterministic trace never sees them.
        live_monitor: true,
        stage_profiler: true,
    };

    let mut run_seed = opts.seed;
    let started = Instant::now();
    let mut session = if let Some(path) = &opts.resume {
        if Path::new(path).exists() || opts.wal.is_none() {
            let ckpt = Checkpoint::load(Path::new(path))?;
            run_seed = ckpt.seed;
            let session = ServeSession::resume(config, &zoo, combo, &ckpt, &serve_opts)?;
            println!(
                "resume       : slot {} of {} from {path}",
                session.next_slot(),
                session.horizon()
            );
            session
        } else {
            // The checkpoint never made it to disk (e.g. the daemon
            // died before the first --checkpoint-every boundary), but
            // the WAL holds every arrival: recover from slot 0.
            eprintln!(
                "resume       : checkpoint {path} is missing — recovering from \
                 the WAL alone (slot 0, seed {})",
                opts.seed
            );
            ServeSession::new(config, &zoo, opts.seed, combo, &serve_opts)
        }
    } else {
        ServeSession::new(config, &zoo, opts.seed, combo, &serve_opts)
    };
    startup.session_ms = ms_since(started);

    // --- durability: open the WAL and replay its tail ---------------
    let started = Instant::now();
    let mut wal_seed_open: Option<(Vec<u64>, u64)> = None;
    let wal_handle = if let Some(dir) = &opts.wal {
        let dir_path = Path::new(dir);
        if opts.resume.is_none() && wal::dir_has_segments(dir_path) {
            return Err(format!(
                "--wal {dir}: the directory already holds WAL segments from a \
                 previous run; pass --resume to continue it, or remove the \
                 directory to genuinely start fresh"
            ));
        }
        let wal_opts = WalOptions {
            sync: opts.wal_sync,
            ..WalOptions::default()
        };
        let (wal, recovery) = Wal::open(dir_path, wal_opts)?;
        if let Some(torn) = &recovery.torn {
            eprintln!(
                "{{\"event\":\"wal_torn_tail\",\"segment\":{},\"offset\":{},\
                 \"reason\":{}}}",
                Json::Str(torn.segment.display().to_string()).encode(),
                torn.offset,
                Json::Str(torn.reason.clone()).encode()
            );
        }
        if opts.resume.is_some() {
            let tail = wal::replay(
                &recovery.records,
                session.num_edges(),
                session.next_slot() as u64,
            )?;
            if !tail.is_empty() {
                println!(
                    "wal          : replayed {} closed slot(s) and {} open-slot \
                     request line(s) from {dir}",
                    tail.closed.len(),
                    tail.open_lines
                );
            }
            session.apply_wal_tail(&tail)?;
            wal_seed_open = Some((tail.open, tail.open_lines));
        }
        Some(wal)
    } else {
        None
    };
    let mut dur = Durability::new(wal_handle);
    startup.wal_open_ms = ms_since(started);

    if let Some(k) = opts.halt_at_slot {
        if k <= session.next_slot() || k >= session.horizon() {
            return Err(format!(
                "--halt-at-slot {k} is outside the remaining run \
                 (next slot {}, horizon {})",
                session.next_slot(),
                session.horizon()
            ));
        }
    }

    signals::install();
    let admin_state = opts
        .admin
        .as_deref()
        .map(|addr| {
            let state = AdminState::new(Duration::from_millis(opts.ready_deadline_ms));
            let bound = admin::spawn(addr, state.clone())?;
            eprintln!("admin        : /metrics /healthz /readyz on {bound}");
            Ok::<_, String>((state, bound))
        })
        .transpose()?;
    let admin_addr = admin_state.as_ref().map(|(_, bound)| bound.clone());
    let mut ops = DaemonOps::new(
        &session,
        run_seed,
        &startup,
        admin_state.map(|(state, _)| state),
    );
    startup_banner(
        opts,
        &session,
        run_seed,
        &startup,
        scenario.as_deref(),
        admin_addr.as_deref(),
    );
    // Publish an initial page so `/metrics` is never empty, even
    // before the first slot closes.
    ops.publish(&session);
    let rx = spawn_reader(opts.listen.as_deref(), opts.max_line_bytes)?;
    println!(
        "serve        : policy {} seed {run_seed}, slot {} of {}, {} edges",
        opts.policy,
        session.next_slot(),
        session.horizon(),
        session.num_edges()
    );

    let mut open = OpenSlot::new(session.num_edges());
    if let Some((recovered, lines)) = wal_seed_open.take() {
        // The WAL tail ended mid-slot: pre-seed the accumulator with
        // the arrivals already acknowledged for the open slot.
        open.seed(recovered, lines as usize);
    }
    let mut bad_lines: u64 = 0;
    let use_fast = opts.wire_decode == wire::WireDecode::Fast;
    let mut deadline = opts
        .slot_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut eof = false;

    while !session.is_done() {
        if signals::triggered() {
            flush_arrivals(&mut open, session.next_slot() as u64, &mut dur, &mut ops);
            if let Some(path) = &opts.checkpoint {
                dur.write_checkpoint(&session, path, &mut ops)?;
            }
            dur.shutdown_sync();
            ops.finish(opts.telemetry.as_deref())?;
            eprintln!(
                "serve        : shutdown signal at slot {} — exiting cleanly{}",
                session.next_slot(),
                if opts.checkpoint.is_some() || opts.wal.is_some() {
                    ""
                } else {
                    " (no --checkpoint path; state discarded)"
                }
            );
            return Ok(());
        }
        if eof {
            // Input ended before the horizon: pad the remaining slots
            // with zero arrivals so the run still settles cleanly.
            // (`open` is fully logged here — every block was flushed
            // when it finished processing, and EOF arrives between
            // blocks.)
            if open.lines == 0 {
                open.clear();
            }
            close_slot(
                &mut session,
                &mut open,
                &mut deadline,
                opts,
                &mut ops,
                &mut dur,
            )?;
            if let Some(k) = opts.halt_at_slot {
                if session.next_slot() == k {
                    return halt(&session, opts, &mut ops, &mut dur);
                }
            }
            continue;
        }
        let wait = match deadline {
            Some(d) => d.saturating_duration_since(Instant::now()).min(IDLE_POLL),
            None => IDLE_POLL,
        };
        let msg = match rx.recv_timeout(wait) {
            Ok(msg) => msg,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Wall-clock slot close (live mode only).
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    close_slot(
                        &mut session,
                        &mut open,
                        &mut deadline,
                        opts,
                        &mut ops,
                        &mut dur,
                    )?;
                    if let Some(k) = opts.halt_at_slot {
                        if session.next_slot() == k {
                            return halt(&session, opts, &mut ops, &mut dur);
                        }
                    }
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let remaining = session.horizon() - session.next_slot();
                eprintln!(
                    "serve        : input ended at slot {} — padding {remaining} \
                     remaining slot(s) with zero arrivals",
                    session.next_slot()
                );
                eof = true;
                continue;
            }
        };
        let block = match msg {
            ReaderMsg::Block(block) => block,
            ReaderMsg::Bad {
                reason,
                offset,
                snippet,
            } => {
                let bad = BadLine {
                    reason: &reason,
                    offset,
                    snippet: &snippet,
                };
                let slot = session.next_slot() as u64;
                if let Some(error) = reject_line(&bad, slot, &mut bad_lines, opts, &mut ops) {
                    flush_arrivals(&mut open, slot, &mut dur, &mut ops);
                    return fail_serve(&session, opts, &mut ops, &mut dur, error);
                }
                continue;
            }
            ReaderMsg::Fatal(e) => {
                return fail_serve(
                    &session,
                    opts,
                    &mut ops,
                    &mut dur,
                    format!("transport error: {e}"),
                );
            }
        };
        ops.record_ingest_bytes(block.data.len() as u64);
        let mut line_at = block.offset;
        for raw in block.data.split_inclusive(|&b| b == b'\n') {
            let at = line_at;
            line_at += raw.len() as u64;
            let line = match raw.last() {
                Some(b'\n') => &raw[..raw.len() - 1],
                _ => raw,
            };
            let parsed = match classify_line(line, opts.max_line_bytes, use_fast, &open) {
                Ok(Some(parsed)) => parsed,
                Ok(None) => continue,
                Err(reason) => {
                    let bad = BadLine {
                        reason: &reason,
                        offset: at,
                        snippet: &snippet_of(line),
                    };
                    let slot = session.next_slot() as u64;
                    if let Some(error) = reject_line(&bad, slot, &mut bad_lines, opts, &mut ops) {
                        flush_arrivals(&mut open, slot, &mut dur, &mut ops);
                        return fail_serve(&session, opts, &mut ops, &mut dur, error);
                    }
                    continue;
                }
            };
            match parsed {
                WireLine::Request { edge, count } => {
                    // Write-ahead at batch granularity: the line is
                    // WAL-appended, inside one per-edge tally, before
                    // the slot closes or the block ends.
                    // `classify_line` has already rejected a count
                    // that would overflow the slot.
                    open.add(edge, count);
                    if opts.slot_requests.is_some_and(|n| open.lines >= n) {
                        flush_arrivals(&mut open, session.next_slot() as u64, &mut dur, &mut ops);
                        close_slot(
                            &mut session,
                            &mut open,
                            &mut deadline,
                            opts,
                            &mut ops,
                            &mut dur,
                        )?;
                    }
                }
                WireLine::SlotEnd => {
                    flush_arrivals(&mut open, session.next_slot() as u64, &mut dur, &mut ops);
                    close_slot(
                        &mut session,
                        &mut open,
                        &mut deadline,
                        opts,
                        &mut ops,
                        &mut dur,
                    )?;
                }
            }
            if let Some(k) = opts.halt_at_slot {
                if session.next_slot() == k {
                    return halt(&session, opts, &mut ops, &mut dur);
                }
            }
            if session.is_done() {
                break;
            }
        }
        // End of block: group-commit whatever the block accumulated
        // for the still-open slot.
        flush_arrivals(&mut open, session.next_slot() as u64, &mut dur, &mut ops);
    }
    dur.shutdown_sync();

    let horizon = session.horizon();
    ops.finish(opts.telemetry.as_deref())?;
    let outcome = session.finish();
    println!("served       : {horizon} slots, policy {}", opts.policy);
    println!("total cost   : {:.1}", outcome.record.total_cost());
    println!(
        "violation    : {:.2} allowances",
        outcome.record.violation()
    );
    println!("switches     : {}", outcome.record.total_switches());
    println!("p1 regret    : {:.1}", outcome.p1_regret);
    if opts.telemetry.is_some() {
        println!(
            "envelopes    : {} theorem-envelope violations",
            outcome.envelope_violations
        );
    }
    if let Some(path) = &opts.telemetry {
        let rec = outcome.telemetry.expect("telemetry was requested");
        write_telemetry(path, std::slice::from_ref(&rec))?;
    }
    Ok(())
}

/// Ingests the open slot into the session, resets the accumulator and
/// the wall-clock deadline, and honors `--checkpoint-every`. The slot
/// close is WAL-appended *before* the session serves it, so recovery
/// replays exactly the slots the live run committed to; a persistent
/// periodic-checkpoint failure degrades durability instead of killing
/// the daemon.
fn close_slot(
    session: &mut ServeSession<'_>,
    open: &mut OpenSlot,
    deadline: &mut Option<Instant>,
    opts: &Options,
    ops: &mut DaemonOps,
    dur: &mut Durability,
) -> Result<(), String> {
    let requests = open.total;
    dur.append(
        &WalRecord::SlotClose {
            slot: session.next_slot() as u64,
        },
        ops,
    );
    let started = Instant::now();
    session.push_slot(&open.counts);
    let slot_wall_us = started.elapsed().as_secs_f64() * 1e6;
    open.clear();
    *deadline = opts
        .slot_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    if let (Some(every), Some(path)) = (opts.checkpoint_every, &opts.checkpoint) {
        if session.next_slot() % every == 0 && !session.is_done() {
            let started = Instant::now();
            match dur.write_checkpoint(session, path, ops) {
                Ok(()) => {
                    ops.record_checkpoint(started.elapsed().as_secs_f64() * 1e6);
                    // The accumulator was just reset: a slot boundary,
                    // so the WAL can be garbage-collected.
                    dur.checkpoint_installed(session.next_slot() as u64, ops);
                }
                Err(e) => {
                    // Availability over durability: keep serving, flip
                    // /readyz, and let the next boundary try again.
                    dur.degrade(ops, &format!("checkpoint write failed: {e}"));
                }
            }
        }
    }
    ops.after_slot(session, requests, slot_wall_us);
    Ok(())
}

/// `--halt-at-slot`: write the checkpoint and exit cleanly. Unlike the
/// periodic path, a checkpoint failure here is fatal — the operator
/// asked for durable state and there is no later boundary to retry at.
fn halt(
    session: &ServeSession<'_>,
    opts: &Options,
    ops: &mut DaemonOps,
    dur: &mut Durability,
) -> Result<(), String> {
    let path = opts.checkpoint.as_deref().expect("validated at startup");
    dur.write_checkpoint(session, path, ops)?;
    // halt() runs right after close_slot: a slot boundary, so GC is
    // safe and the next resume starts from a freshly anchored WAL.
    dur.checkpoint_installed(session.next_slot() as u64, ops);
    ops.finish(opts.telemetry.as_deref())?;
    println!(
        "halt         : {} slots served, as requested — continue with \
         --resume {path}",
        session.next_slot()
    );
    Ok(())
}

/// Fatal-exit path for transport death and a blown bad-line budget:
/// preserve whatever durable state we can (final checkpoint if
/// configured, WAL fsync, ops sidecar), then surface the error.
fn fail_serve(
    session: &ServeSession<'_>,
    opts: &Options,
    ops: &mut DaemonOps,
    dur: &mut Durability,
    error: String,
) -> Result<(), String> {
    if let Some(path) = &opts.checkpoint {
        if let Err(e) = dur.write_checkpoint(session, path, ops) {
            eprintln!("serve        : final checkpoint failed: {e}");
        }
    }
    dur.shutdown_sync();
    if let Err(e) = ops.finish(opts.telemetry.as_deref()) {
        eprintln!("serve        : ops sidecar failed: {e}");
    }
    Err(error)
}

/// `carbon-edge gen-arrivals`.
pub fn gen_arrivals(opts: &Options) -> Result<(), String> {
    let process: ArrivalProcess = opts.process.parse().map_err(|e| format!("{e}"))?;
    let slots = opts.slots.unwrap_or(40);
    if opts.start_slot >= slots {
        return Err(format!(
            "--start-slot {} is past the last slot ({})",
            opts.start_slot,
            slots - 1
        ));
    }
    let peak = opts.peak.unwrap_or(120.0);
    let gen = ArrivalGen::new(
        process,
        opts.edges,
        SLOTS_PER_DAY,
        peak,
        &SeedSequence::new(opts.seed),
    );
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut io_err = |e: std::io::Error| format!("cannot write the request stream: {e}");
    for t in opts.start_slot..slots {
        for (i, &count) in gen.slot(t).iter().enumerate() {
            // Zero-count edges are omitted: the daemon defaults
            // unmentioned edges to zero arrivals.
            if count > 0 {
                writeln!(out, "{{\"edge\":{i},\"count\":{count}}}").map_err(&mut io_err)?;
            }
        }
        writeln!(out, "{{\"slot_end\":true}}").map_err(&mut io_err)?;
    }
    out.flush().map_err(&mut io_err)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_lines_parse() {
        match parse_line("{\"edge\": 2, \"count\": 7}", 4).expect("valid") {
            WireLine::Request { edge, count } => {
                assert_eq!((edge, count), (2, 7));
            }
            WireLine::SlotEnd => panic!("not a slot end"),
        }
        match parse_line("{\"edge\": 0}", 4).expect("count defaults to 1") {
            WireLine::Request { edge, count } => {
                assert_eq!((edge, count), (0, 1));
            }
            WireLine::SlotEnd => panic!("not a slot end"),
        }
        assert!(matches!(
            parse_line("{\"slot_end\": true}", 4),
            Ok(WireLine::SlotEnd)
        ));
    }

    /// Folds wire lines into one slot's accumulator exactly as the
    /// serve loop does; returns the accumulator and the reject reasons.
    fn fold_slot(lines: &[&str], num_edges: usize, use_fast: bool) -> (Vec<u64>, Vec<String>) {
        let mut open = OpenSlot::new(num_edges);
        let mut rejected = Vec::new();
        for line in lines {
            match classify_line(line.as_bytes(), 1024, use_fast, &open) {
                Ok(Some(WireLine::Request { edge, count })) => open.add(edge, count),
                Ok(Some(WireLine::SlotEnd) | None) => {}
                Err(reason) => rejected.push(reason),
            }
        }
        (open.counts, rejected)
    }

    #[test]
    fn count_overflow_is_one_bad_line_and_never_folded() {
        let max = format!("{{\"edge\":1,\"count\":{}}}", u64::MAX);
        for use_fast in [false, true] {
            let (open, rejected) = fold_slot(&[&max, "{\"edge\":1,\"count\":2}"], 2, use_fast);
            assert_eq!(open, vec![0, u64::MAX], "fast={use_fast}");
            assert_eq!(rejected.len(), 1, "fast={use_fast}: {rejected:?}");
            assert!(
                rejected[0].starts_with("count overflows the slot accumulator"),
                "{}",
                rejected[0]
            );
            // The bound is the slot's total, across edges; a count that
            // still fits is folded.
            let (open, rejected) = fold_slot(
                &[
                    "{\"edge\":0,\"count\":2}",
                    &format!("{{\"edge\":1,\"count\":{}}}", u64::MAX - 2),
                    "{\"edge\":0,\"count\":1}",
                    "{\"edge\":1,\"count\":0}",
                ],
                2,
                use_fast,
            );
            assert_eq!(open, vec![2, u64::MAX - 2]);
            assert_eq!(rejected.len(), 1, "{rejected:?}");
        }
    }

    #[test]
    fn wire_lines_reject_malformed_input() {
        assert!(parse_line("not json", 4).is_err());
        assert!(parse_line("[1, 2]", 4).is_err());
        assert!(parse_line("{\"slot_end\": false}", 4).is_err());
        assert!(parse_line("{\"count\": 3}", 4).is_err(), "edge is required");
        assert!(parse_line("{\"edge\": -1}", 4).is_err());
        assert!(parse_line("{\"edge\": 4}", 4).is_err(), "out of range");
        assert!(parse_line("{\"edge\": 1, \"count\": -2}", 4).is_err());
    }

    #[test]
    fn adversarial_wire_corpus_is_rejected_or_well_defined() {
        // Torn / partial JSON — every prefix of a valid line must be
        // rejected, never panic or mis-parse.
        let full = "{\"edge\": 3, \"count\": 17}";
        for cut in 1..full.len() {
            let prefix = &full[..cut];
            if prefix == full {
                continue;
            }
            assert!(
                parse_line(prefix, 8).is_err(),
                "torn prefix must not parse: {prefix:?}"
            );
        }

        // Duplicate keys: the first occurrence wins (the hand-rolled
        // parser keeps both; lookup is first-match). Pinned so the
        // behavior is deliberate, not accidental.
        match parse_line("{\"edge\": 1, \"edge\": 7}", 8).expect("first edge wins") {
            WireLine::Request { edge, count } => assert_eq!((edge, count), (1, 1)),
            WireLine::SlotEnd => panic!("not a slot end"),
        }
        match parse_line("{\"edge\": 0, \"count\": 2, \"count\": 9}", 8).expect("first count wins")
        {
            WireLine::Request { edge, count } => assert_eq!((edge, count), (0, 2)),
            WireLine::SlotEnd => panic!("not a slot end"),
        }

        // slot_end interleaved with request fields: slot_end takes
        // precedence regardless of field order.
        assert!(matches!(
            parse_line("{\"edge\": 1, \"slot_end\": true}", 8),
            Ok(WireLine::SlotEnd)
        ));
        assert!(matches!(
            parse_line("{\"slot_end\": true, \"count\": 5}", 8),
            Ok(WireLine::SlotEnd)
        ));
        assert!(parse_line("{\"slot_end\": 1}", 8).is_err());
        assert!(parse_line("{\"slot_end\": \"true\"}", 8).is_err());

        // Huge, negative, and non-integer edge/count values.
        assert!(
            parse_line("{\"edge\": 18446744073709551615}", 8).is_err(),
            "u64::MAX edge"
        );
        assert!(
            parse_line("{\"edge\": 99999999999999999999999}", 8).is_err(),
            "overflow"
        );
        assert!(parse_line("{\"edge\": -3}", 8).is_err());
        assert!(parse_line("{\"edge\": 1.5}", 8).is_err());
        assert!(parse_line("{\"edge\": \"1\"}", 8).is_err());
        assert!(parse_line("{\"edge\": 1, \"count\": -9223372036854775808}", 8).is_err());
        assert!(parse_line("{\"edge\": 1, \"count\": 3.7}", 8).is_err());
        assert!(parse_line("{\"edge\": 1, \"count\": null}", 8).is_err());
        // u64::MAX count is structurally valid — the accumulator is
        // u64 and the daemon's per-slot sum may saturate, but parsing
        // must not reject or wrap it.
        match parse_line("{\"edge\": 0, \"count\": 18446744073709551615}", 8).expect("valid") {
            WireLine::Request { count, .. } => assert_eq!(count, u64::MAX),
            WireLine::SlotEnd => panic!("not a slot end"),
        }

        // Structural garbage.
        for line in [
            "",
            "   ",
            "null",
            "true",
            "42",
            "\"edge\"",
            "[{\"edge\": 1}]",
            "{\"edge\": {\"nested\": 1}}",
            "{}",
            "{\"unrelated\": 1}",
            "{\"edge\": 1,}",
            "{'edge': 1}",
            "{\"edge\" 1}",
            "\u{0}\u{1}\u{2}",
        ] {
            assert!(parse_line(line, 8).is_err(), "must reject {line:?}");
        }
    }

    /// Everything `pump` ships for `stream`, drained concurrently
    /// through the daemon's bounded channel.
    fn pumped(stream: Vec<u8>, max_line: usize) -> Vec<ReaderMsg> {
        let (tx, rx) = read_ahead_channel();
        let reader = std::thread::spawn(move || {
            pump(std::io::Cursor::new(stream), &tx, max_line);
        });
        let msgs = rx.iter().collect();
        reader.join().expect("reader thread");
        msgs
    }

    /// A source that counts the bytes the reader has pulled from it.
    struct Counted {
        data: std::io::Cursor<Vec<u8>>,
        read: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl std::io::Read for Counted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.data.read(buf)?;
            self.read.fetch_add(n, std::sync::atomic::Ordering::SeqCst);
            Ok(n)
        }
    }

    /// While the serve loop does not drain, the reader stops pulling
    /// from the transport once [`READ_AHEAD_BLOCKS`] blocks are queued
    /// (plus the one it is blocked sending and its read buffer), and
    /// the stream still arrives whole once draining resumes.
    #[test]
    fn reader_read_ahead_is_bounded() {
        let line: &[u8] = b"{\"edge\":1,\"count\":2}\n";
        let stream: Vec<u8> = line
            .iter()
            .copied()
            .cycle()
            .take(line.len() * (40 * READ_CHUNK / line.len()))
            .collect();
        let read = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let source = Counted {
            data: std::io::Cursor::new(stream.clone()),
            read: Arc::clone(&read),
        };
        let (tx, rx) = read_ahead_channel();
        let reader = std::thread::spawn(move || pump(source, &tx, 4096));
        // Wait until the reader stalls (its byte count stops moving).
        let mut last = usize::MAX;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50));
            let now = read.load(std::sync::atomic::Ordering::SeqCst);
            if now == last {
                break;
            }
            last = now;
        }
        let bound = (READ_AHEAD_BLOCKS + 2) * READ_CHUNK;
        assert!(
            last <= bound,
            "reader pulled {last} bytes ahead of an idle serve loop (bound {bound})"
        );
        let mut rebuilt = Vec::new();
        for msg in rx.iter() {
            match msg {
                ReaderMsg::Block(b) => rebuilt.extend_from_slice(&b.data),
                _ => panic!("clean stream must not produce Bad/Fatal"),
            }
        }
        reader.join().expect("reader thread");
        assert_eq!(rebuilt, stream);
    }

    /// The group-commit watermark: a flush takes only what moved since
    /// the last one, in ascending edge order, counts `count: 0` lines,
    /// and a WAL-seeded slot starts with its recovered arrivals logged.
    #[test]
    fn open_slot_tallies_what_moved_since_the_last_flush() {
        let mut open = OpenSlot::new(4);
        open.add(2, 3);
        open.add(0, 1);
        open.add(2, 4);
        assert_eq!(open.take_tally(), (3, vec![(0, 1), (2, 7)]));
        assert_eq!(open.take_tally(), (0, Vec::new()), "nothing moved");
        open.add(3, 0);
        assert_eq!(open.take_tally(), (1, Vec::new()), "a zero-count line");
        open.add(2, 5);
        assert_eq!(open.take_tally(), (1, vec![(2, 5)]));
        assert_eq!((open.counts.clone(), open.lines), (vec![1, 0, 12, 0], 5));

        open.clear();
        open.add(1, 1);
        assert_eq!(open.take_tally(), (1, vec![(1, 1)]));

        let mut resumed = OpenSlot::new(3);
        resumed.seed(vec![4, 0, 2], 3);
        assert_eq!(resumed.take_tally(), (0, Vec::new()));
        resumed.add(2, 1);
        assert_eq!(resumed.take_tally(), (1, vec![(2, 1)]));
        assert_eq!(resumed.counts, vec![4, 0, 3]);
    }

    #[test]
    fn block_reader_ships_complete_lines() {
        // Small stream, one read chunk: one block up to the last
        // newline, then the unterminated tail flushed at EOF as its
        // own block (a final line without `\n` still counts).
        let msgs = pumped(b"short\nlonger line here\ntail".to_vec(), 64);
        assert_eq!(msgs.len(), 2);
        match &msgs[0] {
            ReaderMsg::Block(b) => {
                assert_eq!(b.data, b"short\nlonger line here\n");
                assert_eq!(b.offset, 0);
            }
            _ => panic!("expected a block"),
        }
        match &msgs[1] {
            ReaderMsg::Block(b) => {
                assert_eq!(b.data, b"tail");
                assert_eq!(b.offset, 23);
            }
            _ => panic!("expected the EOF carry block"),
        }
    }

    #[test]
    fn block_reader_spans_chunks_with_correct_offsets() {
        // A stream larger than one read chunk: lines land in several
        // blocks, every block starts on a line boundary, offsets are
        // absolute, and reassembly is byte-identical.
        let line: &[u8] = b"{\"edge\":3,\"count\":17}\n";
        let mut stream = Vec::new();
        while stream.len() < READ_CHUNK + READ_CHUNK / 2 {
            stream.extend_from_slice(line);
        }
        let mut rebuilt = Vec::new();
        let mut blocks = 0;
        for msg in pumped(stream.clone(), 4096) {
            match msg {
                ReaderMsg::Block(b) => {
                    assert_eq!(b.offset as usize, rebuilt.len(), "offsets are absolute");
                    assert_eq!(
                        b.data.len() % line.len(),
                        0,
                        "blocks split on line boundaries"
                    );
                    rebuilt.extend_from_slice(&b.data);
                    blocks += 1;
                }
                _ => panic!("clean stream must not produce Bad/Fatal"),
            }
        }
        assert!(blocks >= 2, "stream spans chunks");
        assert_eq!(rebuilt, stream);
    }

    #[test]
    fn block_reader_discards_oversized_spanning_lines() {
        // A line that outgrows the cap before its newline arrives is
        // discarded in counting mode: memory stays bounded, the true
        // length, stream offset, and a snippet are reported, and the
        // stream recovers at the next newline.
        let huge = READ_CHUNK + 1000;
        let mut stream = b"ok\n".to_vec();
        stream.extend_from_slice(&vec![b'y'; huge]);
        stream.push(b'\n');
        stream.extend_from_slice(b"{\"edge\":1}\n");
        let msgs = pumped(stream, 64);
        assert_eq!(msgs.len(), 3);
        assert!(matches!(
            &msgs[0],
            ReaderMsg::Block(b) if b.data == b"ok\n" && b.offset == 0
        ));
        match &msgs[1] {
            ReaderMsg::Bad {
                reason,
                offset,
                snippet,
            } => {
                assert_eq!(
                    reason,
                    &format!("line exceeds --max-line-bytes 64 ({huge} bytes discarded)")
                );
                assert_eq!(*offset, 3);
                assert_eq!(snippet, &"y".repeat(SNIPPET_MAX));
            }
            _ => panic!("expected the oversize rejection"),
        }
        assert!(matches!(
            &msgs[2],
            ReaderMsg::Block(b)
                if b.data == b"{\"edge\":1}\n" && b.offset == 3 + huge as u64 + 1
        ));

        // Oversized with no newline before EOF: still classified.
        let msgs = pumped(vec![b'z'; READ_CHUNK + 500], 64);
        assert_eq!(msgs.len(), 1);
        match &msgs[0] {
            ReaderMsg::Bad { reason, offset, .. } => {
                assert!(reason.contains(&format!("{} bytes discarded", READ_CHUNK + 500)));
                assert_eq!(*offset, 0);
            }
            _ => panic!("expected the oversize rejection"),
        }
    }

    #[test]
    fn pump_ships_raw_bytes_for_consumer_classification() {
        // Non-UTF-8 bytes and overlong lines that arrived whole inside
        // a chunk are the serve loop's to classify: the reader ships
        // them raw inside the block. Only the *memory* bound — a line
        // spanning chunks past the cap — is enforced reader-side.
        let mut stream = b"{\"edge\":0}\n".to_vec();
        stream.extend_from_slice(&[0xFF, 0xFE, 0x80, b'\n']); // non-UTF-8
        stream.extend_from_slice(&vec![b'z'; 300]);
        stream.push(b'\n'); // over the 128-byte cap, but in-block
        stream.extend_from_slice(b"{\"slot_end\":true}\n");
        let msgs = pumped(stream.clone(), 128);
        assert_eq!(msgs.len(), 1, "one chunk in, one block out");
        match &msgs[0] {
            ReaderMsg::Block(b) => {
                assert_eq!(b.data, stream);
                assert_eq!(b.offset, 0);
            }
            _ => panic!("expected a block"),
        }
    }

    #[test]
    fn generated_stream_is_deterministic_and_well_formed() {
        let gen = ArrivalGen::new(
            ArrivalProcess::Bursty,
            3,
            SLOTS_PER_DAY,
            90.0,
            &SeedSequence::new(5),
        );
        // Every generated line must round-trip through the daemon's
        // own parser, and slot counts must reconstruct exactly.
        for t in 0..20 {
            let counts = gen.slot(t);
            let mut rebuilt = vec![0u64; 3];
            for (i, &c) in counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let line = format!("{{\"edge\":{i},\"count\":{c}}}");
                match parse_line(&line, 3).expect("generated lines parse") {
                    WireLine::Request { edge, count } => rebuilt[edge] += count,
                    WireLine::SlotEnd => panic!("not a slot end"),
                }
            }
            assert_eq!(rebuilt, counts, "slot {t}");
        }
    }
}
