//! The traced run: the served lifecycle replayed in-process through the
//! workspace's public functions, in the order the daemon calls them,
//! with a span around each call.
//!
//! Spans are kept in memory and written out when the run ends. Nothing
//! inside the program is instrumented; the per-stage split of
//! `push_slot` comes from the session's own stage profiler.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cne_core::wal::{self, SyncPolicy, Wal, WalOptions, WalRecord, DEFAULT_SEGMENT_BYTES};
use cne_core::{wire, Checkpoint, ServeSession, WireMsg};
use cne_util::{expo, Recorder};

use crate::alloc;
use crate::gen::{self, Spec, Stream, CHECKPOINT_EVERY};
use crate::oracle;

/// Largest block the driver hands the decoder at once: the daemon's
/// transport read size.
const BLOCK_BYTES: usize = 256 * 1024;
/// Bytes of a WAL frame header (length + CRC).
const FRAME_HEADER: u64 = 8;
/// Stage spans of the session's profiler, in pipeline order.
pub const STAGES: [&str; 4] = ["select", "trade", "serve", "feedback"];
/// Bucket bounds (µs) of the daemon's ops latency histograms.
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

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span wraps, e.g. `wal.append`.
    pub name: &'static str,
    /// Start, ns since the run began.
    pub start_ns: u64,
    /// End, ns since the run began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which lifecycle of the benchmark run the span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration, µs.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span recorder; does nothing when `on` is false.
pub struct Tracer {
    on: bool,
    run: u32,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder for lifecycle `run`, timing from now.
    pub fn new(on: bool, run: u32) -> Self {
        Self {
            on,
            run,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(index);
        let out = f();
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Work the traced lifecycle counted; identical on every run of the
/// same seed.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Wire lines decoded.
    pub lines: u64,
    /// Lines the fast decoder accepted.
    pub fast_hits: u64,
    /// Heap allocations during decoding.
    pub decode_allocs: u64,
    /// Requests the lines carried.
    pub requests: u64,
    /// Heap allocations inside the timed `push_slot` calls.
    pub push_allocs: u64,
    /// Slots served live (not replayed).
    pub slots: u64,
    /// WAL frames appended.
    pub wal_frames: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
    /// WAL fsyncs the daemon's policy makes: boundary frames, segment
    /// rotations, checkpoint markers and the final sync.
    pub fsyncs: u64,
    /// Size of the WAL directory when recovery read it.
    pub wal_tail_bytes: u64,
    /// Size of each checkpoint file written.
    pub checkpoint_bytes: Vec<u64>,
    /// Size of the last `/metrics` page rendered.
    pub page_bytes: u64,
    /// Telemetry events in the final trace.
    pub events: u64,
    /// Final trace size.
    pub trace_bytes: u64,
    /// Profiler totals per stage (µs) and slots profiled.
    pub stage_us: [f64; 4],
    /// Slots the stage totals cover.
    pub stage_slots: u64,
}

/// Outcome of one traced lifecycle.
pub struct Traced {
    /// Spans (empty when tracing was off).
    pub spans: Vec<Span>,
    /// Counted work.
    pub counts: Counts,
    /// Wall time of the whole lifecycle, s.
    pub wall_s: f64,
    /// Oracle verdict on the trace and summary it produced.
    pub oracle: Result<(), String>,
}

fn wal_dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Length of the WAL's last segment, where an opened log appends.
fn last_segment_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(".log"))
                .max_by_key(|e| e.file_name())
                .and_then(|e| e.metadata().ok())
                .map_or(0, |m| m.len())
        })
        .unwrap_or(0)
}

/// Splits a slot's bytes into transport-sized blocks of whole lines.
fn blocks(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut rest = bytes;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let cut = if rest.len() <= BLOCK_BYTES {
            rest.len()
        } else {
            rest[..BLOCK_BYTES]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(rest.len(), |nl| nl + 1)
        };
        let (block, tail) = rest.split_at(cut);
        rest = tail;
        Some(block)
    })
}

/// The daemon's decode step for one line: fast recognizer, then the
/// strict parser. `None` for a blank line.
fn decode_line(line: &[u8], edges: usize, fast_hits: &mut u64) -> Result<Option<WireMsg>, String> {
    if let Some(msg) = wire::decode_fast(line, edges) {
        *fast_hits += 1;
        return Ok(Some(msg));
    }
    let text = std::str::from_utf8(line).map_err(|_| "non-UTF-8 line".to_owned())?;
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    wire::decode_strict(trimmed, edges).map(Some)
}

/// The daemon's per-slot ops bookkeeping: counters, ledger and live
/// monitor gauges, stage latency histograms.
fn record_ops(
    ops: &mut Recorder,
    prev_us: &mut [f64; 5],
    session: &mut ServeSession<'_>,
    requests: u64,
    slot_wall_us: f64,
) {
    ops.incr("serve.slots", 1);
    ops.incr("serve.requests", requests);
    ops.gauge("serve.next_slot", session.next_slot() as f64);
    let ledger = *session.ledger();
    ops.gauge("carbon.cap", ledger.cap().get());
    ops.gauge("carbon.emitted", ledger.emitted().to_allowances().get());
    ops.gauge("carbon.held", ledger.held().get());
    ops.gauge("carbon.slack", ledger.neutrality_slack().get());
    ops.gauge("allowance.bought", ledger.bought().get());
    ops.gauge("allowance.sold", ledger.sold().get());
    ops.gauge("market.net_cost_cents", ledger.net_trading_cost().get());
    if let Some(monitor) = session.live_monitor() {
        if let Some(lambda) = monitor.last_lambda() {
            ops.gauge("dual.lambda", lambda);
        }
        ops.gauge("envelope.live.fit_observed", monitor.fit_observed());
        ops.gauge("envelope.live.fit_bound", monitor.fit_bound());
        ops.gauge("envelope.live.lambda_ceiling", monitor.lambda_ceiling());
    }
    for finding in session.take_live_findings() {
        let class = if finding.excused {
            "envelope.live.excused"
        } else {
            "envelope.live.violations"
        };
        ops.incr(class, 1);
        ops.incr(&format!("envelope.live.{}", finding.monitor), 1);
    }
    if let Some(profiler) = session.profiler() {
        for (i, stage) in STAGES.iter().enumerate() {
            let total = profiler.total_us(&format!("slot/{stage}"));
            let delta = (total - prev_us[i]).max(0.0);
            prev_us[i] = total;
            ops.histogram_with_bounds(&format!("serve.latency.{stage}_us"), &LATENCY_BOUNDS_US)
                .record(delta);
        }
        let step_total = profiler.total_us("slot");
        let step = (step_total - prev_us[4]).max(0.0);
        prev_us[4] = step_total;
        ops.histogram_with_bounds("serve.latency.ingest_us", &LATENCY_BOUNDS_US)
            .record((slot_wall_us - step).max(0.0));
    }
    ops.histogram_with_bounds("serve.latency.slot_us", &LATENCY_BOUNDS_US)
        .record(slot_wall_us);
}

struct Driver<'a> {
    tr: Tracer,
    spec: &'a Spec,
    stream: &'a Stream,
    dir: PathBuf,
    sync: SyncPolicy,
    counts: Counts,
    /// Bytes in the WAL's current segment.
    segment_bytes: u64,
    /// The daemon's ops recorder, rebuilt per daemon start.
    ops: Recorder,
    /// Profiler stage totals (µs) at the previous slot: [`STAGES`] order,
    /// then the `slot` root.
    prev_us: [f64; 5],
    msgs: Vec<WireMsg>,
}

impl Driver<'_> {
    fn fsync(&mut self, wal: &mut Wal) -> Result<(), String> {
        self.counts.fsyncs += 1;
        self.tr.span("wal.fsync", || wal.sync())
    }

    /// The fsync of the closing segment the daemon's log makes when it
    /// rotates, unless its policy is `off`.
    fn rotation_fsync(&mut self, wal: &mut Wal) -> Result<(), String> {
        if self.sync != SyncPolicy::Off {
            self.fsync(wal)?;
        }
        Ok(())
    }

    fn append(&mut self, wal: &mut Wal, record: &WalRecord) -> Result<(), String> {
        if self.segment_bytes >= DEFAULT_SEGMENT_BYTES {
            self.rotation_fsync(wal)?;
            self.segment_bytes = 0;
        }
        let frame = FRAME_HEADER
            + match record {
                WalRecord::Arrivals { pairs, .. } => 13 + 16 * pairs.len() as u64,
                _ => 9,
            };
        self.counts.wal_bytes += frame;
        self.segment_bytes += frame;
        self.counts.wal_frames += 1;
        self.tr.span("wal.append", || wal.append(record))?;
        let sync = match self.sync {
            SyncPolicy::Every => true,
            SyncPolicy::Slot => !matches!(record, WalRecord::Arrivals { .. }),
            SyncPolicy::Off => false,
        };
        if sync {
            self.fsync(wal)?;
        }
        Ok(())
    }

    /// A fresh ops recorder, as a starting daemon builds it.
    fn start_ops(&mut self, session: &ServeSession<'_>, seed: u64) {
        let mut ops = Recorder::new();
        ops.set_label("policy", session.policy_name());
        ops.set_label("seed", seed.to_string());
        ops.set_label("stream", "ops");
        ops.gauge("serve.start_slot", session.next_slot() as f64);
        ops.gauge("serve.horizon", session.horizon() as f64);
        self.ops = ops;
        self.prev_us = [0.0; 5];
    }

    /// Serves slots `from..to` the way the daemon's loop does.
    fn serve(
        &mut self,
        session: &mut ServeSession<'_>,
        wal: &mut Wal,
        from: usize,
        to: usize,
    ) -> Result<(), String> {
        let edges = self.spec.edges;
        let mut open = vec![0u64; edges];
        let stream = self.stream;
        for t in from..to {
            for block in blocks(&stream.slots[t]) {
                self.ops.incr("serve.ingest.bytes", block.len() as u64);
                let mut msgs = std::mem::take(&mut self.msgs);
                msgs.clear();
                let mut hits = 0;
                let before = alloc::count();
                let decoded = self.tr.span("wire.decode", || {
                    for line in block.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
                        if let Some(msg) = decode_line(line, edges, &mut hits)? {
                            msgs.push(msg);
                        }
                    }
                    Ok::<_, String>(())
                });
                self.counts.decode_allocs += alloc::count() - before;
                decoded?;
                self.counts.fast_hits += hits;
                self.counts.lines += msgs.len() as u64;
                let mut pending: Vec<(u64, u64)> = Vec::new();
                let mut requests = 0;
                self.tr.span("serve.accumulate", || {
                    for msg in &msgs {
                        if let WireMsg::Request { edge, count } = *msg {
                            pending.push((edge as u64, count));
                            open[edge] += count;
                            requests += count;
                        }
                    }
                });
                self.counts.requests += requests;
                self.msgs = msgs;
                if !pending.is_empty() {
                    self.append(
                        wal,
                        &WalRecord::Arrivals {
                            slot: t as u64,
                            pairs: pending,
                        },
                    )?;
                }
            }
            self.close_slot(session, wal, &mut open)?;
        }
        Ok(())
    }

    fn close_slot(
        &mut self,
        session: &mut ServeSession<'_>,
        wal: &mut Wal,
        open: &mut [u64],
    ) -> Result<(), String> {
        let slot = session.next_slot() as u64;
        let requests: u64 = open.iter().sum();
        self.append(wal, &WalRecord::SlotClose { slot })?;
        let before = alloc::count();
        let started = Instant::now();
        self.tr
            .span("session.push_slot", || session.push_slot(open));
        let slot_wall_us = started.elapsed().as_secs_f64() * 1e6;
        self.counts.push_allocs += alloc::count() - before;
        self.counts.slots += 1;
        open.iter_mut().for_each(|c| *c = 0);
        let next = session.next_slot();
        if next.is_multiple_of(CHECKPOINT_EVERY) && !session.is_done() {
            let started = Instant::now();
            let ckpt = self
                .tr
                .span("session.checkpoint", || session.checkpoint())?;
            let path = self.dir.join("state.ckpt");
            self.tr.span("checkpoint.save", || ckpt.save(&path))?;
            self.counts
                .checkpoint_bytes
                .push(std::fs::metadata(&path).map_or(0, |m| m.len()));
            self.ops.incr("serve.checkpoints", 1);
            self.ops
                .histogram_with_bounds("serve.latency.checkpoint_us", &LATENCY_BOUNDS_US)
                .record(started.elapsed().as_secs_f64() * 1e6);
            // `install_checkpoint` rotates first, then appends the
            // marker and fsyncs it: with the log opened `off`, the
            // rotation's fsync is the driver's to make.
            self.rotation_fsync(wal)?;
            self.tr.span("wal.install_checkpoint", || {
                wal.install_checkpoint(next as u64)
            })?;
            self.counts.wal_frames += 1;
            self.counts.wal_bytes += FRAME_HEADER + 9;
            self.counts.fsyncs += 1;
            self.segment_bytes = FRAME_HEADER + 9;
        }
        let (ops, prev_us) = (&mut self.ops, &mut self.prev_us);
        self.tr.span("ops.record", || {
            record_ops(ops, prev_us, session, requests, slot_wall_us);
        });
        let trace = session.telemetry().expect("telemetry is on");
        let ops = &self.ops;
        let page = self
            .tr
            .span("expo.render", || expo::render(&[trace, ops]))?;
        self.counts.page_bytes = page.len() as u64;
        Ok(())
    }

    fn take_stages(&mut self, session: &ServeSession<'_>) {
        if let Some(profiler) = session.profiler() {
            for (i, stage) in STAGES.iter().enumerate() {
                self.counts.stage_us[i] += profiler.total_us(&format!("slot/{stage}"));
            }
            self.counts.stage_slots += profiler.count("slot");
        }
    }
}

/// Runs the traced lifecycle of `spec` in `dir` (created fresh, removed
/// afterwards), checking its output against `expected`.
///
/// # Errors
/// Fails when a layer call returns an error.
pub fn lifecycle(
    spec: &Spec,
    seed: u64,
    stream: &Stream,
    expected: &oracle::Expected,
    dir: PathBuf,
    spans_on: bool,
    run: u32,
) -> Result<Traced, String> {
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let sync: SyncPolicy = spec.wal_sync.parse()?;
    let wal_dir = dir.join("wal");
    // The daemon's own fsyncs follow its policy; here the log never
    // syncs by itself, and the driver calls `Wal::sync` where the
    // policy would, so that fsync is a span of its own.
    let wal_opts = WalOptions {
        sync: SyncPolicy::Off,
        ..WalOptions::default()
    };
    let mut d = Driver {
        tr: Tracer::new(spans_on, run),
        spec,
        stream,
        dir: dir.clone(),
        sync,
        counts: Counts::default(),
        segment_bytes: 0,
        ops: Recorder::new(),
        prev_us: [0.0; 5],
        msgs: Vec::new(),
    };
    let started = Instant::now();
    let kill = gen::kill_slot(seed);
    let config = oracle::config(spec.edges);
    let options = oracle::serve_options(1, true);

    // First daemon: start, serve up to the kill slot, die.
    let zoo = d.tr.span("zoo.train", oracle::train_zoo);
    let mut session = d.tr.span("session.new", || {
        ServeSession::new(config.clone(), &zoo, seed, oracle::combo(), &options)
    });
    let (mut wal, _) = d.tr.span("wal.open", || Wal::open(&wal_dir, wal_opts))?;
    d.start_ops(&session, seed);
    d.serve(&mut session, &mut wal, 0, kill)?;
    d.take_stages(&session);
    drop(session);
    drop(wal);
    drop(zoo);

    // Second daemon: recover from the checkpoint and the WAL tail.
    let zoo = d.tr.span("zoo.train", oracle::train_zoo);
    let ckpt = d.tr.span("checkpoint.load", || {
        Checkpoint::load(&dir.join("state.ckpt"))
    })?;
    let mut session = d.tr.span("session.resume", || {
        ServeSession::resume(config.clone(), &zoo, oracle::combo(), &ckpt, &options)
    })?;
    d.counts.wal_tail_bytes = wal_dir_bytes(&wal_dir);
    let (mut wal, recovery) =
        d.tr.span("wal.read_records", || Wal::open(&wal_dir, wal_opts))?;
    let start_slot = session.next_slot() as u64;
    let tail = d.tr.span("wal.replay", || {
        wal::replay(&recovery.records, spec.edges, start_slot)
    })?;
    d.tr.span("session.apply_wal_tail", || session.apply_wal_tail(&tail))?;
    if session.next_slot() != kill || !tail.open.iter().all(|&c| c == 0) {
        return Err(format!(
            "recovery resumed at slot {} (open arrivals {}), expected slot {kill}",
            session.next_slot(),
            tail.open.iter().sum::<u64>()
        ));
    }
    d.segment_bytes = last_segment_bytes(&wal_dir);
    d.start_ops(&session, seed);
    d.serve(&mut session, &mut wal, kill, gen::HORIZON)?;
    // The daemon's final sync on a clean exit.
    d.fsync(&mut wal)?;
    d.take_stages(&session);
    let horizon = session.horizon();
    let outcome = d.tr.span("session.finish", || session.finish());
    let trace_path = dir.join("trace.jsonl");
    d.tr.span("telemetry.write", || {
        let file = std::fs::File::create(&trace_path).map_err(|e| e.to_string())?;
        let mut sink = std::io::BufWriter::new(file);
        let rec = outcome.telemetry.as_ref().expect("telemetry is on");
        rec.write_jsonl(&mut sink).map_err(|e| e.to_string())?;
        sink.flush().map_err(|e| e.to_string())
    })?;
    let sidecar = expo::ops_sidecar_path(&trace_path.to_string_lossy());
    d.tr.span("ops.write", || {
        std::fs::write(&sidecar, d.ops.to_jsonl_string()).map_err(|e| e.to_string())
    })?;
    let wall_s = started.elapsed().as_secs_f64();

    let trace = std::fs::read(&trace_path).unwrap_or_default();
    d.counts.trace_bytes = trace.len() as u64;
    d.counts.events = outcome
        .telemetry
        .as_ref()
        .map_or(0, |r| r.events().len() as u64);
    let stdout = oracle::summary_lines(&outcome, horizon).join("\n");
    let verdict = oracle::check(expected, &stdout, &trace);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Traced {
        spans: d.tr.spans().to_vec(),
        counts: d.counts,
        wall_s,
        oracle: verdict,
    })
}

/// Times `push_slot` over the whole stream on a session with
/// `edge_threads` edge workers and the daemon's stage profiler; per-slot
/// µs.
pub fn push_slot_times(
    zoo: &cne_nn::ModelZoo,
    spec: &Spec,
    seed: u64,
    stream: &Stream,
    edge_threads: usize,
) -> Vec<f64> {
    let mut session = ServeSession::new(
        oracle::config(spec.edges),
        zoo,
        seed,
        oracle::combo(),
        &oracle::serve_options(edge_threads, true),
    );
    stream
        .totals
        .iter()
        .map(|raw| {
            let started = Instant::now();
            session.push_slot(raw);
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// Writes spans as JSONL: name, start, end (ns), parent, run.
///
/// # Errors
/// Fails on an I/O error.
pub fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let file = std::fs::File::create(path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
            s.name, s.start_ns, s.end_ns, s.run
        )
        .map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

/// Self time per span name (µs): duration less the time its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut child_us = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.us();
        }
    }
    let mut by_name: Vec<(&'static str, f64)> = Vec::new();
    for (s, child) in spans.iter().zip(child_us) {
        let own = s.us() - child;
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, total)) => *total += own,
            None => by_name.push((s.name, own)),
        }
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_cut_at_line_ends_and_cover_the_input() {
        let line = b"{\"edge\":1}\n";
        let bytes: Vec<u8> = line
            .iter()
            .copied()
            .cycle()
            .take(line.len() * 60_000)
            .collect();
        let parts: Vec<&[u8]> = blocks(&bytes).collect();
        assert!(parts.len() > 1);
        assert!(parts
            .iter()
            .all(|p| p.len() <= BLOCK_BYTES && p.ends_with(b"\n")));
        assert_eq!(parts.concat(), bytes);
    }

    #[test]
    fn self_time_excludes_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        };
        let spans = vec![
            span("outer", 0, 10_000, None),
            span("inner", 2_000, 6_000, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![("outer", 6.0), ("inner", 4.0)]);
    }

    #[test]
    fn tracer_nests_and_switches_off() {
        let mut on = Tracer::new(true, 3);
        on.span("outer", || ());
        let mut off = Tracer::new(false, 3);
        off.span("outer", || ());
        assert_eq!(on.spans().len(), 1);
        assert_eq!(on.spans()[0].run, 3);
        assert!(off.spans().is_empty());
    }
}
