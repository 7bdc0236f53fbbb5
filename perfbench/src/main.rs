//! End-to-end benchmark of `carbon-edge serve` and the Fig. 3 binary.
//!
//! ```text
//! perfbench --workload ingest|fleet|recover|figure|all --seed N \
//!           --seconds S --trace 0|1 [--bin-dir DIR]
//! ```
//!
//! Run it from the repository root after building the workspace in
//! release mode (`perfbench/run.py` does both). With `--trace 0` it
//! drives the real binaries and prints the end-to-end metrics; with
//! `--trace 1` it also replays the workload in-process with a span
//! around each layer call and prints the per-layer metrics. The last
//! stdout line is one JSON object; the exit code is non-zero when any
//! output fails its oracle. See `perfbench/README.md`.

mod alloc;
mod figure;
mod gen;
mod oracle;
mod proc;
mod served;
mod stats;
mod traced;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{median, tail_percentile};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Largest share of the traced wall time the layer spans may leave
/// unaccounted for before the traced run counts as failed.
const RECONCILE_TOLERANCE: f64 = 0.05;
/// Where run directories and span files go, under the repository root.
const RUNS_DIR: &str = ".bench_runs";
const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
    bin_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        bin_dir: PathBuf::from(".bench_build/release"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                args.seconds = Duration::from_secs_f64(s.max(0.0));
            }
            "--trace" => args.trace = value()? == "1",
            "--bin-dir" => args.bin_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    /// Part of the result line. Metrics that are not are printed in the
    /// table only.
    gated: bool,
}

/// What one workload run reports.
#[derive(Default)]
struct Report {
    workload: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Context printed with the table, not part of the result line.
    notes: Vec<String>,
    problems: Vec<String>,
}

impl Report {
    fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_owned(),
            correct: true,
            ..Self::default()
        }
    }

    fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
            gated: true,
        });
    }

    /// A metric for the table only: it swings with the host's steal
    /// time more than any bound allows, or not every workload has it,
    /// so it cannot gate a change.
    fn add_ungated(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.add(name, value, unit, samples);
        if let Some(m) = self.metrics.last_mut() {
            m.gated = false;
        }
    }

    fn fail(&mut self, problem: String) {
        self.correct = false;
        self.problems.push(problem);
    }

    fn print(&self) {
        println!("== {} ==", self.workload);
        for m in &self.metrics {
            println!(
                "{:<32} {:>16.6} {:<10} n={}{}",
                m.name,
                m.value,
                m.unit,
                m.samples,
                if m.gated { "" } else { " (table only)" }
            );
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<32} {:>16.6} {:<10} n={}",
            "error_frac", frac, "ratio", self.attempted
        );
        for note in &self.notes {
            println!("note: {note}");
        }
        for problem in &self.problems {
            println!("FAILED: {problem}");
        }
    }
}

fn json_str(s: &str) -> String {
    cne_util::json::Json::Str(s.to_owned()).encode()
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &Metric)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn ms(us: f64) -> f64 {
    us / 1e3
}

fn span_us(spans: &[traced::Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(traced::Span::us)
        .collect()
}

/// Operations one lifecycle of `spec` attempts: wire lines for the
/// ingest firehose, slots for the closed-loop workloads.
fn ops_per_lifecycle(spec: &gen::Spec, stream: &gen::Stream) -> u64 {
    if spec.closed_loop {
        gen::HORIZON as u64
    } else {
        stream.lines
    }
}

fn account(report: &mut Report, ops: u64, lc: &served::Lifecycle) {
    report.attempted += ops;
    match &lc.mismatch {
        None => report.failed += lc.bad_lines.min(ops),
        Some(e) => {
            report.failed += ops;
            report.fail(format!("served output: {e}"));
        }
    }
    if lc.bad_lines > 0 {
        report.fail(format!(
            "the daemon rejected {} generated lines",
            lc.bad_lines
        ));
    }
}

/// Absolute paths of the `carbon-edge` and `fig03` binaries (the
/// processes under test run inside their own directories).
fn bins(args: &Args) -> Result<(PathBuf, PathBuf), String> {
    let find = |name: &str| {
        let path = args.bin_dir.join(name);
        std::fs::canonicalize(&path).map_err(|e| format!("cannot find {}: {e}", path.display()))
    };
    Ok((find("carbon-edge")?, find("fig03")?))
}

fn serve_untraced(args: &Args, spec: &gen::Spec, runs: &Path) -> Result<Report, String> {
    let (bin, _) = bins(args)?;
    let stream = gen::generate(spec, args.seed);
    let expected = oracle::replay(&oracle::train_zoo(), spec.edges, args.seed, &stream.totals);
    let mut report = Report::new(spec.name);
    let ticks_before = proc::cpu_ticks();
    let started = Instant::now();
    let mut lcs: Vec<served::Lifecycle> = Vec::new();
    // Start another lifecycle only if one as long as the last still
    // ends within the measured time.
    while lcs
        .last()
        .is_none_or(|last| started.elapsed() + Duration::from_secs_f64(last.wall_s) <= args.seconds)
    {
        let lc = served::lifecycle(
            &bin,
            spec,
            args.seed,
            &stream,
            &expected,
            runs.join(format!("i{}", lcs.len())),
        )?;
        account(&mut report, ops_per_lifecycle(spec, &stream), &lc);
        lcs.push(lc);
    }
    let n = lcs.len();
    let pick = |f: fn(&served::Lifecycle) -> f64| lcs.iter().map(f).collect::<Vec<f64>>();
    // Slot-close percentiles are taken per lifecycle (128 sampled slots
    // leave 12 beyond p90), then the median over lifecycles, so one
    // lifecycle slowed by a noisy neighbour does not set the run's tail.
    let slots: usize = lcs.iter().map(|lc| lc.slot_close_ms.len()).sum();
    let mut p50s = Vec::with_capacity(n);
    let mut p90s = Vec::with_capacity(n);
    for lc in &lcs {
        p50s.push(median(&lc.slot_close_ms)?);
        p90s.push(tail_percentile(&lc.slot_close_ms, 0.9)?);
    }
    let rates: Vec<f64> = lcs
        .iter()
        .map(|lc| stream.requests as f64 / lc.stream_s)
        .collect();
    report.add("setup_s", median(&pick(|lc| lc.setup_s))?, "s", n);
    report.add("req_per_s", median(&rates)?, "requests/s", n);
    report.add("slot_close_p50_ms", median(&p50s)?, "ms", slots);
    report.add_ungated("slot_close_p90_ms", median(&p90s)?, "ms", slots);
    report.add("recovery_s", median(&pick(|lc| lc.recovery_s))?, "s", n);
    report.add(
        "peak_rss_mb",
        median(&pick(|lc| lc.usage.peak_rss_mb))?,
        "MiB",
        n,
    );
    report.add("cpu_s", median(&pick(|lc| lc.usage.cpu_s))?, "s", n);
    for (name, values) in [
        ("setup_s", pick(|lc| lc.setup_s)),
        ("req_per_s", rates.clone()),
        ("slot_close_p50_ms", p50s),
        ("slot_close_p90_ms", p90s),
        ("recovery_s", pick(|lc| lc.recovery_s)),
        ("peak_rss_mb", pick(|lc| lc.usage.peak_rss_mb)),
        ("cpu_s", pick(|lc| lc.usage.cpu_s)),
    ] {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        report
            .notes
            .push(format!("{name} per lifecycle: {}", shown.join(" ")));
    }
    let scrapes: Vec<f64> = lcs
        .iter()
        .flat_map(|lc| lc.scrape_us.iter().copied())
        .collect();
    let lateness: Vec<f64> = lcs
        .iter()
        .flat_map(|lc| lc.lateness_us.iter().copied())
        .collect();
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, proc::cpu_ticks()) {
        report.notes.push(format!(
            "host steal time during the run: {:.1}% of all CPU time",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        ));
    }
    report.notes.push(format!(
        "{n} lifecycle(s); {} requests in {} lines per lifecycle; kill at slot {}; \
         /metrics polled {} (at most {} µs apart), {} scrapes, median {:.0} µs each{}",
        stream.requests,
        stream.lines,
        gen::kill_slot(args.seed),
        if spec.closed_loop {
            "every 5% of the recent median slot-close time"
        } else {
            "continuously"
        },
        spec.poll.as_micros(),
        scrapes.len(),
        median(&scrapes).unwrap_or(0.0),
        median(&lateness).map_or(String::new(), |m| format!(
            "; generator lateness median {m:.0} µs over {} slots",
            lateness.len()
        ))
    ));
    Ok(report)
}

fn serve_traced(args: &Args, spec: &gen::Spec, runs: &Path) -> Result<Report, String> {
    let (bin, _) = bins(args)?;
    let stream = gen::generate(spec, args.seed);
    let expected = oracle::replay(&oracle::train_zoo(), spec.edges, args.seed, &stream.totals);
    let mut report = Report::new(spec.name);

    let lc = served::lifecycle(
        &bin,
        spec,
        args.seed,
        &stream,
        &expected,
        runs.join("untraced"),
    )?;
    account(&mut report, ops_per_lifecycle(spec, &stream), &lc);
    let on = traced::lifecycle(
        spec,
        args.seed,
        &stream,
        &expected,
        runs.join("traced"),
        true,
        1,
    )?;
    let off = traced::lifecycle(
        spec,
        args.seed,
        &stream,
        &expected,
        runs.join("plain"),
        false,
        2,
    )?;
    for (what, verdict) in [("traced", &on.oracle), ("untraced in-process", &off.oracle)] {
        if let Err(e) = verdict {
            report.fail(format!("{what} replay output: {e}"));
        }
    }
    // `push_slot` alone on one and on two edge workers, outside the
    // lifecycle, so the two figures share their conditions.
    let zoo = oracle::train_zoo();
    let et1 = traced::push_slot_times(&zoo, spec, args.seed, &stream, 1);
    let et2 = traced::push_slot_times(&zoo, spec, args.seed, &stream, 2);
    drop(zoo);
    let spans_path =
        PathBuf::from(RUNS_DIR).join(format!("{}-seed{}.spans.jsonl", spec.name, args.seed));
    traced::write_spans(&spans_path, &on.spans)?;

    let s = &on.spans;
    let c = &on.counts;
    let top_us: f64 = s
        .iter()
        .filter(|x| x.parent.is_none())
        .map(traced::Span::us)
        .sum();
    let unreconciled = (on.wall_s - top_us / 1e6) / on.wall_s;
    if unreconciled.abs() > RECONCILE_TOLERANCE {
        report.fail(format!(
            "layer spans cover {:.1}% of the traced wall time; tolerance is {:.0}%",
            100.0 * (1.0 - unreconciled),
            100.0 * RECONCILE_TOLERANCE
        ));
    }
    let one = |name: &str| span_us(s, name).first().copied().unwrap_or(0.0);
    let total = |name: &str| span_us(s, name).iter().sum::<f64>();
    let med_of = |name: &str| median(&span_us(s, name)).unwrap_or(0.0);
    let p90_of = |name: &str| {
        let v = span_us(s, name);
        tail_percentile(&v, 0.9).unwrap_or_else(|_| v.iter().copied().fold(0.0, f64::max))
    };
    let count = |name: &str| span_us(s, name).len();
    let slots = c.slots.max(1) as f64;
    let lines = c.lines.max(1) as f64;

    report.add(
        "zoo.train_s",
        med_of("zoo.train") / 1e6,
        "s",
        count("zoo.train"),
    );
    report.add("session.new_ms", ms(one("session.new")), "ms", 1);
    report.add("session.resume_ms", ms(one("session.resume")), "ms", 1);
    report.add(
        "session.push_slot_us.p50",
        med_of("session.push_slot"),
        "us",
        count("session.push_slot"),
    );
    report.add(
        "session.push_slot_us.p90",
        p90_of("session.push_slot"),
        "us",
        count("session.push_slot"),
    );
    for (i, stage) in traced::STAGES.iter().enumerate() {
        let per_slot = c.stage_us[i] / c.stage_slots.max(1) as f64;
        report.add(
            &format!("session.{stage}_us"),
            per_slot,
            "us",
            c.stage_slots as usize,
        );
    }
    report.add(
        "session.push_slot_allocs",
        c.push_allocs as f64 / slots,
        "count",
        c.slots as usize,
    );
    report.add("session.push_slot_us.et1", median(&et1)?, "us", et1.len());
    report.add("session.push_slot_us.et2", median(&et2)?, "us", et2.len());
    report.add(
        "wire.decode_ns_per_line",
        total("wire.decode") * 1e3 / lines,
        "ns",
        c.lines as usize,
    );
    report.add(
        "wire.fast_hit_frac",
        c.fast_hits as f64 / lines,
        "ratio",
        c.lines as usize,
    );
    report.add(
        "wire.allocs_per_line",
        c.decode_allocs as f64 / lines,
        "count",
        c.lines as usize,
    );
    report.add(
        "wal.append_us.p50",
        med_of("wal.append"),
        "us",
        count("wal.append"),
    );
    report.add(
        "wal.append_us.p90",
        p90_of("wal.append"),
        "us",
        count("wal.append"),
    );
    report.add(
        "wal.bytes_per_req",
        c.wal_bytes as f64 / c.requests.max(1) as f64,
        "bytes",
        c.requests as usize,
    );
    report.add(
        "wal.frames_per_slot",
        c.wal_frames as f64 / slots,
        "count",
        c.slots as usize,
    );
    report.add(
        "wal.fsyncs_per_slot",
        c.fsyncs as f64 / slots,
        "count",
        c.slots as usize,
    );
    report.add(
        "wal.fsync_us.p50",
        med_of("wal.fsync"),
        "us",
        count("wal.fsync"),
    );
    report.add("wal.tail_mb", c.wal_tail_bytes as f64 / MIB, "MiB", 1);
    report.add("wal.read_records_ms", ms(one("wal.read_records")), "ms", 1);
    report.add("wal.replay_ms", ms(one("wal.replay")), "ms", 1);
    report.add(
        "session.apply_wal_tail_ms",
        ms(one("session.apply_wal_tail")),
        "ms",
        1,
    );
    let ckpt_bytes: Vec<f64> = c.checkpoint_bytes.iter().map(|&b| b as f64).collect();
    report.add(
        "checkpoint.bytes",
        median(&ckpt_bytes).unwrap_or(0.0),
        "bytes",
        ckpt_bytes.len(),
    );
    report.add(
        "checkpoint.save_ms",
        ms(med_of("checkpoint.save")),
        "ms",
        count("checkpoint.save"),
    );
    report.add("checkpoint.load_ms", ms(one("checkpoint.load")), "ms", 1);
    report.add("telemetry.events", c.events as f64, "count", 1);
    report.add("telemetry.trace_mb", c.trace_bytes as f64 / MIB, "MiB", 1);
    report.add("telemetry.write_ms", ms(one("telemetry.write")), "ms", 1);
    report.add(
        "expo.render_us",
        med_of("expo.render"),
        "us",
        count("expo.render"),
    );
    // The page the daemon serves; the driver renders the same series.
    report.add(
        "expo.page_bytes",
        median(&lc.page_bytes).unwrap_or(c.page_bytes as f64),
        "bytes",
        lc.page_bytes.len(),
    );
    report.add(
        "admin.scrape_us",
        median(&lc.scrape_us).unwrap_or(0.0),
        "us",
        lc.scrape_us.len(),
    );
    report.add("transport.unattributed_s", lc.wall_s - top_us / 1e6, "s", 1);
    report.add(
        "reader.backlog_mb",
        lc.usage.peak_rss_mb - lc.rss_after_setup_mb,
        "MiB",
        1,
    );
    // An open loop never waits for a slot, so it has no lateness.
    if let Ok(lateness) = median(&lc.lateness_us) {
        report.add_ungated("gen.lateness_us", lateness, "us", lc.lateness_us.len());
    }
    report.add(
        "trace.overhead_frac",
        (on.wall_s - off.wall_s) / off.wall_s,
        "ratio",
        2,
    );
    report.add("trace.unreconciled_frac", unreconciled, "ratio", 1);

    let mut selfs = traced::self_times(s);
    selfs.sort_by(|a, b| b.1.total_cmp(&a.1));
    let listed: Vec<String> = selfs
        .iter()
        .map(|(name, us)| format!("{name} {:.3} s", us / 1e6))
        .collect();
    report.notes.push(format!(
        "/metrics page: the daemon served {:.0} bytes (median), the driver rendered {} bytes",
        median(&lc.page_bytes).unwrap_or(0.0),
        c.page_bytes
    ));
    report.notes.push(format!(
        "traced wall {:.3} s = layer self times [{}] + driver glue {:.3} s; untraced daemon lifecycle {:.3} s; \
         spans in {}",
        on.wall_s,
        listed.join(", "),
        on.wall_s - top_us / 1e6,
        lc.wall_s,
        spans_path.display()
    ));
    Ok(report)
}

fn run_one(args: &Args, workload: &str) -> Result<Report, String> {
    let runs = PathBuf::from(RUNS_DIR).join(format!(
        "{workload}-seed{}-{}",
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&runs).map_err(|e| format!("cannot create {}: {e}", runs.display()))?;
    let result = if workload == "figure" {
        if args.trace {
            figure::traced(&runs)
        } else {
            bins(args).and_then(|(_, fig03)| figure::untraced(args, &fig03, &runs))
        }
    } else {
        let spec = gen::spec(workload).ok_or(format!(
            "unknown workload '{workload}' (expected ingest, fleet, recover, figure or all)"
        ))?;
        if args.trace {
            serve_traced(args, &spec, &runs)
        } else {
            serve_untraced(args, &spec, &runs)
        }
    };
    let _ = std::fs::remove_dir_all(&runs);
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        gen::SPECS
            .iter()
            .map(|s| s.name)
            .chain(["figure"])
            .collect()
    } else {
        vec![args.workload.as_str()]
    };
    let mut reports = Vec::new();
    for workload in workloads {
        match run_one(&args, workload) {
            Ok(report) => {
                report.print();
                reports.push(report);
            }
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let single = reports.len() == 1;
    let named: Vec<(String, &Metric)> = reports
        .iter()
        .flat_map(|r| {
            r.metrics.iter().filter(|m| m.gated).map(move |m| {
                let name = if single {
                    m.name.clone()
                } else {
                    format!("{}.{}", r.workload, m.name)
                };
                (name, m)
            })
        })
        .collect();
    let correct = reports.iter().all(|r| r.correct);
    let attempted = reports.iter().map(|r| r.attempted).sum();
    let failed = reports.iter().map(|r| r.failed).sum();
    let samples: Vec<String> = named
        .iter()
        .map(|(name, m)| format!("{}: {}", json_str(name), m.samples))
        .collect();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"samples\": {{{}}}, \"claim\": null}}",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        samples.join(", ")
    );
    println!("{}", result_line(correct, attempted, failed, &named));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
