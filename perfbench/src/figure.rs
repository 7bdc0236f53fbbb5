//! The `figure` workload: the Fig. 3 binary at paper scale (10 edges,
//! 10 seeds, 13 online combinations and Offline).

use std::path::Path;
use std::time::Instant;

use cne_bench::{display_combos, fmt, write_tsv, Scale};
use cne_core::runner::PolicySpec;
use cne_simdata::TaskKind;
use cne_util::series::normalize_by;

use crate::stats::median;
use crate::traced::Tracer;
use crate::{proc, Args, Report, RECONCILE_TOLERANCE};

/// The committed full-scale Fig. 3 series the workload must reproduce
/// byte for byte.
const FIG03_TSV: &str = "results/fig03_cumulative_cost.tsv";
const TSV_NAME: &str = "fig03_cumulative_cost.tsv";

fn expected_tsv() -> Result<Vec<u8>, String> {
    std::fs::read(FIG03_TSV).map_err(|e| format!("cannot read {FIG03_TSV}: {e}"))
}

/// Runs `fig03` until `--seconds` is used up; reports its wall time,
/// peak RSS and CPU time.
///
/// # Errors
/// Fails when the binary cannot be run.
pub fn untraced(args: &Args, bin: &Path, runs: &Path) -> Result<Report, String> {
    let want = expected_tsv()?;
    let mut report = Report::new("figure");
    let started = Instant::now();
    let (mut walls, mut rss, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
    while walls.is_empty() || started.elapsed() < args.seconds {
        let dir = proc::RunDir::fresh(runs.join(format!("i{}", walls.len())))?;
        let t0 = Instant::now();
        let usage = dir
            .spawn(bin, &["--out".to_owned(), "out".to_owned()], "fig03")?
            .reap()?;
        walls.push(t0.elapsed().as_secs_f64());
        rss.push(usage.peak_rss_mb);
        cpu.push(usage.cpu_s);
        report.attempted += 1;
        let got = std::fs::read(dir.join("out").join(TSV_NAME)).unwrap_or_default();
        if !usage.success || got != want {
            report.failed += 1;
            report.fail(format!(
                "fig03 output differs from {FIG03_TSV} (exit ok: {})",
                usage.success
            ));
        }
    }
    let n = walls.len();
    report.add("figure_s", median(&walls)?, "s", n);
    report.add("peak_rss_mb", median(&rss)?, "MiB", n);
    report.add("cpu_s", median(&cpu)?, "s", n);
    report
        .notes
        .push(format!("{n} run(s) of fig03 at paper scale"));
    Ok(report)
}

/// Replays `fig03` in-process with a span around the zoo training, the
/// online grid, the Offline oracle and the TSV write.
///
/// # Errors
/// Fails when the output directory cannot be used.
pub fn traced(runs: &Path) -> Result<Report, String> {
    let want = expected_tsv()?;
    let out = runs.join("out");
    let scale = Scale::preset(false, out.clone());
    let mut report = Report::new("figure");
    let mut tr = Tracer::new(true, 1);
    let started = Instant::now();
    let zoo = tr.span("zoo.train", || scale.train_zoo(TaskKind::MnistLike));
    let config = scale.config(TaskKind::MnistLike, scale.default_edges);
    let online: Vec<PolicySpec> = display_combos()
        .into_iter()
        .map(PolicySpec::Combo)
        .collect();
    let mut results = tr.span("runner.evaluate", || {
        scale.evaluate_grid(&config, &zoo, &online)
    });
    results.extend(tr.span("runner.offline", || {
        scale.evaluate_grid(&config, &zoo, &[PolicySpec::Offline])
    }));
    // The same series, normalization and layout as the fig03 binary.
    tr.span("figure.write_tsv", || {
        let reference = results
            .iter()
            .filter_map(|r| r.mean_cumulative_cost.last().copied())
            .fold(0.0f64, f64::max);
        let normalized: Vec<Vec<f64>> = results
            .iter()
            .map(|r| normalize_by(&r.mean_cumulative_cost, reference))
            .collect();
        let mut header = vec!["t"];
        header.extend(results.iter().map(|r| r.name.as_str()));
        let rows: Vec<Vec<String>> = (0..config.horizon)
            .map(|t| {
                let mut row = vec![t.to_string()];
                row.extend(normalized.iter().map(|s| fmt(s[t])));
                row
            })
            .collect();
        write_tsv(&out, TSV_NAME, &header, &rows);
    });
    let wall_s = started.elapsed().as_secs_f64();
    let spans = tr.spans();
    let top_s: f64 = spans.iter().map(|s| s.us() / 1e6).sum();
    let unreconciled = (wall_s - top_s) / wall_s;
    report.attempted = 1;
    if std::fs::read(out.join(TSV_NAME)).unwrap_or_default() != want {
        report.failed = 1;
        report.fail(format!("in-process Fig. 3 differs from {FIG03_TSV}"));
    }
    if unreconciled.abs() > RECONCILE_TOLERANCE {
        report.fail(format!(
            "layer spans cover {:.1}% of the traced wall time",
            100.0 * (1.0 - unreconciled)
        ));
    }
    let secs = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.us() / 1e6)
            .sum::<f64>()
    };
    report.add("zoo.train_s", secs("zoo.train"), "s", 1);
    report.add("runner.evaluate_s", secs("runner.evaluate"), "s", 1);
    report.add("runner.offline_s", secs("runner.offline"), "s", 1);
    report.add("trace.unreconciled_frac", unreconciled, "ratio", 1);
    Ok(report)
}
