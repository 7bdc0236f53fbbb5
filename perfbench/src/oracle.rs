//! Output oracles: what a served run must print and write, computed by
//! feeding the generated per-slot totals straight into a `ServeSession`
//! — no transport, decoder, WAL or admin endpoint involved.

use cne_core::{Combo, ServeOptions, ServeSession};
use cne_edgesim::SimConfig;
use cne_nn::{ModelZoo, ZooConfig};
use cne_simdata::TaskKind;
use cne_util::SeedSequence;

/// The policy every served workload runs.
pub const POLICY: &str = "ours";

/// The daemon's model zoo: the default configuration and seed that
/// `carbon-edge serve` trains at start-up.
pub fn train_zoo() -> ModelZoo {
    ModelZoo::train(
        TaskKind::MnistLike,
        &ZooConfig::default(),
        &SeedSequence::new(2025),
    )
}

/// The simulator configuration `carbon-edge serve --edges N` builds.
pub fn config(edges: usize) -> SimConfig {
    SimConfig::paper_default(TaskKind::MnistLike, edges)
}

/// The policy combination for [`POLICY`].
pub fn combo() -> Combo {
    POLICY.parse().expect("'ours' is a valid policy")
}

/// Session options matching the daemon's (`edge_threads` aside, which
/// does not change any output).
pub fn serve_options(edge_threads: usize, stage_profiler: bool) -> ServeOptions {
    ServeOptions {
        edge_threads,
        telemetry: true,
        live_monitor: true,
        stage_profiler,
        ..ServeOptions::default()
    }
}

/// Expected daemon output for one (workload, seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// The summary lines the daemon prints on stdout at exit.
    pub summary: Vec<String>,
    /// The `--telemetry` trace bytes.
    pub trace: Vec<u8>,
}

/// The summary block of a finished session, line for line as the
/// daemon prints it.
pub fn summary_lines(outcome: &cne_core::ServeOutcome, horizon: usize) -> Vec<String> {
    vec![
        format!("served       : {horizon} slots, policy {POLICY}"),
        format!("total cost   : {:.1}", outcome.record.total_cost()),
        format!(
            "violation    : {:.2} allowances",
            outcome.record.violation()
        ),
        format!("switches     : {}", outcome.record.total_switches()),
        format!("p1 regret    : {:.1}", outcome.p1_regret),
        format!(
            "envelopes    : {} theorem-envelope violations",
            outcome.envelope_violations
        ),
    ]
}

/// Encodes a finished session's trace exactly as `--telemetry` writes it.
pub fn trace_bytes(outcome: &cne_core::ServeOutcome) -> Vec<u8> {
    let mut out = Vec::new();
    outcome
        .telemetry
        .as_ref()
        .expect("telemetry was enabled")
        .write_jsonl(&mut out)
        .expect("writing to a Vec cannot fail");
    out
}

/// Replays `totals` through a fresh session seeded with `seed`.
pub fn replay(zoo: &ModelZoo, edges: usize, seed: u64, totals: &[Vec<u64>]) -> Expected {
    let mut session =
        ServeSession::new(config(edges), zoo, seed, combo(), &serve_options(1, false));
    for raw in totals {
        session.push_slot(raw);
    }
    let horizon = session.horizon();
    let outcome = session.finish();
    Expected {
        summary: summary_lines(&outcome, horizon),
        trace: trace_bytes(&outcome),
    }
}

/// The summary lines found in a daemon's stdout.
pub fn summary_in(stdout: &str) -> Vec<String> {
    const KEYS: [&str; 6] = [
        "served       :",
        "total cost   :",
        "violation    :",
        "switches     :",
        "p1 regret    :",
        "envelopes    :",
    ];
    stdout
        .lines()
        .filter(|l| KEYS.iter().any(|k| l.starts_with(k)))
        .map(str::to_owned)
        .collect()
}

/// Compares a run's output with the expectation; `Err` names the first
/// difference.
///
/// # Errors
/// Describes the mismatch.
pub fn check(expected: &Expected, stdout: &str, trace: &[u8]) -> Result<(), String> {
    let summary = summary_in(stdout);
    if summary != expected.summary {
        return Err(format!(
            "summary differs: got {summary:?}, expected {:?}",
            expected.summary
        ));
    }
    if trace != expected.trace.as_slice() {
        let at = trace
            .iter()
            .zip(&expected.trace)
            .position(|(a, b)| a != b)
            .unwrap_or(trace.len().min(expected.trace.len()));
        return Err(format!(
            "trace differs at byte {at} ({} bytes, expected {})",
            trace.len(),
            expected.trace.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected() -> Expected {
        Expected {
            summary: vec!["served       : 160 slots, policy ours".to_owned()],
            trace: b"{\"type\":\"run\"}\n".to_vec(),
        }
    }

    #[test]
    fn oracle_accepts_the_exact_output() {
        let e = expected();
        let stdout = "serve        : policy ours\nserved       : 160 slots, policy ours\n";
        assert_eq!(check(&e, stdout, &e.trace), Ok(()));
    }

    #[test]
    fn oracle_catches_a_one_byte_trace_flip() {
        let e = expected();
        let stdout = "served       : 160 slots, policy ours\n";
        for i in 0..e.trace.len() {
            let mut flipped = e.trace.clone();
            flipped[i] ^= 1;
            assert!(check(&e, stdout, &flipped).is_err(), "flip at {i} passed");
        }
        assert!(check(&e, stdout, &e.trace[..e.trace.len() - 1]).is_err());
    }

    #[test]
    fn oracle_catches_a_wrong_summary() {
        let e = expected();
        let wrong = "served       : 159 slots, policy ours\n";
        assert!(check(&e, wrong, &e.trace).is_err());
        assert!(check(&e, "", &e.trace).is_err());
    }
}
