//! Workload definitions and the seeded request-stream generator.
//!
//! Arrival counts come from the same `ArrivalGen` that backs
//! `carbon-edge gen-arrivals`; this module only turns them into wire
//! bytes. The daemon sees nothing but these bytes.

use std::time::Duration;

use cne_simdata::{ArrivalGen, ArrivalProcess};
use cne_util::SeedSequence;

/// Slots per synthetic day, as `carbon-edge gen-arrivals` uses.
pub const SLOTS_PER_DAY: usize = 16;
/// Horizon of every served run (the paper default).
pub const HORIZON: usize = 160;
/// Slots between periodic checkpoints in every served run.
pub const CHECKPOINT_EVERY: usize = 32;

/// The wire line that closes a slot.
const SLOT_END: &[u8] = b"{\"slot_end\":true}\n";

/// One served workload: fleet shape, line shape and durability policy.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// Fleet size.
    pub edges: usize,
    /// Busiest edge's expected arrivals per slot.
    pub peak: f64,
    /// One request per line (`true`) or one `count` line per active
    /// edge and slot (`false`, the `gen-arrivals` shape).
    pub one_per_line: bool,
    /// Share of lines written in a valid non-canonical form.
    pub noncanonical: f64,
    /// `--wal-sync` policy.
    pub wal_sync: &'static str,
    /// Closed loop: wait for each slot to be served before sending the
    /// next. Otherwise lines are written as fast as the daemon takes
    /// them.
    pub closed_loop: bool,
    /// Pause between two `/metrics` scrapes: fixed for the open loop;
    /// for a closed loop, the longest pause and the one used before any
    /// slot-close time is known.
    pub poll: Duration,
}

/// The served workloads, in the order `--workload all` runs them.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "ingest",
        edges: 50,
        peak: 40_000.0,
        one_per_line: true,
        noncanonical: 0.10,
        wal_sync: "slot",
        closed_loop: false,
        poll: Duration::from_millis(2),
    },
    Spec {
        name: "fleet",
        edges: 5_000,
        peak: 120.0,
        one_per_line: false,
        noncanonical: 0.0,
        wal_sync: "slot",
        closed_loop: true,
        poll: Duration::from_micros(500),
    },
    Spec {
        name: "recover",
        edges: 500,
        peak: 120.0,
        one_per_line: true,
        noncanonical: 0.0,
        wal_sync: "every",
        closed_loop: true,
        poll: Duration::from_micros(500),
    },
];

/// Looks a served workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// The slot at whose boundary the run is killed: one of nine
/// boundaries in the middle of the third checkpoint interval, chosen by
/// the seed. The window is narrow so that the WAL tail a resume
/// replays, and the checkpointed prefix it re-ingests, are about the
/// same size whatever the seed.
pub fn kill_slot(seed: u64) -> usize {
    2 * CHECKPOINT_EVERY + 12 + (seed % 9) as usize
}

/// A generated request stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    /// Wire bytes of each slot, ending with its `slot_end` line.
    pub slots: Vec<Vec<u8>>,
    /// Per-edge request totals of each slot.
    pub totals: Vec<Vec<u64>>,
    /// Wire lines, `slot_end` lines included.
    pub lines: u64,
    /// Requests the lines carry.
    pub requests: u64,
}

/// SplitMix64: a small, fixed generator for the line-shape choices, so
/// the bytes depend on nothing but the seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Appends one line reporting `count` requests at `edge`, in the
/// canonical form or, with probability `noncanonical`, one of three
/// equivalent forms: reordered keys (which the fast decoder leaves to
/// the strict one), extra whitespace, or an explicit count.
fn push_line(out: &mut Vec<u8>, edge: usize, count: u64, noncanonical: f64, rng: &mut SplitMix) {
    use std::io::Write as _;
    let form = if noncanonical > 0.0 && rng.unit() < noncanonical {
        1 + rng.next() % 3
    } else {
        0
    };
    let written = match (form, count) {
        (0, 1) => writeln!(out, "{{\"edge\":{edge}}}"),
        (0 | 3, _) => writeln!(out, "{{\"edge\":{edge},\"count\":{count}}}"),
        (1, _) => writeln!(out, "{{\"count\":{count},\"edge\":{edge}}}"),
        _ => writeln!(out, "{{ \"edge\" : {edge} , \"count\" : {count} }}"),
    };
    written.expect("writing to a Vec cannot fail");
}

/// Generates the workload's stream for `seed`: identical bytes for the
/// same seed, on any machine.
pub fn generate(spec: &Spec, seed: u64) -> Stream {
    let arrivals = ArrivalGen::new(
        ArrivalProcess::Diurnal,
        spec.edges,
        SLOTS_PER_DAY,
        spec.peak,
        &SeedSequence::new(seed),
    );
    let mut rng = SplitMix(seed ^ 0x5EED_0F11_AE5A_9E00);
    let mut stream = Stream {
        slots: Vec::with_capacity(HORIZON),
        totals: Vec::with_capacity(HORIZON),
        lines: 0,
        requests: 0,
    };
    for t in 0..HORIZON {
        let counts = arrivals.slot(t);
        let mut bytes = Vec::new();
        for (edge, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if spec.one_per_line {
                for _ in 0..count {
                    push_line(&mut bytes, edge, 1, spec.noncanonical, &mut rng);
                }
                stream.lines += count;
            } else {
                push_line(&mut bytes, edge, count, spec.noncanonical, &mut rng);
                stream.lines += 1;
            }
            stream.requests += count;
        }
        bytes.extend_from_slice(SLOT_END);
        stream.lines += 1;
        stream.slots.push(bytes);
        stream.totals.push(counts);
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Spec {
        Spec {
            edges: 6,
            peak: 30.0,
            noncanonical: 0.5,
            ..SPECS[0]
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let spec = small();
        assert_eq!(generate(&spec, 11), generate(&spec, 11));
        assert_ne!(generate(&spec, 11).slots, generate(&spec, 12).slots);
    }

    #[test]
    fn every_line_decodes_to_the_recorded_totals() {
        let spec = small();
        let stream = generate(&spec, 5);
        let mut lines = 0;
        for (bytes, totals) in stream.slots.iter().zip(&stream.totals) {
            let mut seen = vec![0u64; spec.edges];
            for line in bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
                lines += 1;
                let text = std::str::from_utf8(line).expect("ASCII");
                match cne_core::wire::decode_strict(text, spec.edges).expect("valid line") {
                    cne_core::WireMsg::Request { edge, count } => seen[edge] += count,
                    cne_core::WireMsg::SlotEnd => {}
                }
            }
            assert_eq!(&seen, totals);
        }
        assert_eq!(lines, stream.lines);
    }

    #[test]
    fn kill_slot_sits_between_two_checkpoints() {
        for seed in 0..20 {
            let k = kill_slot(seed);
            assert_eq!(k / CHECKPOINT_EVERY, 2, "{k}");
            assert!(!k.is_multiple_of(CHECKPOINT_EVERY), "{k}");
        }
    }
}
