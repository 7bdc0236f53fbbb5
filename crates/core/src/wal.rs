//! Durable write-ahead arrival log (WAL) for the streaming serve
//! daemon.
//!
//! Checkpoints bound what a crash can lose to a `--checkpoint-every`
//! window; the WAL closes that window to (at most) the last un-synced
//! frame. The daemon appends every *input* of the deterministic run —
//! per-edge arrival tallies, slot-close markers, checkpoint-installed
//! markers — before applying it, so the durable state is always
//!
//! ```text
//! recovered run = last checkpoint + WAL tail replayed through the
//!                 ordinary ServeSession machinery
//! ```
//!
//! and recovery is bit-identical to the uninterrupted run because the
//! simulator is a pure function of its inputs.
//!
//! # On-disk format
//!
//! A WAL is a directory of fixed-prefix segment files
//! (`wal-00000001.log`, `wal-00000002.log`, …), each a sequence of
//! CRC-framed, length-prefixed records:
//!
//! ```text
//! frame   := len:u32-le  crc:u32-le  payload[len]     (crc over payload)
//! payload := 0x01 slot:u64-le n:u32-le (edge:u64-le count:u64-le)*n   arrivals
//!          | 0x02 slot:u64-le                                          slot close
//!          | 0x03 slot:u64-le                                          checkpoint installed
//!          | 0x04 slot:u64-le lines:u64-le n:u32-le
//!                 (edge:u64-le count:u64-le)*n                         tally
//! ```
//!
//! The daemon logs arrivals only as tallies (`0x04`): one group commit
//! is one frame holding, for each edge whose count moved since the
//! last flush, the increment (ascending edge order, each edge at most
//! once), plus the number of request lines the flush covers. So WAL
//! bytes scale with the edges a flush touches, not with the lines it
//! carries. A tally above [`MAX_TALLY_PAIRS`] pairs is split across
//! frames by [`WalRecord::tally_frames`]. The per-line `0x01` record
//! (one line per pair) is what earlier daemons wrote; it still decodes
//! and replays, so their logs recover.
//!
//! On open, the **last** segment is scanned and truncated at the first
//! torn or corrupt frame (a crash mid-append legitimately leaves one);
//! a corrupt frame in any *earlier* segment is real corruption and
//! fails loudly. Segments rotate at a size threshold, and a durably
//! installed checkpoint garbage-collects every segment before it (the
//! fresh segment opens with a [`WalRecord::CheckpointInstalled`]
//! marker, so the tail self-describes the checkpoint it follows).
//!
//! # Fsync policy
//!
//! | [`SyncPolicy`] | fsync on | survives |
//! |---|---|---|
//! | `Every` | every appended frame | power loss, to the last frame |
//! | `Slot`  | slot-close and checkpoint frames | power loss, to the last closed slot |
//! | `Off`   | never (kernel writeback only) | process crash (SIGKILL/OOM), not power loss |
//!
//! Frames are always `write(2)`-flushed before the daemon applies the
//! record, so a killed *process* never loses acknowledged input under
//! any policy — the policies only trade how much a *machine* crash can
//! roll back against fsync latency.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use cne_util::crc::crc32;

use crate::crashpoint;

/// Frames larger than this are rejected as corrupt rather than
/// allocated, and [`Wal::append`] refuses to write one.
pub const MAX_FRAME_BYTES: u32 = 1 << 20;

/// Bytes of a tally payload before its pairs: tag, slot, lines, `n`.
const TALLY_HEADER_BYTES: usize = 1 + 8 + 8 + 4;

/// Most `(edge, count)` pairs one [`WalRecord::Tally`] frame can hold
/// within [`MAX_FRAME_BYTES`] (65 534).
pub const MAX_TALLY_PAIRS: usize = (MAX_FRAME_BYTES as usize - TALLY_HEADER_BYTES) / 16;

/// Default segment-rotation threshold.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

const SEGMENT_PREFIX: &str = "wal-";
const SEGMENT_SUFFIX: &str = ".log";

/// When the log is fsynced (see the module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fsync after every appended frame.
    Every,
    /// fsync on slot-close and checkpoint-installed frames only.
    #[default]
    Slot,
    /// Never fsync; frames are still flushed to the kernel.
    Off,
}

impl std::str::FromStr for SyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "every" => Ok(Self::Every),
            "slot" => Ok(Self::Slot),
            "off" => Ok(Self::Off),
            other => Err(format!(
                "unknown WAL sync policy '{other}' (expected 'every', 'slot', or 'off')"
            )),
        }
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Every => "every",
            Self::Slot => "slot",
            Self::Off => "off",
        })
    }
}

/// Knobs for a [`Wal`].
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Fsync policy for appended frames.
    pub sync: SyncPolicy,
    /// Rotate to a new segment once the current one reaches this size.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            sync: SyncPolicy::default(),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }
}

/// One durable record: an input of the deterministic run, or a marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Raw arrivals accumulated into the (still open) slot `slot`:
    /// `(edge, count)` pairs, additive within the slot, one request
    /// line per pair. Written by earlier daemons; still replayed.
    Arrivals {
        /// The open slot the arrivals belong to.
        slot: u64,
        /// `(edge index, request count)` pairs.
        pairs: Vec<(u64, u64)>,
    },
    /// Slot `slot` closed with whatever arrivals were recorded for it.
    SlotClose {
        /// The slot that closed.
        slot: u64,
    },
    /// A checkpoint capturing every slot `< slot` was durably
    /// installed; the WAL tail from here on assumes it.
    CheckpointInstalled {
        /// The checkpoint's `next_slot`.
        slot: u64,
    },
    /// One group commit into the (still open) slot `slot`: `lines`
    /// request lines whose counts add up, per edge, to `pairs`.
    Tally {
        /// The open slot the arrivals belong to.
        slot: u64,
        /// Request lines the tally covers, `count: 0` lines included.
        lines: u64,
        /// `(edge index, request count)` increments, in ascending edge
        /// order, each edge at most once.
        pairs: Vec<(u64, u64)>,
    },
}

fn encode_pairs(out: &mut Vec<u8>, pairs: &[(u64, u64)]) {
    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for (edge, count) in pairs {
        out.extend_from_slice(&edge.to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
    }
}

fn decode_pairs(cursor: &mut Cursor<'_>) -> Result<Vec<(u64, u64)>, String> {
    let n = cursor.u32()?;
    if u64::from(n) > (cursor.buf.len() - cursor.at) as u64 / 16 {
        return Err(format!("record claims {n} pairs beyond the frame"));
    }
    (0..n).map(|_| Ok((cursor.u64()?, cursor.u64()?))).collect()
}

impl WalRecord {
    /// The frames that log one tally: `pairs` in chunks of at most
    /// [`MAX_TALLY_PAIRS`], with `lines` on the first. Always at least
    /// one frame, since lines can move without any count (`count: 0`).
    #[must_use]
    pub fn tally_frames(slot: u64, lines: u64, pairs: &[(u64, u64)]) -> Vec<Self> {
        let frames = pairs.len().div_ceil(MAX_TALLY_PAIRS).max(1);
        (0..frames)
            .map(|i| Self::Tally {
                slot,
                lines: if i == 0 { lines } else { 0 },
                pairs: pairs[i * MAX_TALLY_PAIRS..((i + 1) * MAX_TALLY_PAIRS).min(pairs.len())]
                    .to_vec(),
            })
            .collect()
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            Self::Arrivals { slot, pairs } => {
                out.push(0x01);
                out.extend_from_slice(&slot.to_le_bytes());
                encode_pairs(&mut out, pairs);
            }
            Self::Tally { slot, lines, pairs } => {
                out.reserve(TALLY_HEADER_BYTES + 16 * pairs.len());
                out.push(0x04);
                out.extend_from_slice(&slot.to_le_bytes());
                out.extend_from_slice(&lines.to_le_bytes());
                encode_pairs(&mut out, pairs);
            }
            Self::SlotClose { slot } => {
                out.push(0x02);
                out.extend_from_slice(&slot.to_le_bytes());
            }
            Self::CheckpointInstalled { slot } => {
                out.push(0x03);
                out.extend_from_slice(&slot.to_le_bytes());
            }
        }
        out
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, String> {
        let mut cursor = Cursor {
            buf: payload,
            at: 0,
        };
        let tag = cursor.u8()?;
        let record = match tag {
            0x01 => Self::Arrivals {
                slot: cursor.u64()?,
                pairs: decode_pairs(&mut cursor)?,
            },
            0x02 => Self::SlotClose {
                slot: cursor.u64()?,
            },
            0x03 => Self::CheckpointInstalled {
                slot: cursor.u64()?,
            },
            0x04 => Self::Tally {
                slot: cursor.u64()?,
                lines: cursor.u64()?,
                pairs: decode_pairs(&mut cursor)?,
            },
            other => return Err(format!("unknown record tag 0x{other:02x}")),
        };
        if cursor.at != payload.len() {
            return Err(format!(
                "{} trailing bytes after the record",
                payload.len() - cursor.at
            ));
        }
        Ok(record)
    }

    /// Whether the frame is a sync point under [`SyncPolicy::Slot`].
    fn is_boundary(&self) -> bool {
        matches!(
            self,
            Self::SlotClose { .. } | Self::CheckpointInstalled { .. }
        )
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| "record truncated".to_owned())?;
        let bytes = &self.buf[self.at..end];
        self.at = end;
        Ok(bytes)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// Where and why a scan stopped short of a segment's physical end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// The segment holding the bad frame.
    pub segment: PathBuf,
    /// Byte offset of the first torn/corrupt frame.
    pub offset: u64,
    /// Human-readable cause (short read, CRC mismatch, bad tag, …).
    pub reason: String,
}

/// Everything a scan of an existing WAL directory yields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecovery {
    /// Every valid record, in append order across segments.
    pub records: Vec<WalRecord>,
    /// The torn tail, when the last segment ended mid-frame. `open`
    /// truncates it away; [`read_records`] only reports it.
    pub torn: Option<TornTail>,
}

/// The effect of replaying a WAL tail on top of a checkpoint at
/// `start_slot`: fully closed slots to push through the session, plus
/// the partially accumulated open slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalTail {
    /// First slot the tail closes (the checkpoint's `next_slot`).
    pub start_slot: u64,
    /// Per-edge arrival totals for each closed slot, in slot order
    /// starting at `start_slot`.
    pub closed: Vec<Vec<u64>>,
    /// Per-edge arrivals recorded for the still-open slot
    /// `start_slot + closed.len()`.
    pub open: Vec<u64>,
    /// Request lines recorded for the open slot (the daemon's
    /// `--slot-requests` counter): a `Tally` contributes its `lines`,
    /// an `Arrivals` record one line per `(edge, count)` pair.
    pub open_lines: u64,
}

impl WalTail {
    /// Whether the tail carries no information beyond the checkpoint.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.closed.is_empty() && self.open_lines == 0
    }
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> String {
    format!("cannot {what} {}: {e}", path.display())
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{index:08}{SEGMENT_SUFFIX}"))
}

fn segment_index(name: &str) -> Option<u64> {
    name.strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?
        .parse()
        .ok()
}

/// Sorted `(index, path)` list of the directory's segment files.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, String> {
    let mut segments = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("read WAL directory", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read WAL directory", dir, &e))?;
        if let Some(index) = entry.file_name().to_str().and_then(segment_index) {
            segments.push((index, entry.path()));
        }
    }
    segments.sort_unstable();
    Ok(segments)
}

/// Whether `dir` already holds WAL segments (so a fresh daemon can
/// refuse to clobber a previous run's log).
#[must_use]
pub fn dir_has_segments(dir: &Path) -> bool {
    list_segments(dir).is_ok_and(|segments| !segments.is_empty())
}

/// Scans one segment. A bad frame in the last segment is a torn tail
/// (returned); in any earlier segment it is corruption (an error).
fn read_segment(
    path: &Path,
    is_last: bool,
    records: &mut Vec<WalRecord>,
) -> Result<Option<TornTail>, String> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err("read WAL segment", path, &e))?;
    let mut at: usize = 0;
    let torn = loop {
        if at == bytes.len() {
            break None;
        }
        let bad = |reason: String| TornTail {
            segment: path.to_path_buf(),
            offset: at as u64,
            reason,
        };
        if bytes.len() - at < 8 {
            break Some(bad(format!("{} trailing header bytes", bytes.len() - at)));
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_FRAME_BYTES {
            break Some(bad(format!("implausible frame length {len}")));
        }
        let Some(end) = (at + 8)
            .checked_add(len as usize)
            .filter(|&e| e <= bytes.len())
        else {
            break Some(bad(format!(
                "frame claims {len} payload bytes, {} remain",
                bytes.len() - at - 8
            )));
        };
        let payload = &bytes[at + 8..end];
        if crc32(payload) != crc {
            break Some(bad("CRC mismatch".to_owned()));
        }
        match WalRecord::decode_payload(payload) {
            Ok(record) => records.push(record),
            Err(reason) => break Some(bad(reason)),
        }
        at = end;
    };
    match torn {
        Some(tail) if !is_last => Err(format!(
            "WAL segment {} is corrupt at byte {} ({}) and is not the last segment — \
             this is not a torn tail; refusing to guess at the missing records",
            tail.segment.display(),
            tail.offset,
            tail.reason
        )),
        other => Ok(other),
    }
}

/// Read-only scan of a WAL directory: every valid record in append
/// order, plus the torn tail when the last segment ends mid-frame.
/// Used by recovery tooling and the chaos harness; never mutates the
/// log.
///
/// # Errors
/// Returns a message on I/O failure or corruption in a non-last
/// segment.
pub fn read_records(dir: &Path) -> Result<WalRecovery, String> {
    let segments = list_segments(dir)?;
    let mut records = Vec::new();
    let mut torn = None;
    for (i, (_, path)) in segments.iter().enumerate() {
        torn = read_segment(path, i + 1 == segments.len(), &mut records)?;
    }
    Ok(WalRecovery { records, torn })
}

#[cfg(unix)]
fn sync_dir(dir: &Path) -> Result<(), String> {
    File::open(dir)
        .and_then(|f| f.sync_all())
        .map_err(|e| io_err("fsync WAL directory", dir, &e))
}

#[cfg(not(unix))]
fn sync_dir(_dir: &Path) -> Result<(), String> {
    // Directory fsync is a POSIX notion; other platforms get the
    // file-level durability only.
    Ok(())
}

/// An append handle on a WAL directory.
///
/// Created by [`Wal::open`], which also performs recovery: scan every
/// segment, truncate the last one at the first torn frame, and position
/// the writer at the end.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    options: WalOptions,
    file: File,
    segment: u64,
    segment_bytes: u64,
    appends: u64,
}

impl Wal {
    /// Opens (creating if needed) the WAL at `dir` and recovers its
    /// contents: all valid records are returned, and a torn tail in
    /// the last segment is truncated away (durably) before the writer
    /// is positioned after the last valid frame.
    ///
    /// # Errors
    /// Returns a message on I/O failure or corruption in a non-last
    /// segment.
    pub fn open(dir: &Path, options: WalOptions) -> Result<(Self, WalRecovery), String> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create WAL directory", dir, &e))?;
        let recovery = read_records(dir)?;
        if let Some(torn) = &recovery.torn {
            let file = OpenOptions::new()
                .write(true)
                .open(&torn.segment)
                .map_err(|e| io_err("open WAL segment", &torn.segment, &e))?;
            file.set_len(torn.offset)
                .map_err(|e| io_err("truncate WAL segment", &torn.segment, &e))?;
            file.sync_all()
                .map_err(|e| io_err("fsync WAL segment", &torn.segment, &e))?;
        }
        let segments = list_segments(dir)?;
        let (segment, path) = match segments.last() {
            Some((index, path)) => (*index, path.clone()),
            None => {
                let path = segment_path(dir, 1);
                (1, path)
            }
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open WAL segment", &path, &e))?;
        sync_dir(dir)?;
        let segment_bytes = file
            .metadata()
            .map_err(|e| io_err("stat WAL segment", &path, &e))?
            .len();
        Ok((
            Self {
                dir: dir.to_path_buf(),
                options,
                file,
                segment,
                segment_bytes,
                appends: 0,
            },
            recovery,
        ))
    }

    /// The directory this WAL lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one record, honoring the fsync policy. The frame is
    /// fully flushed to the kernel before this returns, so a killed
    /// process never loses an acknowledged record.
    ///
    /// # Errors
    /// Returns a message on any I/O failure, and for a record whose
    /// payload exceeds [`MAX_FRAME_BYTES`] (recovery would read it as a
    /// torn tail, so it is never written); the caller decides whether
    /// to retry or degrade.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), String> {
        let payload = record.encode_payload();
        if payload.len() > MAX_FRAME_BYTES as usize {
            return Err(format!(
                "WAL record of {} bytes exceeds the {MAX_FRAME_BYTES}-byte frame limit \
                 (split tallies with WalRecord::tally_frames)",
                payload.len()
            ));
        }
        if self.segment_bytes >= self.options.segment_bytes {
            self.rotate()?;
        }
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.appends += 1;
        if crashpoint::hit("wal-torn-append", self.appends) {
            // Chaos drill: simulate a crash mid-append by persisting
            // only a prefix of the frame, then dying without cleanup.
            let _ = self.file.write_all(&frame[..8 + payload.len() / 2]);
            let _ = self.file.sync_all();
            crashpoint::crash("wal-torn-append");
        }
        let path = segment_path(&self.dir, self.segment);
        self.file
            .write_all(&frame)
            .map_err(|e| io_err("append to WAL segment", &path, &e))?;
        self.segment_bytes += frame.len() as u64;
        let must_sync = match self.options.sync {
            SyncPolicy::Every => true,
            SyncPolicy::Slot => record.is_boundary(),
            SyncPolicy::Off => false,
        };
        if must_sync {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces an fsync of the current segment, regardless of policy.
    ///
    /// # Errors
    /// Returns a message on I/O failure.
    pub fn sync(&mut self) -> Result<(), String> {
        self.file.sync_data().map_err(|e| {
            io_err(
                "fsync WAL segment",
                &segment_path(&self.dir, self.segment),
                &e,
            )
        })
    }

    fn rotate(&mut self) -> Result<(), String> {
        // The closing segment must be durable before the log moves on:
        // recovery reads segments in order and only tolerates a torn
        // tail in the last one.
        if self.options.sync != SyncPolicy::Off {
            self.sync()?;
        }
        self.segment += 1;
        let path = segment_path(&self.dir, self.segment);
        self.file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("create WAL segment", &path, &e))?;
        self.segment_bytes = 0;
        sync_dir(&self.dir)
    }

    /// Records that a checkpoint capturing every slot `< slot` was
    /// durably installed: rotates to a fresh segment whose first frame
    /// is the [`WalRecord::CheckpointInstalled`] marker, then
    /// garbage-collects every older segment (their records are all
    /// covered by the checkpoint).
    ///
    /// Call this only **after** the checkpoint file itself is durably
    /// on disk — the GC assumes it.
    ///
    /// # Errors
    /// Returns a message when the marker cannot be appended; GC
    /// deletion failures are ignored (stale segments are harmless —
    /// replay skips records the checkpoint covers).
    pub fn install_checkpoint(&mut self, slot: u64) -> Result<(), String> {
        self.rotate()?;
        self.append(&WalRecord::CheckpointInstalled { slot })?;
        if self.options.sync == SyncPolicy::Off {
            // Even `off` makes the marker durable: it anchors the GC.
            self.sync()?;
        }
        for (index, path) in list_segments(&self.dir)? {
            if index < self.segment {
                let _ = std::fs::remove_file(path);
            }
        }
        sync_dir(&self.dir)
    }
}

/// Replays scanned records on top of a checkpoint at `start_slot`:
/// records for earlier slots are skipped (the checkpoint covers them),
/// later ones must form a contiguous slot sequence.
///
/// # Errors
/// Returns a message when the record sequence is inconsistent — slots
/// out of order, arrivals for an edge outside the fleet, a tally whose
/// edges are not strictly ascending, counts whose per-edge or per-slot
/// sum overflows a `u64` (the daemon rejects such lines before logging
/// them), a request-line total that overflows, or a checkpoint marker
/// beyond the replayed state (records the marker's checkpoint
/// superseded were garbage-collected, so this WAL cannot be replayed
/// onto an *older* checkpoint).
pub fn replay(records: &[WalRecord], num_edges: usize, start_slot: u64) -> Result<WalTail, String> {
    let mut tail = WalTail {
        start_slot,
        closed: Vec::new(),
        open: vec![0; num_edges],
        open_lines: 0,
    };
    let mut cursor = start_slot;
    // Σ of the open slot's counts, kept representable like the live
    // accumulator's.
    let mut open_total: u64 = 0;
    for record in records {
        match record {
            WalRecord::Arrivals { slot, pairs } | WalRecord::Tally { slot, pairs, .. } => {
                if *slot < start_slot {
                    continue;
                }
                if *slot != cursor {
                    return Err(format!(
                        "WAL slot sequence broken: arrivals for slot {slot} while slot \
                         {cursor} is open"
                    ));
                }
                let lines = match record {
                    WalRecord::Tally { lines, pairs, .. } => {
                        if pairs.windows(2).any(|w| w[0].0 >= w[1].0) {
                            return Err(format!(
                                "WAL tally for slot {slot} lists its edges out of order \
                                 or twice: this log was not written by a conforming daemon"
                            ));
                        }
                        *lines
                    }
                    _ => pairs.len() as u64,
                };
                for (edge, count) in pairs {
                    let lane = tail
                        .open
                        .get_mut(usize::try_from(*edge).unwrap_or(usize::MAX))
                        .ok_or_else(|| {
                            format!("WAL arrival for edge {edge}, but the fleet has {num_edges}")
                        })?;
                    let overflow = || {
                        format!(
                            "WAL arrivals for slot {slot} overflow the request count \
                             (edge {edge}, +{count}): this log was not written by a \
                             conforming daemon, which rejects such lines before logging"
                        )
                    };
                    *lane = lane.checked_add(*count).ok_or_else(overflow)?;
                    open_total = open_total.checked_add(*count).ok_or_else(overflow)?;
                }
                tail.open_lines = tail.open_lines.checked_add(lines).ok_or_else(|| {
                    format!(
                        "WAL request-line count for slot {slot} overflows (+{lines}): \
                         this log was not written by a conforming daemon"
                    )
                })?;
            }
            WalRecord::SlotClose { slot } => {
                if *slot < start_slot {
                    continue;
                }
                if *slot != cursor {
                    return Err(format!(
                        "WAL slot sequence broken: close for slot {slot} while slot \
                         {cursor} is open"
                    ));
                }
                tail.closed
                    .push(std::mem::replace(&mut tail.open, vec![0; num_edges]));
                tail.open_lines = 0;
                open_total = 0;
                cursor += 1;
            }
            WalRecord::CheckpointInstalled { slot } => {
                if *slot > cursor {
                    return Err(format!(
                        "WAL assumes a checkpoint at slot {slot}, but replay only reaches \
                         slot {cursor} — the records before it were garbage-collected; \
                         resume from that checkpoint, not an older one"
                    ));
                }
            }
        }
    }
    Ok(tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cne-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Arrivals {
                slot: 0,
                pairs: vec![(0, 3), (2, 1)],
            },
            WalRecord::Arrivals {
                slot: 0,
                pairs: vec![(1, 7)],
            },
            WalRecord::SlotClose { slot: 0 },
            WalRecord::Arrivals {
                slot: 1,
                pairs: vec![(0, 2)],
            },
            WalRecord::SlotClose { slot: 1 },
        ]
    }

    #[test]
    fn append_then_read_round_trips() {
        let dir = temp_dir("roundtrip");
        let (mut wal, recovery) = Wal::open(&dir, WalOptions::default()).expect("open");
        assert!(recovery.records.is_empty() && recovery.torn.is_none());
        for record in sample_records() {
            wal.append(&record).expect("append");
        }
        drop(wal);
        let recovery = read_records(&dir).expect("read");
        assert_eq!(recovery.records, sample_records());
        assert!(recovery.torn.is_none());

        // Reopening recovers the same records and keeps appending.
        let (mut wal, recovery) = Wal::open(&dir, WalOptions::default()).expect("reopen");
        assert_eq!(recovery.records, sample_records());
        wal.append(&WalRecord::SlotClose { slot: 2 })
            .expect("append");
        drop(wal);
        assert_eq!(read_records(&dir).expect("read").records.len(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let dir = temp_dir("torn");
        let (mut wal, _) = Wal::open(&dir, WalOptions::default()).expect("open");
        for record in sample_records() {
            wal.append(&record).expect("append");
        }
        drop(wal);
        let seg = segment_path(&dir, 1);
        let full = std::fs::read(&seg).expect("read segment");

        // Every possible mid-frame cut: the scan keeps the valid
        // prefix and reports the torn offset; reopening truncates.
        let frame_len = |payload: usize| 8 + payload;
        let sizes: Vec<usize> = sample_records()
            .iter()
            .map(|r| frame_len(r.encode_payload().len()))
            .collect();
        let offsets: Vec<usize> = sizes
            .iter()
            .scan(0, |acc, s| {
                *acc += s;
                Some(*acc)
            })
            .collect();
        for cut in 1..full.len() {
            std::fs::write(&seg, &full[..cut]).expect("truncate");
            let recovery = read_records(&dir).expect("scan");
            let valid = offsets.iter().filter(|&&end| end <= cut).count();
            assert_eq!(recovery.records.len(), valid, "cut at {cut}");
            if offsets.contains(&cut) {
                assert!(recovery.torn.is_none(), "cut at frame boundary {cut}");
            } else {
                let torn = recovery.torn.expect("mid-frame cut is torn");
                assert_eq!(
                    torn.offset as usize,
                    offsets[..valid].last().copied().unwrap_or(0)
                );
            }
        }

        // A flipped CRC bit invalidates exactly that frame onward.
        let mut flipped = full.clone();
        flipped[offsets[1] + 4] ^= 0x01; // CRC byte of the third frame
        std::fs::write(&seg, &flipped).expect("write");
        let recovery = read_records(&dir).expect("scan");
        assert_eq!(recovery.records.len(), 2);
        assert!(recovery.torn.expect("flip detected").reason.contains("CRC"));

        // A flipped payload bit likewise.
        let mut flipped = full.clone();
        flipped[offsets[0] + 8] ^= 0x80;
        std::fs::write(&seg, &flipped).expect("write");
        let recovery = read_records(&dir).expect("scan");
        assert_eq!(recovery.records.len(), 1);
        assert!(recovery.torn.is_some());

        // Opening truncates the torn tail durably: a second scan is
        // clean and the writer continues after the valid prefix.
        std::fs::write(&seg, &full[..offsets[2] + 3]).expect("tear");
        let (mut wal, recovery) = Wal::open(&dir, WalOptions::default()).expect("open");
        assert_eq!(recovery.records.len(), 3);
        assert!(recovery.torn.is_some());
        wal.append(&WalRecord::Arrivals {
            slot: 1,
            pairs: vec![(3, 9)],
        })
        .expect("append after truncation");
        drop(wal);
        let recovery = read_records(&dir).expect("rescan");
        assert!(recovery.torn.is_none());
        assert_eq!(recovery.records.len(), 4);
        assert_eq!(
            recovery.records[3],
            WalRecord::Arrivals {
                slot: 1,
                pairs: vec![(3, 9)],
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_in_a_non_last_segment_fails_loudly() {
        let dir = temp_dir("midcorrupt");
        let options = WalOptions {
            segment_bytes: 1, // rotate on every append
            ..WalOptions::default()
        };
        let (mut wal, _) = Wal::open(&dir, options).expect("open");
        for record in sample_records() {
            wal.append(&record).expect("append");
        }
        drop(wal);
        assert!(list_segments(&dir).expect("list").len() >= 2);
        let (_, first) = &list_segments(&dir).expect("list")[0];
        let mut bytes = std::fs::read(first).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(first, &bytes).expect("write");
        let err = read_records(&dir).unwrap_err();
        assert!(err.contains("not the last segment"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_and_checkpoint_gc() {
        let dir = temp_dir("gc");
        let options = WalOptions {
            segment_bytes: 64,
            ..WalOptions::default()
        };
        let (mut wal, _) = Wal::open(&dir, options).expect("open");
        for t in 0..20u64 {
            wal.append(&WalRecord::Arrivals {
                slot: t,
                pairs: vec![(0, t)],
            })
            .expect("append");
            wal.append(&WalRecord::SlotClose { slot: t })
                .expect("append");
        }
        assert!(
            list_segments(&dir).expect("list").len() > 1,
            "rotation happened"
        );
        wal.install_checkpoint(20).expect("install");
        let segments = list_segments(&dir).expect("list");
        assert_eq!(segments.len(), 1, "GC keeps only the fresh segment");
        drop(wal);
        let recovery = read_records(&dir).expect("read");
        assert_eq!(
            recovery.records,
            vec![WalRecord::CheckpointInstalled { slot: 20 }]
        );
        // Replay on the matching checkpoint: clean empty tail.
        let tail = replay(&recovery.records, 1, 20).expect("replay");
        assert!(tail.is_empty());
        // Replay on an *older* checkpoint: the gap is detected.
        let err = replay(&recovery.records, 1, 10).unwrap_err();
        assert!(err.contains("garbage-collected"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_rebuilds_slots_and_validates() {
        let records = vec![
            WalRecord::Arrivals {
                slot: 0,
                pairs: vec![(0, 5)],
            },
            WalRecord::SlotClose { slot: 0 },
            WalRecord::Arrivals {
                slot: 1,
                pairs: vec![(1, 2), (1, 3)],
            },
            WalRecord::SlotClose { slot: 1 },
            WalRecord::Arrivals {
                slot: 2,
                pairs: vec![(0, 1)],
            },
        ];
        let tail = replay(&records, 2, 0).expect("replay");
        assert_eq!(tail.closed, vec![vec![5, 0], vec![0, 5]]);
        assert_eq!(tail.open, vec![1, 0]);
        assert_eq!(tail.open_lines, 1);

        // A later start slot skips the covered prefix.
        let tail = replay(&records, 2, 1).expect("replay");
        assert_eq!(tail.closed, vec![vec![0, 5]]);
        assert_eq!(tail.open, vec![1, 0]);

        // A start slot past every record yields an empty tail.
        let tail = replay(&records, 2, 5).expect("replay");
        assert!(tail.is_empty());

        // Out-of-order slots and out-of-range edges are rejected.
        let bad = vec![WalRecord::Arrivals {
            slot: 1,
            pairs: vec![(0, 1)],
        }];
        assert!(replay(&bad, 2, 0).unwrap_err().contains("sequence broken"));
        let bad = vec![WalRecord::SlotClose { slot: 3 }];
        assert!(replay(&bad, 2, 0).unwrap_err().contains("sequence broken"));
        let bad = vec![WalRecord::Arrivals {
            slot: 0,
            pairs: vec![(7, 1)],
        }];
        assert!(replay(&bad, 2, 0).unwrap_err().contains("edge 7"));
    }

    /// Counts whose sum overflows a `u64` — on one edge or across the
    /// slot — are an error naming the slot, never folded saturated; a
    /// slot that sums to exactly `u64::MAX` still replays.
    #[test]
    fn replay_rejects_count_overflow() {
        let arrivals = |slot, pairs| WalRecord::Arrivals { slot, pairs };
        for second in [(0, 2), (1, 2)] {
            let bad = vec![
                arrivals(0, vec![(0, 1)]),
                WalRecord::SlotClose { slot: 0 },
                arrivals(1, vec![(0, u64::MAX)]),
                arrivals(1, vec![second]),
            ];
            let err = replay(&bad, 2, 0).unwrap_err();
            assert!(err.contains("slot 1"), "{err}");
            assert!(err.contains("not written by a conforming daemon"), "{err}");
        }

        let records = vec![
            arrivals(0, vec![(0, u64::MAX - 2), (1, 2)]),
            WalRecord::SlotClose { slot: 0 },
            arrivals(1, vec![(0, u64::MAX)]),
            WalRecord::SlotClose { slot: 1 },
            arrivals(2, vec![(1, 2), (1, 3)]),
        ];
        let tail = replay(&records, 2, 0).expect("in-range counts replay");
        assert_eq!(tail.closed, vec![vec![u64::MAX - 2, 2], vec![u64::MAX, 0]]);
        assert_eq!(tail.open, vec![0, 5]);
        assert_eq!(tail.open_lines, 2);
    }

    /// An earlier daemon's group-committed record (one `Arrivals`
    /// frame carrying a whole burst of request lines) replays with
    /// per-line accounting: the open slot's `open_lines` counts pairs,
    /// not frames, so a resumed daemon's `--slot-requests` trigger
    /// fires at the same line as one that never crashed.
    #[test]
    fn group_committed_arrivals_replay_per_line() {
        let records = vec![
            WalRecord::Arrivals {
                slot: 0,
                pairs: vec![(0, 2), (1, 1), (0, 4)],
            },
            WalRecord::Arrivals {
                slot: 0,
                pairs: vec![(1, 7)],
            },
        ];
        let tail = replay(&records, 2, 0).expect("replay");
        assert_eq!(tail.open, vec![6, 8]);
        assert_eq!(tail.open_lines, 4, "3 pairs + 1 pair = 4 request lines");

        // Closing the slot folds the batch identically to four
        // single-pair records — group commit changes framing only.
        let singles = vec![
            WalRecord::Arrivals {
                slot: 0,
                pairs: vec![(0, 2)],
            },
            WalRecord::Arrivals {
                slot: 0,
                pairs: vec![(1, 1)],
            },
            WalRecord::Arrivals {
                slot: 0,
                pairs: vec![(0, 4)],
            },
            WalRecord::Arrivals {
                slot: 0,
                pairs: vec![(1, 7)],
            },
        ];
        let equivalent = replay(&singles, 2, 0).expect("replay");
        assert_eq!(equivalent.open, tail.open);
        assert_eq!(equivalent.open_lines, tail.open_lines);
    }

    fn tally(slot: u64, lines: u64, pairs: Vec<(u64, u64)>) -> WalRecord {
        WalRecord::Tally { slot, lines, pairs }
    }

    #[test]
    fn tally_round_trips_through_the_codec() {
        for pairs in [
            vec![(0, 2), (4, 5), (9, 0)],
            Vec::new(),
            vec![(u64::MAX, u64::MAX)],
        ] {
            let n = pairs.len();
            let record = tally(3, u64::MAX - 1, pairs);
            let payload = record.encode_payload();
            assert_eq!(payload.len(), TALLY_HEADER_BYTES + 16 * n);
            assert_eq!(WalRecord::decode_payload(&payload), Ok(record));
        }
        // Byte layout: tag, slot, lines, n, then the pairs.
        let payload = tally(2, 9, vec![(1, 6)]).encode_payload();
        let mut expected = vec![0x04];
        for word in [2u64, 9] {
            expected.extend_from_slice(&word.to_le_bytes());
        }
        expected.extend_from_slice(&1u32.to_le_bytes());
        for word in [1u64, 6] {
            expected.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(payload, expected);
    }

    #[test]
    fn decode_rejects_a_tally_claiming_pairs_beyond_its_frame() {
        let mut payload = tally(0, 2, vec![(0, 1), (1, 1)]).encode_payload();
        // n = 3 with only two pairs present.
        payload[17..21].copy_from_slice(&3u32.to_le_bytes());
        let err = WalRecord::decode_payload(&payload).unwrap_err();
        assert!(err.contains("beyond the frame"), "{err}");
        // A huge n is refused before anything is allocated.
        payload[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(WalRecord::decode_payload(&payload)
            .unwrap_err()
            .contains("beyond the frame"));
        // A short pair and trailing bytes are both errors.
        let full = tally(0, 1, vec![(0, 1)]).encode_payload();
        assert!(WalRecord::decode_payload(&full[..full.len() - 1]).is_err());
        let mut long = full.clone();
        long.push(0);
        assert!(WalRecord::decode_payload(&long)
            .unwrap_err()
            .contains("trailing"));
    }

    /// A `count: 0` line moves no count but is still a request line:
    /// it is logged as a tally with `lines` and no pairs, and replay
    /// counts it toward the open slot's `--slot-requests` total.
    #[test]
    fn a_zero_count_line_is_logged_as_a_line() {
        let frames = WalRecord::tally_frames(0, 1, &[]);
        assert_eq!(frames, vec![tally(0, 1, Vec::new())]);
        let records = [frames, vec![tally(0, 2, vec![(1, 3)])]].concat();
        let tail = replay(&records, 2, 0).expect("replay");
        assert_eq!(tail.open, vec![0, 3]);
        assert_eq!(tail.open_lines, 3);
        assert!(!tail.is_empty(), "a logged zero-count line is information");
    }

    #[test]
    fn tally_count_and_line_overflow_are_errors() {
        let bad = vec![tally(0, 1, vec![(0, u64::MAX)]), tally(0, 1, vec![(0, 1)])];
        let err = replay(&bad, 2, 0).unwrap_err();
        assert!(err.contains("overflow the request count"), "{err}");
        let bad = vec![tally(0, 1, vec![(0, u64::MAX)]), tally(0, 1, vec![(1, 1)])];
        assert!(replay(&bad, 2, 0).unwrap_err().contains("slot 0"));

        let bad = vec![tally(4, u64::MAX, Vec::new()), tally(4, 1, Vec::new())];
        let err = replay(&bad, 1, 4).unwrap_err();
        assert!(
            err.contains("request-line count for slot 4 overflows"),
            "{err}"
        );
        // An old per-line record on top of a saturated line count too.
        let bad = vec![
            tally(0, u64::MAX, Vec::new()),
            WalRecord::Arrivals {
                slot: 0,
                pairs: vec![(0, 1)],
            },
        ];
        assert!(replay(&bad, 1, 0).unwrap_err().contains("overflows"));

        // Edges out of order or repeated are a malformed tally.
        for pairs in [vec![(1, 1), (0, 1)], vec![(0, 1), (0, 1)]] {
            let err = replay(&[tally(0, 2, pairs)], 2, 0).unwrap_err();
            assert!(err.contains("out of order or twice"), "{err}");
        }
    }

    /// Logs written by earlier daemons hold per-line `0x01` records:
    /// byte images of them still scan and replay one line per pair,
    /// and a tally appended after them (a new daemon resuming the log)
    /// continues the same open slot.
    #[test]
    fn per_line_records_from_earlier_daemons_still_replay() {
        let dir = temp_dir("legacy");
        let word = |w: u64| w.to_le_bytes().to_vec();
        let mut bytes = Vec::new();
        for payload in [
            [vec![0x01], word(0), 2u32.to_le_bytes().to_vec()].concat(),
            [vec![0x02], word(0)].concat(),
            [vec![0x01], word(1), 1u32.to_le_bytes().to_vec()].concat(),
        ] {
            let pairs: &[u64] = match (payload[0], payload[1]) {
                (0x01, 0) => &[0, 3, 0, 4],
                (0x01, 1) => &[1, 5],
                _ => &[],
            };
            let payload = [payload, pairs.iter().flat_map(|&w| word(w)).collect()].concat();
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
        }
        std::fs::write(segment_path(&dir, 1), &bytes).expect("write legacy segment");
        let (mut wal, recovery) = Wal::open(&dir, WalOptions::default()).expect("open");
        assert!(recovery.torn.is_none());
        assert_eq!(
            recovery.records,
            vec![
                WalRecord::Arrivals {
                    slot: 0,
                    pairs: vec![(0, 3), (0, 4)],
                },
                WalRecord::SlotClose { slot: 0 },
                WalRecord::Arrivals {
                    slot: 1,
                    pairs: vec![(1, 5)],
                },
            ]
        );
        let tail = replay(&recovery.records, 2, 0).expect("replay");
        assert_eq!(tail.closed, vec![vec![7, 0]]);
        assert_eq!((tail.open.clone(), tail.open_lines), (vec![0, 5], 1));

        wal.append(&tally(1, 3, vec![(0, 2), (1, 1)]))
            .expect("append");
        drop(wal);
        let records = read_records(&dir).expect("rescan").records;
        let tail = replay(&records, 2, 0).expect("replay");
        assert_eq!((tail.open, tail.open_lines), (vec![2, 6], 4));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A tally touching more edges than one frame holds is refused by
    /// `append` whole, and logged split by `tally_frames`: the split
    /// frames read back and replay exactly like the single record.
    #[test]
    fn an_oversized_tally_is_refused_and_split_across_frames() {
        const EDGES: usize = 70_000;
        let pairs: Vec<(u64, u64)> = (0..EDGES as u64).map(|e| (e, e % 7 + 1)).collect();
        let whole = tally(0, 90_000, pairs.clone());
        let dir = temp_dir("oversize");
        let (mut wal, _) = Wal::open(&dir, WalOptions::default()).expect("open");
        let err = wal.append(&whole).unwrap_err();
        assert!(err.contains("frame limit"), "{err}");

        let frames = WalRecord::tally_frames(0, 90_000, &pairs);
        assert_eq!(frames.len(), 2);
        assert!(matches!(
            &frames[0],
            WalRecord::Tally { lines: 90_000, pairs, .. } if pairs.len() == MAX_TALLY_PAIRS
        ));
        assert!(matches!(&frames[1], WalRecord::Tally { lines: 0, .. }));
        let closed = WalRecord::SlotClose { slot: 0 };
        for frame in frames.iter().chain([&closed]) {
            wal.append(frame).expect("append a split frame");
        }
        wal.append(&WalRecord::tally_frames(1, 1, &[(69_999, 4)])[0])
            .expect("append");
        drop(wal);
        let recovery = read_records(&dir).expect("read");
        assert!(recovery.torn.is_none(), "{:?}", recovery.torn);
        let replayed = replay(&recovery.records, EDGES, 0).expect("replay split");
        let single = replay(&[whole, closed, tally(1, 1, vec![(69_999, 4)])], EDGES, 0)
            .expect("replay single");
        assert_eq!(replayed, single);
        assert_eq!(replayed.open_lines, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The daemon's tally bookkeeping, reduced to what the log sees:
    /// the open slot's counts and line total, and the watermark of
    /// what has been logged so far.
    struct TallyModel {
        counts: Vec<u64>,
        logged: Vec<u64>,
        lines: u64,
        logged_lines: u64,
    }

    impl TallyModel {
        fn new(num_edges: usize) -> Self {
            Self {
                counts: vec![0; num_edges],
                logged: vec![0; num_edges],
                lines: 0,
                logged_lines: 0,
            }
        }

        fn flush(&mut self, slot: u64, out: &mut Vec<WalRecord>) {
            if self.lines == self.logged_lines {
                return;
            }
            let pairs: Vec<(u64, u64)> = (0..self.counts.len())
                .filter(|&e| self.counts[e] != self.logged[e])
                .map(|e| (e as u64, self.counts[e] - self.logged[e]))
                .collect();
            out.extend(WalRecord::tally_frames(
                slot,
                self.lines - self.logged_lines,
                &pairs,
            ));
            self.logged.clone_from(&self.counts);
            self.logged_lines = self.lines;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        /// A random one-line-per-pair stream replays to the same tail
        /// whether it was logged per line (`Arrivals`), as tallies at
        /// random flush points, or per line up to a random point and as
        /// tallies after it (a new daemon resuming an old daemon's
        /// log, its watermark seeded with the replayed open slot).
        #[test]
        fn tallies_replay_like_per_line_records(
            num_edges in 1usize..6,
            steps in proptest::collection::vec((0u8..8, 0usize..6, 0u64..4, 0u8..3), 0..80),
            upgrade_at in 0usize..80,
            start_slot in 0u64..3,
        ) {
            let mut slot = 0;
            let (mut per_line, mut tallies, mut mixed) = (Vec::new(), Vec::new(), Vec::new());
            let mut batched = TallyModel::new(num_edges);
            let mut resumed = TallyModel::new(num_edges);
            for (i, &(kind, edge, count, flush)) in steps.iter().enumerate() {
                let upgraded = i >= upgrade_at;
                if kind == 0 {
                    batched.flush(slot, &mut tallies);
                    resumed.flush(slot, &mut mixed);
                    for log in [&mut per_line, &mut tallies, &mut mixed] {
                        log.push(WalRecord::SlotClose { slot });
                    }
                    batched = TallyModel::new(num_edges);
                    resumed = TallyModel::new(num_edges);
                    slot += 1;
                    continue;
                }
                let edge = edge % num_edges;
                let line = WalRecord::Arrivals { slot, pairs: vec![(edge as u64, count)] };
                for model in [&mut batched, &mut resumed] {
                    model.counts[edge] += count;
                    model.lines += 1;
                }
                if !upgraded {
                    mixed.push(line.clone());
                    resumed.logged.clone_from(&resumed.counts);
                    resumed.logged_lines = resumed.lines;
                }
                per_line.push(line);
                if flush == 0 {
                    batched.flush(slot, &mut tallies);
                    if upgraded {
                        resumed.flush(slot, &mut mixed);
                    }
                }
            }
            batched.flush(slot, &mut tallies);
            resumed.flush(slot, &mut mixed);

            let expected = replay(&per_line, num_edges, start_slot);
            proptest::prop_assert_eq!(replay(&tallies, num_edges, start_slot), expected.clone());
            proptest::prop_assert_eq!(replay(&mixed, num_edges, start_slot), expected);
        }
    }

    #[test]
    fn sync_policy_parses() {
        assert_eq!(
            "every".parse::<SyncPolicy>().expect("ok"),
            SyncPolicy::Every
        );
        assert_eq!("SLOT".parse::<SyncPolicy>().expect("ok"), SyncPolicy::Slot);
        assert_eq!("off".parse::<SyncPolicy>().expect("ok"), SyncPolicy::Off);
        assert!("sometimes".parse::<SyncPolicy>().is_err());
        assert_eq!(SyncPolicy::Slot.to_string(), "slot");
    }

    #[test]
    fn fresh_directory_detection() {
        let dir = temp_dir("fresh");
        assert!(!dir_has_segments(&dir));
        let (mut wal, _) = Wal::open(&dir, WalOptions::default()).expect("open");
        wal.append(&WalRecord::SlotClose { slot: 0 })
            .expect("append");
        assert!(dir_has_segments(&dir));
        std::fs::remove_dir_all(&dir).ok();
    }
}
