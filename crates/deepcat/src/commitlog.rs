//! Segmented, checksummed commitlog for online tuning sessions
//! (DESIGN.md §15).
//!
//! Layout of a session's log directory:
//!
//! ```text
//! <dir>/snapshot-000000000004.snap   compacted OnlineCheckpoint at step 4
//! <dir>/segment-000000000004.log     step records with seq >= 4
//! ```
//!
//! Each record in a segment is framed as
//!
//! ```text
//! [len: u32 LE][crc: u32 LE][seq: u64 LE][payload: len bytes]
//! ```
//!
//! where `crc` is CRC-32 (IEEE) over `seq || payload` and `seq` is the
//! step index, strictly monotonic across segments. The payload is the
//! [`crate::codec`]-encoded [`StepDelta`] for that step. A snapshot file
//! is exactly one such frame, with `seq` equal to the snapshot step and
//! the codec-encoded [`OnlineCheckpoint`] as payload, so a flipped bit
//! anywhere in it is detected rather than read back as a changed weight.
//!
//! Write discipline: every record append is followed by an `fsync` of
//! the segment before the session continues; snapshots are written to a
//! `.tmp` sibling, fsynced, atomically renamed into place, and the
//! directory is fsynced so the rename itself is durable. Compaction
//! (rolling a fresh segment at the snapshot step and deleting everything
//! older) runs only after the snapshot rename is durable, so there is no
//! instant at which the directory lacks a recoverable state.
//!
//! Recovery loads the newest parseable snapshot and replays the segment
//! tail, truncating at the first torn, short, corrupt, or out-of-order
//! record instead of failing — everything before that point is provably
//! intact (length + CRC + contiguous sequence numbers).

use crate::codec;
use crate::persist::OnlineCheckpoint;
use crate::storage::{SharedStorage, Storage, StorageError};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

use crate::guardrail::GuardrailSnapshot;
use crate::online::StepRecord;
use crate::resilience::ResilienceSnapshot;
use rl::Transition;

/// Frame header size: len (4) + crc (4) + seq (8).
pub const RECORD_HEADER_BYTES: usize = 16;
/// Sanity bound on a single record payload; anything larger is treated
/// as a torn length field during recovery.
pub const MAX_RECORD_BYTES: u32 = 1 << 26;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven; no external crates.
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `table[0]` is the classic byte-at-a-time table,
/// and `table[k][b]` is the CRC state contribution of byte `b` followed
/// by `k` zero bytes, so eight input bytes fold in per step.
const fn make_crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        // PANIC-SAFETY: i < 256 by the loop condition.
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut i = 0usize;
        while i < 256 {
            // PANIC-SAFETY: 1 <= t < 8, i < 256, inner index masked.
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

const CRC32_TABLES: [[u32; 256]; 8] = make_crc32_tables();

/// Look up the low byte of `index` in CRC table `t` (a constant < 8).
#[inline(always)]
fn lookup(t: usize, index: u32) -> u32 {
    // PANIC-SAFETY: every caller passes a constant t < 8, and the index
    // is masked to 8 bits, always < 256.
    CRC32_TABLES[t][(index & 0xFF) as usize]
}

fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = chunk
            .iter()
            .rev()
            .fold(0u64, |w, &b| (w << 8) | u64::from(b));
        let lo = c ^ word as u32;
        let hi = (word >> 32) as u32;
        c = lookup(7, lo)
            ^ lookup(6, lo >> 8)
            ^ lookup(5, lo >> 16)
            ^ lookup(4, lo >> 24)
            ^ lookup(3, hi)
            ^ lookup(2, hi >> 8)
            ^ lookup(1, hi >> 16)
            ^ lookup(0, hi >> 24);
    }
    for &b in chunks.remainder() {
        c = lookup(0, c ^ u32::from(b)) ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE) of `seq || payload`, the integrity check of one record.
pub fn record_crc(seq: u64, payload: &[u8]) -> u32 {
    let state = crc32_update(0xFFFF_FFFF, &seq.to_le_bytes());
    !crc32_update(state, payload)
}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

/// Frame one record for appending to a segment.
pub fn frame_record(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&record_crc(seq, payload).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encode `value` with [`crate::codec`] and frame it as record `seq`,
/// refusing payloads longer than `max_payload` bytes (a longer record
/// would be written fine but rejected as torn by recovery).
pub(crate) fn encode_framed<T: Serialize + ?Sized>(
    seq: u64,
    value: &T,
    max_payload: u32,
) -> io::Result<Vec<u8>> {
    let payload = codec::encode(value).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("binary encoding failed: {e}"),
        )
    })?;
    if payload.len() > max_payload as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "encoded payload of {} bytes exceeds the {max_payload}-byte frame limit",
                payload.len()
            ),
        ));
    }
    Ok(frame_record(seq, &payload))
}

/// The payload of a file that holds exactly one frame with sequence
/// number `seq` (a snapshot or a model file); `None` when the file is
/// torn, longer than its frame, framed for another `seq`, or fails its
/// CRC.
pub(crate) fn unframe_file(bytes: &[u8], seq: u64) -> Option<&[u8]> {
    let len = read_u32(bytes, 0)? as usize;
    let crc = read_u32(bytes, 4)?;
    let payload = bytes.get(RECORD_HEADER_BYTES..)?;
    let intact =
        payload.len() == len && read_u64(bytes, 8)? == seq && record_crc(seq, payload) == crc;
    intact.then_some(payload)
}

fn read_u32(bytes: &[u8], off: usize) -> Option<u32> {
    bytes
        .get(off..off.checked_add(4)?)
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .map(u32::from_le_bytes)
}

fn read_u64(bytes: &[u8], off: usize) -> Option<u64> {
    bytes
        .get(off..off.checked_add(8)?)
        .and_then(|s| <[u8; 8]>::try_from(s).ok())
        .map(u64::from_le_bytes)
}

/// One well-formed frame pulled out of a segment.
struct Frame<'a> {
    seq: u64,
    payload: &'a [u8],
    /// Total frame size in bytes (header + payload).
    size: usize,
}

/// Parse the frame starting at `off`. `Ok(None)` means a clean end of
/// segment; `Err(reason)` means the bytes from `off` on are torn or
/// corrupt and must be truncated.
fn parse_frame(bytes: &[u8], off: usize) -> Result<Option<Frame<'_>>, &'static str> {
    if off == bytes.len() {
        return Ok(None);
    }
    let len = match read_u32(bytes, off) {
        Some(len) => len,
        None => return Err("torn_header"),
    };
    if len > MAX_RECORD_BYTES {
        return Err("bad_length");
    }
    let crc = match read_u32(bytes, off + 4) {
        Some(crc) => crc,
        None => return Err("torn_header"),
    };
    let seq = match read_u64(bytes, off + 8) {
        Some(seq) => seq,
        None => return Err("torn_header"),
    };
    let start = off + RECORD_HEADER_BYTES;
    let payload = match bytes.get(start..start + len as usize) {
        Some(p) => p,
        None => return Err("torn_payload"),
    };
    if record_crc(seq, payload) != crc {
        return Err("crc_mismatch");
    }
    Ok(Some(Frame {
        seq,
        payload,
        size: RECORD_HEADER_BYTES + len as usize,
    }))
}

// ---------------------------------------------------------------------------
// Step deltas
// ---------------------------------------------------------------------------

/// Everything appended to the log for one completed online step. Small
/// (one transition + RNG states + bookkeeping) compared to the full
/// [`OnlineCheckpoint`], which is only written at snapshot boundaries.
///
/// Recovery rebuilds agent weights by replaying these deltas on top of
/// the snapshot: push the transition, restore the loop RNG to
/// `loop_rng_pre_train`, re-run the (deterministic) fine-tune loop, and
/// verify both RNG streams land exactly on the recorded post states —
/// any divergence is detected, not silently absorbed.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StepDelta {
    /// Step index == record sequence number.
    pub seq: u64,
    /// The fully-resolved step record (what reports are made of).
    pub record: StepRecord,
    /// The transition pushed into the replay buffer this step.
    pub transition: Transition,
    /// Loop RNG state captured right before the fine-tune loop.
    pub loop_rng_pre_train: Vec<u64>,
    /// Loop RNG state after the fine-tune loop (replay verification).
    pub loop_rng_post: Vec<u64>,
    /// Agent RNG state after the fine-tune loop (replay verification).
    pub agent_rng_post: Vec<u64>,
    /// Cumulative virtual seconds spent after this step.
    pub spent_s: f64,
    /// Simulator evaluation counter after this step.
    pub eval_count: u64,
    /// Observed environment state after this step.
    pub env_state: Vec<f64>,
    /// Episode position after this step.
    pub step_in_episode: usize,
    /// Resilience-wrapper state after this step.
    pub resilience: ResilienceSnapshot,
    /// Guardrail state after this step (when guardrails are on).
    pub guardrail: Option<GuardrailSnapshot>,
}

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

/// Compaction and segmentation knobs.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommitlogPolicy {
    /// Write a compacted snapshot every this many steps (0 = only the
    /// initial snapshot).
    pub snapshot_every: usize,
    /// Roll to a new segment file after this many records.
    pub segment_max_records: u64,
}

impl Default for CommitlogPolicy {
    fn default() -> Self {
        Self {
            snapshot_every: 8,
            segment_max_records: 64,
        }
    }
}

// ---------------------------------------------------------------------------
// File naming
// ---------------------------------------------------------------------------

fn segment_name(start_seq: u64) -> String {
    format!("segment-{start_seq:012}.log")
}

fn snapshot_name(step: u64) -> String {
    format!("snapshot-{step:012}.snap")
}

fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if digits.len() == 12 && digits.bytes().all(|b| b.is_ascii_digit()) {
        digits.parse().ok()
    } else {
        None
    }
}

fn parse_segment(name: &str) -> Option<u64> {
    parse_numbered(name, "segment-", ".log")
}

fn parse_snapshot(name: &str) -> Option<u64> {
    parse_numbered(name, "snapshot-", ".snap")
}

fn is_log_file(name: &str) -> bool {
    parse_segment(name).is_some() || parse_snapshot(name).is_some() || name.ends_with(".tmp")
}

// ---------------------------------------------------------------------------
// Recovery result
// ---------------------------------------------------------------------------

/// What [`Commitlog::open`] reconstructed from a log directory.
#[derive(Debug)]
pub struct Recovered {
    /// The newest parseable snapshot.
    pub checkpoint: OnlineCheckpoint,
    /// Step at which the snapshot was taken (== `checkpoint.next_step`).
    pub snapshot_step: u64,
    /// Valid records after the snapshot, contiguous from `snapshot_step`.
    pub tail: Vec<StepDelta>,
    /// Torn/corrupt records dropped at the truncation point (1 per
    /// truncation event; later unreachable segments count as bytes only).
    pub truncated_records: u64,
    /// Total bytes physically discarded during recovery.
    pub truncated_bytes: u64,
    /// Snapshots that failed to parse and were skipped over.
    pub corrupt_snapshots: u64,
}

// ---------------------------------------------------------------------------
// Commitlog
// ---------------------------------------------------------------------------

/// Append-side handle to a session's log directory. All I/O goes through
/// the shared [`crate::storage::Storage`] handle so faults can be
/// injected; telemetry is emitted only after the storage lock is
/// released.
#[derive(Debug)]
pub struct Commitlog {
    dir: PathBuf,
    storage: SharedStorage,
    policy: CommitlogPolicy,
    next_seq: u64,
    segment_start: u64,
    segment_records: u64,
}

fn invalid_data(msg: String) -> StorageError {
    StorageError::Io(io::Error::new(io::ErrorKind::InvalidData, msg))
}

impl Commitlog {
    /// Start a fresh log in `dir`, wiping any leftover log files from a
    /// previous session (a fresh session must not resurrect stale state).
    pub fn create(
        dir: &Path,
        storage: SharedStorage,
        policy: CommitlogPolicy,
    ) -> Result<Self, StorageError> {
        let res = (|| {
            let mut s = storage.lock();
            s.create_dir_all(dir)?;
            let names = s.list(dir)?;
            for name in &names {
                if is_log_file(name) {
                    s.remove(&dir.join(name))?;
                }
            }
            s.sync_dir(dir)
        })();
        emit_injected(&storage);
        res?;
        Ok(Self {
            dir: dir.to_path_buf(),
            storage,
            policy,
            next_seq: 0,
            segment_start: 0,
            segment_records: 0,
        })
    }

    /// Open an existing log and recover its durable state. Returns
    /// `None` for the recovery when nothing durable exists (e.g. the
    /// process died before the initial snapshot became durable) — the
    /// caller should then start the session from scratch.
    pub fn open(
        dir: &Path,
        storage: SharedStorage,
        policy: CommitlogPolicy,
    ) -> Result<(Self, Option<Recovered>), StorageError> {
        let res = {
            let mut s = storage.lock();
            // GUARD-EMIT: scan_dir only buffers injected faults in the
            // shim; their telemetry is emitted after the guard drops.
            scan_dir(&mut **s, dir)
        };
        emit_injected(&storage);
        let scan = res?;
        match scan.recovered {
            Some(state) => {
                let next_seq = state.snapshot_step + state.tail.len() as u64;
                telemetry::event!(
                    "commitlog.recovery",
                    snapshot_step = state.snapshot_step,
                    tail_records = state.tail.len(),
                    truncated = state.truncated_records,
                    truncated_bytes = state.truncated_bytes,
                    corrupt_snapshots = scan.corrupt_snapshots
                );
                if state.truncated_records > 0 {
                    telemetry::inc("commitlog.truncated_records", state.truncated_records);
                }
                let log = Self {
                    dir: dir.to_path_buf(),
                    storage,
                    policy,
                    next_seq,
                    segment_start: state.segment_start,
                    segment_records: state.segment_records,
                };
                let recovered = Recovered {
                    checkpoint: state.checkpoint,
                    snapshot_step: state.snapshot_step,
                    tail: state.tail,
                    truncated_records: state.truncated_records,
                    truncated_bytes: state.truncated_bytes,
                    corrupt_snapshots: scan.corrupt_snapshots,
                };
                Ok((log, Some(recovered)))
            }
            None => {
                telemetry::event!(
                    "commitlog.recovery",
                    snapshot_step = -1i64,
                    tail_records = 0usize,
                    truncated = 0u64,
                    truncated_bytes = 0u64,
                    corrupt_snapshots = scan.corrupt_snapshots
                );
                Ok((
                    Self {
                        dir: dir.to_path_buf(),
                        storage,
                        policy,
                        next_seq: 0,
                        segment_start: 0,
                        segment_records: 0,
                    },
                    None,
                ))
            }
        }
    }

    /// Next sequence number the log expects.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    pub fn policy(&self) -> &CommitlogPolicy {
        &self.policy
    }

    fn segment_path(&self) -> PathBuf {
        self.dir.join(segment_name(self.segment_start))
    }

    /// Append one step delta and fsync it. `delta.seq` must equal
    /// [`Self::next_seq`].
    pub fn append(&mut self, delta: &StepDelta) -> Result<(), StorageError> {
        if delta.seq != self.next_seq {
            return Err(invalid_data(format!(
                "commitlog append out of order: got seq {}, expected {}",
                delta.seq, self.next_seq
            )));
        }
        if self.segment_records >= self.policy.segment_max_records {
            self.roll_segment();
        }
        let frame = encode_framed(delta.seq, delta, MAX_RECORD_BYTES)?;
        let path = self.segment_path();
        let res = (|| {
            let mut s = self.storage.lock();
            s.append(&path, &frame)?;
            s.fsync(&path)
        })();
        emit_injected(&self.storage);
        res?;
        self.next_seq += 1;
        self.segment_records += 1;
        telemetry::event!("commitlog.append", seq = delta.seq, bytes = frame.len());
        telemetry::inc("commitlog.fsync", 1);
        Ok(())
    }

    fn roll_segment(&mut self) {
        let from = self.segment_start;
        self.segment_start = self.next_seq;
        self.segment_records = 0;
        telemetry::event!(
            "commitlog.segment_rolled",
            from_start = from,
            new_start = self.next_seq
        );
    }

    /// Write a compacted snapshot at the current sequence position, then
    /// delete every older segment and snapshot. `cp.next_step` must
    /// equal [`Self::next_seq`].
    pub fn snapshot(&mut self, cp: &OnlineCheckpoint) -> Result<(), StorageError> {
        let step = cp.next_step as u64;
        if step != self.next_seq {
            return Err(invalid_data(format!(
                "commitlog snapshot out of position: checkpoint at step {}, log at seq {}",
                step, self.next_seq
            )));
        }
        let bytes = encode_framed(step, cp, u32::MAX)?;
        let final_path = self.dir.join(snapshot_name(step));
        let tmp_path = self.dir.join(format!("{}.tmp", snapshot_name(step)));
        let res = (|| {
            let mut s = self.storage.lock();
            s.write_all(&tmp_path, &bytes)?;
            s.fsync(&tmp_path)?;
            s.rename(&tmp_path, &final_path)?;
            s.sync_dir(&self.dir)
        })();
        emit_injected(&self.storage);
        res?;
        telemetry::event!("commitlog.snapshot", step = step, bytes = bytes.len());

        // Compaction: everything before the snapshot is now redundant.
        // The snapshot is already durable, so a crash anywhere in here
        // only leaves extra files for the next recovery to skip.
        if self.segment_records > 0 || self.segment_start != step {
            self.roll_segment();
        }
        let res = (|| {
            let mut s = self.storage.lock();
            let names = s.list(&self.dir)?;
            let mut removed = 0u64;
            for name in &names {
                let stale = parse_segment(name).is_some_and(|start| start < step)
                    || parse_snapshot(name).is_some_and(|idx| idx < step);
                if stale {
                    s.remove(&self.dir.join(name))?;
                    removed += 1;
                }
            }
            s.sync_dir(&self.dir)?;
            Ok::<u64, StorageError>(removed)
        })();
        emit_injected(&self.storage);
        let removed = res?;
        if removed > 0 {
            telemetry::event!("commitlog.compacted", step = step, removed_files = removed);
        }
        Ok(())
    }
}

/// Durable state reconstructed by [`scan_dir`].
struct RecoveredState {
    checkpoint: OnlineCheckpoint,
    snapshot_step: u64,
    tail: Vec<StepDelta>,
    truncated_records: u64,
    truncated_bytes: u64,
    segment_start: u64,
    segment_records: u64,
}

struct ScanResult {
    recovered: Option<RecoveredState>,
    corrupt_snapshots: u64,
}

/// The recovery algorithm (DESIGN.md §15): newest parseable snapshot +
/// contiguous segment-tail replay, physically truncating at the first
/// torn/short/corrupt/out-of-order record and discarding everything
/// after it. Runs entirely under the caller's storage lock.
fn scan_dir(s: &mut dyn Storage, dir: &Path) -> Result<ScanResult, StorageError> {
    s.create_dir_all(dir)?;

    // Leftover temp files are by definition not durable state.
    let names = s.list(dir)?;
    for name in &names {
        if name.ends_with(".tmp") {
            s.remove(&dir.join(name))?;
        }
    }

    // Newest parseable snapshot wins; corrupt ones are skipped.
    let mut snapshots: Vec<(u64, &String)> = names
        .iter()
        .filter_map(|n| parse_snapshot(n).map(|idx| (idx, n)))
        .collect();
    snapshots.sort();
    let mut corrupt_snapshots = 0u64;
    let mut best: Option<(u64, OnlineCheckpoint)> = None;
    for (idx, name) in snapshots.iter().rev() {
        let bytes = s.read(&dir.join(name))?;
        let checkpoint = unframe_file(&bytes, *idx).and_then(codec::decode::<OnlineCheckpoint>);
        match checkpoint {
            Some(cp) if cp.next_step as u64 == *idx => {
                best = Some((*idx, cp));
                break;
            }
            _ => corrupt_snapshots += 1,
        }
    }

    let (snapshot_step, checkpoint) = match best {
        Some(found) => found,
        None => {
            // Nothing durable: wipe whatever half-written files remain
            // and report a fresh start.
            for name in &names {
                if is_log_file(name) && !name.ends_with(".tmp") {
                    s.remove(&dir.join(name))?;
                }
            }
            s.sync_dir(dir)?;
            return Ok(ScanResult {
                recovered: None,
                corrupt_snapshots,
            });
        }
    };

    let mut segments: Vec<(u64, &String)> = names
        .iter()
        .filter_map(|n| parse_segment(n).map(|start| (start, n)))
        .collect();
    segments.sort();

    let mut expected = snapshot_step;
    let mut tail: Vec<StepDelta> = Vec::new();
    let mut truncated_records = 0u64;
    let mut truncated_bytes = 0u64;
    // Where appends continue: the last surviving segment, or a fresh one
    // at `expected` when none survives.
    let mut live_segment: Option<(u64, u64)> = None; // (start, records_in_it)
    let mut torn = false;

    for (start, name) in &segments {
        let path = dir.join(name);
        if torn || *start > expected {
            // Unreachable after a truncation or a sequence gap: discard
            // entirely.
            let bytes = s.read(&path)?;
            truncated_bytes += bytes.len() as u64;
            s.remove(&path)?;
            torn = true;
            continue;
        }
        let bytes = s.read(&path)?;
        let mut off = 0usize;
        loop {
            match parse_frame(&bytes, off) {
                Ok(None) => break,
                Ok(Some(frame)) => {
                    if frame.seq < expected {
                        // Superseded by the snapshot (compaction did not
                        // finish before the crash).
                        off += frame.size;
                        continue;
                    }
                    if frame.seq != expected {
                        // Sequence gap: nothing after this point can be
                        // trusted.
                        truncated_records += 1;
                        torn = true;
                        break;
                    }
                    match codec::decode::<StepDelta>(frame.payload) {
                        Some(delta) if delta.seq == frame.seq => {
                            off += frame.size;
                            expected += 1;
                            tail.push(delta);
                        }
                        _ => {
                            // The frame is intact but the payload does
                            // not decode to a delta for this seq:
                            // treat as corrupt and truncate.
                            truncated_records += 1;
                            torn = true;
                            break;
                        }
                    }
                }
                Err(_reason) => {
                    truncated_records += 1;
                    torn = true;
                    break;
                }
            }
        }
        if torn {
            truncated_bytes += (bytes.len() - off) as u64;
            if off == 0 && *start > snapshot_step {
                // Nothing valid in this segment at all.
                s.remove(&path)?;
            } else {
                s.truncate(&path, off as u64)?;
                s.fsync(&path)?;
                live_segment = Some((*start, expected.saturating_sub(*start)));
            }
        } else {
            live_segment = Some((*start, expected.saturating_sub(*start)));
        }
    }
    s.sync_dir(dir)?;
    let (segment_start, segment_records) = live_segment.unwrap_or((expected, 0));
    Ok(ScanResult {
        recovered: Some(RecoveredState {
            checkpoint,
            snapshot_step,
            tail,
            truncated_records,
            truncated_bytes,
            segment_start,
            segment_records,
        }),
        corrupt_snapshots,
    })
}

/// Drain fault records accumulated inside the storage shim and emit them
/// as telemetry — outside the lock, per `concurrency.guard_across_emit`.
fn emit_injected(storage: &SharedStorage) {
    let injected = storage.lock().take_injected();
    for fault in injected {
        telemetry::event!(
            "commitlog.fault_injected",
            at_op = fault.at_op,
            fault = fault.label,
            file = fault.file.as_str()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{shared_storage, MemStorage};

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is 0xCBF43926.
        assert_eq!(!crc32_update(0xFFFF_FFFF, b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn sliced_crc_matches_bitwise_reference() {
        fn bitwise(bytes: &[u8]) -> u32 {
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c ^= b as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
            }
            !c
        }
        let data: Vec<u8> = (0..1031u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        // Every length 0..=40 (all tail remainders), then long unaligned runs.
        for len in (0..=40).chain([255, 1024, 1031]) {
            for start in [0, 1, 3] {
                let slice = &data[start..(start + len).min(data.len())];
                assert_eq!(
                    !crc32_update(0xFFFF_FFFF, slice),
                    bitwise(slice),
                    "len {len}"
                );
            }
        }
    }

    #[test]
    fn whole_file_frames_check_seq_length_and_crc() {
        let file = frame_record(4, b"snapshot-body");
        assert_eq!(unframe_file(&file, 4), Some(&b"snapshot-body"[..]));
        assert_eq!(unframe_file(&file, 5), None, "framed for another step");
        assert_eq!(unframe_file(&file[..file.len() - 1], 4), None, "torn");
        let mut longer = file.clone();
        longer.push(0);
        assert_eq!(unframe_file(&longer, 4), None, "trailing bytes");
        for at in 0..file.len() {
            let mut flipped = file.clone();
            flipped[at] ^= 0x20;
            assert_eq!(unframe_file(&flipped, 4), None, "flip at {at}");
        }
        assert_eq!(unframe_file(b"{\"cfg\":1}", 0), None, "legacy JSON");
    }

    #[test]
    fn frame_round_trip() {
        let payload = br#"{"x":1}"#;
        let frame = frame_record(7, payload);
        assert_eq!(frame.len(), RECORD_HEADER_BYTES + payload.len());
        let parsed = parse_frame(&frame, 0)
            .expect("valid frame")
            .expect("present");
        assert_eq!(parsed.seq, 7);
        assert_eq!(parsed.payload, payload);
        assert_eq!(parsed.size, frame.len());
        assert!(parse_frame(&frame, frame.len())
            .expect("clean end")
            .is_none());
    }

    #[test]
    fn parse_frame_rejects_torn_and_corrupt() {
        let frame = frame_record(3, b"payload-bytes");
        // Torn header.
        assert!(parse_frame(&frame[..10], 0).is_err());
        // Torn payload.
        assert!(parse_frame(&frame[..frame.len() - 1], 0).is_err());
        // Bit flip in the payload.
        let mut flipped = frame.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        assert!(matches!(parse_frame(&flipped, 0), Err("crc_mismatch")));
        // Absurd length field.
        let mut bad_len = frame;
        bad_len[3] = 0xFF;
        assert!(parse_frame(&bad_len, 0).is_err());
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(parse_segment(&segment_name(42)), Some(42));
        assert_eq!(parse_snapshot(&snapshot_name(7)), Some(7));
        assert_eq!(parse_segment("segment-12.log"), None);
        assert_eq!(parse_snapshot(&segment_name(1)), None);
        assert!(is_log_file("snapshot-000000000001.snap.tmp"));
        assert_eq!(parse_snapshot("snapshot-000000000001.json"), None);
    }

    #[test]
    fn open_on_empty_dir_is_fresh() {
        let storage = shared_storage(MemStorage::new());
        let (log, rec) =
            Commitlog::open(Path::new("/log"), storage, CommitlogPolicy::default()).expect("open");
        assert!(rec.is_none());
        assert_eq!(log.next_seq(), 0);
    }
}
