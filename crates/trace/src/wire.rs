//! Compact binary encoding of traces — the bytes that actually cross the
//! (simulated) network from pod to hive, and the size that experiment E4
//! charges per execution.
//!
//! Two layers:
//!
//! * **Trace payloads** ([`encode`] / [`decode`]): one execution trace in
//!   a length-checked little-endian format. Decoding is total: any input
//!   — truncated, oversized length fields, garbage tags — returns a
//!   typed [`WireError`]; it never panics and never allocates more than
//!   the input could justify (attacker-controlled length fields are
//!   bounds-checked *before* any reservation).
//! * **Batch frames** ([`encode_batch`] / [`decode_batch`]): many trace
//!   payloads bundled behind one magic + count + length header and a
//!   trailing FNV-1a checksum. Batching amortizes per-message overhead
//!   on the pod→hive path and gives the ingest pipeline a unit of work;
//!   the checksum lets the hive count and skip corrupted frames instead
//!   of ingesting garbage.

use crate::bitvec::BitVec;
use crate::record::{ExecutionTrace, RecordingPolicy};
use softborg_obs::{fnv1a_step, FNV_OFFSET};
use softborg_program::cfg::Loc;
use softborg_program::interp::{CrashKind, Outcome};
use softborg_program::{BlockId, LockId, ProgramId, ThreadId};
use std::fmt;

/// Hard cap on a decoded schedule's expanded length (picks). Matches the
/// longest schedule any in-tree workload can record, with slack.
const MAX_SCHEDULE: usize = 16_000_000;
/// Hard cap on traces per batch frame.
const MAX_BATCH: u32 = 1_000_000;
/// Batch frame magic: `"SBF1"` little-endian.
const BATCH_MAGIC: u32 = u32::from_le_bytes(*b"SBF1");

/// A malformed wire payload or batch frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before `field` could be read.
    Truncated {
        /// The field being read when the input ran out.
        field: &'static str,
    },
    /// An enum tag had no known meaning.
    BadTag {
        /// The field whose tag was invalid.
        field: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length field claimed more elements than the remaining input
    /// could possibly hold (or exceeded a structural cap).
    Oversized {
        /// The length field that overflowed.
        field: &'static str,
        /// The claimed length.
        len: u64,
    },
    /// A batch frame did not start with the `SBF1` magic.
    BadMagic,
    /// A batch frame's payload did not match its checksum.
    ChecksumMismatch {
        /// Checksum recorded in the frame.
        expected: u64,
        /// Checksum computed over the received payload.
        got: u64,
    },
    /// Bytes remained after a complete payload was decoded.
    TrailingBytes {
        /// How many bytes were left over.
        len: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { field } => write!(f, "truncated payload reading {field}"),
            WireError::BadTag { field, tag } => write!(f, "unknown tag {tag} for {field}"),
            WireError::Oversized { field, len } => {
                write!(f, "length field {field} = {len} exceeds remaining input")
            }
            WireError::BadMagic => write!(f, "batch frame missing SBF1 magic"),
            WireError::ChecksumMismatch { expected, got } => {
                write!(f, "batch checksum mismatch: frame says {expected:#018x}, payload hashes to {got:#018x}")
            }
            WireError::TrailingBytes { len } => {
                write!(f, "{len} trailing bytes after complete payload")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { field });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, field)?[0])
    }

    fn u16(&mut self, field: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, field)?.try_into().unwrap()))
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, field)?.try_into().unwrap()))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, field)?.try_into().unwrap()))
    }

    fn i64(&mut self, field: &'static str) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8, field)?.try_into().unwrap()))
    }

    /// Validates that `len` elements of `elem_size` bytes fit in the
    /// remaining input *before* any allocation happens.
    fn claim(&self, len: u32, elem_size: usize, field: &'static str) -> Result<usize, WireError> {
        let n = len as usize;
        if n.checked_mul(elem_size)
            .is_none_or(|b| b > self.remaining())
        {
            return Err(WireError::Oversized {
                field,
                len: u64::from(len),
            });
        }
        Ok(n)
    }
}

fn put_u16(b: &mut Vec<u8>, v: u16) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(b: &mut Vec<u8>, v: i64) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Encodes a trace into its wire form.
pub fn encode(t: &ExecutionTrace) -> Vec<u8> {
    let mut b = Vec::with_capacity(size_hint(t));
    encode_into(&mut b, t);
    b
}

/// A guess at a trace's encoded size, large enough for most traces, so
/// that their encoding never grows its buffer.
fn size_hint(t: &ExecutionTrace) -> usize {
    64 + t.bits.byte_len()
        + t.guard_bits.byte_len()
        + t.syscall_rets.len() * 8
        + t.schedule.len() * 2
}

/// Appends a trace's wire form to `b`.
fn encode_into(b: &mut Vec<u8>, t: &ExecutionTrace) {
    put_u64(b, t.program.0);
    match t.policy {
        RecordingPolicy::OutcomeOnly => b.push(0),
        RecordingPolicy::FullBranch => b.push(1),
        RecordingPolicy::InputDependent => b.push(2),
        RecordingPolicy::Sampled { period, phase } => {
            b.push(3);
            put_u32(b, period);
            put_u32(b, phase);
        }
    }
    put_bits(b, &t.bits);
    put_bits(b, &t.guard_bits);
    put_u32(b, t.syscall_rets.len() as u32);
    for r in &t.syscall_rets {
        put_i64(b, *r);
    }
    // Schedules are long and runny (round-robin stretches, spin loops):
    // run-length encode them. Worst case (alternating picks) costs 2x the
    // raw u16 stream; typical concurrent traces compress 3-20x.
    let at = b.len();
    put_u32(b, 0); // the run count, patched below
    let mut runs = 0u32;
    for run in t.schedule.chunk_by(|x, y| x == y) {
        put_u16(b, run[0] as u16);
        put_u32(b, run.len() as u32);
        runs += 1;
    }
    b[at..at + 4].copy_from_slice(&runs.to_le_bytes());
    put_u64(b, t.steps);
    put_outcome(b, &t.outcome);
    put_u64(b, t.overlay_version);
    put_u32(b, t.lock_pairs.len() as u32);
    for (a, c) in &t.lock_pairs {
        put_u32(b, *a);
        put_u32(b, *c);
    }
    put_u32(b, t.global_summaries.len() as u32);
    for g in &t.global_summaries {
        put_u32(b, g.global);
        put_u32(b, g.reader_mask);
        put_u32(b, g.writer_mask);
        put_u32(b, g.lockset.len() as u32);
        for l in &g.lockset {
            put_u32(b, *l);
        }
    }
}

/// Decodes a trace from its wire form, rejecting trailing bytes.
///
/// # Errors
///
/// Returns [`WireError`] on truncated or structurally invalid payloads.
pub fn decode(data: &[u8]) -> Result<ExecutionTrace, WireError> {
    let mut r = Reader::new(data);
    let t = decode_from(&mut r)?;
    if r.remaining() > 0 {
        return Err(WireError::TrailingBytes { len: r.remaining() });
    }
    Ok(t)
}

/// Decodes one trace from the reader's current position.
fn decode_from(b: &mut Reader<'_>) -> Result<ExecutionTrace, WireError> {
    let program = ProgramId(b.u64("program id")?);
    let policy = match b.u8("policy tag")? {
        0 => RecordingPolicy::OutcomeOnly,
        1 => RecordingPolicy::FullBranch,
        2 => RecordingPolicy::InputDependent,
        3 => RecordingPolicy::Sampled {
            period: b.u32("sample period")?,
            phase: b.u32("sample phase")?,
        },
        tag => {
            return Err(WireError::BadTag {
                field: "policy",
                tag,
            })
        }
    };
    let bits = take_bits(b, "branch bits")?;
    let guard_bits = take_bits(b, "guard bits")?;
    let n_rets = b.u32("syscall return count")?;
    let n_rets = b.claim(n_rets, 8, "syscall return count")?;
    let mut syscall_rets = Vec::with_capacity(n_rets);
    for _ in 0..n_rets {
        syscall_rets.push(b.i64("syscall return")?);
    }
    let n_runs = b.u32("schedule run count")?;
    let n_runs = b.claim(n_runs, 6, "schedule run count")?;
    let mut schedule = Vec::new();
    for _ in 0..n_runs {
        let value = u32::from(b.u16("schedule run value")?);
        let count = b.u32("schedule run length")? as usize;
        if count > MAX_SCHEDULE || schedule.len() + count > MAX_SCHEDULE {
            return Err(WireError::Oversized {
                field: "schedule run length",
                len: count as u64,
            });
        }
        schedule.extend(std::iter::repeat_n(value, count));
    }
    let steps = b.u64("step count")?;
    let outcome = take_outcome(b)?;
    let overlay_version = b.u64("overlay version")?;
    let n_pairs = b.u32("lock pair count")?;
    let n_pairs = b.claim(n_pairs, 8, "lock pair count")?;
    let mut lock_pairs = Vec::with_capacity(n_pairs);
    for _ in 0..n_pairs {
        lock_pairs.push((b.u32("lock pair")?, b.u32("lock pair")?));
    }
    let n_globals = b.u32("global summary count")?;
    // Each summary is at least 16 bytes on the wire.
    let n_globals = b.claim(n_globals, 16, "global summary count")?;
    let mut global_summaries = Vec::with_capacity(n_globals);
    for _ in 0..n_globals {
        let global = b.u32("global index")?;
        let reader_mask = b.u32("reader mask")?;
        let writer_mask = b.u32("writer mask")?;
        let n_locks = b.u32("lockset count")?;
        let n_locks = b.claim(n_locks, 4, "lockset count")?;
        let mut lockset = Vec::with_capacity(n_locks);
        for _ in 0..n_locks {
            lockset.push(b.u32("lockset entry")?);
        }
        global_summaries.push(crate::record::GlobalAccessSummary {
            global,
            reader_mask,
            writer_mask,
            lockset,
        });
    }
    Ok(ExecutionTrace {
        program,
        policy,
        bits,
        guard_bits,
        syscall_rets,
        schedule,
        steps,
        outcome,
        overlay_version,
        lock_pairs,
        global_summaries,
    })
}

/// Encodes many traces into one checksummed batch frame.
///
/// Layout: `SBF1` magic (u32), trace count (u32), payload length (u64),
/// payload (`count` length-prefixed trace payloads), FNV-1a-64 checksum
/// of the count/length header plus the payload (u64, trailing).
///
/// # Panics
///
/// Panics if more than one million traces are batched into one frame
/// (split batches instead; the pipeline never comes close).
pub fn encode_batch<'a, I>(traces: I) -> Vec<u8>
where
    I: IntoIterator<Item = &'a ExecutionTrace>,
    I::IntoIter: Clone,
{
    let traces = traces.into_iter();
    let hint: usize = traces.clone().map(|t| 4 + size_hint(t)).sum();
    // Each payload is written straight into the frame behind a length
    // slot; the count and payload length are patched in once known.
    let mut frame = Vec::with_capacity(24 + hint);
    put_u32(&mut frame, BATCH_MAGIC);
    put_u32(&mut frame, 0);
    put_u64(&mut frame, 0);
    let mut count: u32 = 0;
    for t in traces {
        count += 1;
        assert!(count <= MAX_BATCH, "batch frame over {MAX_BATCH} traces");
        let at = frame.len();
        put_u32(&mut frame, 0);
        encode_into(&mut frame, t);
        let len = (frame.len() - at - 4) as u32;
        frame[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }
    let payload_len = (frame.len() - 16) as u64;
    frame[4..8].copy_from_slice(&count.to_le_bytes());
    frame[8..16].copy_from_slice(&payload_len.to_le_bytes());
    let checksum = fnv1a_step(FNV_OFFSET, &frame[4..]);
    put_u64(&mut frame, checksum);
    frame
}

/// Decodes a batch frame produced by [`encode_batch`], verifying the
/// magic, structural lengths, and checksum before touching any payload.
///
/// # Errors
///
/// Returns [`WireError`] when the frame is corrupt in any way; a failed
/// frame never panics and never yields partial traces.
pub fn decode_batch(data: &[u8]) -> Result<Vec<ExecutionTrace>, WireError> {
    batch_payloads(data)?.iter().map(|p| decode(p)).collect()
}

/// Validates a batch frame (magic, structural lengths, checksum, payload
/// framing) and returns the encoded payload slice of every trace in the
/// frame **without decoding them**.
///
/// This is the zero-copy entry point for pipelined ingest: each returned
/// slice is the exact byte string [`encode`] produced for one trace, so
/// equal slices are guaranteed to decode (and reconstruct) identically —
/// which is what lets a decode worker key a memoization cache on the raw
/// bytes and recycle prior work.
///
/// # Errors
///
/// Same contract as [`decode_batch`] minus per-trace decoding: any
/// truncation, oversized length, bad magic, checksum mismatch, or
/// trailing bytes in the *frame* is reported without panicking and
/// without attacker-controlled allocation.
pub fn batch_payloads(data: &[u8]) -> Result<Vec<&[u8]>, WireError> {
    let mut r = Reader::new(data);
    if r.u32("batch magic")? != BATCH_MAGIC {
        return Err(WireError::BadMagic);
    }
    let count = r.u32("batch count")?;
    if count > MAX_BATCH {
        return Err(WireError::Oversized {
            field: "batch count",
            len: u64::from(count),
        });
    }
    let payload_len = r.u64("batch payload length")?;
    // The frame must contain exactly payload + trailing checksum.
    let expected_remaining = payload_len.checked_add(8).ok_or(WireError::Oversized {
        field: "batch payload length",
        len: payload_len,
    })?;
    if (r.remaining() as u64) < expected_remaining {
        return Err(WireError::Truncated {
            field: "batch payload",
        });
    }
    if (r.remaining() as u64) > expected_remaining {
        return Err(WireError::TrailingBytes {
            len: (r.remaining() as u64 - expected_remaining) as usize,
        });
    }
    let payload = r.take(payload_len as usize, "batch payload")?;
    let expected = r.u64("batch checksum")?;
    let got = fnv1a_step(FNV_OFFSET, &data[4..data.len() - 8]);
    if got != expected {
        return Err(WireError::ChecksumMismatch { expected, got });
    }
    let mut payloads = Vec::with_capacity(count.min(1024) as usize);
    let mut pr = Reader::new(payload);
    for _ in 0..count {
        let len = pr.u32("trace length")?;
        let len = pr.claim(len, 1, "trace length")?;
        payloads.push(pr.take(len, "trace payload")?);
    }
    if pr.remaining() > 0 {
        return Err(WireError::TrailingBytes {
            len: pr.remaining(),
        });
    }
    Ok(payloads)
}

/// Classifies a batch frame, from the payload slices [`batch_payloads`]
/// validated, by the [`ProgramId`] its traces carry, without decoding
/// any of them — the routing primitive of the ingest pipeline: every
/// trace opens with its program id (the first eight bytes of
/// [`encode`]), so a router can dispatch a whole frame to the owning
/// shard by peeking one field per payload, and goes on to decode the
/// same slices, checking the frame once.
///
/// Returns `Ok(None)` for an empty (but well-formed) batch. A frame
/// whose traces carry *different* program ids is structurally invalid
/// for routing and is reported as a [`WireError::BadTag`] on the
/// `"frame program id"` field — a pod never mixes programs in one
/// frame, so a mixed frame is corruption or a confused sender, and the
/// router must treat it like any other bad frame rather than splitting
/// or misrouting it.
///
/// # Errors
///
/// A payload too short to hold a program id, and payloads carrying
/// different program ids.
pub fn payloads_program_id(payloads: &[&[u8]]) -> Result<Option<ProgramId>, WireError> {
    let mut id: Option<ProgramId> = None;
    for p in payloads {
        if p.len() < 8 {
            return Err(WireError::Truncated {
                field: "frame program id",
            });
        }
        let this = ProgramId(u64::from_le_bytes(p[..8].try_into().unwrap()));
        match id {
            None => id = Some(this),
            Some(prev) if prev != this => {
                return Err(WireError::BadTag {
                    field: "frame program id",
                    tag: 0,
                });
            }
            Some(_) => {}
        }
    }
    Ok(id)
}

fn put_bits(b: &mut Vec<u8>, bits: &BitVec) {
    put_u32(b, bits.len() as u32);
    b.extend_from_slice(bits.as_bytes());
}

fn take_bits(b: &mut Reader<'_>, field: &'static str) -> Result<BitVec, WireError> {
    let len = b.u32(field)? as usize;
    let n_bytes = len.div_ceil(8);
    if n_bytes > b.remaining() {
        return Err(WireError::Oversized {
            field,
            len: len as u64,
        });
    }
    let bytes = b.take(n_bytes, field)?;
    BitVec::from_bytes(bytes, len).ok_or(WireError::Truncated { field })
}

fn put_loc(b: &mut Vec<u8>, loc: Loc) {
    put_u32(b, loc.thread.0);
    put_u32(b, loc.block.0);
    put_u32(b, loc.stmt);
}

fn take_loc(b: &mut Reader<'_>) -> Result<Loc, WireError> {
    Ok(Loc {
        thread: ThreadId::new(b.u32("loc thread")?),
        block: BlockId::new(b.u32("loc block")?),
        stmt: b.u32("loc stmt")?,
    })
}

fn put_outcome(b: &mut Vec<u8>, o: &Outcome) {
    match o {
        Outcome::Success => b.push(0),
        Outcome::Crash { loc, kind } => {
            b.push(1);
            put_loc(b, *loc);
            b.push(match kind {
                CrashKind::AssertFailed => 0,
                CrashKind::DivByZero => 1,
                CrashKind::RemByZero => 2,
                CrashKind::UnlockNotHeld => 3,
            });
        }
        Outcome::Deadlock { cycle } => {
            b.push(2);
            put_u32(b, cycle.len() as u32);
            for (t, l) in cycle {
                put_u32(b, t.0);
                put_u32(b, l.0);
            }
        }
        Outcome::Hang { stuck } => {
            b.push(3);
            put_u32(b, stuck.len() as u32);
            for loc in stuck {
                put_loc(b, *loc);
            }
        }
    }
}

fn take_outcome(b: &mut Reader<'_>) -> Result<Outcome, WireError> {
    Ok(match b.u8("outcome tag")? {
        0 => Outcome::Success,
        1 => {
            let loc = take_loc(b)?;
            let kind = match b.u8("crash kind")? {
                0 => CrashKind::AssertFailed,
                1 => CrashKind::DivByZero,
                2 => CrashKind::RemByZero,
                3 => CrashKind::UnlockNotHeld,
                tag => {
                    return Err(WireError::BadTag {
                        field: "crash kind",
                        tag,
                    })
                }
            };
            Outcome::Crash { loc, kind }
        }
        2 => {
            let n = b.u32("deadlock cycle count")?;
            let n = b.claim(n, 8, "deadlock cycle count")?;
            let mut cycle = Vec::with_capacity(n);
            for _ in 0..n {
                cycle.push((
                    ThreadId::new(b.u32("cycle thread")?),
                    LockId::new(b.u32("cycle lock")?),
                ));
            }
            Outcome::Deadlock { cycle }
        }
        3 => {
            let n = b.u32("hang stuck count")?;
            let n = b.claim(n, 12, "hang stuck count")?;
            let mut stuck = Vec::with_capacity(n);
            for _ in 0..n {
                stuck.push(take_loc(b)?);
            }
            Outcome::Hang { stuck }
        }
        tag => {
            return Err(WireError::BadTag {
                field: "outcome",
                tag,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A batch frame as `encode` plus the header and checksum make it:
    /// the reference `encode_batch` must match byte for byte.
    fn composed_batch(ts: &[ExecutionTrace]) -> Vec<u8> {
        let mut payload = Vec::new();
        for t in ts {
            let enc = encode(t);
            put_u32(&mut payload, enc.len() as u32);
            payload.extend_from_slice(&enc);
        }
        let mut frame = Vec::new();
        put_u32(&mut frame, BATCH_MAGIC);
        put_u32(&mut frame, ts.len() as u32);
        put_u64(&mut frame, payload.len() as u64);
        frame.extend_from_slice(&payload);
        let checksum = fnv1a_step(FNV_OFFSET, &frame[4..]);
        put_u64(&mut frame, checksum);
        frame
    }

    fn traces() -> Vec<ExecutionTrace> {
        vec![
            ExecutionTrace {
                program: ProgramId(1),
                policy: RecordingPolicy::InputDependent,
                bits: [true, false, true, true].iter().copied().collect(),
                guard_bits: [false].iter().copied().collect(),
                syscall_rets: vec![64, -1, 0],
                schedule: vec![0, 1, 1, 0],
                steps: 4,
                outcome: Outcome::Success,
                overlay_version: 3,
                lock_pairs: vec![],
                global_summaries: vec![],
            },
            ExecutionTrace {
                program: ProgramId(u64::MAX),
                policy: RecordingPolicy::Sampled {
                    period: 97,
                    phase: 5,
                },
                bits: BitVec::new(),
                guard_bits: BitVec::new(),
                syscall_rets: vec![],
                schedule: vec![],
                steps: 0,
                outcome: Outcome::Crash {
                    loc: Loc {
                        thread: ThreadId::new(2),
                        block: BlockId::new(9),
                        stmt: 4,
                    },
                    kind: CrashKind::DivByZero,
                },
                overlay_version: 0,
                lock_pairs: vec![],
                global_summaries: vec![],
            },
            ExecutionTrace {
                program: ProgramId(2),
                policy: RecordingPolicy::FullBranch,
                bits: (0..100).map(|i| i % 2 == 0).collect(),
                guard_bits: BitVec::new(),
                syscall_rets: vec![],
                schedule: vec![],
                steps: 500,
                outcome: Outcome::Deadlock {
                    cycle: vec![
                        (ThreadId::new(0), LockId::new(1)),
                        (ThreadId::new(1), LockId::new(0)),
                    ],
                },
                overlay_version: 1,
                lock_pairs: vec![],
                global_summaries: vec![],
            },
            ExecutionTrace {
                program: ProgramId(3),
                policy: RecordingPolicy::OutcomeOnly,
                bits: BitVec::new(),
                guard_bits: BitVec::new(),
                syscall_rets: vec![],
                schedule: vec![],
                steps: 9,
                outcome: Outcome::Hang {
                    stuck: vec![Loc {
                        thread: ThreadId::new(0),
                        block: BlockId::new(3),
                        stmt: 0,
                    }],
                },
                overlay_version: 0,
                lock_pairs: vec![],
                global_summaries: vec![],
            },
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for t in traces() {
            let enc = encode(&t);
            let dec = decode(&enc).unwrap();
            assert_eq!(t, dec);
        }
    }

    #[test]
    fn truncated_payload_errors_not_panics() {
        let enc = encode(&traces()[0]);
        for cut in 0..enc.len() {
            let r = decode(&enc[..cut]);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut enc = encode(&traces()[0]);
        enc.push(0);
        assert_eq!(decode(&enc), Err(WireError::TrailingBytes { len: 1 }));
    }

    #[test]
    fn runny_schedules_compress() {
        let mut runny = traces()[0].clone();
        runny.schedule = std::iter::repeat_n(0u32, 5_000)
            .chain(std::iter::repeat_n(1u32, 5_000))
            .collect();
        let enc = encode(&runny);
        assert!(
            enc.len() < 200,
            "10k-pick two-run schedule should RLE to a few bytes, got {}",
            enc.len()
        );
        assert_eq!(decode(&enc).unwrap(), runny);
    }

    #[test]
    fn alternating_schedules_still_roundtrip() {
        let mut alt = traces()[0].clone();
        alt.schedule = (0..999u32).map(|i| i % 3).collect();
        assert_eq!(decode(&encode(&alt)).unwrap(), alt);
    }

    #[test]
    fn absurd_run_lengths_are_rejected() {
        let mut b = Vec::new();
        put_u64(&mut b, 1); // program
        b.push(0); // policy OutcomeOnly
        put_u32(&mut b, 0); // bits
        put_u32(&mut b, 0); // guard bits
        put_u32(&mut b, 0); // rets
        put_u32(&mut b, 1); // one schedule run...
        put_u16(&mut b, 0);
        put_u32(&mut b, u32::MAX); // ...of absurd length
        assert!(decode(&b).is_err());
    }

    #[test]
    fn oversized_length_fields_do_not_allocate() {
        // Claim u32::MAX syscall returns with 4 bytes of input left: the
        // claim check must reject before any reservation.
        let mut b = Vec::new();
        put_u64(&mut b, 1); // program
        b.push(0); // policy
        put_u32(&mut b, 0); // bits
        put_u32(&mut b, 0); // guard bits
        put_u32(&mut b, u32::MAX); // rets count — absurd
        assert_eq!(
            decode(&b),
            Err(WireError::Oversized {
                field: "syscall return count",
                len: u64::from(u32::MAX),
            })
        );
    }

    #[test]
    fn garbage_tag_errors() {
        let mut b = Vec::new();
        put_u64(&mut b, 1);
        b.push(77); // bad policy tag
        assert_eq!(
            decode(&b),
            Err(WireError::BadTag {
                field: "policy",
                tag: 77
            })
        );
    }

    #[test]
    fn batch_roundtrips() {
        let ts = traces();
        let frame = encode_batch(&ts);
        let back = decode_batch(&frame).unwrap();
        assert_eq!(back, ts);
        // Empty batch is legal.
        assert_eq!(decode_batch(&encode_batch([])).unwrap(), vec![]);
    }

    #[test]
    fn batch_amortizes_per_message_overhead() {
        let ts = traces();
        let framed = encode_batch(&ts).len();
        let individual: usize = ts.iter().map(|t| encode(t).len() + 24).sum();
        assert!(
            framed < individual,
            "one frame ({framed}B) must beat {} per-message frames ({individual}B)",
            ts.len()
        );
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let ts = traces();
        let frame = encode_batch(&ts);
        for i in 0..frame.len() {
            let mut corrupt = frame.clone();
            corrupt[i] ^= 0x40;
            assert!(
                decode_batch(&corrupt).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let frame = encode_batch(&traces());
        for cut in 0..frame.len() {
            assert!(decode_batch(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn batch_with_absurd_count_is_rejected_without_allocation() {
        let mut frame = Vec::new();
        put_u32(&mut frame, BATCH_MAGIC);
        put_u32(&mut frame, u32::MAX); // count
        put_u64(&mut frame, 4); // payload length
        put_u32(&mut frame, 0); // payload
        let checksum = fnv1a_step(FNV_OFFSET, &frame[4..]);
        put_u64(&mut frame, checksum);
        assert_eq!(
            decode_batch(&frame),
            Err(WireError::Oversized {
                field: "batch count",
                len: u64::from(u32::MAX),
            })
        );
    }

    #[test]
    fn batch_with_huge_payload_length_is_truncation_not_oom() {
        let mut frame = Vec::new();
        put_u32(&mut frame, BATCH_MAGIC);
        put_u32(&mut frame, 1);
        put_u64(&mut frame, u64::MAX - 4); // absurd payload length
        assert!(matches!(
            decode_batch(&frame),
            Err(WireError::Truncated { .. }) | Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn payloads_program_id_classifies_without_decoding() {
        let classify = |f: &[u8]| -> Result<Option<ProgramId>, WireError> {
            payloads_program_id(&batch_payloads(f)?)
        };
        let ts = traces();
        // Homogeneous frame: classified by the shared id.
        let only_first = [ts[0].clone(), ts[0].clone()];
        assert_eq!(
            classify(&encode_batch(&only_first)).unwrap(),
            Some(ProgramId(1))
        );
        // Empty batch: well-formed but unclassifiable.
        assert_eq!(classify(&encode_batch([])).unwrap(), None);
        // Mixed programs in one frame: rejected, never split or misrouted.
        assert_eq!(
            classify(&encode_batch(&ts)),
            Err(WireError::BadTag {
                field: "frame program id",
                tag: 0,
            })
        );
        // Corruption is caught by the same validation decode_batch uses.
        let mut frame = encode_batch(&only_first);
        let mid = frame.len() / 2;
        frame[mid] ^= 0x10;
        assert!(classify(&frame).is_err());
        for cut in 0..frame.len() {
            assert!(classify(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn non_magic_frame_is_rejected() {
        assert_eq!(decode_batch(&[0u8; 24]), Err(WireError::BadMagic));
        assert_eq!(
            decode_batch(&[1, 2]),
            Err(WireError::Truncated {
                field: "batch magic"
            })
        );
    }

    proptest! {
        #[test]
        fn prop_roundtrip_random_bits(
            bits in proptest::collection::vec(any::<bool>(), 0..512),
            rets in proptest::collection::vec(any::<i64>(), 0..32),
            sched in proptest::collection::vec(0u32..16, 0..64),
            steps in any::<u64>(),
        ) {
            let t = ExecutionTrace {
                program: ProgramId(42),
                policy: RecordingPolicy::FullBranch,
                bits: bits.iter().copied().collect(),
                guard_bits: BitVec::new(),
                syscall_rets: rets,
                schedule: sched,
                steps,
                outcome: Outcome::Success,
                overlay_version: 0,
                lock_pairs: vec![],
                global_summaries: vec![],
            };
            prop_assert_eq!(decode(&encode(&t)).unwrap(), t);
        }

        #[test]
        fn prop_batch_frames_are_the_composed_encoding(
            picks in proptest::collection::vec(proptest::collection::vec(0u32..4, 0..96), 0..6),
            rets in proptest::collection::vec(any::<i64>(), 0..8),
            steps in any::<u64>(),
        ) {
            let mut ts = traces();
            ts.extend(picks.into_iter().map(|schedule| ExecutionTrace {
                program: ProgramId(7),
                policy: RecordingPolicy::FullBranch,
                bits: schedule.iter().map(|p| p % 2 == 0).collect(),
                guard_bits: schedule.iter().map(|p| *p == 3).collect(),
                syscall_rets: rets.clone(),
                schedule,
                steps,
                outcome: Outcome::Success,
                overlay_version: steps % 5,
                lock_pairs: vec![(1, 2)],
                global_summaries: vec![],
            }));
            for n in 0..=ts.len() {
                prop_assert_eq!(encode_batch(&ts[..n]), composed_batch(&ts[..n]));
            }
        }

        #[test]
        fn prop_random_garbage_never_panics(
            junk in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let _ = decode(&junk);
            let _ = decode_batch(&junk);
        }
    }
}
