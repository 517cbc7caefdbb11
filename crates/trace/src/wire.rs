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
//! * **Batch frames** ([`encode_batch`] / [`decode_batch`]): a batch of
//!   executions behind one magic + count + length header and a trailing
//!   checksum ([`softborg_obs::checksum`]). A frame carries each distinct trace payload once,
//!   in first-seen order, then one LEB128 index per execution naming its
//!   payload: a population re-runs the same paths, so most of a pod's
//!   batch repeats a payload it already holds. Batching amortizes
//!   per-message overhead on the pod→hive path and gives the ingest
//!   pipeline a unit of work; the checksum lets the hive count and skip
//!   corrupted frames instead of ingesting garbage.

use crate::bitvec::BitVec;
use crate::record::{ExecutionTrace, RecordingPolicy};
use softborg_obs::checksum;
use softborg_program::codec::{self, CodecError, Reader};
use softborg_program::interp::Outcome;
use softborg_program::ProgramId;
use std::fmt;

/// Hard cap on a decoded schedule's expanded length (picks). Matches the
/// longest schedule any in-tree workload can record, with slack.
const MAX_SCHEDULE: usize = 16_000_000;
/// Hard cap on executions per batch frame.
const MAX_BATCH: u32 = 1_000_000;
/// Batch frame magic: `"SBF3"` little-endian.
const BATCH_MAGIC: u32 = u32::from_le_bytes(*b"SBF3");
/// The magics of the older batch frame layouts, each with what set it
/// apart: refused as [`WireError::OlderLayout`], never decoded.
const OLDER_BATCH_MAGICS: [(u32, &str); 2] = [
    (u32::from_le_bytes(*b"SBF1"), "one-payload-per-execution"),
    (u32::from_le_bytes(*b"SBF2"), "FNV-1a-checksummed"),
];
/// Bytes before a batch frame's payload: magic, execution count,
/// distinct count, payload length.
const BATCH_HEADER: usize = 20;

/// A malformed wire payload or batch frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A field was truncated, carried an unknown tag, or claimed more
    /// elements than the remaining input could hold (or a structural
    /// cap allows).
    Codec(CodecError),
    /// A batch frame did not start with this layout's magic.
    BadMagic,
    /// A batch frame in an older layout (one payload per execution, or
    /// an FNV-1a checksum): this build reads only its own.
    OlderLayout,
    /// A batch frame's execution indices do not name its distinct
    /// payloads in first-seen order, each at least once.
    BadIndex {
        /// What is wrong: `"overlong"` (not minimal LEB128, or past
        /// `u32`), `"out of range"` (no such payload), `"out of order"`
        /// (names a payload before an earlier unnamed one) or
        /// `"unnamed payload"` (no execution names it).
        why: &'static str,
        /// The execution whose index is wrong; for an unnamed payload,
        /// the payload's index.
        at: u64,
    },
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
            WireError::Codec(e) => write!(f, "{e}"),
            WireError::BadMagic => write!(f, "batch frame missing its magic"),
            WireError::OlderLayout => write!(f, "batch frame in an older layout"),
            WireError::BadIndex { why, at } => write!(f, "batch index {why} at {at}"),
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

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
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
    codec::put_u64(b, t.program.0);
    match t.policy {
        RecordingPolicy::OutcomeOnly => b.push(0),
        RecordingPolicy::FullBranch => b.push(1),
        RecordingPolicy::InputDependent => b.push(2),
        RecordingPolicy::Sampled { period, phase } => {
            b.push(3);
            codec::put_u32(b, period);
            codec::put_u32(b, phase);
        }
    }
    put_bits(b, &t.bits);
    put_bits(b, &t.guard_bits);
    codec::put_u32(b, t.syscall_rets.len() as u32);
    for r in &t.syscall_rets {
        codec::put_i64(b, *r);
    }
    // Schedules are long and runny (round-robin stretches, spin loops):
    // run-length encode them. Worst case (alternating picks) costs 2x the
    // raw u16 stream; typical concurrent traces compress 3-20x.
    let at = b.len();
    codec::put_u32(b, 0); // the run count, patched below
    let mut runs = 0u32;
    for run in t.schedule.chunk_by(|x, y| x == y) {
        codec::put_u16(b, run[0] as u16);
        codec::put_u32(b, run.len() as u32);
        runs += 1;
    }
    b[at..at + 4].copy_from_slice(&runs.to_le_bytes());
    codec::put_u64(b, t.steps);
    t.outcome.encode_into(b);
    codec::put_u64(b, t.overlay_version);
    codec::put_u32(b, t.lock_pairs.len() as u32);
    for (a, c) in &t.lock_pairs {
        codec::put_u32(b, *a);
        codec::put_u32(b, *c);
    }
    codec::put_u32(b, t.global_summaries.len() as u32);
    for g in &t.global_summaries {
        codec::put_u32(b, g.global);
        codec::put_u32(b, g.reader_mask);
        codec::put_u32(b, g.writer_mask);
        codec::put_u32(b, g.lockset.len() as u32);
        for l in &g.lockset {
            codec::put_u32(b, *l);
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
            return Err(CodecError::BadTag {
                what: "policy",
                tag,
            }
            .into())
        }
    };
    let bits = take_bits(b, "branch bits")?;
    let guard_bits = take_bits(b, "guard bits")?;
    let n_rets = b.seq_len("syscall return count", 8)?;
    let mut syscall_rets = Vec::with_capacity(n_rets);
    for _ in 0..n_rets {
        syscall_rets.push(b.i64("syscall return")?);
    }
    let n_runs = b.seq_len("schedule run count", 6)?;
    let mut schedule = Vec::new();
    for _ in 0..n_runs {
        let value = u32::from(b.u16("schedule run value")?);
        let count = b.u32("schedule run length")? as usize;
        if count > MAX_SCHEDULE || schedule.len() + count > MAX_SCHEDULE {
            return Err(CodecError::BadLen {
                what: "schedule run length",
                len: count,
            }
            .into());
        }
        schedule.extend(std::iter::repeat_n(value, count));
    }
    let steps = b.u64("step count")?;
    let outcome = Outcome::decode(b)?;
    let overlay_version = b.u64("overlay version")?;
    let n_pairs = b.seq_len("lock pair count", 8)?;
    let mut lock_pairs = Vec::with_capacity(n_pairs);
    for _ in 0..n_pairs {
        lock_pairs.push((b.u32("lock pair")?, b.u32("lock pair")?));
    }
    // Each summary is at least 16 bytes on the wire.
    let n_globals = b.seq_len("global summary count", 16)?;
    let mut global_summaries = Vec::with_capacity(n_globals);
    for _ in 0..n_globals {
        let global = b.u32("global index")?;
        let reader_mask = b.u32("reader mask")?;
        let writer_mask = b.u32("writer mask")?;
        let n_locks = b.seq_len("lockset count", 4)?;
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

/// Encodes many traces into one checksummed batch frame, each distinct
/// payload once.
///
/// Layout: `SBF3` magic (u32), execution count (u32), distinct count
/// (u32), payload length (u64), payload, [`checksum`] of the counts,
/// the length and the payload (u64, trailing). The payload is
/// every distinct trace payload in first-seen order, each behind its
/// length (u32), then one minimal LEB128 index per execution, in
/// execution order, naming its payload. An execution's payload is the
/// exact bytes [`encode`] makes of it, and equal traces encode equally,
/// so the frame is a function of the batch: one encoding per batch.
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
    let (n, hint) = (traces.clone()).fold((0, 0), |(n, hint), t| (n + 1, hint + 5 + size_hint(t)));
    // Each payload is written straight into the frame behind a length
    // slot, and taken back out when it repeats an earlier one; the
    // counts and payload length are patched in once known.
    let mut frame = Vec::with_capacity(BATCH_HEADER + 8 + hint);
    codec::put_u32(&mut frame, BATCH_MAGIC);
    codec::put_u32(&mut frame, 0);
    codec::put_u32(&mut frame, 0);
    codec::put_u64(&mut frame, 0);
    // Per distinct payload: its hash and where its bytes sit in `frame`.
    let mut distinct: Vec<(u64, usize, usize)> = Vec::with_capacity(n);
    // `distinct` by hash, open-addressed and at most half full: a slot
    // holds a payload's index + 1, or 0 when empty.
    let mut table = vec![0u32; (2 * n).next_power_of_two().max(2)];
    let mut indices: Vec<u32> = Vec::with_capacity(n);
    for t in traces {
        assert!(
            indices.len() < MAX_BATCH as usize,
            "batch frame over {MAX_BATCH} traces"
        );
        if 2 * distinct.len() >= table.len() {
            table = index_by_hash(&distinct, 2 * table.len());
        }
        let at = frame.len();
        codec::put_u32(&mut frame, 0);
        encode_into(&mut frame, t);
        let bytes = &frame[at + 4..];
        let hash = checksum(bytes);
        // Equal hashes are confirmed byte for byte.
        let mut slot = hash as usize & (table.len() - 1);
        let earlier = loop {
            let Some(i) = table[slot].checked_sub(1) else {
                break None;
            };
            let (h, start, len) = distinct[i as usize];
            if h == hash && frame[start..start + len] == *bytes {
                break Some(i);
            }
            slot = (slot + 1) & (table.len() - 1);
        };
        if let Some(i) = earlier {
            frame.truncate(at);
            indices.push(i);
        } else {
            let len = bytes.len();
            frame[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
            let next = distinct.len() as u32;
            table[slot] = next + 1;
            distinct.push((hash, at + 4, len));
            indices.push(next);
        }
    }
    for &i in &indices {
        codec::put_leb128(&mut frame, i);
    }
    let payload_len = (frame.len() - BATCH_HEADER) as u64;
    frame[4..8].copy_from_slice(&(indices.len() as u32).to_le_bytes());
    frame[8..12].copy_from_slice(&(distinct.len() as u32).to_le_bytes());
    frame[12..20].copy_from_slice(&payload_len.to_le_bytes());
    let sum = checksum(&frame[4..]);
    codec::put_u64(&mut frame, sum);
    frame
}

/// A table of `slots` (a power of two) placing each of `distinct` by
/// its hash, as `encode_batch` keeps one.
fn index_by_hash(distinct: &[(u64, usize, usize)], slots: usize) -> Vec<u32> {
    let mut table = vec![0u32; slots];
    for (i, &(hash, ..)) in distinct.iter().enumerate() {
        let mut slot = hash as usize & (slots - 1);
        while table[slot] != 0 {
            slot = (slot + 1) & (slots - 1);
        }
        table[slot] = i as u32 + 1;
    }
    table
}

/// Decodes a batch frame produced by [`encode_batch`], verifying the
/// magic, structural lengths, checksum and indices before touching any
/// payload, and decoding each distinct payload once.
///
/// # Errors
///
/// Returns [`WireError`] when the frame is corrupt in any way; a failed
/// frame never panics and never yields partial traces.
pub fn decode_batch(data: &[u8]) -> Result<Vec<ExecutionTrace>, WireError> {
    let batch = read_batch(data)?;
    let mut payloads = batch.payloads();
    let mut out: Vec<ExecutionTrace> = Vec::with_capacity(batch.len());
    // Where each distinct payload's trace first went in `out`.
    let mut first_at = Vec::with_capacity(batch.distinct());
    for i in batch.indices() {
        if i == first_at.len() {
            let p = payloads.next().ok_or(CodecError::Truncated {
                what: "trace payload",
            })?;
            first_at.push(out.len());
            out.push(decode(p)?);
        } else {
            out.push(out[first_at[i]].clone());
        }
    }
    Ok(out)
}

/// What sets the older batch layout `data` opens with apart, when its
/// magic is one [`read_batch`] refuses as [`WireError::OlderLayout`]: a
/// one-field peek, for refusing a store of such frames before reading
/// any.
pub fn older_layout(data: &[u8]) -> Option<&'static str> {
    let magic = data.get(..4)?;
    (OLDER_BATCH_MAGICS.iter())
        .find(|(m, _)| m.to_le_bytes() == magic)
        .map(|&(_, what)| what)
}

/// A batch frame [`read_batch`] validated, read in place: its distinct
/// payloads and its executions' indices, without decoding a trace.
#[derive(Debug, Clone, Copy)]
pub struct BatchView<'a> {
    count: u32,
    distinct: u32,
    /// The distinct payloads, each behind its length.
    payloads: &'a [u8],
    /// One LEB128 index per execution.
    indices: &'a [u8],
}

impl<'a> BatchView<'a> {
    /// Executions in the frame.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// `true` for a frame of no executions.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Distinct trace payloads in the frame.
    pub fn distinct(&self) -> usize {
        self.distinct as usize
    }

    /// Each distinct payload, in first-seen order: the exact bytes
    /// [`encode`] made of a trace, so equal slices decode (and
    /// reconstruct) identically — which is what lets a decode worker key
    /// a memoization cache on the raw bytes and recycle prior work.
    pub fn payloads(&self) -> impl Iterator<Item = &'a [u8]> + 'a {
        let mut r = Reader::new(self.payloads);
        (0..self.distinct).map_while(move |_| take_payload(&mut r).ok())
    }

    /// Per execution, in execution order, the index of its payload in
    /// [`payloads`](Self::payloads). The first execution to name a
    /// payload names the next one not named yet.
    pub fn indices(&self) -> impl Iterator<Item = usize> + 'a {
        let mut r = Reader::new(self.indices);
        (0..self.count)
            .map_while(move |_| r.leb128("batch index").ok().flatten().map(|i| i as usize))
    }

    /// Classifies the frame by the [`ProgramId`] its traces carry,
    /// without decoding any of them — the routing primitive of the
    /// ingest pipeline: every trace opens with its program id (the first
    /// eight bytes of [`encode`]), so a router can dispatch a whole frame
    /// to the owning shard by peeking one field per distinct payload,
    /// and goes on to decode the same slices, checking the frame once.
    ///
    /// Returns `Ok(None)` for an empty (but well-formed) batch. A frame
    /// whose traces carry *different* program ids is structurally
    /// invalid for routing and is reported as a [`CodecError::BadTag`] on
    /// the `"frame program id"` field — a pod never mixes programs in
    /// one frame, so a mixed frame is corruption or a confused sender,
    /// and the router must treat it like any other bad frame rather than
    /// splitting or misrouting it.
    ///
    /// # Errors
    ///
    /// A payload too short to hold a program id, and payloads carrying
    /// different program ids.
    pub fn program_id(&self) -> Result<Option<ProgramId>, WireError> {
        let mut id: Option<ProgramId> = None;
        for p in self.payloads() {
            let this = ProgramId(Reader::new(p).u64("frame program id")?);
            match id {
                None => id = Some(this),
                Some(prev) if prev != this => {
                    return Err(CodecError::BadTag {
                        what: "frame program id",
                        tag: 0,
                    }
                    .into());
                }
                Some(_) => {}
            }
        }
        Ok(id)
    }
}

fn take_payload<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], CodecError> {
    let len = r.seq_len("trace length", 1)?;
    r.take(len, "trace payload")
}

/// Validates a batch frame — magic, structural lengths, checksum,
/// payload framing and indices — and returns it read in place, **without
/// decoding a trace** and without allocating: the zero-copy entry point
/// for pipelined ingest.
///
/// The indices must name the distinct payloads in first-seen order,
/// each at least once, in minimal LEB128: any frame [`encode_batch`]
/// did not make of some batch is refused, so the memo keys and the
/// journal's frame hashes see one encoding per batch.
///
/// # Errors
///
/// Same contract as [`decode_batch`] minus per-trace decoding: any
/// truncation, oversized length or count, bad magic (or the older
/// layout's, [`WireError::OlderLayout`]), checksum mismatch, bad index
/// or trailing bytes in the *frame* is reported without panicking and
/// without attacker-controlled allocation.
pub fn read_batch(data: &[u8]) -> Result<BatchView<'_>, WireError> {
    let mut r = Reader::new(data);
    match r.u32("batch magic")? {
        BATCH_MAGIC => {}
        magic if older_layout(&magic.to_le_bytes()).is_some() => {
            return Err(WireError::OlderLayout)
        }
        _ => return Err(WireError::BadMagic),
    }
    let count = r.u32("batch count")?;
    let oversized = |what, len: u64| CodecError::BadLen {
        what,
        len: len as usize,
    };
    if count > MAX_BATCH {
        return Err(oversized("batch count", count.into()).into());
    }
    let distinct = r.u32("batch distinct count")?;
    if distinct > count {
        return Err(oversized("batch distinct count", distinct.into()).into());
    }
    let payload_len = r.u64("batch payload length")?;
    // The frame must contain exactly payload + trailing checksum.
    let expected_remaining = payload_len
        .checked_add(8)
        .ok_or(oversized("batch payload length", payload_len))?;
    if (r.remaining() as u64) < expected_remaining {
        return Err(CodecError::Truncated {
            what: "batch payload",
        }
        .into());
    }
    if (r.remaining() as u64) > expected_remaining {
        return Err(WireError::TrailingBytes {
            len: (r.remaining() as u64 - expected_remaining) as usize,
        });
    }
    let payload = r.take(payload_len as usize, "batch payload")?;
    let expected = r.u64("batch checksum")?;
    let got = checksum(&data[4..data.len() - 8]);
    if got != expected {
        return Err(WireError::ChecksumMismatch { expected, got });
    }
    let mut pr = Reader::new(payload);
    pr.claim(distinct, 4, "batch distinct count")?;
    for _ in 0..distinct {
        take_payload(&mut pr)?;
    }
    let payloads = &payload[..pr.position()];
    pr.claim(count, 1, "batch count")?;
    let indices_at = pr.position();
    // The next payload no execution has named yet.
    let mut fresh = 0u32;
    for at in 0..u64::from(count) {
        let bad = |why| WireError::BadIndex { why, at };
        let i = pr.leb128("batch index")?.ok_or(bad("overlong"))?;
        if i >= distinct {
            return Err(bad("out of range"));
        }
        if i > fresh {
            return Err(bad("out of order"));
        }
        fresh += u32::from(i == fresh);
    }
    if fresh < distinct {
        return Err(WireError::BadIndex {
            why: "unnamed payload",
            at: u64::from(fresh),
        });
    }
    if pr.remaining() > 0 {
        return Err(WireError::TrailingBytes {
            len: pr.remaining(),
        });
    }
    Ok(BatchView {
        count,
        distinct,
        payloads,
        indices: &payload[indices_at..],
    })
}

fn put_bits(b: &mut Vec<u8>, bits: &BitVec) {
    codec::put_u32(b, bits.len() as u32);
    b.extend_from_slice(bits.as_bytes());
}

fn take_bits(b: &mut Reader<'_>, what: &'static str) -> Result<BitVec, CodecError> {
    let len = b.u32(what)? as usize;
    let n_bytes = len.div_ceil(8);
    if n_bytes > b.remaining() {
        return Err(CodecError::BadLen { what, len });
    }
    let bytes = b.take(n_bytes, what)?;
    BitVec::from_bytes(bytes, len).ok_or(CodecError::Truncated { what })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use softborg_program::cfg::Loc;
    use softborg_program::codec::{put_leb128, put_u16, put_u32, put_u64};
    use softborg_program::interp::CrashKind;
    use softborg_program::{BlockId, LockId, ThreadId};

    /// A batch frame as `encode` plus the layout make it, each distinct
    /// payload found by comparing encodings: the reference `encode_batch`
    /// must match byte for byte.
    fn composed_batch(ts: &[ExecutionTrace]) -> Vec<u8> {
        let mut distinct: Vec<Vec<u8>> = Vec::new();
        let mut indices = Vec::new();
        for t in ts {
            let enc = encode(t);
            let i = match distinct.iter().position(|d| *d == enc) {
                Some(i) => i,
                None => {
                    distinct.push(enc);
                    distinct.len() - 1
                }
            };
            indices.push(i as u32);
        }
        let mut payload = Vec::new();
        for d in &distinct {
            put_u32(&mut payload, d.len() as u32);
            payload.extend_from_slice(d);
        }
        for i in indices {
            put_leb128(&mut payload, i);
        }
        sealed(ts.len() as u32, distinct.len() as u32, &payload)
    }

    /// Yields a batch, but a clone of it yields nothing, so the encoder
    /// sizes its buffers for no trace and must grow them.
    struct Undercounted<'a>(std::slice::Iter<'a, ExecutionTrace>);

    impl Clone for Undercounted<'_> {
        fn clone(&self) -> Self {
            Undercounted([].iter())
        }
    }

    impl<'a> Iterator for Undercounted<'a> {
        type Item = &'a ExecutionTrace;

        fn next(&mut self) -> Option<Self::Item> {
            self.0.next()
        }
    }

    /// A frame around `payload` with the given counts and a valid
    /// checksum.
    fn sealed(count: u32, distinct: u32, payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        put_u32(&mut frame, BATCH_MAGIC);
        put_u32(&mut frame, count);
        put_u32(&mut frame, distinct);
        put_u64(&mut frame, payload.len() as u64);
        frame.extend_from_slice(payload);
        let sum = checksum(&frame[4..]);
        put_u64(&mut frame, sum);
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
            Err(WireError::Codec(CodecError::BadLen {
                what: "syscall return count",
                len: u32::MAX as usize,
            }))
        );
    }

    #[test]
    fn garbage_tag_errors() {
        let mut b = Vec::new();
        put_u64(&mut b, 1);
        b.push(77); // bad policy tag
        assert_eq!(
            decode(&b),
            Err(WireError::Codec(CodecError::BadTag {
                what: "policy",
                tag: 77
            }))
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
    fn batch_carries_each_distinct_payload_once() {
        let ts = traces();
        let batch: Vec<ExecutionTrace> = [0, 1, 0, 0, 2, 1, 3, 3]
            .iter()
            .map(|&i| ts[i].clone())
            .collect();
        let frame = encode_batch(&batch);
        let view = read_batch(&frame).unwrap();
        assert_eq!((view.len(), view.distinct()), (8, 4));
        assert_eq!(
            view.indices().collect::<Vec<_>>(),
            vec![0, 1, 0, 0, 2, 1, 3, 3]
        );
        let payloads: Vec<&[u8]> = view.payloads().collect();
        let encoded: Vec<Vec<u8>> = ts.iter().map(encode).collect();
        assert_eq!(payloads, encoded.iter().map(|e| &e[..]).collect::<Vec<_>>());
        assert_eq!(decode_batch(&frame).unwrap(), batch);
        // The repeats cost one index byte each.
        assert_eq!(frame.len(), encode_batch(&ts).len() + 4);
    }

    /// A frame of two distinct one-byte payloads, then `indices`.
    fn two_payload_frame(count: u32, distinct: u32, indices: &[u8]) -> Vec<u8> {
        let mut payload = Vec::new();
        for byte in [7u8, 9] {
            put_u32(&mut payload, 1);
            payload.push(byte);
        }
        payload.extend_from_slice(indices);
        sealed(count, distinct, &payload)
    }

    #[test]
    fn batch_index_faults_are_typed_errors() {
        let bad = |why, at| Err(WireError::BadIndex { why, at });
        let cases: [(&str, Vec<u8>, Result<(), WireError>); 9] = [
            ("well formed", two_payload_frame(3, 2, &[0, 1, 0]), Ok(())),
            (
                "distinct count above execution count",
                two_payload_frame(1, 2, &[0]),
                Err(WireError::Codec(CodecError::BadLen {
                    what: "batch distinct count",
                    len: 2,
                })),
            ),
            (
                "index past the payloads",
                two_payload_frame(3, 2, &[0, 1, 2]),
                bad("out of range", 2),
            ),
            (
                "redundant zero group",
                two_payload_frame(2, 2, &[0, 0x81, 0x00]),
                bad("overlong", 1),
            ),
            (
                "sixth group",
                two_payload_frame(2, 2, &[0, 0x81, 0x80, 0x80, 0x80, 0x80, 0]),
                bad("overlong", 1),
            ),
            (
                "past u32",
                two_payload_frame(2, 2, &[0, 0xff, 0xff, 0xff, 0xff, 0x1f]),
                bad("overlong", 1),
            ),
            (
                "truncated index",
                two_payload_frame(2, 2, &[0, 0x81]),
                Err(WireError::Codec(CodecError::Truncated {
                    what: "batch index",
                })),
            ),
            (
                "a payload no index names",
                two_payload_frame(2, 2, &[0, 0]),
                bad("unnamed payload", 1),
            ),
            (
                "a payload first named out of order",
                two_payload_frame(2, 2, &[1, 0]),
                bad("out of order", 0),
            ),
        ];
        for (what, frame, want) in cases {
            assert_eq!(read_batch(&frame).map(|_| ()), want, "{what}");
            assert!(want.is_ok() || decode_batch(&frame).is_err(), "{what}");
        }
        // Every minimal LEB128 value reads back.
        for v in [0, 1, 127, 128, 16_383, 16_384, u32::MAX] {
            let mut b = Vec::new();
            put_leb128(&mut b, v);
            let mut r = Reader::new(&b);
            assert_eq!(r.leb128("v"), Ok(Some(v)));
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn older_layout_frames_are_refused_by_name() {
        for (magic, what) in OLDER_BATCH_MAGICS {
            let mut frame = encode_batch(&traces());
            frame[..4].copy_from_slice(&magic.to_le_bytes());
            assert_eq!(read_batch(&frame).map(|_| ()), Err(WireError::OlderLayout));
            assert_eq!(decode_batch(&frame), Err(WireError::OlderLayout));
            assert_eq!(older_layout(&frame), Some(what));
        }
        assert_eq!(older_layout(&encode_batch(&traces())), None);
    }

    #[test]
    fn batch_with_absurd_count_is_rejected_without_allocation() {
        // A count past the cap, and one the indices cannot hold.
        for (count, what) in [(u32::MAX, "batch count"), (MAX_BATCH, "batch count")] {
            assert_eq!(
                decode_batch(&sealed(count, 0, &[0; 4])),
                Err(WireError::Codec(CodecError::BadLen {
                    what,
                    len: count as usize,
                }))
            );
        }
        assert_eq!(
            decode_batch(&sealed(MAX_BATCH, MAX_BATCH, &[0; 4])),
            Err(WireError::Codec(CodecError::BadLen {
                what: "batch distinct count",
                len: MAX_BATCH as usize,
            }))
        );
    }

    #[test]
    fn batch_with_huge_payload_length_is_truncation_not_oom() {
        let mut frame = Vec::new();
        put_u32(&mut frame, BATCH_MAGIC);
        put_u32(&mut frame, 1);
        put_u32(&mut frame, 1);
        put_u64(&mut frame, u64::MAX - 4); // absurd payload length
        assert!(matches!(
            decode_batch(&frame),
            Err(WireError::Codec(
                CodecError::Truncated { .. } | CodecError::BadLen { .. }
            ))
        ));
    }

    #[test]
    fn program_id_classifies_without_decoding() {
        let classify =
            |f: &[u8]| -> Result<Option<ProgramId>, WireError> { read_batch(f)?.program_id() };
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
            Err(WireError::Codec(CodecError::BadTag {
                what: "frame program id",
                tag: 0,
            }))
        );
        // A payload too short to name its program.
        assert_eq!(
            classify(&two_payload_frame(2, 2, &[0, 1])),
            Err(WireError::Codec(CodecError::Truncated {
                what: "frame program id",
            }))
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
        assert_eq!(decode_batch(&[0u8; 28]), Err(WireError::BadMagic));
        assert_eq!(
            decode_batch(&[1, 2]),
            Err(WireError::Codec(CodecError::Truncated {
                what: "batch magic"
            }))
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

        /// Batches drawn with repeats: each execution is one of a few
        /// traces, so most frames name some payload more than once.
        #[test]
        fn prop_batch_frames_are_the_composed_encoding(
            picks in proptest::collection::vec(proptest::collection::vec(0u32..4, 0..96), 0..6),
            rets in proptest::collection::vec(any::<i64>(), 0..8),
            steps in any::<u64>(),
            order in proptest::collection::vec(0usize..10, 0..24),
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
            let batch: Vec<ExecutionTrace> = order.iter().map(|&i| ts[i % ts.len()].clone()).collect();
            for n in 0..=batch.len() {
                let frame = encode_batch(&batch[..n]);
                prop_assert_eq!(&frame, &composed_batch(&batch[..n]));
                prop_assert_eq!(&encode_batch(Undercounted(batch[..n].iter())), &frame);
                prop_assert_eq!(decode_batch(&frame).unwrap(), &batch[..n]);
            }
        }

        /// Random bodies behind a valid header and checksum reach the
        /// payload and index checks.
        #[test]
        fn prop_sealed_garbage_never_panics(
            count in 0u32..64,
            distinct in 0u32..64,
            body in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let frame = sealed(count, distinct, &body);
            if let Ok(view) = read_batch(&frame) {
                prop_assert_eq!(view.indices().count(), view.len());
                prop_assert_eq!(view.payloads().count(), view.distinct());
            }
            let _ = decode_batch(&frame);
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
