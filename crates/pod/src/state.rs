//! Durable pod state: everything a pod carries *between* rounds,
//! serialized so a killed-and-resumed platform restores its population
//! mid-stream instead of rebuilding pods from derived seeds.
//!
//! Process-equivalence is the whole point: a resumed pod must produce
//! the exact RNG draws, retain the exact repair-lab corpus, and consume
//! the exact pending guidance directives that the uninterrupted process
//! would have — otherwise the campaign's history diverges silently
//! after the first restart. The record is therefore *complete* (RNG
//! position, overlay + version, directive queue, stats, failing and
//! passing cases) and *self-verifying*: a version byte up front and an
//! FNV-1a checksum over the whole envelope at the back, so storage
//! bit-rot is a typed [`PodStateError`], never a silently different
//! population.

use crate::{Pod, PodStats};
use rand::rngs::SmallRng;
use softborg_fix::TestCase;
use softborg_guidance::Directive;
use softborg_obs::{fnv1a_step, FNV_OFFSET};
use softborg_program::codec::{self, CodecError, Reader};
use softborg_program::interp::Outcome;
use softborg_program::sched::ScheduleHint;
use softborg_program::syscall::{EnvConfig, ForcedFault};
use softborg_program::{cfg::Loc, BranchSiteId, LockId, ThreadId};
use softborg_program::{interp::CrashKind, Overlay};

/// Current on-disk version of the [`PodState`] encoding.
pub const POD_STATE_VERSION: u8 = 1;

/// A complete, restorable image of one pod's mutable state.
#[derive(Debug, Clone, PartialEq)]
pub struct PodState {
    /// xoshiro256++ state words — the pod's RNG position mid-stream.
    pub rng: [u64; 4],
    /// Installed fix overlay.
    pub overlay: Overlay,
    /// Installed overlay version.
    pub overlay_version: u64,
    /// Pending guidance directives, in FIFO order.
    pub directives: Vec<Directive>,
    /// Execution counters.
    pub stats: PodStats,
    /// Locally retained failing cases with their outcomes.
    pub failing_cases: Vec<(TestCase, Outcome)>,
    /// Locally retained passing cases.
    pub passing_cases: Vec<TestCase>,
}

/// Why a [`PodState`] record failed to decode. Total: decoding never
/// panics on any input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodStateError {
    /// The record is shorter than its fixed envelope.
    Truncated,
    /// The version byte names an encoding this build cannot read.
    BadVersion(u8),
    /// The envelope checksum does not match the bytes.
    BadChecksum {
        /// Checksum stored in the record.
        expected: u64,
        /// Checksum computed over the bytes actually read.
        got: u64,
    },
    /// The (checksum-valid) body failed structural decoding.
    Codec(CodecError),
}

impl std::fmt::Display for PodStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PodStateError::Truncated => write!(f, "pod state record truncated"),
            PodStateError::BadVersion(v) => write!(f, "pod state record has unknown version {v}"),
            PodStateError::BadChecksum { expected, got } => write!(
                f,
                "pod state checksum mismatch: record says {expected:#018x}, bytes hash to {got:#018x}"
            ),
            PodStateError::Codec(e) => write!(f, "pod state body malformed: {e}"),
        }
    }
}

impl std::error::Error for PodStateError {}

impl From<CodecError> for PodStateError {
    fn from(e: CodecError) -> Self {
        PodStateError::Codec(e)
    }
}

fn put_env(buf: &mut Vec<u8>, env: &EnvConfig) {
    codec::put_u64(buf, env.seed);
    codec::put_u32(buf, env.short_read_per_mille);
    codec::put_u32(buf, env.open_fail_per_mille);
    codec::put_u32(buf, env.fd_limit);
    codec::put_u32(buf, env.forced.len() as u32);
    for f in &env.forced {
        codec::put_u64(buf, f.call_index);
        codec::put_i64(buf, f.ret);
    }
}

fn take_env(r: &mut Reader<'_>) -> Result<EnvConfig, CodecError> {
    let seed = r.u64("EnvConfig.seed")?;
    let short_read_per_mille = r.u32("EnvConfig.short_read")?;
    let open_fail_per_mille = r.u32("EnvConfig.open_fail")?;
    let fd_limit = r.u32("EnvConfig.fd_limit")?;
    let n = r.seq_len("EnvConfig.forced", 16)?;
    let mut forced = Vec::with_capacity(n);
    for _ in 0..n {
        forced.push(ForcedFault {
            call_index: r.u64("ForcedFault.call_index")?,
            ret: r.i64("ForcedFault.ret")?,
        });
    }
    Ok(EnvConfig {
        seed,
        short_read_per_mille,
        open_fail_per_mille,
        fd_limit,
        forced,
    })
}

fn put_case(buf: &mut Vec<u8>, case: &TestCase) {
    codec::put_u32(buf, case.inputs.len() as u32);
    for &v in &case.inputs {
        codec::put_i64(buf, v);
    }
    codec::put_u32(buf, case.schedule.len() as u32);
    for t in &case.schedule {
        codec::put_u32(buf, t.0);
    }
    put_env(buf, &case.env);
}

fn take_case(r: &mut Reader<'_>) -> Result<TestCase, CodecError> {
    let n = r.seq_len("TestCase.inputs", 8)?;
    let mut inputs = Vec::with_capacity(n);
    for _ in 0..n {
        inputs.push(r.i64("TestCase.input")?);
    }
    let n = r.seq_len("TestCase.schedule", 4)?;
    let mut schedule = Vec::with_capacity(n);
    for _ in 0..n {
        schedule.push(ThreadId::new(r.u32("TestCase.pick")?));
    }
    Ok(TestCase {
        inputs,
        schedule,
        env: take_env(r)?,
    })
}

fn put_outcome(buf: &mut Vec<u8>, outcome: &Outcome) {
    match outcome {
        Outcome::Success => codec::put_u8(buf, 0),
        Outcome::Crash { loc, kind } => {
            codec::put_u8(buf, 1);
            loc.encode_into(buf);
            kind.encode_into(buf);
        }
        Outcome::Deadlock { cycle } => {
            codec::put_u8(buf, 2);
            codec::put_u32(buf, cycle.len() as u32);
            for (t, l) in cycle {
                codec::put_u32(buf, t.0);
                codec::put_u32(buf, l.0);
            }
        }
        Outcome::Hang { stuck } => {
            codec::put_u8(buf, 3);
            codec::put_u32(buf, stuck.len() as u32);
            for loc in stuck {
                loc.encode_into(buf);
            }
        }
    }
}

fn take_outcome(r: &mut Reader<'_>) -> Result<Outcome, CodecError> {
    match r.u8("Outcome")? {
        0 => Ok(Outcome::Success),
        1 => Ok(Outcome::Crash {
            loc: Loc::decode(r)?,
            kind: CrashKind::decode(r)?,
        }),
        2 => {
            let n = r.seq_len("Outcome.cycle", 8)?;
            let mut cycle = Vec::with_capacity(n);
            for _ in 0..n {
                let t = ThreadId::new(r.u32("Outcome.cycle_thread")?);
                cycle.push((t, LockId::new(r.u32("Outcome.cycle_lock")?)));
            }
            Ok(Outcome::Deadlock { cycle })
        }
        3 => {
            let n = r.seq_len("Outcome.stuck", 12)?;
            let mut stuck = Vec::with_capacity(n);
            for _ in 0..n {
                stuck.push(Loc::decode(r)?);
            }
            Ok(Outcome::Hang { stuck })
        }
        tag => Err(CodecError::BadTag {
            what: "Outcome",
            tag,
        }),
    }
}

fn put_directive(buf: &mut Vec<u8>, d: &Directive) {
    match d {
        Directive::InputSeed { inputs, target } => {
            codec::put_u8(buf, 0);
            codec::put_u32(buf, inputs.len() as u32);
            for &v in inputs {
                codec::put_i64(buf, v);
            }
            codec::put_u32(buf, target.0 .0);
            codec::put_u8(buf, u8::from(target.1));
        }
        Directive::Schedule(hint) => {
            codec::put_u8(buf, 1);
            codec::put_u32(buf, hint.order.len() as u32);
            for t in &hint.order {
                codec::put_u32(buf, t.0);
            }
            codec::put_u32(buf, hint.bias_per_mille);
        }
        Directive::FaultInjection {
            forced,
            short_read_per_mille,
        } => {
            codec::put_u8(buf, 2);
            codec::put_u32(buf, forced.len() as u32);
            for f in forced {
                codec::put_u64(buf, f.call_index);
                codec::put_i64(buf, f.ret);
            }
            codec::put_u32(buf, *short_read_per_mille);
        }
    }
}

fn take_directive(r: &mut Reader<'_>) -> Result<Directive, CodecError> {
    match r.u8("Directive")? {
        0 => {
            let n = r.seq_len("Directive.inputs", 8)?;
            let mut inputs = Vec::with_capacity(n);
            for _ in 0..n {
                inputs.push(r.i64("Directive.input")?);
            }
            let site = BranchSiteId::new(r.u32("Directive.target_site")?);
            let arm = r.u8("Directive.target_arm")? != 0;
            Ok(Directive::InputSeed {
                inputs,
                target: (site, arm),
            })
        }
        1 => {
            let n = r.seq_len("Directive.order", 4)?;
            let mut order = Vec::with_capacity(n);
            for _ in 0..n {
                order.push(ThreadId::new(r.u32("Directive.order_thread")?));
            }
            Ok(Directive::Schedule(ScheduleHint {
                order,
                bias_per_mille: r.u32("Directive.bias")?,
            }))
        }
        2 => {
            let n = r.seq_len("Directive.forced", 16)?;
            let mut forced = Vec::with_capacity(n);
            for _ in 0..n {
                forced.push(ForcedFault {
                    call_index: r.u64("Directive.call_index")?,
                    ret: r.i64("Directive.ret")?,
                });
            }
            Ok(Directive::FaultInjection {
                forced,
                short_read_per_mille: r.u32("Directive.short_read")?,
            })
        }
        tag => Err(CodecError::BadTag {
            what: "Directive",
            tag,
        }),
    }
}

impl PodState {
    /// Serializes the state into its self-verifying envelope:
    /// `u8 version | body | u64 fnv1a(version + body)`.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::put_u8(&mut buf, POD_STATE_VERSION);
        for &word in &self.rng {
            codec::put_u64(&mut buf, word);
        }
        codec::put_u64(&mut buf, self.overlay_version);
        self.overlay.encode_into(&mut buf);
        codec::put_u32(&mut buf, self.directives.len() as u32);
        for d in &self.directives {
            put_directive(&mut buf, d);
        }
        codec::put_u64(&mut buf, self.stats.executions);
        codec::put_u64(&mut buf, self.stats.failures);
        codec::put_u64(&mut buf, self.stats.directed);
        codec::put_u64(&mut buf, self.stats.overlay_hits);
        codec::put_u32(&mut buf, self.failing_cases.len() as u32);
        for (case, outcome) in &self.failing_cases {
            put_case(&mut buf, case);
            put_outcome(&mut buf, outcome);
        }
        codec::put_u32(&mut buf, self.passing_cases.len() as u32);
        for case in &self.passing_cases {
            put_case(&mut buf, case);
        }
        let checksum = fnv1a_step(FNV_OFFSET, &buf);
        codec::put_u64(&mut buf, checksum);
        buf
    }

    /// Decodes and checksum-verifies an encoded state. Total function:
    /// truncated, bit-flipped, or trailing-garbage input returns a typed
    /// [`PodStateError`], never panics, and never yields a state that
    /// differs from the one encoded.
    ///
    /// # Errors
    ///
    /// See [`PodStateError`].
    pub fn decode(bytes: &[u8]) -> Result<Self, PodStateError> {
        if bytes.len() < 1 + 8 {
            return Err(PodStateError::Truncated);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let expected = u64::from_le_bytes(tail.try_into().expect("8-byte checksum tail"));
        let got = fnv1a_step(FNV_OFFSET, body);
        if expected != got {
            return Err(PodStateError::BadChecksum { expected, got });
        }
        let mut r = Reader::new(body);
        let version = r.u8("PodState.version")?;
        if version != POD_STATE_VERSION {
            return Err(PodStateError::BadVersion(version));
        }
        let mut rng = [0u64; 4];
        for word in &mut rng {
            *word = r.u64("PodState.rng")?;
        }
        let overlay_version = r.u64("PodState.overlay_version")?;
        let overlay = Overlay::decode(&mut r)?;
        let n = r.seq_len("PodState.directives", 1)?;
        let mut directives = Vec::with_capacity(n);
        for _ in 0..n {
            directives.push(take_directive(&mut r)?);
        }
        let stats = PodStats {
            executions: r.u64("PodState.executions")?,
            failures: r.u64("PodState.failures")?,
            directed: r.u64("PodState.directed")?,
            overlay_hits: r.u64("PodState.overlay_hits")?,
        };
        let n = r.seq_len("PodState.failing_cases", 1)?;
        let mut failing_cases = Vec::with_capacity(n);
        for _ in 0..n {
            let case = take_case(&mut r)?;
            failing_cases.push((case, take_outcome(&mut r)?));
        }
        let n = r.seq_len("PodState.passing_cases", 1)?;
        let mut passing_cases = Vec::with_capacity(n);
        for _ in 0..n {
            passing_cases.push(take_case(&mut r)?);
        }
        if !r.is_empty() {
            return Err(PodStateError::Codec(CodecError::BadLen {
                what: "PodState.trailing",
                len: r.remaining(),
            }));
        }
        Ok(PodState {
            rng,
            overlay,
            overlay_version,
            directives,
            stats,
            failing_cases,
            passing_cases,
        })
    }
}

impl<'p> Pod<'p> {
    /// Captures this pod's complete mutable state for the durable round
    /// commit.
    pub fn export_state(&self) -> PodState {
        PodState {
            rng: self.rng.state(),
            overlay: self.overlay.clone(),
            overlay_version: self.overlay_version,
            directives: self.directives.iter().cloned().collect(),
            stats: self.stats,
            failing_cases: self.failing_cases.clone(),
            passing_cases: self.passing_cases.clone(),
        }
    }

    /// Restores a state captured by [`export_state`](Self::export_state)
    /// — the resume path's process-equivalence step. After this, the pod
    /// produces the same RNG draws, validates against the same local
    /// corpus, and consumes the same pending directives as the pod that
    /// exported the state.
    pub fn restore_state(&mut self, state: PodState) {
        self.rng = SmallRng::from_state(state.rng);
        self.overlay = state.overlay;
        self.overlay_version = state.overlay_version;
        self.directives = state.directives.into();
        self.stats = state.stats;
        self.failing_cases = state.failing_cases;
        self.passing_cases = state.passing_cases;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PodConfig;
    use softborg_program::scenarios;

    #[test]
    fn export_restore_is_process_equivalent() {
        let s = scenarios::token_parser();
        let mk = || {
            Pod::new(
                &s.program,
                PodConfig {
                    input_range: (0, 99),
                    seed: 41,
                    ..PodConfig::default()
                },
            )
        };
        let mut reference = mk();
        let mut victim = mk();
        for _ in 0..5 {
            reference.run_once();
            victim.run_once();
        }
        // Kill the victim; restore a fresh pod from its exported state.
        let image = victim.export_state();
        let bytes = image.encode();
        let decoded = PodState::decode(&bytes).expect("roundtrip");
        assert_eq!(decoded, image);
        let mut resumed = mk();
        resumed.restore_state(decoded);
        for _ in 0..5 {
            let a = reference.run_once();
            let b = resumed.run_once();
            assert_eq!(a.trace, b.trace, "resumed pod diverged");
        }
        assert_eq!(reference.stats(), resumed.stats());
        assert_eq!(reference.failing_cases(), resumed.failing_cases());
        assert_eq!(reference.passing_cases(), resumed.passing_cases());
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let s = scenarios::token_parser();
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: (0, 99),
                seed: 7,
                ..PodConfig::default()
            },
        );
        for _ in 0..4 {
            pod.run_once();
        }
        let bytes = pod.export_state().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(PodState::decode(&bad).is_err(), "flip at byte {i}");
        }
        for cut in 0..bytes.len() {
            assert!(PodState::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn directive_queue_survives_the_roundtrip_in_order() {
        let s = scenarios::token_parser();
        let mut pod = Pod::new(&s.program, PodConfig::default());
        pod.receive_guidance([
            Directive::InputSeed {
                inputs: vec![1, 2, 3],
                target: (BranchSiteId::new(4), true),
            },
            Directive::Schedule(ScheduleHint {
                order: vec![ThreadId::new(1), ThreadId::new(0)],
                bias_per_mille: 700,
            }),
            Directive::FaultInjection {
                forced: vec![ForcedFault {
                    call_index: 9,
                    ret: -1,
                }],
                short_read_per_mille: 250,
            },
        ]);
        let image = pod.export_state();
        let back = PodState::decode(&image.encode()).expect("roundtrip");
        assert_eq!(back.directives.len(), 3);
        assert_eq!(back, image);
    }
}
