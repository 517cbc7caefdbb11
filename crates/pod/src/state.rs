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
//! passing cases) and *versioned*: a version byte up front. It carries
//! no checksum of its own: it is stored only inside a checksummed
//! record (a `REC_PODS` journal record, or a checkpoint's chain record),
//! whose checksum turns storage bit-rot into a typed error before a pod
//! record is decoded. Decoding is still total: any bytes give a state
//! or a typed [`PodStateError`].
//!
//! Between checkpoints a pod is journaled as a [`PodDelta`] against the
//! image in its shard's newest checkpoint: the RNG position, counters,
//! queue and overlay version, plus only the cases appended since. A pod
//! keeps its first few cases and never changes them, so a delta stays a
//! few hundred bytes while the image carries the whole corpus.

use crate::{Pod, PodStats};
use rand::rngs::SmallRng;
use softborg_fix::TestCase;
use softborg_guidance::Directive;
use softborg_program::codec::{self, CodecError, Reader};
use softborg_program::interp::Outcome;
use softborg_program::sched::ScheduleHint;
use softborg_program::syscall::{EnvConfig, ForcedFault};
use softborg_program::{BranchSiteId, Overlay, ThreadId};

/// Current on-disk version of the [`PodState`] encoding. Versions below
/// it are the older layouts, which carried an FNV-1a checksum at the
/// back: [`PodStateError::OlderLayout`].
pub const POD_STATE_VERSION: u8 = 3;

/// Current on-disk version of the [`PodDelta`] encoding. It follows
/// [`POD_STATE_VERSION`] so the two records never share a first byte:
/// an image handed to the delta decoder is a typed
/// [`PodStateError::BadVersion`].
pub const POD_DELTA_VERSION: u8 = 4;

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
    /// The version byte names an encoding this build cannot read.
    BadVersion(u8),
    /// The version byte names an older, FNV-1a-checksummed layout.
    OlderLayout(u8),
    /// The body failed structural decoding.
    Codec(CodecError),
    /// A [`PodDelta`] does not fit the image it was applied to.
    BaseMismatch {
        /// The field that does not fit.
        what: &'static str,
        /// What the delta needs of the base.
        delta: u64,
        /// What the base holds.
        base: u64,
    },
}

impl std::fmt::Display for PodStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PodStateError::BadVersion(v) => write!(f, "pod state record has unknown version {v}"),
            PodStateError::OlderLayout(v) => {
                write!(f, "pod state record in the older layout of version {v}")
            }
            PodStateError::Codec(e) => write!(f, "pod state body malformed: {e}"),
            PodStateError::BaseMismatch { what, delta, base } => write!(
                f,
                "pod delta needs {what} {delta} of its base image, which has {base}"
            ),
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

fn put_directives<'a>(buf: &mut Vec<u8>, directives: impl ExactSizeIterator<Item = &'a Directive>) {
    codec::put_u32(buf, directives.len() as u32);
    for d in directives {
        put_directive(buf, d);
    }
}

fn put_stats(buf: &mut Vec<u8>, stats: &PodStats) {
    codec::put_u64(buf, stats.executions);
    codec::put_u64(buf, stats.failures);
    codec::put_u64(buf, stats.directed);
    codec::put_u64(buf, stats.overlay_hits);
}

fn take_stats(r: &mut Reader<'_>) -> Result<PodStats, CodecError> {
    Ok(PodStats {
        executions: r.u64("PodState.executions")?,
        failures: r.u64("PodState.failures")?,
        directed: r.u64("PodState.directed")?,
        overlay_hits: r.u64("PodState.overlay_hits")?,
    })
}

fn put_failing(buf: &mut Vec<u8>, cases: &[(TestCase, Outcome)]) {
    codec::put_u32(buf, cases.len() as u32);
    for (case, outcome) in cases {
        put_case(buf, case);
        outcome.encode_into(buf);
    }
}

fn put_passing(buf: &mut Vec<u8>, cases: &[TestCase]) {
    codec::put_u32(buf, cases.len() as u32);
    for case in cases {
        put_case(buf, case);
    }
}

/// Checks a record's version byte and returns a reader over the fields
/// after it.
fn versioned(bytes: &[u8], version: u8) -> Result<Reader<'_>, PodStateError> {
    let mut r = Reader::new(bytes);
    match r.u8("pod record version")? {
        found if found == version => Ok(r),
        found if found < POD_STATE_VERSION => Err(PodStateError::OlderLayout(found)),
        found => Err(PodStateError::BadVersion(found)),
    }
}

/// Fails on bytes left after the last field.
fn finished(r: &Reader<'_>, what: &'static str) -> Result<(), PodStateError> {
    match r.remaining() {
        0 => Ok(()),
        len => Err(PodStateError::Codec(CodecError::BadLen { what, len })),
    }
}

/// An empty vector for `n` elements that reserves no more memory than
/// the bytes left behind the length prefix, whatever `n` claims.
fn reserve<T>(n: usize, r: &Reader<'_>) -> Vec<T> {
    Vec::with_capacity(n.min(r.remaining() / std::mem::size_of::<T>().max(1)))
}

/// A pod image's fields, borrowed from a [`PodState`] or straight from
/// a [`Pod`]: one writer serves both, so a pod encodes its image and
/// its delta without cloning a case, the overlay or the queue.
struct ImageRef<'a, D> {
    rng: [u64; 4],
    overlay: &'a Overlay,
    overlay_version: u64,
    directives: D,
    stats: PodStats,
    failing_cases: &'a [(TestCase, Outcome)],
    passing_cases: &'a [TestCase],
}

impl<'a, D: ExactSizeIterator<Item = &'a Directive>> ImageRef<'a, D> {
    /// The [`PodState`] record.
    fn encode_into(self, buf: &mut Vec<u8>) {
        codec::put_u8(buf, POD_STATE_VERSION);
        for word in self.rng {
            codec::put_u64(buf, word);
        }
        codec::put_u64(buf, self.overlay_version);
        self.overlay.encode_into(buf);
        put_directives(buf, self.directives);
        put_stats(buf, &self.stats);
        put_failing(buf, self.failing_cases);
        put_passing(buf, self.passing_cases);
    }

    /// The [`PodDelta`] record against `base`: the overlay only when
    /// its version moved, and the cases appended past the base's counts.
    fn encode_delta_into(self, base: DeltaBase, buf: &mut Vec<u8>) {
        let failing_from = (base.failing as usize).min(self.failing_cases.len());
        let passing_from = (base.passing as usize).min(self.passing_cases.len());
        codec::put_u8(buf, POD_DELTA_VERSION);
        for word in self.rng {
            codec::put_u64(buf, word);
        }
        codec::put_u64(buf, self.overlay_version);
        let moved = self.overlay_version != base.overlay_version;
        codec::put_u8(buf, u8::from(moved));
        if moved {
            self.overlay.encode_into(buf);
        }
        put_directives(buf, self.directives);
        put_stats(buf, &self.stats);
        codec::put_u32(buf, failing_from as u32);
        put_failing(buf, &self.failing_cases[failing_from..]);
        codec::put_u32(buf, passing_from as u32);
        put_passing(buf, &self.passing_cases[passing_from..]);
    }
}

impl PodState {
    fn image(&self) -> ImageRef<'_, std::slice::Iter<'_, Directive>> {
        ImageRef {
            rng: self.rng,
            overlay: &self.overlay,
            overlay_version: self.overlay_version,
            directives: self.directives.iter(),
            stats: self.stats,
            failing_cases: &self.failing_cases,
            passing_cases: &self.passing_cases,
        }
    }

    /// Serializes the state: `u8 version | body`.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.image().encode_into(&mut buf);
        buf
    }

    /// Decodes an encoded state. Total function: truncated, malformed or
    /// trailing-garbage input returns a typed [`PodStateError`], never
    /// panics; damage is the enclosing record's checksum to catch.
    ///
    /// # Errors
    ///
    /// See [`PodStateError`].
    pub fn decode(bytes: &[u8]) -> Result<Self, PodStateError> {
        let mut r = versioned(bytes, POD_STATE_VERSION)?;
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
        let stats = take_stats(&mut r)?;
        let n = r.seq_len("PodState.failing_cases", 1)?;
        let mut failing_cases = Vec::with_capacity(n);
        for _ in 0..n {
            let case = take_case(&mut r)?;
            failing_cases.push((case, Outcome::decode(&mut r)?));
        }
        let n = r.seq_len("PodState.passing_cases", 1)?;
        let mut passing_cases = Vec::with_capacity(n);
        for _ in 0..n {
            passing_cases.push(take_case(&mut r)?);
        }
        finished(&r, "PodState.trailing")?;
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

/// Where a pod stood at its base image — the counts a [`PodDelta`] is
/// taken against. Cases are only ever appended, so the counts name
/// exactly which cases the base already holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaBase {
    /// The base image's overlay version.
    pub overlay_version: u64,
    /// Failing cases the base image holds.
    pub failing: u32,
    /// Passing cases the base image holds.
    pub passing: u32,
}

impl DeltaBase {
    /// The counts of `image`, as a base for later deltas.
    pub fn of(image: &PodState) -> Self {
        DeltaBase {
            overlay_version: image.overlay_version,
            failing: image.failing_cases.len() as u32,
            passing: image.passing_cases.len() as u32,
        }
    }
}

/// What changed in one pod since a base image: the RNG position, the
/// counters, the directive queue and the overlay version (always); the
/// overlay itself only when its version moved; and the failing and
/// passing cases appended since the base, each list tagged with its
/// absolute start index. [`apply`](Self::apply) therefore rebuilds the
/// whole image from the base and is idempotent. Its record is versioned
/// like [`PodState`]'s (`u8 POD_DELTA_VERSION | fields`).
#[derive(Debug, Clone, PartialEq)]
pub struct PodDelta {
    /// xoshiro256++ state words.
    pub rng: [u64; 4],
    /// Installed overlay version.
    pub overlay_version: u64,
    /// The installed overlay, present only when `overlay_version`
    /// differs from the base's.
    pub overlay: Option<Overlay>,
    /// Pending guidance directives, in FIFO order.
    pub directives: Vec<Directive>,
    /// Execution counters.
    pub stats: PodStats,
    /// Index of the first of `failing_cases` in the pod's whole list.
    pub failing_from: u32,
    /// Failing cases appended since the base.
    pub failing_cases: Vec<(TestCase, Outcome)>,
    /// Index of the first of `passing_cases` in the pod's whole list.
    pub passing_from: u32,
    /// Passing cases appended since the base.
    pub passing_cases: Vec<TestCase>,
}

/// Smallest encoding of one directive (a tag, a count, one `u32`).
const MIN_DIRECTIVE_BYTES: usize = 1 + 4 + 4;
/// Smallest encoding of one test case (empty lists, a bare environment).
const MIN_CASE_BYTES: usize = 4 + 4 + 8 + 4 + 4 + 4 + 4;

impl PodDelta {
    /// Decodes an encoded delta. Total: any input
    /// gives a delta or a typed [`PodStateError`], and no length prefix
    /// reserves more memory than the bytes behind it. A [`PodState`]
    /// image is refused by its version byte.
    ///
    /// # Errors
    ///
    /// See [`PodStateError`].
    pub fn decode(bytes: &[u8]) -> Result<Self, PodStateError> {
        let mut r = versioned(bytes, POD_DELTA_VERSION)?;
        let mut rng = [0u64; 4];
        for word in &mut rng {
            *word = r.u64("PodDelta.rng")?;
        }
        let overlay_version = r.u64("PodDelta.overlay_version")?;
        let overlay = match r.u8("PodDelta.has_overlay")? {
            0 => None,
            1 => Some(Overlay::decode(&mut r)?),
            tag => {
                return Err(PodStateError::Codec(CodecError::BadTag {
                    what: "PodDelta.has_overlay",
                    tag,
                }))
            }
        };
        let n = r.seq_len("PodDelta.directives", MIN_DIRECTIVE_BYTES)?;
        let mut directives = reserve(n, &r);
        for _ in 0..n {
            directives.push(take_directive(&mut r)?);
        }
        let stats = take_stats(&mut r)?;
        let failing_from = r.u32("PodDelta.failing_from")?;
        let n = r.seq_len("PodDelta.failing_cases", MIN_CASE_BYTES + 1)?;
        let mut failing_cases = reserve(n, &r);
        for _ in 0..n {
            let case = take_case(&mut r)?;
            failing_cases.push((case, Outcome::decode(&mut r)?));
        }
        let passing_from = r.u32("PodDelta.passing_from")?;
        let n = r.seq_len("PodDelta.passing_cases", MIN_CASE_BYTES)?;
        let mut passing_cases = reserve(n, &r);
        for _ in 0..n {
            passing_cases.push(take_case(&mut r)?);
        }
        finished(&r, "PodDelta.trailing")?;
        Ok(PodDelta {
            rng,
            overlay_version,
            overlay,
            directives,
            stats,
            failing_from,
            failing_cases,
            passing_from,
            passing_cases,
        })
    }

    /// Rebuilds the image this delta describes on top of `base`, the
    /// image it was taken against (or any later one: applying twice
    /// gives the same image). Checked before anything changes, so a
    /// refused delta leaves `base` as it was.
    ///
    /// # Errors
    ///
    /// [`PodStateError::BaseMismatch`] when `base` lacks cases before a
    /// list's start index, or when the delta carries no overlay but its
    /// version differs from the base's.
    pub fn apply(self, base: &mut PodState) -> Result<(), PodStateError> {
        let mismatch =
            |what, delta: u64, base: u64| PodStateError::BaseMismatch { what, delta, base };
        if self.overlay.is_none() && self.overlay_version != base.overlay_version {
            return Err(mismatch(
                "overlay_version",
                self.overlay_version,
                base.overlay_version,
            ));
        }
        let (failing, passing) = (
            base.failing_cases.len() as u64,
            base.passing_cases.len() as u64,
        );
        if failing < u64::from(self.failing_from) {
            return Err(mismatch(
                "failing_cases",
                u64::from(self.failing_from),
                failing,
            ));
        }
        if passing < u64::from(self.passing_from) {
            return Err(mismatch(
                "passing_cases",
                u64::from(self.passing_from),
                passing,
            ));
        }
        if let Some(overlay) = self.overlay {
            base.overlay = overlay;
        }
        base.overlay_version = self.overlay_version;
        base.rng = self.rng;
        base.directives = self.directives;
        base.stats = self.stats;
        base.failing_cases.truncate(self.failing_from as usize);
        base.failing_cases.extend(self.failing_cases);
        base.passing_cases.truncate(self.passing_from as usize);
        base.passing_cases.extend(self.passing_cases);
        Ok(())
    }
}

impl<'p> Pod<'p> {
    fn image(&self) -> ImageRef<'_, std::collections::vec_deque::Iter<'_, Directive>> {
        ImageRef {
            rng: self.rng.state(),
            overlay: &self.overlay,
            overlay_version: self.overlay_version,
            directives: self.directives.iter(),
            stats: self.stats,
            failing_cases: &self.failing_cases,
            passing_cases: &self.passing_cases,
        }
    }

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

    /// Appends this pod's [`PodState`] encoding to `buf` — the bytes of
    /// `export_state().encode()`, written without cloning anything.
    pub fn encode_state_into(&self, buf: &mut Vec<u8>) {
        self.image().encode_into(buf);
    }

    /// The counts of this pod's current state, as a base for later
    /// deltas.
    pub fn delta_base(&self) -> DeltaBase {
        DeltaBase {
            overlay_version: self.overlay_version,
            failing: self.failing_cases.len() as u32,
            passing: self.passing_cases.len() as u32,
        }
    }

    /// Appends the encoded [`PodDelta`] from `base` (an earlier
    /// [`delta_base`](Self::delta_base) of this pod) to this pod's
    /// current state.
    pub fn encode_delta_into(&self, base: DeltaBase, buf: &mut Vec<u8>) {
        self.image().encode_delta_into(base, buf);
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
    fn every_cut_is_detected() {
        // A flipped byte is the enclosing record's checksum to catch
        // (`tests/pod_state.rs`); a cut is refused by the decoder.
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
