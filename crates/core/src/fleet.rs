//! One program's fleet — the program, its id, and its pod population —
//! and the round steps that concern pods only: the pod-execution loop,
//! fix-trial pooling and validation, the distribution policy, guidance
//! spreading, and the durable pod-population codec.
//!
//! The campaign core ([`MultiPlatform`](crate::MultiPlatform)) is a
//! `Vec` of fleets plus a sharded hive; [`Platform`](crate::Platform)
//! is its one-fleet case. Which validated candidate is distributed is
//! decided here, once ([`should_distribute`]).

use crate::durable::DurabilityError;
use softborg_fix::{rank, FixCandidate, LabConfig, TestCase, Validation, Verdict};
use softborg_guidance::Directive;
use softborg_hive::{outcome_signature, Hive};
use softborg_ingest::pool;
use softborg_pod::{DeltaBase, Pod, PodConfig, PodDelta, PodState, PodStateError};
use softborg_program::codec;
use softborg_program::{Overlay, Program, ProgramId};
use softborg_trace::wire::BatchEncoder;

/// `(executions, failures, directed)` counters of one or more pod runs.
pub(crate) type Counters = (u64, u64, u64);

/// One wire-encoded batch frame as journaled: `(session, seq, frame)`.
pub(crate) type Frame = (u64, u64, Vec<u8>);

/// The one pod-execution loop: runs `pod` `execs` times, recording its
/// traces straight into batch frames of `batch` (the last possibly
/// short) built in `frame`, and hands the `k`-th to
/// `emit(first_seq + k, frame)`.
pub(crate) fn run_pod(
    pod: &mut Pod<'_>,
    frame: &mut BatchEncoder,
    execs: u32,
    batch: u64,
    first_seq: u64,
    mut emit: impl FnMut(u64, &[u8]),
) -> Counters {
    let (mut failures, mut directed) = (0u64, 0u64);
    let mut next_seq = first_seq;
    for left in (0..execs).rev() {
        let (failing, was_directed) = pod.run_into(frame);
        failures += u64::from(failing);
        directed += u64::from(was_directed);
        if frame.len() as u64 == batch || left == 0 {
            emit(next_seq, frame.finish());
            next_seq += 1;
        }
    }
    (u64::from(execs), failures, directed)
}

/// One pod's place in a round, the unit the ingest engine runs: the
/// journal session its frames are filed under, the first frame
/// sequence number it owns, and the encoder its frames are built in.
pub(crate) struct PodSlot<'a, 'p> {
    pub(crate) session: u64,
    pub(crate) first_seq: u64,
    pub(crate) pod: &'a mut Pod<'p>,
    pub(crate) frame: &'a mut BatchEncoder,
}

/// Whether a validated candidate is pushed to every user. A
/// [`Verdict::Distribute`] always is. A *predicted* deadlock
/// (`lock-cycle:` signature) has no failing cases yet, so the lab can at
/// best say `Suggest`; it is distributed on perfect preservation
/// evidence alone: no failing case pooled, at least
/// `min_preservation_cases` passing cases, every one preserved.
pub(crate) fn should_distribute(
    signature: &str,
    failing: &[TestCase],
    validation: &Validation,
    min_preservation_cases: usize,
) -> bool {
    match validation.verdict {
        Verdict::Distribute => true,
        Verdict::Reject | Verdict::Suggest => {
            signature.starts_with("lock-cycle:")
                && failing.is_empty()
                && validation.passing_total as usize >= min_preservation_cases
                && validation.passing_preserved == validation.passing_total
        }
    }
}

/// One proposed fix on trial: its candidates plus the cases pooled from
/// the fleet's pods to validate them on.
pub(crate) struct Trial<'p> {
    /// The fleet (lane) the proposal is for.
    pub(crate) lane: usize,
    /// Signature of the failure mode the proposal addresses.
    pub(crate) signature: String,
    program: &'p Program,
    candidates: Vec<FixCandidate>,
    failing: Vec<TestCase>,
    passing: Vec<TestCase>,
    /// The round-start overlay every candidate is validated against.
    base: Overlay,
}

/// Validates every trial's candidates in the repair lab, one pooled
/// thread per trial (trials are bounded by distinct failure modes), and
/// returns per trial the best candidate if [`should_distribute`]
/// approves it. Callers promote in trial order, so the outcome does not
/// depend on thread scheduling.
pub(crate) fn validate_trials(
    trials: &[Trial<'_>],
    min_preservation_cases: usize,
) -> Vec<Option<FixCandidate>> {
    let validate = |t: &Trial<'_>| {
        let lab = LabConfig::default();
        let ranked = rank(
            t.program,
            &t.base,
            &t.candidates,
            &t.failing,
            &t.passing,
            lab,
        );
        let (candidate, validation) = ranked.into_iter().next()?;
        should_distribute(
            &t.signature,
            &t.failing,
            &validation,
            min_preservation_cases,
        )
        .then_some(candidate)
    };
    let validate = &validate;
    let mut winners: Vec<Option<FixCandidate>> = trials.iter().map(|_| None).collect();
    pool::scope(|s| {
        for (t, winner) in trials.iter().zip(&mut winners) {
            s.spawn(move || *winner = validate(t));
        }
    });
    winners
}

/// One program's fleet: the program, its id, its pods, and the base
/// each pod's journaled delta is taken against.
#[derive(Debug)]
pub(crate) struct Fleet<'p> {
    pub(crate) id: ProgramId,
    pub(crate) program: &'p Program,
    pub(crate) pods: Vec<Pod<'p>>,
    /// Per pod, the encoder its frames are built in, kept across rounds
    /// (scratch, never durable).
    pub(crate) encoders: Vec<BatchEncoder>,
    /// Per pod, the counts of its image in the newest checkpoint of the
    /// lane's shard (a fresh pod's on a cold chain).
    bases: Vec<DeltaBase>,
}

impl<'p> Fleet<'p> {
    /// Builds `n_pods` pods from `template`; pod `i` gets seed
    /// `seed_base + i + 1`.
    pub(crate) fn new(
        program: &'p Program,
        template: &PodConfig,
        n_pods: u32,
        seed_base: u64,
    ) -> Self {
        let pods: Vec<Pod<'p>> = (0..n_pods)
            .map(|i| {
                let mut pc = template.clone();
                pc.seed = seed_base.wrapping_add(u64::from(i) + 1);
                Pod::new(program, pc)
            })
            .collect();
        Fleet {
            id: program.id(),
            program,
            bases: vec![DeltaBase::default(); pods.len()],
            encoders: pods.iter().map(|_| BatchEncoder::new()).collect(),
            pods,
        }
    }

    /// Pushes the hive's current overlay to every pod that holds an
    /// older one (cloning it only for those; a pod ignores the rest).
    pub(crate) fn install_overlay(&mut self, hive: &Hive<'p>) {
        let (overlay, version) = hive.current_overlay();
        for pod in &mut self.pods {
            if version > pod.overlay_version() {
                pod.install_fix(overlay.clone(), version);
            }
        }
    }

    /// One [`Trial`] per fix the hive proposes, each pooling its cases
    /// from the pods' locally-retained corpora (the privacy-preserving
    /// repair lab): up to 16 failing cases of that failure mode plus up
    /// to 32 passing regression cases.
    pub(crate) fn trials(&self, lane: usize, hive: &Hive<'p>) -> Vec<Trial<'p>> {
        let base = hive.current_overlay().0;
        hive.propose_fixes()
            .into_iter()
            .map(|proposal| Trial {
                lane,
                program: self.program,
                failing: self
                    .pods
                    .iter()
                    .flat_map(|p| p.failing_cases())
                    .filter(|(_, o)| {
                        outcome_signature(o).as_deref() == Some(proposal.signature.as_str())
                    })
                    .map(|(c, _)| c.clone())
                    .take(16)
                    .collect(),
                passing: self
                    .pods
                    .iter()
                    .flat_map(|p| p.passing_cases())
                    .take(32)
                    .cloned()
                    .collect(),
                signature: proposal.signature,
                candidates: proposal.candidates,
                base: base.clone(),
            })
            .collect()
    }

    /// Spreads guidance directives over the pods round-robin; input
    /// seeds are replicated to three pods so one lost or odd pod cannot
    /// stall exploration.
    pub(crate) fn spread_guidance(&mut self, directives: Vec<Directive>) {
        let n = self.pods.len();
        for (i, d) in directives.into_iter().enumerate() {
            match d {
                Directive::InputSeed { .. } => {
                    for k in 0..3usize {
                        self.pods[(i * 3 + k) % n].receive_guidance([d.clone()]);
                    }
                }
                other => self.pods[i % n].receive_guidance([other]),
            }
        }
    }

    /// Every pod's durable image, in pod order.
    pub(crate) fn export_pod_states(&self) -> Vec<PodState> {
        self.pods.iter().map(Pod::export_state).collect()
    }

    /// Appends the checkpoint image of the pod population to `buf`:
    /// `u32 count`, then one length-prefixed [`PodState`] image per pod,
    /// each written straight from the pod.
    pub(crate) fn put_pod_images(&self, buf: &mut Vec<u8>) {
        codec::put_u32(buf, self.pods.len() as u32);
        for pod in &self.pods {
            framed(buf, |buf| pod.encode_state_into(buf));
        }
    }

    /// Appends the `REC_PODS` body to `buf`: `u32 count`, then one
    /// length-prefixed [`PodDelta`] per pod against its checkpointed
    /// base.
    pub(crate) fn put_pod_deltas(&self, buf: &mut Vec<u8>) {
        codec::put_u32(buf, self.pods.len() as u32);
        for (pod, &base) in self.pods.iter().zip(&self.bases) {
            framed(buf, |buf| pod.encode_delta_into(base, buf));
        }
    }

    /// Makes the pods' current state the base of later deltas: the
    /// lane's shard has just checkpointed these images.
    pub(crate) fn rebase(&mut self) {
        for (base, pod) in self.bases.iter_mut().zip(&self.pods) {
            *base = pod.delta_base();
        }
    }

    /// Restores the population from its checkpointed images (`None` on
    /// a cold chain: the fresh pods are the base) folded with the last
    /// committed delta the journal replays (`None` when none was
    /// journaled since). The images become the base of later deltas.
    /// Counts must match exactly — a mismatch means the durable record
    /// belongs to a differently-configured campaign.
    pub(crate) fn restore(
        &mut self,
        images: Option<Vec<PodState>>,
        deltas: Option<Vec<PodDelta>>,
    ) -> Result<(), DurabilityError> {
        let mut states = match images {
            Some(images) => images,
            None => self.export_pod_states(),
        };
        let n = self.pods.len();
        let held = deltas.as_ref().map_or(n, Vec::len);
        if states.len() != n || held != n {
            return Err(DurabilityError::Corrupt(format!(
                "pod records hold {} image(s) and {held} delta(s) but the campaign is configured \
                 for {n} pod(s)",
                states.len()
            )));
        }
        self.bases = states.iter().map(DeltaBase::of).collect();
        for (i, (state, delta)) in states
            .iter_mut()
            .zip(deltas.into_iter().flatten())
            .enumerate()
        {
            delta.apply(state).map_err(|e| pod_corrupt(i, &e))?;
        }
        for (pod, state) in self.pods.iter_mut().zip(states) {
            pod.restore_state(state);
        }
        Ok(())
    }
}

/// Appends a `u32` length prefix and then what `write` appends.
pub(crate) fn framed(buf: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    codec::put_u32(buf, 0);
    write(buf);
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

fn pod_corrupt(i: usize, e: &PodStateError) -> DurabilityError {
    DurabilityError::Corrupt(format!("pod {i} state: {e}"))
}

/// Decodes a whole pod-population body — `u32 count`, then one
/// length-prefixed record per pod, each decoded by `decode` (no
/// trailing bytes allowed). The body is read only from inside a journal
/// or chain record whose checksum covers it.
fn decode_pods<T>(
    bytes: &[u8],
    decode: fn(&[u8]) -> Result<T, PodStateError>,
) -> Result<Vec<T>, DurabilityError> {
    let mut r = codec::Reader::new(bytes);
    // Each record: its length, a version byte and the four RNG words.
    let n = r.seq_len("pod_states", 4 + 1 + 32)?;
    let mut pods = Vec::with_capacity(n);
    for i in 0..n {
        pods.push(decode(r.bytes("pod_states.record")?).map_err(|e| pod_corrupt(i, &e))?);
    }
    if !r.is_empty() {
        return Err(DurabilityError::Corrupt(format!(
            "pod-state record has {} trailing byte(s)",
            r.remaining()
        )));
    }
    Ok(pods)
}

/// Decodes what [`Fleet::put_pod_images`] wrote.
pub(crate) fn decode_pod_images(bytes: &[u8]) -> Result<Vec<PodState>, DurabilityError> {
    decode_pods(bytes, PodState::decode)
}

/// Decodes what [`Fleet::put_pod_deltas`] wrote (a `REC_PODS` body).
/// The pod-image bodies older builds journaled are refused by each
/// record's version byte.
pub(crate) fn decode_pod_deltas(bytes: &[u8]) -> Result<Vec<PodDelta>, DurabilityError> {
    decode_pods(bytes, PodDelta::decode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use softborg_program::scenarios;
    use softborg_trace::wire;

    fn validation(verdict: Verdict, passing_preserved: u32, passing_total: u32) -> Validation {
        Validation {
            description: String::new(),
            failing_fixed: 0,
            failing_total: 0,
            passing_preserved,
            passing_total,
            verdict,
        }
    }

    #[test]
    fn should_distribute_is_the_one_promotion_policy() {
        const MIN: usize = 5;
        let lock = "lock-cycle:a->b";
        let one_failing = vec![TestCase::simple(vec![1])];
        // (what, signature, failing cases, validation, expected)
        let table: [(&str, &str, &[TestCase], Validation, bool); 7] = [
            (
                "Distribute always distributes",
                "crash:x",
                &one_failing,
                validation(Verdict::Distribute, 0, 0),
                true,
            ),
            (
                "predicted deadlock, enough cases, all preserved",
                lock,
                &[],
                validation(Verdict::Suggest, 5, 5),
                true,
            ),
            (
                "one preservation case too few",
                lock,
                &[],
                validation(Verdict::Suggest, 4, 4),
                false,
            ),
            (
                "one case not preserved",
                lock,
                &[],
                validation(Verdict::Suggest, 5, 6),
                false,
            ),
            (
                "an observed (not predicted) deadlock needs a real verdict",
                lock,
                &one_failing,
                validation(Verdict::Suggest, 8, 8),
                false,
            ),
            (
                "Suggest on a non-lock signature",
                "hang:y",
                &[],
                validation(Verdict::Suggest, 8, 8),
                false,
            ),
            (
                "Reject on a non-lock signature",
                "crash:x",
                &[],
                validation(Verdict::Reject, 8, 8),
                false,
            ),
        ];
        for (what, signature, failing, validation, expected) in table {
            assert_eq!(
                should_distribute(signature, failing, &validation, MIN),
                expected,
                "{what}"
            );
        }
    }

    /// Runs one fresh pod through `run_pod` and returns the counters and
    /// the emitted `(seq, traces in frame)` layout.
    fn layout(execs: u32, batch: u64, first_seq: u64) -> (Counters, Vec<(u64, usize)>) {
        let s = scenarios::token_parser();
        let cfg = PodConfig {
            input_range: s.input_range,
            seed: 7,
            ..PodConfig::default()
        };
        let mut pod = Pod::new(&s.program, cfg);
        let mut frames = Vec::new();
        let mut frame = BatchEncoder::new();
        let counters = run_pod(
            &mut pod,
            &mut frame,
            execs,
            batch,
            first_seq,
            |seq, frame| {
                let traces = wire::decode_batch(frame).expect("run_pod emits valid frames");
                frames.push((seq, traces.len()));
            },
        );
        (counters, frames)
    }

    #[test]
    fn run_pod_lays_frames_out_in_consecutive_slots() {
        // ceil(10 / 4) = 3 frames, the last one short, seq = first_seq + k.
        let ((executions, failures, directed), frames) = layout(10, 4, 40);
        assert_eq!(frames, vec![(40, 4), (41, 4), (42, 2)]);
        assert_eq!(executions, 10);
        assert!(failures <= executions);
        assert_eq!(directed, 0, "no guidance was queued");
        // An exact multiple leaves no short tail frame.
        assert_eq!(layout(8, 4, 0).1, vec![(0, 4), (1, 4)]);
        // A batch larger than the run still ships one (short) frame.
        assert_eq!(layout(3, 32, 9).1, vec![(9, 3)]);
        // No executions, no frames.
        assert_eq!(layout(0, 4, 5), ((0, 0, 0), vec![]));
    }
}
