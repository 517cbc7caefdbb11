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
use softborg_pod::{Pod, PodConfig, PodState};
use softborg_program::codec;
use softborg_program::{Overlay, Program, ProgramId};
use softborg_trace::wire;

/// `(executions, failures, directed)` counters of one or more pod runs.
pub(crate) type Counters = (u64, u64, u64);

/// One wire-encoded batch frame as journaled: `(session, seq, frame)`.
pub(crate) type Frame = (u64, u64, Vec<u8>);

/// The one pod-execution loop: runs `pod` `execs` times, bundling its
/// traces into batch frames of `batch` (the last possibly short), and
/// hands the `k`-th to `emit(first_seq + k, frame)`.
pub(crate) fn run_pod(
    pod: &mut Pod<'_>,
    execs: u32,
    batch: u64,
    first_seq: u64,
    mut emit: impl FnMut(u64, Vec<u8>),
) -> Counters {
    let (mut executions, mut failures, mut directed) = (0u64, 0u64, 0u64);
    let mut next_seq = first_seq;
    let mut buf = Vec::with_capacity(batch.min(u64::from(execs)) as usize);
    for left in (0..execs).rev() {
        let run = pod.run_once();
        executions += 1;
        failures += u64::from(run.result.outcome.is_failure());
        directed += u64::from(run.directed);
        buf.push(run.trace);
        if buf.len() as u64 == batch || left == 0 {
            emit(next_seq, wire::encode_batch(&buf));
            next_seq += 1;
            buf.clear();
        }
    }
    (executions, failures, directed)
}

/// One pod's place in a threaded round: the journal session its frames
/// are filed under and the first frame sequence number it owns.
pub(crate) struct PodSlot<'a, 'p> {
    pub(crate) session: u64,
    pub(crate) first_seq: u64,
    pub(crate) pod: &'a mut Pod<'p>,
}

/// Runs every slot's pod `execs` times on up to `threads` scoped threads
/// (contiguous chunks), handing each frame to `submit(session, seq,
/// frame)` after keeping a copy when `keep_frames` (a durable round
/// journals them). Returns `(session, counters)` per slot plus the kept
/// frames, unordered; `submit` is dropped once every thread finished.
pub(crate) fn run_threaded(
    mut slots: Vec<PodSlot<'_, '_>>,
    threads: usize,
    execs: u32,
    batch: u64,
    keep_frames: bool,
    submit: impl Fn(u64, u64, Vec<u8>) + Sync,
) -> (Vec<(u64, Counters)>, Vec<Frame>) {
    let threads = threads.max(1).min(slots.len().max(1));
    let chunk_size = slots.len().div_ceil(threads).max(1);
    let submit = &submit;
    std::thread::scope(|s| {
        let handles: Vec<_> = slots
            .chunks_mut(chunk_size)
            .map(|chunk| {
                s.spawn(move || {
                    let mut counters = Vec::with_capacity(chunk.len());
                    let mut kept = Vec::new();
                    for slot in chunk {
                        let session = slot.session;
                        let emit = |seq, frame: Vec<u8>| {
                            if keep_frames {
                                kept.push((session, seq, frame.clone()));
                            }
                            submit(session, seq, frame);
                        };
                        let ran = run_pod(slot.pod, execs, batch, slot.first_seq, emit);
                        counters.push((session, ran));
                    }
                    (counters, kept)
                })
            })
            .collect();
        let mut out = (Vec::new(), Vec::new());
        for handle in handles {
            let (counters, kept) = handle.join().expect("pod thread panicked");
            out.0.extend(counters);
            out.1.extend(kept);
        }
        out
    })
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

/// Validates every trial's candidates in the repair lab, one scoped
/// thread per trial (trials are bounded by distinct failure modes), and
/// returns per trial the best candidate if [`should_distribute`]
/// approves it. Callers promote in trial order, so the outcome does not
/// depend on thread scheduling.
pub(crate) fn validate_trials(
    trials: &[Trial<'_>],
    min_preservation_cases: usize,
) -> Vec<Option<FixCandidate>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = trials
            .iter()
            .map(|t| {
                s.spawn(move || {
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
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trial validation thread panicked"))
            .collect()
    })
}

/// One program's fleet: the program, its id, and its pods.
#[derive(Debug)]
pub(crate) struct Fleet<'p> {
    pub(crate) id: ProgramId,
    pub(crate) program: &'p Program,
    pub(crate) pods: Vec<Pod<'p>>,
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
        let pods = (0..n_pods)
            .map(|i| {
                let mut pc = template.clone();
                pc.seed = seed_base.wrapping_add(u64::from(i) + 1);
                Pod::new(program, pc)
            })
            .collect();
        Fleet {
            id: program.id(),
            program,
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

    /// Encodes the pod population for a `REC_PODS` record or checkpoint:
    /// `u32 count`, then one length-prefixed (checksummed) image per pod.
    pub(crate) fn encode_pod_states(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::put_u32(&mut buf, self.pods.len() as u32);
        for pod in &self.pods {
            codec::put_bytes(&mut buf, &pod.export_state().encode());
        }
        buf
    }

    /// Installs decoded pod images onto the freshly built population,
    /// requiring an exact count match — a mismatch means the durable
    /// record belongs to a differently-configured campaign.
    pub(crate) fn restore_pod_states(
        &mut self,
        states: Vec<PodState>,
    ) -> Result<(), DurabilityError> {
        if states.len() != self.pods.len() {
            return Err(DurabilityError::Corrupt(format!(
                "pod-state record holds {} pod(s) but the campaign is configured for {}",
                states.len(),
                self.pods.len()
            )));
        }
        for (pod, state) in self.pods.iter_mut().zip(states) {
            pod.restore_state(state);
        }
        Ok(())
    }
}

/// Decodes a whole `REC_PODS` body written by
/// [`Fleet::encode_pod_states`] (no trailing bytes allowed). Every pod
/// image re-verifies its own checksum, so torn bytes behind a valid
/// journal checksum still fail loudly.
pub(crate) fn decode_pod_states(bytes: &[u8]) -> Result<Vec<PodState>, DurabilityError> {
    let mut r = codec::Reader::new(bytes);
    let n = r.seq_len("pod_states", 9)?;
    let mut states = Vec::with_capacity(n);
    for i in 0..n {
        let image = PodState::decode(r.bytes("pod_states.image")?);
        states.push(image.map_err(|e| DurabilityError::Corrupt(format!("pod {i} state: {e}")))?);
    }
    if !r.is_empty() {
        return Err(DurabilityError::Corrupt(format!(
            "pod-state record has {} trailing byte(s)",
            r.remaining()
        )));
    }
    Ok(states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use softborg_program::scenarios;

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
        let counters = run_pod(&mut pod, execs, batch, first_seq, |seq, frame| {
            let traces = wire::decode_batch(&frame).expect("run_pod emits valid frames");
            frames.push((seq, traces.len()));
        });
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
