//! One recording path: the batch frames a pod builds with
//! `Pod::run_into` — its trace recorded into reused buffers, anonymized
//! in place and appended straight to a `wire::BatchEncoder` kept across
//! frames — are byte for byte `wire::encode_batch` of the traces
//! `Pod::run_once` returns on a twin pod, for every built-in scenario,
//! under overlays with guards, gates and loop bounds installed mid-run,
//! every anonymizer and recording policy, and input-seed, schedule and
//! fault-injection directives. The twins' counters, kept cases and
//! durable images agree too.
//!
//! Quick by default; CI's deep job runs it at `PROPTEST_CASES=256`.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softborg::fix::hang_bounds;
use softborg::guidance::Directive;
use softborg::pod::{Pod, PodConfig};
use softborg::program::cfg::Stmt;
use softborg::program::expr::{BinOp, Expr};
use softborg::program::interp::ExecConfig;
use softborg::program::overlay::{GuardAction, LockGate, Overlay, SiteGuard, GHOST_LOCK_BASE};
use softborg::program::sched::ScheduleHint;
use softborg::program::syscall::ForcedFault;
use softborg::program::{scenarios, BranchSiteId, Loc, LockId, Program, ThreadId};
use softborg::trace::anonymize::Anonymizer;
use softborg::trace::wire::{self, BatchEncoder};
use softborg::trace::RecordingPolicy;

const ANONYMIZERS: [Anonymizer; 4] = [
    Anonymizer::None,
    Anonymizer::CoarsenSyscalls,
    Anonymizer::TruncatePath { max_bits: 3 },
    Anonymizer::OutcomeOnly,
];

const POLICIES: [RecordingPolicy; 4] = [
    RecordingPolicy::InputDependent,
    RecordingPolicy::FullBranch,
    RecordingPolicy::OutcomeOnly,
    RecordingPolicy::Sampled {
        period: 3,
        phase: 1,
    },
];

/// An overlay for `program` with the rule families `families` selects:
/// bit 0 a guard skipping each thread's first assignment on odd inputs,
/// bit 1 a gate over every lock, bit 2 a bound on every loop of every
/// thread.
fn overlay(program: &Program, families: u8, max_iters: u64) -> Overlay {
    let mut o = Overlay::empty();
    if families & 1 != 0 {
        for (thread, block, blk) in program.blocks() {
            let Some(stmt) = (blk.stmts.iter()).position(|s| matches!(s, Stmt::Assign(..))) else {
                continue;
            };
            if o.guards.iter().any(|g| g.loc.thread == thread) {
                continue;
            }
            let odd = Expr::bin(BinOp::Rem, Expr::input(0), Expr::Const(2));
            o.guards.push(SiteGuard {
                loc: Loc {
                    thread,
                    block,
                    stmt: stmt as u32,
                },
                when: if program.n_inputs > 0 {
                    odd
                } else {
                    Expr::Const(1)
                },
                action: GuardAction::SkipStmt,
            });
        }
    }
    if families & 2 != 0 && program.n_locks > 0 {
        o.lock_gates.push(LockGate {
            gate: LockId::new(GHOST_LOCK_BASE),
            locks: (0..program.n_locks).map(LockId::new).collect(),
        });
    }
    if families & 4 != 0 {
        for c in hang_bounds(program, &[], max_iters) {
            o.merge(&c.overlay);
        }
    }
    o
}

/// A directive of kind `kind` for `program`, drawn from `rng`.
fn directive(program: &Program, range: (i64, i64), kind: u8, rng: &mut SmallRng) -> Directive {
    match kind % 3 {
        0 => {
            // Now and then the wrong arity, which a pod ignores.
            let n = program.n_inputs as usize + usize::from(rng.gen_range(0..8) == 0);
            Directive::InputSeed {
                inputs: (0..n).map(|_| rng.gen_range(range.0..=range.1)).collect(),
                target: (BranchSiteId::new(0), rng.gen()),
            }
        }
        1 => {
            let n = program.threads.len() as u32;
            let first = rng.gen_range(0..n.max(1));
            Directive::Schedule(ScheduleHint {
                order: (0..n).map(|i| ThreadId::new((first + i) % n)).collect(),
                bias_per_mille: rng.gen_range(0..=1000),
            })
        }
        _ => Directive::FaultInjection {
            forced: (0..rng.gen_range(0..3))
                .map(|_| ForcedFault {
                    call_index: rng.gen_range(0..6),
                    ret: rng.gen_range(-1..3),
                })
                .collect(),
            short_read_per_mille: rng.gen_range(0..=1000),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn run_into_frames_are_encode_batch_of_run_once_traces(
        seed in any::<u64>(),
        anonymizer in 0..4usize,
        policy in 0..4usize,
        families in 0..8u8,
        max_iters in 1..6u64,
        install_at in 0..30u32,
        execs in 1..40u32,
        batch in 1..12u32,
        directives in proptest::collection::vec((0..3u8, 0..40u32), 0..10),
    ) {
        for s in scenarios::all() {
            let config = PodConfig {
                policy: POLICIES[policy],
                exec: ExecConfig { max_steps: 4_000 },
                anonymizer: ANONYMIZERS[anonymizer],
                input_range: s.input_range,
                seed,
            };
            let fix = overlay(&s.program, families, max_iters);
            let mut rng = SmallRng::seed_from_u64(seed);
            // Per execution index, the directives queued before it runs.
            let queued: Vec<(u32, Directive)> = directives
                .iter()
                .map(|&(kind, at)| (at, directive(&s.program, s.input_range, kind, &mut rng)))
                .collect();
            let (mut into, mut once) = (
                Pod::new(&s.program, config.clone()),
                Pod::new(&s.program, config),
            );
            let mut encoder = BatchEncoder::new();
            let (mut frames, mut traces, mut expected) = (Vec::new(), Vec::new(), Vec::new());
            let mut counts = (0u32, 0u32);
            for i in 0..execs {
                if i == install_at {
                    into.install_fix(fix.clone(), 1);
                    once.install_fix(fix.clone(), 1);
                }
                for (_, d) in queued.iter().filter(|(at, _)| *at == i) {
                    into.receive_guidance([d.clone()]);
                    once.receive_guidance([d.clone()]);
                }
                let (failing, directed) = into.run_into(&mut encoder);
                let run = once.run_once();
                prop_assert_eq!(failing, run.result.outcome.is_failure());
                prop_assert_eq!(directed, run.directed);
                counts.0 += u32::from(failing);
                counts.1 += u32::from(directed);
                traces.push(run.trace);
                if traces.len() == batch as usize || i + 1 == execs {
                    frames.push(encoder.finish().to_vec());
                    expected.push(wire::encode_batch(&traces));
                    traces.clear();
                }
            }
            prop_assert_eq!(&frames, &expected, "{}", s.name);
            prop_assert_eq!(into.stats(), once.stats());
            prop_assert_eq!(
                (u64::from(counts.0), u64::from(counts.1)),
                (into.stats().failures, into.stats().directed)
            );
            prop_assert_eq!(into.failing_cases(), once.failing_cases());
            prop_assert_eq!(into.passing_cases(), once.passing_cases());
            prop_assert_eq!(into.export_state().encode(), once.export_state().encode());
        }
    }
}
