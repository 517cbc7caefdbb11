//! Allocation gate: neither one pod execution nor the hive's replay of
//! its trace may allocate per guest step, the hive's merger may not
//! allocate per arrival of a trace it has seen before, and a round's
//! reads of the tree may not allocate per node.
//!
//! A counting global allocator tallies this thread's allocations while
//! `Pod::run_once` executes a loop for 10 and for 1,000 iterations — one
//! thread alone, and two threads contending for one lock so blocking
//! acquires run inside the gate — and while `reconstruct` replays the
//! single-thread loop's traces. Only the amortised doubling of growing
//! buffers (schedule picks, trace bits, reconstructed decisions) may
//! separate the two counts. Replaying those traces as an ingest worker
//! does, on one lowering with a warm scratch, allocates only the
//! returned decisions. Folding one prepared merge record into a
//! hive 10 and 1,000 times must allocate exactly as often. Guidance's
//! frontier pass and the digest of a 100-node and a 20,000-node tree may
//! differ by the doubling of one growing buffer.
//!
//! The durable decoders a resume runs on bytes from disk — the round
//! log, a pod delta and a batch frame's validation — are total and
//! allocate in proportion to their input: arbitrary bytes, raw or sealed
//! with valid framing, never make them request more bytes than the
//! input holds (plus one formatted error message). A batch frame's
//! validation allocates nothing at all, whatever its counts and indices
//! claim. A journal scan lends its records in place: it allocates once
//! per journal, the record list, however many records it holds.
//!
//! Some gates pin counts outright: after its first run, an executor
//! running a program that emits nothing allocates nothing; a warm pod's
//! `Pod::run_into` — the execution a round runs, recorded straight into
//! the batch frame — allocates nothing at all on `token_parser`,
//! `spin_wait` and `bank_transfer` (beyond a failure's own report), and
//! sealing its frame allocates nothing however many executions it holds;
//! `Pod::run_once`, which clones the trace out, allocates only the
//! buffers it returns; a hive's round report reads (coverage and the proof count) of a
//! 20,000-node tree allocate nothing, and neither does merging a path
//! the tree already holds.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softborg_hive::{Hive, HiveConfig};
use softborg_ingest::{MergeRecord, ProcessedTrace};
use softborg_pod::{Pod, PodConfig};
use softborg_program::builder::ProgramBuilder;
use softborg_program::cfg::{global, local, Stmt};
use softborg_program::expr::{BinOp, Expr, Place};
use softborg_program::interp::{
    CrashKind, ExecConfig, Executor, LoweredProgram, Observer, Outcome,
};
use softborg_program::overlay::{GuardAction, LockGate, Overlay, SiteGuard, GHOST_LOCK_BASE};
use softborg_program::scenarios;
use softborg_program::sched::{RandomSched, RoundRobin};
use softborg_program::syscall::DefaultEnv;
use softborg_program::taint::InputDependence;
use softborg_program::{BlockId, BranchSiteId, Loc, LockId, Program, ProgramId, ThreadId};
use softborg_trace::record::GlobalAccessSummary;
use softborg_trace::{
    reconstruct, replay, wire, BitVec, ExecutionTrace, RecordingPolicy, ReplayScratch,
};
use softborg_tree::{ExecutionTree, NodeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell`, so counting itself never allocates or reenters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `for i in 0..input0 { lock 0; g0 := g0 + i; unlock 0; if i % 3 == input0 % 3 { l1 := i } }`
fn looping_program() -> Program {
    let mut pb = ProgramBuilder::new("alloc-gate-loop");
    pb.inputs(1).locals(2).globals(1).locks(1);
    pb.thread(|t| {
        t.assign(local(0), Expr::Const(0));
        t.while_loop(Expr::lt(Expr::local(0), Expr::input(0)), |t| {
            t.lock(0);
            t.assign(
                global(0),
                Expr::bin(BinOp::Add, Expr::global(0), Expr::local(0)),
            );
            t.unlock(0);
            let rem = |e| Expr::bin(BinOp::Rem, e, Expr::Const(3));
            t.if_then(Expr::eq(rem(Expr::local(0)), rem(Expr::input(0))), |t| {
                t.assign(local(1), Expr::local(0));
            });
            t.assign(
                local(0),
                Expr::bin(BinOp::Add, Expr::local(0), Expr::Const(1)),
            );
        });
    });
    pb.build().expect("well-formed")
}

/// Two threads, each `for i in 0..input0 { lock 0; g0 := g0 + 1; yield; unlock 0 }`:
/// the yield inside the critical section makes the other thread's
/// acquire block.
fn contended_program() -> Program {
    let mut pb = ProgramBuilder::new("alloc-gate-contended");
    pb.inputs(1).locals(1).globals(1).locks(1);
    for _ in 0..2 {
        pb.thread(|t| {
            t.assign(local(0), Expr::Const(0));
            t.while_loop(Expr::lt(Expr::local(0), Expr::input(0)), |t| {
                t.lock(0);
                t.assign(
                    global(0),
                    Expr::bin(BinOp::Add, Expr::global(0), Expr::Const(1)),
                );
                t.yield_();
                t.unlock(0);
                t.assign(
                    local(0),
                    Expr::bin(BinOp::Add, Expr::local(0), Expr::Const(1)),
                );
            });
        });
    }
    pb.build().expect("well-formed")
}

/// A guard that fires on every global store, plus a gate over lock 0.
fn guard_and_gate(program: &Program) -> Overlay {
    let loc = program
        .blocks()
        .find_map(|(thread, block, blk)| {
            let stmt = blk
                .stmts
                .iter()
                .position(|s| matches!(s, Stmt::Assign(Place::Global(_), _)))?;
            Some(Loc {
                thread,
                block,
                stmt: stmt as u32,
            })
        })
        .expect("the loop stores a global");
    Overlay {
        guards: vec![SiteGuard {
            loc,
            when: Expr::Const(1),
            action: GuardAction::SetPlace(local(1), 7),
        }],
        lock_gates: vec![LockGate {
            gate: LockId::new(GHOST_LOCK_BASE),
            locks: [LockId::new(0)].into_iter().collect(),
        }],
        ..Overlay::empty()
    }
}

/// Allocations made by one `run_once` of the loop at `iterations`, with
/// the run's step count and trace.
fn allocs_per_run(
    program: &Program,
    overlay: Option<&Overlay>,
    iterations: i64,
) -> (u64, u64, ExecutionTrace) {
    let mut pod = Pod::new(
        program,
        PodConfig {
            input_range: (iterations, iterations),
            ..PodConfig::default()
        },
    );
    if let Some(o) = overlay {
        pod.install_fix(o.clone(), 1);
    }
    let before = ALLOCS.with(Cell::get);
    let run = pod.run_once();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(run.result.outcome, Outcome::Success);
    if overlay.is_some() {
        assert!(run.result.overlay_hits >= 2 * iterations as u64);
    }
    (allocs, run.result.steps, run.trace)
}

fn assert_flat(overlay: Option<&Overlay>, program: &Program) {
    let (small, small_steps, _) = allocs_per_run(program, overlay, 10);
    let (large, large_steps, _) = allocs_per_run(program, overlay, 1_000);
    assert!(
        large_steps > 50 * small_steps,
        "{small_steps} vs {large_steps} steps"
    );
    assert!(
        large <= small + 32,
        "run_once allocated {small} times for {small_steps} steps but {large} for {large_steps}"
    );
}

#[test]
fn pod_run_once_allocations_do_not_scale_with_steps() {
    assert_flat(None, &looping_program());
}

#[test]
fn pod_run_once_allocations_do_not_scale_with_steps_under_an_overlay() {
    let program = looping_program();
    assert_flat(Some(&guard_and_gate(&program)), &program);
}

/// Counts blocking acquires.
struct Blocks(u64);

impl Observer for Blocks {
    fn on_lock_blocked(&mut self, _: ThreadId, _: LockId, _: ThreadId) {
        self.0 += 1;
    }
}

#[test]
fn pod_run_once_allocations_do_not_scale_with_blocking_acquires() {
    let program = contended_program();
    // The loop contends: under a random schedule, acquires block often.
    let mut blocks = Blocks(0);
    Executor::new(&program)
        .with_config(ExecConfig { max_steps: 100_000 })
        .run(
            &[1_000],
            &mut DefaultEnv::seeded(1),
            &mut RandomSched::seeded(1),
            &Overlay::empty(),
            &mut blocks,
        )
        .expect("arity");
    assert!(blocks.0 >= 100, "only {} blocking acquires", blocks.0);
    assert_flat(None, &program);
}

/// An executor keeps its tables between runs: after the first, running
/// a program that emits nothing allocates nothing at all — no overlay,
/// or a guard and a gate.
#[test]
fn executor_runs_after_the_first_do_not_allocate() {
    let program = looping_program();
    let mut exec = Executor::new(&program).with_config(ExecConfig { max_steps: 100_000 });
    for overlay in [Overlay::empty(), guard_and_gate(&program)] {
        let mut run = || {
            exec.run(
                &[100],
                &mut DefaultEnv::seeded(1),
                &mut RoundRobin::new(),
                &overlay,
                &mut Blocks(0),
            )
            .expect("arity")
        };
        let first = run();
        assert_eq!(first.outcome, Outcome::Success);
        let (allocs, again) = allocs_of(run);
        assert_eq!(again, first);
        assert_eq!(allocs, 0, "a run after the first allocated {allocs} times");
    }
}

/// Allocations one warm `run_once` of `closed_loop`'s program makes once
/// its pod's passing corpus is full: the returned trace's branch bits
/// and emitted stream, which `run_into` does not return. A run that
/// keeps a failing case also copies its inputs and schedule and may grow
/// the corpus.
const TOKEN_PARSER_RUN_ALLOCS: u64 = 2;
const KEPT_CASE_ALLOCS: u64 = 3;

#[test]
fn pod_run_once_allocates_only_what_it_returns() {
    let s = scenarios::token_parser();
    let mut pod = Pod::new(
        &s.program,
        PodConfig {
            input_range: s.input_range,
            ..PodConfig::default()
        },
    );
    for _ in 0..200 {
        pod.run_once();
    }
    assert_eq!(pod.passing_cases().len(), 16, "the passing corpus is full");
    for _ in 0..400 {
        let kept = pod.failing_cases().len();
        let (allocs, run) = allocs_of(|| pod.run_once());
        let bound = match pod.failing_cases().len() - kept {
            0 => TOKEN_PARSER_RUN_ALLOCS,
            _ => TOKEN_PARSER_RUN_ALLOCS + KEPT_CASE_ALLOCS,
        };
        assert!(
            allocs <= bound,
            "a warm token_parser run ({}) allocated {allocs} times",
            run.result.outcome
        );
    }
}

/// A warm pod records into buffers it keeps and appends each trace
/// straight to the frame being built, so `Pod::run_into` allocates
/// nothing per execution — on a single-threaded program, on one with a
/// spinning second thread, and on one with locks and shared globals —
/// except for what a failure reports (its deadlock cycle or hang
/// locations, one allocation) and for a case the pod keeps. Sealing a
/// frame allocates nothing either, whether it holds 10 executions or
/// 1,000.
#[test]
fn pod_run_into_allocates_nothing_once_warm() {
    for s in [
        scenarios::token_parser(),
        scenarios::spin_wait(),
        scenarios::bank_transfer(),
    ] {
        let mut pod = Pod::new(
            &s.program,
            PodConfig {
                input_range: s.input_range,
                ..PodConfig::default()
            },
        );
        let mut frame = wire::BatchEncoder::new();
        for _ in 0..4 {
            for _ in 0..1_000 {
                pod.run_into(&mut frame);
            }
            frame.finish();
        }
        let (mut counted, mut failing) = (0, 0);
        for per_frame in [10, 1_000, 10] {
            for _ in 0..per_frame {
                let kept = pod.failing_cases().len() + pod.passing_cases().len();
                let (allocs, (failed, _)) = allocs_of(|| pod.run_into(&mut frame));
                if pod.failing_cases().len() + pod.passing_cases().len() > kept {
                    continue;
                }
                counted += 1;
                failing += u64::from(failed);
                assert!(
                    allocs <= u64::from(failed),
                    "a warm {} execution (failing: {failed}) allocated {allocs} times",
                    s.name
                );
            }
            let (allocs, bytes) = allocs_of(|| frame.finish().len());
            assert!(bytes > 0);
            assert_eq!(
                allocs, 0,
                "sealing a {} frame of {per_frame} executions allocated {allocs} times",
                s.name
            );
        }
        assert!(counted > 1_000, "{}: {counted} executions counted", s.name);
        if s.name == "bank" {
            assert!(failing > 0, "bank deadlocks naturally");
        }
    }
}

/// Allocations made by replaying the loop's trace at `iterations`: once
/// through the per-call `reconstruct`, and once as an ingest worker
/// replays, on one lowering with a warm `ReplayScratch`; with the path
/// length.
fn allocs_per_reconstruct(overlay: Option<&Overlay>, iterations: i64) -> (u64, u64, usize) {
    let program = looping_program();
    let (_, _, trace) = allocs_per_run(&program, overlay, iterations);
    let deps = InputDependence::compute(&program);
    let empty = Overlay::empty();
    let overlay = overlay.unwrap_or(&empty);
    let (one_shot, path) =
        allocs_of(|| reconstruct(&program, &deps, overlay, &trace).expect("exact trace"));
    let code = LoweredProgram::new(&program);
    let mut scratch = ReplayScratch::default();
    replay(&code, overlay, &trace, &mut scratch).expect("exact trace");
    let (warm, again) =
        allocs_of(|| replay(&code, overlay, &trace, &mut scratch).expect("exact trace"));
    assert_eq!(again, path);
    // Every branch of the loop carries a bit.
    assert_eq!(path.decisions.len(), trace.bits.len());
    (one_shot, warm, path.decisions.len())
}

fn assert_reconstruct_flat(overlay: Option<&Overlay>) {
    let (small, small_warm, small_len) = allocs_per_reconstruct(overlay, 10);
    let (large, large_warm, large_len) = allocs_per_reconstruct(overlay, 1_000);
    assert!(large_len > 50 * small_len, "{small_len} vs {large_len}");
    // `decisions` may double its way from one length to the other.
    let doublings = u64::from((large_len / small_len).ilog2() + 1);
    assert!(
        large <= small + doublings,
        "reconstruct allocated {small} times for {small_len} decisions but {large} for {large_len}"
    );
    // A warm replay allocates only `decisions`, sized once from the bit
    // count.
    assert_eq!(
        (small_warm, large_warm),
        (1, 1),
        "warm replays of {small_len} and {large_len} decisions"
    );
}

#[test]
fn reconstruct_allocations_do_not_scale_with_steps() {
    assert_reconstruct_flat(None);
}

#[test]
fn reconstruct_allocations_do_not_scale_with_steps_under_an_overlay() {
    let program = looping_program();
    assert_reconstruct_flat(Some(&guard_and_gate(&program)));
}

/// A crashing trace with lock-order pairs and a global touched under a
/// non-empty lockset, prepared for the merger: it exercises the tree,
/// the failure ledger, the lock-order graph and the race detector.
fn failing_record(program: &Program) -> MergeRecord {
    let trace = ExecutionTrace {
        program: program.id(),
        policy: RecordingPolicy::InputDependent,
        bits: BitVec::new(),
        guard_bits: BitVec::new(),
        syscall_rets: vec![3],
        schedule: vec![0, 1, 0],
        steps: 3,
        outcome: Outcome::Crash {
            loc: Loc {
                thread: ThreadId::new(1),
                block: BlockId::new(2),
                stmt: 0,
            },
            kind: CrashKind::AssertFailed,
        },
        overlay_version: 0,
        lock_pairs: vec![(0, 1), (1, 2)],
        global_summaries: vec![GlobalAccessSummary {
            global: 0,
            reader_mask: 0b11,
            writer_mask: 0b01,
            lockset: vec![0, 1],
        }],
    };
    let decisions = (0..8).map(|i| (BranchSiteId::new(i), i % 3 == 0)).collect();
    MergeRecord::prepare(ProcessedTrace {
        trace,
        decisions: Some(decisions),
    })
}

/// Allocations made by folding `record` into a fresh hive `times` times.
fn allocs_per_fold(program: &Program, record: &MergeRecord, times: u64) -> u64 {
    let mut hive = Hive::new(program, HiveConfig::default());
    let before = ALLOCS.with(Cell::get);
    for _ in 0..times {
        hive.apply_record(record);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(hive.stats().traces, times);
    assert_eq!(hive.diagnoses()[0].count, times);
    assert_eq!(hive.lock_graph().traces_seen(), times);
    allocs
}

#[test]
fn merge_record_folds_do_not_allocate_per_arrival() {
    let program = looping_program();
    let record = failing_record(&program);
    let small = allocs_per_fold(&program, &record, 10);
    let large = allocs_per_fold(&program, &record, 1_000);
    assert_eq!(
        small, large,
        "folding allocated {small} times for 10 arrivals but {large} for 1,000"
    );
}

/// A tree of about `nodes` nodes over twelve sites: paths twelve
/// decisions deep, one decision in sixteen on another site (as another
/// interleaving would surface), one path in eight failing, and an
/// infeasibility mark on one node in sixteen.
fn tree_of(program: ProgramId, nodes: u64) -> ExecutionTree {
    let mut rng = SmallRng::seed_from_u64(nodes);
    let mut tree = ExecutionTree::new(program);
    while tree.node_count() < nodes {
        let path: Vec<_> = (0..12u32)
            .map(|d| {
                let site = if rng.gen_range(0..16) == 0 {
                    11
                } else {
                    d % 10
                };
                (BranchSiteId::new(site), rng.gen_bool(0.5))
            })
            .collect();
        let outcome = if rng.gen_range(0..8) == 0 {
            Outcome::Hang { stuck: vec![] }
        } else {
            Outcome::Success
        };
        tree.merge_path(&path, &outcome);
    }
    for i in (0..tree.node_count()).step_by(16) {
        let node = NodeId(i as u32);
        if let Some(&site) = tree.node(node).sites().first() {
            tree.mark_infeasible(node, site, true);
        }
    }
    tree
}

/// A hive of `program` holding `tree`: an empty hive's state bytes with
/// `tree`'s encoding in place of the empty tree's.
fn hive_with<'p>(program: &'p Program, tree: &ExecutionTree) -> Hive<'p> {
    let empty = Hive::new(program, HiveConfig::default()).encode_state();
    let mut empty_tree = Vec::new();
    ExecutionTree::new(program.id()).encode_into(&mut empty_tree);
    let (version, rest) = empty.split_at(1);
    assert!(rest.starts_with(&empty_tree));
    let mut state = version.to_vec();
    tree.encode_into(&mut state);
    state.extend_from_slice(&rest[empty_tree.len()..]);
    Hive::decode_state(program, HiveConfig::default(), &state).expect("spliced state decodes")
}

/// Allocations made by `read`, and what it read.
fn allocs_of<T>(read: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = read();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn round_report_reads_do_not_allocate_per_node() {
    let program = looping_program();
    let (small, large) = (tree_of(program.id(), 100), tree_of(program.id(), 20_000));
    let hive = hive_with(&program, &large);
    let (allocs, (coverage, proofs)) = allocs_of(|| hive.coverage_and_proof_count());
    assert!(coverage.nodes >= 20_000);
    assert!(coverage.frontier_arms > 0 && proofs > 0 && coverage.sites_seen == 11);
    assert_eq!(
        allocs, 0,
        "coverage and the proof count allocated {allocs} times on {} nodes",
        coverage.nodes
    );

    // Merging a path the tree already holds, passing or failing,
    // allocates nothing (once its nodes are marked changed since the
    // last snapshot, as the first merge leaves them).
    let mut tree = large.clone();
    let path: Vec<_> = (0..12u32)
        .map(|d| (BranchSiteId::new(d % 10), d % 3 == 0))
        .collect();
    for outcome in [Outcome::Success, Outcome::Hang { stuck: vec![] }] {
        tree.merge_path(&path, &outcome);
        let (allocs, merged) = allocs_of(|| tree.merge_path(&path, &outcome));
        assert_eq!((merged.new_nodes, merged.new_path), (0, false));
        assert_eq!(allocs, 0, "merging a known path allocated {allocs} times");
    }

    // Guidance's frontier pass and the digest grow one buffer each (the
    // arms found, the walk's stack), which may double its way from one
    // size to the other.
    let small_nodes = small.node_count();
    let (small_allocs, small_arms) = allocs_of(|| small.frontier().len());
    let (large_allocs, large_arms) = allocs_of(|| large.frontier().len());
    let doublings = u64::from((large_arms / small_arms).ilog2() + 1);
    assert!(
        large_allocs <= small_allocs + doublings,
        "frontier allocated {small_allocs} times for {small_arms} arms but {large_allocs} for {large_arms}"
    );
    let (small_allocs, _) = allocs_of(|| small.digest());
    let (large_allocs, _) = allocs_of(|| large.digest());
    let doublings = u64::from((coverage.nodes / small_nodes).ilog2() + 1);
    assert!(
        large_allocs <= small_allocs + doublings,
        "digest allocated {small_allocs} times on {small_nodes} nodes but {large_allocs} on {}",
        coverage.nodes
    );
}

/// Bytes requested from the allocator while `f` runs on this thread.
fn bytes_of(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

/// Room for the one formatted error message a refusal carries.
const MESSAGE_BYTES: u64 = 256;

#[test]
fn durable_decoders_allocate_no_more_than_their_input() {
    use softborg::hive::journal::{self, REC_ROUND, SESSION_ROUND};
    use softborg::hive::snapshot::{HiveSnapshot, SNAPSHOT_MAGIC};
    use softborg::pod::{PodDelta, PodState, POD_DELTA_VERSION, POD_STATE_VERSION};
    use softborg::store::chain::{self, CHAIN_MAGIC};
    use softborg::store::record;
    let mut rng = SmallRng::seed_from_u64(45);
    let versioned = |version: u8, body: &[u8]| {
        let mut bytes = vec![version];
        bytes.extend_from_slice(body);
        bytes
    };
    // Batch frames: real payloads, then random counts and index bytes,
    // behind a valid header and checksum.
    let s = scenarios::token_parser();
    let mut pod = Pod::new(
        &s.program,
        PodConfig {
            input_range: s.input_range,
            ..PodConfig::default()
        },
    );
    let payloads: Vec<Vec<u8>> = (0..4)
        .map(|_| wire::encode(&pod.run_once().trace))
        .collect();
    let batch_frame = |count: u32, distinct: u32, body: &[u8]| {
        let mut frame = b"SBF3".to_vec();
        frame.extend_from_slice(&count.to_le_bytes());
        frame.extend_from_slice(&distinct.to_le_bytes());
        frame.extend_from_slice(&(body.len() as u64).to_le_bytes());
        frame.extend_from_slice(body);
        let sum = softborg::obs::checksum(&frame[4..]);
        frame.extend_from_slice(&sum.to_le_bytes());
        frame
    };
    // How many sealed frames validated, and how many failed on an index.
    let (mut valid, mut bad_index) = (0, 0);
    for case in 0..2_000u64 {
        let len = rng.gen_range(0..600);
        let raw: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let mut body = Vec::new();
        for p in &payloads[..rng.gen_range(0..=payloads.len())] {
            body.extend_from_slice(&(p.len() as u32).to_le_bytes());
            body.extend_from_slice(p);
        }
        let indices = rng.gen_range(0..12);
        body.extend(
            (0..indices).map(|_| rng.gen::<u8>() % 6 + 0x80 * u8::from(rng.gen_range(0..8) == 0)),
        );
        let frames = [
            batch_frame(indices as u32, rng.gen_range(0..6), &body),
            batch_frame(rng.gen(), rng.gen(), &raw),
            raw.clone(),
        ];
        for frame in &frames {
            let mut verdict = None;
            let checked = bytes_of(|| verdict = Some(wire::read_batch(frame).map(|_| ())));
            assert_eq!(
                checked, 0,
                "case {case}: batch frame validation allocated {checked} B"
            );
            match verdict.expect("ran") {
                Ok(()) => valid += 1,
                Err(wire::WireError::BadIndex { .. }) => bad_index += 1,
                Err(_) => {}
            }
        }
        // Raw bytes, pod records around them, and round-log records
        // framed around slices of them.
        let mut log = Vec::new();
        for (seq, body) in raw.chunks(rng.gen_range(1..200)).enumerate() {
            journal::append_record(&mut log, REC_ROUND, SESSION_ROUND, seq as u64, body);
        }
        // The same bytes sealed as a chain record and behind a
        // snapshot's magic.
        let mut chain_rec = Vec::new();
        chain::FRAMING.seal(&mut chain_rec, rng.gen_range(0..3), [case, 0], &raw);
        let mut snap = SNAPSHOT_MAGIC.to_vec();
        snap.extend_from_slice(&raw);
        let inputs = [
            raw.clone(),
            versioned(POD_DELTA_VERSION, &raw),
            versioned(POD_STATE_VERSION, &raw),
            log,
            chain_rec,
            snap,
        ];
        for input in &inputs {
            // The one envelope reads in place: it allocates nothing.
            let framed = bytes_of(|| {
                for magic in [&b""[..], CHAIN_MAGIC] {
                    let _ = record::open(input, magic);
                }
                let mut at = 0;
                while let Ok(rec) = journal::FRAMING.read_at(input, at) {
                    at = rec.end;
                }
                let _ = journal::FRAMING.torn_at(input, at);
                let _ = chain::FRAMING.read_at(input, 0);
            });
            assert_eq!(
                framed, 0,
                "case {case}: envelope reads allocated {framed} B"
            );
            // Total: a typed error or a value, never a panic.
            let _ = HiveSnapshot::decode(input);
            let _ = PodState::decode(input);
            let _ = journal::scan(input);
            let bound = input.len() as u64 + MESSAGE_BYTES;
            let delta = bytes_of(|| drop(PodDelta::decode(input)));
            assert!(
                delta <= bound,
                "case {case}: pod delta decode took {delta} B of {bound}"
            );
            let rounds = bytes_of(|| drop(softborg::decode_round_log(input)));
            assert!(
                rounds <= bound,
                "case {case}: round log decode took {rounds} B of {bound}"
            );
        }
    }
    assert!(
        valid > 0 && bad_index > 0,
        "{valid} valid, {bad_index} bad-index frames"
    );
}

/// Allocations while `f` runs on this thread.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn a_journal_scan_allocates_once_per_journal_not_per_record() {
    use softborg::hive::journal::{self, REC_FRAME};
    let journal_of = |records: u64| {
        let mut wal = Vec::new();
        for seq in 0..records {
            journal::append_record(&mut wal, REC_FRAME, 0, seq, &[seq as u8; 40]);
        }
        wal
    };
    let (small, large) = (journal_of(10), journal_of(1_000));
    let mut counts = Vec::new();
    for wal in [&small, &large] {
        let mut scanned = 0;
        counts.push(allocs_during(|| scanned = journal::scan(wal).0.len()));
        assert_eq!(scanned, wal.len() / journal::FRAMING.record_len(40));
    }
    assert_eq!(counts, [1, 1], "the record list, and nothing per record");
}
