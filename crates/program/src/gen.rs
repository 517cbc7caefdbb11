//! Seeded random program generation with ground-truth bug injection.
//!
//! The population experiments need many distinct programs whose bugs are
//! *known* (kind, location, trigger), so that detection/localization can be
//! scored. [`generate`] produces a structurally random multi-threaded
//! program and weaves in the requested [`BugKind`]s; each injected bug is
//! reported as a [`KnownBug`] with its resolved location.
//!
//! Bug constructs embed a distinctive *marker constant* so their location
//! can be recovered after the builder renumbers blocks; markers are chosen
//! far outside the expression-constant range, and the XOR-identity trick
//! (`(x ^ m) != (v ^ m)` ⟺ `x != v`) lets a marker appear in a condition
//! without changing its meaning.

use crate::builder::{ProgramBuilder, ThreadBuilder};
use crate::cfg::{global, local, Loc, Program, Stmt, SyscallKind, Terminator};
use crate::expr::{BinOp, Expr};
use crate::ids::{GlobalId, InputId, LockId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Base for marker constants; anything at/above this is a bug marker.
pub const MARKER_BASE: i64 = 770_000;

/// The injectable bug classes (paper, §1/§3.3's running examples:
/// crashes, deadlocks, races, hangs, mishandled syscall errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BugKind {
    /// `assert(input != v)` — crashes on a rare input value.
    AssertMagic,
    /// `x := C / (input - v)` — division by zero on a rare input value.
    DivByInputDelta,
    /// Two threads acquire two locks in opposite order — schedule-dependent
    /// deadlock.
    LockInversion,
    /// Unsynchronized writes to a shared global under a rare input — data
    /// race (flagged by analysis, no failing outcome by itself).
    DataRace,
    /// A loop that diverges on a rare input value — hang.
    InfiniteLoop,
    /// `read()` result assumed complete — crashes when the environment
    /// returns a short read.
    ShortRead,
    /// A loop that `open`s a descriptor per iteration and never releases
    /// it — starves the descriptor table, then crashes mishandling the
    /// failed `open` (visible under [`crate::syscall::EnvConfig::fd_limit`]).
    ResourceLeak,
    /// Two retry loops that undo each other's progress on a rare input:
    /// one thread ratchets a shared handshake flag toward its exit
    /// condition while the other "recovers" by resetting it every
    /// iteration. Both threads stay runnable and the flag keeps
    /// changing, but neither makes progress — a livelock (observed as a
    /// hang with no blocked threads).
    Livelock,
}

impl BugKind {
    /// All bug kinds.
    pub const ALL: [BugKind; 8] = [
        BugKind::AssertMagic,
        BugKind::DivByInputDelta,
        BugKind::LockInversion,
        BugKind::DataRace,
        BugKind::InfiniteLoop,
        BugKind::ShortRead,
        BugKind::ResourceLeak,
        BugKind::Livelock,
    ];
}

impl std::fmt::Display for BugKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BugKind::AssertMagic => "assert-magic",
            BugKind::DivByInputDelta => "div-by-input",
            BugKind::LockInversion => "lock-inversion",
            BugKind::DataRace => "data-race",
            BugKind::InfiniteLoop => "infinite-loop",
            BugKind::ShortRead => "short-read",
            BugKind::ResourceLeak => "resource-leak",
            BugKind::Livelock => "livelock",
        };
        f.write_str(s)
    }
}

/// Ground truth about one injected (or hand-written) bug.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnownBug {
    /// Bug class.
    pub kind: BugKind,
    /// The marker constant embedded at the bug site (`0` when the bug has
    /// no single site, e.g. lock inversions).
    pub marker: i64,
    /// Locks involved (lock-inversion bugs).
    pub locks: Vec<LockId>,
    /// Shared global involved (data-race bugs).
    pub global: Option<GlobalId>,
    /// Input cell whose value triggers the bug, if input-triggered.
    pub input: Option<InputId>,
    /// The triggering value of that input cell.
    pub trigger_value: Option<i64>,
    /// Resolved location of the bug site (crash/hang site), when one
    /// exists.
    pub loc: Option<Loc>,
    /// Human-readable description.
    pub description: String,
}

impl KnownBug {
    /// An input vector that triggers the bug, given a baseline vector of
    /// benign values. Returns `None` for bugs not triggered by inputs
    /// (lock inversions, short reads).
    pub fn triggering_inputs(&self, baseline: &[i64]) -> Option<Vec<i64>> {
        let (i, v) = (self.input?, self.trigger_value?);
        let mut inputs = baseline.to_vec();
        *inputs.get_mut(i.index())? = v;
        Some(inputs)
    }
}

/// Configuration for [`generate`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenConfig {
    /// Seed for all structural and value choices.
    pub seed: u64,
    /// Number of threads (forced to ≥2 when a `LockInversion` or
    /// `DataRace` bug is requested).
    pub n_threads: u32,
    /// Number of input cells.
    pub n_inputs: u32,
    /// Inclusive range inputs are drawn from under the natural
    /// distribution (also the range trigger values hide in).
    pub input_range: (i64, i64),
    /// Top-level constructs generated per thread (besides bug constructs).
    pub constructs_per_thread: u32,
    /// Maximum nesting depth of generated control flow.
    pub max_depth: u32,
    /// Number of benign locks available to random lock regions.
    pub n_locks: u32,
    /// Number of benign shared globals.
    pub n_globals: u32,
    /// Bugs to inject, in order.
    pub bugs: Vec<BugKind>,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            seed: 0,
            n_threads: 2,
            n_inputs: 4,
            input_range: (0, 999),
            constructs_per_thread: 10,
            max_depth: 3,
            n_locks: 2,
            n_globals: 3,
            bugs: Vec::new(),
        }
    }
}

/// A generated program together with its ground-truth bugs.
#[derive(Debug, Clone)]
pub struct GeneratedProgram {
    /// The program.
    pub program: Program,
    /// Ground truth for every injected bug.
    pub bugs: Vec<KnownBug>,
    /// The input range the program was generated for.
    pub input_range: (i64, i64),
}

impl GeneratedProgram {
    /// Samples a "natural" input vector: uniform over the input range.
    pub fn sample_inputs(&self, rng: &mut impl Rng) -> Vec<i64> {
        sample_inputs(self.program.n_inputs, self.input_range, rng)
    }
}

/// Samples `n` inputs uniformly from `range` (the model of end-user inputs;
/// bug triggers are single points, so natural trigger probability is
/// `1/(hi-lo+1)` per constrained cell).
pub fn sample_inputs(n: u32, range: (i64, i64), rng: &mut impl Rng) -> Vec<i64> {
    (0..n).map(|_| rng.gen_range(range.0..=range.1)).collect()
}

/// What a thread body is made of, planned before emission.
enum Construct {
    Random { depth: u32 },
    Bug { index: usize },
}

/// Generates a program per `config`. See the [module docs](self).
pub fn generate(config: &GenConfig) -> GeneratedProgram {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let needs_two_threads = config.bugs.iter().any(|b| {
        matches!(
            b,
            BugKind::LockInversion | BugKind::DataRace | BugKind::Livelock
        )
    });
    let n_threads = if needs_two_threads {
        config.n_threads.max(2)
    } else {
        config.n_threads.max(1)
    };

    // Resource layout:
    // locals: [0..max_depth) loop counters, [max_depth..) scratch (4 cells)
    // globals: [0..n_globals) benign, one extra per DataRace bug
    // locks: [0..n_locks) benign, two extra per LockInversion bug
    let n_scratch = 4u32;
    let n_locals = config.max_depth + n_scratch;
    let mut n_globals = config.n_globals;
    let mut n_locks = config.n_locks;

    // Pre-plan bugs: allocate resources and markers.
    let mut bugs: Vec<KnownBug> = Vec::new();
    for (k, kind) in config.bugs.iter().enumerate() {
        let marker = MARKER_BASE + k as i64;
        let input = InputId::new(rng.gen_range(0..config.n_inputs.max(1)));
        let trigger = rng.gen_range(config.input_range.0..=config.input_range.1);
        let bug = match kind {
            BugKind::AssertMagic => KnownBug {
                kind: *kind,
                marker,
                locks: vec![],
                global: None,
                input: Some(input),
                trigger_value: Some(trigger),
                loc: None,
                description: format!("assert fails when {input} == {trigger}"),
            },
            BugKind::DivByInputDelta => KnownBug {
                kind: *kind,
                marker,
                locks: vec![],
                global: None,
                input: Some(input),
                trigger_value: Some(trigger),
                loc: None,
                description: format!("division by zero when {input} == {trigger}"),
            },
            BugKind::LockInversion => {
                let la = LockId::new(n_locks);
                let lb = LockId::new(n_locks + 1);
                n_locks += 2;
                KnownBug {
                    kind: *kind,
                    marker: 0,
                    locks: vec![la, lb],
                    global: None,
                    input: None,
                    trigger_value: None,
                    loc: None,
                    description: format!("lock inversion on {la},{lb} across threads"),
                }
            }
            BugKind::DataRace => {
                let g = GlobalId::new(n_globals);
                n_globals += 1;
                KnownBug {
                    kind: *kind,
                    marker,
                    locks: vec![],
                    global: Some(g),
                    input: Some(input),
                    trigger_value: Some(trigger),
                    loc: None,
                    description: format!("unsynchronized access to {g} when {input} < {trigger}"),
                }
            }
            BugKind::InfiniteLoop => KnownBug {
                kind: *kind,
                marker,
                locks: vec![],
                global: None,
                input: Some(input),
                trigger_value: Some(trigger),
                loc: None,
                description: format!("loop diverges when {input} == {trigger}"),
            },
            BugKind::ShortRead => KnownBug {
                kind: *kind,
                marker,
                locks: vec![],
                global: None,
                input: None,
                trigger_value: None,
                loc: None,
                description: "short read mishandled (crash under env fault)".into(),
            },
            BugKind::ResourceLeak => KnownBug {
                kind: *kind,
                marker,
                locks: vec![],
                global: None,
                input: None,
                trigger_value: None,
                loc: None,
                description: "descriptors opened in a loop, never closed (starves under fd_limit)"
                    .into(),
            },
            BugKind::Livelock => {
                let g = GlobalId::new(n_globals);
                n_globals += 1;
                KnownBug {
                    kind: *kind,
                    marker,
                    locks: vec![],
                    global: Some(g),
                    input: Some(input),
                    trigger_value: Some(trigger),
                    loc: None,
                    description: format!(
                        "retry loops undo each other's handshake on {g} when {input} == {trigger} (livelock)"
                    ),
                }
            }
        };
        bugs.push(bug);
    }

    // Plan per-thread construct sequences: random constructs with bug
    // constructs spliced at random positions. Lock inversions and data
    // races contribute a construct to *two* threads.
    let mut plans: Vec<Vec<Construct>> = (0..n_threads)
        .map(|_| {
            (0..config.constructs_per_thread)
                .map(|_| Construct::Random { depth: 0 })
                .collect()
        })
        .collect();
    // Track which "half" of a two-sided bug a thread hosts via a parallel
    // assignment table: (bug index) -> (thread_a, thread_b).
    let mut pair_threads: Vec<Option<(u32, u32)>> = vec![None; bugs.len()];
    for (k, bug) in bugs.iter().enumerate() {
        match bug.kind {
            BugKind::LockInversion | BugKind::DataRace | BugKind::Livelock => {
                let ta = rng.gen_range(0..n_threads);
                let mut tb = rng.gen_range(0..n_threads);
                if tb == ta {
                    tb = (ta + 1) % n_threads;
                }
                pair_threads[k] = Some((ta, tb));
                let pa = rng.gen_range(0..=plans[ta as usize].len());
                plans[ta as usize].insert(pa, Construct::Bug { index: k });
                let pb = rng.gen_range(0..=plans[tb as usize].len());
                plans[tb as usize].insert(pb, Construct::Bug { index: k });
            }
            _ => {
                let t = rng.gen_range(0..n_threads);
                let p = rng.gen_range(0..=plans[t as usize].len());
                plans[t as usize].insert(p, Construct::Bug { index: k });
            }
        }
    }

    let mut pb = ProgramBuilder::new(format!("gen-{:#x}", config.seed));
    pb.inputs(config.n_inputs)
        .locals(n_locals)
        .globals(n_globals)
        .locks(n_locks);

    for (ti, plan) in plans.iter().enumerate() {
        // Each thread gets its own derived RNG so adding threads does not
        // reshuffle earlier ones.
        let mut trng = SmallRng::seed_from_u64(config.seed ^ (0x5151 + ti as u64));
        pb.thread(|t| {
            let mut ctx = GenCtx {
                rng: &mut trng,
                config,
                n_scratch,
                n_globals: config.n_globals, // benign globals only
                n_locks: config.n_locks,     // benign locks only
            };
            for c in plan {
                match c {
                    Construct::Random { depth } => ctx.gen_construct(t, *depth),
                    Construct::Bug { index } => {
                        let bug = &bugs[*index];
                        let first_half = pair_threads[*index]
                            .map(|(ta, _)| ta as usize == ti)
                            .unwrap_or(true);
                        ctx.emit_bug(t, bug, first_half);
                    }
                }
            }
        });
    }

    let program = pb
        .build()
        .expect("generator invariant: generated programs are well-formed");

    // Resolve marker locations now that blocks are final.
    for bug in &mut bugs {
        if bug.marker != 0 {
            bug.loc = find_marker_loc(&program, bug.marker);
        }
    }

    GeneratedProgram {
        program,
        bugs,
        input_range: config.input_range,
    }
}

/// Finds the location of the statement or terminator whose expression
/// contains the literal `marker`.
fn find_marker_loc(program: &Program, marker: i64) -> Option<Loc> {
    fn expr_has(e: &Expr, marker: i64) -> bool {
        let mut found = false;
        e.visit(&mut |x| {
            if matches!(x, Expr::Const(c) if *c == marker) {
                found = true;
            }
        });
        found
    }
    for (t, b, blk) in program.blocks() {
        for (si, stmt) in blk.stmts.iter().enumerate() {
            let hit = match stmt {
                Stmt::Assign(_, e) | Stmt::Assert(e) | Stmt::Emit(e) => expr_has(e, marker),
                Stmt::Syscall { arg, .. } => expr_has(arg, marker),
                _ => false,
            };
            if hit {
                return Some(Loc {
                    thread: t,
                    block: b,
                    stmt: si as u32,
                });
            }
        }
        if let Terminator::Branch { cond, .. } = &blk.term {
            if expr_has(cond, marker) {
                return Some(Loc {
                    thread: t,
                    block: b,
                    stmt: blk.stmts.len() as u32,
                });
            }
        }
    }
    None
}

/// Finds the first `Assign` whose expression contains a division — used by
/// hand-written scenarios to resolve their div-by-zero bug location.
pub fn find_div_loc(program: &Program) -> Option<Loc> {
    for (t, b, blk) in program.blocks() {
        for (si, stmt) in blk.stmts.iter().enumerate() {
            if let Stmt::Assign(_, e) = stmt {
                let mut has_div = false;
                e.visit(&mut |x| {
                    if matches!(x, Expr::Bin(BinOp::Div, _, _)) {
                        has_div = true;
                    }
                });
                if has_div {
                    return Some(Loc {
                        thread: t,
                        block: b,
                        stmt: si as u32,
                    });
                }
            }
        }
    }
    None
}

/// Finds the first `Assert` whose expression contains the literal `value`
/// — used by hand-written scenarios to resolve assertion bug locations.
pub fn find_assert_loc(program: &Program, value: i64) -> Option<Loc> {
    for (t, b, blk) in program.blocks() {
        for (si, stmt) in blk.stmts.iter().enumerate() {
            if let Stmt::Assert(e) = stmt {
                let mut hit = false;
                e.visit(&mut |x| {
                    if matches!(x, Expr::Const(c) if *c == value) {
                        hit = true;
                    }
                });
                if hit {
                    return Some(Loc {
                        thread: t,
                        block: b,
                        stmt: si as u32,
                    });
                }
            }
        }
    }
    None
}

struct GenCtx<'a> {
    rng: &'a mut SmallRng,
    config: &'a GenConfig,
    n_scratch: u32,
    n_globals: u32,
    n_locks: u32,
}

impl GenCtx<'_> {
    fn scratch(&mut self) -> u32 {
        self.config.max_depth + self.rng.gen_range(0..self.n_scratch)
    }

    /// A small side-effect-free expression over inputs/locals/globals.
    fn gen_value_expr(&mut self, depth: u32) -> Expr {
        if depth >= 2 || self.rng.gen_bool(0.45) {
            return match self.rng.gen_range(0..4) {
                0 => Expr::Const(self.rng.gen_range(-100..100)),
                1 if self.config.n_inputs > 0 => {
                    Expr::input(self.rng.gen_range(0..self.config.n_inputs))
                }
                2 if self.n_globals > 0 => Expr::global(self.rng.gen_range(0..self.n_globals)),
                _ => Expr::local(self.scratch()),
            };
        }
        let op = match self.rng.gen_range(0..6) {
            0 => BinOp::Add,
            1 => BinOp::Sub,
            2 => BinOp::BitAnd,
            3 => BinOp::BitOr,
            4 => BinOp::BitXor,
            _ => BinOp::Mul,
        };
        Expr::bin(
            op,
            self.gen_value_expr(depth + 1),
            self.gen_value_expr(depth + 1),
        )
    }

    /// A branch condition: mostly linear comparisons against constants in
    /// the input range, occasionally a modular test.
    fn gen_cond(&mut self) -> Expr {
        let (lo, hi) = self.config.input_range;
        let subject = match self.rng.gen_range(0..3) {
            0 if self.config.n_inputs > 0 => {
                Expr::input(self.rng.gen_range(0..self.config.n_inputs))
            }
            1 if self.n_globals > 0 => Expr::global(self.rng.gen_range(0..self.n_globals)),
            _ => Expr::local(self.scratch()),
        };
        if self.rng.gen_bool(0.2) {
            let m = self.rng.gen_range(2..7);
            let r = self.rng.gen_range(0..m);
            return Expr::eq(
                Expr::bin(BinOp::Rem, subject, Expr::Const(m)),
                Expr::Const(r),
            );
        }
        let rel = match self.rng.gen_range(0..4) {
            0 => BinOp::Lt,
            1 => BinOp::Le,
            2 => BinOp::Gt,
            _ => BinOp::Ge,
        };
        Expr::bin(rel, subject, Expr::Const(self.rng.gen_range(lo..=hi)))
    }

    fn gen_construct(&mut self, t: &mut ThreadBuilder, depth: u32) {
        let roll = self.rng.gen_range(0..100);
        if depth >= self.config.max_depth {
            // Only straight-line constructs at max depth.
            let e = self.gen_value_expr(0);
            if roll < 70 {
                t.assign(local(self.scratch()), e);
            } else {
                t.emit(e);
            }
            return;
        }
        match roll {
            0..=34 => {
                let e = self.gen_value_expr(0);
                t.assign(local(self.scratch()), e);
            }
            35..=54 => {
                let cond = self.gen_cond();
                let n_then = self.rng.gen_range(1..3);
                let n_else = self.rng.gen_range(0..2);
                let mut frame = t.if_open(cond);
                for _ in 0..n_then {
                    self.gen_construct(t, depth + 1);
                }
                t.if_mark_else(&mut frame);
                for _ in 0..n_else {
                    self.gen_construct(t, depth + 1);
                }
                t.if_close(frame);
            }
            55..=64 => {
                // Bounded counter loop using the depth-reserved local.
                let counter = local(depth);
                let k = self.rng.gen_range(1..5);
                let n_body = self.rng.gen_range(1..3);
                t.assign(counter, Expr::Const(0));
                let frame = t.loop_open(Expr::lt(Expr::Load(counter), Expr::Const(k)));
                for _ in 0..n_body {
                    self.gen_construct(t, depth + 1);
                }
                t.assign(
                    counter,
                    Expr::bin(BinOp::Add, Expr::Load(counter), Expr::Const(1)),
                );
                t.loop_close(frame);
            }
            65..=74 if self.n_locks > 0 && self.n_globals > 0 => {
                // A properly-nested lock region protecting a global update.
                let l = self.rng.gen_range(0..self.n_locks);
                let g = self.rng.gen_range(0..self.n_globals);
                let e = self.gen_value_expr(1);
                t.lock(l);
                t.assign(global(g), e);
                t.unlock(l);
            }
            75..=84 => {
                let dst = local(self.scratch());
                let kind = match self.rng.gen_range(0..3) {
                    0 => SyscallKind::Time,
                    1 => SyscallKind::Random,
                    _ => SyscallKind::Write,
                };
                t.syscall(kind, Expr::Const(self.rng.gen_range(1..64)), dst);
            }
            85..=94 => {
                let e = self.gen_value_expr(0);
                t.emit(e);
            }
            _ => {
                t.yield_();
            }
        }
    }

    fn emit_bug(&mut self, t: &mut ThreadBuilder, bug: &KnownBug, first_half: bool) {
        match bug.kind {
            BugKind::AssertMagic => {
                let (i, v, m) = (
                    bug.input.expect("assert bug has input"),
                    bug.trigger_value.expect("assert bug has trigger"),
                    bug.marker,
                );
                // (in ^ m) != (v ^ m)  <=>  in != v ; the marker makes the
                // site findable post-build.
                t.assert_(Expr::bin(
                    BinOp::Ne,
                    Expr::bin(BinOp::BitXor, Expr::Input(i), Expr::Const(m)),
                    Expr::Const(v ^ m),
                ));
            }
            BugKind::DivByInputDelta => {
                let (i, v, m) = (
                    bug.input.expect("div bug has input"),
                    bug.trigger_value.expect("div bug has trigger"),
                    bug.marker,
                );
                t.assign(
                    local(self.scratch()),
                    Expr::bin(
                        BinOp::Div,
                        Expr::Const(m),
                        Expr::bin(BinOp::Sub, Expr::Input(i), Expr::Const(v)),
                    ),
                );
            }
            BugKind::InfiniteLoop => {
                let (i, v, m) = (
                    bug.input.expect("loop bug has input"),
                    bug.trigger_value.expect("loop bug has trigger"),
                    bug.marker,
                );
                let counter = local(0);
                t.assign(counter, Expr::Const(0));
                t.while_loop(
                    Expr::bin(
                        BinOp::Or,
                        Expr::lt(Expr::Load(counter), Expr::Const(3)),
                        Expr::eq(
                            Expr::bin(BinOp::BitXor, Expr::Input(i), Expr::Const(m)),
                            Expr::Const(v ^ m),
                        ),
                    ),
                    |t| {
                        t.assign(
                            counter,
                            Expr::bin(BinOp::Add, Expr::Load(counter), Expr::Const(1)),
                        );
                        t.yield_();
                    },
                );
            }
            BugKind::LockInversion => {
                let (la, lb) = (bug.locks[0], bug.locks[1]);
                let (first, second) = if first_half { (la, lb) } else { (lb, la) };
                t.lock(first.0);
                t.yield_();
                t.lock(second.0);
                t.unlock(second.0);
                t.unlock(first.0);
            }
            BugKind::DataRace => {
                let g = bug.global.expect("race bug has global");
                let (i, v) = (
                    bug.input.expect("race bug has input"),
                    bug.trigger_value.expect("race bug has trigger"),
                );
                // Unsynchronized read-modify-write under a common input
                // condition: both threads racing on the same global.
                let delta = if first_half { 1 } else { 2 };
                t.if_then(Expr::lt(Expr::Input(i), Expr::Const(v)), |t| {
                    t.assign(
                        Place::Global(g),
                        Expr::bin(BinOp::Add, Expr::Load(Place::Global(g)), Expr::Const(delta)),
                    );
                    t.yield_();
                });
            }
            BugKind::ShortRead => {
                let m = bug.marker;
                let dst = local(self.scratch());
                t.syscall(SyscallKind::Read, Expr::Const(64), dst);
                // (ret ^ m) == (64 ^ m)  <=>  ret == 64
                t.assert_(Expr::eq(
                    Expr::bin(BinOp::BitXor, Expr::Load(dst), Expr::Const(m)),
                    Expr::Const(64 ^ m),
                ));
            }
            BugKind::ResourceLeak => {
                let m = bug.marker;
                let dst = local(self.scratch());
                let counter = local(0);
                t.assign(counter, Expr::Const(0));
                t.while_loop(Expr::lt(Expr::Load(counter), Expr::Const(4)), |t| {
                    t.syscall(SyscallKind::Open, Expr::Const(0), dst);
                    // Bug: nothing is ever closed, and the exhausted-table
                    // path (`open == -1`) is asserted away, not handled.
                    // (ret ^ m) != ((-1) ^ m)  <=>  ret != -1
                    t.assert_(Expr::bin(
                        BinOp::Ne,
                        Expr::bin(BinOp::BitXor, Expr::Load(dst), Expr::Const(m)),
                        Expr::Const((-1) ^ m),
                    ));
                    t.assign(
                        counter,
                        Expr::bin(BinOp::Add, Expr::Load(counter), Expr::Const(1)),
                    );
                });
            }
            BugKind::Livelock => {
                let g = bug.global.expect("livelock bug has global");
                let (i, v, m) = (
                    bug.input.expect("livelock bug has input"),
                    bug.trigger_value.expect("livelock bug has trigger"),
                    bug.marker,
                );
                // (in ^ m) == (v ^ m)  <=>  in == v ; marker makes the
                // sites findable post-build.
                let triggered = Expr::eq(
                    Expr::bin(BinOp::BitXor, Expr::Input(i), Expr::Const(m)),
                    Expr::Const(v ^ m),
                );
                let counter = local(0);
                t.assign(counter, Expr::Const(0));
                let stay = if first_half {
                    // Ratchets the handshake toward its exit condition
                    // (g reaches 2)...
                    Expr::bin(
                        BinOp::And,
                        triggered,
                        Expr::lt(Expr::Load(Place::Global(g)), Expr::Const(2)),
                    )
                } else {
                    // ...while the peer's "recovery" retry keeps
                    // resetting it, so neither loop ever exits.
                    triggered
                };
                t.while_loop(
                    Expr::bin(
                        BinOp::Or,
                        Expr::lt(Expr::Load(counter), Expr::Const(3)),
                        stay,
                    ),
                    |t| {
                        if first_half {
                            t.assign(
                                Place::Global(g),
                                Expr::bin(BinOp::Add, Expr::Load(Place::Global(g)), Expr::Const(1)),
                            );
                        } else {
                            t.assign(Place::Global(g), Expr::Const(0));
                        }
                        t.yield_();
                        t.assign(
                            counter,
                            Expr::bin(BinOp::Add, Expr::Load(counter), Expr::Const(1)),
                        );
                    },
                );
            }
        }
    }
}

use crate::expr::Place;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{ExecConfig, Executor, NopObserver, Outcome};
    use crate::overlay::Overlay;
    use crate::sched::{RandomSched, RoundRobin};
    use crate::syscall::{DefaultEnv, EnvConfig};

    fn run(gp: &GeneratedProgram, inputs: &[i64], seed: u64, env: EnvConfig) -> Outcome {
        Executor::new(&gp.program)
            .with_config(ExecConfig { max_steps: 50_000 })
            .run(
                inputs,
                &mut DefaultEnv::new(env),
                &mut RandomSched::seeded(seed),
                &Overlay::empty(),
                &mut NopObserver,
            )
            .unwrap()
            .outcome
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig {
            seed: 11,
            bugs: vec![BugKind::AssertMagic, BugKind::LockInversion],
            ..GenConfig::default()
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.program, b.program);
        assert_eq!(a.bugs, b.bugs);
    }

    #[test]
    fn generated_programs_validate_across_seeds() {
        for seed in 0..30 {
            let cfg = GenConfig {
                seed,
                bugs: vec![BugKind::AssertMagic, BugKind::DivByInputDelta],
                ..GenConfig::default()
            };
            let gp = generate(&cfg);
            gp.program.validate().unwrap();
            assert!(gp.program.n_branch_sites > 0, "seed {seed} has no branches");
        }
    }

    #[test]
    fn assert_magic_bug_triggers_on_trigger_input() {
        let cfg = GenConfig {
            seed: 3,
            n_threads: 1,
            bugs: vec![BugKind::AssertMagic],
            ..GenConfig::default()
        };
        let gp = generate(&cfg);
        let bug = &gp.bugs[0];
        assert!(bug.loc.is_some(), "marker location must resolve");
        let baseline = vec![500; gp.program.n_inputs as usize];
        let trigger = bug.triggering_inputs(&baseline).unwrap();
        let out = run(&gp, &trigger, 0, EnvConfig::default());
        assert!(
            matches!(out, Outcome::Crash { .. }),
            "expected crash, got {out:?}"
        );
    }

    #[test]
    fn div_bug_crashes_only_on_trigger() {
        let cfg = GenConfig {
            seed: 5,
            n_threads: 1,
            bugs: vec![BugKind::DivByInputDelta],
            ..GenConfig::default()
        };
        let gp = generate(&cfg);
        let bug = &gp.bugs[0];
        let baseline = vec![1; gp.program.n_inputs as usize];
        // Pick a benign value different from the trigger.
        let benign: Vec<i64> = baseline
            .iter()
            .enumerate()
            .map(|(i, v)| {
                if Some(InputId::new(i as u32)) == bug.input {
                    bug.trigger_value.unwrap() + 1
                } else {
                    *v
                }
            })
            .collect();
        assert!(!run(&gp, &benign, 0, EnvConfig::default()).is_failure());
        let trigger = bug.triggering_inputs(&baseline).unwrap();
        assert!(matches!(
            run(&gp, &trigger, 0, EnvConfig::default()),
            Outcome::Crash { .. }
        ));
    }

    #[test]
    fn infinite_loop_bug_hangs_on_trigger() {
        let cfg = GenConfig {
            seed: 7,
            n_threads: 1,
            constructs_per_thread: 3,
            bugs: vec![BugKind::InfiniteLoop],
            ..GenConfig::default()
        };
        let gp = generate(&cfg);
        let bug = &gp.bugs[0];
        let baseline = vec![0; gp.program.n_inputs as usize];
        let trigger = bug.triggering_inputs(&baseline).unwrap();
        let out = run(&gp, &trigger, 0, EnvConfig::default());
        assert!(matches!(out, Outcome::Hang { .. }), "got {out:?}");
    }

    #[test]
    fn lock_inversion_bug_deadlocks_under_some_schedule() {
        let cfg = GenConfig {
            seed: 13,
            constructs_per_thread: 2,
            bugs: vec![BugKind::LockInversion],
            ..GenConfig::default()
        };
        let gp = generate(&cfg);
        let inputs = vec![500; gp.program.n_inputs as usize];
        let mut saw_deadlock = false;
        for seed in 0..300 {
            if matches!(
                run(&gp, &inputs, seed, EnvConfig::default()),
                Outcome::Deadlock { .. }
            ) {
                saw_deadlock = true;
                break;
            }
        }
        assert!(saw_deadlock, "no deadlock in 300 random schedules");
    }

    #[test]
    fn short_read_bug_crashes_under_env_fault() {
        let cfg = GenConfig {
            seed: 17,
            n_threads: 1,
            constructs_per_thread: 2,
            bugs: vec![BugKind::ShortRead],
            ..GenConfig::default()
        };
        let gp = generate(&cfg);
        let inputs = vec![1; gp.program.n_inputs as usize];
        // No fault: fine.
        assert!(!run(&gp, &inputs, 0, EnvConfig::default()).is_failure());
        // Always-short reads: crash.
        let out = run(
            &gp,
            &inputs,
            0,
            EnvConfig {
                short_read_per_mille: 1000,
                ..EnvConfig::default()
            },
        );
        assert!(matches!(out, Outcome::Crash { .. }), "got {out:?}");
    }

    #[test]
    fn resource_leak_bug_starves_only_under_a_descriptor_limit() {
        let cfg = GenConfig {
            seed: 19,
            n_threads: 1,
            constructs_per_thread: 2,
            bugs: vec![BugKind::ResourceLeak],
            ..GenConfig::default()
        };
        let gp = generate(&cfg);
        let inputs = vec![1; gp.program.n_inputs as usize];
        // Unlimited descriptor table: the leak is invisible.
        assert!(!run(&gp, &inputs, 0, EnvConfig::default()).is_failure());
        // A 3-slot table: the loop's fourth open returns -1 and the
        // unhandled failure path crashes at the marked site.
        let out = run(
            &gp,
            &inputs,
            0,
            EnvConfig {
                fd_limit: 3,
                ..EnvConfig::default()
            },
        );
        assert!(matches!(out, Outcome::Crash { .. }), "got {out:?}");
        assert!(gp.bugs[0].loc.is_some(), "marker did not resolve");
    }

    #[test]
    fn livelock_bug_hangs_on_trigger_with_no_blocked_thread() {
        let cfg = GenConfig {
            seed: 37,
            constructs_per_thread: 2,
            bugs: vec![BugKind::Livelock],
            ..GenConfig::default()
        };
        let gp = generate(&cfg);
        let bug = &gp.bugs[0];
        assert!(
            bug.global.is_some(),
            "livelock allocates a handshake global"
        );
        assert!(bug.loc.is_some(), "marker location must resolve");
        let baseline = vec![1; gp.program.n_inputs as usize];
        // A benign value different from the trigger: both retry loops
        // run their warmup and terminate.
        let benign: Vec<i64> = baseline
            .iter()
            .enumerate()
            .map(|(i, v)| {
                if Some(InputId::new(i as u32)) == bug.input {
                    bug.trigger_value.unwrap() + 1
                } else {
                    *v
                }
            })
            .collect();
        assert!(!run(&gp, &benign, 0, EnvConfig::default()).is_failure());
        // On the trigger the loops sustain each other: a hang, not a
        // deadlock — the threads are spinning, not blocked on locks.
        let trigger = bug.triggering_inputs(&baseline).unwrap();
        let out = run(&gp, &trigger, 0, EnvConfig::default());
        assert!(matches!(out, Outcome::Hang { .. }), "got {out:?}");
    }

    #[test]
    fn benign_inputs_mostly_succeed() {
        let cfg = GenConfig {
            seed: 23,
            bugs: vec![BugKind::AssertMagic],
            ..GenConfig::default()
        };
        let gp = generate(&cfg);
        let mut rng = SmallRng::seed_from_u64(99);
        let mut failures = 0;
        for i in 0..100 {
            let inputs = gp.sample_inputs(&mut rng);
            if run(&gp, &inputs, i, EnvConfig::default()).is_failure() {
                failures += 1;
            }
        }
        assert!(failures < 20, "too many natural failures: {failures}");
    }

    #[test]
    fn find_marker_loc_points_at_bug_stmt() {
        let cfg = GenConfig {
            seed: 29,
            n_threads: 1,
            bugs: vec![BugKind::AssertMagic],
            ..GenConfig::default()
        };
        let gp = generate(&cfg);
        let loc = gp.bugs[0].loc.expect("resolved");
        let blk = &gp.program.threads[loc.thread.index()].blocks[loc.block.index()];
        assert!(matches!(blk.stmts[loc.stmt as usize], Stmt::Assert(_)));
    }

    #[test]
    fn sample_inputs_stay_in_range() {
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..50 {
            let v = sample_inputs(8, (10, 20), &mut rng);
            assert_eq!(v.len(), 8);
            assert!(v.iter().all(|x| (10..=20).contains(x)));
        }
    }

    #[test]
    fn deterministic_runs_with_round_robin() {
        // A generated single-threaded program under RoundRobin is fully
        // deterministic end to end.
        let cfg = GenConfig {
            seed: 31,
            n_threads: 1,
            ..GenConfig::default()
        };
        let gp = generate(&cfg);
        let inputs = vec![42; gp.program.n_inputs as usize];
        let mut exec = Executor::new(&gp.program);
        let r1 = exec
            .run(
                &inputs,
                &mut DefaultEnv::seeded(1),
                &mut RoundRobin::new(),
                &Overlay::empty(),
                &mut NopObserver,
            )
            .unwrap();
        let r2 = exec
            .run(
                &inputs,
                &mut DefaultEnv::seeded(1),
                &mut RoundRobin::new(),
                &Overlay::empty(),
                &mut NopObserver,
            )
            .unwrap();
        assert_eq!(r1, r2);
    }
}
