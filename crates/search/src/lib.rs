//! softborg-search: whole-cluster fault search in virtual time.
//!
//! The paper's thesis is that debugging information is worth recycling:
//! every failure a fleet observes should come back as a checked,
//! replayable artifact rather than a log line. This crate closes that
//! loop for the simulated platform itself. It sweeps a structured fault
//! space (crash instants, partition windows, duplication and reorder
//! knobs) over the virtual-time cluster simulation, judges every run
//! against robustness oracles, and — when a run is wrong — *recycles*
//! the failure: the offending plan is delta-debugged to a locally
//! minimal reproducer, the first divergent scheduler dispatch is
//! bisected out of the trace-hash prefix structure, the flight
//! recorders are diffed into a first-divergent-event report, and the
//! whole bundle is persisted as a corpus entry that replays byte for
//! byte as a regression test.
//!
//! The pipeline, one case at a time:
//!
//! 1. [`generate_plan`] derives case `i` of a seeded sweep — a pure
//!    function of `(seed, i)`, so any case is regenerable forever.
//! 2. [`Workload::run`] executes the campaign under the plan in virtual
//!    time; an identical prefix re-run checks replay stability.
//! 3. [`oracle::check`] applies the invariant ladder (completion, no
//!    shedding, exact delivery, journal boundedness, ledger agreement,
//!    byte-identity with the fault-free run).
//! 4. On failure, [`shrink`] walks [`FaultPlan::shrink_candidates`] to
//!    a minimal still-failing plan, [`first_divergence`] localizes the
//!    first divergent dispatch, and [`explain_recorders`] names the
//!    first divergent recorded event.
//! 5. The minimized failure is written to the divergence corpus;
//!    [`replay_corpus`] re-verifies every stored entry and is wired
//!    into CI as a regression gate.
//!
//! Ground truth for the machinery comes from *canary bugs*
//! ([`softborg_hive::CanaryBug`]): three real recovery bugs kept behind
//! a config flag. With a canary armed the search must find, shrink, and
//! pin it; with canaries off a bounded sweep must come back clean.

#![warn(missing_docs)]

pub mod bisect;
pub mod corpus;
pub mod durable;
pub mod generate;
pub mod oracle;
pub mod shrink;
pub mod workload;

pub use bisect::{first_divergence, Bisection};
pub use corpus::{load_all, store, CorpusEntry, CorpusError, CORPUS_HEADER};
pub use durable::{check_durable, DurableCanary, DurableOutcome, DurableWorkload};
pub use generate::{generate_plan, GenConfig};
pub use oracle::{check, OracleFailure};
pub use shrink::{shrink, ShrinkResult};
pub use workload::{RunOutcome, Workload};

use softborg_netsim::{FaultPlan, FaultPlanError};
use softborg_obs::{explain_recorders, MetricsRegistry};
use std::fmt;
use std::path::{Path, PathBuf};

/// One search campaign: how many cases to sweep, over which fault
/// space, against which workload, and where to recycle what it finds.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Sweep seed. Case `i` of seed `s` is the same plan forever.
    pub seed: u64,
    /// Cases to generate and run.
    pub budget: u64,
    /// The campaign every plan is judged against.
    pub workload: Workload,
    /// Bounds of the generated fault space.
    pub generator: GenConfig,
    /// Coverage-guided case scheduling: probe every case with cheap
    /// prefix runs first and evaluate the cases whose prefix trace
    /// hashes diverge from the baseline *earliest* before the rest. The
    /// budget and the set of cases are unchanged — only the order — so
    /// a full sweep finds exactly the same failures, just sooner (see
    /// [`SearchReport::cases_to_first_failure`]).
    pub guided: bool,
    /// Where minimized failures are persisted; `None` keeps them only
    /// in the report.
    pub corpus_dir: Option<PathBuf>,
    /// Registry for `search.*` metrics; `None` keeps them private.
    pub registry: Option<MetricsRegistry>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            seed: 0,
            budget: 32,
            workload: Workload::default(),
            generator: GenConfig::default(),
            guided: false,
            corpus_dir: None,
            registry: None,
        }
    }
}

/// A failure the search found, shrunk, and localized.
#[derive(Debug, Clone)]
pub struct MinimizedFailure {
    /// Sweep case that produced the original plan.
    pub case: u64,
    /// The plan as generated.
    pub original: FaultPlan,
    /// The locally minimal still-failing plan.
    pub minimal: FaultPlan,
    /// Oracle verdict kind of the *minimal* plan's run (what the corpus
    /// pins; may be more specific than the original's verdict).
    pub oracle: String,
    /// Human-readable verdict of the minimal run.
    pub verdict: String,
    /// `sched_trace_hash` of the minimal run.
    pub trace_hash: u64,
    /// Virtual end instant of the minimal run (µs).
    pub virtual_end_us: u64,
    /// First dispatch where the minimal run parts ways with the
    /// fault-free run, when the bisector localized one.
    pub first_divergent_event: Option<u64>,
    /// Prefix runs the bisector spent.
    pub bisect_probes: u64,
    /// First divergent recorded event vs the fault-free run
    /// ([`softborg_obs::Divergence::brief`]), when one exists.
    pub explain: Option<String>,
    /// Candidate adoptions during shrinking.
    pub shrink_steps: u64,
    /// Workload re-runs spent shrinking.
    pub shrink_probes: u64,
}

/// What a whole search campaign did.
#[derive(Debug, Clone, Default)]
pub struct SearchReport {
    /// Plans generated (== the configured budget).
    pub plans_explored: u64,
    /// Workload executions, including re-runs, shrink probes, and
    /// bisection prefix probes.
    pub runs_executed: u64,
    /// Cases whose original plan violated an oracle.
    pub divergences: u64,
    /// How many cases were fully evaluated when the first divergence
    /// surfaced (`None` for a clean sweep) — the number coverage-guided
    /// scheduling exists to drive down.
    pub cases_to_first_failure: Option<u64>,
    /// The minimized failures, in evaluation order.
    pub minimized: Vec<MinimizedFailure>,
    /// Corpus files written (empty without a corpus dir).
    pub corpus_written: Vec<PathBuf>,
}

/// What a corpus regression replay did.
#[derive(Debug, Clone, Default)]
pub struct CorpusReport {
    /// Entries replayed.
    pub replayed: u64,
    /// Entries that no longer reproduce, with the first mismatch each.
    pub failures: Vec<(PathBuf, String)>,
}

/// A search campaign failed outright (as opposed to *finding* a
/// failure, which is the job).
#[derive(Debug)]
pub enum SearchError {
    /// A plan failed validation — a generator bug, since generated
    /// plans are valid by construction.
    Plan(FaultPlanError),
    /// The corpus directory could not be read or written.
    Corpus(CorpusError),
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::Plan(e) => write!(f, "fault plan rejected: {e}"),
            SearchError::Corpus(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SearchError {}

impl From<FaultPlanError> for SearchError {
    fn from(e: FaultPlanError) -> Self {
        SearchError::Plan(e)
    }
}

impl From<CorpusError> for SearchError {
    fn from(e: CorpusError) -> Self {
        SearchError::Corpus(e)
    }
}

/// Runs a search campaign: sweep the fault space, judge every run,
/// and shrink + bisect + persist every divergence found.
///
/// # Errors
///
/// Returns a [`SearchError`] for infrastructure failures (invalid
/// generated plan, unwritable corpus). Oracle violations are *results*,
/// not errors — they land in [`SearchReport::minimized`].
pub fn run_search(cfg: &SearchConfig) -> Result<SearchReport, SearchError> {
    let w = &cfg.workload;
    let mut report = SearchReport::default();

    let baseline = w.run(&FaultPlan::default())?;
    let baseline_rerun = w.run_prefix(&FaultPlan::default(), w.max_events)?;
    report.runs_executed += 2;
    debug_assert_eq!(
        baseline.sched.trace_hash, baseline_rerun.trace_hash,
        "fault-free baseline must replay identically"
    );

    // Coverage-guided scheduling: two cheap prefix probes per case sort
    // the sweep so that plans already perturbing the dispatch schedule
    // in the first eighth of the event budget run first, late or silent
    // perturbations last. Divergence-prone plans tend to diverge early,
    // so the first failure surfaces after fewer full evaluations.
    let order: Vec<u64> = if cfg.guided {
        let probe_events = (w.max_events / 8).max(1);
        let half_events = (w.max_events / 2).max(1);
        let base_probe = w.run_prefix(&FaultPlan::default(), probe_events)?;
        let base_half = w.run_prefix(&FaultPlan::default(), half_events)?;
        report.runs_executed += 2;
        let mut scored: Vec<(u8, u64)> = Vec::with_capacity(cfg.budget as usize);
        for case in 0..cfg.budget {
            let plan = generate_plan(cfg.seed, case, &cfg.generator, w);
            let early = w.run_prefix(&plan, probe_events)?;
            report.runs_executed += 1;
            let score = if early.trace_hash != base_probe.trace_hash {
                0
            } else {
                let mid = w.run_prefix(&plan, half_events)?;
                report.runs_executed += 1;
                u8::from(mid.trace_hash == base_half.trace_hash) + 1
            };
            scored.push((score, case));
        }
        scored.sort_unstable();
        scored.into_iter().map(|(_, case)| case).collect()
    } else {
        (0..cfg.budget).collect()
    };

    for &case in &order {
        let plan = generate_plan(cfg.seed, case, &cfg.generator, w);
        report.plans_explored += 1;
        let outcome = w.run(&plan)?;
        let rerun = w.run_prefix(&plan, w.max_events)?;
        report.runs_executed += 2;
        let Some(_first_verdict) = oracle::check(w, &baseline, &outcome, rerun.trace_hash) else {
            continue;
        };
        report.divergences += 1;
        report
            .cases_to_first_failure
            .get_or_insert(report.plans_explored);

        // Shrink against "violates *any* oracle": the minimal plan's own
        // verdict is recomputed below and is what the corpus pins.
        // Candidates preserve validity by construction, so a rejected
        // plan here is a shrinker bug worth crashing on.
        let mut shrink_runs = 0u64;
        let shrunk = shrink(&plan, |cand| {
            shrink_runs += 1;
            let out = w.run(cand).expect("shrink candidates preserve validity");
            oracle::check(w, &baseline, &out, out.sched.trace_hash).is_some()
        });
        report.runs_executed += shrink_runs;

        let minimal_outcome = w.run(&shrunk.minimal)?;
        let minimal_rerun = w.run_prefix(&shrunk.minimal, w.max_events)?;
        report.runs_executed += 2;
        let verdict = oracle::check(w, &baseline, &minimal_outcome, minimal_rerun.trace_hash)
            .expect("shrink preserves failure");

        let bisection = first_divergence(w, &shrunk.minimal, &FaultPlan::default())?;
        let bisect_probes = bisection.map_or(0, |b| b.probes);
        report.runs_executed += bisect_probes;

        let failure = MinimizedFailure {
            case,
            original: plan,
            minimal: shrunk.minimal,
            oracle: verdict.kind().to_string(),
            verdict: verdict.to_string(),
            trace_hash: minimal_outcome.sched.trace_hash,
            virtual_end_us: minimal_outcome.sched.virtual_end_us,
            first_divergent_event: bisection.map(|b| b.first_divergent_event),
            bisect_probes,
            explain: explain_recorders(&baseline.recorder, &minimal_outcome.recorder)
                .map(|d| d.brief()),
            shrink_steps: shrunk.steps,
            shrink_probes: shrunk.probes,
        };

        // Replay-unstable verdicts cannot be pinned (their trace hash
        // differs run to run by definition), so they stay report-only.
        if verdict.kind() != "replay_unstable" {
            if let Some(dir) = &cfg.corpus_dir {
                let entry = CorpusEntry::from_failure(w, &failure);
                report.corpus_written.push(store(dir, &entry)?);
            }
        }
        report.minimized.push(failure);
    }

    if let Some(reg) = &cfg.registry {
        reg.counter("search.plans_explored")
            .add(report.plans_explored);
        reg.counter("search.runs_executed")
            .add(report.runs_executed);
        reg.counter("search.divergences").add(report.divergences);
        reg.counter("search.corpus_written")
            .add(report.corpus_written.len() as u64);
        for f in &report.minimized {
            reg.counter(&format!("search.oracle.{}", f.oracle)).incr();
            reg.counter("search.shrink_steps").add(f.shrink_steps);
            reg.counter("search.shrink_probes").add(f.shrink_probes);
            reg.counter("search.bisect_probes").add(f.bisect_probes);
        }
    }
    Ok(report)
}

/// A durable-campaign search: sweep disk fault plans (round-boundary
/// kills, journal/checkpoint sector rot) over the sharded multi-program
/// fleet and judge every kill/scrub/resume cycle.
#[derive(Debug, Clone)]
pub struct DurableSearchConfig {
    /// Sweep seed. Case `i` of seed `s` is the same plan forever.
    pub seed: u64,
    /// Cases to generate and run.
    pub budget: u64,
    /// The fleet campaign every plan is judged against.
    pub workload: DurableWorkload,
    /// Bounds of the generated fault space (normally
    /// [`GenConfig::disk_only`]).
    pub generator: GenConfig,
    /// Where minimized failures are persisted; `None` keeps them only
    /// in the report.
    pub corpus_dir: Option<PathBuf>,
    /// Registry for `search.*` metrics; `None` keeps them private.
    pub registry: Option<MetricsRegistry>,
}

impl Default for DurableSearchConfig {
    fn default() -> Self {
        let workload = DurableWorkload::default();
        DurableSearchConfig {
            seed: 0,
            budget: 16,
            generator: GenConfig::disk_only(workload.rounds),
            workload,
            corpus_dir: None,
            registry: None,
        }
    }
}

/// Runs a durable-campaign search: every generated plan's disk points
/// drive fleet kills, storage rot, scrubs, and resumes, judged by
/// [`check_durable`]'s scrub-soundness and resume-equivalence oracles.
/// Failures are shrunk and pinned exactly like ingest-campaign ones;
/// their corpus entries carry `campaign = durable` and replay through
/// the same [`replay_corpus`] gate.
///
/// # Errors
///
/// Returns a [`SearchError`] for infrastructure failures (unwritable
/// corpus). Oracle violations are results, not errors.
pub fn run_durable_search(cfg: &DurableSearchConfig) -> Result<SearchReport, SearchError> {
    let w = &cfg.workload;
    // Plan generation only needs the ingest workload's addressing
    // shape, and disk-only generators draw nothing network-level.
    let shape = Workload::default();
    let mut report = SearchReport::default();

    let baseline = w.run(&FaultPlan::default());
    report.runs_executed += 1;
    debug_assert!(
        durable::check_durable(&baseline).is_none(),
        "fault-free fleet campaign must be clean: {baseline:?}"
    );

    for case in 0..cfg.budget {
        let plan = generate_plan(cfg.seed, case, &cfg.generator, &shape);
        report.plans_explored += 1;
        let outcome = w.run(&plan);
        report.runs_executed += 1;
        if durable::check_durable(&outcome).is_none() {
            continue;
        }
        report.divergences += 1;
        report
            .cases_to_first_failure
            .get_or_insert(report.plans_explored);

        let mut shrink_runs = 0u64;
        let shrunk = shrink(&plan, |cand| {
            shrink_runs += 1;
            durable::check_durable(&w.run(cand)).is_some()
        });
        report.runs_executed += shrink_runs;

        let minimal_outcome = w.run(&shrunk.minimal);
        report.runs_executed += 1;
        let verdict = durable::check_durable(&minimal_outcome).expect("shrink preserves failure");

        let failure = MinimizedFailure {
            case,
            original: plan,
            minimal: shrunk.minimal,
            oracle: verdict.kind().to_string(),
            verdict: verdict.to_string(),
            trace_hash: minimal_outcome.digest,
            virtual_end_us: minimal_outcome.rounds,
            first_divergent_event: minimal_outcome.divergence,
            bisect_probes: 0,
            explain: None,
            shrink_steps: shrunk.steps,
            shrink_probes: shrunk.probes,
        };
        if let Some(dir) = &cfg.corpus_dir {
            let entry = CorpusEntry::from_durable_failure(w, &failure);
            report.corpus_written.push(store(dir, &entry)?);
        }
        report.minimized.push(failure);
    }

    if let Some(reg) = &cfg.registry {
        reg.counter("search.durable.plans_explored")
            .add(report.plans_explored);
        reg.counter("search.durable.runs_executed")
            .add(report.runs_executed);
        reg.counter("search.durable.divergences")
            .add(report.divergences);
        for f in &report.minimized {
            reg.counter(&format!("search.oracle.{}", f.oracle)).incr();
        }
    }
    Ok(report)
}

/// Replays every corpus entry in `dir` as a regression suite. Each
/// entry must still fail its pinned oracle with its pinned trace hash,
/// end instant, and explain report — see [`CorpusEntry::replay`]. A
/// missing directory is an empty (passing) corpus.
///
/// # Errors
///
/// Returns a [`SearchError`] when the directory is unreadable or an
/// entry is malformed. Reproduction mismatches are reported in
/// [`CorpusReport::failures`], not as errors.
pub fn replay_corpus(dir: &Path) -> Result<CorpusReport, SearchError> {
    let mut report = CorpusReport::default();
    for (path, entry) in load_all(dir)? {
        report.replayed += 1;
        if let Err(why) = entry.replay() {
            report.failures.push((path, why));
        }
    }
    Ok(report)
}
