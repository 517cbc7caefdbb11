//! The divergence corpus: every minimized failure is persisted as a
//! self-contained text entry — the workload coordinates, the minimal
//! fault plan, and the expected observables (`sched_trace_hash`, oracle
//! verdict, first-divergent-event report) — and replayed as a
//! regression suite. A corpus entry is a *pinned bug*: replaying it
//! must reproduce the failure byte for byte, and an entry that stops
//! failing means the bug was fixed (remove the entry deliberately, the
//! way BugSwarm retires reproducers — never silently).
//!
//! Format (line-oriented like the fault-plan text it embeds):
//!
//! ```text
//! softborg-divergence v1
//! case = 17
//! oracle = silent_drop
//! scenario = 0
//! pods = 3
//! traces = 36
//! batch = 4
//! traces_seed = 191
//! sim_seed = 11
//! link = 800 500 50
//! max_events = 300000
//! recorder_cap = 4096
//! canary = floor_off_by_one
//! trace_hash = 0x8c97bd6e0a3f2d11
//! virtual_end_us = 812345
//! first_divergent_event = 1042
//! explain = transport.server seq=9 mismatch @15000000ns: dedup vs fsync
//! original_weight = 55
//! minimal_weight = 9
//! shrink_steps = 7
//! plan:
//! softborg-fault-plan v1
//! crash = 3 15000 30000
//! ```
//!
//! Entries found by the *durable* campaign (kill/scrub/resume sweeps,
//! see [`crate::durable`]) replace the ingest-workload keys with a
//! `campaign = durable` line followed by the [`DurableWorkload`]
//! coordinates (`scenarios`, `shards`, `fleet_pods`, `rounds`, `execs`,
//! `platform_seed`, `compact_ratio`, `min_compact_wal`, and
//! `durable_canary` when one is armed); the `campaign` line always
//! precedes its keys. For those
//! entries `trace_hash` pins the outcome digest and `virtual_end_us`
//! pins the final committed round.

use crate::durable::{check_durable, DurableCanary, DurableWorkload};
use crate::oracle;
use crate::workload::Workload;
use crate::MinimizedFailure;
use softborg_hive::CanaryBug;
use softborg_netsim::{FaultPlan, LinkConfig};
use softborg_obs::explain_recorders;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Header every corpus entry starts with.
pub const CORPUS_HEADER: &str = "softborg-divergence v1";

/// One persisted minimized failure, self-contained: the workload it ran
/// against, the minimal plan, and the observables a replay must
/// reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Sweep case that found the failure.
    pub case: u64,
    /// Oracle verdict kind the minimal plan must reproduce.
    pub oracle: String,
    /// The ingest workload coordinates, reconstructed exactly. Unused
    /// (left at default) when `campaign` is set.
    pub workload: Workload,
    /// `Some` marks a durable-campaign entry: replay runs the embedded
    /// [`DurableWorkload`] instead of the ingest workload.
    pub campaign: Option<DurableWorkload>,
    /// The minimized fault plan.
    pub plan: FaultPlan,
    /// Expected `sched_trace_hash` of the minimal run.
    pub trace_hash: u64,
    /// Expected virtual end instant of the minimal run (µs).
    pub virtual_end_us: u64,
    /// First divergent dispatch index vs the fault-free run, when
    /// bisected.
    pub first_divergent_event: Option<u64>,
    /// `Divergence::brief()` of the first divergent recorder event vs
    /// the fault-free run, when one exists.
    pub explain: Option<String>,
    /// Weight of the originally generated plan.
    pub original_weight: u64,
    /// Weight of the minimal plan (strictly less unless zero steps).
    pub minimal_weight: u64,
    /// Shrink adoptions that led here.
    pub shrink_steps: u64,
}

/// A malformed corpus entry.
#[derive(Debug)]
pub enum CorpusError {
    /// Filesystem failure.
    Io(io::Error),
    /// The entry text failed to parse.
    Parse(String),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io(e) => write!(f, "corpus io: {e}"),
            CorpusError::Parse(what) => write!(f, "corpus parse: {what}"),
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<io::Error> for CorpusError {
    fn from(e: io::Error) -> Self {
        CorpusError::Io(e)
    }
}

impl CorpusEntry {
    /// Builds the entry for a minimized failure found against
    /// `workload`.
    pub fn from_failure(workload: &Workload, f: &MinimizedFailure) -> CorpusEntry {
        CorpusEntry {
            case: f.case,
            oracle: f.oracle.clone(),
            workload: workload.clone(),
            campaign: None,
            plan: f.minimal.clone(),
            trace_hash: f.trace_hash,
            virtual_end_us: f.virtual_end_us,
            first_divergent_event: f.first_divergent_event,
            explain: f.explain.clone(),
            original_weight: f.original.weight(),
            minimal_weight: f.minimal.weight(),
            shrink_steps: f.shrink_steps,
        }
    }

    /// Builds the entry for a minimized failure found by the durable
    /// kill/scrub/resume campaign against `workload`.
    pub fn from_durable_failure(workload: &DurableWorkload, f: &MinimizedFailure) -> CorpusEntry {
        CorpusEntry {
            campaign: Some(workload.clone()),
            workload: Workload::default(),
            ..CorpusEntry::from_failure(&Workload::default(), f)
        }
    }

    /// Serializes the entry (see the [module docs](self) for the
    /// format).
    pub fn to_text(&self) -> String {
        let w = &self.workload;
        let mut out = String::from(CORPUS_HEADER);
        out.push('\n');
        out.push_str(&format!("case = {}\n", self.case));
        out.push_str(&format!("oracle = {}\n", self.oracle));
        if let Some(d) = &self.campaign {
            out.push_str("campaign = durable\n");
            let idx: Vec<String> = d.scenarios.iter().map(u32::to_string).collect();
            out.push_str(&format!("scenarios = {}\n", idx.join(" ")));
            out.push_str(&format!("shards = {}\n", d.shards));
            out.push_str(&format!("fleet_pods = {}\n", d.pods));
            out.push_str(&format!("rounds = {}\n", d.rounds));
            out.push_str(&format!("execs = {}\n", d.execs));
            out.push_str(&format!("platform_seed = {}\n", d.seed));
            out.push_str(&format!("compact_ratio = {}\n", d.compact_ratio));
            out.push_str(&format!("min_compact_wal = {}\n", d.min_compact_wal_bytes));
            if let Some(canary) = d.canary {
                out.push_str(&format!("durable_canary = {}\n", canary.name()));
            }
        } else {
            out.push_str(&format!("scenario = {}\n", w.scenario));
            out.push_str(&format!("pods = {}\n", w.pods));
            out.push_str(&format!("traces = {}\n", w.traces));
            out.push_str(&format!("batch = {}\n", w.batch));
            out.push_str(&format!("traces_seed = {}\n", w.traces_seed));
            out.push_str(&format!("sim_seed = {}\n", w.sim_seed));
            out.push_str(&format!(
                "link = {} {} {}\n",
                w.link.base_latency_us, w.link.jitter_us, w.link.loss_per_mille
            ));
            out.push_str(&format!("max_events = {}\n", w.max_events));
            out.push_str(&format!("recorder_cap = {}\n", w.recorder_cap));
            if let Some(canary) = w.canary {
                out.push_str(&format!("canary = {}\n", canary.name()));
            }
        }
        out.push_str(&format!("trace_hash = {:#018x}\n", self.trace_hash));
        out.push_str(&format!("virtual_end_us = {}\n", self.virtual_end_us));
        if let Some(ev) = self.first_divergent_event {
            out.push_str(&format!("first_divergent_event = {ev}\n"));
        }
        if let Some(explain) = &self.explain {
            out.push_str(&format!("explain = {explain}\n"));
        }
        out.push_str(&format!("original_weight = {}\n", self.original_weight));
        out.push_str(&format!("minimal_weight = {}\n", self.minimal_weight));
        out.push_str(&format!("shrink_steps = {}\n", self.shrink_steps));
        out.push_str("plan:\n");
        out.push_str(&self.plan.to_text());
        out
    }

    /// Parses an entry serialized by [`to_text`](Self::to_text).
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Parse`] naming the first offending line
    /// or missing key.
    pub fn from_text(text: &str) -> Result<CorpusEntry, CorpusError> {
        let bad = |what: &str| CorpusError::Parse(what.to_string());
        let (meta, plan_text) = text
            .split_once("plan:\n")
            .ok_or_else(|| bad("missing `plan:` section"))?;
        let mut lines = meta.lines().filter(|l| !l.trim().is_empty());
        if lines.next().map(str::trim) != Some(CORPUS_HEADER) {
            return Err(bad("missing or unsupported header"));
        }
        let mut w = Workload::default();
        let mut durable: Option<DurableWorkload> = None;
        let mut case = None;
        let mut oracle = None;
        let mut trace_hash = None;
        let mut virtual_end_us = None;
        let mut first_divergent_event = None;
        let mut explain = None;
        let mut original_weight = None;
        let mut minimal_weight = None;
        let mut shrink_steps = None;
        w.canary = None;
        for l in lines {
            let (key, value) = l
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| bad(&format!("not a `key = value` line: {l:?}")))?;
            let num = |v: &str| -> Result<u64, CorpusError> {
                let v = v.strip_prefix("0x").map_or_else(
                    || v.parse::<u64>().ok(),
                    |hex| u64::from_str_radix(hex, 16).ok(),
                );
                v.ok_or_else(|| bad(&format!("bad number for {key}")))
            };
            // `campaign = durable` switches the remaining workload keys
            // to the durable vocabulary; it always precedes them.
            macro_rules! dur {
                () => {
                    durable
                        .as_mut()
                        .ok_or_else(|| bad(&format!("{key} before `campaign = durable`")))?
                };
            }
            match key {
                "case" => case = Some(num(value)?),
                "oracle" => oracle = Some(value.to_string()),
                "campaign" => {
                    if value != "durable" {
                        return Err(bad(&format!("unknown campaign {value:?}")));
                    }
                    durable = Some(DurableWorkload {
                        canary: None,
                        ..DurableWorkload::default()
                    });
                }
                "scenarios" => {
                    let idx: Result<Vec<u32>, CorpusError> = value
                        .split_whitespace()
                        .map(|v| num(v).map(|n| n as u32))
                        .collect();
                    dur!().scenarios = idx?;
                }
                "shards" => dur!().shards = num(value)? as usize,
                "fleet_pods" => dur!().pods = num(value)? as u32,
                "rounds" => dur!().rounds = num(value)?,
                "execs" => dur!().execs = num(value)? as u32,
                "platform_seed" => dur!().seed = num(value)?,
                "compact_ratio" => dur!().compact_ratio = num(value)?,
                "min_compact_wal" => dur!().min_compact_wal_bytes = num(value)?,
                "durable_canary" => {
                    dur!().canary = Some(
                        DurableCanary::parse(value)
                            .ok_or_else(|| bad(&format!("unknown durable canary {value:?}")))?,
                    );
                }
                "scenario" => w.scenario = num(value)? as usize,
                "pods" => w.pods = num(value)? as usize,
                "traces" => w.traces = num(value)? as usize,
                "batch" => w.batch = num(value)? as usize,
                "traces_seed" => w.traces_seed = num(value)?,
                "sim_seed" => w.sim_seed = num(value)?,
                "link" => {
                    let parts: Vec<&str> = value.split_whitespace().collect();
                    let [base, jitter, loss] = parts[..] else {
                        return Err(bad("link wants: base_latency_us jitter_us loss_per_mille"));
                    };
                    w.link = LinkConfig {
                        base_latency_us: num(base)?,
                        jitter_us: num(jitter)?,
                        loss_per_mille: num(loss)? as u32,
                    };
                }
                "max_events" => w.max_events = num(value)?,
                "recorder_cap" => w.recorder_cap = num(value)? as usize,
                "canary" => {
                    w.canary = Some(
                        CanaryBug::parse(value)
                            .ok_or_else(|| bad(&format!("unknown canary {value:?}")))?,
                    );
                }
                "trace_hash" => trace_hash = Some(num(value)?),
                "virtual_end_us" => virtual_end_us = Some(num(value)?),
                "first_divergent_event" => first_divergent_event = Some(num(value)?),
                "explain" => explain = Some(value.to_string()),
                "original_weight" => original_weight = Some(num(value)?),
                "minimal_weight" => minimal_weight = Some(num(value)?),
                "shrink_steps" => shrink_steps = Some(num(value)?),
                _ => return Err(bad(&format!("unknown key {key:?}"))),
            }
        }
        let plan =
            FaultPlan::from_text(plan_text).map_err(|e| bad(&format!("embedded plan: {e}")))?;
        Ok(CorpusEntry {
            case: case.ok_or_else(|| bad("missing case"))?,
            oracle: oracle.ok_or_else(|| bad("missing oracle"))?,
            workload: w,
            campaign: durable,
            plan,
            trace_hash: trace_hash.ok_or_else(|| bad("missing trace_hash"))?,
            virtual_end_us: virtual_end_us.ok_or_else(|| bad("missing virtual_end_us"))?,
            first_divergent_event,
            explain,
            original_weight: original_weight.ok_or_else(|| bad("missing original_weight"))?,
            minimal_weight: minimal_weight.ok_or_else(|| bad("missing minimal_weight"))?,
            shrink_steps: shrink_steps.ok_or_else(|| bad("missing shrink_steps"))?,
        })
    }

    /// The entry's canonical filename: oracle kind + trace hash, so
    /// distinct failures never collide and re-finding the same failure
    /// overwrites rather than duplicates.
    pub fn filename(&self) -> String {
        format!("{}-{:016x}.divergence", self.oracle, self.trace_hash)
    }

    /// Replays the entry and verifies every pinned observable: the
    /// minimal plan still fails the *same* oracle, the run's
    /// `sched_trace_hash` and virtual end instant match byte for byte,
    /// and the first-divergent-event report against the fault-free run
    /// reproduces exactly.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    pub fn replay(&self) -> Result<(), String> {
        if let Some(d) = &self.campaign {
            return self.replay_durable(d);
        }
        let baseline = self
            .workload
            .run(&FaultPlan::default())
            .map_err(|e| format!("baseline plan invalid: {e}"))?;
        let outcome = self
            .workload
            .run(&self.plan)
            .map_err(|e| format!("corpus plan invalid: {e}"))?;
        if outcome.sched.trace_hash != self.trace_hash {
            return Err(format!(
                "trace hash {:#018x}, entry pinned {:#018x}",
                outcome.sched.trace_hash, self.trace_hash
            ));
        }
        if outcome.sched.virtual_end_us != self.virtual_end_us {
            return Err(format!(
                "virtual end {}us, entry pinned {}us",
                outcome.sched.virtual_end_us, self.virtual_end_us
            ));
        }
        let failure = oracle::check(
            &self.workload,
            &baseline,
            &outcome,
            outcome.sched.trace_hash,
        );
        match failure {
            None => return Err(format!("entry no longer fails oracle {}", self.oracle)),
            Some(f) if f.kind() != self.oracle => {
                return Err(format!(
                    "oracle verdict {} differs from pinned {}",
                    f.kind(),
                    self.oracle
                ));
            }
            Some(_) => {}
        }
        let brief = explain_recorders(&baseline.recorder, &outcome.recorder).map(|d| d.brief());
        if brief != self.explain {
            return Err(format!(
                "explain report {:?} differs from pinned {:?}",
                brief, self.explain
            ));
        }
        Ok(())
    }

    /// Durable-campaign replay: re-runs the kill/scrub/resume schedule
    /// and verifies the pinned outcome digest, final committed round,
    /// and oracle verdict.
    fn replay_durable(&self, d: &DurableWorkload) -> Result<(), String> {
        let out = d.run(&self.plan);
        if out.digest != self.trace_hash {
            return Err(format!(
                "outcome digest {:#018x}, entry pinned {:#018x}",
                out.digest, self.trace_hash
            ));
        }
        if out.rounds != self.virtual_end_us {
            return Err(format!(
                "final committed round {}, entry pinned {}",
                out.rounds, self.virtual_end_us
            ));
        }
        match check_durable(&out) {
            None => Err(format!("entry no longer fails oracle {}", self.oracle)),
            Some(f) if f.kind() != self.oracle => Err(format!(
                "oracle verdict {} differs from pinned {}",
                f.kind(),
                self.oracle
            )),
            Some(_) => Ok(()),
        }
    }
}

/// Writes `entry` into `dir` (created if missing) under its canonical
/// filename; returns the path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn store(dir: &Path, entry: &CorpusEntry) -> Result<PathBuf, CorpusError> {
    fs::create_dir_all(dir)?;
    let path = dir.join(entry.filename());
    fs::write(&path, entry.to_text())?;
    Ok(path)
}

/// Loads every `*.divergence` entry in `dir`, sorted by filename for
/// deterministic replay order. A missing directory is an empty corpus.
///
/// # Errors
///
/// Propagates filesystem errors and the first malformed entry.
pub fn load_all(dir: &Path) -> Result<Vec<(PathBuf, CorpusEntry)>, CorpusError> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "divergence"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text = fs::read_to_string(&path)?;
        let entry = CorpusEntry::from_text(&text)
            .map_err(|e| CorpusError::Parse(format!("{}: {e}", path.display())))?;
        out.push((path, entry));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use softborg_netsim::{Addr, Crash};

    fn entry() -> CorpusEntry {
        CorpusEntry {
            case: 17,
            oracle: "silent_drop".to_string(),
            workload: Workload {
                canary: Some(CanaryBug::FloorOffByOne),
                ..Workload::default()
            },
            campaign: None,
            plan: FaultPlan {
                crashes: vec![Crash {
                    node: Addr(3),
                    at_us: 15_000,
                    restart_us: 30_000,
                }],
                ..FaultPlan::default()
            },
            trace_hash: 0x8c97_bd6e_0a3f_2d11,
            virtual_end_us: 812_345,
            first_divergent_event: Some(1042),
            explain: Some("transport.server seq=9 mismatch @15000000ns: dedup vs fsync".into()),
            original_weight: 55,
            minimal_weight: 9,
            shrink_steps: 7,
        }
    }

    #[test]
    fn entries_round_trip_exactly() {
        let e = entry();
        let parsed = CorpusEntry::from_text(&e.to_text()).expect("parses");
        assert_eq!(parsed, e);
    }

    #[test]
    fn optional_fields_can_be_absent() {
        let mut e = entry();
        e.first_divergent_event = None;
        e.explain = None;
        e.workload.canary = None;
        let parsed = CorpusEntry::from_text(&e.to_text()).expect("parses");
        assert_eq!(parsed, e);
    }

    #[test]
    fn durable_entries_round_trip_exactly() {
        use softborg_netsim::{DiskCrashPoint, SectorCorruption};
        let e = CorpusEntry {
            oracle: "resume_divergence".to_string(),
            workload: Workload::default(),
            campaign: Some(DurableWorkload {
                canary: Some(DurableCanary::ForgetPodState),
                compact_ratio: 0,
                ..DurableWorkload::default()
            }),
            plan: FaultPlan {
                disk: vec![
                    DiskCrashPoint::AtRoundBoundary { round: 2 },
                    DiskCrashPoint::CorruptWal {
                        sector: 3,
                        kind: SectorCorruption::FlipBit { bit: 9 },
                    },
                ],
                ..FaultPlan::default()
            },
            ..entry()
        };
        let parsed = CorpusEntry::from_text(&e.to_text()).expect("parses");
        assert_eq!(parsed, e);
        // And without the optional canary.
        let mut e2 = e.clone();
        e2.campaign.as_mut().unwrap().canary = None;
        assert_eq!(CorpusEntry::from_text(&e2.to_text()).expect("parses"), e2);
        let mut e3 = e.clone();
        e3.campaign.as_mut().unwrap().canary = Some(DurableCanary::SkipDelta);
        let text = e3.to_text();
        assert!(text.contains("durable_canary = skip_delta"));
        assert_eq!(CorpusEntry::from_text(&text).expect("parses"), e3);
    }

    #[test]
    fn durable_keys_outside_a_durable_campaign_fail_loudly() {
        let text = entry()
            .to_text()
            .replace("scenario = 0", "shards = 2\nscenario = 0");
        assert!(CorpusEntry::from_text(&text).is_err());
    }

    #[test]
    fn malformed_entries_fail_loudly() {
        assert!(CorpusEntry::from_text("").is_err());
        assert!(CorpusEntry::from_text("softborg-divergence v9\nplan:\n").is_err());
        let missing_plan = entry().to_text().replace("plan:\n", "schedule:\n");
        assert!(CorpusEntry::from_text(&missing_plan).is_err());
        let bad_canary = entry().to_text().replace("floor_off_by_one", "melt_cpu");
        assert!(CorpusEntry::from_text(&bad_canary).is_err());
        // The words of the retired `page_lost` entry: the paged tree
        // store's mode flag, canary and disk point are gone, and none of
        // them may parse as anything else.
        let durable = CorpusEntry {
            campaign: Some(DurableWorkload::default()),
            ..entry()
        }
        .to_text();
        let keys = "min_compact_wal = 1024\n";
        let plan = "plan:\nsoftborg-fault-plan v1\n";
        for (at, line, word) in [
            (keys, "store_paging = 1\n", "store_paging"),
            (keys, "durable_canary = stale_page\n", "stale_page"),
            (
                plan,
                "disk = corrupt_page 3 1 zero_range 2\n",
                "disk crash point",
            ),
        ] {
            let text = durable.replace(at, &format!("{at}{line}"));
            assert_ne!(text, durable, "{word}");
            match CorpusEntry::from_text(&text) {
                Err(CorpusError::Parse(what)) => assert!(what.contains(word), "{what}"),
                other => panic!("{word} was not refused: {other:?}"),
            }
        }
    }

    #[test]
    fn store_and_load_round_trip_through_disk() {
        let dir = std::env::temp_dir().join(format!(
            "softborg-corpus-test-{}-{:x}",
            std::process::id(),
            entry().trace_hash
        ));
        let _ = fs::remove_dir_all(&dir);
        let e = entry();
        let path = store(&dir, &e).expect("store");
        assert!(path.ends_with(e.filename()));
        let loaded = load_all(&dir).expect("load");
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].1, e);
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
