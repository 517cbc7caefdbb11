//! The divergence-corpus serialization of a [`FaultPlan`]: a versioned,
//! line-oriented text format that round-trips every plan exactly.
//!
//! The vendored `serde` is an API stub (derives are markers, there is no
//! data model behind them), so the corpus format is hand-rolled here —
//! one `key = value` line per scalar knob and one line per scheduled
//! element, parsed back with typed [`PlanTextError`]s. The contract,
//! property-tested in `tests/fault_text.rs`, is
//! `FaultPlan::from_text(&plan.to_text()) == Ok(plan)` for **any** plan:
//! a minimized failure written into `divergence_corpus/` must replay the
//! exact schedule (and therefore the exact `sched_trace_hash`) forever.
//!
//! ```text
//! softborg-fault-plan v1
//! dup_per_mille = 3
//! reorder_per_mille = 20
//! reorder_window_us = 50000
//! partition = 8 0 21600000000 22500000000
//! crash = 0 28800000000 29400000000
//! disk = truncate_wal_tail 64
//! ```
//!
//! Zero-valued rates and empty element lists are omitted on encode (the
//! minimal reproducer for a single crash is three lines), `#` lines and
//! blank lines are ignored on decode, and an unknown header version or
//! key fails loudly instead of degrading into a partial plan.

use crate::fault::{Crash, DiskCrashPoint, FaultPlan, Partition, SectorCorruption};
use crate::Addr;
use std::fmt;

/// The header every serialized plan must start with.
pub const PLAN_TEXT_HEADER: &str = "softborg-fault-plan v1";

/// A malformed serialized fault plan, reported with the offending
/// 1-based line number. Parsing is all-or-nothing: a corpus entry that
/// cannot be reproduced exactly must never half-load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanTextError {
    /// The first non-blank line was not [`PLAN_TEXT_HEADER`].
    BadHeader,
    /// A line had no `key = value` / `key = operands` shape.
    Malformed {
        /// 1-based line number.
        line: usize,
    },
    /// A line named a key this version does not know.
    UnknownKey {
        /// 1-based line number.
        line: usize,
    },
    /// A numeric operand failed to parse, or an element had the wrong
    /// operand count.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// What was being parsed.
        what: &'static str,
    },
}

impl fmt::Display for PlanTextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanTextError::BadHeader => {
                write!(
                    f,
                    "missing or unsupported header (want {PLAN_TEXT_HEADER:?})"
                )
            }
            PlanTextError::Malformed { line } => {
                write!(f, "line {line}: not a `key = value` line")
            }
            PlanTextError::UnknownKey { line } => write!(f, "line {line}: unknown key"),
            PlanTextError::BadValue { line, what } => {
                write!(f, "line {line}: bad value for {what}")
            }
        }
    }
}

impl std::error::Error for PlanTextError {}

fn parse_u64(s: &str, line: usize, what: &'static str) -> Result<u64, PlanTextError> {
    s.parse()
        .map_err(|_| PlanTextError::BadValue { line, what })
}

fn parse_u32(s: &str, line: usize, what: &'static str) -> Result<u32, PlanTextError> {
    s.parse()
        .map_err(|_| PlanTextError::BadValue { line, what })
}

fn corruption_text(kind: &SectorCorruption) -> String {
    match *kind {
        SectorCorruption::FlipBit { bit } => format!("flip_bit {bit}"),
        SectorCorruption::ZeroRange { sectors } => format!("zero_range {sectors}"),
        SectorCorruption::TornWrite { keep_bytes } => format!("torn_write {keep_bytes}"),
    }
}

fn parse_corruption(what: &str, n: &str, line: usize) -> Result<SectorCorruption, PlanTextError> {
    match what {
        "flip_bit" => Ok(SectorCorruption::FlipBit {
            bit: parse_u32(n, line, "corruption.flip_bit")?,
        }),
        "zero_range" => Ok(SectorCorruption::ZeroRange {
            sectors: parse_u32(n, line, "corruption.zero_range")?,
        }),
        "torn_write" => Ok(SectorCorruption::TornWrite {
            keep_bytes: parse_u32(n, line, "corruption.torn_write")?,
        }),
        _ => Err(PlanTextError::BadValue {
            line,
            what: "sector corruption kind",
        }),
    }
}

impl FaultPlan {
    /// Serializes the plan into the corpus text format (see the [module
    /// docs](self)). Elements are emitted in their in-plan order, which
    /// [`from_text`](Self::from_text) preserves — the round trip is
    /// exact, not just equivalent.
    pub fn to_text(&self) -> String {
        let mut out = String::from(PLAN_TEXT_HEADER);
        out.push('\n');
        if self.dup_per_mille > 0 {
            out.push_str(&format!("dup_per_mille = {}\n", self.dup_per_mille));
        }
        if self.reorder_per_mille > 0 {
            out.push_str(&format!("reorder_per_mille = {}\n", self.reorder_per_mille));
        }
        if self.reorder_window_us > 0 {
            out.push_str(&format!("reorder_window_us = {}\n", self.reorder_window_us));
        }
        for p in &self.partitions {
            out.push_str(&format!(
                "partition = {} {} {} {}\n",
                p.a.0, p.b.0, p.from_us, p.until_us
            ));
        }
        for c in &self.crashes {
            out.push_str(&format!(
                "crash = {} {} {}\n",
                c.node.0, c.at_us, c.restart_us
            ));
        }
        for d in &self.disk {
            let line = match d {
                DiskCrashPoint::AtRoundBoundary { round } => {
                    format!("disk = at_round_boundary {round}")
                }
                DiskCrashPoint::TruncateWalTail { drop_bytes } => {
                    format!("disk = truncate_wal_tail {drop_bytes}")
                }
                DiskCrashPoint::FlipWalBit { back_offset } => {
                    format!("disk = flip_wal_bit {back_offset}")
                }
                DiskCrashPoint::BetweenRenameAndTruncate => {
                    "disk = between_rename_and_truncate".to_string()
                }
                DiskCrashPoint::CorruptWal { sector, kind } => {
                    format!("disk = corrupt_wal {sector} {}", corruption_text(kind))
                }
                DiskCrashPoint::CorruptChainRecord { back, sector, kind } => {
                    format!(
                        "disk = corrupt_chain_record {back} {sector} {}",
                        corruption_text(kind)
                    )
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Parses a plan serialized by [`to_text`](Self::to_text). Blank
    /// lines and `#` comments are skipped; everything else must parse or
    /// the whole load fails.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanTextError`] naming the first offending line: a
    /// missing/unsupported header, a line without `key = …` shape, an
    /// unknown key, or a malformed operand.
    pub fn from_text(text: &str) -> Result<FaultPlan, PlanTextError> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
        match lines.next() {
            Some((_, header)) if header == PLAN_TEXT_HEADER => {}
            _ => return Err(PlanTextError::BadHeader),
        }
        let mut plan = FaultPlan::default();
        for (line, l) in lines {
            let (key, value) = l
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or(PlanTextError::Malformed { line })?;
            match key {
                "dup_per_mille" => {
                    plan.dup_per_mille = parse_u32(value, line, "dup_per_mille")?;
                }
                "reorder_per_mille" => {
                    plan.reorder_per_mille = parse_u32(value, line, "reorder_per_mille")?;
                }
                "reorder_window_us" => {
                    plan.reorder_window_us = parse_u64(value, line, "reorder_window_us")?;
                }
                "partition" => {
                    let ops: Vec<&str> = value.split_whitespace().collect();
                    let [a, b, from, until] = ops[..] else {
                        return Err(PlanTextError::BadValue {
                            line,
                            what: "partition (want: a b from_us until_us)",
                        });
                    };
                    plan.partitions.push(Partition {
                        a: Addr(parse_u32(a, line, "partition.a")?),
                        b: Addr(parse_u32(b, line, "partition.b")?),
                        from_us: parse_u64(from, line, "partition.from_us")?,
                        until_us: parse_u64(until, line, "partition.until_us")?,
                    });
                }
                "crash" => {
                    let ops: Vec<&str> = value.split_whitespace().collect();
                    let [node, at, restart] = ops[..] else {
                        return Err(PlanTextError::BadValue {
                            line,
                            what: "crash (want: node at_us restart_us)",
                        });
                    };
                    plan.crashes.push(Crash {
                        node: Addr(parse_u32(node, line, "crash.node")?),
                        at_us: parse_u64(at, line, "crash.at_us")?,
                        restart_us: parse_u64(restart, line, "crash.restart_us")?,
                    });
                }
                "disk" => {
                    let ops: Vec<&str> = value.split_whitespace().collect();
                    let point = match ops[..] {
                        ["at_round_boundary", r] => DiskCrashPoint::AtRoundBoundary {
                            round: parse_u64(r, line, "disk.at_round_boundary")?,
                        },
                        ["truncate_wal_tail", n] => DiskCrashPoint::TruncateWalTail {
                            drop_bytes: parse_u64(n, line, "disk.truncate_wal_tail")?,
                        },
                        ["flip_wal_bit", n] => DiskCrashPoint::FlipWalBit {
                            back_offset: parse_u64(n, line, "disk.flip_wal_bit")?,
                        },
                        ["between_rename_and_truncate"] => DiskCrashPoint::BetweenRenameAndTruncate,
                        ["corrupt_wal", s, what, n] => DiskCrashPoint::CorruptWal {
                            sector: parse_u64(s, line, "disk.corrupt_wal.sector")?,
                            kind: parse_corruption(what, n, line)?,
                        },
                        ["corrupt_chain_record", b, s, what, n] => {
                            DiskCrashPoint::CorruptChainRecord {
                                back: parse_u64(b, line, "disk.corrupt_chain_record.back")?,
                                sector: parse_u64(s, line, "disk.corrupt_chain_record.sector")?,
                                kind: parse_corruption(what, n, line)?,
                            }
                        }
                        _ => {
                            return Err(PlanTextError::BadValue {
                                line,
                                what: "disk crash point",
                            })
                        }
                    };
                    plan.disk.push(point);
                }
                _ => return Err(PlanTextError::UnknownKey { line }),
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_plan() -> FaultPlan {
        FaultPlan {
            dup_per_mille: 3,
            reorder_per_mille: 20,
            reorder_window_us: 50_000,
            partitions: vec![
                Partition {
                    a: Addr(8),
                    b: Addr(0),
                    from_us: 21_600_000_000,
                    until_us: 22_500_000_000,
                },
                Partition {
                    a: Addr(2),
                    b: Addr(3),
                    from_us: 0,
                    until_us: 1,
                },
            ],
            crashes: vec![Crash {
                node: Addr(0),
                at_us: 28_800_000_000,
                restart_us: 29_400_000_000,
            }],
            disk: vec![
                DiskCrashPoint::AtRoundBoundary { round: 3 },
                DiskCrashPoint::TruncateWalTail { drop_bytes: 64 },
                DiskCrashPoint::FlipWalBit { back_offset: 32 },
                DiskCrashPoint::BetweenRenameAndTruncate,
                DiskCrashPoint::CorruptWal {
                    sector: 9,
                    kind: SectorCorruption::FlipBit { bit: 137 },
                },
                DiskCrashPoint::CorruptWal {
                    sector: 0,
                    kind: SectorCorruption::ZeroRange { sectors: 4 },
                },
                DiskCrashPoint::CorruptChainRecord {
                    back: 0,
                    sector: 2,
                    kind: SectorCorruption::TornWrite { keep_bytes: 100 },
                },
                DiskCrashPoint::CorruptChainRecord {
                    back: 1,
                    sector: 0,
                    kind: SectorCorruption::FlipBit { bit: 9 },
                },
            ],
        }
    }

    #[test]
    fn rich_plan_round_trips_exactly() {
        let p = rich_plan();
        assert_eq!(FaultPlan::from_text(&p.to_text()), Ok(p));
    }

    #[test]
    fn empty_plan_is_just_the_header() {
        let p = FaultPlan::default();
        assert_eq!(p.to_text(), format!("{PLAN_TEXT_HEADER}\n"));
        assert_eq!(FaultPlan::from_text(&p.to_text()), Ok(p));
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text =
            format!("\n# a corpus entry\n{PLAN_TEXT_HEADER}\n\n# one crash\ncrash = 1 5 10\n");
        let p = FaultPlan::from_text(&text).expect("parses");
        assert_eq!(p.crashes.len(), 1);
        assert_eq!(p.crashes[0].node, Addr(1));
    }

    #[test]
    fn bad_inputs_fail_loudly_with_line_numbers() {
        assert_eq!(
            FaultPlan::from_text("softborg-fault-plan v99\n"),
            Err(PlanTextError::BadHeader)
        );
        assert_eq!(FaultPlan::from_text(""), Err(PlanTextError::BadHeader));
        let t = format!("{PLAN_TEXT_HEADER}\nnot a directive\n");
        assert_eq!(
            FaultPlan::from_text(&t),
            Err(PlanTextError::Malformed { line: 2 })
        );
        let t = format!("{PLAN_TEXT_HEADER}\nwibble = 3\n");
        assert_eq!(
            FaultPlan::from_text(&t),
            Err(PlanTextError::UnknownKey { line: 2 })
        );
        let t = format!("{PLAN_TEXT_HEADER}\ncrash = 1 5\n");
        assert!(matches!(
            FaultPlan::from_text(&t),
            Err(PlanTextError::BadValue { line: 2, .. })
        ));
        let t = format!("{PLAN_TEXT_HEADER}\ndisk = melt_cpu 4\n");
        assert!(matches!(
            FaultPlan::from_text(&t),
            Err(PlanTextError::BadValue { line: 2, .. })
        ));
        // A retired point (the paged tree store is gone) is an unknown
        // disk crash point, never read as another one.
        let t = format!("{PLAN_TEXT_HEADER}\ndisk = corrupt_page 3 1 zero_range 2\n");
        assert_eq!(
            FaultPlan::from_text(&t),
            Err(PlanTextError::BadValue {
                line: 2,
                what: "disk crash point",
            })
        );
    }

    #[test]
    fn display_of_errors_names_the_line() {
        let shown = PlanTextError::BadValue {
            line: 7,
            what: "crash.at_us",
        }
        .to_string();
        assert!(shown.contains("line 7"), "{shown}");
        assert!(shown.contains("crash.at_us"), "{shown}");
    }
}
