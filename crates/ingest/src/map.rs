//! Static program→shard placement.
//!
//! Placement is hash-based (FNV-1a of the program id's little-endian
//! bytes, modulo the shard count) but materialized into an explicit
//! assignment table at construction: routing decisions are a lookup in
//! a frozen map, never a live hash computation against a mutable shard
//! count — so the placement is trivially deterministic, printable, and
//! testable, and a future rebalancer can swap in any explicit table
//! without touching the router.

use softborg_obs::{fnv1a_step, FNV_OFFSET};
use softborg_program::ProgramId;
use std::collections::BTreeMap;

/// Typed routing/sharding failures. Every variant is a condition the
/// router must surface to the operator rather than panic on or silently
/// drop — a frame claiming or carrying a program nobody owns is
/// evidence of a misconfigured fleet or a corrupted wire stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardError {
    /// A program id that no shard owns (unknown to the placement map).
    UnknownProgram {
        /// The offending program id.
        program: ProgramId,
    },
    /// A map over zero shards was requested.
    NoShards,
    /// The same program was listed twice at construction.
    DuplicateProgram {
        /// The duplicated program id.
        program: ProgramId,
    },
    /// A shard index outside `0..n_shards`.
    BadShard {
        /// The offending shard index.
        shard: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::UnknownProgram { program } => {
                write!(f, "program {:#x} is not owned by any shard", program.0)
            }
            ShardError::NoShards => write!(f, "shard map needs at least one shard"),
            ShardError::DuplicateProgram { program } => {
                write!(f, "program {:#x} listed more than once", program.0)
            }
            ShardError::BadShard { shard } => write!(f, "shard index {shard} out of range"),
        }
    }
}

impl std::error::Error for ShardError {}

/// An explicit, deterministic program→shard assignment over a fixed
/// shard count. Built once from the program set; consulted by the
/// router on every frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    assignments: BTreeMap<ProgramId, usize>,
    n_shards: usize,
}

/// The placement hash: FNV-1a over the id's little-endian bytes — the
/// same hash the wire format uses for checksums, so placement is stable
/// across hosts and builds (no `DefaultHasher` seed dependence).
fn placement(id: ProgramId, n_shards: usize) -> usize {
    (fnv1a_step(FNV_OFFSET, &id.0.to_le_bytes()) % n_shards as u64) as usize
}

impl ShardMap {
    /// Builds the placement table for `programs` over `n_shards` shards.
    ///
    /// # Errors
    ///
    /// [`ShardError::NoShards`] when `n_shards == 0`;
    /// [`ShardError::DuplicateProgram`] when an id repeats.
    pub fn new(programs: &[ProgramId], n_shards: usize) -> Result<Self, ShardError> {
        if n_shards == 0 {
            return Err(ShardError::NoShards);
        }
        let mut assignments = BTreeMap::new();
        for &p in programs {
            if assignments.insert(p, placement(p, n_shards)).is_some() {
                return Err(ShardError::DuplicateProgram { program: p });
            }
        }
        Ok(ShardMap {
            assignments,
            n_shards,
        })
    }

    /// The shard owning `program`.
    ///
    /// # Errors
    ///
    /// [`ShardError::UnknownProgram`] when no shard owns it.
    pub fn shard_of(&self, program: ProgramId) -> Result<usize, ShardError> {
        self.assignments
            .get(&program)
            .copied()
            .ok_or(ShardError::UnknownProgram { program })
    }

    /// Number of shards the map places onto.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The programs assigned to `shard`, in id order.
    pub fn programs_on(&self, shard: usize) -> Vec<ProgramId> {
        self.assignments
            .iter()
            .filter(|&(_, &s)| s == shard)
            .map(|(&p, _)| p)
            .collect()
    }

    /// The full assignment table, in program-id order.
    pub fn assignments(&self) -> &BTreeMap<ProgramId, usize> {
        &self.assignments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u64) -> Vec<ProgramId> {
        (0..n)
            .map(|i| ProgramId(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect()
    }

    #[test]
    fn placement_is_deterministic_and_in_range() {
        let programs = ids(32);
        let a = ShardMap::new(&programs, 4).unwrap();
        let b = ShardMap::new(&programs, 4).unwrap();
        assert_eq!(a, b, "same inputs must give the same placement");
        for &p in &programs {
            assert!(a.shard_of(p).unwrap() < 4);
        }
    }

    #[test]
    fn every_program_lands_on_exactly_one_shard() {
        let programs = ids(17);
        let m = ShardMap::new(&programs, 5).unwrap();
        let total: usize = (0..5).map(|s| m.programs_on(s).len()).sum();
        assert_eq!(total, 17);
        assert_eq!(m.assignments().len(), 17);
    }

    #[test]
    fn unknown_program_is_a_typed_error() {
        let m = ShardMap::new(&ids(4), 2).unwrap();
        let stranger = ProgramId(0xDEAD_BEEF);
        assert_eq!(
            m.shard_of(stranger),
            Err(ShardError::UnknownProgram { program: stranger })
        );
    }

    #[test]
    fn zero_shards_and_duplicates_are_rejected() {
        assert_eq!(ShardMap::new(&ids(2), 0), Err(ShardError::NoShards));
        let dup = [ProgramId(7), ProgramId(7)];
        assert_eq!(
            ShardMap::new(&dup, 2),
            Err(ShardError::DuplicateProgram {
                program: ProgramId(7)
            })
        );
    }

    #[test]
    fn single_shard_owns_everything() {
        let programs = ids(9);
        let m = ShardMap::new(&programs, 1).unwrap();
        for &p in &programs {
            assert_eq!(m.shard_of(p).unwrap(), 0);
        }
        assert_eq!(m.programs_on(0).len(), programs.len());
    }
}
