//! Environment models: where system-call return values come from.
//!
//! Together with inputs and the thread schedule, syscall returns are the
//! third source of program-external non-determinism. Pods record them
//! (paper, §3.1: "summaries of system call return values"), and the hive
//! reads them back from the trace when it replays a path.

use crate::cfg::SyscallKind;
use crate::ids::ThreadId;
use serde::{Deserialize, Serialize};

/// Produces return values for modeled system calls.
///
/// Implementations must be deterministic functions of their own state and
/// the call sequence, so that a recorded execution can be replayed exactly.
pub trait EnvModel {
    /// Returns the result of the `call_index`-th syscall of the execution
    /// (global, monotonically increasing across threads).
    fn call(&mut self, thread: ThreadId, kind: SyscallKind, arg: i64, call_index: u64) -> i64;
}

/// A deterministic fault to inject into the environment (paper, §3.3:
/// guidance "stated … in terms of system call faults to be injected, e.g. a
/// short socket read()").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ForcedFault {
    /// The global syscall index at which to fire.
    pub call_index: u64,
    /// The value to return instead of the nominal one.
    pub ret: i64,
}

/// Configuration of the default environment.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnvConfig {
    /// Seed for environment "noise" (time steps, random values).
    pub seed: u64,
    /// Probability of a spontaneous short read, in parts per 1000.
    pub short_read_per_mille: u32,
    /// Probability of `open` failing with `-1`, in parts per 1000.
    pub open_fail_per_mille: u32,
    /// Descriptor-table capacity: after this many successful `open`s the
    /// environment is exhausted and every further `open` returns `-1` —
    /// the deterministic substrate for resource-leak bugs (a program
    /// that never closes what it opens eventually starves). `0` models
    /// an unlimited table (the default, preserving prior behaviour).
    pub fd_limit: u32,
    /// Explicit faults to inject at specific call indices.
    pub forced: Vec<ForcedFault>,
}

/// The default deterministic environment.
///
/// Nominal semantics per [`SyscallKind`]:
///
/// * `Read(n)` → `n` (full read), or a short count under fault injection;
///   negative/zero requests return `0`.
/// * `Write(n)` → `n`.
/// * `Open(_)` → a small positive descriptor, or `-1` under fault injection.
/// * `Time(_)` → a monotonically increasing counter.
/// * `Random(_)` → a seed-derived value in `0..256`.
#[derive(Debug, Clone)]
pub struct DefaultEnv {
    config: EnvConfig,
    clock: i64,
    next_fd: i64,
}

impl DefaultEnv {
    /// Creates an environment from its configuration.
    pub fn new(config: EnvConfig) -> Self {
        DefaultEnv {
            config,
            clock: 1_000,
            next_fd: 3,
        }
    }

    /// Starts over under `config`, as [`new`](Self::new) would.
    pub fn reset(&mut self, config: EnvConfig) {
        *self = DefaultEnv::new(config);
    }

    /// The configuration the environment runs under.
    pub fn config(&self) -> &EnvConfig {
        &self.config
    }

    /// Creates a fault-free environment with the given seed.
    pub fn seeded(seed: u64) -> Self {
        DefaultEnv::new(EnvConfig {
            seed,
            ..EnvConfig::default()
        })
    }

    /// A cheap deterministic hash stream: value for call `i` in `0..m`.
    fn noise(&self, call_index: u64, salt: u64, m: u64) -> u64 {
        // SplitMix64 on (seed ^ salt ^ index); good enough dispersion for a
        // simulation, and fully deterministic.
        let mut z = self
            .config
            .seed
            .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(call_index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        if m == 0 {
            z
        } else {
            z % m
        }
    }
}

impl EnvModel for DefaultEnv {
    fn call(&mut self, _thread: ThreadId, kind: SyscallKind, arg: i64, call_index: u64) -> i64 {
        if let Some(f) = self
            .config
            .forced
            .iter()
            .find(|f| f.call_index == call_index)
        {
            return f.ret;
        }
        match kind {
            SyscallKind::Read => {
                let n = arg.max(0);
                if n > 0
                    && self.config.short_read_per_mille > 0
                    && self.noise(call_index, 1, 1000) < u64::from(self.config.short_read_per_mille)
                {
                    // A short read strictly smaller than the request.
                    (self.noise(call_index, 2, n as u64)) as i64
                } else {
                    n
                }
            }
            SyscallKind::Write => arg.max(0),
            SyscallKind::Open => {
                let exhausted =
                    self.config.fd_limit > 0 && self.next_fd - 3 >= i64::from(self.config.fd_limit);
                if exhausted
                    || (self.config.open_fail_per_mille > 0
                        && self.noise(call_index, 3, 1000)
                            < u64::from(self.config.open_fail_per_mille))
                {
                    -1
                } else {
                    let fd = self.next_fd;
                    self.next_fd += 1;
                    fd
                }
            }
            SyscallKind::Time => {
                self.clock += 1 + (self.noise(call_index, 4, 7) as i64);
                self.clock
            }
            SyscallKind::Random => self.noise(call_index, 5, 256) as i64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> ThreadId {
        ThreadId::new(0)
    }

    #[test]
    fn default_env_is_deterministic() {
        let mut a = DefaultEnv::seeded(42);
        let mut b = DefaultEnv::seeded(42);
        for i in 0..50 {
            let ka = a.call(t0(), SyscallKind::Random, 0, i);
            let kb = b.call(t0(), SyscallKind::Random, 0, i);
            assert_eq!(ka, kb);
        }
    }

    #[test]
    fn read_returns_full_count_without_faults() {
        let mut e = DefaultEnv::seeded(1);
        assert_eq!(e.call(t0(), SyscallKind::Read, 64, 0), 64);
        assert_eq!(e.call(t0(), SyscallKind::Read, 0, 1), 0);
        assert_eq!(e.call(t0(), SyscallKind::Read, -5, 2), 0);
    }

    #[test]
    fn forced_fault_overrides_nominal_value() {
        let mut e = DefaultEnv::new(EnvConfig {
            forced: vec![ForcedFault {
                call_index: 1,
                ret: 7,
            }],
            ..EnvConfig::default()
        });
        assert_eq!(e.call(t0(), SyscallKind::Read, 64, 0), 64);
        assert_eq!(e.call(t0(), SyscallKind::Read, 64, 1), 7);
    }

    #[test]
    fn short_read_probability_takes_effect() {
        let mut e = DefaultEnv::new(EnvConfig {
            seed: 9,
            short_read_per_mille: 1000, // always short
            ..EnvConfig::default()
        });
        let r = e.call(t0(), SyscallKind::Read, 64, 0);
        assert!((0..64).contains(&r), "short read must be in 0..64, got {r}");
    }

    #[test]
    fn open_failure_injection() {
        let mut e = DefaultEnv::new(EnvConfig {
            open_fail_per_mille: 1000,
            ..EnvConfig::default()
        });
        assert_eq!(e.call(t0(), SyscallKind::Open, 0, 0), -1);
    }

    #[test]
    fn fd_limit_exhausts_the_descriptor_table() {
        let mut e = DefaultEnv::new(EnvConfig {
            fd_limit: 3,
            ..EnvConfig::default()
        });
        assert_eq!(e.call(t0(), SyscallKind::Open, 0, 0), 3);
        assert_eq!(e.call(t0(), SyscallKind::Open, 0, 1), 4);
        assert_eq!(e.call(t0(), SyscallKind::Open, 0, 2), 5);
        // The table is full; a leaking program never releases slots, so
        // every further open fails deterministically.
        assert_eq!(e.call(t0(), SyscallKind::Open, 0, 3), -1);
        assert_eq!(e.call(t0(), SyscallKind::Open, 0, 4), -1);
        // Unlimited by default.
        let mut unlimited = DefaultEnv::seeded(0);
        for i in 0..100 {
            assert!(unlimited.call(t0(), SyscallKind::Open, 0, i) >= 3);
        }
    }

    #[test]
    fn time_is_monotone() {
        let mut e = DefaultEnv::seeded(3);
        let a = e.call(t0(), SyscallKind::Time, 0, 0);
        let b = e.call(t0(), SyscallKind::Time, 0, 1);
        assert!(b > a);
    }

    #[test]
    fn env_returns_nominal_values_in_call_order() {
        let mut e = DefaultEnv::seeded(0);
        assert_eq!(e.call(t0(), SyscallKind::Read, 8, 0), 8);
        assert_eq!(e.call(t0(), SyscallKind::Open, 0, 1), 3);
        assert_eq!(e.call(t0(), SyscallKind::Open, 0, 2), 4);
    }
}
