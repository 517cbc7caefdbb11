//! # softborg-trace — execution by-products
//!
//! Implements the paper's §3.1: capturing execution by-products as compact
//! bit-vectors, shipping them over the wire, anonymizing them, and — on
//! the hive side — reconstructing full paths from input-dependent bits.
//!
//! * [`bitvec`] — packed bit vectors ([`bitvec::BitVec`]).
//! * [`record`] — [`record::ExecutionTrace`] and [`record::RecordingPolicy`].
//! * [`recorder`] — the [`recorder::TraceRecorder`] observer pods install
//!   (one per pod for its whole life, reset every run).
//! * [`wire`] — compact binary encoding (network payloads, size
//!   accounting) and [`wire::BatchEncoder`], the one batch-frame encoder,
//!   which a pod appends each trace to as it is recorded.
//! * [`mod@reconstruct`] — replay of a trace into the full decision path
//!   (paper §3.2, "reconstructing the deterministic branches").
//! * [`anonymize`] — the privacy ladder and k-anonymity batch filter.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod anonymize;
pub mod bitvec;
pub mod reconstruct;
pub mod record;
pub mod recorder;
pub mod wire;

pub use bitvec::BitVec;
pub use reconstruct::{reconstruct, replay, ReconstructError, ReconstructedPath, ReplayScratch};
pub use record::{ExecutionTrace, RecordingPolicy};
pub use recorder::TraceRecorder;
