//! Compact, deterministic byte codec for durable snapshots.
//!
//! The hive's crash-only durability layer serializes live state (the
//! execution tree, detector aggregates, overlay history) into
//! checksummed snapshot records. The vendored `serde` facade is a no-op,
//! so this module provides the real wire format: little-endian
//! fixed-width integers, `u32` length prefixes, and a bounds-checked
//! [`Reader`] that fails with a typed [`CodecError`] — never a panic —
//! on truncated or malformed input. Encoding is *deterministic*: the
//! same logical state always produces the same bytes, which is what lets
//! recovery assert byte-identity against an uninterrupted run.
//!
//! The overlay/expression codecs live here (rather than next to their
//! types) so the whole on-disk grammar is reviewable in one place.

use crate::cfg::Loc;
use crate::expr::{BinOp, Expr, Place, UnOp};
use crate::ids::{BlockId, GlobalId, InputId, LocalId, LockId, ThreadId};
use crate::interp::CrashKind;
use crate::overlay::{GuardAction, LockGate, LoopBound, Overlay, SiteGuard};
use std::fmt;

/// Maximum expression nesting the decoder will follow. Snapshot bytes
/// are checksummed before decode, so this only guards against a
/// logically-corrupt-but-checksum-valid record blowing the stack; real
/// guard expressions are a handful of levels deep. Kept well under what
/// a 2 MiB test-thread stack tolerates in debug builds.
const MAX_EXPR_DEPTH: usize = 256;

/// Why a decode failed. Total: decoding never panics on any input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value being read.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A length prefix exceeded the bytes actually available.
    BadLen {
        /// What was being decoded.
        what: &'static str,
        /// The claimed length.
        len: usize,
    },
    /// A string field was not valid UTF-8.
    Utf8,
    /// Expression nesting exceeded `MAX_EXPR_DEPTH` (256).
    DepthExceeded,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { what } => write!(f, "input truncated while decoding {what}"),
            CodecError::BadTag { what, tag } => write!(f, "unknown tag {tag} for {what}"),
            CodecError::BadLen { what, len } => {
                write!(f, "length prefix {len} for {what} exceeds available bytes")
            }
            CodecError::Utf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::DepthExceeded => write!(f, "expression nesting exceeds decoder limit"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `i64`.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern (deterministic, NaN-safe).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a `u32` length prefix followed by the raw bytes.
pub fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    put_u32(buf, v.len() as u32);
    buf.extend_from_slice(v);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, v: &str) {
    put_bytes(buf, v.as_bytes());
}

/// Bounds-checked sequential reader over encoded bytes.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self, what: &'static str) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a `u32`-length-prefixed byte slice.
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], CodecError> {
        let len = self.u32(what)? as usize;
        if self.remaining() < len {
            return Err(CodecError::BadLen { what, len });
        }
        self.take(len, what)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes(what)?).map_err(|_| CodecError::Utf8)
    }

    /// Reads a collection length prefix, rejecting prefixes that could
    /// not possibly fit in the remaining input (each element needs at
    /// least `min_elem_bytes`), so corrupt lengths cannot cause
    /// pathological preallocation.
    pub fn seq_len(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, CodecError> {
        let len = self.u32(what)? as usize;
        if len.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(CodecError::BadLen { what, len });
        }
        Ok(len)
    }
}

impl Loc {
    /// Appends the location to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.thread.0);
        put_u32(buf, self.block.0);
        put_u32(buf, self.stmt);
    }

    /// Decodes a location.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated input.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Loc {
            thread: ThreadId::new(r.u32("Loc.thread")?),
            block: BlockId::new(r.u32("Loc.block")?),
            stmt: r.u32("Loc.stmt")?,
        })
    }
}

impl CrashKind {
    /// Appends the crash kind to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let tag = match self {
            CrashKind::AssertFailed => 0u8,
            CrashKind::DivByZero => 1,
            CrashKind::RemByZero => 2,
            CrashKind::UnlockNotHeld => 3,
        };
        put_u8(buf, tag);
    }

    /// Decodes a crash kind.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated input or an unknown tag.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8("CrashKind")? {
            0 => Ok(CrashKind::AssertFailed),
            1 => Ok(CrashKind::DivByZero),
            2 => Ok(CrashKind::RemByZero),
            3 => Ok(CrashKind::UnlockNotHeld),
            tag => Err(CodecError::BadTag {
                what: "CrashKind",
                tag,
            }),
        }
    }
}

impl Place {
    /// Appends the place to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Place::Local(l) => {
                put_u8(buf, 0);
                put_u32(buf, l.0);
            }
            Place::Global(g) => {
                put_u8(buf, 1);
                put_u32(buf, g.0);
            }
        }
    }

    /// Decodes a place.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated input or an unknown tag.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8("Place")? {
            0 => Ok(Place::Local(LocalId::new(r.u32("Place.local")?))),
            1 => Ok(Place::Global(GlobalId::new(r.u32("Place.global")?))),
            tag => Err(CodecError::BadTag { what: "Place", tag }),
        }
    }
}

fn un_op_tag(op: UnOp) -> u8 {
    match op {
        UnOp::Neg => 0,
        UnOp::Not => 1,
        UnOp::BitNot => 2,
    }
}

fn un_op_from(tag: u8) -> Result<UnOp, CodecError> {
    match tag {
        0 => Ok(UnOp::Neg),
        1 => Ok(UnOp::Not),
        2 => Ok(UnOp::BitNot),
        tag => Err(CodecError::BadTag { what: "UnOp", tag }),
    }
}

fn bin_op_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::Lt => 5,
        BinOp::Le => 6,
        BinOp::Gt => 7,
        BinOp::Ge => 8,
        BinOp::Eq => 9,
        BinOp::Ne => 10,
        BinOp::And => 11,
        BinOp::Or => 12,
        BinOp::BitAnd => 13,
        BinOp::BitOr => 14,
        BinOp::BitXor => 15,
        BinOp::Shl => 16,
        BinOp::Shr => 17,
    }
}

fn bin_op_from(tag: u8) -> Result<BinOp, CodecError> {
    Ok(match tag {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Rem,
        5 => BinOp::Lt,
        6 => BinOp::Le,
        7 => BinOp::Gt,
        8 => BinOp::Ge,
        9 => BinOp::Eq,
        10 => BinOp::Ne,
        11 => BinOp::And,
        12 => BinOp::Or,
        13 => BinOp::BitAnd,
        14 => BinOp::BitOr,
        15 => BinOp::BitXor,
        16 => BinOp::Shl,
        17 => BinOp::Shr,
        tag => return Err(CodecError::BadTag { what: "BinOp", tag }),
    })
}

impl Expr {
    /// Appends the expression tree to `buf` (pre-order).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Expr::Const(v) => {
                put_u8(buf, 0);
                put_i64(buf, *v);
            }
            Expr::Load(p) => {
                put_u8(buf, 1);
                p.encode_into(buf);
            }
            Expr::Input(i) => {
                put_u8(buf, 2);
                put_u32(buf, i.0);
            }
            Expr::Un(op, e) => {
                put_u8(buf, 3);
                put_u8(buf, un_op_tag(*op));
                e.encode_into(buf);
            }
            Expr::Bin(op, l, r) => {
                put_u8(buf, 4);
                put_u8(buf, bin_op_tag(*op));
                l.encode_into(buf);
                r.encode_into(buf);
            }
        }
    }

    /// Decodes an expression tree.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated input, unknown tags, or
    /// nesting beyond the decoder's depth limit.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Expr::decode_at(r, 0)
    }

    fn decode_at(r: &mut Reader<'_>, depth: usize) -> Result<Self, CodecError> {
        if depth > MAX_EXPR_DEPTH {
            return Err(CodecError::DepthExceeded);
        }
        match r.u8("Expr")? {
            0 => Ok(Expr::Const(r.i64("Expr.const")?)),
            1 => Ok(Expr::Load(Place::decode(r)?)),
            2 => Ok(Expr::Input(InputId::new(r.u32("Expr.input")?))),
            3 => {
                let op = un_op_from(r.u8("Expr.unop")?)?;
                Ok(Expr::Un(op, Box::new(Expr::decode_at(r, depth + 1)?)))
            }
            4 => {
                let op = bin_op_from(r.u8("Expr.binop")?)?;
                let lhs = Expr::decode_at(r, depth + 1)?;
                let rhs = Expr::decode_at(r, depth + 1)?;
                Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs)))
            }
            tag => Err(CodecError::BadTag { what: "Expr", tag }),
        }
    }
}

impl Overlay {
    /// Appends the overlay (all rule families + provenance name) to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        put_str(buf, &self.name);
        put_u32(buf, self.lock_gates.len() as u32);
        for g in &self.lock_gates {
            put_u32(buf, g.gate.0);
            put_u32(buf, g.locks.len() as u32);
            for l in &g.locks {
                put_u32(buf, l.0);
            }
        }
        put_u32(buf, self.guards.len() as u32);
        for g in &self.guards {
            g.loc.encode_into(buf);
            g.when.encode_into(buf);
            match g.action {
                GuardAction::SkipStmt => put_u8(buf, 0),
                GuardAction::ExitThread => put_u8(buf, 1),
                GuardAction::SetPlace(p, v) => {
                    put_u8(buf, 2);
                    p.encode_into(buf);
                    put_i64(buf, v);
                }
            }
        }
        put_u32(buf, self.loop_bounds.len() as u32);
        for b in &self.loop_bounds {
            put_u32(buf, b.thread.0);
            put_u32(buf, b.header.0);
            put_u64(buf, b.max_iters);
        }
    }

    /// Decodes an overlay.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on any malformed input.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let name = r.str("Overlay.name")?.to_string();
        let n_gates = r.seq_len("Overlay.lock_gates", 8)?;
        let mut lock_gates = Vec::with_capacity(n_gates);
        for _ in 0..n_gates {
            let gate = LockId::new(r.u32("LockGate.gate")?);
            let n_locks = r.seq_len("LockGate.locks", 4)?;
            let mut locks = std::collections::BTreeSet::new();
            for _ in 0..n_locks {
                locks.insert(LockId::new(r.u32("LockGate.lock")?));
            }
            lock_gates.push(LockGate { gate, locks });
        }
        let n_guards = r.seq_len("Overlay.guards", 14)?;
        let mut guards = Vec::with_capacity(n_guards);
        for _ in 0..n_guards {
            let loc = Loc::decode(r)?;
            let when = Expr::decode(r)?;
            let action = match r.u8("GuardAction")? {
                0 => GuardAction::SkipStmt,
                1 => GuardAction::ExitThread,
                2 => {
                    let p = Place::decode(r)?;
                    GuardAction::SetPlace(p, r.i64("GuardAction.value")?)
                }
                tag => {
                    return Err(CodecError::BadTag {
                        what: "GuardAction",
                        tag,
                    })
                }
            };
            guards.push(SiteGuard { loc, when, action });
        }
        let n_bounds = r.seq_len("Overlay.loop_bounds", 16)?;
        let mut loop_bounds = Vec::with_capacity(n_bounds);
        for _ in 0..n_bounds {
            loop_bounds.push(LoopBound {
                thread: ThreadId::new(r.u32("LoopBound.thread")?),
                header: BlockId::new(r.u32("LoopBound.header")?),
                max_iters: r.u64("LoopBound.max_iters")?,
            });
        }
        Ok(Overlay {
            name,
            lock_gates,
            guards,
            loop_bounds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::GHOST_LOCK_BASE;

    fn sample_overlay() -> Overlay {
        let mut locks = std::collections::BTreeSet::new();
        locks.insert(LockId::new(1));
        locks.insert(LockId::new(4));
        Overlay {
            name: "fix-a+fix-b".into(),
            lock_gates: vec![LockGate {
                gate: LockId::new(GHOST_LOCK_BASE),
                locks,
            }],
            guards: vec![SiteGuard {
                loc: Loc {
                    thread: ThreadId::new(1),
                    block: BlockId::new(2),
                    stmt: 3,
                },
                when: Expr::bin(
                    BinOp::And,
                    Expr::lt(Expr::input(0), Expr::Const(7)),
                    Expr::un(UnOp::Not, Expr::global(2)),
                ),
                action: GuardAction::SetPlace(Place::Local(LocalId::new(5)), -9),
            }],
            loop_bounds: vec![LoopBound {
                thread: ThreadId::new(0),
                header: BlockId::new(9),
                max_iters: 10_000,
            }],
        }
    }

    #[test]
    fn overlay_roundtrips() {
        let o = sample_overlay();
        let mut buf = Vec::new();
        o.encode_into(&mut buf);
        let mut r = Reader::new(&buf);
        let back = Overlay::decode(&mut r).expect("decode");
        assert!(r.is_empty());
        assert_eq!(o, back);
    }

    #[test]
    fn encoding_is_deterministic() {
        let o = sample_overlay();
        let mut a = Vec::new();
        let mut b = Vec::new();
        o.encode_into(&mut a);
        o.clone().encode_into(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn truncation_is_a_typed_error_never_a_panic() {
        let o = sample_overlay();
        let mut buf = Vec::new();
        o.encode_into(&mut buf);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(Overlay::decode(&mut r).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn bad_tags_are_rejected() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 9);
        assert_eq!(
            Expr::decode(&mut Reader::new(&buf)),
            Err(CodecError::BadTag {
                what: "Expr",
                tag: 9
            })
        );
    }

    #[test]
    fn hostile_length_prefix_cannot_preallocate() {
        let mut buf = Vec::new();
        put_str(&mut buf, "x");
        put_u32(&mut buf, u32::MAX); // lock_gates "length"
        let err = Overlay::decode(&mut Reader::new(&buf)).unwrap_err();
        assert!(matches!(err, CodecError::BadLen { .. }), "{err:?}");
    }

    #[test]
    fn deep_expression_nesting_is_bounded() {
        let mut buf = Vec::new();
        for _ in 0..5000 {
            put_u8(&mut buf, 3); // Un
            put_u8(&mut buf, 0); // Neg
        }
        put_u8(&mut buf, 0);
        put_i64(&mut buf, 1);
        assert_eq!(
            Expr::decode(&mut Reader::new(&buf)),
            Err(CodecError::DepthExceeded)
        );
    }
}
