//! A compact bit vector: the paper's trace encoding ("one bit per branch …
//! which ends up encoding an execution as a bit-vector", §3.1).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A growable sequence of bits, packed 8 per byte (LSB first).
#[derive(Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitVec {
    buf: Vec<u8>,
    len: usize,
}

impl BitVec {
    /// An empty bit vector.
    pub fn new() -> Self {
        BitVec::default()
    }

    /// An empty bit vector with capacity for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        BitVec {
            buf: Vec::with_capacity(bits.div_ceil(8)),
            len: 0,
        }
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        let byte = self.len / 8;
        if byte == self.buf.len() {
            self.buf.push(0);
        }
        if bit {
            self.buf[byte] |= 1 << (self.len % 8);
        }
        self.len += 1;
    }

    /// The bit at `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<bool> {
        if index >= self.len {
            return None;
        }
        Some(self.buf[index / 8] & (1 << (index % 8)) != 0)
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of bytes backing the vector.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// The packed bytes (last byte zero-padded).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Reconstructs a bit vector from packed bytes and a bit count.
    ///
    /// Returns `None` when `len` does not fit in `bytes`.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Option<Self> {
        if len.div_ceil(8) > bytes.len() {
            return None;
        }
        Some(BitVec {
            buf: bytes[..len.div_ceil(8)].to_vec(),
            len,
        })
    }

    /// Shortens the vector to at most `n` bits (no-op when already shorter).
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len {
            return;
        }
        self.len = n;
        self.buf.truncate(n.div_ceil(8));
        // Clear the padding bits of the last byte so equality stays
        // structural.
        if let Some(last) = self.buf.last_mut() {
            let keep = n % 8;
            if keep != 0 {
                *last &= (1u8 << keep) - 1;
            }
        }
    }

    /// Iterates over the bits.
    pub fn iter(&self) -> Iter<'_> {
        Iter { bv: self, pos: 0 }
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut bv = BitVec::new();
        for b in iter {
            bv.push(b);
        }
        bv
    }
}

impl Extend<bool> for BitVec {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        for b in self.iter().take(64) {
            f.write_str(if b { "1" } else { "0" })?;
        }
        if self.len > 64 {
            f.write_str("…")?;
        }
        f.write_str("]")
    }
}

/// Iterator over a [`BitVec`]'s bits.
#[derive(Debug)]
pub struct Iter<'a> {
    bv: &'a BitVec,
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;
    fn next(&mut self) -> Option<bool> {
        let b = self.bv.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.bv.len - self.pos;
        (rem, Some(rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_get_roundtrip() {
        let mut bv = BitVec::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            bv.push(b);
        }
        assert_eq!(bv.len(), 9);
        assert_eq!(bv.byte_len(), 2);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(bv.get(i), Some(b));
        }
        assert_eq!(bv.get(9), None);
    }

    #[test]
    fn from_iter_and_iter_agree() {
        let bits = vec![true, true, false, true];
        let bv: BitVec = bits.iter().copied().collect();
        assert_eq!(bv.iter().collect::<Vec<_>>(), bits);
    }

    #[test]
    fn truncate_clears_padding() {
        let mut a: BitVec = [true; 8].iter().copied().collect();
        a.truncate(3);
        let b: BitVec = [true; 3].iter().copied().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn truncate_longer_is_noop() {
        let mut a: BitVec = [true, false].iter().copied().collect();
        a.truncate(10);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn from_bytes_checks_length() {
        assert!(BitVec::from_bytes(&[0xff], 8).is_some());
        assert!(BitVec::from_bytes(&[0xff], 9).is_none());
        let bv = BitVec::from_bytes(&[0b101], 3).unwrap();
        assert_eq!(bv.iter().collect::<Vec<_>>(), vec![true, false, true]);
    }

    #[test]
    fn debug_is_compact() {
        let bv: BitVec = [true, false].iter().copied().collect();
        assert_eq!(format!("{bv:?}"), "BitVec[2; 10]");
    }

    proptest! {
        #[test]
        fn prop_roundtrip_via_bytes(bits in proptest::collection::vec(any::<bool>(), 0..256)) {
            let bv: BitVec = bits.iter().copied().collect();
            let back = BitVec::from_bytes(bv.as_bytes(), bv.len()).unwrap();
            prop_assert_eq!(&bv, &back);
            prop_assert_eq!(back.iter().collect::<Vec<_>>(), bits);
        }

        #[test]
        fn prop_truncate_is_prefix(bits in proptest::collection::vec(any::<bool>(), 0..128), k in 0usize..128) {
            let mut bv: BitVec = bits.iter().copied().collect();
            bv.truncate(k);
            let want: Vec<bool> = bits.iter().copied().take(k).collect();
            prop_assert_eq!(bv.iter().collect::<Vec<_>>(), want);
        }
    }
}
