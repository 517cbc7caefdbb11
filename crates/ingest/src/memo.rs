//! The reconstruction memo cache: a fixed-capacity ring with
//! second-chance (clock) eviction.
//!
//! Workers recycle decode+reconstruction results keyed on the exact
//! encoded trace bytes. The original cache simply stopped inserting at
//! capacity, so a long-running worker's cache froze on whatever traces
//! arrived first — exactly wrong for a population whose hot paths drift
//! over time. This ring keeps admitting new entries and evicts the first
//! slot the clock hand finds whose reference bit is clear: recently-hit
//! entries get a second chance, cold ones rotate out. One `usize` per
//! slot and O(1) amortized per operation — a deliberate approximation of
//! LRU without the linked-list bookkeeping.

use std::collections::HashMap;

struct Slot<V> {
    key: Vec<u8>,
    value: V,
    /// Reference bit: set on hit, cleared as the clock hand sweeps by.
    referenced: bool,
}

/// A byte-keyed memo cache with clock (second-chance) eviction.
pub struct MemoCache<V> {
    capacity: usize,
    index: HashMap<Vec<u8>, usize>,
    slots: Vec<Slot<V>>,
    hand: usize,
    evictions: u64,
}

impl<V: Clone> MemoCache<V> {
    /// Creates a cache holding at most `capacity` entries. Zero
    /// capacity disables the cache (every `get` misses, `insert` is a
    /// no-op).
    pub fn new(capacity: usize) -> Self {
        MemoCache {
            capacity,
            index: HashMap::with_capacity(capacity.min(1 << 16)),
            slots: Vec::with_capacity(capacity.min(1 << 16)),
            hand: 0,
            evictions: 0,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks `key` up, marking the entry recently used on a hit.
    pub fn get(&mut self, key: &[u8]) -> Option<V> {
        let &slot = self.index.get(key)?;
        let s = &mut self.slots[slot];
        s.referenced = true;
        Some(s.value.clone())
    }

    /// Inserts `key → value`. At capacity, the clock hand sweeps until
    /// it finds a slot whose reference bit is clear — clearing bits as
    /// it passes — and evicts it. Inserting an existing key refreshes
    /// its value and reference bit.
    pub fn insert(&mut self, key: Vec<u8>, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.index.get(&key) {
            let s = &mut self.slots[slot];
            s.value = value;
            s.referenced = true;
            return;
        }
        if self.slots.len() < self.capacity {
            self.index.insert(key.clone(), self.slots.len());
            self.slots.push(Slot {
                key,
                value,
                referenced: false,
            });
            return;
        }
        // Second-chance sweep. Bounded: after one full lap every bit is
        // clear, so the hand stops within 2·capacity steps.
        loop {
            let s = &mut self.slots[self.hand];
            if s.referenced {
                s.referenced = false;
                self.hand = (self.hand + 1) % self.capacity;
                continue;
            }
            let victim = self.hand;
            self.index.remove(&s.key);
            self.index.insert(key.clone(), victim);
            self.slots[victim] = Slot {
                key,
                value,
                referenced: false,
            };
            self.evictions += 1;
            self.hand = (victim + 1) % self.capacity;
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(b: u8) -> Vec<u8> {
        vec![b; 4]
    }

    #[test]
    fn hit_and_miss() {
        let mut c = MemoCache::new(4);
        assert_eq!(c.get(&k(1)), None);
        c.insert(k(1), 10);
        c.insert(k(2), 20);
        assert_eq!(c.get(&k(1)), Some(10));
        assert_eq!(c.get(&k(2)), Some(20));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn zero_capacity_disables_without_panicking() {
        let mut c = MemoCache::new(0);
        c.insert(k(1), 1);
        assert_eq!(c.get(&k(1)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn at_capacity_new_entries_still_admit_and_evict() {
        let mut c = MemoCache::new(2);
        c.insert(k(1), 1);
        c.insert(k(2), 2);
        c.insert(k(3), 3); // evicts one of the cold entries
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.get(&k(3)), Some(3), "the newest entry must be cached");
    }

    #[test]
    fn recently_hit_entries_survive_the_sweep() {
        let mut c = MemoCache::new(3);
        c.insert(k(1), 1);
        c.insert(k(2), 2);
        c.insert(k(3), 3);
        // Keep 1 hot; 2 and 3 are cold.
        assert_eq!(c.get(&k(1)), Some(1));
        c.insert(k(4), 4); // hand passes 1 (second chance), evicts 2
        assert_eq!(c.get(&k(1)), Some(1), "hot entry evicted");
        assert_eq!(c.get(&k(2)), None, "cold entry should have rotated out");
        assert_eq!(c.get(&k(4)), Some(4));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn reinserting_a_key_refreshes_in_place() {
        let mut c = MemoCache::new(2);
        c.insert(k(1), 1);
        c.insert(k(1), 100);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&k(1)), Some(100));
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn churn_stays_bounded_and_consistent() {
        let mut c = MemoCache::new(8);
        for round in 0u8..32 {
            for b in 0u8..16 {
                c.insert(vec![round.wrapping_mul(17) ^ b; 3], (b as u32) + 1);
            }
            assert!(c.len() <= 8);
        }
        assert!(c.evictions() > 0);
        // Every index entry must point at a slot holding its key.
        for b in 0u8..=255 {
            if let Some(v) = c.get(&[b; 3]) {
                assert!(v >= 1);
            }
        }
    }
}
