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
//!
//! A lookup hashes the payload once, with the cache's own keyed hasher
//! (a fresh [`RandomState`] per cache, so per worker), and the index maps
//! that hash to a slot. Every hit compares the slot's bytes with the
//! payload, so two payloads that share a hash never return each other's
//! value: the later one re-points the index and the earlier one's slot
//! goes stale until the hand reclaims it. A slot stores its hash, so
//! eviction never rehashes a key, and each key is copied into the cache
//! once.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};

struct Slot<V> {
    /// The key's hash under the cache's hasher.
    hash: u64,
    key: Box<[u8]>,
    value: V,
    /// Reference bit: set on hit, cleared as the clock hand sweeps by.
    referenced: bool,
}

/// The index's hasher: its keys are already hashes under the cache's
/// keyed hasher, so it passes them through. Crafting keys that collide
/// in the index still needs that key.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the index hashes only u64 keys")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// A byte-keyed memo cache with clock (second-chance) eviction.
pub struct MemoCache<V, S = RandomState> {
    capacity: usize,
    hasher: S,
    /// Key hash → the slot of the last key inserted under that hash.
    index: HashMap<u64, usize, BuildHasherDefault<PassThrough>>,
    slots: Vec<Slot<V>>,
    hand: usize,
    evictions: u64,
}

/// The result of [`MemoCache::entry`].
pub enum Entry<'a, V, S = RandomState> {
    /// The key is cached; its entry is now marked recently used.
    Hit(&'a V),
    /// The key is not cached; [`Vacancy::insert`] caches a value for it
    /// without hashing the key again.
    Miss(Vacancy<'a, V, S>),
}

/// A missed key, ready to be inserted.
pub struct Vacancy<'a, V, S = RandomState> {
    cache: &'a mut MemoCache<V, S>,
    hash: u64,
    key: &'a [u8],
}

impl<V> MemoCache<V> {
    /// Creates a cache holding at most `capacity` entries, keyed by a
    /// fresh [`RandomState`]. Zero capacity disables the cache (every
    /// lookup misses, every insert is a no-op).
    pub fn new(capacity: usize) -> Self {
        MemoCache::with_hasher(capacity, RandomState::new())
    }
}

impl<V, S: BuildHasher> MemoCache<V, S> {
    /// [`new`](MemoCache::new) with an explicit key hasher.
    pub fn with_hasher(capacity: usize, hasher: S) -> Self {
        MemoCache {
            capacity,
            hasher,
            index: HashMap::with_capacity_and_hasher(capacity.min(1 << 16), Default::default()),
            slots: Vec::with_capacity(capacity.min(1 << 16)),
            hand: 0,
            evictions: 0,
        }
    }

    /// Entries currently cached (stale slots included).
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

    /// Looks `key` up: a [`Hit`](Entry::Hit) when the slot its hash
    /// indexes holds exactly these bytes, else a [`Miss`](Entry::Miss)
    /// that can insert it.
    pub fn entry<'a>(&'a mut self, key: &'a [u8]) -> Entry<'a, V, S> {
        let hash = self.hasher.hash_one(key);
        let hit = (self.index.get(&hash).copied()).filter(|&slot| *self.slots[slot].key == *key);
        match hit {
            Some(slot) => {
                let s = &mut self.slots[slot];
                s.referenced = true;
                Entry::Hit(&s.value)
            }
            None => Entry::Miss(Vacancy {
                cache: self,
                hash,
                key,
            }),
        }
    }
}

impl<V, S> Vacancy<'_, V, S> {
    /// Caches `value` under the missed key. At capacity, the clock hand
    /// sweeps until it finds a slot whose reference bit is clear —
    /// clearing bits as it passes — and evicts it.
    pub fn insert(self, value: V) {
        let cache = self.cache;
        if cache.capacity == 0 {
            return;
        }
        let slot = Slot {
            hash: self.hash,
            key: self.key.into(),
            value,
            referenced: false,
        };
        let at = if cache.slots.len() < cache.capacity {
            cache.slots.push(slot);
            cache.slots.len() - 1
        } else {
            // Second-chance sweep. Bounded: after one full lap every bit
            // is clear, so the hand stops within 2·capacity steps.
            while cache.slots[cache.hand].referenced {
                cache.slots[cache.hand].referenced = false;
                cache.hand = (cache.hand + 1) % cache.capacity;
            }
            let victim = cache.hand;
            let old = std::mem::replace(&mut cache.slots[victim], slot);
            // A later key with the same hash may have re-pointed the
            // victim's index entry; that entry is live and stays.
            if cache.index.get(&old.hash) == Some(&victim) {
                cache.index.remove(&old.hash);
            }
            cache.evictions += 1;
            cache.hand = (victim + 1) % cache.capacity;
            victim
        };
        cache.index.insert(self.hash, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(b: u8) -> Vec<u8> {
        vec![b; 4]
    }

    fn get<V: Clone, S: BuildHasher>(c: &mut MemoCache<V, S>, key: &[u8]) -> Option<V> {
        match c.entry(key) {
            Entry::Hit(v) => Some(v.clone()),
            Entry::Miss(_) => None,
        }
    }

    fn put<V, S: BuildHasher>(c: &mut MemoCache<V, S>, key: &[u8], value: V) {
        match c.entry(key) {
            Entry::Hit(_) => panic!("{key:?} is already cached"),
            Entry::Miss(vacancy) => vacancy.insert(value),
        }
    }

    /// Hashes every key by its first byte, so keys sharing a first byte
    /// share an index entry.
    #[derive(Default)]
    struct FirstByte(u64);

    impl Hasher for FirstByte {
        fn finish(&self) -> u64 {
            self.0
        }

        fn write(&mut self, bytes: &[u8]) {
            self.0 = bytes.first().map_or(0, |&b| u64::from(b));
        }

        /// The slice's length prefix: ignored.
        fn write_usize(&mut self, _: usize) {}
    }

    fn colliding(capacity: usize) -> MemoCache<u32, BuildHasherDefault<FirstByte>> {
        MemoCache::with_hasher(capacity, BuildHasherDefault::default())
    }

    #[test]
    fn hit_and_miss() {
        let mut c = MemoCache::new(4);
        assert_eq!(get(&mut c, &k(1)), None);
        put(&mut c, &k(1), 10);
        put(&mut c, &k(2), 20);
        assert_eq!(get(&mut c, &k(1)), Some(10));
        assert_eq!(get(&mut c, &k(2)), Some(20));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn zero_capacity_disables_without_panicking() {
        let mut c = MemoCache::new(0);
        put(&mut c, &k(1), 1);
        assert_eq!(get(&mut c, &k(1)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn at_capacity_new_entries_still_admit_and_evict() {
        let mut c = MemoCache::new(2);
        put(&mut c, &k(1), 1);
        put(&mut c, &k(2), 2);
        put(&mut c, &k(3), 3); // evicts one of the cold entries
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert_eq!(
            get(&mut c, &k(3)),
            Some(3),
            "the newest entry must be cached"
        );
    }

    #[test]
    fn recently_hit_entries_survive_the_sweep() {
        let mut c = MemoCache::new(3);
        put(&mut c, &k(1), 1);
        put(&mut c, &k(2), 2);
        put(&mut c, &k(3), 3);
        // Keep 1 hot; 2 and 3 are cold.
        assert_eq!(get(&mut c, &k(1)), Some(1));
        put(&mut c, &k(4), 4); // hand passes 1 (second chance), evicts 2
        assert_eq!(get(&mut c, &k(1)), Some(1), "hot entry evicted");
        assert_eq!(
            get(&mut c, &k(2)),
            None,
            "cold entry should have rotated out"
        );
        assert_eq!(get(&mut c, &k(4)), Some(4));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn a_cached_key_hits_instead_of_reinserting() {
        let mut c = MemoCache::new(2);
        put(&mut c, &k(1), 1);
        assert!(matches!(c.entry(&k(1)), Entry::Hit(&1)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn churn_stays_bounded_and_consistent() {
        let mut c = MemoCache::new(8);
        for round in 0u8..32 {
            for b in 0u8..16 {
                let key = [round.wrapping_mul(17) ^ b; 3];
                if let Entry::Miss(vacancy) = c.entry(&key) {
                    vacancy.insert(u32::from(key[0]));
                }
            }
            assert!(c.len() <= 8);
        }
        assert!(c.evictions() > 0);
        // Every hit returns the value stored for exactly its key.
        for b in 0u8..=255 {
            if let Some(v) = get(&mut c, &[b; 3]) {
                assert_eq!(v, u32::from(b));
            }
        }
    }

    #[test]
    fn keys_sharing_a_hash_never_return_each_others_value() {
        let mut c = colliding(4);
        let (a, b) = ([7, 0], [7, 1]);
        assert_eq!(c.hasher.hash_one(&a[..]), c.hasher.hash_one(&b[..]));
        put(&mut c, &a, 1);
        assert_eq!(get(&mut c, &b), None, "b must not hit a's slot");
        put(&mut c, &b, 2);
        assert_eq!(get(&mut c, &b), Some(2));
        assert_eq!(get(&mut c, &a), None, "a's slot is stale, not b's value");
        put(&mut c, &a, 3);
        assert_eq!(get(&mut c, &a), Some(3));
        assert_eq!(get(&mut c, &b), None);
    }

    #[test]
    fn evicting_a_stale_slot_keeps_the_live_entry_indexed() {
        let mut c = colliding(2);
        put(&mut c, &[7, 0], 1); // slot 0
        put(&mut c, &[7, 1], 2); // slot 1; the shared index entry now points here
        put(&mut c, &[9, 0], 3); // evicts slot 0, whose entry was re-pointed
        assert_eq!(c.evictions(), 1);
        assert_eq!(get(&mut c, &[7, 1]), Some(2), "live entry unindexed");
        assert_eq!(get(&mut c, &[9, 0]), Some(3));
        assert_eq!(get(&mut c, &[7, 0]), None);
    }
}
