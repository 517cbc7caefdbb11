//! The reconstruction memo cache: one fixed-capacity ring with
//! second-chance (clock) eviction, shared by every ingest participant.
//!
//! Participants recycle decode+reconstruction results keyed on the exact
//! encoded trace bytes. The original cache simply stopped inserting at
//! capacity, so a long-running cache froze on whatever traces arrived
//! first — exactly wrong for a population whose hot paths drift over
//! time. This ring keeps admitting new entries and evicts the first slot
//! the clock hand finds whose reference bit is clear: recently-hit
//! entries get a second chance, cold ones rotate out. One clock runs
//! over the whole capacity, and an operation is O(1) amortized — a
//! deliberate approximation of LRU without the linked-list bookkeeping.
//!
//! A caller hashes each payload once, with the cache's own keyed hasher
//! (a fresh [`RandomState`] per cache), outside any lock, and passes the
//! hashes to [`get_all`](MemoCache::get_all) and, for each miss, to
//! [`insert`](MemoCache::insert). Each holds the cache's lock for the
//! probe (of all of a frame's payloads at once) or the insert alone, so
//! whatever the caller computes between them runs unlocked. A probe
//! takes the lock shared and writes a hit slot's reference bit only when
//! it is clear, so hot entries do not bounce cache lines between
//! participants. Every hit compares the slot's bytes
//! with the payload, so two payloads that share a hash never return each
//! other's value: the later one re-points the index and the earlier
//! one's slot goes stale until the hand reclaims it. When two callers
//! miss the same key at once, the first insert is kept and the second
//! counts as a use of it, so each key is copied into the cache once. A
//! slot stores its hash, so eviction never rehashes a key.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

struct Slot<V> {
    /// The key's hash under the cache's hasher.
    hash: u64,
    key: Box<[u8]>,
    value: V,
    /// Reference bit: set on hit, cleared as the clock hand sweeps by.
    referenced: AtomicBool,
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

/// What the lock guards: the index, the slots and the clock hand.
struct Ring<V> {
    /// Key hash → the slot of the last key inserted under that hash.
    index: HashMap<u64, usize, BuildHasherDefault<PassThrough>>,
    slots: Vec<Slot<V>>,
    hand: usize,
}

impl<V> Ring<V> {
    /// The slot holding exactly `key`, indexed under `hash`.
    fn find(&self, hash: u64, key: &[u8]) -> Option<&Slot<V>> {
        let slot = &self.slots[*self.index.get(&hash)?];
        (*slot.key == *key).then_some(slot)
    }
}

/// A byte-keyed memo cache with clock (second-chance) eviction, safe to
/// share between threads.
pub struct MemoCache<V, S = RandomState> {
    capacity: usize,
    hasher: S,
    ring: RwLock<Ring<V>>,
}

impl<V> MemoCache<V> {
    /// Creates a cache holding at most `capacity` entries, keyed by a
    /// fresh [`RandomState`]. Zero capacity disables the cache (every
    /// lookup misses, every insert is a no-op).
    pub fn new(capacity: usize) -> Self {
        MemoCache::with_hasher(capacity, RandomState::new())
    }
}

impl<V> Default for MemoCache<V> {
    /// A disabled cache: zero capacity, nothing allocated.
    fn default() -> Self {
        MemoCache::new(0)
    }
}

impl<V, S: BuildHasher> MemoCache<V, S> {
    /// [`new`](MemoCache::new) with an explicit key hasher.
    pub fn with_hasher(capacity: usize, hasher: S) -> Self {
        let ring = Ring {
            index: HashMap::with_capacity_and_hasher(capacity.min(1 << 16), Default::default()),
            slots: Vec::with_capacity(capacity.min(1 << 16)),
            hand: 0,
        };
        MemoCache {
            capacity,
            hasher,
            ring: RwLock::new(ring),
        }
    }

    /// `key`'s hash under the cache's keyed hasher: what
    /// [`get_all`](Self::get_all) and [`insert`](Self::insert) take with it.
    pub fn key_hash(&self, key: &[u8]) -> u64 {
        self.hasher.hash_one(key)
    }
}

impl<V, S> MemoCache<V, S> {
    /// The most entries the cache holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently cached (stale slots included).
    pub fn len(&self) -> usize {
        self.read().slots.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// No update of the ring can be left half done by a panic (none of
    /// its steps calls out), so a poisoned lock is taken as it stands.
    fn read(&self) -> RwLockReadGuard<'_, Ring<V>> {
        self.ring.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Ring<V>> {
        self.ring.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// For each `(hash, key)` in turn (`hash` being the key's
    /// [`key_hash`]), the value cached for exactly `key`, now marked
    /// recently used; all of them under one hold of the lock.
    ///
    /// [`key_hash`]: MemoCache::key_hash
    pub fn get_all(&self, keys: &[(u64, &[u8])]) -> Vec<Option<V>>
    where
        V: Clone,
    {
        if self.capacity == 0 {
            return vec![None; keys.len()];
        }
        let ring = self.read();
        let hit = |&(hash, key): &(u64, &[u8])| {
            let slot = ring.find(hash, key)?;
            if !slot.referenced.load(Ordering::Relaxed) {
                slot.referenced.store(true, Ordering::Relaxed);
            }
            Some(slot.value.clone())
        };
        keys.iter().map(hit).collect()
    }

    /// Caches `value` under `key` (whose [`key_hash`] is `hash`), with
    /// its reference bit set when `referenced` (the key is known to be
    /// used again). Returns whether an entry was evicted to make room.
    ///
    /// When `key` is cached already — another caller missed it too and
    /// inserted first — the first value is kept and this insert marks it
    /// recently used, as the hit it would have been. At capacity, the
    /// clock hand sweeps until it finds a slot whose reference bit is
    /// clear — clearing bits as it passes — and evicts it.
    ///
    /// [`key_hash`]: MemoCache::key_hash
    pub fn insert(&self, hash: u64, key: &[u8], value: V, referenced: bool) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let mut ring = self.write();
        if let Some(first) = ring.find(hash, key) {
            first.referenced.store(true, Ordering::Relaxed);
            return false;
        }
        let slot = Slot {
            hash,
            key: key.into(),
            value,
            referenced: AtomicBool::new(referenced),
        };
        let ring = &mut *ring;
        let (at, evicted) = if ring.slots.len() < self.capacity {
            ring.slots.push(slot);
            (ring.slots.len() - 1, false)
        } else {
            // Second-chance sweep. Bounded: after one full lap every bit
            // is clear, so the hand stops within 2·capacity steps.
            while std::mem::take(ring.slots[ring.hand].referenced.get_mut()) {
                ring.hand = (ring.hand + 1) % self.capacity;
            }
            let victim = ring.hand;
            let old = std::mem::replace(&mut ring.slots[victim], slot);
            // A later key with the same hash may have re-pointed the
            // victim's index entry; that entry is live and stays.
            if ring.index.get(&old.hash) == Some(&victim) {
                ring.index.remove(&old.hash);
            }
            ring.hand = (victim + 1) % self.capacity;
            (victim, true)
        };
        ring.index.insert(hash, at);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn k(b: u8) -> Vec<u8> {
        vec![b; 4]
    }

    fn get<V: Clone, S: BuildHasher>(c: &MemoCache<V, S>, key: &[u8]) -> Option<V> {
        let found = c.get_all(&[(c.key_hash(key), key)]);
        found.into_iter().next().expect("one key, one answer")
    }

    /// Inserts a key not cached yet; returns whether it evicted one.
    fn put<V: Clone, S: BuildHasher>(c: &MemoCache<V, S>, key: &[u8], value: V) -> bool {
        assert!(get(c, key).is_none(), "{key:?} is already cached");
        c.insert(c.key_hash(key), key, value, false)
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
        let c = MemoCache::new(4);
        assert_eq!(get(&c, &k(1)), None);
        assert!(!put(&c, &k(1), 10));
        assert!(!put(&c, &k(2), 20));
        assert_eq!(get(&c, &k(1)), Some(10));
        assert_eq!(get(&c, &k(2)), Some(20));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_without_panicking() {
        let c = MemoCache::new(0);
        assert!(!put(&c, &k(1), 1));
        assert_eq!(get(&c, &k(1)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn at_capacity_new_entries_still_admit_and_evict() {
        let c = MemoCache::new(2);
        put(&c, &k(1), 1);
        put(&c, &k(2), 2);
        // Evicts one of the cold entries.
        assert!(put(&c, &k(3), 3));
        assert_eq!(c.len(), 2);
        assert_eq!(get(&c, &k(3)), Some(3), "the newest entry must be cached");
    }

    #[test]
    fn recently_hit_entries_survive_the_sweep() {
        let c = MemoCache::new(3);
        put(&c, &k(1), 1);
        put(&c, &k(2), 2);
        put(&c, &k(3), 3);
        // Keep 1 hot; 2 and 3 are cold.
        assert_eq!(get(&c, &k(1)), Some(1));
        assert!(put(&c, &k(4), 4)); // hand passes 1 (second chance), evicts 2
        assert_eq!(get(&c, &k(1)), Some(1), "hot entry evicted");
        assert_eq!(get(&c, &k(2)), None, "cold entry should have rotated out");
        assert_eq!(get(&c, &k(4)), Some(4));
    }

    #[test]
    fn a_second_insert_of_a_key_keeps_the_first_and_counts_as_a_use() {
        let c = MemoCache::new(2);
        put(&c, &k(1), 1);
        assert!(!c.insert(c.key_hash(&k(1)), &k(1), 9, false));
        assert_eq!((get(&c, &k(1)), c.len()), (Some(1), 1));
        // The second insert set key 1's bit, so key 2 is the victim.
        let c = MemoCache::new(2);
        put(&c, &k(1), 1);
        c.insert(c.key_hash(&k(1)), &k(1), 9, false);
        put(&c, &k(2), 2);
        assert!(put(&c, &k(3), 3));
        assert_eq!((get(&c, &k(1)), get(&c, &k(2))), (Some(1), None));
    }

    #[test]
    fn a_referenced_insert_is_an_insert_then_a_hit() {
        // At capacity 2, the third key evicts the first slot the hand
        // finds unreferenced: key 2, whenever key 1 was used again.
        let fill = |referenced: bool, hit: bool| {
            let c = MemoCache::new(2);
            c.insert(c.key_hash(&k(1)), &k(1), 1, referenced);
            if hit {
                assert_eq!(get(&c, &k(1)), Some(1));
            }
            put(&c, &k(2), 2);
            put(&c, &k(3), 3);
            (get(&c, &k(1)), get(&c, &k(2)))
        };
        assert_eq!(fill(true, false), fill(false, true));
        assert_eq!(fill(true, false), (Some(1), None));
        assert_eq!(fill(false, false), (None, Some(2)));
    }

    #[test]
    fn churn_stays_bounded_and_consistent() {
        let c = MemoCache::new(8);
        let mut evictions = 0;
        for round in 0u8..32 {
            for b in 0u8..16 {
                let key = [round.wrapping_mul(17) ^ b; 3];
                if get(&c, &key).is_none() {
                    evictions += u32::from(put(&c, &key, u32::from(key[0])));
                }
            }
            assert!(c.len() <= 8);
        }
        assert!(evictions > 0);
        // Every hit returns the value stored for exactly its key.
        for b in 0u8..=255 {
            if let Some(v) = get(&c, &[b; 3]) {
                assert_eq!(v, u32::from(b));
            }
        }
    }

    #[test]
    fn threads_sharing_a_cache_insert_each_key_once_within_capacity() {
        let c = MemoCache::<u32>::new(64);
        let start = Barrier::new(4);
        let evictions: u32 = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let mut evicted = 0;
                        for b in 0u8..=255 {
                            let key = [b % 96; 5];
                            let hash = c.key_hash(&key);
                            match get(&c, &key) {
                                Some(v) => assert_eq!(v, u32::from(key[0])),
                                None => {
                                    evicted += u32::from(c.insert(hash, &key, key[0].into(), false))
                                }
                            }
                            assert!(c.len() <= 64);
                        }
                        evicted
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).sum()
        });
        assert_eq!(c.len(), 64);
        // Each eviction made room for a key not cached at the time, so
        // every key beyond the capacity took at least one.
        assert!(evictions >= 96 - 64);
    }

    #[test]
    fn keys_sharing_a_hash_never_return_each_others_value() {
        let c = colliding(4);
        let (a, b) = ([7, 0], [7, 1]);
        assert_eq!(c.key_hash(&a), c.key_hash(&b));
        put(&c, &a, 1);
        assert_eq!(get(&c, &b), None, "b must not hit a's slot");
        put(&c, &b, 2);
        assert_eq!(get(&c, &b), Some(2));
        assert_eq!(get(&c, &a), None, "a's slot is stale, not b's value");
        put(&c, &a, 3);
        assert_eq!(get(&c, &a), Some(3));
        assert_eq!(get(&c, &b), None);
    }

    #[test]
    fn evicting_a_stale_slot_keeps_the_live_entry_indexed() {
        let c = colliding(2);
        put(&c, &[7, 0], 1); // slot 0
        put(&c, &[7, 1], 2); // slot 1; the shared index entry now points here
        assert!(put(&c, &[9, 0], 3)); // evicts slot 0, whose entry was re-pointed
        assert_eq!(get(&c, &[7, 1]), Some(2), "live entry unindexed");
        assert_eq!(get(&c, &[9, 0]), Some(3));
        assert_eq!(get(&c, &[7, 0]), None);
    }
}
