//! Dense ID tables and a fast deterministic hasher for the dispatch hot path.
//!
//! Falkon's control-plane identifiers
//! ([`ExecutorId`](crate::ids::ExecutorId), [`InstanceId`](crate::ids::InstanceId),
//! [`AllocationId`](crate::ids::AllocationId)) are assigned sequentially, so
//! keying a SipHash `HashMap` with them pays for hashing and collision
//! probing on every dispatch just to index what is morally an array.
//! [`DenseMap`] stores values in a `Vec<Option<V>>` indexed directly by the
//! id: O(1) lookups with no hashing, and — unlike `HashMap` — **iteration in
//! ascending key order**, which makes every iteration-dependent decision
//! deterministic by construction.
//!
//! Where keys genuinely are sparse (task ids in a 2 M-task run, data-object
//! hashes), `FxHashMap` keeps a real hash table but swaps SipHash for the
//! multiply-xor hash used by rustc ("FxHash", written out here because the
//! workspace vendors no external crates). It is not DoS-resistant, which is
//! fine for ids generated by our own clients, and it is *seed-free*: unlike
//! `RandomState`, two runs of the same program hash identically, so even
//! accidental iteration-order dependence cannot produce run-to-run drift.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::marker::PhantomData;

/// Keys usable with [`DenseMap`]: cheap two-way conversion to a small
/// sequential index.
pub trait DenseKey: Copy {
    /// The array index for this key.
    fn index(self) -> usize;
    /// Reconstruct the key from its index (for iteration).
    fn from_index(index: usize) -> Self;
}

impl DenseKey for crate::ids::ExecutorId {
    fn index(self) -> usize {
        self.0 as usize
    }
    fn from_index(index: usize) -> Self {
        Self(index as u64)
    }
}

impl DenseKey for crate::ids::InstanceId {
    fn index(self) -> usize {
        self.0 as usize
    }
    fn from_index(index: usize) -> Self {
        Self(index as u64)
    }
}

impl DenseKey for crate::ids::AllocationId {
    fn index(self) -> usize {
        self.0 as usize
    }
    fn from_index(index: usize) -> Self {
        Self(index as u64)
    }
}

/// An id-indexed table: `Vec<Option<V>>` with map semantics.
///
/// Lookups are a bounds check and an array index; iteration is in ascending
/// key order. Slots of removed entries are kept (the id spaces grow
/// monotonically and stay small — thousands of executors, not billions), so
/// a key's slot address is stable for the table's lifetime.
///
/// Callers own id assignment and must keep keys small and sequential;
/// inserting a huge key allocates a slot for every id below it. Wire-facing
/// machines guard with `DENSE_ID_CAP` before inserting ids they did not
/// assign themselves.
#[derive(Debug)]
pub struct DenseMap<K: DenseKey, V> {
    slots: Vec<Option<V>>,
    len: usize,
    _key: PhantomData<K>,
}

/// Largest id a wire-facing machine should admit into a [`DenseMap`]
/// (2³² ids — three orders of magnitude beyond the paper's 54 K executors —
/// while bounding the allocation a hostile registration can trigger).
pub(crate) const DENSE_ID_CAP: u64 = 1 << 32;

impl<K: DenseKey, V> Default for DenseMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: DenseKey, V> DenseMap<K, V> {
    /// Create an empty table.
    pub fn new() -> Self {
        DenseMap {
            slots: Vec::new(),
            len: 0,
            _key: PhantomData,
        }
    }

    /// Insert `value` at `key`, returning the previous value if present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let i = key.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value at `key`, if present.
    #[inline]
    pub(crate) fn get(&self, key: K) -> Option<&V> {
        self.slots.get(key.index())?.as_ref()
    }

    /// Mutable access to the value at `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.slots.get_mut(key.index())?.as_mut()
    }

    /// Whether `key` has a value.
    #[inline]
    pub fn contains_key(&self, key: K) -> bool {
        self.slots.get(key.index()).is_some_and(Option::is_some)
    }

    /// Remove and return the value at `key`.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let v = self.slots.get_mut(key.index())?.take();
        if v.is_some() {
            self.len -= 1;
        }
        v
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no live entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Live entries in ascending key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (K::from_index(i), v)))
    }

    /// Live values in ascending key order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(Option::as_ref)
    }
}

/// The rustc-style multiply-xor hasher: a few cycles per word, deterministic
/// across runs (no random seed). Not collision-resistant against adversarial
/// keys — use only for ids we assign ourselves.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

/// Knuth's 64-bit multiplicative-hash constant (2⁶⁴ / φ).
const FX_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Seed-free `BuildHasher` for [`FxHashMap`] / [`FxHashSet`].
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` with the fast deterministic [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` with the fast deterministic [`FxHasher`].
pub(crate) type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ExecutorId;

    #[test]
    fn dense_map_basic_ops() {
        let mut m: DenseMap<ExecutorId, &str> = DenseMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(ExecutorId(3), "c"), None);
        assert_eq!(m.insert(ExecutorId(1), "a"), None);
        assert_eq!(m.insert(ExecutorId(1), "A"), Some("a"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(ExecutorId(1)), Some(&"A"));
        assert_eq!(m.get(ExecutorId(2)), None);
        assert!(m.contains_key(ExecutorId(3)));
        assert_eq!(m.remove(ExecutorId(3)), Some("c"));
        assert_eq!(m.remove(ExecutorId(3)), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn dense_map_iterates_in_key_order() {
        let mut m: DenseMap<ExecutorId, u32> = DenseMap::new();
        for id in [9u64, 2, 7, 0, 4] {
            m.insert(ExecutorId(id), id as u32 * 10);
        }
        let keys: Vec<u64> = m.iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, vec![0, 2, 4, 7, 9]);
        let values: Vec<u32> = m.values().copied().collect();
        assert_eq!(values, vec![0, 20, 40, 70, 90]);
    }

    #[test]
    fn fx_hash_is_deterministic() {
        use std::hash::BuildHasher;
        let h1 = FxBuildHasher::default().hash_one("falkon");
        let h2 = FxBuildHasher::default().hash_one("falkon");
        assert_eq!(h1, h2);
        assert_ne!(h1, FxBuildHasher::default().hash_one("falkon2"));
    }

    #[test]
    fn fx_map_behaves_like_a_map() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i * 31, i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000 {
            assert_eq!(m.get(&(i * 31)), Some(&i));
        }
    }
}
