//! One fixed, fast hasher for the workspace's internal integer and bitset
//! keys.
//!
//! std's `HashMap` hashes with SipHash-1-3 under per-process random keys,
//! which resists an adversary who picks the keys. The maps on the
//! synthesis hot path (BDD/OFDD unique and apply tables, structural
//! hashing, cube and candidate interning) are keyed by node ids and bit
//! masks the program derives itself, so that protection buys nothing and
//! SipHash's rounds cost a large share of each lookup. [`FxHasher`] is a
//! multiply–add hash in the style of `rustc-hash`: one wrapping add and
//! one multiply per word. A multiply only carries bits upward, so the
//! finish is one full 64×64→128-bit multiply folded onto itself (high
//! half XOR low half): every bit of the result depends on every bit of
//! the state, and keys that differ only in high bits (a literal mask
//! whose literals are all past 40, say) still spread over the low bits
//! the table indexes with.
//!
//! Maps keyed by names taken from untrusted input (BLIF/PLA parsers, the
//! serve daemon) and maps in public return types stay on std's keyed
//! hasher; see DESIGN.md, "Hashing".

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` under [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` under [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The multiplier: odd, with well-spread bits (the constant of
/// `rustc-hash` 2).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A fixed (unkeyed) multiply–add hasher for trusted integer keys.
///
/// # Examples
///
/// ```
/// use xsynth_boolean::{FxHashMap, VarSet};
///
/// let mut ids: FxHashMap<VarSet, u32> = FxHashMap::default();
/// ids.insert(VarSet::from_vars([1, 70]), 0);
/// assert_eq!(ids[&VarSet::from_vars([70, 1])], 0);
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }

    /// The hash of one row of words, as a `[u64]` key would hash without
    /// its length prefix: for tables that store their keys elsewhere.
    #[inline]
    pub fn hash_words(words: &[u64]) -> u64 {
        let mut h = FxHasher::default();
        words.iter().for_each(|&w| h.add(w));
        h.finish()
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let p = u128::from(self.hash) * u128::from(K);
        (p as u64) ^ (p >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(t)
    }

    #[test]
    fn equal_keys_hash_equal_and_the_hash_is_fixed() {
        let a = crate::VarSet::from_vars([1, 100]);
        let mut b = crate::VarSet::from_vars([1, 100, 200]);
        b.remove(200);
        assert_eq!(hash_of(&a), hash_of(&b));
        // no per-process key: the same key hashes the same in every run
        assert_eq!(hash_of(&(3u32, 4u32)), hash_of(&(3u32, 4u32)));
        assert_ne!(hash_of(&(3u32, 4u32)), hash_of(&(4u32, 3u32)));
    }

    #[test]
    fn strided_keys_spread_over_the_low_bits() {
        // keys that differ only in high bits must not share a bucket: the
        // finish brings mixed product bits down
        for shift in [0, 20, 40, 56] {
            let buckets: HashSet<u64> =
                (0..256u64).map(|i| hash_of(&(i << shift)) & 0xff).collect();
            assert!(buckets.len() > 96, "<< {shift}: {} buckets", buckets.len());
        }
    }

    #[test]
    fn byte_tails_are_hashed() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
        assert_eq!(FxHasher::hash_words(&[5, 6]), FxHasher::hash_words(&[5, 6]));
    }
}
