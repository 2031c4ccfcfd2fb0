//! A fast hasher for integer keys.
//!
//! The simulators key their per-request maps by integers they make
//! themselves: request indices, session ids, event ids and prompt lengths
//! (at most the model's context). Such keys need no defence against chosen
//! collisions, so std's default SipHash is wasted work on them. [`IntHasher`] is one folded multiply: the
//! 128-bit product of the key and an odd constant, its two halves XORed, so
//! every key bit reaches both the low bits a hash table indexes buckets by
//! and the high bits it tags them with. The hash is the same on every run
//! and platform. Maps that use it must still never be iterated in an order
//! that reaches a result.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier: 2^64 divided by the golden ratio, rounded to odd.
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folded-multiply hasher for integer keys (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * u128::from(MUL);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    /// Byte keys, in little-endian 8-byte words (the last one zero-padded).
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by integers, hashed with [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` of integers, hashed with [`IntHasher`].
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(key: T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    #[test]
    fn integer_widths_hash_alike() {
        assert_eq!(hash(42u64), hash(42usize));
        assert_eq!(hash(42u64), hash(42u32));
        assert_ne!(hash(42u64), hash(43u64));
    }

    #[test]
    fn strided_keys_spread_over_low_and_high_bits() {
        // Keys that share their low 20 bits must still land in distinct
        // buckets of a 64-bucket table and carry distinct 7-bit tags.
        let keys = (0..64u64).map(|i| i << 20);
        let low: HashSet<u64> = keys.clone().map(|k| hash(k) & 63).collect();
        let high: HashSet<u64> = keys.map(|k| hash(k) >> 57).collect();
        assert!(low.len() >= 32, "{} distinct low buckets", low.len());
        assert!(high.len() >= 32, "{} distinct high tags", high.len());
    }

    #[test]
    fn maps_and_sets_behave_as_std() {
        let mut map: IntMap<usize, usize> = IntMap::default();
        let mut set: IntSet<u64> = IntSet::default();
        for i in 0..10_000 {
            map.insert(i * 4096, i);
            set.insert(i as u64);
        }
        assert_eq!(map.len(), 10_000);
        assert!((0..10_000).all(|i| map[&(i * 4096)] == i));
        assert!(set.remove(&9_999) && !set.contains(&9_999));
        assert_eq!(set.len(), 9_999);
    }
}
