//! The hasher behind the engine's small-integer-keyed tables.
//!
//! The simulator and the runtime's per-node models key their hot maps by
//! host ids, pairs of host ids and timer ids: dense small integers the
//! program itself hands out, never input from outside. SipHash's protection
//! against crafted keys buys nothing there and costs ~20 ns per probe on
//! the per-message path. [`SmallKeyHasher`] is a multiply-fold: each integer
//! written is folded into the state with one odd-constant multiply, and
//! [`Hasher::finish`] xors the product's high half into its low half —
//! hashbrown takes the bucket index from a hash's low bits and its control
//! byte from the top seven, and a bare multiply (or an identity hash, as
//! `cb-mck` uses for keys that are already avalanched fingerprints) leaves
//! one of the two ends as structured as the key.
//!
//! Iteration order over these tables is still unspecified; every site that
//! iterates one sorts what it collected.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2⁶⁴ / φ, odd: the Fibonacci-hashing multiplier.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-fold hasher for small integer keys (ids, pairs of ids).
#[derive(Clone, Copy, Debug, Default)]
pub struct SmallKeyHasher(u64);

impl SmallKeyHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(32) ^ word).wrapping_mul(K);
    }
}

impl Hasher for SmallKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

/// `BuildHasher` for [`SmallKeyHasher`].
pub type BuildSmallKeyHasher = BuildHasherDefault<SmallKeyHasher>;

/// A map keyed by small integers the program allocates itself.
pub type SmallKeyMap<K, V> = HashMap<K, V, BuildSmallKeyHasher>;

/// A set of small integer keys the program allocates itself.
pub type SmallKeySet<K> = HashSet<K, BuildSmallKeyHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// Both ends hashbrown reads — the low bits (bucket) and the top seven
    /// (control byte) — must spread over dense pair keys, whichever half of
    /// the pair varies.
    #[test]
    fn dense_pairs_spread_at_both_ends_of_the_hash() {
        let build = BuildSmallKeyHasher::default();
        for vary_first in [true, false] {
            let mut low = [0u32; 256];
            let mut top = [0u32; 128];
            for i in 0..4096u32 {
                let key = if vary_first { (i, 7u32) } else { (7u32, i) };
                let h = build.hash_one(key);
                low[(h & 0xff) as usize] += 1;
                top[(h >> 57) as usize] += 1;
            }
            // Uniform would be 16 per low slot and 32 per top slot.
            assert!(low.iter().all(|&c| c <= 40), "low bits clump: {low:?}");
            assert!(top.iter().all(|&c| c <= 72), "top bits clump: {top:?}");
        }
    }

    #[test]
    fn single_ids_do_not_collide_in_a_small_table() {
        let build = BuildSmallKeyHasher::default();
        let mut seen = SmallKeySet::default();
        for id in 0..10_000u64 {
            assert!(seen.insert(build.hash_one(id)), "id {id} collides");
        }
    }

    #[test]
    fn byte_strings_hash_by_content() {
        let build = BuildSmallKeyHasher::default();
        assert_ne!(build.hash_one("ab"), build.hash_one("ba"));
        assert_eq!(build.hash_one("node-17"), build.hash_one("node-17"));
    }
}
