//! A fast hasher for the simulator's integer ids.
//!
//! The per-event paths (engine steps, the adapter cache, the KV allocator,
//! the metrics collector, the schedulers) look up maps keyed by request
//! and adapter ids once or more per simulated token. The standard
//! `RandomState` runs SipHash-1-3 on each lookup, which costs more than
//! the bookkeeping it guards. [`IdHasher`] is an Fx-style multiply-rotate
//! hasher (one rotate, xor and multiply per word) in its place.
//!
//! Two rules go with it:
//!
//! - The keys are simulator-internal ids, not attacker-controlled input.
//!   The hasher has no defence against keys crafted to collide, so never
//!   key a [`FastMap`] or [`FastSet`] by data from outside the program.
//! - No output may depend on map iteration order. It differs between
//!   hashers (and, for `RandomState`, between runs); a path that walks a
//!   map must sort or reduce order-independently.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier of the Fx hash (from Firefox and rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style hasher for integer ids. `u32`, `u64` and `usize` writes widen
/// to `u64`, so an id hashes the same whatever its width. One word hashes to
/// `id * SEED`; the multiplier is odd, so distinct ids differ in the low
/// bits the table indexes by.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed by simulator ids, hashed with [`IdHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of simulator ids, hashed with [`IdHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(v: impl Hash) -> u64 {
        let mut h = IdHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn integer_width_does_not_change_the_hash() {
        for v in [0u32, 1, 7, 600, 65_535, u32::MAX] {
            let mut a = IdHasher::default();
            a.write_u32(v);
            let mut b = IdHasher::default();
            b.write_u64(u64::from(v));
            assert_eq!(a.finish(), b.finish(), "id {v}");
        }
    }

    #[test]
    fn small_ids_do_not_collide_in_the_low_bits() {
        const BITS: u32 = 12;
        let mask = (1u64 << BITS) - 1;
        let buckets: FastSet<u64> = (0..1u64 << BITS).map(|id| hash_of(id) & mask).collect();
        assert_eq!(buckets.len(), 1 << BITS);
    }

    #[test]
    fn byte_writes_hash_every_chunk() {
        assert_ne!(hash_of("chameleon-a"), hash_of("chameleon-b"));
        // Only the trailing partial word differs.
        let mut a = IdHasher::default();
        a.write(&[1; 9]);
        let mut b = IdHasher::default();
        b.write(&[1, 1, 1, 1, 1, 1, 1, 1, 2]);
        assert_ne!(a.finish(), b.finish());
    }
}
