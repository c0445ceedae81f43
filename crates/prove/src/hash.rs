//! A small multiplicative hasher for the prover's structural maps.
//!
//! The term store interns nodes by structure, the rewriter memoizes
//! `(term, care)` pairs and the IR evaluator maps virtual registers to
//! terms. Every lookup hashes a few small integers, for which the std
//! SipHash (keyed against hash flooding) is several times more work than
//! needed. These keys are the prover's own ids and tags, never values
//! from outside the program, so the FxHash-style rotate–xor–multiply
//! round (as used inside rustc) is enough. Constant values, which come
//! from the kernel source, are interned in a std map instead.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Word-at-a-time rotate–xor–multiply hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
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
        // The multiply leaves its best-mixed bits at the top; the table
        // indexes buckets by the low bits, so rotate them down.
        self.hash.rotate_left(26)
    }
}

/// `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = FxHasher::default();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn distinguishes_nearby_keys_and_is_deterministic() {
        assert_eq!(hash_of(&(7u32, 8u8)), hash_of(&(7u32, 8u8)));
        assert_ne!(hash_of(&(7u32, 8u8)), hash_of(&(7u32, 9u8)));
        assert_ne!(hash_of(&(7u32, 8u8)), hash_of(&(8u32, 8u8)));
        // Slices hash by content, including a partial trailing word.
        assert_ne!(hash_of(&vec![1u32, 2, 3]), hash_of(&vec![1u32, 2, 4]));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<(u32, u8), u32> = FxHashMap::default();
        for t in 0..1000u32 {
            m.insert((t, (t % 64) as u8), t * 2);
        }
        for t in 0..1000u32 {
            assert_eq!(m.get(&(t, (t % 64) as u8)), Some(&(t * 2)));
        }
        assert_eq!(m.len(), 1000);
    }
}
