//! A fast, non-cryptographic hasher for internal keys.
//!
//! Frontier-state lookups are the hottest operation in exact BDD
//! construction (millions per layer), and the layer arena hashes states in
//! place with this hasher; SipHash would cost more than the state transition
//! itself. This is the Fx (Firefox/rustc) multiply-rotate scheme over 8-byte
//! chunks — weak against adversaries, ideal for internal keys we generate
//! ourselves (states, plan-cache keys).

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher (the rustc-hash algorithm).
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

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
            self.add(u64::from_le_bytes(buf) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(x: &T) -> u64 {
        FxBuildHasher::default().hash_one(x)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 3][..]));
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 4][..]));
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 3, 0][..]));
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
    }

    #[test]
    fn tail_length_matters() {
        // Same bytes padded with zeros must differ from the shorter key.
        assert_ne!(hash_of(&[7u8][..]), hash_of(&[7u8, 0][..]));
    }

    #[test]
    fn map_works_end_to_end() {
        let mut m: std::collections::HashMap<Vec<u8>, usize, FxBuildHasher> = Default::default();
        for i in 0..1000usize {
            m.insert(i.to_le_bytes().to_vec(), i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000usize {
            assert_eq!(m[&i.to_le_bytes().to_vec()], i);
        }
    }
}
