//! A fixed, fast hasher for maps whose keys the simulator makes itself.
//!
//! std's `HashMap` defaults to SipHash with a per-process random key:
//! collision-resistant against hostile input, but far costlier than a
//! multiply-xor mix on the small integer keys the event loop looks up
//! per packet (station ids, five-tuples, link pairs). Every key that
//! reaches a [`FastMap`] is made by the simulator from its own config,
//! never read from outside input, so there is no adversary to resist —
//! only the table size to beat. The mix follows `hack_rohc::cidmap`'s
//! five-tuple hash: fold each word in with a multiply, then run the
//! murmur3 64-bit finalizer so the high bits (which the table's probe
//! groups use) depend on every input bit.
//!
//! The hasher is unseeded, so a map's iteration order is a pure function
//! of its insertions. Even so, nothing in the simulator iterates a map
//! in an order that could reach its output.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor [`Hasher`] with a fixed (unseeded) state.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

/// A `HashMap` that hashes with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    #[test]
    fn fixed_and_key_sensitive() {
        assert_eq!(hash(&(3u32, 7u32)), hash(&(3u32, 7u32)));
        assert_ne!(hash(&(3u32, 7u32)), hash(&(7u32, 3u32)));
        assert_ne!(hash(&[1u8, 2, 3]), hash(&[1u8, 2, 4]));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FastMap<u32, usize> = FastMap::default();
        for i in 0..1_000u32 {
            m.insert(i * 7, i as usize);
        }
        for i in 0..1_000u32 {
            assert_eq!(m.get(&(i * 7)), Some(&(i as usize)));
        }
        assert_eq!(m.get(&1), None);
    }
}
