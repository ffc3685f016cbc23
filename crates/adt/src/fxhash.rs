//! A fast, fixed hash for maps keyed by ids the program mints.
//!
//! The Fx mixing step (rotate left by 5, xor in a word, multiply by a
//! fixed odd constant), as used by the Rust compiler for its own
//! id-keyed tables. One step per word makes a dense `u32` id cost a
//! single multiply, against SipHash's dozen rounds.
//!
//! The hash is unkeyed, so a client that picks the keys can make them
//! collide. The keying rule: maps keyed by ids the analysis assigns
//! (arena indices, interned set ids, and sets built from them) use
//! [`FxHashMap`]/[`FxHashSet`]; maps keyed by text from outside the
//! program (identifier names in a request, or keys hashed from them)
//! keep std's randomly keyed SipHash.

// The two aliases are the one place the std collections are named with
// a fixed hasher; `clippy.toml` bans the bare std types everywhere else.
#[allow(clippy::disallowed_types)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of one mixing step.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// The Fx hasher: one rotate–xor–multiply step per machine word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// Mixes `bytes` as little-endian 8-byte words, the tail zero-padded
    /// to a full word.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add_word(u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_word(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s; the hasher parameter of the aliases below.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` under the Fx hash. Construct with `default()` or
/// `with_capacity_and_hasher(n, Default::default())`.
#[allow(clippy::disallowed_types)]
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` under the Fx hash.
#[allow(clippy::disallowed_types)]
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PtsId, SparseBitVector};
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash + ?Sized>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    // Pinned outputs: any change to the mixing function shows up here.
    // The slice and set keys hash their `u32`/`u64` payload as raw
    // native-endian bytes, so their pins hold on little-endian targets.
    #[test]
    #[cfg(target_endian = "little")]
    fn pinned_outputs() {
        assert_eq!(fx(&0u32), 0);
        assert_eq!(fx(&1u32), SEED);
        assert_eq!(fx(&7u32), 7u64.wrapping_mul(SEED));
        assert_eq!(fx(&(1u32, 2u32)), 0x6a4b_e67f_f98f_abc8);
        let a: Box<[u32]> = vec![1, 2, 3].into_boxed_slice();
        assert_eq!(fx(&a), 0x17a0_7508_6413_e85e);
        let mut s = SparseBitVector::new();
        s.insert(3);
        s.insert(400);
        assert_eq!(fx(&s), 0xc6e9_ce94_5551_43d7);
    }

    #[test]
    fn write_pads_every_tail_length() {
        let bytes: Vec<u8> = (1..=17).collect();
        for len in 0..=17 {
            let mut h = FxHasher::default();
            h.write(&bytes[..len]);
            // Reference: whole words, then the zero-padded tail word.
            let mut want = FxHasher::default();
            for chunk in bytes[..len].chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                want.add_word(u64::from_le_bytes(word));
            }
            assert_eq!(h.finish(), want.finish(), "tail length {len}");
            // A non-empty write always mixes, so it never leaves the
            // empty state's hash behind.
            assert_eq!(len == 0, h.finish() == 0, "tail length {len}");
        }
    }

    #[test]
    fn sequential_u32_round_trip() {
        const N: u32 = 1_000_000;
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for k in 0..N {
            assert!(m.insert(k, k ^ 0x5555).is_none());
        }
        assert_eq!(m.len(), N as usize);
        for k in 0..N {
            assert_eq!(m.get(&k), Some(&(k ^ 0x5555)));
        }
        assert_eq!(m.get(&N), None);
        for k in (0..N).step_by(2) {
            assert_eq!(m.remove(&k), Some(k ^ 0x5555));
        }
        assert_eq!(m.len(), N as usize / 2);
        assert!((0..N).all(|k| m.contains_key(&k) == (k % 2 == 1)));
    }

    #[test]
    fn pts_id_pair_round_trip() {
        const N: u32 = 1_000;
        let pair = |i: u32| (PtsId::new(i / N), PtsId::new(i % N));
        let mut s: FxHashSet<(PtsId, PtsId)> = FxHashSet::default();
        for i in 0..N * N {
            assert!(s.insert(pair(i)));
        }
        assert_eq!(s.len(), (N * N) as usize);
        assert!((0..N * N).all(|i| s.contains(&pair(i))));
        assert!(!s.contains(&(PtsId::new(N), PtsId::new(0))));
        for i in (0..N * N).filter(|i| i % 3 == 0) {
            assert!(s.remove(&pair(i)));
        }
        assert!((0..N * N).all(|i| s.contains(&pair(i)) == (i % 3 != 0)));
    }
}
