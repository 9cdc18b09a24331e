//! Vendored offline stand-in for the `fxhash`/`rustc-hash` fast hasher.
//!
//! The simulator's hot paths hash small integer keys (physical page ids,
//! virtual page numbers, cache keys) millions of times per run. The
//! standard library's `HashMap` defaults to SipHash-1-3 behind a
//! randomly seeded `RandomState`: strong against adversarial keys, but
//! an order of magnitude more work than these keys need, and seeded
//! per-process. [`FxHasher`] is the Firefox/rustc multiply-rotate hash:
//! a handful of cycles per word, **zero seeding** — the same keys hash
//! to the same buckets in every run of every build, which keeps any
//! accidental iteration-order dependence reproducible rather than
//! flaky. (Simulator outputs must never depend on map iteration order
//! at all; determinism of the hasher is defence in depth, not a
//! license.)
//!
//! # The finish
//!
//! A multiply leaves its best-mixed bits at the top of the word: bit `i`
//! of `key × SEED` depends only on bits `0..=i` of the key. The standard
//! `HashMap` (hashbrown) takes the bucket index from the *low* bits of
//! the hash, so a finish that returned the product unchanged would send
//! every key that shares its low bits to the same bucket. The
//! simulator's keys are exactly that shape: 128 B-aligned sector
//! addresses have seven zero low bits, so `key × SEED` does too, and all
//! of them landed in bucket 0 of a 128-bucket table, with every probe
//! walking one long cluster. [`FxHasher::finish`] therefore rotates the
//! product left by 26 bits (the `rustc-hash` 2 finish), which brings the
//! well-mixed high bits down to the bucket index.
//!
//! Same API surface as the real `fxhash` crate: [`FxHasher`],
//! [`FxBuildHasher`], [`FxHashMap`], [`FxHashSet`] and the [`hash64`]
//! convenience.
//!
//! # Examples
//!
//! ```
//! use fxhash::FxHashMap;
//!
//! let mut m: FxHashMap<u64, u32> = FxHashMap::default();
//! m.insert(42, 7);
//! assert_eq!(m.get(&42), Some(&7));
//! ```

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// 64-bit Fx round constant: `2^64 / phi`, the odd Weyl increment that
/// spreads consecutive integers across the whole word.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Left-rotation applied after every multiply (the rustc value).
const ROTATE: u32 = 5;
/// Left-rotation applied by [`FxHasher::finish`]: moves the product's
/// well-mixed high bits into the low bits a hash table indexes by.
const FINISH_ROTATE: u32 = 26;

/// The Fx multiply-rotate hasher: not cryptographic, not DoS-resistant,
/// but extremely fast on short keys and fully deterministic (no
/// per-process seed).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(FINISH_ROTATE)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Word-at-a-time over the slice, then the sub-word tail.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add_to_hash(n as u64);
        self.add_to_hash((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// A [`std::hash::BuildHasher`] producing [`FxHasher`]s; the default
/// state for [`FxHashMap`]/[`FxHashSet`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the deterministic Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using the deterministic Fx hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Hashes one value with the Fx hasher (convenience for key mixing).
pub fn hash64<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_hasher_instances() {
        // No per-process seeding: two fresh hashers agree, and the
        // value is pinned so a behaviour change is loud.
        assert_eq!(hash64(&0xdead_beefu64), hash64(&0xdead_beefu64));
        assert_eq!(hash64(&0xdead_beefu64), 0xdca5_4ddc_6d9f_cf00);
        let a = hash64(&1u64);
        let b = hash64(&2u64);
        assert_ne!(a, b);
    }

    #[test]
    fn aligned_keys_spread_over_the_low_bits() {
        // 64 sector keys, 128 B apart, indexed as a 128-bucket table
        // indexes them: without the finish rotation all share bucket 0.
        let buckets: FxHashSet<u64> = (0..64u64).map(|k| hash64(&(k * 128)) & 127).collect();
        assert!(buckets.len() >= 48, "{} distinct buckets", buckets.len());
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1_000u64 {
            m.insert(i, i * 3);
        }
        assert_eq!(m.len(), 1_000);
        for i in 0..1_000u64 {
            assert_eq!(m.get(&i), Some(&(i * 3)));
        }
        let s: FxHashSet<u64> = (0..100).collect();
        assert!(s.contains(&99) && !s.contains(&100));
    }

    #[test]
    fn with_capacity_never_rehashes_under_fill() {
        let mut m: FxHashMap<u64, u64> =
            FxHashMap::with_capacity_and_hasher(256, FxBuildHasher::default());
        let cap = m.capacity();
        for i in 0..256u64 {
            m.insert(i, i);
        }
        assert_eq!(m.capacity(), cap, "pre-sized map must not rehash");
    }

    #[test]
    fn tuple_and_byte_keys_hash() {
        let mut m: FxHashMap<(u16, u16), u32> = FxHashMap::default();
        m.insert((3, 4), 12);
        assert_eq!(m.get(&(3, 4)), Some(&12));
        assert_ne!(hash64("abc"), hash64("abd"));
        assert_ne!(hash64(&[1u8, 2, 3][..]), hash64(&[1u8, 2, 3, 0][..]));
    }
}
