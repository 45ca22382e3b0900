//! A fast, deterministic hasher for small keys on hot paths.
//!
//! The standard library's default `SipHash` is DoS-resistant but costs
//! tens of nanoseconds per probe, which dominates the allocator's DP
//! and the evaluator's residency checks on thousand-node graphs. The
//! keys hashed here (`ValueId`, `NodeId`, packed `u64` choice masks)
//! are program-derived, never attacker-controlled, so a multiplicative
//! hash in the style of rustc's `FxHasher` is appropriate.
//!
//! Determinism matters beyond speed: unlike `RandomState`, this hasher
//! has no per-process seed, so map iteration orders are stable across
//! runs — one less source of accidental nondeterminism in the harness's
//! byte-identity checks (code must still not *depend* on the order).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant: 2^64 / φ rounded to odd, the classic
/// Fibonacci-hashing multiplier.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The hasher state: a single accumulator folded with a rotate-xor-
/// multiply per word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Two FNV-1a lanes with independent offsets over one byte stream, plus
/// its length: the content digest behind the serve daemon's cache keys.
/// Unlike [`FxHasher`] it is a stable, documented construction, so
/// digests written to disk stay valid across builds.
///
/// The state is `Copy`: a digest over a long shared prefix (a graph's
/// JSON, memoized in its [`crate::Fingerprint`]) continues from a copy
/// of the prefix's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnvLanes {
    a: u64,
    b: u64,
    len: usize,
}

impl FnvLanes {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The state over the empty stream.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x6c62_272e_07bb_0142,
            len: 0,
        }
    }

    /// Feeds `bytes` to both lanes.
    pub fn write(&mut self, bytes: &[u8]) {
        let (mut a, mut b) = (self.a, self.b);
        for &byte in bytes {
            a = (a ^ u64::from(byte)).wrapping_mul(Self::PRIME);
            b = (b ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
        (self.a, self.b) = (a, b);
        self.len += bytes.len();
    }

    /// The digest: both lanes in hex, then the stream length
    /// (`<16 hex><16 hex>:<len>`).
    #[must_use]
    pub fn digest(&self) -> String {
        format!("{:016x}{:016x}:{}", self.a, self.b, self.len)
    }
}

impl Default for FnvLanes {
    fn default() -> Self {
        Self::new()
    }
}

/// Formatting into the lanes hashes the formatted text without
/// collecting it first.
impl std::fmt::Write for FnvLanes {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_small_keys_hash_apart() {
        let mut seen = HashSet::new();
        for i in 0u64..10_000 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            assert!(seen.insert(h.finish()), "collision at {i}");
        }
    }

    #[test]
    fn hashing_is_deterministic() {
        let once = |bytes: &[u8]| {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(once(b"lcmm"), once(b"lcmm"));
        assert_ne!(once(b"lcmm"), once(b"lcm"));
    }

    #[test]
    fn fnv_lanes_continue_across_writes() {
        let mut whole = FnvLanes::new();
        whole.write(b"graph\x01device");
        let mut split = FnvLanes::new();
        split.write(b"graph");
        let prefix = split;
        split.write(b"\x01device");
        assert_eq!(split, whole);
        assert_ne!(prefix, whole);
        assert_eq!(
            FnvLanes::new().digest(),
            "cbf29ce4842223256c62272e07bb0142:0"
        );
        assert!(whole.digest().ends_with(":12"), "{}", whole.digest());
        let mut formatted = FnvLanes::new();
        std::fmt::Write::write_fmt(&mut formatted, format_args!("graph\x01{}", "device")).unwrap();
        assert_eq!(formatted, whole);
    }

    #[test]
    fn maps_and_sets_work() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(7, "seven");
        assert_eq!(m.get(&7), Some(&"seven"));
        let s: FxHashSet<u32> = (0..100).collect();
        assert_eq!(s.len(), 100);
    }
}
