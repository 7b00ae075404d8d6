//! Deterministic string interning for hot-path symbol keys.
//!
//! The crawl loop compares the same handful of strings — normalized URLs and
//! interactable signatures — millions of times per run. Keeping a
//! `HashSet<String>` per layer means every *probe* allocates a fresh key
//! (`format!`, `normalized()`) even when the answer is "seen it already".
//! An [`Interner`] replaces those string keys with dense [`Symbol`]s: the
//! string is stored once, the probe reuses a scratch buffer, and downstream
//! layers key on a `u32`.
//!
//! # Determinism contract
//!
//! Symbol ids are **insertion-order dense indices**: the `n`-th distinct
//! string interned gets `Symbol(n)`, independent of hasher seeds, thread
//! count, or platform. Two runs that intern the same strings in the same
//! order therefore assign identical ids, which keeps golden reports, traces
//! and the run cache bit-identical. Symbols are only meaningful relative to
//! the interner that produced them and are never serialized. Nothing ever
//! iterates the internal `HashMap`, so its iteration order cannot leak into
//! results.
//!
//! # Fast hashing
//!
//! [`FastHasher`] is the unkeyed hasher of the crawl loop's per-crawl lookup
//! tables (this interner, visit counters, state tables). Their keys come
//! from the built-in app models rather than from an adversary, and no
//! result path iterates them, so SipHash's flooding resistance and random
//! seeding buy nothing there.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An FxHash-style hasher: each 8-byte word is folded in with one rotate,
/// xor and multiply. Deterministic (no per-process key) and cheaper than
/// the std `SipHash` on the short keys of the crawl loop.
///
/// `finish` rotates the state so that the well-mixed high bits of the last
/// multiply land in the low bits the hash table indexes buckets by; keys
/// with zero low bits (aligned addresses) still spread over all buckets.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

/// The multiplier of FxHash: `2^64 / π`, rounded up to odd.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        // The tail is folded as one zero-padded word tagged with its length,
        // so inputs that differ only in trailing zero bytes stay distinct.
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word) ^ ((tail.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
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
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for [`FastHasher`]: the `S` parameter of fast tables.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed through [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A dense handle to an interned string.
///
/// Ids are assigned in insertion order starting at 0; see the crate-level
/// determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The dense index of the symbol, usable as a key in measurement-side
    /// data structures.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// An insertion-ordered string interner.
///
/// # Examples
///
/// ```
/// use mak_intern::Interner;
///
/// let mut interner = Interner::new();
/// let (a, new_a) = interner.try_intern("link:http://h/a");
/// let (b, new_b) = interner.try_intern("link:http://h/b");
/// let (a2, new_a2) = interner.try_intern("link:http://h/a");
/// assert!(new_a && new_b && !new_a2);
/// assert_eq!(a, a2);
/// assert_ne!(a, b);
/// assert_eq!(interner.resolve(a), "link:http://h/a");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interner {
    /// Lookup table. Keys duplicate `strings` entries; the duplication buys
    /// a fully safe implementation and the tables here stay small (one
    /// entry per *distinct* URL or signature, not per step).
    map: FastHashMap<Box<str>, Symbol>,
    /// Interned strings in insertion order; `strings[sym.index()]` resolves.
    strings: Vec<Box<str>>,
    /// Total bytes of distinct interned text (one copy), for diagnostics.
    bytes: usize,
    /// Reusable key-building buffer for [`Interner::intern_with`].
    scratch: String,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its symbol and whether it was newly added.
    pub fn try_intern(&mut self, s: &str) -> (Symbol, bool) {
        if let Some(&sym) = self.map.get(s) {
            return (sym, false);
        }
        let sym = Symbol(u32::try_from(self.strings.len()).expect("interner overflow"));
        let owned: Box<str> = s.into();
        self.bytes += owned.len();
        self.strings.push(owned.clone());
        self.map.insert(owned, sym);
        (sym, true)
    }

    /// Interns `s`, returning its symbol.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.try_intern(s).0
    }

    /// Builds a key into an internal scratch buffer with `build`, then
    /// interns it — the allocation-free probe for callers whose keys are
    /// derived (e.g. an interactable signature). The buffer is reused across
    /// calls, so a probe that finds an existing symbol allocates nothing.
    pub fn intern_with(&mut self, build: impl FnOnce(&mut String)) -> (Symbol, bool) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        build(&mut scratch);
        let out = self.try_intern(&scratch);
        self.scratch = scratch;
        out
    }

    /// The symbol previously assigned to `s`, if any. Never allocates.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).copied()
    }

    /// The string behind `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` did not come from this interner (index out of range).
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Total bytes of distinct interned text (counting each string once).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The interned strings in insertion order — index `n` is the string
    /// behind `Symbol(n)`.
    pub fn ordered_strings(&self) -> impl Iterator<Item = &str> {
        self.strings.iter().map(|s| s.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_insertion_order_dense() {
        let mut i = Interner::new();
        for (n, s) in ["c", "a", "b", "a", "c", "d"].iter().enumerate() {
            let sym = i.intern(s);
            // First occurrences get 0, 1, 2, 3 in encounter order.
            let expected = match *s {
                "c" => 0,
                "a" => 1,
                "b" => 2,
                "d" => 3,
                _ => unreachable!(),
            };
            assert_eq!(sym.index(), expected, "string #{n} ({s})");
        }
        assert_eq!(i.len(), 4);
    }

    #[test]
    fn round_trips_symbol_to_string() {
        let mut i = Interner::new();
        let strings = ["", "x", "link:http://h/p?a=1", "form:login@http://h/login"];
        let syms: Vec<Symbol> = strings.iter().map(|s| i.intern(s)).collect();
        for (s, sym) in strings.iter().zip(&syms) {
            assert_eq!(i.resolve(*sym), *s);
            assert_eq!(i.get(s), Some(*sym));
        }
        assert_eq!(i.get("never-interned"), None);
    }

    #[test]
    fn try_intern_reports_novelty() {
        let mut i = Interner::new();
        assert!(i.is_empty());
        let (a, new) = i.try_intern("a");
        assert!(new);
        let (a2, new) = i.try_intern("a");
        assert!(!new);
        assert_eq!(a, a2);
        assert!(!i.is_empty());
    }

    #[test]
    fn intern_with_builds_and_dedups_without_leaking_scratch() {
        let mut i = Interner::new();
        let (a, new) = i.intern_with(|buf| buf.push_str("key-1"));
        assert!(new);
        // Scratch reuse must not concatenate across calls.
        let (b, new) = i.intern_with(|buf| buf.push_str("key-2"));
        assert!(new);
        let (a2, new) = i.intern_with(|buf| buf.push_str("key-1"));
        assert!(!new);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(b), "key-2");
    }

    #[test]
    fn bytes_counts_each_distinct_string_once() {
        let mut i = Interner::new();
        i.intern("abcd");
        i.intern("ab");
        i.intern("abcd");
        assert_eq!(i.bytes(), 6);
    }

    #[test]
    fn independent_instances_assign_identical_ids_for_identical_sequences() {
        // The determinism contract: ids are a pure function of the
        // insertion sequence, not of hasher state or instance identity.
        let seq = ["q", "w", "e", "q", "r", "t", "w", "y"];
        let mut a = Interner::new();
        let ids_a: Vec<u32> = seq.iter().map(|s| a.intern(s).index()).collect();
        let mut b = Interner::new();
        let ids_b: Vec<u32> = seq.iter().map(|s| b.intern(s).index()).collect();
        assert_eq!(ids_a, ids_b);
    }

    #[test]
    fn fast_hasher_is_unkeyed_and_separates_tails() {
        use std::hash::BuildHasher;
        let hash = |s: &str| FastBuildHasher::default().hash_one(s);
        // No per-process or per-instance key: equal inputs, equal hashes.
        assert_eq!(hash("link:http://h/a"), hash("link:http://h/a"));
        // Every tail length, and tails that differ only in zero bytes.
        let inputs = ["", "a", "a\0", "abcdefg", "abcdefgh", "abcdefgh\0", "abcdefghi"];
        let distinct: std::collections::BTreeSet<u64> = inputs.iter().map(|s| hash(s)).collect();
        assert_eq!(distinct.len(), inputs.len());
    }

    #[test]
    fn identical_ids_across_threads() {
        let seq: Vec<String> = (0..200).map(|n| format!("sym-{}", n % 50)).collect();
        let baseline: Vec<u32> = {
            let mut i = Interner::new();
            seq.iter().map(|s| i.intern(s).index()).collect()
        };
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let seq = seq.clone();
                std::thread::spawn(move || {
                    let mut i = Interner::new();
                    seq.iter().map(|s| i.intern(s).index()).collect::<Vec<u32>>()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), baseline);
        }
    }
}
