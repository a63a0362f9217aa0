//! Memoized replay of recurring cache sweeps.
//!
//! The layer engines sweep the same code footprints over the I-cache
//! millions of times per simulated second, and the resulting misses are
//! a pure function of (sweep, cache-and-TLB state before it): a set-associative LRU cache has no other inputs, and
//! neither does a fully-associative LRU TLB. This module exploits that by
//! interning whole tag states — the cache's flattened tag array
//! concatenated with the TLB's entry list, when one is configured — and
//! recording, per `(state, footprint)` pair, the complete outcome: the
//! hit/miss/stall deltas and the successor state. Once a pair has been
//! seen, replaying the sweep costs one table lookup instead of one
//! `access_line` walk per line — and because the simulated workloads
//! drive the caches through a short cycle of recurring states, the
//! steady-state hit rate approaches 100%.
//!
//! A [`crate::Machine`] owns one, over the I-cache (+ ITLB), for
//! code-footprint sweeps: explicit line lists registered under
//! caller-chosen ids. Data sweeps are not memoized — the D-side state
//! graph of every shipped workload keeps growing, so a memo over it
//! records and never replays (DESIGN.md §5.6).
//!
//! Interning a state hashes its key once, word-wise (see [`hash_words`]),
//! and stores it once: the map goes from that `u64` hash to the first
//! state carrying it, states with equal hashes are chained through their
//! entries, and the entry owns the only copy of the key. Growing the map
//! re-hashes `u64`s, never keys. Without an ITLB the key is the I-cache
//! tag array itself and is interned where it sits.
//!
//! Correctness notes:
//! * States are **exact** tag states: a hash only picks the chain, and
//!   every candidate on it is compared word for word, so a lookup hit
//!   can never be a collision.
//! * Between memoized sweeps the backing tag arrays are allowed to go
//!   stale; [`ReplayCache::cur`] remembers which interned state is live.
//!   Any non-memoized touch of the cache or TLB must first materialize
//!   that state back into the arrays (the machine layer does this).
//! * Transitions are recorded as before/after counter *deltas* of a real
//!   walk, so a replay hit reproduces the walk's accounting exactly —
//!   including prefetch installs and TLB refills.
//! * The state table is capacity-bounded: once the interner is full, new
//!   states are no longer recorded and those sweeps fall back to the
//!   walk (counted as bypasses), so a workload with unbounded state
//!   cardinality degrades to plain simulation instead of exhausting
//!   memory.

use crate::stats::ReplayStats;
use std::hash::{BuildHasherDefault, Hasher};
// The memoizer's state interner is lookup-only (get/insert, never
// iterated) and uses a fixed-seed hasher, so not even its internal order
// varies between processes; O(1) probes are what make the >99.9%-hit-rate
// replay path cheap.
// analyze::allow(nondeterminism, reason = "lookup-only interning map with a fixed-seed deterministic hasher; iteration order never observed")
#[allow(clippy::disallowed_types)]
type FxMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A fixed-seed multiply-rotate hasher (the rustc `FxHash` construction)
/// for the interner's `u64` key hashes: one multiply per key.
/// Deterministic across processes and platforms — unlike `RandomState`.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One FxHash step: fold `word` into `hash`.
#[inline]
fn fx_add(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = fx_add(self.hash, u64::from(b));
        }
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.hash = fx_add(self.hash, i);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Hashes a state key word by word: four independent FxHash lanes over
/// consecutive words, so a 256-word (2 KB) key is four 64-step multiply
/// chains the CPU overlaps instead of one 256-step chain, then the
/// length, the lanes and the tail words fold into one. No byte path.
#[inline]
fn hash_words(key: &[u64]) -> u64 {
    let (quads, tail) = key.as_chunks::<4>();
    let mut lanes = [0u64; 4];
    for quad in quads {
        for (lane, &w) in lanes.iter_mut().zip(quad) {
            *lane = fx_add(*lane, w);
        }
    }
    lanes
        .iter()
        .chain(tail)
        .fold(key.len() as u64, |h, &w| fx_add(h, w))
}

/// The memoized outcome of one sweep from one state: the counter deltas
/// a real walk produced, plus the interned successor state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Transition {
    /// The walk's return value (demand misses).
    pub ret: u64,
    /// Cache hits incurred by the sweep.
    pub hits: u64,
    /// Cache misses incurred by the sweep (including prefetch installs).
    pub misses: u64,
    /// TLB hits incurred by the sweep (zero without a TLB).
    pub tlb_hits: u64,
    /// TLB refills incurred by the sweep (zero without a TLB).
    pub tlb_misses: u64,
    /// Stall cycles charged by the sweep (miss penalties + TLB refills).
    pub stall: u64,
    /// Interned token of the resulting combined state.
    pub next: u32,
}

/// One interned state and every transition recorded out of it. The
/// per-state transition lists are tiny (a deterministic simulation takes
/// only a handful of distinct sweeps out of any given state), so a
/// sorted Vec beats hashing the `(state, fid)` pair.
#[derive(Debug, Clone)]
struct StateEntry {
    /// The combined tag state: cache tags (sets in order, ways
    /// MRU-first) followed by TLB entries (MRU-first, `u64::MAX`-padded),
    /// when a TLB is part of the key. The only copy of it.
    key: Box<[u64]>,
    /// The next state whose key hashes to the same `u64`, if any.
    same_hash: Option<u32>,
    /// `(footprint id, outcome)`, sorted by footprint id.
    transitions: Vec<(u32, Transition)>,
}

/// Sizes the state table: at most `MAX_STATE_BYTES / (16 · key words)`
/// states, two key widths per state — a state-count cap kept at its old
/// size so counts do not move (the keys, stored once, fill half of it).
/// Beyond the cap the memoizer stops learning new states and falls back
/// to plain simulation.
const MAX_STATE_BYTES: usize = 48 << 20;

/// A transition table over interned cache(+TLB) states.
///
/// Owned by a [`crate::Machine`]; see [`crate::Machine::fetch_code_footprint`].
#[derive(Debug, Clone, Default)]
pub struct ReplayCache {
    /// Interned states; index = token.
    states: Vec<StateEntry>,
    /// [`hash_words`] of a key → the first state with that hash (the
    /// rest chain through [`StateEntry::same_hash`]).
    intern: FxMap<u64, u32>,
    /// Registered code footprints; index = footprint id.
    footprints: Vec<Vec<u64>>,
    /// `(ptr, len)` of the slice each footprint was registered from.
    /// Callers pass the same backing slice per fid on every sweep (the
    /// documented fid contract), so matching identity here proves
    /// equality without re-comparing the whole line list per call; a
    /// non-matching pointer falls back to the full comparison.
    footprint_src: Vec<(usize, usize)>,
    /// Token of the state currently live, when known. `None` means the
    /// cache's (and TLB's) own arrays are authoritative.
    pub(crate) cur: Option<u32>,
    /// Cap on `states.len()`, derived from the key size on first intern.
    max_states: usize,
    stats: ReplayStats,
}

impl ReplayCache {
    /// Registers `lines` under `fid` and reports whether the id is
    /// usable: `true` the first time and on every exact repeat, `false`
    /// if `fid` was previously registered with a different line list
    /// (callers must then bypass the memo).
    #[inline]
    pub(crate) fn check_footprint(&mut self, fid: u32, lines: &[u64]) -> bool {
        let idx = fid as usize;
        let src = (lines.as_ptr() as usize, lines.len());
        if self.footprint_src.get(idx) == Some(&src) {
            // Identity stands in for equality; a machine cloned past the
            // registering slice's lifetime could see the address reused,
            // so builds with debug assertions re-compare.
            debug_assert_eq!(
                self.footprints[idx].as_slice(),
                lines,
                "footprint {fid}: same (ptr, len), different lines"
            );
            return true;
        }
        self.register_footprint(idx, lines)
    }

    /// [`ReplayCache::check_footprint`] off the identity fast path: first
    /// sight of `idx` registers `lines`; after that only an equal line
    /// list (at whatever address) is the same footprint.
    fn register_footprint(&mut self, idx: usize, lines: &[u64]) -> bool {
        if idx >= self.footprints.len() {
            // analyze::allow(alloc-path, reason = "replay-memo warm-up path; steady state is a memo hit (replay counts pinned by bench/tests/replay_counts.rs, tests/alloc.rs pins zero steady-state allocs)")
            self.footprints.resize(idx + 1, Vec::new());
            // analyze::allow(alloc-path, reason = "replay-memo warm-up path; steady state is a memo hit (replay counts pinned by bench/tests/replay_counts.rs, tests/alloc.rs pins zero steady-state allocs)")
            self.footprint_src.resize(idx + 1, (0, 0));
        }
        if self.footprints[idx].is_empty() {
            // analyze::allow(alloc-path, reason = "replay-memo warm-up path; steady state is a memo hit (replay counts pinned by bench/tests/replay_counts.rs, tests/alloc.rs pins zero steady-state allocs)")
            self.footprints[idx] = lines.to_vec();
            self.footprint_src[idx] = (lines.as_ptr() as usize, lines.len());
            return true;
        }
        self.footprints[idx].as_slice() == lines
    }

    /// Interns a combined tag state, returning its token — or `None`
    /// when the state is new but the table is full (the caller then
    /// bypasses the memo for this sweep).
    pub(crate) fn intern(&mut self, key: &[u64]) -> Option<u32> {
        self.intern_hashed(hash_words(key), key)
    }

    /// [`ReplayCache::intern`] with the key's hash `h` given: walks the
    /// chain of states hashed to `h`, comparing full keys, and appends a
    /// new state (its key's one copy) when none matches.
    fn intern_hashed(&mut self, h: u64, key: &[u64]) -> Option<u32> {
        let first = self.intern.get(&h).copied();
        let mut at = first;
        while let Some(entry) = at.and_then(|t| self.states.get(t as usize)) {
            if *entry.key == *key {
                return at;
            }
            at = entry.same_hash;
        }
        if self.max_states == 0 {
            // First state fixes the key width and therefore the cap.
            self.max_states = (MAX_STATE_BYTES / (16 * key.len().max(1))).max(512);
        }
        if self.states.len() >= self.max_states {
            return None;
        }
        let t = self.states.len() as u32;
        let same_hash = match first.and_then(|f| self.states.get_mut(f as usize)) {
            // Splice in behind the first state with this hash.
            Some(head) => head.same_hash.replace(t),
            None => {
                // analyze::allow(alloc-path, reason = "replay-memo warm-up path; steady state is a memo hit (replay counts pinned by bench/tests/replay_counts.rs, tests/alloc.rs pins zero steady-state allocs)")
                self.intern.insert(h, t);
                None
            }
        };
        // analyze::allow(alloc-path, reason = "replay-memo warm-up path; steady state is a memo hit (replay counts pinned by bench/tests/replay_counts.rs, tests/alloc.rs pins zero steady-state allocs)")
        self.states.push(StateEntry {
            key: key.into(),
            same_hash,
            transitions: Vec::new(),
        });
        Some(t)
    }

    /// Whether the state table has hit its capacity bound.
    pub(crate) fn saturated(&self) -> bool {
        self.max_states != 0 && self.states.len() >= self.max_states
    }

    /// The combined tag state behind a token.
    pub(crate) fn state(&self, token: u32) -> &[u64] {
        &self.states[token as usize].key
    }

    /// Looks up a recorded transition.
    #[inline]
    pub(crate) fn lookup(&self, state: u32, fid: u32) -> Option<Transition> {
        let ts = &self.states[state as usize].transitions;
        // Linear scan: the lists are nearly always 1–4 entries.
        ts.iter().find(|&&(f, _)| f == fid).map(|&(_, tr)| tr)
    }

    /// Replays the recorded `(state, fid)` transition, if there is one:
    /// counts the hit and makes the successor state live. The caller
    /// applies the returned counter deltas.
    #[inline]
    pub(crate) fn follow(&mut self, state: u32, fid: u32) -> Option<Transition> {
        let tr = self.lookup(state, fid)?;
        self.stats.hits += 1;
        self.cur = Some(tr.next);
        Some(tr)
    }

    /// Records a transition.
    pub(crate) fn insert(&mut self, state: u32, fid: u32, tr: Transition) {
        let ts = &mut self.states[state as usize].transitions;
        let pos = ts.partition_point(|&(f, _)| f < fid);
        // analyze::allow(alloc-path, reason = "replay-memo warm-up path; steady state is a memo hit (replay counts pinned by bench/tests/replay_counts.rs, tests/alloc.rs pins zero steady-state allocs)")
        ts.insert(pos, (fid, tr));
    }

    /// Mutable access to the counters.
    pub(crate) fn stats_mut(&mut self) -> &mut ReplayStats {
        &mut self.stats
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> ReplayStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tr(ret: u64, next: u32) -> Transition {
        Transition {
            ret,
            hits: 0,
            misses: ret,
            tlb_hits: 0,
            tlb_misses: 0,
            stall: 0,
            next,
        }
    }

    #[test]
    fn footprint_registration_detects_collisions() {
        let mut r = ReplayCache::default();
        assert!(r.check_footprint(0, &[1, 2, 3]));
        assert!(r.check_footprint(0, &[1, 2, 3]), "exact repeat is fine");
        assert!(!r.check_footprint(0, &[1, 2, 4]), "different lines collide");
        assert!(r.check_footprint(5, &[9]), "gaps auto-register");
        assert_eq!(r.footprints.iter().filter(|f| !f.is_empty()).count(), 2);
    }

    #[test]
    fn interning_is_stable_and_exact() {
        let mut r = ReplayCache::default();
        let a = r.intern(&[1, 2, u64::MAX]).unwrap();
        let b = r.intern(&[1, 2, u64::MAX]).unwrap();
        let c = r.intern(&[1, 3, u64::MAX]).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(r.state(c), &[1, 3, u64::MAX]);
    }

    #[test]
    fn interner_caps_out_gracefully() {
        let mut r = ReplayCache {
            max_states: 2,
            ..ReplayCache::default()
        };
        assert!(r.intern(&[1]).is_some());
        assert!(r.intern(&[2]).is_some());
        assert!(r.intern(&[3]).is_none(), "table full: new states rejected");
        assert!(r.intern(&[1]).is_some(), "known states still resolve");
        assert!(r.saturated());
    }

    #[test]
    fn transitions_round_trip() {
        let mut r = ReplayCache::default();
        let s = r.intern(&[7]).unwrap();
        assert!(r.lookup(s, 0).is_none());
        r.insert(s, 3, tr(7, 3));
        r.insert(s, 1, tr(1, 1));
        let got = r.lookup(s, 3).unwrap();
        assert_eq!(got.ret, 7);
        assert_eq!(got.next, 3);
        assert_eq!(r.lookup(s, 1).unwrap().ret, 1);
        assert!(r.lookup(s, 2).is_none());
        assert_eq!(r.states[s as usize].transitions.len(), 2);
    }

    #[test]
    fn fx_hasher_is_deterministic() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xdead_beef);
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        b.write_u64(0xdead_beef);
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0);
    }

    /// The lane hash sees every word, its position and the length: a
    /// change in any one word of a 2 KB key (any lane, or the tail) moves
    /// it, as do swapping words between lanes and trailing zeros.
    #[test]
    fn hash_words_covers_every_word() {
        for len in [0usize, 1, 3, 4, 5, 8, 11, 256, 258] {
            let key: Vec<u64> = (0..len as u64).map(|i| i * 0x9e37 + 1).collect();
            let h = hash_words(&key);
            assert_eq!(h, hash_words(&key.clone()), "deterministic");
            for i in 0..len {
                let mut other = key.clone();
                other[i] ^= 1 << (i % 64);
                assert_ne!(hash_words(&other), h, "len {len}: word {i} ignored");
            }
            if len >= 2 {
                let mut swapped = key.clone();
                swapped.swap(0, 1);
                assert_ne!(hash_words(&swapped), h, "len {len}: lanes interchangeable");
            }
            let mut longer = key.clone();
            longer.push(0);
            assert_ne!(hash_words(&longer), h, "len {len}: trailing zero ignored");
        }
    }

    /// Distinct keys forced onto one hash share a chain: each gets its
    /// own token, re-interning any of them finds it, a key on another
    /// hash is unaffected, and the state cap still binds mid-chain.
    #[test]
    fn equal_hashes_chain_to_distinct_states() {
        let mut r = ReplayCache {
            max_states: 5,
            ..ReplayCache::default()
        };
        let keys: [&[u64]; 4] = [&[1, 2], &[3, 4], &[5, 6], &[7, 8]];
        let tokens: Vec<u32> = keys
            .iter()
            .map(|k| r.intern_hashed(42, k).unwrap())
            .collect();
        assert_eq!(tokens, [0, 1, 2, 3], "every colliding key is a new state");
        assert_eq!(r.intern_hashed(7, &[1, 2]), Some(4), "another hash, another chain");
        for (k, &t) in keys.iter().zip(&tokens).rev() {
            assert_eq!(r.intern_hashed(42, k), Some(t), "re-intern finds its token");
            assert_eq!(r.state(t), *k);
        }
        assert!(r.saturated());
        assert_eq!(r.intern_hashed(42, &[9, 9]), None, "cap binds on a chain");
        assert_eq!(r.intern_hashed(42, &[5, 6]), Some(2), "known chained state resolves");
        assert_eq!(r.states.len(), 5);
    }
}
