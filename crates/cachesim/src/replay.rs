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
//! Correctness notes:
//! * Keys are **exact** tag states (not hashes of them), so a lookup hit
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

use crate::stats::{ReplayReport, ReplayStats};
use std::hash::{BuildHasherDefault, Hasher};
// The memoizer's state interner is lookup-only (get/insert, never
// iterated) and uses a fixed-seed hasher, so not even its internal order
// varies between processes; O(1) probes are what make the >99.9%-hit-rate
// replay path cheap.
// analyze::allow(nondeterminism, reason = "lookup-only interning map with a fixed-seed deterministic hasher; iteration order never observed")
#[allow(clippy::disallowed_types)]
type FxMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A fixed-seed multiply-rotate hasher (the rustc `FxHash` construction).
/// Deterministic across processes and platforms — unlike `RandomState` —
/// and much cheaper than SipHash on the multi-kilobyte state keys the
/// interner hashes on every memo miss.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
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
        self.hash
    }
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
    /// when a TLB is part of the key.
    key: Box<[u64]>,
    /// `(footprint id, outcome)`, sorted by footprint id.
    transitions: Vec<(u32, Transition)>,
}

/// Total bytes of interned state keys a single replay cache may hold
/// (counting the interner's duplicate copy). Beyond this the memoizer
/// stops learning new states and falls back to plain simulation.
const MAX_STATE_BYTES: usize = 48 << 20;

/// A transition table over interned cache(+TLB) states.
///
/// Owned by a [`crate::Machine`]; see [`crate::Machine::fetch_code_footprint`].
#[derive(Debug, Clone, Default)]
pub struct ReplayCache {
    /// Interned states; index = token.
    states: Vec<StateEntry>,
    /// Exact-state interning map (fixed-seed hasher, see [`FxHasher`]).
    intern: FxMap<Box<[u64]>, u32>,
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
            // analyze::allow(alloc-path, reason = "replay-memo warm-up path; steady state is a memo hit (hit rate CI-gated, tests/alloc.rs pins zero steady-state allocs)")
            self.footprints.resize(idx + 1, Vec::new());
            // analyze::allow(alloc-path, reason = "replay-memo warm-up path; steady state is a memo hit (hit rate CI-gated, tests/alloc.rs pins zero steady-state allocs)")
            self.footprint_src.resize(idx + 1, (0, 0));
        }
        if self.footprints[idx].is_empty() {
            // analyze::allow(alloc-path, reason = "replay-memo warm-up path; steady state is a memo hit (hit rate CI-gated, tests/alloc.rs pins zero steady-state allocs)")
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
        if let Some(&t) = self.intern.get(key) {
            return Some(t);
        }
        if self.max_states == 0 {
            // First state fixes the key width and therefore the cap.
            self.max_states = (MAX_STATE_BYTES / (16 * key.len().max(1))).max(512);
        }
        if self.states.len() >= self.max_states {
            return None;
        }
        let t = self.states.len() as u32;
        let boxed: Box<[u64]> = key.into();
        // analyze::allow(alloc-path, reason = "replay-memo warm-up path; steady state is a memo hit (hit rate CI-gated, tests/alloc.rs pins zero steady-state allocs)")
        self.states.push(StateEntry {
            key: boxed.clone(),
            transitions: Vec::new(),
        });
        // analyze::allow(alloc-path, reason = "replay-memo warm-up path; steady state is a memo hit (hit rate CI-gated, tests/alloc.rs pins zero steady-state allocs)")
        self.intern.insert(boxed, t);
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
        // analyze::allow(alloc-path, reason = "replay-memo warm-up path; steady state is a memo hit (hit rate CI-gated, tests/alloc.rs pins zero steady-state allocs)")
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

    /// Snapshot of counters and table sizes.
    pub fn report(&self) -> ReplayReport {
        ReplayReport {
            stats: self.stats,
            states: self.states.len(),
            transitions: self.states.iter().map(|s| s.transitions.len()).sum(),
            footprints: self.footprints.iter().filter(|f| !f.is_empty()).count(),
        }
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
        assert_eq!(r.report().footprints, 2);
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
        assert_eq!(r.report().transitions, 2);
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
}
