//! Cache-aware open-addressing lookup tables.
//!
//! Every per-message data structure in the stack — the PCB table, the
//! signaling VC table, the DNS zone, the ARP cache — used to be a list
//! walk or a `BTreeMap`. At the paper's scale (tens of connections)
//! either is fine; at production scale (10^5–10^6 concurrent flows)
//! the *data* working set becomes the cache killer, and a pointer-chasing
//! tree under-reports it. [`OaTable`] is the replacement: open addressing
//! with linear probing, so a lookup touches a short run of contiguous
//! slots — and, crucially, it records the probe sequence of every keyed
//! operation so callers can replay those slots as data references against
//! `cachesim` ("Algorithms and Data Structures to Accelerate Network
//! Analysis" grounds the cache-conscious design). D-misses per lookup are
//! then simulated, not guessed.
//!
//! [`LookupCache`] generalizes the BSD single-entry PCB cache into the
//! small front-end caches Jain studied in DEC-TR-592: LRU / FIFO /
//! random replacement at 1–64 entries, effective exactly when the
//! traffic has destination-address locality. `figure10` reproduces that
//! scheme comparison under Zipf and packet-train popularity — over a
//! [`PlacementIndex`], the layout of a loaded [`OaTable`] computed
//! without building it, since that model reads probe runs and nothing
//! else.
//!
//! Everything here is deterministic: hashing is a fixed splitmix64
//! finalizer (no per-process `RandomState`), iteration order is slot
//! order, and the random eviction scheme runs on a seeded xorshift64.
//! The module is held to the workspace panic-free rule — probe loops are
//! index arithmetic over `get`/`get_mut`, never raw indexing.

use crate::wire::ipv4::Ipv4Addr;
use std::num::NonZeroUsize;

/// Deterministic 64-bit hash for table keys.
///
/// Implementations must be pure functions of the key value so that runs
/// are reproducible across processes and thread counts (workspace rule:
/// no `std::collections::HashMap` in simulation crates precisely because
/// its hasher is seeded per process).
pub trait StableHash {
    /// A well-mixed 64-bit digest of the key.
    fn stable_hash(&self) -> u64;
}

/// splitmix64 finalizer: the standard 64-bit avalanche mix.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl StableHash for u64 {
    fn stable_hash(&self) -> u64 {
        mix64(*self)
    }
}

impl StableHash for u32 {
    fn stable_hash(&self) -> u64 {
        mix64(u64::from(*self))
    }
}

impl StableHash for u16 {
    fn stable_hash(&self) -> u64 {
        mix64(u64::from(*self))
    }
}

impl StableHash for usize {
    fn stable_hash(&self) -> u64 {
        mix64(*self as u64)
    }
}

impl StableHash for Ipv4Addr {
    fn stable_hash(&self) -> u64 {
        mix64(u64::from(u32::from_be_bytes(self.0)))
    }
}

impl StableHash for String {
    fn stable_hash(&self) -> u64 {
        // FNV-1a over the bytes, then the avalanche finalizer.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in self.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        mix64(h)
    }
}

/// The TCP/UDP connection 4-tuple `(local, lport, remote, rport)`.
impl StableHash for (Ipv4Addr, u16, Ipv4Addr, u16) {
    fn stable_hash(&self) -> u64 {
        let (la, lp, ra, rp) = self;
        let addrs = (u64::from(u32::from_be_bytes(la.0)) << 32)
            | u64::from(u32::from_be_bytes(ra.0));
        let ports = (u64::from(*lp) << 16) | u64::from(*rp);
        mix64(addrs ^ mix64(ports))
    }
}

/// Smallest table ever allocated (slots).
const MIN_CAPACITY: usize = 8;
/// Grow when occupancy would exceed 7/8 of capacity.
const LOAD_NUM: usize = 7;
const LOAD_DEN: usize = 8;

/// Slots allocated to hold `n` entries without rehashing (0 for none):
/// the one capacity rule [`OaTable::with_capacity`] and
/// [`PlacementIndex::build`] share.
fn capacity_for(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        (n * LOAD_DEN / LOAD_NUM + 1)
            .next_power_of_two()
            .max(MIN_CAPACITY)
    }
}

/// An open-addressing hash table with linear probing, backward-shift
/// deletion, and a probe log.
///
/// Capacity is always a power of two; occupancy is kept below 7/8, so a
/// probe run always terminates at an empty slot. After any keyed `&mut`
/// operation ([`Self::get_mut`], [`Self::insert`], [`Self::remove`]),
/// [`Self::last_probes`] returns the slot indices the operation touched
/// in order — the caller multiplies by its slot stride and issues them
/// as data references to `cachesim`, so the simulated D-cache sees the
/// same footprint the real lookup would.
#[derive(Debug, Clone)]
pub struct OaTable<K, V> {
    slots: Vec<Option<(K, V)>>,
    len: usize,
    /// Slot indices touched by the most recent keyed `&mut` operation.
    probes: Vec<u32>,
    /// Total probes across keyed operations (for mean probe length).
    probes_total: u64,
    /// Keyed operations counted into `probes_total`.
    ops: u64,
}

impl<K: StableHash + Eq, V> Default for OaTable<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: StableHash + Eq, V> OaTable<K, V> {
    /// An empty table (allocates on first insert).
    pub fn new() -> Self {
        OaTable {
            slots: Vec::new(),
            len: 0,
            probes: Vec::new(),
            probes_total: 0,
            ops: 0,
        }
    }

    /// A table pre-sized to hold `n` entries without rehashing.
    pub fn with_capacity(n: usize) -> Self {
        let mut t = Self::new();
        if n > 0 {
            t.slots = Self::fresh_slots(capacity_for(n));
        }
        t
    }

    fn fresh_slots(cap: usize) -> Vec<Option<(K, V)>> {
        // analyze::allow(alloc-path, reason = "growth rehash is amortized bulk maintenance; dispatch-path tables (relay mailboxes) are pre-sized for their population so this fires at startup, not per message")
        let mut v = Vec::with_capacity(cap);
        v.resize_with(cap, || None);
        v
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated slots (power of two, 0 before first insert).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Slot indices touched by the most recent keyed `&mut` operation
    /// (`get_mut` / `insert` / `remove`), in probe order. Multiply by the
    /// modelled slot stride to turn them into data addresses.
    pub fn last_probes(&self) -> &[u32] {
        &self.probes
    }

    /// Mean probes per keyed `&mut` operation since construction.
    pub fn mean_probes(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.probes_total as f64 / self.ops as f64
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        // Capacity is a power of two whenever slots is non-empty.
        self.slots.len().wrapping_sub(1)
    }

    /// Shared lookup; does not record probes (no `&mut` access).
    // analyze::hot_path(oatable-probe, rules = "panic-path")
    pub fn get(&self, key: &K) -> Option<&V> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.mask();
        let mut i = (key.stable_hash() as usize) & mask;
        let mut steps = 0usize;
        while steps <= self.slots.len() {
            match self.slots.get(i) {
                Some(Some((k, v))) if k == key => return Some(v),
                Some(Some(_)) => {
                    i = (i + 1) & mask;
                    steps += 1;
                }
                _ => return None,
            }
        }
        None
    }

    /// True when `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Exclusive lookup; records the probe sequence.
    // analyze::hot_path(oatable-probe, rules = "panic-path")
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.probes.clear();
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.mask();
        let mut i = (key.stable_hash() as usize) & mask;
        let cap = self.slots.len();
        let mut found = None;
        while self.probes.len() <= cap {
            // analyze::allow(alloc-path, reason = "probe log keeps its capacity across lookups; the engine-loop edge is a get_mut name collision via obs")
            self.probes.push(i as u32);
            match self.slots.get(i) {
                Some(Some((k, _))) if k == key => {
                    found = Some(i);
                    break;
                }
                Some(Some(_)) => i = (i + 1) & mask,
                _ => break,
            }
        }
        self.note_op();
        let at = found?;
        match self.slots.get_mut(at) {
            Some(Some((_, v))) => Some(v),
            _ => None,
        }
    }

    /// Inserts or replaces; returns the previous value for `key` if any.
    /// Records the probe sequence of the final placement pass (a growth
    /// rehash is a bulk maintenance event, not a per-message lookup, and
    /// is deliberately not logged).
    // analyze::hot_path(oatable-probe, rules = "panic-path")
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.slots.is_empty() || (self.len + 1) * LOAD_DEN > self.slots.len() * LOAD_NUM {
            self.grow();
        }
        self.probes.clear();
        let mask = self.mask();
        let mut i = (key.stable_hash() as usize) & mask;
        let cap = self.slots.len();
        let mut value = Some(value);
        let mut replaced = None;
        while self.probes.len() <= cap {
            // analyze::allow(alloc-path, reason = "probe log keeps its capacity across placements; the dispatch-path edge is relay mailbox insert into a pre-sized table")
            self.probes.push(i as u32);
            match self.slots.get_mut(i) {
                Some(slot) => match slot {
                    Some((k, v)) if *k == key => {
                        if let Some(nv) = value.take() {
                            replaced = Some(std::mem::replace(v, nv));
                        }
                        break;
                    }
                    Some(_) => i = (i + 1) & mask,
                    None => {
                        if let Some(nv) = value.take() {
                            *slot = Some((key, nv));
                            self.len += 1;
                        }
                        break;
                    }
                },
                None => break,
            }
        }
        self.note_op();
        replaced
    }

    /// Removes `key`, returning its value. Backward-shift deletion keeps
    /// probe runs contiguous (no tombstones), so lookup cost never decays
    /// with churn. Records the probe sequence of the search.
    // analyze::hot_path(oatable-probe, rules = "panic-path")
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.probes.clear();
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.mask();
        let mut i = (key.stable_hash() as usize) & mask;
        let cap = self.slots.len();
        let mut found = None;
        while self.probes.len() <= cap {
            self.probes.push(i as u32);
            match self.slots.get(i) {
                Some(Some((k, _))) if k == key => {
                    found = Some(i);
                    break;
                }
                Some(Some(_)) => i = (i + 1) & mask,
                _ => break,
            }
        }
        self.note_op();
        let hole = found?;
        let removed = self.slots.get_mut(hole).and_then(|s| s.take());
        if removed.is_some() {
            self.len -= 1;
            self.backward_shift(hole);
        }
        removed.map(|(_, v)| v)
    }

    /// Closes the hole left at `hole` by sliding displaced cluster
    /// members back toward their home slots.
    fn backward_shift(&mut self, mut hole: usize) {
        let mask = self.mask();
        let mut j = (hole + 1) & mask;
        let mut steps = 0usize;
        while steps < self.slots.len() {
            let home = match self.slots.get(j) {
                Some(Some((k, _))) => (k.stable_hash() as usize) & mask,
                _ => return, // empty slot: cluster ends, hole is safe
            };
            // The entry at j may fill the hole only if its probe path
            // from home reaches the hole before j (cyclically).
            let home_to_j = j.wrapping_sub(home) & mask;
            let hole_to_j = j.wrapping_sub(hole) & mask;
            if home_to_j >= hole_to_j {
                let e = self.slots.get_mut(j).and_then(|s| s.take());
                if let Some(slot) = self.slots.get_mut(hole) {
                    *slot = e;
                }
                hole = j;
            }
            j = (j + 1) & mask;
            steps += 1;
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(MIN_CAPACITY);
        let old = std::mem::replace(&mut self.slots, Self::fresh_slots(new_cap));
        let mask = new_cap.wrapping_sub(1);
        for entry in old.into_iter().flatten() {
            let (k, v) = entry;
            let mut i = (k.stable_hash() as usize) & mask;
            let mut steps = 0usize;
            // The new table is at most half full: an empty slot exists.
            while steps <= new_cap {
                match self.slots.get_mut(i) {
                    Some(slot) if slot.is_none() => {
                        *slot = Some((k, v));
                        break;
                    }
                    Some(_) => {
                        i = (i + 1) & mask;
                        steps += 1;
                    }
                    None => break,
                }
            }
        }
    }

    fn note_op(&mut self) {
        self.probes_total += self.probes.len() as u64;
        self.ops += 1;
    }

    /// Iterates entries in slot order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots.iter().filter_map(|s| s.as_ref().map(|(k, v)| (k, v)))
    }

    /// Keeps only the entries for which `f` returns `true` (e.g.
    /// expiring relay mailboxes past their deadline). Like a growth
    /// rehash this is a bulk maintenance event, not a per-message
    /// lookup: the probe log and mean-probe counters are left exactly
    /// as the last keyed operation set them.
    pub fn retain(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) -> usize
    where
        K: Clone,
    {
        let mut dead: Vec<K> = Vec::new();
        for s in &mut self.slots {
            if let Some((k, v)) = s.as_mut() {
                if !f(k, v) {
                    dead.push(k.clone());
                }
            }
        }
        let (probes, probes_total, ops) =
            (std::mem::take(&mut self.probes), self.probes_total, self.ops);
        for k in &dead {
            self.remove(k);
        }
        self.probes = probes;
        self.probes_total = probes_total;
        self.ops = ops;
        dead.len()
    }

    /// Drops all entries, keeping the allocation.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.len = 0;
        self.probes.clear();
    }
}

/// Where an insert-only load puts its keys — the table's layout without
/// the table.
///
/// Loading pairwise-distinct keys into [`OaTable::with_capacity`]`(n)` by
/// [`OaTable::insert`] places each at the first free slot from its home
/// slot, in insertion order: a pure function of the hash sequence. This
/// index computes that placement against an occupancy bitmap (one bit a
/// slot — at 10^6 keys 256 KB where `u64`-keyed slots are 32 MB, so it
/// stays in the host's cache while the hash scatters over it) and keeps
/// one byte per key: how many slots past home it landed, the rare
/// displacement of 255 or more going to a short overflow list instead.
/// A later lookup of that key
/// probes `home ..= home + displacement`, wrapping at the capacity —
/// exactly what [`OaTable::get_mut`] logs in [`OaTable::last_probes`],
/// which is all a cost model that replays probe runs ever reads.
///
/// Same capacity rule, mask and probe order as [`OaTable`], which is the
/// reference this is property-tested against. Keys are not stored, so
/// duplicates cannot be detected: the caller guarantees distinctness.
#[derive(Debug, Clone)]
pub struct PlacementIndex {
    /// Slots of the table this lays out (power of two, 0 when empty).
    capacity: usize,
    /// Per key in insertion order, slots past its home slot, or
    /// [`OVERFLOWED`] when that is too many for a byte.
    displacement: Vec<u8>,
    /// `(key index, displacement)` for every [`OVERFLOWED`] key, in key
    /// order. A displacement is below the capacity and slot indices are
    /// `u32` throughout this module, so no cluster is too long to record.
    overflow: Vec<(u32, u32)>,
}

/// The [`PlacementIndex`] byte of a key displaced 255 or more slots.
const OVERFLOWED: u8 = u8::MAX;

/// Marks the first free slot at or after `home` (wrapping) occupied and
/// returns it: linear probing, a bitmap word at a time — the home word
/// from `home` up, then each following word whole, the home word's low
/// bits last. Occupancy stays below 7/8, so a free slot exists.
#[inline]
fn claim_first_free(occupied: &mut [u64], home: usize) -> usize {
    let mut at = home / 64;
    let mut candidates = !0u64 << (home % 64);
    for _ in 0..=occupied.len() {
        let Some(word) = occupied.get_mut(at) else {
            break;
        };
        let free = !*word & candidates;
        if free != 0 {
            let bit = free.trailing_zeros() as usize;
            *word |= 1 << bit;
            return at * 64 + bit;
        }
        at = if at + 1 < occupied.len() { at + 1 } else { 0 };
        candidates = !0;
    }
    debug_assert!(false, "placement bitmap full");
    home
}

impl PlacementIndex {
    /// Lays out `keys` (pairwise distinct) as `OaTable::with_capacity(keys.len())`
    /// followed by `insert` of each in order would.
    pub fn build<K: StableHash>(keys: impl ExactSizeIterator<Item = K>) -> Self {
        let capacity = capacity_for(keys.len());
        debug_assert!(capacity as u64 <= 1 << 32, "slot indices are u32");
        let mask = capacity.wrapping_sub(1);
        let mut occupied = vec![0u64; capacity.div_ceil(64)];
        if let Some(only) = occupied.first_mut().filter(|_| capacity < 64) {
            // A table smaller than a word: the bits past its end are walls.
            *only = !0 << capacity;
        }
        let mut displacement = Vec::with_capacity(keys.len());
        let mut overflow = Vec::new();
        for key in keys {
            let home = (key.stable_hash() as usize) & mask;
            let slot = claim_first_free(&mut occupied, home);
            let d = slot.wrapping_sub(home) & mask;
            if d >= usize::from(OVERFLOWED) {
                overflow.push((displacement.len() as u32, d as u32));
            }
            displacement.push(d.min(usize::from(OVERFLOWED)) as u8);
        }
        PlacementIndex {
            capacity,
            displacement,
            overflow,
        }
    }

    /// Number of keys laid out.
    pub fn len(&self) -> usize {
        self.displacement.len()
    }

    /// True when no key was laid out.
    pub fn is_empty(&self) -> bool {
        self.displacement.is_empty()
    }

    /// Slots of the table laid out (see [`OaTable::capacity`]).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The slots a lookup of the `index`-th key laid out probes, in
    /// order; `key` must be that key (its hash names the home slot).
    /// `None` past the last key — an absent key, to the caller.
    pub fn probes<K: StableHash>(
        &self,
        index: usize,
        key: &K,
    ) -> Option<impl Iterator<Item = u32>> {
        let d = match *self.displacement.get(index)? {
            OVERFLOWED => {
                let at = self
                    .overflow
                    .partition_point(|&(i, _)| (i as usize) < index);
                self.overflow.get(at).map_or(0, |&(_, d)| d)
            }
            d => u32::from(d),
        };
        let mask = self.capacity.wrapping_sub(1);
        let home = (key.stable_hash() as usize) & mask;
        Some((0..=d as usize).map(move |step| ((home + step) & mask) as u32))
    }
}

/// Replacement policy for a [`LookupCache`] (Jain, DEC-TR-592).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheScheme {
    /// Evict the least recently used entry.
    Lru,
    /// Evict the oldest entry regardless of use.
    Fifo,
    /// Evict a uniformly random entry (seeded xorshift64).
    Random,
}

impl CacheScheme {
    /// Stable lowercase label for CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            CacheScheme::Lru => "lru",
            CacheScheme::Fifo => "fifo",
            CacheScheme::Random => "rand",
        }
    }
}

/// Hit/miss counters for a [`LookupCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookupCacheStats {
    pub hits: u64,
    pub misses: u64,
}

impl LookupCacheStats {
    /// Hits over all lookups (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Largest front-end cache Jain's study sweeps.
pub const MAX_CACHE_SLOTS: usize = 64;

/// A small front-end cache over a lookup table.
///
/// At 1–64 entries a linear scan beats any index structure, and the
/// whole cache fits in a couple of cache lines — which is the point: a
/// hit saves the table's probe walk entirely. Entry order encodes the
/// policy state: front is most-recent (LRU) or newest (FIFO); eviction
/// takes the back, except the random scheme which overwrites a seeded
/// xorshift64 pick in place.
#[derive(Debug, Clone)]
pub struct LookupCache<K, V> {
    scheme: CacheScheme,
    max_entries: NonZeroUsize,
    entries: Vec<(K, V)>,
    rng: u64,
    stats: LookupCacheStats,
}

impl<K: Eq + Clone, V: Clone> LookupCache<K, V> {
    /// A cache with `slots` entries (clamped to 1..=64) under `scheme`.
    /// `seed` drives the random-eviction scheme only.
    pub fn new(scheme: CacheScheme, slots: usize, seed: u64) -> Self {
        let cap = slots.clamp(1, MAX_CACHE_SLOTS);
        LookupCache {
            scheme,
            max_entries: NonZeroUsize::new(cap).unwrap_or(NonZeroUsize::MIN),
            // Sized once: filling the cache is per-message work.
            entries: Vec::with_capacity(cap),
            // xorshift64 state must be non-zero.
            rng: mix64(seed) | 1,
            stats: LookupCacheStats::default(),
        }
    }

    /// Configured capacity in entries.
    pub fn slots(&self) -> usize {
        self.max_entries.get()
    }

    /// The replacement scheme.
    pub fn scheme(&self) -> CacheScheme {
        self.scheme
    }

    /// Counters.
    pub fn stats(&self) -> LookupCacheStats {
        self.stats
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Slot index at which `key` currently sits (0 = front), without
    /// touching hit statistics or recency order. The linear scan stops
    /// here, so a cost model charges reads of slots `0..=position`
    /// on a hit and of the whole cache on a miss.
    pub fn position(&self, key: &K) -> Option<usize> {
        self.entries.iter().position(|(k, _)| k == key)
    }

    /// Looks `key` up, updating recency (LRU) and counters.
    // analyze::hot_path(oatable-probe, rules = "panic-path")
    pub fn get(&mut self, key: &K) -> Option<V> {
        match self.entries.iter().position(|(k, _)| k == key) {
            Some(pos) => {
                self.stats.hits += 1;
                if self.scheme == CacheScheme::Lru && pos > 0 {
                    // Move to front: O(pos) on a <=64-entry Vec.
                    let e = self.entries.remove(pos);
                    // analyze::allow(alloc-path, reason = "reinserts into the slot the remove just vacated, so the <=64-entry Vec never grows; the workload-dispatch edge is a slice-get name collision in classify")
                    self.entries.insert(0, e);
                    return self.entries.first().map(|(_, v)| v.clone());
                }
                self.entries.get(pos).map(|(_, v)| v.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Installs `key -> value`, evicting per the scheme when full. An
    /// existing key is updated in place (LRU also refreshes recency).
    pub fn insert(&mut self, key: K, value: V) {
        if let Some(pos) = self.entries.iter().position(|(k, _)| k == &key) {
            if let Some(e) = self.entries.get_mut(pos) {
                e.1 = value;
            }
            if self.scheme == CacheScheme::Lru && pos > 0 {
                let e = self.entries.remove(pos);
                self.entries.insert(0, e);
            }
            return;
        }
        if self.entries.len() >= self.max_entries.get() {
            match self.scheme {
                CacheScheme::Lru | CacheScheme::Fifo => {
                    self.entries.pop();
                }
                CacheScheme::Random => {
                    let at = self.next_rand() as usize % self.max_entries;
                    if let Some(e) = self.entries.get_mut(at) {
                        *e = (key, value);
                    }
                    return;
                }
            }
        }
        self.entries.insert(0, (key, value));
    }

    /// Drops `key` if cached (e.g. connection teardown).
    pub fn invalidate(&mut self, key: &K) {
        self.entries.retain(|(k, _)| k != key);
    }

    /// Drops every entry (policy state and counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t: OaTable<u64, u32> = OaTable::new();
        assert!(t.is_empty());
        for i in 0..100u64 {
            assert_eq!(t.insert(i, i as u32 * 3), None);
        }
        assert_eq!(t.len(), 100);
        for i in 0..100u64 {
            assert_eq!(t.get(&i), Some(&(i as u32 * 3)));
        }
        assert_eq!(t.get(&1000), None);
        assert_eq!(t.insert(7, 99), Some(21));
        assert_eq!(t.remove(&7), Some(99));
        assert_eq!(t.remove(&7), None);
        assert_eq!(t.len(), 99);
    }

    #[test]
    fn capacity_is_power_of_two_and_presized() {
        let t: OaTable<u64, ()> = OaTable::with_capacity(1000);
        assert!(t.capacity().is_power_of_two());
        assert!(t.capacity() >= 1024);
        let mut t: OaTable<u64, ()> = OaTable::with_capacity(100);
        let cap = t.capacity();
        for i in 0..100u64 {
            t.insert(i, ());
        }
        assert_eq!(t.capacity(), cap, "pre-sized table must not rehash");
    }

    #[test]
    fn probe_log_records_the_walk() {
        let mut t: OaTable<u64, u32> = OaTable::with_capacity(8);
        t.insert(1, 10);
        assert!(!t.last_probes().is_empty());
        t.get_mut(&1);
        let probes = t.last_probes().to_vec();
        assert!(!probes.is_empty());
        // The final probe is the slot where the key lives; repeating the
        // lookup walks the same slots.
        t.get_mut(&1);
        assert_eq!(t.last_probes(), &probes[..]);
        // A missing key still walks at least one slot.
        t.get_mut(&999_999);
        assert!(!t.last_probes().is_empty());
        assert!(t.mean_probes() >= 1.0);
    }

    #[test]
    fn backward_shift_keeps_clusters_reachable() {
        // Force a dense cluster, then delete from the middle and verify
        // every survivor is still reachable (no tombstone semantics).
        let mut t: OaTable<u64, u64> = OaTable::new();
        for i in 0..2000u64 {
            t.insert(i, i);
        }
        for i in (0..2000u64).step_by(3) {
            assert_eq!(t.remove(&i), Some(i));
        }
        for i in 0..2000u64 {
            if i % 3 == 0 {
                assert_eq!(t.get(&i), None);
            } else {
                assert_eq!(t.get(&i), Some(&i));
            }
        }
    }

    #[test]
    fn retain_expires_entries_and_keeps_survivors_reachable() {
        let mut t: OaTable<u64, u64> = OaTable::new();
        for i in 0..500u64 {
            t.insert(i, i * 2);
        }
        t.get_mut(&499);
        let logged = t.last_probes().to_vec();
        let ops_before = t.mean_probes();
        let dropped = t.retain(|k, v| {
            *v += 1; // predicate may mutate survivors
            k % 5 != 0
        });
        assert_eq!(dropped, 100);
        assert_eq!(t.len(), 400);
        for i in 0..500u64 {
            if i % 5 == 0 {
                assert_eq!(t.get(&i), None);
            } else {
                assert_eq!(t.get(&i), Some(&(i * 2 + 1)));
            }
        }
        assert_eq!(t.last_probes(), &logged[..], "bulk maintenance is not probe-logged");
        assert!((t.mean_probes() - ops_before).abs() < 1e-12);
    }

    #[test]
    fn iteration_is_slot_ordered_and_deterministic() {
        let mk = || {
            let mut t: OaTable<u32, u32> = OaTable::new();
            for i in 0..50u32 {
                t.insert(i * 7, i);
            }
            t.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c: LookupCache<u32, u32> = LookupCache::new(CacheScheme::Lru, 2, 1);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(10)); // 1 is now MRU
        c.insert(3, 30); // evicts 2
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
    }

    #[test]
    fn fifo_evicts_oldest_regardless_of_use() {
        let mut c: LookupCache<u32, u32> = LookupCache::new(CacheScheme::Fifo, 2, 1);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(10)); // touching 1 must not save it
        c.insert(3, 30); // evicts 1 (oldest by insertion)
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(20));
    }

    #[test]
    fn random_eviction_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut c: LookupCache<u32, u32> = LookupCache::new(CacheScheme::Random, 4, seed);
            for i in 0..100u32 {
                c.insert(i, i);
                c.get(&(i / 2));
            }
            (c.stats(), {
                let mut keys: Vec<u32> = Vec::new();
                for k in 0..100u32 {
                    if c.get(&k).is_some() {
                        keys.push(k);
                    }
                }
                keys
            })
        };
        let (stats_a, keys_a) = run(42);
        let (stats_b, keys_b) = run(42);
        assert_eq!(stats_a, stats_b);
        assert_eq!(keys_a, keys_b);
        assert_eq!(keys_a.len(), 4, "cache holds exactly its capacity");
    }

    #[test]
    fn cache_stats_count_hits_and_misses() {
        let mut c: LookupCache<u32, u32> = LookupCache::new(CacheScheme::Lru, 1, 0);
        assert_eq!(c.get(&5), None);
        c.insert(5, 50);
        assert_eq!(c.get(&5), Some(50));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        c.invalidate(&5);
        assert_eq!(c.get(&5), None);
    }

    #[test]
    fn string_and_tuple_keys_hash_stably() {
        let a = String::from("www.example.com").stable_hash();
        assert_eq!(a, String::from("www.example.com").stable_hash());
        assert_ne!(a, String::from("www.example.org").stable_hash());
        let k1 = (Ipv4Addr([10, 0, 0, 1]), 80u16, Ipv4Addr([10, 0, 0, 2]), 5000u16);
        let k2 = (Ipv4Addr([10, 0, 0, 2]), 80u16, Ipv4Addr([10, 0, 0, 1]), 5000u16);
        assert_ne!(k1.stable_hash(), k2.stable_hash(), "direction matters");
    }
}
