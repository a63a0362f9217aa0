//! Counters for the footprint-replay memo (see [`crate::replay`]).
//!
//! These measure the *apparatus*, not the simulated machine: a replay hit
//! means a layer's instruction-fetch sweep was answered from the memo
//! table instead of being walked line by line. The simulated hit/miss/
//! stall accounting is identical either way; these counters only report
//! how often the shortcut applied.

/// Hit/miss counters for a [`crate::replay::ReplayCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Footprint fetches answered from the memo table.
    pub hits: u64,
    /// Footprint fetches simulated line by line and recorded.
    pub misses: u64,
    /// Footprint fetches that bypassed the memo and were walked without
    /// being recorded: the memoizer was switched off
    /// (`memoizer-disabled`), the footprint id collided
    /// (`footprint-collision`), or the live state was new and the state
    /// table was full (`state-table-full`). See
    /// [`crate::Machine::replay_ineligibility`].
    pub bypasses: u64,
}

impl ReplayStats {
    /// Total footprint fetches observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses + self.bypasses
    }
}
