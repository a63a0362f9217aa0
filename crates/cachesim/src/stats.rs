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
    /// (`memoizer-disabled`), the machine configuration is not eligible
    /// (`unified-cache`, `l2-configured`), the footprint id collided
    /// (`footprint-collision`), or the live state was new and the state
    /// table was full (`state-table-full`). See
    /// [`crate::Machine::replay_bypass_reason`].
    pub bypasses: u64,
}

impl ReplayStats {
    /// Total footprint fetches observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses + self.bypasses
    }

    /// Fraction of footprint fetches answered from the memo; 0 when none
    /// were issued.
    pub fn hit_rate(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// A snapshot of a replay cache's counters and table sizes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Hit/miss/bypass counters.
    pub stats: ReplayStats,
    /// Distinct cache states interned.
    pub states: usize,
    /// Recorded (state, footprint) -> (misses, state) transitions.
    pub transitions: usize,
    /// Distinct footprints registered.
    pub footprints: usize,
}

impl ReplayReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "replay: {} hits / {} misses / {} bypasses ({:.1}% hit rate), {} states, {} transitions, {} footprints",
            self.stats.hits,
            self.stats.misses,
            self.stats.bypasses,
            self.stats.hit_rate() * 100.0,
            self.states,
            self.transitions,
            self.footprints
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_arithmetic() {
        assert_eq!(ReplayStats::default().hit_rate(), 0.0);
        let s = ReplayStats {
            hits: 3,
            misses: 1,
            ..ReplayStats::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        let t = ReplayStats { bypasses: 4, ..s };
        assert_eq!(t.accesses(), 8);
        assert!((t.hit_rate() - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn report_summary_mentions_counts() {
        let r = ReplayReport {
            stats: ReplayStats {
                hits: 10,
                misses: 2,
                bypasses: 0,
            },
            states: 5,
            transitions: 7,
            footprints: 5,
        };
        let s = r.summary();
        assert!(s.contains("10 hits"));
        assert!(s.contains("5 states"));
    }
}
