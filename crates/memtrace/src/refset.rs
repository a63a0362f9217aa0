//! Sets of referenced bytes, kept as maximal disjoint intervals.
//!
//! The working-set analyses need two measures of a reference set: the exact
//! number of distinct bytes touched, and the number of cache lines of a
//! given size those bytes fall into (the paper's unit of working-set
//! accounting). Both are cheap to compute from a sorted interval
//! representation.

use std::collections::BTreeMap;

/// A set of byte addresses, stored as sorted, disjoint, non-adjacent
/// half-open intervals `[start, end)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ByteRefSet {
    /// Maps interval start to interval end.
    intervals: BTreeMap<u64, u64>,
}

impl ByteRefSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts the bytes `[addr, addr + len)`, merging with any
    /// overlapping or adjacent intervals.
    pub fn insert(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let mut start = addr;
        let mut end = addr + len;

        // Absorb a predecessor that overlaps or abuts [start, end).
        if let Some((&ps, &pe)) = self.intervals.range(..=start).next_back() {
            if pe >= start {
                start = ps;
                end = end.max(pe);
                self.intervals.remove(&ps);
            }
        }
        // Absorb all successors that start within [start, end].
        loop {
            let next = self
                .intervals
                .range(start..=end)
                .next()
                .map(|(&s, &e)| (s, e));
            match next {
                Some((s, e)) => {
                    end = end.max(e);
                    self.intervals.remove(&s);
                }
                None => break,
            }
        }
        self.intervals.insert(start, end);
    }

    /// Whether `addr` is in the set.
    pub fn contains(&self, addr: u64) -> bool {
        self.intervals
            .range(..=addr)
            .next_back()
            .is_some_and(|(_, &e)| addr < e)
    }

    /// Exact number of distinct bytes in the set.
    pub fn bytes(&self) -> u64 {
        self.intervals.iter().map(|(s, e)| e - s).sum()
    }

    /// Number of distinct cache lines of `line_size` bytes (a power of two)
    /// that contain at least one byte of the set.
    pub fn lines(&self, line_size: u64) -> u64 {
        debug_assert!(line_size.is_power_of_two());
        let mut count = 0u64;
        // Last line index already counted, if any. Intervals are sorted, so
        // a line shared between two intervals is only counted once.
        let mut last: Option<u64> = None;
        for (&s, &e) in &self.intervals {
            let first_line = s / line_size;
            let last_line = (e - 1) / line_size;
            let from = match last {
                Some(l) if l >= first_line => l + 1,
                _ => first_line,
            };
            if from <= last_line {
                count += last_line - from + 1;
                last = Some(last_line);
            }
        }
        count
    }

    /// Iterates the maximal intervals in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.intervals.iter().map(|(&s, &e)| (s, e))
    }

    /// True if no bytes are in the set.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }
}

impl FromIterator<(u64, u64)> for ByteRefSet {
    /// Builds a set from `(addr, len)` pairs.
    fn from_iter<T: IntoIterator<Item = (u64, u64)>>(iter: T) -> Self {
        let mut set = ByteRefSet::new();
        for (addr, len) in iter {
            set.insert(addr, len);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_measure() {
        let mut s = ByteRefSet::new();
        s.insert(10, 10); // [10,20)
        s.insert(30, 10); // [30,40)
        assert_eq!(s.bytes(), 20);
        assert_eq!(s.iter().count(), 2);
    }

    #[test]
    fn merging_overlap_and_adjacency() {
        let mut s = ByteRefSet::new();
        s.insert(10, 10); // [10,20)
        s.insert(20, 5); // adjacent -> [10,25)
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(10, 25)]);
        s.insert(5, 10); // overlaps front -> [5,25)
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(5, 25)]);
        s.insert(0, 100); // swallows everything
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(0, 100)]);
        assert_eq!(s.bytes(), 100);
    }

    #[test]
    fn merge_bridges_multiple_intervals() {
        let mut s = ByteRefSet::new();
        s.insert(0, 10);
        s.insert(20, 10);
        s.insert(40, 10);
        s.insert(5, 40); // bridges all three
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(0, 50)]);
    }

    #[test]
    fn contains_and_intersects() {
        let mut s = ByteRefSet::new();
        s.insert(100, 50);
        assert!(s.contains(100));
        assert!(s.contains(149));
        assert!(!s.contains(150));
        assert!(!s.contains(99));
        let intersects = |addr: u64, len: u64| (addr..addr + len).any(|a| s.contains(a));
        assert!(intersects(140, 100));
        assert!(!intersects(150, 100));
        assert!(!intersects(0, 100));
        assert!(!intersects(100, 0));
    }

    #[test]
    fn empty_insert_is_noop() {
        let mut s = ByteRefSet::new();
        s.insert(10, 0);
        assert!(s.is_empty());
        assert_eq!(s.bytes(), 0);
        assert_eq!(s.lines(32), 0);
    }

    #[test]
    fn line_counting() {
        let mut s = ByteRefSet::new();
        s.insert(0, 32); // line 0
        s.insert(33, 1); // line 1
        s.insert(100, 1); // line 3
        assert_eq!(s.lines(32), 3);
        // Smaller lines: [0,32) = 2 lines of 16; 33 = 1; 100 = 1.
        assert_eq!(s.lines(16), 4);
        // One big 128-byte line covers everything up to 127.
        assert_eq!(s.lines(128), 1);
    }

    #[test]
    fn shared_line_counted_once() {
        let mut s = ByteRefSet::new();
        s.insert(0, 4); // line 0
        s.insert(28, 4); // ends exactly at 32: still line 0
        assert_eq!(s.lines(32), 1);
        s.insert(30, 4); // [30,34) straddles into line 1
        assert_eq!(s.lines(32), 2);
    }

    #[test]
    fn from_iterator() {
        let s: ByteRefSet = vec![(0u64, 10u64), (5, 10), (100, 1)].into_iter().collect();
        assert_eq!(s.bytes(), 16);
    }
}
