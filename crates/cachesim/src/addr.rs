//! Flat 64-bit address space helpers.
//!
//! Everything in the simulators lives in one flat address space. Code
//! segments, per-layer read-only data, and message buffers are all assigned
//! [`Region`]s by an allocator (sequential or randomly placed — see
//! [`crate::placement`]), and cache behaviour follows purely from the
//! addresses.
//!
//! A cache sees a region as the line numbers (`addr >> log2(line size)`)
//! it touches. [`Region::line_numbers`] is the one place that enumerates
//! them: every line size in the simulators is a power of two
//! ([`crate::CacheConfig`] validates it), so the range is two shifts
//! rather than a division per line.

use std::ops::Range;

/// A byte address in the simulated flat address space.
pub type Addr = u64;

/// A contiguous byte range `[base, base + len)` in the simulated address
/// space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    /// First byte of the region.
    pub base: Addr,
    /// Length in bytes. A zero-length region contains no addresses.
    pub len: u64,
}

impl Region {
    /// Creates a region starting at `base` spanning `len` bytes.
    pub const fn new(base: Addr, len: u64) -> Self {
        Region { base, len }
    }

    /// One past the last byte of the region.
    pub const fn end(&self) -> Addr {
        self.base + self.len
    }

    /// Whether `addr` falls inside the region.
    pub const fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// Whether the two regions share at least one byte.
    pub const fn overlaps(&self, other: &Region) -> bool {
        self.base < other.end() && other.base < self.end()
    }

    /// The number of cache lines of size `line_size` the region touches.
    ///
    /// This is the paper's working-set metric: referencing any byte of a
    /// line brings the whole line into the working set.
    pub fn lines(&self, line_size: u64) -> u64 {
        if self.len == 0 {
            return 0;
        }
        let first = self.base / line_size;
        let last = (self.end() - 1) / line_size;
        last - first + 1
    }

    /// The line numbers (`addr >> log2(line_size)`) of every cache line
    /// of `line_size` bytes the region touches, in address order; empty
    /// for an empty region. Two shifts, not a division per line.
    ///
    /// # Panics
    ///
    /// If `line_size` is not a power of two: such a line has no shift,
    /// and rounding it to one would silently place lines elsewhere.
    #[inline]
    pub fn line_numbers(&self, line_size: u64) -> Range<u64> {
        assert!(line_size.is_power_of_two(), "line size {line_size} is not a power of two");
        if self.len == 0 {
            return 0..0;
        }
        let shift = line_size.trailing_zeros();
        (self.base >> shift)..((self.end() - 1) >> shift) + 1
    }
}

/// Rounds `addr` up to a multiple of `align` (must be a power of two).
pub const fn align_up(addr: Addr, align: u64) -> Addr {
    (addr + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_end_and_contains() {
        let r = Region::new(100, 50);
        assert_eq!(r.end(), 150);
        assert!(r.contains(100));
        assert!(r.contains(149));
        assert!(!r.contains(150));
        assert!(!r.contains(99));
    }

    #[test]
    fn empty_region_contains_nothing() {
        let r = Region::new(64, 0);
        assert!(!r.contains(64));
        assert_eq!(r.lines(32), 0);
        assert!(r.line_numbers(32).is_empty());
    }

    #[test]
    fn line_count_unaligned() {
        // Bytes 30..=33 straddle the 32-byte line boundary: two lines.
        let r = Region::new(30, 4);
        assert_eq!(r.lines(32), 2);
        // A single byte is one line.
        assert_eq!(Region::new(31, 1).lines(32), 1);
        // Exactly one aligned line.
        assert_eq!(Region::new(32, 32).lines(32), 1);
        // One byte past an aligned line adds a line.
        assert_eq!(Region::new(32, 33).lines(32), 2);
    }

    #[test]
    fn line_addrs_match_lines() {
        // Bytes 10..110 touch lines 0..=3, at addresses 0, 32, 64, 96.
        let r = Region::new(10, 100);
        let lines = r.line_numbers(32);
        assert_eq!(lines.end - lines.start, r.lines(32));
        let addrs: Vec<Addr> = lines.map(|l| l << 5).collect();
        assert_eq!(addrs, [0, 32, 64, 96]);
    }

    #[test]
    #[should_panic(expected = "line size 48 is not a power of two")]
    fn line_numbers_refuse_a_line_size_with_no_shift() {
        let _ = Region::new(0, 100).line_numbers(48);
    }

    proptest::proptest! {
        /// The shifted range is the per-line division it replaced:
        /// `base / line ..= (end - 1) / line`, empty for an empty region,
        /// at every power-of-two line size from 1 to 256.
        #[test]
        fn line_numbers_equal_the_division_formula(
            base in 0u64..(1 << 48),
            len in proptest::prop_oneof![0u64..1, 0u64..(1 << 12)],
            log2 in 0u32..9,
        ) {
            let line = 1u64 << log2;
            let r = Region::new(base, len);
            let divided: Vec<u64> = if len == 0 {
                Vec::new()
            } else {
                (base / line..=(base + len - 1) / line).collect()
            };
            let lines = r.line_numbers(line);
            proptest::prop_assert_eq!(lines.end - lines.start, r.lines(line));
            proptest::prop_assert_eq!(lines.collect::<Vec<_>>(), divided);
        }
    }

    #[test]
    fn overlap_detection() {
        let a = Region::new(0, 10);
        let b = Region::new(9, 5);
        let c = Region::new(10, 5);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn alignment_helpers() {
        assert_eq!(align_up(33, 32), 64);
        assert_eq!(align_up(32, 32), 32);
        assert_eq!(align_up(0, 32), 0);
    }
}
