//! Flat 64-bit address space helpers.
//!
//! Everything in the simulators lives in one flat address space. Code
//! segments, per-layer read-only data, and message buffers are all assigned
//! [`Region`]s by an allocator (sequential or randomly placed — see
//! [`crate::placement`]), and cache behaviour follows purely from the
//! addresses.

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

    /// Iterates over the line-aligned addresses of every cache line the
    /// region touches.
    pub fn line_addrs(&self, line_size: u64) -> impl Iterator<Item = Addr> + '_ {
        let first = if self.len == 0 {
            1
        } else {
            self.base / line_size.max(1)
        };
        let last = if self.len == 0 {
            0
        } else {
            (self.end() - 1) / line_size.max(1)
        };
        (first..=last).map(move |l| l * line_size)
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
        assert_eq!(r.line_addrs(32).count(), 0);
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
        let r = Region::new(10, 100);
        let addrs: Vec<Addr> = r.line_addrs(32).collect();
        assert_eq!(addrs.len() as u64, r.lines(32));
        assert_eq!(addrs[0], 0);
        assert_eq!(*addrs.last().unwrap(), 96);
        for w in addrs.windows(2) {
            assert_eq!(w[1] - w[0], 32);
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
