//! Address-space placement of code and data segments.
//!
//! The paper's synthetic results (Section 4) are averaged over 100 runs,
//! "each with a different random placement in memory", because conflict
//! misses in a direct-mapped cache depend on where the program lands.
//! [`RandomPlacement`] reproduces that methodology; [`AddressAllocator`]
//! provides the plain sequential layout used for the TCP working-set
//! analysis, where function order mirrors the kernel's link order.

use crate::addr::{align_up, Addr, Region};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A simple bump allocator handing out consecutive, aligned regions.
#[derive(Debug, Clone)]
pub struct AddressAllocator {
    next: Addr,
    align: u64,
}

impl AddressAllocator {
    /// Starts allocating at `base`, aligning every region to `align` bytes
    /// (must be a power of two; use the cache line size to give each
    /// segment its own lines).
    pub fn new(base: Addr, align: u64) -> Self {
        assert!(align.is_power_of_two());
        AddressAllocator {
            next: align_up(base, align),
            align,
        }
    }

    /// Starts at address 0 with the given alignment.
    pub fn at_zero(align: u64) -> Self {
        Self::new(0, align)
    }

    /// Returns the next free region of `len` bytes.
    pub fn alloc(&mut self, len: u64) -> Region {
        let base = self.next;
        self.next = align_up(base + len, self.align);
        Region::new(base, len)
    }

    /// Skips ahead so the next allocation begins at or after `addr`.
    pub fn skip_to(&mut self, addr: Addr) {
        self.next = align_up(self.next.max(addr), self.align);
    }

    /// The address the next allocation would receive.
    pub fn watermark(&self) -> Addr {
        self.next
    }
}

/// Seeded random placement of segments in a bounded address window.
///
/// Segments are placed at line-aligned addresses uniformly at random,
/// rejecting overlaps. Because cache index bits come from the low address
/// bits, randomizing placement randomizes which cache sets each segment
/// occupies — exactly the layout sensitivity the paper averages over.
#[derive(Debug)]
pub struct RandomPlacement {
    rng: StdRng,
    window: Region,
    align: u64,
    /// Everything placed so far, sorted by base. The regions are disjoint
    /// and non-empty, so their ends are sorted too and a candidate that
    /// overlaps any of them overlaps one of its two neighbours.
    placed: Vec<Region>,
}

impl RandomPlacement {
    /// Creates a placement context over `window`, aligning to `align`
    /// (power of two, typically the line size), seeded for reproducibility.
    pub fn new(seed: u64, window: Region, align: u64) -> Self {
        assert!(align.is_power_of_two());
        assert!(window.len >= align);
        RandomPlacement {
            rng: StdRng::seed_from_u64(seed),
            window,
            align,
            placed: Vec::new(),
        }
    }

    /// Places a segment of `len` bytes, disjoint from everything placed so
    /// far. Panics if the window is too full to find a spot in 10,000
    /// attempts (keep total placed size well under the window size).
    pub fn place(&mut self, len: u64) -> Region {
        assert!(len > 0, "cannot place an empty segment");
        assert!(len <= self.window.len, "segment larger than window");
        // analyze::allow(panic-path, reason = "align is a nonzero power of two fixed at pool construction")
        let slots = (self.window.len - len) / self.align + 1;
        for _ in 0..10_000 {
            let slot = self.rng.random_range(0..slots);
            let base = self.window.base + slot * self.align;
            let candidate = Region::new(base, len);
            let at = self.placed.partition_point(|r| r.base < base);
            let before = at.checked_sub(1).and_then(|i| self.placed.get(i));
            let clash = |r: Option<&Region>| r.is_some_and(|r| r.overlaps(&candidate));
            if !clash(before) && !clash(self.placed.get(at)) {
                self.placed.insert(at, candidate);
                return candidate;
            }
        }
        // analyze::allow(panic-path, reason = "documented failure mode: the doc comment requires total placed size well under the window; exceeding it is a configuration bug")
        panic!(
            "random placement failed: window too crowded ({} segments, {} bytes placed)",
            self.placed.len(),
            self.placed.iter().map(|r| r.len).sum::<u64>()
        );
    }

    /// Places one segment per entry of `sizes`, in order.
    pub fn place_all(&mut self, sizes: &[u64]) -> Vec<Region> {
        sizes.iter().map(|&s| self.place(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocator_is_aligned_and_disjoint() {
        let mut a = AddressAllocator::new(100, 32);
        let r1 = a.alloc(10);
        let r2 = a.alloc(50);
        let r3 = a.alloc(32);
        assert_eq!(r1.base % 32, 0);
        assert_eq!(r2.base % 32, 0);
        assert!(!r1.overlaps(&r2));
        assert!(!r2.overlaps(&r3));
        assert!(r2.base >= r1.end());
    }

    #[test]
    fn skip_to_moves_forward_only() {
        let mut a = AddressAllocator::at_zero(32);
        a.alloc(64);
        a.skip_to(32); // behind watermark: no-op
        assert_eq!(a.watermark(), 64);
        a.skip_to(1000);
        assert_eq!(a.alloc(1).base, 1024);
    }

    #[test]
    fn random_placement_is_disjoint_and_aligned() {
        let mut p = RandomPlacement::new(42, Region::new(0, 1 << 20), 32);
        let regions = p.place_all(&[6144, 6144, 6144, 6144, 6144]);
        for (i, a) in regions.iter().enumerate() {
            assert_eq!(a.base % 32, 0);
            for b in &regions[i + 1..] {
                assert!(!a.overlaps(b), "{a:?} overlaps {b:?}");
            }
        }
    }

    #[test]
    fn random_placement_is_deterministic_per_seed() {
        let window = Region::new(0, 1 << 20);
        let a = RandomPlacement::new(7, window, 32).place_all(&[1000, 2000]);
        let b = RandomPlacement::new(7, window, 32).place_all(&[1000, 2000]);
        let c = RandomPlacement::new(8, window, 32).place_all(&[1000, 2000]);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seed should (almost surely) move segments");
    }
}
