//! `RandomPlacement` against the definition it replaced.
//!
//! Placement draws a random aligned slot and rejects it if it overlaps
//! anything placed so far. The library keeps its regions sorted and tests
//! a candidate against its two neighbours; the reference below is the
//! plain O(n²) scan over every placed region, drawing from the same seeded
//! RNG. Both must make the same draws and the same accept/reject
//! decisions, so on every seeded (window, alignment, sizes) case they
//! place every segment at the same address — and give up on the same
//! segment, with the same "window too crowded" message, when the window
//! is too full.

use cachesim::{RandomPlacement, Region};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The naive placement: every placed region is checked for overlap.
/// `Err` carries what was placed before the segment that found no spot.
fn reference(
    seed: u64,
    window: Region,
    align: u64,
    sizes: &[u64],
) -> Result<Vec<Region>, Vec<Region>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut placed: Vec<Region> = Vec::new();
    for &len in sizes {
        let slots = (window.len - len) / align + 1;
        let spot = (0..10_000).find_map(|_| {
            let base = window.base + rng.random_range(0..slots) * align;
            let candidate = Region::new(base, len);
            (!placed.iter().any(|r| r.overlaps(&candidate))).then_some(candidate)
        });
        match spot {
            Some(region) => placed.push(region),
            None => return Err(placed),
        }
    }
    Ok(placed)
}

/// The library, one `place` per size, stopping at the first panic and
/// returning its message alongside what was placed before it.
fn library(
    seed: u64,
    window: Region,
    align: u64,
    sizes: &[u64],
) -> Result<Vec<Region>, (Vec<Region>, String)> {
    let mut p = RandomPlacement::new(seed, window, align);
    let mut placed = Vec::new();
    for &len in sizes {
        std::panic::set_hook(Box::new(|_| {}));
        let got = catch_unwind(AssertUnwindSafe(|| p.place(len)));
        drop(std::panic::take_hook());
        match got {
            Ok(region) => placed.push(region),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default();
                return Err((placed, msg));
            }
        }
    }
    Ok(placed)
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[test]
fn sorted_neighbour_test_places_like_the_full_scan() {
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let (mut placed_ok, mut crowded) = (0, 0);
    for case in 0..240 {
        let align = 1u64 << (rng.next() % 7);
        let window = Region::new(rng.next() % (1 << 20), align * (8 + rng.next() % 2000));
        let count = 1 + rng.next() % 48;
        // Total demand from a tenth of the window to twice it: roomy
        // cases, tight ones that reject often, and ones that must fail.
        let demand = window.len * [1, 5, 10, 20][case % 4] / 10;
        let sizes: Vec<u64> = (0..count)
            .map(|_| (1 + rng.next() % (2 * demand / count).max(1)).min(window.len))
            .collect();
        let seed = rng.next();
        let want = reference(seed, window, align, &sizes);
        match (library(seed, window, align, &sizes), want) {
            (Ok(got), Ok(want)) => {
                assert_eq!(
                    got, want,
                    "case {case}: {window:?} align {align} sizes {sizes:?}"
                );
                placed_ok += 1;
            }
            (Err((got, msg)), Err(want)) => {
                assert_eq!(got, want, "case {case}: placements before the failure");
                let bytes: u64 = want.iter().map(|r| r.len).sum();
                assert_eq!(
                    msg,
                    format!(
                        "random placement failed: window too crowded ({} segments, {bytes} bytes placed)",
                        want.len()
                    ),
                    "case {case}"
                );
                crowded += 1;
            }
            (got, want) => panic!("case {case}: library {got:?} but reference {want:?}"),
        }
    }
    assert!(placed_ok >= 100, "only {placed_ok} cases placed everything");
    assert!(
        crowded >= 20,
        "only {crowded} cases hit the crowded-window panic"
    );
}
