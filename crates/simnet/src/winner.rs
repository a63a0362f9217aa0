//! An indexed winner tree: "N entities, each with at most one next
//! event".
//!
//! A retrying client has exactly one live event (its next think or its
//! retransmit timer) and an ON/OFF source exactly one next emission, so
//! neither needs a queue of events — only the earliest of N slots, where
//! rescheduling *overwrites* a slot. That is a tournament: leaves hold
//! the entities' times, every inner node the earlier of its two
//! children together with whose it is, and the root is the answer.
//!
//! * [`WinnerTree::set`] replays one leaf-to-root path. Each level loads
//!   only the sibling and picks with [`select_unpredictable`], so the
//!   path is a chain of conditional moves: which child wins is a coin
//!   flip the host's branch predictor loses half the time, and a plain
//!   `if` compiles to exactly that branch.
//! * [`WinnerTree::min`] reads the root.
//!
//! Times are non-negative seconds compared through their IEEE-754 bit
//! patterns, which order as the values do; `f64::INFINITY` is the empty
//! slot. Equal times go to the lower index.

use std::hint::select_unpredictable;

/// Key of an empty slot: later than every finite time.
const NONE: u64 = f64::INFINITY.to_bits();

/// A subtree's earliest time (as ordered bits) and the leaf holding it.
#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    who: u32,
}

/// The earliest of `n` overwritable slots; see the module docs.
#[derive(Debug)]
pub(crate) struct WinnerTree {
    /// Heap-shaped: the root at 1, node `i`'s children at `2i` and
    /// `2i + 1`, slot `i` at `cap + i`; index 0 is unused.
    nodes: Vec<Node>,
    /// Leaf count: `n` rounded up to a power of two. The padding stays
    /// empty, and the left-to-right leaf order is the index order.
    cap: usize,
}

impl WinnerTree {
    /// `n` empty slots.
    pub(crate) fn new(n: usize) -> Self {
        let cap = n.max(1).next_power_of_two();
        WinnerTree {
            nodes: vec![Node { key: NONE, who: 0 }; 2 * cap],
            cap,
        }
    }

    /// Overwrites slot `i`'s time; `f64::INFINITY` empties it.
    pub(crate) fn set(&mut self, i: usize, time_s: f64) {
        debug_assert!(i < self.cap && time_s >= 0.0, "slot {i} at {time_s} s");
        // `+ 0.0` folds -0.0, whose bits would order last, into +0.0.
        let mut win = Node {
            key: (time_s + 0.0).to_bits(),
            who: i as u32,
        };
        let mut at = self.cap + i;
        if let Some(leaf) = self.nodes.get_mut(at) {
            *leaf = win;
        }
        while at > 1 {
            let Some(&sib) = self.nodes.get(at ^ 1) else {
                return;
            };
            // The sibling wins when strictly earlier, or — if it is the
            // left child (`at` odd) — also on a tie. `NONE + 1` cannot
            // overflow.
            let take = sib.key < win.key + (at & 1) as u64;
            win = Node {
                key: select_unpredictable(take, sib.key, win.key),
                who: select_unpredictable(take, sib.who, win.who),
            };
            at >>= 1;
            if let Some(parent) = self.nodes.get_mut(at) {
                *parent = win;
            }
        }
    }

    /// The earliest occupied slot and its time, ties to the lower
    /// index; `None` when every slot is empty.
    pub(crate) fn min(&self) -> Option<(f64, usize)> {
        let root = self.nodes.get(1)?;
        (root.key != NONE).then(|| (f64::from_bits(root.key), root.who as usize))
    }

    /// Slot `i`'s time, `f64::INFINITY` when empty.
    #[cfg(test)]
    pub(crate) fn time(&self, i: usize) -> f64 {
        f64::from_bits(self.nodes[self.cap + i].key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition: the minimum over `(time, index)` of the occupied
    /// slots.
    fn scan(times: &[f64]) -> Option<(f64, usize)> {
        times
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, t)| t != f64::INFINITY)
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .map(|(i, t)| (t, i))
    }

    #[test]
    fn empty_trees_have_no_minimum() {
        for n in [0, 1, 2, 3, 64, 1000] {
            assert_eq!(WinnerTree::new(n).min(), None);
        }
    }

    #[test]
    fn ties_go_to_the_lower_index_at_every_level() {
        // Fill right to left, so every inner node has to prefer a
        // left child that arrived after its right sibling.
        let mut t = WinnerTree::new(13);
        for i in (0..13).rev() {
            t.set(i, 2.5);
            assert_eq!(t.min(), Some((2.5, i)));
        }
        t.set(0, f64::INFINITY);
        assert_eq!(t.min(), Some((2.5, 1)));
        t.set(7, 0.0);
        assert_eq!(t.min(), Some((0.0, 7)));
    }

    #[test]
    fn negative_zero_is_zero() {
        let mut t = WinnerTree::new(2);
        t.set(1, 1e-300);
        t.set(0, -0.0);
        assert_eq!(t.min(), Some((0.0, 0)));
    }

    proptest! {
        #[test]
        fn tree_matches_a_linear_scan(
            size in 0usize..6,
            ops in proptest::collection::vec((0usize..1000, 0u32..8, 0.0f64..4.0), 1..400),
        ) {
            // Non-powers of two on purpose; few distinct times, so most
            // sets tie with something; ∞ both clears and re-clears.
            let n = [1, 2, 3, 64, 600, 1000][size];
            let mut tree = WinnerTree::new(n);
            let mut times = vec![f64::INFINITY; n];
            for (slot, kind, t) in ops {
                let i = slot % n;
                let t = match kind {
                    0 | 1 => f64::INFINITY,
                    2..=5 => f64::from(kind),
                    _ => t,
                };
                tree.set(i, t);
                times[i] = t;
                prop_assert_eq!(tree.min(), scan(&times));
                prop_assert_eq!(tree.time(i).to_bits(), t.to_bits());
            }
        }
    }
}
