//! Descriptor ring for inter-core hand-offs: a bounded FIFO of whole [`Desc`]
//! records, reserved at construction and never grown (`tests/alloc.rs`). A
//! column-per-field ring was measured against it: no faster (DESIGN.md §5.6).

use ldlp::SimMessage;
use std::collections::VecDeque;

/// One message in flight between cores and the per-message cost it has
/// accumulated upstream; `msg.arrival_cycles` is its arrival record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Desc {
    pub msg: SimMessage,
    pub flow_id: u32,
    pub wclass: u8,
    pub imiss: u64,
    pub dmiss: u64,
}

/// `(ready cycle, descriptor)` pairs, FIFO, ready times non-decreasing; `push`
/// refuses (never drops) when full. `pushed`/`popped` are the producer/consumer
/// sequence numbers; `pushed % cap` is the slot whose fabric write a push pays.
pub(crate) struct DescRing {
    cap: usize,
    pushed: u64,
    q: VecDeque<(u64, Desc)>,
}

impl DescRing {
    /// An empty ring holding at most `cap > 0` descriptors.
    pub fn new(cap: usize) -> DescRing {
        assert!(cap > 0, "descriptor ring capacity must be positive");
        let q = VecDeque::with_capacity(cap);
        DescRing { cap, pushed: 0, q }
    }

    pub fn len(&self) -> usize {
        self.q.len()
    }

    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    pub fn free(&self) -> usize {
        self.cap - self.q.len()
    }

    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    pub fn popped(&self) -> u64 {
        self.pushed - self.q.len() as u64
    }

    /// The cycle at which the front descriptor becomes visible, if any.
    pub fn next_ready(&self) -> Option<u64> {
        self.q.front().map(|&(ready, _)| ready)
    }

    /// How many descriptors (from the front) are visible at cycle
    /// `now`, and the largest buffer among them: the batch candidates.
    pub fn takeable(&self, now: u64) -> (usize, u64) {
        let visible = self.q.iter().take_while(|&&(ready, _)| ready <= now);
        visible.fold((0, 0), |(n, max), (_, d)| (n + 1, max.max(d.msg.buf.len)))
    }

    /// Parks `d`, visible downstream from cycle `ready`; `false` (and
    /// nothing written) when the ring is full.
    pub fn push(&mut self, ready: u64, d: Desc) -> bool {
        if self.q.len() == self.cap {
            return false;
        }
        let last = self.q.back().map_or(0, |&(r, _)| r);
        debug_assert!(last <= ready, "ready times must not decrease");
        // analyze::allow(alloc-path, reason = "capacity is reserved at construction and the length check above keeps the deque within it: push never reallocates")
        self.q.push_back((ready, d));
        self.pushed += 1;
        true
    }

    /// Pops the front descriptor if it is visible at cycle `now`.
    pub fn pop(&mut self, now: u64) -> Option<Desc> {
        if self.next_ready()? > now {
            return None;
        }
        self.q.pop_front().map(|(_, d)| d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachesim::Region;

    fn desc(id: u64, base: u64, len: u64, corrupted: bool) -> Desc {
        Desc {
            msg: SimMessage {
                id,
                arrival_cycles: 0,
                buf: Region::new(base, len),
                corrupted,
            },
            flow_id: 0,
            wclass: 0,
            imiss: 0,
            dmiss: 0,
        }
    }

    #[test]
    fn fifo_with_ready_times() {
        let mut q = DescRing::new(4);
        assert!(q.is_empty());
        let mut first = desc(1, 0x100, 552, false);
        first.msg.arrival_cycles = 5;
        (first.flow_id, first.wclass, first.imiss, first.dmiss) = (7, 2, 2, 3);
        assert!(q.push(10, first));
        assert!(q.push(10, desc(2, 0x200, 40, true)));
        assert!(q.push(25, desc(3, 0x300, 1500, false)));
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_ready(), Some(10));
        assert_eq!(q.takeable(9), (0, 0));
        assert_eq!(q.takeable(10), (2, 552));
        assert_eq!(q.takeable(30), (3, 1500));
        assert!(q.pop(9).is_none(), "not visible yet");
        let a = q.pop(10).unwrap();
        assert_eq!((a.msg.id, a.flow_id, a.imiss, a.dmiss), (1, 7, 2, 3));
        assert_eq!(a.wclass, 2, "class tag survives the hand-off");
        assert_eq!((a.msg.buf.base, a.msg.buf.len), (0x100, 552));
        assert_eq!(a.msg.arrival_cycles, 5, "arrival rides with the message");
        let b = q.pop(10).unwrap();
        assert!(b.msg.corrupted, "corruption flag survives the hand-off");
        assert!(q.pop(10).is_none(), "third descriptor still in flight");
        assert_eq!(q.pop(25).map(|d| d.msg.id), Some(3));
        assert!(q.pop(25).is_none(), "empty ring pops nothing");
        assert_eq!((q.pushed(), q.popped()), (3, 3));
    }

    #[test]
    fn boundedness_refuses_when_full() {
        let mut q = DescRing::new(2);
        let reserved = q.q.capacity();
        let d = desc(1, 0, 64, false);
        assert!(q.push(1, d));
        assert!(q.push(1, d));
        assert_eq!(q.free(), 0);
        assert!(!q.push(1, d), "full ring must refuse");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pushed(), 2, "refused push must not bump the sequence");
        assert_eq!(q.q.capacity(), reserved, "storage never grows");
    }

    #[test]
    fn slots_wrap_and_sequence_numbers_advance() {
        let mut q = DescRing::new(3);
        for round in 0..10u64 {
            assert!(q.push(round, desc(round, round * 64, 64, false)));
            let d = q.pop(round).unwrap();
            assert_eq!(d.msg.id, round);
            assert_eq!(d.msg.buf.base, round * 64);
        }
        assert_eq!((q.pushed(), q.popped()), (10, 10));
        assert!(q.is_empty());
    }
}
