//! Structure-of-arrays descriptor ring for inter-core hand-offs.
//!
//! Every scheduler pass scans a ring's front for takeable work, and
//! that scan reads only the ready time and the buffer length. With an
//! array-of-structs queue each probed element would drag a full 48-byte
//! descriptor through the L1; [`DescRing`] instead stores each
//! descriptor field in its own fixed-capacity column: headers (message
//! id, buffer base/len, corruption flag), owners (flow id), and
//! timestamps (ready cycle, arrival cycle) live in parallel arrays
//! indexed by ring slot. The hot candidate scan in `SmpSim::run_batch`
//! then touches exactly two columns, and all storage is allocated once
//! at construction — the steady-state run loop stays allocation-free
//! (pinned by `tests/alloc.rs`).

use cachesim::Region;
use ldlp::SimMessage;

/// One popped descriptor, rebuilt from the columns. A transient bundle
/// for the caller's convenience — storage never holds this shape.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Desc {
    pub msg: SimMessage,
    pub arr: u64,
    pub flow_id: u32,
    pub wclass: u8,
    pub imiss: u64,
    pub dmiss: u64,
}

/// Bounded SoA ring of hand-off descriptors with per-item visibility
/// times: FIFO order, non-decreasing ready times, `push` refuses
/// (rather than drops) when full, and `pushed`/`popped` are the
/// producer/consumer descriptor sequence numbers (`pushed % cap` is the
/// ring slot the next push writes, which is what prices the
/// descriptor-window fabric traffic).
#[derive(Debug, Clone)]
pub(crate) struct DescRing {
    cap: usize,
    head: usize,
    len: usize,
    pushed: u64,
    popped: u64,
    // Timestamp columns.
    ready: Box<[u64]>,
    arr: Box<[u64]>,
    // Header columns (the message, decomposed).
    id: Box<[u64]>,
    buf_base: Box<[u64]>,
    buf_len: Box<[u64]>,
    corrupted: Box<[bool]>,
    // Owner + accumulated-cost columns.
    flow: Box<[u32]>,
    wclass: Box<[u8]>,
    imiss: Box<[u64]>,
    dmiss: Box<[u64]>,
}

impl DescRing {
    /// An empty ring holding at most `cap` descriptors. `cap` must be
    /// positive; all columns are allocated here, never after.
    pub fn new(cap: usize) -> DescRing {
        assert!(cap > 0, "descriptor ring capacity must be positive");
        DescRing {
            cap,
            head: 0,
            len: 0,
            pushed: 0,
            popped: 0,
            ready: vec![0; cap].into_boxed_slice(),
            arr: vec![0; cap].into_boxed_slice(),
            id: vec![0; cap].into_boxed_slice(),
            buf_base: vec![0; cap].into_boxed_slice(),
            buf_len: vec![0; cap].into_boxed_slice(),
            corrupted: vec![false; cap].into_boxed_slice(),
            flow: vec![0; cap].into_boxed_slice(),
            wclass: vec![0; cap].into_boxed_slice(),
            imiss: vec![0; cap].into_boxed_slice(),
            dmiss: vec![0; cap].into_boxed_slice(),
        }
    }

    /// Descriptors currently parked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remaining slots before the ring is full.
    pub fn free(&self) -> usize {
        self.cap - self.len
    }

    /// Total descriptors ever pushed (producer sequence number).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Total descriptors ever popped (consumer sequence number).
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Ring slot of logical position `i` (0 = front).
    fn slot(&self, i: usize) -> usize {
        let idx = self.head + i;
        if idx >= self.cap {
            idx - self.cap
        } else {
            idx
        }
    }

    /// The cycle at which the front descriptor becomes visible, if any.
    pub fn next_ready(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        self.ready.get(self.head).copied()
    }

    /// Candidate scan for batch sizing: how many descriptors (from the
    /// front) are visible at cycle `now`, and the largest buffer length
    /// among them. Ready times are non-decreasing, so the scan stops at
    /// the first in-flight descriptor — and touches only the timestamp
    /// and buffer-length columns, which is the point of the layout.
    pub fn takeable(&self, now: u64) -> (usize, u64) {
        let mut n = 0usize;
        let mut max = 0u64;
        while n < self.len {
            let s = self.slot(n);
            let Some(&ready) = self.ready.get(s) else {
                break;
            };
            if ready > now {
                break;
            }
            max = max.max(self.buf_len.get(s).copied().unwrap_or(0));
            n += 1;
        }
        (n, max)
    }

    /// Parks a descriptor, visible downstream from cycle `ready`.
    /// Returns `false` (writing nothing) when the ring is full; callers
    /// size batches by [`DescRing::free`] first.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        ready: u64,
        msg: &SimMessage,
        arr: u64,
        flow_id: u32,
        wclass: u8,
        imiss: u64,
        dmiss: u64,
    ) -> bool {
        if self.len == self.cap {
            return false;
        }
        if self.len > 0 {
            let back = self.slot(self.len - 1);
            debug_assert!(
                self.ready.get(back).is_none_or(|&r| r <= ready),
                "descriptor ready times must be non-decreasing"
            );
        }
        let s = self.slot(self.len);
        if let (
            Some(rdy),
            Some(a),
            Some(id),
            Some(base),
            Some(blen),
            Some(cor),
            Some(fl),
            Some(wc),
            Some(im),
            Some(dm),
        ) = (
            self.ready.get_mut(s),
            self.arr.get_mut(s),
            self.id.get_mut(s),
            self.buf_base.get_mut(s),
            self.buf_len.get_mut(s),
            self.corrupted.get_mut(s),
            self.flow.get_mut(s),
            self.wclass.get_mut(s),
            self.imiss.get_mut(s),
            self.dmiss.get_mut(s),
        ) {
            *rdy = ready;
            *a = arr;
            *id = msg.id;
            *base = msg.buf.base;
            *blen = msg.buf.len;
            *cor = msg.corrupted;
            *fl = flow_id;
            *wc = wclass;
            *im = imiss;
            *dm = dmiss;
        }
        self.len += 1;
        self.pushed += 1;
        true
    }

    /// Pops the front descriptor if it is visible at cycle `now`.
    pub fn pop(&mut self, now: u64) -> Option<Desc> {
        if self.len == 0 {
            return None;
        }
        let s = self.head;
        let ready = self.ready.get(s).copied()?;
        if ready > now {
            return None;
        }
        let arr = self.arr.get(s).copied()?;
        let desc = Desc {
            msg: SimMessage {
                id: self.id.get(s).copied()?,
                arrival_cycles: arr,
                buf: Region::new(self.buf_base.get(s).copied()?, self.buf_len.get(s).copied()?),
                corrupted: self.corrupted.get(s).copied()?,
            },
            arr,
            flow_id: self.flow.get(s).copied()?,
            wclass: self.wclass.get(s).copied()?,
            imiss: self.imiss.get(s).copied()?,
            dmiss: self.dmiss.get(s).copied()?,
        };
        self.head = self.slot(1);
        self.len -= 1;
        self.popped += 1;
        Some(desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(id: u64, base: u64, len: u64, corrupted: bool) -> SimMessage {
        SimMessage {
            id,
            arrival_cycles: 0,
            buf: Region::new(base, len),
            corrupted,
        }
    }

    #[test]
    fn fifo_with_ready_times() {
        let mut q = DescRing::new(4);
        assert!(q.is_empty());
        assert!(q.push(10, &msg(1, 0x100, 552, false), 5, 7, 2, 2, 3));
        assert!(q.push(10, &msg(2, 0x200, 40, true), 6, 8, 0, 0, 0));
        assert!(q.push(25, &msg(3, 0x300, 1500, false), 7, 9, 1, 1, 1));
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_ready(), Some(10));
        assert_eq!(q.takeable(9), (0, 0));
        assert_eq!(q.takeable(10), (2, 552));
        assert_eq!(q.takeable(30), (3, 1500));
        assert!(q.pop(9).is_none(), "not visible yet");
        let a = q.pop(10).unwrap();
        assert_eq!((a.msg.id, a.arr, a.flow_id, a.imiss, a.dmiss), (1, 5, 7, 2, 3));
        assert_eq!(a.wclass, 2, "class tag survives the hand-off");
        assert_eq!((a.msg.buf.base, a.msg.buf.len), (0x100, 552));
        assert_eq!(a.msg.arrival_cycles, 5, "arrival rides the arr column");
        let b = q.pop(10).unwrap();
        assert!(b.msg.corrupted, "corruption flag survives the hand-off");
        assert!(q.pop(10).is_none(), "third descriptor still in flight");
        assert_eq!(q.pop(25).map(|d| d.msg.id), Some(3));
        assert_eq!((q.pushed(), q.popped()), (3, 3));
    }

    #[test]
    fn boundedness_refuses_when_full() {
        let mut q = DescRing::new(2);
        let m = msg(1, 0, 64, false);
        assert!(q.push(1, &m, 1, 0, 0, 0, 0));
        assert!(q.push(1, &m, 1, 0, 0, 0, 0));
        assert_eq!(q.free(), 0);
        assert!(!q.push(1, &m, 1, 0, 0, 0, 0), "full ring must refuse");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pushed(), 2, "refused push must not bump the sequence");
    }

    #[test]
    fn slots_wrap_and_sequence_numbers_advance() {
        let mut q = DescRing::new(3);
        for round in 0..10u64 {
            assert!(q.push(round, &msg(round, round * 64, 64, false), round, 0, 0, 0, 0));
            let d = q.pop(round).unwrap();
            assert_eq!(d.msg.id, round);
            assert_eq!(d.msg.buf.base, round * 64);
        }
        assert_eq!((q.pushed(), q.popped()), (10, 10));
        assert!(q.is_empty());
    }
}
