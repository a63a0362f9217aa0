//! Construction of the paper's synthetic benchmark stack (Section 4).
//!
//! Five layers, each with 6 KB of code and 256 B of data, placed at
//! seeded-random line-aligned addresses ("average results are presented
//! from 100 runs, each with a different random placement in memory"), plus
//! a pool of message buffers whose addresses determine D-cache behaviour.

use crate::layer::{paper, SimLayer, SimMessage, SyntheticLayer};
use cachesim::{Machine, MachineConfig, Region};

/// Address window the code segments are scattered over. Large relative to
/// the segments so random placements rarely collide, small enough that
/// cache index bits vary across the window.
const CODE_WINDOW: Region = Region::new(0x0010_0000, 4 << 20);
/// Address window for per-layer data.
const DATA_WINDOW: Region = Region::new(0x0800_0000, 1 << 20);
/// Where message buffers live.
const MBUF_WINDOW_BASE: u64 = 0x1000_0000;

/// Builds the paper's machine + five-layer synthetic stack for one random
/// placement. The same `seed` always produces the same layout.
pub fn paper_stack(cfg: MachineConfig, seed: u64) -> (Machine, Vec<Box<dyn SimLayer>>) {
    stack_with(cfg, seed, 5, paper::CODE_BYTES, paper::DATA_BYTES)
}

/// Builds a stack with arbitrary layer count and footprints (used by the
/// CISC ablation, which scales code size by the machine's density factor,
/// and by the dilution ablation).
pub fn stack_with(
    cfg: MachineConfig,
    seed: u64,
    layers: usize,
    code_bytes: u64,
    data_bytes: u64,
) -> (Machine, Vec<Box<dyn SimLayer>>) {
    let line = cfg.icache.line_size;
    let scaled_code = ((code_bytes as f64 * cfg.code_density) as u64).max(line);
    let mut code_place = cachesim::RandomPlacement::new(seed, CODE_WINDOW, line);
    let mut data_place = cachesim::RandomPlacement::new(seed ^ 0xdada, DATA_WINDOW, line);
    let stack: Vec<Box<dyn SimLayer>> = (0..layers)
        .map(|i| {
            let code = code_place.place(scaled_code);
            let data = data_place.place(data_bytes.max(line));
            Box::new(SyntheticLayer::new(&format!("L{}", i + 1), code, data, line))
                as Box<dyn SimLayer>
        })
        .collect();
    (Machine::new(cfg), stack)
}

/// Builds a stack with *sequential* (link-order) placement: layers packed
/// back to back, the conflict-free layout a tool like Cord produces.
/// Use this to isolate capacity effects from layout effects — a stack
/// placed this way has no self-conflicts whenever it fits the cache.
pub fn stack_sequential(
    cfg: MachineConfig,
    layers: usize,
    code_bytes: u64,
    data_bytes: u64,
) -> (Machine, Vec<Box<dyn SimLayer>>) {
    let line = cfg.icache.line_size;
    let scaled_code = ((code_bytes as f64 * cfg.code_density) as u64).max(line);
    let mut alloc = cachesim::AddressAllocator::new(CODE_WINDOW.base, line);
    let mut data_alloc = cachesim::AddressAllocator::new(DATA_WINDOW.base, line);
    let stack: Vec<Box<dyn SimLayer>> = (0..layers)
        .map(|i| {
            let code = alloc.alloc(scaled_code);
            let data = data_alloc.alloc(data_bytes.max(line));
            Box::new(SyntheticLayer::new(&format!("L{}", i + 1), code, data, line))
                as Box<dyn SimLayer>
        })
        .collect();
    (Machine::new(cfg), stack)
}

/// A pool of message buffers at fixed addresses, reused round-robin the
/// way a driver's receive ring reuses mbuf clusters.
#[derive(Debug)]
pub struct MessagePool {
    bufs: Vec<Region>,
    next: usize,
}

impl MessagePool {
    /// `count` buffers of `buf_bytes` each. Buffers are spread across the
    /// mbuf window with a seeded random offset so different runs see
    /// different cache colourings. `count` must be at least 1: a pool
    /// of no buffers forms only empty batches, and an event loop
    /// batching from it never advances its clock.
    pub fn new(count: usize, buf_bytes: u64, seed: u64) -> Self {
        assert!(count >= 1, "pool_bufs must be at least 1: a pool of no buffers batches nothing");
        let window = Region::new(MBUF_WINDOW_BASE, 8 << 20);
        let mut place = cachesim::RandomPlacement::new(seed ^ 0xb0f, window, 64);
        let bufs = (0..count).map(|_| place.place(buf_bytes)).collect();
        MessagePool { bufs, next: 0 }
    }

    /// Number of buffers in the pool.
    pub fn capacity(&self) -> usize {
        self.bufs.len()
    }

    /// Builds a message of `len` bytes in the next ring buffer.
    pub fn make_message(&mut self, id: u64, len: u64) -> SimMessage {
        let buf = self.bufs[self.next];
        assert!(len <= buf.len, "message larger than pool buffers");
        self.next += 1;
        if self.next == self.bufs.len() {
            self.next = 0;
        }
        SimMessage {
            id,
            arrival_cycles: 0,
            buf: Region::new(buf.base, len),
            corrupted: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_stack_shape() {
        let (m, layers) = paper_stack(MachineConfig::synthetic_benchmark(), 3);
        assert_eq!(layers.len(), 5);
        for l in &layers {
            assert_eq!(l.code_lines().len(), 192, "6 KB / 32 B = 192 lines");
            assert_eq!(l.data_region().len, 256);
            assert_eq!(l.instr_cycles(552), 1652);
        }
        assert_eq!(m.config().read_miss_penalty, 20);
    }

    #[test]
    fn placements_differ_across_seeds_but_not_within() {
        let (_, a) = paper_stack(MachineConfig::synthetic_benchmark(), 1);
        let (_, b) = paper_stack(MachineConfig::synthetic_benchmark(), 1);
        let (_, c) = paper_stack(MachineConfig::synthetic_benchmark(), 2);
        assert_eq!(a[0].code_lines(), b[0].code_lines());
        assert_ne!(a[0].code_lines(), c[0].code_lines());
    }

    #[test]
    fn cisc_density_shrinks_code() {
        let (_, layers) = paper_stack(MachineConfig::i386_like(), 1);
        let lines = layers[0].code_lines().len();
        assert!(
            lines < 192 * 6 / 10,
            "i386-like code should be under 60% of Alpha size, got {lines} lines"
        );
    }

    #[test]
    fn pool_round_robins() {
        let mut p = MessagePool::new(3, 1536, 9);
        let a = p.make_message(0, 552);
        let b = p.make_message(1, 552);
        let _ = p.make_message(2, 552);
        let d = p.make_message(3, 552);
        assert_ne!(a.buf.base, b.buf.base);
        assert_eq!(a.buf.base, d.buf.base, "ring reuses buffer 0");
        assert_eq!(a.len(), 552);
    }

    #[test]
    #[should_panic(expected = "message larger")]
    fn pool_rejects_oversized_messages() {
        let mut p = MessagePool::new(2, 600, 9);
        p.make_message(0, 601);
    }
}
