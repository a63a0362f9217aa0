//! Protocol layers as locality objects.
//!
//! For the scheduling study a layer is characterized entirely by what it
//! does to the memory system: the code it executes, the per-layer data it
//! consults, the instruction cycles it burns, and whether it loops over
//! the message contents. [`SyntheticLayer`] is the paper's Section 4
//! layer; anything else (e.g. layers derived from the `netstack`
//! footprints) can implement [`SimLayer`] too.

use cachesim::{round_to_cycles, Region};

/// A message travelling up the stack: identity, arrival time, and the
/// address region its contents occupy (so data-cache behaviour follows
/// from real addresses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimMessage {
    /// Monotonic message id.
    pub id: u64,
    /// Arrival time in machine cycles (set by the traffic source; 0 in
    /// standalone engine use).
    pub arrival_cycles: u64,
    /// Where the message contents live.
    pub buf: Region,
    /// The payload was damaged on the wire. The engine still spends
    /// cycles on it up to the verification layer, where the checksum
    /// fails and the message is discarded instead of completed.
    pub corrupted: bool,
}

impl SimMessage {
    /// Message length in bytes.
    pub fn len(&self) -> u64 {
        self.buf.len
    }

    /// Whether the message is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.len == 0
    }
}

/// A protocol layer described by its memory-system behaviour.
pub trait SimLayer {
    /// Layer name, for reports.
    fn name(&self) -> &str;

    /// I-cache lines (line numbers, i.e. `addr / line_size`) executed for
    /// every message. The engine fetches each once per (layer, message)
    /// application — the paper's "every instruction in the working set is
    /// executed at least once".
    fn code_lines(&self) -> &[u64];

    /// Per-layer working data (PCBs, tables): read on every application.
    fn data_region(&self) -> Region;

    /// Instruction cycles excluding the data loop.
    fn base_instr_cycles(&self) -> u64;

    /// Data-loop cost in cycles per message byte (0.5 in the paper).
    fn loop_cycles_per_byte(&self) -> f64;

    /// Whether this layer's data loop touches the message contents.
    fn touches_message(&self) -> bool {
        true
    }

    /// Total instruction cycles to process a message of `len` bytes.
    fn instr_cycles(&self, len: u64) -> u64 {
        self.base_instr_cycles() + round_to_cycles(self.loop_cycles_per_byte() * len as f64)
    }
}

/// The synthetic layer of Section 4: `code_bytes` of straight-line code,
/// `data_bytes` of layer data, a 40-instruction data loop at 0.5
/// cycles/byte, and 1652 total cycles for a 552-byte message.
#[derive(Debug, Clone)]
pub struct SyntheticLayer {
    name: String,
    code: Region,
    data: Region,
    code_lines: Vec<u64>,
    base_cycles: u64,
    loop_cpb: f64,
}

/// Paper constants for the synthetic benchmark layer.
pub mod paper {
    /// Code bytes per layer.
    pub const CODE_BYTES: u64 = 6 * 1024;
    /// Per-layer data bytes.
    pub const DATA_BYTES: u64 = 256;
    /// Total instruction cycles per layer for a 552-byte message.
    pub const TOTAL_CYCLES_552: u64 = 1652;
    /// Data-loop cycles per byte.
    pub const LOOP_CPB: f64 = 0.5;
    /// The message size the constants were quoted for.
    pub const MESSAGE_BYTES: u64 = 552;
    /// Base cycles excluding the data loop (1652 - 0.5 * 552).
    pub const BASE_CYCLES: u64 = TOTAL_CYCLES_552 - (LOOP_CPB * MESSAGE_BYTES as f64) as u64;
    /// Cost of enqueueing + dequeueing a message at a layer boundary
    /// ("on the order of 40 instructions", Section 3.2).
    pub const QUEUE_INSTR: u64 = 40;
}

impl SyntheticLayer {
    /// Builds a layer whose code and data live at the given regions.
    /// `line_size` fixes the I-cache line granularity of the footprint.
    pub fn new(name: &str, code: Region, data: Region, line_size: u64) -> Self {
        SyntheticLayer {
            name: name.to_string(),
            code_lines: code.line_numbers(line_size).collect(),
            code,
            data,
            base_cycles: paper::BASE_CYCLES,
            loop_cpb: paper::LOOP_CPB,
        }
    }

    /// Overrides the instruction-cost model.
    pub fn with_cycles(mut self, base_cycles: u64, loop_cpb: f64) -> Self {
        self.base_cycles = base_cycles;
        self.loop_cpb = loop_cpb;
        self
    }

    /// The code region (for layout experiments).
    pub fn code_region(&self) -> Region {
        self.code
    }
}

impl SimLayer for SyntheticLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn code_lines(&self) -> &[u64] {
        &self.code_lines
    }

    fn data_region(&self) -> Region {
        self.data
    }

    fn base_instr_cycles(&self) -> u64 {
        self.base_cycles
    }

    fn loop_cycles_per_byte(&self) -> f64 {
        self.loop_cpb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_are_consistent() {
        // 1652 total = base + 0.5 * 552.
        assert_eq!(paper::BASE_CYCLES, 1376);
        let l = SyntheticLayer::new(
            "L1",
            Region::new(0, paper::CODE_BYTES),
            Region::new(0x10_0000, paper::DATA_BYTES),
            32,
        );
        assert_eq!(l.instr_cycles(paper::MESSAGE_BYTES), paper::TOTAL_CYCLES_552);
        assert_eq!(l.code_lines().len() as u64, paper::CODE_BYTES / 32);
    }

    #[test]
    fn code_lines_cover_region() {
        let l = SyntheticLayer::new("L", Region::new(64, 100), Region::new(0x1000, 64), 32);
        // Bytes 64..164 span lines 2..=5.
        assert_eq!(l.code_lines(), &[2, 3, 4, 5]);
    }

    #[test]
    fn message_accessors() {
        let m = SimMessage {
            id: 3,
            arrival_cycles: 100,
            buf: Region::new(0x2000, 552),
            corrupted: false,
        };
        assert_eq!(m.len(), 552);
        assert!(!m.is_empty());
    }
}
