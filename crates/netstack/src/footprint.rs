//! The measured working-set footprint of the TCP receive-and-acknowledge
//! path (paper Section 2, Figure 1, Tables 1–3).
//!
//! We cannot trace our own instruction fetches from portable Rust, so this
//! module carries the paper's measurements as data: every function of
//! Figure 1 with its full size and layer, and a per-layer touched-line
//! budget calibrated so that the regenerated Table 1 matches the published
//! numbers exactly at 32-byte lines. The *sub-line* structure (which bytes
//! within a touched line execute) is modelled with deterministic basic-
//! block patterns whose parameters are fitted to the paper's Table 3
//! (line-size sensitivity) and Section 5.4 (~25% cache dilution).
//!
//! [`build_receive_ack_trace`] replays the three phases of Table 2 —
//! process entry and block, device interrupt, process exit with ACK — as a
//! `memtrace::Trace` that the analysis crates turn back into the paper's
//! tables and figures.

use cachesim::Region;
use memtrace::trace::{RefKind, Trace};

/// The classification layers of Table 1, in row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum Layer {
    Device = 0,
    Ethernet,
    Ip,
    Tcp,
    SocketLow,
    SocketHigh,
    KernelEntry,
    ProcessControl,
    BufferMgmt,
    CopyChecksum,
}

impl Layer {
    /// Table 1 row labels.
    pub const NAMES: [&'static str; 10] = [
        "Device",
        "Ethernet",
        "IP",
        "TCP",
        "Socket low",
        "Socket high",
        "Kernel entry/exit",
        "Process control",
        "Buffer mgmt",
        "Copy, checksum",
    ];

    /// All layers in row order.
    pub const ALL: [Layer; 10] = [
        Layer::Device,
        Layer::Ethernet,
        Layer::Ip,
        Layer::Tcp,
        Layer::SocketLow,
        Layer::SocketHigh,
        Layer::KernelEntry,
        Layer::ProcessControl,
        Layer::BufferMgmt,
        Layer::CopyChecksum,
    ];
}

/// The three phases of Table 2, in chronological order.
pub const PHASES: [&str; 3] = ["entry", "pkt intr", "exit"];

/// One function of Figure 1.
#[derive(Debug, Clone, Copy)]
pub struct FnSpec {
    /// Symbol name as printed in Figure 1.
    pub name: &'static str,
    /// Full size in bytes (the number printed beside the name).
    pub size: u64,
    /// Table 1 layer.
    pub layer: Layer,
    /// 32-byte lines of this function executed in each phase
    /// (entry, interrupt, exit). Coverage is a prefix of the function, so
    /// the union across phases is the maximum entry.
    pub phase_lines: [u64; 3],
    /// Re-execution weight for the interrupt/exit data loops (checksum,
    /// copy routines): extra code references emitted to model loops
    /// iterating over the 552-byte message.
    pub loop_weight: u32,
}

impl FnSpec {
    /// Total touched 32-byte lines (union across phases).
    pub fn touched_lines(&self) -> u64 {
        *self.phase_lines.iter().max().expect("3 phases")
    }
}

const fn f(
    name: &'static str,
    size: u64,
    layer: Layer,
    phase_lines: [u64; 3],
    loop_weight: u32,
) -> FnSpec {
    FnSpec {
        name,
        size,
        layer,
        phase_lines,
        loop_weight,
    }
}

/// Every function of Figure 1: name, full byte size (as printed in the
/// figure), layer, and per-phase touched-line budgets calibrated to
/// Table 1's per-layer code totals.
pub const FUNCTIONS: &[FnSpec] = &[
    // Device driver (Lance Ethernet + TURBOchannel glue): 140 lines.
    f("leintr", 3264, Layer::Device, [0, 70, 0], 0),
    f("lestart", 1824, Layer::Device, [0, 0, 38], 0),
    f("lewritereg", 216, Layer::Device, [0, 4, 4], 0),
    f("asic_intr", 392, Layer::Device, [0, 8, 0], 0),
    f("tc_3000_500_iointr", 848, Layer::Device, [0, 20, 0], 0),
    // Ethernet layer: 87 lines.
    f("ether_input", 2728, Layer::Ethernet, [0, 40, 0], 0),
    f("ether_output", 3632, Layer::Ethernet, [0, 0, 30], 0),
    f("arpresolve", 944, Layer::Ethernet, [0, 0, 12], 0),
    f("in_broadcast", 288, Layer::Ethernet, [0, 5, 0], 0),
    // IP layer: 99 lines.
    f("ipintr", 2648, Layer::Ip, [0, 39, 0], 0),
    f("ip_output", 5120, Layer::Ip, [0, 0, 60], 0),
    // TCP layer: 173 lines.
    f("tcp_input", 11872, Layer::Tcp, [0, 85, 0], 4),
    f("tcp_output", 4872, Layer::Tcp, [0, 0, 60], 0),
    f("tcp_usrreq", 2352, Layer::Tcp, [0, 0, 28], 0),
    // Socket low (buffer side): 19 lines.
    f("sbappend", 160, Layer::SocketLow, [0, 5, 0], 0),
    f("sbcompress", 704, Layer::SocketLow, [0, 6, 0], 0),
    f("sowakeup", 360, Layer::SocketLow, [0, 5, 0], 0),
    f("sbwait", 160, Layer::SocketLow, [3, 0, 0], 0),
    // Socket high (system-call side): 37 lines.
    f("soreceive", 5536, Layer::SocketHigh, [8, 0, 28], 0),
    f("soo_read", 80, Layer::SocketHigh, [2, 0, 2], 0),
    f("selwakeup", 456, Layer::SocketHigh, [0, 7, 7], 0),
    // Kernel entry/exit: 69 lines.
    f("syscall", 1176, Layer::KernelEntry, [16, 0, 34], 0),
    f("XentSys", 148, Layer::KernelEntry, [4, 0, 4], 0),
    f("XentInt", 208, Layer::KernelEntry, [0, 6, 0], 0),
    f("rei", 320, Layer::KernelEntry, [0, 5, 10], 0),
    f("pal_swpipl", 8, Layer::KernelEntry, [1, 1, 1], 0),
    f("interrupt", 184, Layer::KernelEntry, [0, 5, 0], 0),
    f("spl0", 136, Layer::KernelEntry, [4, 2, 4], 0),
    f("microtime", 288, Layer::KernelEntry, [5, 3, 5], 0),
    // Process control: 171 lines.
    f("trap", 2008, Layer::ProcessControl, [0, 0, 62], 0),
    f("tsleep", 1096, Layer::ProcessControl, [16, 0, 34], 0),
    f("wakeup", 488, Layer::ProcessControl, [0, 15, 0], 0),
    f("mi_switch", 520, Layer::ProcessControl, [16, 0, 16], 0),
    f("cpu_switch", 460, Layer::ProcessControl, [13, 0, 13], 0),
    f("setrunqueue", 176, Layer::ProcessControl, [0, 5, 5], 0),
    f("idle", 68, Layer::ProcessControl, [2, 0, 2], 0),
    f("netintr", 344, Layer::ProcessControl, [0, 10, 0], 0),
    f("do_sir", 200, Layer::ProcessControl, [0, 6, 0], 0),
    f("read", 312, Layer::ProcessControl, [8, 0, 8], 0),
    // Buffer management: 51 lines.
    f("malloc", 1608, Layer::BufferMgmt, [0, 20, 28], 0),
    f("free", 856, Layer::BufferMgmt, [0, 10, 16], 0),
    f("m_adj", 376, Layer::BufferMgmt, [0, 7, 0], 0),
    // Copy and checksum: 101 lines.
    f("in_cksum", 1104, Layer::CopyChecksum, [0, 31, 31], 10),
    f("bcopy", 620, Layer::CopyChecksum, [0, 8, 19], 8),
    f("copyout", 132, Layer::CopyChecksum, [0, 0, 4], 4),
    f("uiomove", 424, Layer::CopyChecksum, [0, 0, 12], 0),
    f("bzero", 184, Layer::CopyChecksum, [0, 0, 4], 2),
    f("ntohl", 64, Layer::CopyChecksum, [0, 2, 2], 0),
    f("ntohs", 32, Layer::CopyChecksum, [0, 1, 1], 0),
    f("copyfrombuf_gap2", 240, Layer::CopyChecksum, [0, 7, 0], 6),
    f("copyfrombuf_gap16", 208, Layer::CopyChecksum, [0, 5, 0], 0),
    f("copytobuf_gap2", 256, Layer::CopyChecksum, [0, 0, 6], 2),
    f("copytobuf_gap16", 208, Layer::CopyChecksum, [0, 0, 5], 0),
    f("zerobuf_gap16", 184, Layer::CopyChecksum, [0, 0, 5], 0),
];

/// Read-only data lines per layer at 32 bytes (Table 1's RO column / 32).
pub const RO_LINES: [u64; 10] = [27, 15, 14, 17, 1, 8, 40, 17, 6, 14];
/// Mutable data lines per layer at 32 bytes (Table 1's mutable column / 32).
pub const MUT_LINES: [u64; 10] = [21, 4, 5, 14, 5, 2, 20, 23, 16, 4];

/// Which phase first touches each layer's data (the paper's first-access
/// attribution rule): socket-high, kernel and process data are first
/// touched during entry; everything else during the interrupt.
const DATA_FIRST_PHASE: [u8; 10] = [1, 1, 1, 1, 1, 0, 0, 0, 1, 1];

/// Message size used throughout the trace (552 bytes, "a common packet
/// size in IP internetworks").
pub const MESSAGE_SIZE: u64 = 552;

// Model parameters fitted to Table 3 and Section 5.4 (see module docs).
/// Probability a touched code line is fully executed (the rest have a
/// partial head or tail run). Together with the partial-run length
/// distribution below this fits both the ~25% dilution of Section 5.4 and
/// Table 3's 16-byte row for code (executed bytes average 24/line; 73% of
/// lines have bytes in both 16-byte halves).
const CODE_FULL_LINE_NUM: u64 = 55;
/// Probability (in percent) of skipping a line inside a function's
/// coverage, breaking 64-byte adjacency. Fits Table 3's 64-byte code row.
const CODE_SKIP_NUM: u64 = 18;
/// Percent of RO lines carrying a word in both 16-byte halves.
const RO_SECOND_HALF_NUM: u64 = 38;
/// Percent of RO lines placed adjacent to the previous one.
const RO_ADJACENT_NUM: u64 = 56;
/// Percent of RO words straddling an 8-byte boundary (fits Table 3's
/// 8-byte row: +81% lines vs +38% at 16 bytes).
const RO_SPLIT8_NUM: u64 = 31;
/// Percent of mutable lines carrying data in both 16-byte halves.
const MUT_SECOND_HALF_NUM: u64 = 23;
/// Percent of mutable lines placed adjacent to the previous one.
const MUT_ADJACENT_NUM: u64 = 44;
/// Percent of mutable words straddling an 8-byte boundary.
const MUT_SPLIT8_NUM: u64 = 42;

/// A tiny deterministic LCG so the footprint model needs no RNG crate.
#[derive(Clone, Copy)]
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform draw in `0..100`.
    fn pct(&mut self) -> u64 {
        self.next() % 100
    }

    fn pick(&mut self, choices: &[u64]) -> u64 {
        choices[(self.next() % choices.len() as u64) as usize]
    }
}

/// Layout of the trace's address space (all regions disjoint).
#[derive(Debug, Clone)]
pub struct TraceLayout {
    /// Base address of each function's code, in `FUNCTIONS` order.
    pub code: Vec<Region>,
    /// Per-layer read-only data regions.
    pub ro: Vec<Region>,
    /// Per-layer mutable data regions.
    pub mutable: Vec<Region>,
    /// Device receive buffer (excluded from Table 1).
    pub device_buf: Region,
    /// Mbuf data area holding the message (excluded).
    pub mbuf_data: Region,
    /// User buffer the payload is copied into (excluded).
    pub user_buf: Region,
    /// Kernel stack (excluded).
    pub stack: Region,
}

/// Builds the sequential (link-order) layout the measurements used.
pub fn default_layout() -> TraceLayout {
    let mut alloc = cachesim::AddressAllocator::new(0x1000, 32);
    let code = FUNCTIONS
        .iter()
        .map(|spec| alloc.alloc(spec.size))
        .collect();
    // Generous per-layer data windows: patterns place lines sparsely.
    let ro = (0..10).map(|i| alloc.alloc(RO_LINES[i] * 32 * 8)).collect();
    let mutable = (0..10)
        .map(|i| alloc.alloc(MUT_LINES[i] * 32 * 8))
        .collect();
    let device_buf = alloc.alloc(1536);
    let mbuf_data = alloc.alloc(1536);
    let user_buf = alloc.alloc(1536);
    let stack = alloc.alloc(8192);
    TraceLayout {
        code,
        ro,
        mutable,
        device_buf,
        mbuf_data,
        user_buf,
        stack,
    }
}

/// Pre-computed code coverage for one function: which lines are touched
/// and the byte run inside each.
struct CodeCoverage {
    /// `(line_index, offset_in_line, len)` for every touched line, in
    /// ascending line order.
    runs: Vec<(u64, u64, u64)>,
}

/// Generates the sub-line execution pattern for a function: `lines`
/// touched lines, mostly consecutive from the function start, each either
/// fully executed or covered by a partial head/tail run.
fn code_coverage(spec: &FnSpec, seed: u64) -> CodeCoverage {
    let lines = spec.touched_lines();
    let max_lines = spec.size.div_ceil(32);
    let mut rng = Lcg::new(seed);
    let mut runs = Vec::with_capacity(lines as usize);
    let mut cursor = 0u64;
    for placed in 0..lines {
        let remaining = lines - placed;
        // Skip a line sometimes, if the function is big enough to allow it.
        if rng.pct() < CODE_SKIP_NUM && cursor + remaining < max_lines {
            cursor += 1;
        }
        let last_line_len = if cursor == max_lines - 1 && !spec.size.is_multiple_of(32) {
            spec.size % 32
        } else {
            32
        };
        if rng.pct() < CODE_FULL_LINE_NUM || last_line_len < 32 {
            runs.push((cursor, 0, last_line_len));
        } else {
            // Partial-run lengths: bimodal so that some partial lines
            // still span both 16-byte halves (keeps Table 3's 16-byte
            // line ratio) while the mean executed bytes per line is ~24
            // (the ~25% dilution of Section 5.4).
            let p = rng.pct();
            let k = if p < 35 {
                8
            } else if p < 60 {
                12
            } else if p < 85 {
                20
            } else {
                24
            };
            if rng.pct() < 50 {
                runs.push((cursor, 0, k)); // head run
            } else {
                runs.push((cursor, 32 - k, k)); // tail run
            }
        }
        cursor += 1;
    }
    CodeCoverage { runs }
}

/// Line placements for a data pattern: `(line_index, words)` where each
/// word is `(offset_in_line, len)`.
fn data_pattern(
    lines: u64,
    seed: u64,
    adjacent_pct: u64,
    second_half_pct: u64,
    split8_pct: u64,
) -> Vec<(u64, Vec<(u64, u64)>)> {
    let mut rng = Lcg::new(seed);
    let mut out = Vec::with_capacity(lines as usize);
    let mut cursor = 0u64;
    // A word stays within its 16-byte half; with probability `split8_pct`
    // it sits at offset 4 within the half and straddles the half's
    // internal 8-byte boundary (a 4-byte-aligned struct field).
    let word = |rng: &mut Lcg, half_base: u64| -> (u64, u64) {
        if rng.pct() < split8_pct {
            (half_base + 4, 8)
        } else {
            (half_base + rng.pick(&[0, 8]), 8)
        }
    };
    for i in 0..lines {
        if i > 0 {
            if rng.pct() < adjacent_pct {
                cursor += 1;
            } else {
                cursor += 2 + rng.next() % 4;
            }
        }
        let mut words = vec![word(&mut rng, 0)];
        if rng.pct() < second_half_pct {
            words.push(word(&mut rng, 16));
        }
        out.push((cursor, words));
    }
    out
}

/// Replays the TCP receive-and-acknowledge path as a memory-reference
/// trace, using `layout` for addresses. The resulting trace reproduces
/// Table 1 exactly at 32-byte lines and Tables 2/3 and Figure 1
/// approximately (see EXPERIMENTS.md).
pub fn build_trace(layout: &TraceLayout) -> Trace {
    let mut trace = Trace::new(
        Layer::NAMES.iter().map(|s| s.to_string()).collect(),
        PHASES.iter().map(|s| s.to_string()).collect(),
    );
    trace.excluded = vec![
        layout.device_buf,
        layout.mbuf_data,
        layout.user_buf,
        layout.stack,
    ];

    let fn_ids: Vec<u32> = FUNCTIONS
        .iter()
        .enumerate()
        .map(|(i, spec)| trace.add_function(spec.name, layout.code[i], spec.layer as u16))
        .collect();

    // Representative function per layer, used to attribute data refs.
    let layer_rep: Vec<u32> = Layer::ALL
        .iter()
        .map(|layer| {
            FUNCTIONS
                .iter()
                .position(|s| s.layer == *layer)
                .expect("every layer has functions") as u32
        })
        .collect();

    // Pre-compute code coverage per function (stable across phases so the
    // union equals the per-function budget).
    let coverage: Vec<CodeCoverage> = FUNCTIONS
        .iter()
        .enumerate()
        .map(|(i, spec)| code_coverage(spec, i as u64 + 1))
        .collect();

    let mut stack_cursor = layout.stack.base;

    for (phase, _name) in PHASES.iter().enumerate() {
        let phase = phase as u8;
        // --- Code references, function by function in call-ish order ---
        for (i, spec) in FUNCTIONS.iter().enumerate() {
            let budget = spec.phase_lines[phase as usize];
            if budget == 0 {
                continue;
            }
            let base = layout.code[i].base;
            // Instruction fetches at 4-byte (one-instruction) granularity,
            // as the in-kernel simulator recorded them.
            for &(line, off, len) in coverage[i].runs.iter().take(budget as usize) {
                let start = base + line * 32 + off;
                let mut at = start;
                while at < start + len {
                    let step = 4.min(start + len - at);
                    trace.record(at, step as u32, RefKind::Code, phase, fn_ids[i]);
                    at += step;
                }
            }
            // Loop bodies re-execute over the data they traverse: the
            // whole 552-byte message in the interrupt phase; on exit, the
            // copy-to-user routines traverse the message again while the
            // ACK-building routines only touch the 58-byte ACK.
            if spec.loop_weight > 0 && phase != 0 {
                let loop_bytes = if phase == 1 || matches!(spec.name, "bcopy" | "copyout" | "uiomove")
                {
                    MESSAGE_SIZE
                } else {
                    58
                };
                let iters = spec.loop_weight as u64 * (loop_bytes / 32).max(1);
                let inner = &coverage[i].runs[..coverage[i].runs.len().min(2)];
                for it in 0..iters {
                    let &(line, off, len) = &inner[(it % inner.len() as u64) as usize];
                    let start = base + line * 32 + off;
                    let mut at = start;
                    while at < start + len {
                        let step = 4.min(start + len - at);
                        trace.record(at, step as u32, RefKind::Code, phase, fn_ids[i]);
                        at += step;
                    }
                }
            }
            // Stack traffic for the call frame (excluded from Table 1).
            let frame = 96u64;
            if stack_cursor + frame > layout.stack.end() {
                stack_cursor = layout.stack.base;
            }
            trace.record(stack_cursor, frame as u32, RefKind::Write, phase, fn_ids[i]);
            trace.record(stack_cursor, frame as u32, RefKind::Read, phase, fn_ids[i]);
            stack_cursor += frame;
        }

        // --- Per-layer data references on first-touch phases ----------
        for (li, layer) in Layer::ALL.iter().enumerate() {
            let rep = layer_rep[li];
            let first = DATA_FIRST_PHASE[li];
            // Data is touched in its first phase and every later phase in
            // which the layer's code runs; reads repeat, which only
            // affects reference counts, not the working set.
            let active = FUNCTIONS
                .iter()
                .any(|s| s.layer == *layer && s.phase_lines[phase as usize] > 0);
            if phase < first || !active {
                continue;
            }
            for (line, words) in data_pattern(
                RO_LINES[li],
                1000 + li as u64,
                RO_ADJACENT_NUM,
                RO_SECOND_HALF_NUM,
                RO_SPLIT8_NUM,
            ) {
                for (off, len) in words {
                    trace.record(
                        layout.ro[li].base + line * 32 + off,
                        len as u32,
                        RefKind::Read,
                        phase,
                        rep,
                    );
                }
            }
            for (line, words) in data_pattern(
                MUT_LINES[li],
                2000 + li as u64,
                MUT_ADJACENT_NUM,
                MUT_SECOND_HALF_NUM,
                MUT_SPLIT8_NUM,
            ) {
                for (off, len) in words {
                    let addr = layout.mutable[li].base + line * 32 + off;
                    trace.record(addr, len as u32, RefKind::Read, phase, rep);
                    trace.record(addr, len as u32, RefKind::Write, phase, rep);
                }
            }
        }

        // --- Message contents (excluded from Table 1, visible in the
        //     phase summaries) ------------------------------------------
        match phase {
            1 => {
                // Interrupt: copy device -> mbuf, then checksum the mbuf.
                let dev = layout.device_buf.base;
                let mbuf = layout.mbuf_data.base;
                let cp = trace.function_named("copyfrombuf_gap2").expect("in table");
                let ck = trace.function_named("in_cksum").expect("in table");
                trace.record(dev, MESSAGE_SIZE as u32, RefKind::Read, phase, cp);
                trace.record(mbuf, MESSAGE_SIZE as u32, RefKind::Write, phase, cp);
                trace.record(mbuf, MESSAGE_SIZE as u32, RefKind::Read, phase, ck);
            }
            2 => {
                // Exit: copy mbuf -> user space; build and send the ACK.
                let mbuf = layout.mbuf_data.base;
                let user = layout.user_buf.base;
                let co = trace.function_named("copyout").expect("in table");
                let ck = trace.function_named("in_cksum").expect("in table");
                let tb = trace.function_named("copytobuf_gap2").expect("in table");
                trace.record(mbuf, MESSAGE_SIZE as u32, RefKind::Read, phase, co);
                trace.record(user, MESSAGE_SIZE as u32, RefKind::Write, phase, co);
                // The ACK: 58 bytes of headers written, checksummed, and
                // copied to the device.
                let ack = layout.mbuf_data.base + 1024;
                trace.record(ack, 58, RefKind::Write, phase, tb);
                trace.record(ack, 58, RefKind::Read, phase, ck);
                trace.record(layout.device_buf.base + 768, 58, RefKind::Write, phase, tb);
            }
            _ => {}
        }
    }

    debug_assert!(trace.validate().is_ok());
    trace
}

/// Convenience: build the trace with the default sequential layout.
pub fn build_receive_ack_trace() -> Trace {
    build_trace(&default_layout())
}

/// The paper's published per-layer code bytes (Table 1, top to bottom).
pub const PAPER_CODE_BYTES: [u64; 10] =
    [4480, 2784, 3168, 5536, 608, 1184, 2208, 5472, 1632, 3232];
/// The paper's published per-layer read-only data bytes.
pub const PAPER_RO_BYTES: [u64; 10] = [864, 480, 448, 544, 32, 256, 1280, 544, 192, 448];
/// The paper's published per-layer mutable data bytes.
pub const PAPER_MUT_BYTES: [u64; 10] = [672, 128, 160, 448, 160, 64, 640, 736, 512, 128];

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::workingset::working_set;

    #[test]
    fn function_budgets_fit_function_sizes() {
        for spec in FUNCTIONS {
            assert!(
                spec.touched_lines() * 32 <= spec.size.div_ceil(32) * 32,
                "{} budget {} lines exceeds size {}",
                spec.name,
                spec.touched_lines(),
                spec.size
            );
        }
    }

    #[test]
    fn layer_line_budgets_match_table1() {
        for (li, layer) in Layer::ALL.iter().enumerate() {
            let lines: u64 = FUNCTIONS
                .iter()
                .filter(|s| s.layer == *layer)
                .map(|s| s.touched_lines())
                .sum();
            assert_eq!(
                lines * 32,
                PAPER_CODE_BYTES[li],
                "layer {} code budget mismatch",
                Layer::NAMES[li]
            );
        }
    }

    #[test]
    fn trace_reproduces_table1_exactly() {
        let trace = build_receive_ack_trace();
        trace.validate().unwrap();
        let ws = working_set(&trace, 32);
        for (li, row) in ws.rows.iter().enumerate() {
            assert_eq!(row.code.bytes, PAPER_CODE_BYTES[li], "code row {li}");
            assert_eq!(row.ro_data.bytes, PAPER_RO_BYTES[li], "ro row {li}");
            assert_eq!(row.mut_data.bytes, PAPER_MUT_BYTES[li], "mut row {li}");
        }
        // The paper's published totals; the code total is the sum of
        // its per-layer rows.
        assert_eq!(ws.total.code.bytes, 30304);
        assert_eq!(ws.total.ro_data.bytes, 5088);
        assert_eq!(ws.total.mut_data.bytes, 3648);
    }

    #[test]
    fn phases_have_the_papers_shape() {
        // Entry is small; the interrupt and exit phases carry most of the
        // code. (Exact byte totals are modelled; see EXPERIMENTS.md.)
        let trace = build_receive_ack_trace();
        let phases = memtrace::phases::phase_summaries(&trace);
        assert_eq!(phases.len(), 3);
        assert!(phases[0].code.bytes < phases[1].code.bytes);
        assert!(phases[0].code.bytes < phases[2].code.bytes);
        // Re-executed loop code makes interrupt-phase refs far exceed
        // its unique bytes.
        assert!(phases[1].code.refs as f64 > phases[1].code.bytes as f64 / 16.0);
    }

    #[test]
    fn dilution_is_near_25_percent() {
        let trace = build_receive_ack_trace();
        let d = memtrace::dilution::code_dilution(&trace, 32);
        assert!(
            (0.15..0.35).contains(&d.dilution()),
            "dilution {} outside the paper's ~25% neighbourhood",
            d.dilution()
        );
    }

    #[test]
    fn layout_regions_are_disjoint() {
        let l = default_layout();
        let mut all: Vec<Region> = l.code.clone();
        all.extend(l.ro.iter().copied());
        all.extend(l.mutable.iter().copied());
        all.extend([l.device_buf, l.mbuf_data, l.user_buf, l.stack]);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert!(!a.overlaps(b), "{a:?} overlaps {b:?}");
            }
        }
    }

    #[test]
    fn trace_is_deterministic() {
        let a = build_receive_ack_trace();
        let b = build_receive_ack_trace();
        assert_eq!(a.refs.len(), b.refs.len());
        assert_eq!(a.refs, b.refs);
    }
}
