//! # cachesim — machine and primary-cache model
//!
//! A small, deterministic, cycle-level model of the memory hierarchy the
//! paper's experiments depend on: split direct-mapped or set-associative
//! primary caches, a fixed per-miss stall penalty, and a configurable CPU
//! clock.
//!
//! The model is deliberately simple — it is the model of the paper
//! (Blackwell, SIGCOMM '96, Section 4): every read miss stalls the processor
//! for a fixed number of cycles; writes go through the same cache
//! (write-allocate) and never stall. A [`Machine`] has no secondary cache
//! because the paper folds the whole miss path into a single penalty; the
//! multi-core extension models its shared L2 outside the cores, as the
//! composable [`SharedL2`].
//!
//! Two presets mirror the paper's machines:
//! * [`MachineConfig::dec3000_400`] — the DEC 3000/400 used for the TCP
//!   measurements (8 KB direct-mapped I and D caches, 32-byte lines,
//!   10-cycle miss penalty, 133 MHz — the paper quotes "20 instruction
//!   slots (10 cycles)" per primary I-miss).
//! * [`MachineConfig::synthetic_benchmark`] — the configuration of
//!   Section 4's synthetic benchmark (8 KB direct-mapped I and D caches,
//!   20-cycle read-miss stall, 100 MHz).
//!
//! The address space is a flat `u64` space; all structures operate at
//! cache-line granularity internally but accept byte addresses and sizes.

pub mod addr;
pub mod cache;
pub mod coherence;
pub mod machine;
pub mod placement;
pub mod replay;
pub mod stats;
pub mod tlb;

pub use addr::{Addr, Region};
pub use cache::{AccessKind, Cache, CacheConfig, CacheStats};
pub use coherence::{CoherenceStats, SharedL2, SharedL2Config};
pub use machine::{round_to_cycles, CycleCount, Machine, MachineConfig, MachineStats};
pub use placement::{AddressAllocator, RandomPlacement};
pub use replay::ReplayCache;
pub use stats::ReplayStats;
pub use tlb::{Tlb, TlbConfig, TlbStats};
