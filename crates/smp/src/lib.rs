//! Simulated multi-core protocol processing: flow steering, a shared
//! L2 with coherence costs, and cross-core LDLP batching.
//!
//! The paper ("Speeding up Protocols for Small Messages") measures a
//! single CPU whose I-cache thrashes when five protocol layers each
//! touch ~6 KB of code per message. Multi-core packet processing gives
//! the same phenomenon a second axis: *which core* runs *which part* of
//! the stack decides what each private I-cache holds, and shared
//! mutable protocol state adds coherence traffic that no private cache
//! can hide. This crate composes the existing single-core machinery —
//! [`cachesim`] machines, [`ldlp`] stack engines, [`simnet`] traffic —
//! into an N-core model that asks the paper's question at SMP scale:
//!
//! * [`steer`] — deterministic flow synthesis and the three dispatch
//!   policies: RSS-style 5-tuple hashing, first-seen round-robin, and
//!   LDLP-aware layer affinity (software pipelining across cores).
//! * [`sim`] — the deterministic event loop, one scheduler fed by an
//!   open-loop arrival schedule or a closed-loop client population:
//!   per-core engines over a [`cachesim::SharedL2`] coherence fabric,
//!   bounded descriptor rings between pipeline stages (`ring`), and a
//!   cross-core conservation law asserted on every run.
//!
//! The headline experiment is `figure9` in `crates/bench`: arrival rate
//! × core count × dispatch policy, Conventional vs. LDLP, reporting
//! I-misses per message and latency percentiles per cell.

#![forbid(unsafe_code)]

mod ring;
pub mod sim;
pub mod steer;

pub use sim::{
    run_smp, run_smp_impaired, CoreReport, HandoffFlowControl, SmpConfig, SmpOutcome, SmpSim,
    WClassProfile, CORE_MACHINE, MAX_WCLASS,
};
pub use steer::{tag_flows, DispatchPolicy, FlowArrival, FlowKey, Steerer};
