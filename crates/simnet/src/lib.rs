//! # simnet — load simulation for layer-processing schedules
//!
//! The experimental apparatus of the paper's Section 4: a discrete-event
//! simulation that feeds a stream of message arrivals through a
//! `ldlp::StackEngine` and measures latency, throughput, drops, and cache
//! misses per message.
//!
//! * [`traffic`] — arrival processes: Poisson (Figures 5 and 6),
//!   deterministic, a self-similar superposition of Pareto ON/OFF sources
//!   standing in for the Bellcore Ethernet traces (Figure 7; Leland et
//!   al.'s traces are not redistributable, and Willinger et al. showed
//!   this construction converges to the same self-similar process), and
//!   trace files.
//! * [`sim`] — the event loop: a bounded NIC buffer (500 packets in the
//!   paper), batch admission per the engine's discipline ("process
//!   batches consisting of all available messages"), and per-message
//!   latency accounting.
//! * [`stats`] — report aggregation, percentiles, and a Hurst-parameter
//!   estimator (aggregated-variance method) used to validate the
//!   self-similar source.
//! * [`impair`] — a deterministic, seeded impairment channel over any
//!   packet stream (arrivals here, tagged arrivals in `smp`, wire frames
//!   in the bench harness): independent and Gilbert–Elliott burst loss,
//!   payload corruption, duplication, and bounded reordering, with
//!   counters threaded into the report. An [`Arrival`] carries its
//!   damage bit, so an impaired stream is the same type as a clean one.
//! * [`closed`] — a closed-loop source: a finite population of
//!   retrying clients (retransmit timers, exponential backoff, retry
//!   budgets, think times) whose feedback loop turns overload into the
//!   metastable collapse `figure13` measures.
//! * [`par`] — a deterministic parallel executor that fans independent
//!   (parameter, seed) simulation runs across host cores and returns
//!   results in index order, so sweep output is byte-identical to the
//!   serial path.

pub mod closed;
pub mod impair;
pub mod par;
pub mod sim;
pub mod stats;
pub mod traffic;
mod winner;

/// FNV-1a offset basis: the seed of [`fnv1a`].
#[cfg(test)]
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a hash, for the event streams this
/// crate's tests pin by digest.
#[cfg(test)]
pub(crate) fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

pub use closed::{
    AckKind, Class, ClientSend, ClosedConfig, ClosedPopulation, ClosedStats, RetransmitTimer,
    RetryPolicy,
};
pub use impair::{GilbertElliott, ImpairChannel, ImpairConfig, ImpairCounters, Payload};
pub use par::{resolve_threads, run_indexed};
pub use sim::{
    run_sim, run_sim_impaired, run_sim_lookup, run_sim_traced, BatchRecord, LookupCharge,
    SimConfig,
};
pub use stats::{MissTotals, RunTally, SimReport};
pub use traffic::{
    Arrival, MmppSource, PoissonSource, SelfSimilarSource, TraceSource, TrafficSource,
    TrainSource,
};
