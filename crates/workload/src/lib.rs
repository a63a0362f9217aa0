//! Mixed multi-protocol small-message workloads.
//!
//! The paper's experiments drive one protocol stack at a time; a
//! production small-message service runs several at once, and the
//! interesting question becomes *per-class*: which classes keep their
//! latency SLOs when five protocols contend for one I-cache. This
//! crate models that service and generates its traffic:
//!
//! * [`class`] — the five-class taxonomy ([`WireClass`]): client
//!   signalling, service RPC, media control, DNS, and CBOR agent
//!   messaging, each with a handler footprint, a session-table reach,
//!   and a latency SLO ([`class::profiles`] plugs straight into
//!   `smp::SmpConfig::wclass`).
//! * [`frame`] — the versioned binary envelope the framed classes
//!   share (v1/v2 coexisting mid-rollout; v2 adds a session id and a
//!   checksum trailer).
//! * [`cbor`] / [`agent`] — RFC 8949-subset codec and the agent
//!   messaging protocol on top of it: session establishment, acks, and
//!   a relay with bounded, TTL-expired store-and-forward mailboxes
//!   whose table walks are charged against the cache model.
//! * [`stream`] — the deterministic mixed-stream generator: Poisson
//!   aggregate arrivals, seeded class interleaving, bounded-Pareto
//!   sizes, all on a fixed per-message RNG draw budget.
//! * [`dispatch`] — the classify-and-route loop (`workload-dispatch`
//!   hot-path root: panic-free, alloc-disciplined, charge-covered).
//! * [`slo`] — per-class SLO verdicts over `smp`'s class reports.
//!
//! The `figure14` bench (crates/bench) sweeps this workload across
//! cores and disciplines — Conventional vs. LDLP vs. LDLP+affinity —
//! and reports p50/p99, I-misses/message, and SLO attainment class by
//! class.

pub mod agent;
pub mod cbor;
pub mod class;
pub mod dispatch;
pub mod frame;
pub mod slo;
pub mod stream;

pub use agent::{AgentKind, AgentMsg, Relay, RelayStats, Session, SessionPhase};
pub use class::{profiles, WireClass};
pub use dispatch::{classify, dispatch_batch, DispatchStats};
pub use frame::{Frame, FrameError, FrameVersion};
pub use slo::{evaluate, SloVerdict, ATTAINMENT_TARGET};
pub use stream::{
    class_counts, generate, to_flow_arrivals, ClassedArrival, MixConfig, MixedStream,
};
