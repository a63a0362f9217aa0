//! Closed-loop traffic: a retrying client population.
//!
//! Every other source in this crate is *open-loop* — arrivals are a
//! function of time alone (Poisson, self-similar, trace), so overload
//! only grows the queue. Real small-message services at
//! millions-of-users scale are *closed-loop*: a finite population of
//! clients each sends one request, waits on a retransmit timer, retries
//! with exponential backoff, and only thinks up the next request after
//! the current one is acknowledged or abandoned. Under overload the
//! retry loop is an amplifier — the server burns cycles completing
//! requests whose clients have already timed out, goodput collapses
//! while throughput stays high, and the system can stay collapsed after
//! the original surge passes (metastable failure). `figure13` in
//! `crates/bench` measures exactly that.
//!
//! The retransmission machinery ([`RetryPolicy`], [`RetransmitTimer`])
//! lives here rather than in `signaling::recovery` because `signaling`
//! depends on `simnet` and the population needs the timer from the
//! *client* side; `signaling::recovery` re-exports both so its API is
//! unchanged. New to this home is [`RetryPolicy::max_rto_s`], the
//! SSCOP-style cap on the backed-off timeout — without it, client-side
//! retry budgets larger than 3 produce absurd deadlines in long
//! closed-loop runs.
//!
//! Conservation: every transmission the channel delivers into the
//! simulator ends in exactly one bucket, extending the open-loop law to
//! `offered == completed + rejected + drops + shed + in_flight +
//! abandoned`. `abandoned` counts *stale completions* — transmissions
//! the server finished processing after the client had already been
//! acknowledged by another copy or had given up. That wasted work is
//! precisely what the retry loop amplifies, so the bucket doubles as
//! the metastability signal.
//!
//! Channel semantics per transmission mirror `signaling::recovery`: a
//! *dropped* send never reaches the simulator (the client's timer fires
//! anyway); a *corrupted* send is delivered, costs the server cycles,
//! and is rejected at checksum verification (no acknowledgement); a
//! *duplicated* send is delivered twice — the first copy to complete
//! cleanly acknowledges the client and the second completes stale.
//! Reordering has no meaning at this per-request level and is ignored.

use crate::impair::{ImpairConfig, ImpairState};
use crate::winner::WinnerTree;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Retransmission policy of the reliable transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Initial retransmission timeout in seconds (T303-like).
    pub rto_s: f64,
    /// Timeout multiplier per retransmission.
    pub backoff: f64,
    /// Retransmissions after the initial send before giving up.
    pub max_retries: u32,
    /// Upper bound on any single backed-off timeout, in seconds
    /// (SSCOP-style). The default (1 s) is far above every timeout the
    /// default policy can produce, so capping changes nothing unless a
    /// caller opts into deep retry budgets.
    pub max_rto_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            rto_s: 0.005,
            backoff: 2.0,
            max_retries: 3,
            max_rto_s: 1.0,
        }
    }
}

impl RetryPolicy {
    /// Timeout armed after transmission number `sent` (1-based), in
    /// seconds: `min(rto_s * backoff^(sent-1), max_rto_s)`.
    pub fn timeout_s(&self, sent: u32) -> f64 {
        (self.rto_s * self.backoff.powi(sent.saturating_sub(1) as i32)).min(self.max_rto_s)
    }
}

/// A per-call retransmit timer. Armed at the first transmission; each
/// [`RetransmitTimer::expire`] yields the retransmission time and re-arms
/// with the next backoff step, until the retry budget is spent.
#[derive(Debug, Clone, Copy)]
pub struct RetransmitTimer {
    policy: RetryPolicy,
    sent: u32,
    deadline_s: f64,
}

impl RetransmitTimer {
    /// Arms the timer for a message first transmitted at `now_s`.
    pub fn arm(policy: RetryPolicy, now_s: f64) -> Self {
        RetransmitTimer {
            policy,
            sent: 1,
            deadline_s: now_s + policy.timeout_s(1),
        }
    }

    /// When the timer fires if no acknowledgement arrives.
    pub fn deadline_s(&self) -> f64 {
        self.deadline_s
    }

    /// Transmissions made so far (initial send included).
    pub fn transmissions(&self) -> u32 {
        self.sent
    }

    /// The timer fired with nothing acknowledged. Returns the time of
    /// the retransmission it triggers, or `None` once the retry budget
    /// is exhausted — at which point [`RetransmitTimer::deadline_s`] is
    /// the moment the call is abandoned.
    pub fn expire(&mut self) -> Option<f64> {
        if self.sent > self.policy.max_retries {
            return None;
        }
        let t = self.deadline_s;
        self.sent += 1;
        self.deadline_s = t + self.policy.timeout_s(self.sent);
        Some(t)
    }
}

/// Traffic class of a client's requests, for weighted-fair admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Signalling call setup (the paper's Q.93B workload).
    Call,
    /// DNS-style tiny lookups.
    Dns,
    /// Small RPCs (the paper's 552-byte small message).
    Rpc,
}

impl Class {
    /// Number of classes (array-accounting dimension).
    pub const COUNT: usize = 3;

    /// All classes, in index order.
    pub const ALL: [Class; Class::COUNT] = [Class::Call, Class::Dns, Class::Rpc];

    /// Deterministic class assignment by client id.
    pub fn of_client(client: u32) -> Class {
        match client % 3 {
            0 => Class::Call,
            1 => Class::Dns,
            _ => Class::Rpc,
        }
    }

    /// Accounting index of this class.
    pub fn index(self) -> usize {
        match self {
            Class::Call => 0,
            Class::Dns => 1,
            Class::Rpc => 2,
        }
    }

    /// Request size on the wire.
    pub fn bytes(self) -> u32 {
        match self {
            Class::Call => 120,
            Class::Dns => 80,
            Class::Rpc => 552,
        }
    }

    /// Short label for CSV output.
    pub fn label(self) -> &'static str {
        match self {
            Class::Call => "call",
            Class::Dns => "dns",
            Class::Rpc => "rpc",
        }
    }
}

/// Parameters of a closed-loop client population.
#[derive(Debug, Clone, Copy)]
pub struct ClosedConfig {
    /// Population size (the paper-scale runs use 10^5).
    pub clients: u32,
    /// Mean exponential think time between a request's resolution and
    /// the client's next request, in seconds. Offered load is
    /// `clients / (think_s + response_time)` — the closed-loop feedback.
    pub think_s: f64,
    /// No new requests start after this time; in-flight requests drain.
    pub duration_s: f64,
    /// Seed for think-time draws.
    pub seed: u64,
    /// Client-side retransmission policy.
    pub retry: RetryPolicy,
    /// When `false`, the retry budget is effectively unbounded: clients
    /// never abandon, which is the classic metastable amplifier.
    pub retry_budget_on: bool,
    /// The impairment channel every transmission crosses on its way to
    /// the simulator.
    pub channel: ImpairConfig,
}

impl ClosedConfig {
    /// A transparent-channel population with the default retry policy
    /// and the budget enabled.
    pub fn new(clients: u32, think_s: f64, duration_s: f64, seed: u64) -> Self {
        ClosedConfig {
            clients,
            think_s,
            duration_s,
            seed,
            retry: RetryPolicy::default(),
            retry_budget_on: true,
            channel: ImpairConfig::default(),
        }
    }
}

/// One transmission emitted by the population (post-channel).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientSend {
    /// Simulated send time in seconds.
    pub time_s: f64,
    /// Sending client id (doubles as the flow id for steering).
    pub client: u32,
    /// Per-client request sequence number; `(client, req)` identifies
    /// the request a completion acknowledges.
    pub req: u64,
    /// Message size on the wire.
    pub bytes: u32,
    /// Whether the channel corrupted this copy (the server rejects it
    /// at checksum verification; no acknowledgement).
    pub corrupted: bool,
    /// Traffic class, for weighted-fair admission accounting.
    pub class: Class,
}

/// How the population classified a completion fed back via
/// [`ClosedPopulation::ack`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AckKind {
    /// First clean completion for an outstanding request: the client is
    /// acknowledged and will think up its next request.
    Useful {
        /// Request latency, first transmission to acknowledgement.
        latency_us: f64,
    },
    /// The client had already been acknowledged (duplicate/retry copy)
    /// or had abandoned the request — the server's work was wasted.
    /// Tally under `abandoned` in the conservation law.
    Stale,
}

/// Aggregate counters of one population run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClosedStats {
    /// Requests started (one per client think cycle).
    pub requests: u64,
    /// Requests resolved by a useful acknowledgement.
    pub useful: u64,
    /// Requests abandoned after the retry budget was spent.
    pub abandoned_requests: u64,
    /// Transmissions attempted (initial sends + retransmissions),
    /// before the channel.
    pub transmissions: u64,
    /// Transmissions the channel delivered into the simulator
    /// (duplicates counted).
    pub offered: u64,
    /// Transmissions the channel dropped (client timer fires anyway).
    pub channel_dropped: u64,
    /// Requests started, by class index.
    pub per_class_requests: [u64; Class::COUNT],
    /// Useful acknowledgements, by class index.
    pub per_class_useful: [u64; Class::COUNT],
}

impl ClosedStats {
    /// Transmissions per request — the retry-amplification factor. 1.0
    /// means no retries; the metastable regime sends this toward the
    /// retry-budget limit.
    pub fn retry_amplification(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.transmissions as f64 / self.requests as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Between requests (thinking): the client's event is the start of
    /// its next request.
    Idle,
    /// A request is outstanding: the client's event is its retransmit
    /// timer's deadline.
    Waiting,
    /// Past the window with nothing outstanding: the client has retired
    /// and has no event.
    Done,
}

#[derive(Debug, Clone, Copy)]
struct ClientState {
    phase: Phase,
    /// Latest request sequence number started by this client.
    req: u64,
    /// First-transmission time of the outstanding request.
    start_s: f64,
    timer: RetransmitTimer,
    class: Class,
}

/// A deterministic population of retrying clients.
///
/// Drivers pull transmissions with [`ClosedPopulation::poll_sends`] up
/// to a causality frontier (the next simulator batch start) and feed
/// completions back with [`ClosedPopulation::ack`]. Because the
/// simulator runs batches in non-decreasing start order, every
/// acknowledgement with finish time ≤ the frontier is delivered before
/// the frontier advances past it — client timers never observe the
/// future.
///
/// A client has exactly one live event, named by its [`Phase`], so the
/// schedule is one time per client (`events`), not a queue: arming a
/// timer, an acknowledgement and an abandonment each *overwrite* the
/// client's slot, and a superseded timer simply no longer exists.
/// Events at equal times fire in client order.
#[derive(Debug)]
pub struct ClosedPopulation {
    think_s: f64,
    duration_s: f64,
    policy: RetryPolicy,
    clients: Vec<ClientState>,
    /// Each client's next event time, by client id.
    events: WinnerTree,
    rng: StdRng,
    chan: ImpairState,
    stats: ClosedStats,
    latencies_us: Vec<f64>,
}

impl ClosedPopulation {
    /// Builds the population and staggers each client's first request
    /// over one think-time draw, avoiding a synchronized herd at t=0.
    pub fn new(cfg: &ClosedConfig) -> Self {
        let policy = if cfg.retry_budget_on {
            cfg.retry
        } else {
            RetryPolicy {
                // Effectively unbounded: the client never abandons.
                max_retries: u32::MAX - 1,
                ..cfg.retry
            }
        };
        let mut pop = ClosedPopulation {
            think_s: cfg.think_s,
            duration_s: cfg.duration_s,
            policy,
            clients: Vec::with_capacity(cfg.clients as usize),
            events: WinnerTree::new(cfg.clients as usize),
            rng: StdRng::seed_from_u64(cfg.seed),
            chan: ImpairState::new(cfg.channel),
            stats: ClosedStats::default(),
            latencies_us: Vec::new(),
        };
        for client in 0..cfg.clients {
            pop.clients.push(ClientState {
                phase: Phase::Idle,
                req: 0,
                start_s: 0.0,
                timer: RetransmitTimer::arm(policy, 0.0),
                class: Class::of_client(client),
            });
            let first = pop.think_draw();
            pop.events.set(client as usize, first);
        }
        pop
    }

    /// One exponential think-time draw.
    fn think_draw(&mut self) -> f64 {
        let u: f64 = self.rng.random::<f64>().max(1e-12);
        -self.think_s * u.ln()
    }

    /// The time of the next pending client event, if any.
    pub fn next_event_time(&self) -> Option<f64> {
        self.events.min().map(|(t, _)| t)
    }

    /// Whether every client has retired and no events are pending.
    pub fn drained(&self) -> bool {
        self.events.min().is_none()
    }

    /// Requests currently outstanding (sent, neither acknowledged nor
    /// abandoned).
    pub fn outstanding(&self) -> u64 {
        self.clients.iter().filter(|c| c.phase == Phase::Waiting).count() as u64
    }

    /// Counters so far.
    pub fn stats(&self) -> &ClosedStats {
        &self.stats
    }

    /// The impairment channel's own counters (for threading into a
    /// [`crate::stats::SimReport`]).
    pub fn channel_counters(&self) -> crate::impair::ImpairCounters {
        self.chan.counters()
    }

    /// Request latencies (first transmission → useful acknowledgement)
    /// in microseconds, in acknowledgement order.
    pub fn latencies_us(&self) -> &[f64] {
        &self.latencies_us
    }

    /// Processes every pending client event with time ≤ `until_s`,
    /// appending the transmissions the channel delivers to `out` in
    /// non-decreasing time order.
    pub fn poll_sends(&mut self, until_s: f64, out: &mut Vec<ClientSend>) {
        while let Some((t_s, client)) = self.events.min() {
            if t_s > until_s {
                break;
            }
            self.fire(t_s, client, out);
        }
    }

    /// Fires `client`'s event, due at `t_s`: the start of its next
    /// request if it was thinking, its retransmit timer if it was
    /// waiting. Either way the client's slot is overwritten with what
    /// it waits for next.
    fn fire(&mut self, t_s: f64, client: usize, out: &mut Vec<ClientSend>) {
        let policy = self.policy;
        let past_window = t_s > self.duration_s;
        let Some(c) = self.clients.get_mut(client) else {
            return;
        };
        let class = c.class;
        let next_s = match c.phase {
            Phase::Idle if past_window => {
                // The window closed while this client thought; it
                // retires instead of starting a request.
                c.phase = Phase::Done;
                f64::INFINITY
            }
            Phase::Idle => {
                c.req += 1;
                c.start_s = t_s;
                c.phase = Phase::Waiting;
                c.timer = RetransmitTimer::arm(policy, t_s);
                let (req, deadline) = (c.req, c.timer.deadline_s());
                self.stats.requests += 1;
                if let Some(n) = self.stats.per_class_requests.get_mut(class.index()) {
                    *n += 1;
                }
                self.transmit(t_s, client as u32, req, class, out);
                deadline
            }
            Phase::Waiting => match c.timer.expire() {
                Some(retx_s) => {
                    let (req, deadline) = (c.req, c.timer.deadline_s());
                    self.transmit(retx_s, client as u32, req, class, out);
                    deadline
                }
                None => {
                    // Budget spent: the request is abandoned and the
                    // client thinks up its next one. Any copies still
                    // in the simulator will complete stale.
                    c.phase = Phase::Idle;
                    self.stats.abandoned_requests += 1;
                    t_s + self.think_draw()
                }
            },
            Phase::Done => f64::INFINITY,
        };
        self.events.set(client, next_s);
    }

    /// Pushes one transmission through the channel.
    fn transmit(
        &mut self,
        time_s: f64,
        client: u32,
        req: u64,
        class: Class,
        out: &mut Vec<ClientSend>,
    ) {
        self.stats.transmissions += 1;
        let fate = self.chan.next_fate();
        if fate.dropped {
            // Lost on the wire: the client's timer fires regardless.
            self.stats.channel_dropped += 1;
            return;
        }
        let send = ClientSend {
            time_s,
            client,
            req,
            bytes: class.bytes(),
            corrupted: fate.corrupted,
            class,
        };
        for _ in 0..1 + u32::from(fate.duplicated) {
            // analyze::allow(alloc-path, reason = "the driver's scratch vector, drained after every poll; capacity is warm after the first event")
            out.push(send);
            self.stats.offered += 1;
        }
    }

    /// Feeds a completion back: the simulator finished processing a
    /// clean (non-corrupted) copy of `(client, req)` at `t_s`. Returns
    /// whether the completion was useful or stale; stale completions
    /// land in the `abandoned` conservation bucket.
    pub fn ack(&mut self, client: u32, req: u64, t_s: f64) -> AckKind {
        let (latency_us, class) = {
            let Some(c) = self.clients.get_mut(client as usize) else {
                return AckKind::Stale;
            };
            if c.phase != Phase::Waiting || c.req != req {
                return AckKind::Stale;
            }
            c.phase = Phase::Idle;
            ((t_s - c.start_s) * 1e6, c.class)
        };
        self.stats.useful += 1;
        if let Some(n) = self.stats.per_class_useful.get_mut(class.index()) {
            *n += 1;
        }
        // analyze::allow(alloc-path, reason = "the population is single-use: one sample per useful acknowledgement is the run's result, not steady-state churn")
        self.latencies_us.push(latency_us);
        // The request's timer goes with it: the client's one event is
        // now the start of its next request.
        let next = t_s + self.think_draw();
        self.events.set(client as usize, next);
        AckKind::Useful { latency_us }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn backoff_caps_at_max_rto() {
        // Regression for the unbounded `rto_s * backoff^(sent-1)`
        // growth: with a deep budget, the cap binds exactly at the
        // boundary step and every later timeout stays flat.
        let p = RetryPolicy {
            rto_s: 0.01,
            backoff: 2.0,
            max_retries: 10,
            max_rto_s: 0.04,
        };
        assert_eq!(p.timeout_s(1), 0.01);
        assert_eq!(p.timeout_s(2), 0.02);
        assert_eq!(p.timeout_s(3), 0.04, "boundary: uncapped value equals the cap");
        assert_eq!(p.timeout_s(4), 0.04, "first capped step");
        assert_eq!(p.timeout_s(11), 0.04, "stays flat forever after");
        let mut t = RetransmitTimer::arm(p, 0.0);
        for _ in 0..10 {
            assert!(t.expire().is_some());
        }
        // 0.01 + 0.02 + 0.04 * 9 = 0.39, not 0.01 * (2^11 - 1) = 20.47.
        assert!((t.deadline_s() - 0.39).abs() < 1e-12, "deadline sum is capped");
        assert_eq!(t.expire(), None);
    }

    #[test]
    fn default_cap_never_binds_for_default_policy() {
        // The default must keep every pre-existing figure byte-identical:
        // the deepest default timeout is 40 ms, far under the 1 s cap.
        let p = RetryPolicy::default();
        for sent in 1..=p.max_retries + 1 {
            let uncapped = p.rto_s * p.backoff.powi(sent.saturating_sub(1) as i32);
            assert_eq!(p.timeout_s(sent), uncapped);
        }
    }

    /// FNV-1a over everything a driver can see of a send stream.
    struct SendDigest(u64);

    impl SendDigest {
        fn new() -> Self {
            SendDigest(crate::FNV_OFFSET)
        }

        fn send(&mut self, s: &ClientSend) {
            for bytes in [
                &s.time_s.to_bits().to_le_bytes()[..],
                &s.client.to_le_bytes(),
                &s.req.to_le_bytes(),
                &[u8::from(s.corrupted)],
            ] {
                self.0 = crate::fnv1a(self.0, bytes);
            }
        }
    }

    /// Serves every send instantly `service_s` after transmission,
    /// acking clean copies; returns (useful, stale) completions.
    fn serve_all(pop: &mut ClosedPopulation, service_s: f64, horizon_s: f64) -> (u64, u64) {
        serve_all_digest(pop, service_s, horizon_s, &mut SendDigest::new())
    }

    /// [`serve_all`], folding every send into `digest` as it is emitted.
    fn serve_all_digest(
        pop: &mut ClosedPopulation,
        service_s: f64,
        horizon_s: f64,
        digest: &mut SendDigest,
    ) -> (u64, u64) {
        let mut useful = 0;
        let mut stale = 0;
        let mut sends = Vec::new();
        while let Some(t) = pop.next_event_time() {
            if t > horizon_s {
                break;
            }
            sends.clear();
            pop.poll_sends(t, &mut sends);
            for s in &sends {
                digest.send(s);
                if s.corrupted {
                    continue;
                }
                match pop.ack(s.client, s.req, s.time_s + service_s) {
                    AckKind::Useful { .. } => useful += 1,
                    AckKind::Stale => stale += 1,
                }
            }
        }
        (useful, stale)
    }

    /// A server that really takes `service_s`: the acknowledgement is
    /// delivered when simulated time reaches it, so timers that expire
    /// first fire, retransmit, and leave stale completions behind —
    /// the order `SmpSim::run_closed` drives the population in (events
    /// before acknowledgements on a tie).
    fn serve_delayed(pop: &mut ClosedPopulation, service_s: f64, digest: &mut SendDigest) -> u64 {
        let mut stale = 0;
        let mut sends = Vec::new();
        let mut acks: VecDeque<(f64, u32, u64)> = VecDeque::new();
        loop {
            let ev = pop.next_event_time();
            let ack = acks.front().map(|a| a.0);
            match (ev, ack) {
                (Some(t), a) if a.is_none_or(|a| t <= a) => {
                    pop.poll_sends(t, &mut sends);
                    for s in sends.drain(..) {
                        digest.send(&s);
                        if !s.corrupted {
                            acks.push_back((s.time_s + service_s, s.client, s.req));
                        }
                    }
                }
                (_, Some(_)) => {
                    let Some((t, client, req)) = acks.pop_front() else {
                        break;
                    };
                    if pop.ack(client, req, t) == AckKind::Stale {
                        stale += 1;
                    }
                }
                (_, None) => break,
            }
        }
        stale
    }

    #[test]
    fn fast_server_acks_every_request_without_retries() {
        let cfg = ClosedConfig::new(50, 0.01, 0.5, 7);
        let mut pop = ClosedPopulation::new(&cfg);
        let (useful, stale) = serve_all(&mut pop, 1e-4, 10.0);
        let st = *pop.stats();
        assert!(st.requests > 100, "closed loop keeps generating");
        assert_eq!(useful, st.useful);
        assert_eq!(stale, 0, "instant service leaves nothing stale");
        assert_eq!(st.transmissions, st.requests, "no retries needed");
        assert_eq!(st.abandoned_requests, 0);
        assert_eq!(st.useful + pop.outstanding(), st.requests);
        assert!(pop.drained(), "window closed and every client retired");
        assert_eq!(pop.latencies_us().len() as u64, st.useful);
        let by_class: u64 = st.per_class_requests.iter().sum();
        assert_eq!(by_class, st.requests);
    }

    #[test]
    fn unanswered_requests_retry_then_abandon() {
        // Never ack: every request retries max_retries times, is
        // abandoned, and the client moves on — the loop terminates.
        let cfg = ClosedConfig {
            think_s: 0.02,
            ..ClosedConfig::new(10, 0.02, 0.2, 3)
        };
        let mut pop = ClosedPopulation::new(&cfg);
        let mut sends = Vec::new();
        while let Some(t) = pop.next_event_time() {
            assert!(t < 100.0, "event horizon runaway");
            pop.poll_sends(t, &mut sends);
        }
        let st = *pop.stats();
        assert_eq!(st.useful, 0);
        assert_eq!(st.abandoned_requests, st.requests, "every request abandoned");
        assert_eq!(
            st.transmissions,
            st.requests * (1 + cfg.retry.max_retries as u64),
            "initial send plus the full retry budget each"
        );
        assert!((pop.stats().retry_amplification() - 4.0).abs() < 1e-12);
        assert!(pop.drained());
    }

    #[test]
    fn stale_ack_after_abandon_is_not_useful() {
        let cfg = ClosedConfig::new(1, 0.01, 0.05, 9);
        let mut pop = ClosedPopulation::new(&cfg);
        let mut sends = Vec::new();
        // Let the first request exhaust its budget unanswered.
        let mut first: Option<ClientSend> = None;
        while let Some(t) = pop.next_event_time() {
            if pop.stats().abandoned_requests > 0 {
                break;
            }
            pop.poll_sends(t, &mut sends);
            if first.is_none() {
                first = sends.first().copied();
            }
            sends.clear();
        }
        let Some(s) = first else {
            unreachable!("population emitted no sends");
        };
        assert_eq!(pop.stats().abandoned_requests, 1);
        // The server finally finishes the abandoned request's copy.
        assert_eq!(pop.ack(s.client, s.req, 1.0), AckKind::Stale);
        // And a duplicate of an acknowledged request is stale too.
        while let Some(t) = pop.next_event_time() {
            sends.clear();
            pop.poll_sends(t, &mut sends);
            if let Some(s2) = sends.first().copied() {
                assert!(matches!(
                    pop.ack(s2.client, s2.req, s2.time_s + 1e-4),
                    AckKind::Useful { .. }
                ));
                assert_eq!(pop.ack(s2.client, s2.req, s2.time_s + 2e-4), AckKind::Stale);
                break;
            }
        }
    }

    #[test]
    fn no_new_requests_after_the_window() {
        let cfg = ClosedConfig::new(20, 0.005, 0.1, 11);
        let mut pop = ClosedPopulation::new(&cfg);
        let mut sends = Vec::new();
        while let Some(t) = pop.next_event_time() {
            sends.clear();
            pop.poll_sends(t, &mut sends);
            for s in &sends {
                assert!(s.time_s <= cfg.duration_s, "no sends start past the window");
                pop.ack(s.client, s.req, s.time_s + 1e-4);
            }
        }
        assert!(pop.drained());
    }

    #[test]
    fn unbounded_budget_never_abandons() {
        let cfg = ClosedConfig {
            retry_budget_on: false,
            ..ClosedConfig::new(5, 0.01, 0.02, 13)
        };
        let mut pop = ClosedPopulation::new(&cfg);
        let mut sends = Vec::new();
        // Withhold acks for a long stretch: clients must keep retrying
        // (capped backoff) without ever abandoning.
        let mut polled = 0u32;
        while let Some(t) = pop.next_event_time() {
            if t > 30.0 {
                break;
            }
            sends.clear();
            pop.poll_sends(t, &mut sends);
            polled += 1;
            if polled > 10_000 {
                break;
            }
        }
        let st = *pop.stats();
        assert_eq!(st.abandoned_requests, 0, "budget off: nobody gives up");
        assert!(
            st.transmissions > st.requests * 8,
            "retry amplification runs past any default budget"
        );
        // Acking now resolves the outstanding requests and drains.
        while let Some(t) = pop.next_event_time() {
            sends.clear();
            pop.poll_sends(t, &mut sends);
            for s in &sends {
                pop.ack(s.client, s.req, s.time_s + 1e-5);
            }
        }
        assert!(pop.drained());
    }

    #[test]
    fn channel_drops_fire_timers_and_duplicates_arrive_twice() {
        let cfg = ClosedConfig {
            channel: ImpairConfig {
                drop_prob: 0.3,
                dup_prob: 0.2,
                corrupt_prob: 0.1,
                seed: 5,
                ..ImpairConfig::default()
            },
            ..ClosedConfig::new(40, 0.01, 0.3, 17)
        };
        let mut pop = ClosedPopulation::new(&cfg);
        let (useful, stale) = serve_all(&mut pop, 1e-4, 50.0);
        let st = *pop.stats();
        assert_eq!(st.offered + st.channel_dropped, st.transmissions + duplicated(&st));
        assert!(st.channel_dropped > 0);
        assert!(stale > 0, "duplicates produce stale completions");
        assert_eq!(useful, st.useful);
        assert_eq!(st.useful + st.abandoned_requests + pop.outstanding(), st.requests);
    }

    /// Duplicated deliveries inferred from the counters: each one adds
    /// a second `offered` for a single transmission.
    fn duplicated(st: &ClosedStats) -> u64 {
        st.offered + st.channel_dropped - st.transmissions
    }

    #[test]
    fn population_is_deterministic() {
        let cfg = ClosedConfig {
            channel: ImpairConfig::loss(0.1, 3),
            ..ClosedConfig::new(30, 0.01, 0.2, 23)
        };
        let run = |cfg: &ClosedConfig| {
            let mut pop = ClosedPopulation::new(cfg);
            let mut all = Vec::new();
            while let Some(t) = pop.next_event_time() {
                let mut sends = Vec::new();
                pop.poll_sends(t, &mut sends);
                for s in &sends {
                    if !s.corrupted {
                        pop.ack(s.client, s.req, s.time_s + 2e-4);
                    }
                }
                all.extend(sends);
            }
            (all, *pop.stats())
        };
        let (a1, s1) = run(&cfg);
        let (a2, s2) = run(&cfg);
        assert_eq!(a1, a2);
        assert_eq!(s1, s2);
        assert!(a1.windows(2).all(|w| w[0].time_s <= w[1].time_s), "time-ordered");
    }

    /// The three `serve_all` populations whose send streams are pinned:
    /// retry budget on, budget off (both over a channel lossy enough to
    /// exhaust a budget), and a lossy + duplicating + corrupting one.
    fn pinned_populations() -> [ClosedConfig; 3] {
        let lossy = ClosedConfig {
            channel: ImpairConfig::loss(0.55, 29),
            ..ClosedConfig::new(97, 0.004, 0.4, 41)
        };
        [
            lossy,
            ClosedConfig {
                retry_budget_on: false,
                ..lossy
            },
            ClosedConfig {
                channel: ImpairConfig {
                    drop_prob: 0.25,
                    dup_prob: 0.2,
                    corrupt_prob: 0.1,
                    seed: 5,
                    ..ImpairConfig::default()
                },
                ..ClosedConfig::new(600, 0.01, 0.25, 17)
            },
        ]
    }

    /// Shorthand for a pinned [`ClosedStats`].
    fn pinned(counts: [u64; 6], per_class_requests: [u64; 3], per_class_useful: [u64; 3]) -> ClosedStats {
        let [requests, useful, abandoned_requests, transmissions, offered, channel_dropped] = counts;
        ClosedStats {
            requests,
            useful,
            abandoned_requests,
            transmissions,
            offered,
            channel_dropped,
            per_class_requests,
            per_class_useful,
        }
    }

    #[test]
    fn send_streams_match_the_event_heap_they_replaced() {
        // Captured from the `BinaryHeap<Reverse<Event>>` population
        // before the winner tree went in: every send's (time bits,
        // client, req, corrupted) and the final counters.
        let want = [
            (
                18225052758803256267,
                pinned([2425, 2207, 218, 4911, 2207, 2704], [811, 813, 801], [738, 742, 727]),
            ),
            (
                3106685675947428229,
                pinned([1799, 1799, 0, 4013, 1799, 2214], [680, 640, 479], [680, 640, 479]),
            ),
            (
                3489887751243212316,
                pinned([10959, 10825, 134, 16099, 14432, 4050], [3642, 3650, 3667], [3595, 3603, 3627]),
            ),
        ];
        for (cfg, want) in pinned_populations().iter().zip(want) {
            let mut pop = ClosedPopulation::new(cfg);
            let mut digest = SendDigest::new();
            serve_all_digest(&mut pop, 1e-4, 50.0, &mut digest);
            assert!(pop.drained());
            assert_eq!((digest.0, *pop.stats()), want);
        }
    }

    /// A population whose service (7 ms) is slower than its first
    /// timeout (5 ms): every request retransmits at least once and its
    /// second copy completes stale.
    fn slow_service_population() -> ClosedPopulation {
        ClosedPopulation::new(&ClosedConfig {
            channel: ImpairConfig::loss(0.1, 3),
            ..ClosedConfig::new(64, 0.01, 0.3, 23)
        })
    }

    #[test]
    fn delayed_acks_match_the_event_heap_they_replaced() {
        // Same capture as above, driven in real time order — under the
        // heap, every acknowledgement here left a dead timer queued.
        let mut pop = slow_service_population();
        let mut digest = SendDigest::new();
        let stale = serve_delayed(&mut pop, 0.007, &mut digest);
        assert!(pop.drained());
        assert_eq!(stale, 883);
        let want = pinned([1083, 1083, 0, 2175, 1966, 209], [366, 350, 367], [366, 350, 367]);
        assert_eq!((digest.0, *pop.stats()), (4045195495549428264, want));
    }

    #[test]
    fn an_acknowledged_requests_timer_is_gone() {
        // One client, so the next event is its own: after a useful
        // acknowledgement that is the next think — not the deadline the
        // acknowledged request had armed, which no longer exists.
        let mut pop = ClosedPopulation::new(&ClosedConfig::new(1, 0.002, 0.5, 31));
        let mut sends = Vec::new();
        let mut acked = 0;
        while let Some(t) = pop.next_event_time() {
            sends.clear();
            pop.poll_sends(t, &mut sends);
            let Some(s) = sends.first() else {
                continue;
            };
            let deadline = pop.next_event_time();
            assert_eq!(deadline, Some(s.time_s + pop.policy.timeout_s(1)));
            let done_s = s.time_s + 1e-4;
            assert!(matches!(pop.ack(s.client, s.req, done_s), AckKind::Useful { .. }));
            acked += 1;
            let next = pop.next_event_time();
            assert_ne!(next, deadline, "the dead timer still heads the schedule");
            assert!(next.is_some_and(|n| n >= done_s), "the think starts at the ack");
        }
        assert!(acked > 50);
        assert!(pop.drained(), "nothing but live events, so nothing left");
    }
}
