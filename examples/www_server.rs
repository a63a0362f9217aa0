//! The conclusion's WWW-server scenario: "LDLP may improve performance
//! for Internet WWW servers, where the data transfer unit is 512 bytes or
//! less in most circumstances" (Section 6).
//!
//! Models a 1996 web server: many concurrent connections, each exchanging
//! small HTTP requests (~200 B) and small responses (~512 B), through the
//! full TCP/IP receive path whose working set Section 2 measured at
//! ~35 KB. Compares request latency and capacity under conventional and
//! LDLP scheduling, sweeping request rate.
//!
//! Run with: `cargo run --release --example www_server`

use cachesim::MachineConfig;
use ldlp::synth::stack_with;
use ldlp::{BatchPolicy, Discipline, StackEngine};
use simnet::traffic::{Arrival, PoissonSource, TrafficSource};
use simnet::{run_sim, SimConfig};

/// Builds a web-server-bound packet mix: alternating ~200-byte requests
/// and 512-byte response segments (ACK-clocked), Poisson request process.
fn http_arrivals(requests_per_s: f64, duration_s: f64, seed: u64) -> Vec<Arrival> {
    let mut reqs = PoissonSource::new(requests_per_s, 200, seed);
    let mut out = Vec::new();
    for r in reqs.take_until(duration_s) {
        out.push(r);
        // The client's ACK of our 512-byte response arrives ~one RTT
        // later and must also climb the receive path.
        let ack_t = r.time_s + 0.002;
        if ack_t < duration_s {
            out.push(Arrival {
                time_s: ack_t,
                bytes: 64,
                corrupted: false,
            });
        }
    }
    out.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
    out
}

fn main() {
    // The measured TCP/IP stack: ~35 KB of code+RO data across the whole
    // receive path. Modelled as 6 layers of 6 KB (device, ethernet, ip,
    // tcp, socket, kernel glue — the six candidate layers of Figure 1).
    let machine = MachineConfig::synthetic_benchmark();
    println!(
        "WWW server on a {} MHz CPU with {} KB I-cache; TCP/IP receive path\n\
         modelled as 6 layers x 6 KB (Figure 1's candidate layers).\n",
        machine.clock_mhz,
        machine.icache.size_bytes / 1024
    );
    println!(
        "{:>9}  {:>14} {:>8}   {:>14} {:>8} {:>7}",
        "req/s", "conv lat", "drops", "LDLP lat", "drops", "batch"
    );
    for rps in [500.0, 1000.0, 2000.0, 3000.0, 4000.0] {
        let arrivals = http_arrivals(rps, 1.0, 11);
        let cfg = SimConfig::default();

        let (m, layers) = stack_with(machine, 3, 6, 6 * 1024, 256);
        let mut conv = StackEngine::new(m, layers, Discipline::Conventional);
        let rc = run_sim(&mut conv, &arrivals, &cfg);

        let (m, layers) = stack_with(machine, 3, 6, 6 * 1024, 256);
        let mut ldlp = StackEngine::new(m, layers, Discipline::Ldlp(BatchPolicy::DCacheFit));
        let rl = run_sim(&mut ldlp, &arrivals, &cfg);

        println!(
            "{:>9}  {:>12.0}us {:>8}   {:>12.0}us {:>8} {:>7.1}",
            rps, rc.mean_latency_us, rc.drops, rl.mean_latency_us, rl.drops, rl.mean_batch
        );
    }
    println!(
        "\nEach HTTP request is two small packets up the stack (request +\n\
         ACK); with six layers of code the working set is ~36 KB and the\n\
         conventional server saturates at a fraction of the load LDLP\n\
         sustains — small messages make web servers signalling-bound."
    );
}
