//! The signalling performance experiment (DESIGN.md experiment G1).
//!
//! The paper's goal: "support 10000 pairs of setup/teardown requests per
//! second with processing latency of 100 microseconds for setup requests,
//! using just a commodity workstation processor" (Section 1), against the
//! observation that contemporary implementations spent 5–20 ms per
//! message. The experiment runs a four-layer signalling stack — AAL5
//! framing, an SSCOP-like reliable transport, the Q.93B codec, and call
//! control — under paired SETUP/RELEASE load, comparing conventional and
//! LDLP scheduling.
//!
//! Layer footprints are sized from the structure of real signalling
//! stacks (the codec dominates; per-message cycle counts in the low
//! thousands): together ~30 KB of code, far beyond an 8 KB I-cache —
//! exactly the "sum of the parts including more functionality than is
//! strictly necessary" regime the paper's conclusion describes.

use cachesim::{Machine, MachineConfig, Region};
use ldlp::layer::SyntheticLayer;
use ldlp::SimLayer;
use simnet::traffic::{Arrival, PoissonSource, TrafficSource};

/// Per-layer parameters of the signalling stack: name, code bytes, data
/// bytes, and base instruction cycles per message.
pub const SIGNALING_LAYERS: [(&str, u64, u64, u64); 4] = [
    ("aal5", 4 * 1024, 256, 1200),
    ("sscop", 8 * 1024, 512, 2000),
    ("q93b-codec", 10 * 1024, 512, 2600),
    ("call-control", 8 * 1024, 1024, 2200),
];

/// Encoded size of a SETUP used by the load generator (~100 bytes).
pub const SETUP_BYTES: u32 = 108;
/// Encoded size of a RELEASE.
pub const RELEASE_BYTES: u32 = 44;

/// Builds the signalling stack on `cfg` with seeded random placement.
pub fn signaling_stack(cfg: MachineConfig, seed: u64) -> (Machine, Vec<Box<dyn SimLayer>>) {
    let line = cfg.icache.line_size;
    let window = Region::new(0x0010_0000, 4 << 20);
    let data_window = Region::new(0x0800_0000, 1 << 20);
    let mut code_place = cachesim::RandomPlacement::new(seed, window, line);
    let mut data_place = cachesim::RandomPlacement::new(seed ^ 0x5196, data_window, line);
    let layers = SIGNALING_LAYERS
        .iter()
        .map(|&(name, code, data, cycles)| {
            let code_region = code_place.place(((code as f64) * cfg.code_density) as u64);
            let data_region = data_place.place(data);
            Box::new(
                SyntheticLayer::new(name, code_region, data_region, line)
                    .with_cycles(cycles, 0.5),
            ) as Box<dyn SimLayer>
        })
        .collect();
    (Machine::new(cfg), layers)
}

/// A 1996 "commodity workstation processor" for the goal experiment: a
/// 500 MHz Alpha-21164-class part with the same 8 KB primary caches and a
/// 30-cycle primary-miss penalty (faster clocks widen the CPU/memory
/// gap — cf. Rosenblum's prediction quoted in Section 1.2).
pub fn goal_machine() -> MachineConfig {
    MachineConfig {
        read_miss_penalty: 30,
        clock_mhz: 500.0,
        ..MachineConfig::synthetic_benchmark()
    }
}

/// Generates paired setup/teardown load: `pairs_per_s` Poisson call
/// attempts per second, each contributing a SETUP and, a mean hold time
/// later, a RELEASE. Returns a time-sorted arrival list.
pub fn call_arrivals(pairs_per_s: f64, hold_s: f64, duration_s: f64, seed: u64) -> Vec<Arrival> {
    let mut setups = PoissonSource::new(pairs_per_s, SETUP_BYTES, seed);
    let mut out = Vec::new();
    for s in setups.take_until(duration_s) {
        out.push(s);
        let release_t = s.time_s + hold_s;
        if release_t < duration_s {
            out.push(Arrival {
                time_s: release_t,
                bytes: RELEASE_BYTES,
                corrupted: false,
            });
        }
    }
    out.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldlp::{BatchPolicy, Discipline, StackEngine};
    use simnet::{run_sim, SimConfig};

    #[test]
    fn stack_shape() {
        let (m, layers) = signaling_stack(goal_machine(), 1);
        assert_eq!(layers.len(), 4);
        let code: u64 = layers.iter().map(|l| l.code_lines().len() as u64 * 32).sum();
        assert!(code > 28 * 1024, "stack code ~30 KB, got {code}");
        assert_eq!(m.config().clock_mhz, 500.0);
    }

    #[test]
    fn arrivals_are_paired_and_sorted() {
        let a = call_arrivals(1000.0, 0.05, 1.0, 3);
        assert!(a.windows(2).all(|w| w[0].time_s <= w[1].time_s));
        let setups = a.iter().filter(|x| x.bytes == SETUP_BYTES).count();
        let releases = a.iter().filter(|x| x.bytes == RELEASE_BYTES).count();
        assert!(setups >= releases);
        assert!(setups - releases < 100, "only tail setups lack releases");
    }

    /// A scaled-down version of experiment G1: at 10k pairs/s (20k
    /// messages/s), LDLP meets the paper's goal and conventional
    /// scheduling does not.
    #[test]
    fn goal_experiment_smoke() {
        let arrivals = call_arrivals(10_000.0, 0.02, 0.25, 7);
        let cfg = SimConfig {
            duration_s: 0.25,
            ..SimConfig::default()
        };
        let (m, layers) = signaling_stack(goal_machine(), 5);
        let mut ldlp = StackEngine::new(m, layers, Discipline::Ldlp(BatchPolicy::DCacheFit));
        let rl = run_sim(&mut ldlp, &arrivals, &cfg);

        let (m, layers) = signaling_stack(goal_machine(), 5);
        let mut conv = StackEngine::new(m, layers, Discipline::Conventional);
        let rc = run_sim(&mut conv, &arrivals, &cfg);

        assert_eq!(rl.drops, 0, "LDLP must sustain 20k msgs/s");
        assert!(
            rl.p99_latency_us < 1000.0,
            "LDLP p99 {} us should be well-behaved",
            rl.p99_latency_us
        );
        // Amortized processing cost per message (excluding queueing)
        // meets the paper's 100 us goal.
        let clock = goal_machine().clock_mhz;
        let instr: u64 = SIGNALING_LAYERS.iter().map(|l| l.3).sum();
        let processing_us =
            (instr as f64 + rl.mean_imiss * goal_machine().read_miss_penalty as f64) / clock;
        assert!(
            processing_us < 100.0,
            "amortized processing {processing_us} us misses the goal"
        );
        assert!(
            rl.mean_latency_us < rc.mean_latency_us / 10.0,
            "LDLP {} vs conventional {}",
            rl.mean_latency_us,
            rc.mean_latency_us
        );
        assert!(rc.drops > 0, "conventional should shed load at 20k msgs/s");
    }
}
