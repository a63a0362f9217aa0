//! Figure 6: latency vs. arrival rate — see [`bench::figures`].

fn main() {
    bench::harness::main("figure6");
}
