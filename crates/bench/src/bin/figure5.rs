//! Figure 5: cache misses per message vs. arrival rate — see [`bench::figures`].

fn main() {
    bench::harness::main("figure5");
}
