//! The saturated-path impairment sweep: loss, bursts and reordering — see [`bench::impairments`].

fn main() {
    bench::harness::main("impairments");
}
