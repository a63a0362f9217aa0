//! Figure 10: million-flow lookup tables x cache scheme — see [`bench::figure10`].

fn main() {
    bench::harness::main("figure10");
}
