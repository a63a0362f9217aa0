//! Table 3: cache-line size vs. working set — see [`bench::table3`].

fn main() {
    bench::harness::main("table3");
}
