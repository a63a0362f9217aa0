//! Table 1: working-set sizes by layer — see [`bench::table1`].

fn main() {
    bench::harness::main("table1");
}
