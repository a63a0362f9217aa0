//! Figure 9: multi-core rate x cores x dispatch policy — see [`bench::figure9`].

fn main() {
    bench::harness::main("figure9");
}
