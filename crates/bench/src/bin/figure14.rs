//! Figure 14: mixed multi-protocol service, per-class SLOs x cores — see [`bench::figure14`].

fn main() {
    bench::harness::main("figure14");
}
