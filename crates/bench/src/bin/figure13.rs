//! Figure 13: closed-loop overload and goodput collapse — see [`bench::figure13`].

fn main() {
    bench::harness::main("figure13");
}
