//! Figure 1 + Table 2: receive-path phases and the active-code map — see [`bench::figure1`].

fn main() {
    bench::harness::main("figure1");
}
