//! Figure 4's large-/small-message regime boundary — see [`bench::figure4_regimes`].

fn main() {
    bench::harness::main("figure4_regimes");
}
