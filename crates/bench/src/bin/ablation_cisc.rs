//! Ablation A1: CISC code density (Section 5.2) — see [`bench::ablation_cisc`].

fn main() {
    bench::harness::main("ablation_cisc");
}
