//! Ablation A7: code-layout sensitivity — see [`bench::ablation_layout`].

fn main() {
    bench::harness::main("ablation_layout");
}
