//! Ablation A2: cache dilution and dense layouts — see [`bench::ablation_dilution`].

fn main() {
    bench::harness::main("ablation_dilution");
}
