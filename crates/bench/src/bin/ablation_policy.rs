//! Ablation A3: LDLP batch-sizing policy (Section 3.2) — see [`bench::ablation_policy`].

fn main() {
    bench::harness::main("ablation_policy");
}
