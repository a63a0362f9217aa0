//! Ablation A8: next-line instruction prefetch vs. LDLP — see [`bench::ablation_prefetch`].

fn main() {
    bench::harness::main("ablation_prefetch");
}
