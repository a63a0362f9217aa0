//! Ablation A4: will large caches make LDLP irrelevant? — see [`bench::ablation_cachesize`].

fn main() {
    bench::harness::main("ablation_cachesize");
}
