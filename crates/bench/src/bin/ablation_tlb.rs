//! Ablation A6: TLB refills per message — see [`bench::ablation_tlb`].

fn main() {
    bench::harness::main("ablation_tlb");
}
