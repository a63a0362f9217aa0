//! Ablation A5: transmit-side LDLP — see [`bench::ablation_transmit`].

fn main() {
    bench::harness::main("ablation_transmit");
}
