//! The online LDLP batch factor tracking bursty load — see [`bench::dynamics`].

fn main() {
    bench::harness::main("dynamics");
}
