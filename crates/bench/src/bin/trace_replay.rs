//! Section 2.4's per-packet memory traffic, replayed — see [`bench::trace_replay`].

fn main() {
    bench::harness::main("trace_replay");
}
