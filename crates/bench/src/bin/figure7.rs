//! Figure 7: latency vs. CPU clock under self-similar traffic — see [`bench::figures`].

fn main() {
    bench::harness::main("figure7");
}
