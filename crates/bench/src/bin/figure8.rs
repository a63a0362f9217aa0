//! Figure 8: checksum cycles, warm and cold — see [`bench::figure8`].

fn main() {
    bench::harness::main("figure8");
}
