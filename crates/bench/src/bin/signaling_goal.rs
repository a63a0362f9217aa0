//! The paper's goal: 10 000 setup/teardown pairs/s at 100 us — see [`bench::signaling_goal`].

fn main() {
    bench::harness::main("signaling_goal");
}
