//! Engine-level differential: the replay memoizer, the per-layer
//! constants the engine caches and the bulk data sweeps change how fast a
//! batch is simulated, never what it simulates.
//!
//! For every discipline, simplex and duplex, one scripted run of 1 000
//! batches — batch sizes 1..=16, message lengths drawn per message from a
//! ladder (so the engine's per-layer cycle cache is invalidated and
//! refilled constantly), one message in eight corrupted, a cache flush
//! every 97 batches (so live memo states are materialized and re-interned)
//! — goes through a replay-enabled engine and a
//! `set_replay_enabled(false)` engine. They must agree on every
//! `Completion`, every `MachineStats` counter and the cycle count after
//! every batch. The enabled side's `ReplayStats` are also pinned to the
//! numbers the commit before the in-place replay hit produced for the same
//! script (6ebebf3): a hit answered where the memo sits is still exactly
//! one hit. (The duplex rows are that commit's code-memo counts — it also
//! ran a data-sweep memo on those machines, since removed, whose counts
//! were summed in.)

use cachesim::{MachineConfig, MachineStats, ReplayStats};
use ldlp::synth::{paper_stack, stack_with, MessagePool};
use ldlp::{BatchPolicy, Completion, Discipline, SimMessage, StackEngine};

const BATCHES: usize = 1_000;
/// Empty, sub-line, the paper's 552 B, one byte more, near-MTU.
const LENGTHS: [u64; 5] = [0, 48, 552, 553, 1440];

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Simplex runs use the plain synthetic machine; duplex runs add the
/// Alpha TLBs, so the TLB-keyed replay states and
/// `MachineStats::{itlb, dtlb}` are covered too.
fn engine(discipline: Discipline, duplex: bool, replay: bool) -> StackEngine {
    let cfg = if duplex {
        MachineConfig::synthetic_benchmark().with_alpha_tlbs()
    } else {
        MachineConfig::synthetic_benchmark()
    };
    let (mut machine, rx) = paper_stack(cfg, 17);
    machine.set_replay_enabled(replay);
    let e = StackEngine::new(machine, rx, discipline).with_verify_layer(1);
    if duplex {
        let (_, tx) = stack_with(cfg, 99, 3, 4 * 1024, 256);
        e.with_tx(tx, 58)
    } else {
        e
    }
}

/// `MachineStats` has no `PartialEq`; every field of it does.
fn counters(s: MachineStats) -> impl PartialEq + std::fmt::Debug {
    (
        s.icache,
        s.dcache,
        s.itlb,
        s.dtlb,
        s.l2,
        s.instr_cycles,
        s.stall_cycles,
    )
}

fn run_script(discipline: Discipline, duplex: bool) -> ReplayStats {
    let mut memo = engine(discipline, duplex, true);
    let mut walk = engine(discipline, duplex, false);
    let mut pool = MessagePool::new(32, 1536, 5);
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut batch: Vec<SimMessage> = Vec::new();
    let (mut out_memo, mut out_walk): (Vec<Completion>, Vec<Completion>) = (Vec::new(), Vec::new());
    let mut id = 0;
    for b in 0..BATCHES {
        if b % 97 == 96 {
            memo.machine_mut().flush_caches();
            walk.machine_mut().flush_caches();
        }
        batch.clear();
        for _ in 0..1 + rng.next() % 16 {
            let len = LENGTHS[(rng.next() % LENGTHS.len() as u64) as usize];
            let mut msg = pool.make_message(id, len);
            msg.corrupted = rng.next().is_multiple_of(8);
            batch.push(msg);
            id += 1;
        }
        memo.process_batch_into(&batch, &mut out_memo);
        walk.process_batch_into(&batch, &mut out_walk);
        assert_eq!(
            out_memo, out_walk,
            "{discipline:?} duplex={duplex}: batch {b}"
        );
        assert_eq!(
            counters(memo.machine().stats()),
            counters(walk.machine().stats()),
            "{discipline:?} duplex={duplex}: stats after batch {b}"
        );
        assert_eq!(memo.machine().cycles(), walk.machine().cycles());
    }
    assert_eq!(walk.machine().replay_stats().hits, 0);
    memo.machine().replay_stats()
}

fn replay_stats(hits: u64, misses: u64, bypasses: u64) -> ReplayStats {
    ReplayStats {
        hits,
        misses,
        bypasses,
    }
}

#[test]
fn conventional_simplex() {
    let got = run_script(Discipline::Conventional, false);
    assert_eq!(got, replay_stats(37440, 11, 0));
}

#[test]
fn conventional_duplex() {
    let got = run_script(Discipline::Conventional, true);
    assert_eq!(got, replay_stats(58659, 23, 0));
}

#[test]
fn ilp_simplex() {
    let got = run_script(Discipline::Ilp, false);
    assert_eq!(got, replay_stats(37440, 11, 0));
}

#[test]
fn ilp_duplex() {
    let got = run_script(Discipline::Ilp, true);
    assert_eq!(got, replay_stats(58659, 23, 0));
}

#[test]
fn ldlp_simplex() {
    let got = run_script(Discipline::Ldlp(BatchPolicy::DCacheFit), false);
    assert_eq!(got, replay_stats(37431, 20, 0));
}

#[test]
fn ldlp_duplex() {
    let got = run_script(Discipline::Ldlp(BatchPolicy::DCacheFit), true);
    assert_eq!(got, replay_stats(58643, 39, 0));
}
