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
//!
//! The script above warms one machine, so after the first laps nearly
//! every sweep is a memo hit. The paper's own unit of work is the other
//! shape — a fresh random placement per run — where a few messages per
//! machine make memo misses a large share of all sweeps: the `cold_*`
//! tests build many fresh `paper_stack` placements, each driven briefly
//! through a memoized and a memoizer-disabled engine, on the plain, TLB
//! and prefetch machines.

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

/// Placements per machine configuration in the `cold_*` tests.
const PLACEMENTS: u64 = 60;

/// `PLACEMENTS` fresh `paper_stack` placements of `cfg`, each with its
/// own message pool and discipline, 12 batches apiece through a memoized
/// and a walked engine that must agree after every batch. Returns the
/// memoized side's replay counts and its `[I-misses, D-misses, cycles]`,
/// each summed over the placements. The tests pin both to what the
/// full-scan placement, the per-line walk and the two-copy interner
/// produced for the same script, so the neighbour-test placement, the
/// line-list walk (which both engines share) and the one-hash interner
/// are held to the same layouts, the same simulated numbers and the same
/// memo decisions.
fn cold_placements(cfg: MachineConfig) -> (ReplayStats, [u64; 3]) {
    let disciplines = [
        Discipline::Conventional,
        Discipline::Ilp,
        Discipline::Ldlp(BatchPolicy::DCacheFit),
    ];
    let mut rng = XorShift(0x5eed_c01d);
    let mut total = replay_stats(0, 0, 0);
    let mut sim = [0; 3];
    let (mut out_memo, mut out_walk): (Vec<Completion>, Vec<Completion>) = (Vec::new(), Vec::new());
    for seed in 0..PLACEMENTS {
        let discipline = disciplines[(seed % 3) as usize];
        let [mut memo, mut walk] = [true, false].map(|replay| {
            let (mut machine, rx) = paper_stack(cfg, seed);
            machine.set_replay_enabled(replay);
            StackEngine::new(machine, rx, discipline)
        });
        let mut pool = MessagePool::new(64, 1536, seed);
        let mut id = 0;
        for b in 0..12 {
            let batch: Vec<SimMessage> = (0..1 + rng.next() % 16)
                .map(|_| {
                    id += 1;
                    pool.make_message(id, LENGTHS[(rng.next() % LENGTHS.len() as u64) as usize])
                })
                .collect();
            memo.process_batch_into(&batch, &mut out_memo);
            walk.process_batch_into(&batch, &mut out_walk);
            let at = format!("{discipline:?} placement {seed} batch {b}");
            assert_eq!(out_memo, out_walk, "{at}");
            assert_eq!(
                counters(memo.machine().stats()),
                counters(walk.machine().stats()),
                "{at}"
            );
        }
        let (m, w) = (memo.machine().replay_stats(), walk.machine().replay_stats());
        assert_eq!(w, replay_stats(0, 0, m.accesses()), "the walked side bypasses every sweep");
        total.hits += m.hits;
        total.misses += m.misses;
        total.bypasses += m.bypasses;
        let (imiss, dmiss) = memo.machine().miss_counts();
        for (sum, x) in sim.iter_mut().zip([imiss, dmiss, memo.machine().cycles()]) {
            *sum += x;
        }
    }
    (total, sim)
}

#[test]
fn cold_synthetic() {
    let got = cold_placements(MachineConfig::synthetic_benchmark());
    assert_eq!(got, (replay_stats(30360, 590, 0), [4205116, 218626, 139530220]));
}

#[test]
fn cold_alpha_tlbs() {
    let got = cold_placements(MachineConfig::synthetic_benchmark().with_alpha_tlbs());
    assert_eq!(got, (replay_stats(30170, 780, 0), [4205116, 218626, 139773940]));
}

#[test]
fn cold_prefetch() {
    let got = cold_placements(MachineConfig::synthetic_benchmark().with_prefetch());
    assert_eq!(got, (replay_stats(30353, 597, 0), [4205699, 218626, 97490240]));
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
