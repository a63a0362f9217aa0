//! The six workloads: which sweeps each runs, at what size, and why.

use crate::sweeps::{self, Ctx, SeedPlan, Tally};
use crate::trace::{Rec, Span};

/// Grid selection. `Full` is what the metrics are defined on; `Quick`
/// swaps in the smoke grids so a CI job can run everything in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Quick,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line, copied into `BENCHMARK.json`.
    pub why: &'static str,
    body: fn(&mut Ctx, Size) -> Vec<String>,
}

/// Seed counts are sized so one rep takes 1–2 s on a quiet core: a
/// ten-second run then holds five to ten reps and reports their median.
/// The grids are the shipped figures' grids, untouched.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "uni_sweep",
        why: "figure5 rate grid x {conv,ldlp,ilp} + figure7 clock grid on one engine: simnet::sim loop, ldlp engine and cachesim replay hits do all the work; smp, coherence and workload do none",
        body: |ctx, size| match size {
            Size::Full => vec![sweeps::figure5(ctx, 5, 1.0), sweeps::figure7(ctx, 5, 5.0)],
            Size::Quick => vec![sweeps::figure5(ctx, 2, 0.05), sweeps::figure7(ctx, 2, 0.25)],
        },
    },
    Workload {
        name: "smp_open",
        why: "figure9 full grid (6 rates x {1,2,4,8} cores x 6 variants) through SmpSim::run: the open-loop multi-core scheduler, descriptor rings and SharedL2 coherence in steady state",
        body: |ctx, size| match size {
            Size::Full => vec![sweeps::figure9(ctx, false, 1, 1.0)],
            Size::Quick => vec![sweeps::figure9(ctx, true, 1, 0.25)],
        },
    },
    Workload {
        name: "smp_closed",
        why: "figure13 full grid (80 cells) through SmpSim::run_closed + ClosedPopulation: the closed-loop fixpoint, admission policies and scan_best; almost no set-up, the opposite profile to flow_tables",
        body: |ctx, size| match size {
            Size::Full => vec![sweeps::figure13(ctx, false, 1, 0.5)],
            Size::Quick => vec![sweeps::figure13(ctx, true, 1, 0.1)],
        },
    },
    Workload {
        name: "mixed_classes",
        why: "figure14 full grid with workload::generate + to_flow_arrivals + class profiles: the only workload where traffic generation, class dispatch charging and per-class percentile reports are a visible share",
        body: |ctx, size| match size {
            Size::Full => vec![sweeps::figure14(ctx, false, 8, 1.0)],
            Size::Quick => vec![sweeps::figure14(ctx, true, 1, 0.25)],
        },
    },
    Workload {
        name: "flow_tables",
        why: "figure10 full grid (10^2..10^6 flows) through run_sim_lookup: cachesim's data path, few messages but tables of up to 10^6 entries, so set-up and memory dominate and work moved into set-up shows",
        body: |ctx, size| match size {
            Size::Full => vec![sweeps::figure10(ctx, false, 1, 1.0)],
            Size::Quick => vec![sweeps::figure10(ctx, true, 1, 0.25)],
        },
    },
    Workload {
        name: "cold_placements",
        why: "figure9 + figure5 grids at many seeds x 0.05 s: fresh machines every cell, so the replay memo's miss/insert path and SmpSim::new/paper_stack dominate instead of steady-state hits",
        body: |ctx, size| match size {
            Size::Full => vec![sweeps::figure9(ctx, false, 3, 0.05), sweeps::figure5(ctx, 30, 0.05)],
            Size::Quick => vec![sweeps::figure9(ctx, true, 2, 0.05), sweeps::figure5(ctx, 3, 0.05)],
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything one rep produced.
#[derive(Debug)]
pub struct Rep {
    pub wall_ns: u64,
    pub cell_setup_ns: Vec<u64>,
    pub cell_ns: Vec<u64>,
    pub spans: Vec<Span>,
    pub tally: Tally,
    /// FNV-1a of the CSV texts the rep rendered. Two commits with equal
    /// digests have identical simulated statistics.
    pub digest: u64,
}

pub fn digest(texts: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in texts.iter().flat_map(|t| t.bytes().chain([0])) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Workload {
    /// Runs the workload's whole body once: generate → construct →
    /// simulate → reduce → render rows.
    pub fn run_rep(&self, size: Size, base_seed: u64, tracing: bool) -> Rep {
        let mut rec = Rec::new(tracing);
        let mut tally = Tally::default();
        rec.rep_begin();
        let texts = (self.body)(
            &mut Ctx {
                seeds: SeedPlan::distinct(base_seed),
                rec: &mut rec,
                tally: &mut tally,
            },
            size,
        );
        let wall_ns = rec.rep_end();
        Rep {
            wall_ns,
            cell_setup_ns: rec.cell_setup_ns,
            cell_ns: rec.cell_ns,
            spans: rec.spans,
            tally,
            digest: digest(&texts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_repeat_in_process_and_across_seed_round_trips() {
        for w in &WORKLOADS {
            let a = w.run_rep(Size::Quick, 0, false);
            let other = w.run_rep(Size::Quick, 7, false);
            let b = w.run_rep(Size::Quick, 0, true);
            assert_eq!(a.digest, b.digest, "{}: seed 0 twice", w.name);
            assert_eq!(
                a.tally, b.tally,
                "{}: counts repeat exactly, traced or not",
                w.name
            );
            assert_ne!(
                a.digest, other.digest,
                "{}: the seed reaches the inputs",
                w.name
            );
            assert_eq!(a.tally.failed_cells, 0, "{}", w.name);
            assert_eq!(other.tally.failed_cells, 0, "{}", w.name);
            assert_eq!(a.cell_ns.len() as u64, a.tally.cells);
            assert_eq!(a.cell_setup_ns.len(), a.cell_ns.len());
            assert!(a.spans.is_empty() && !b.spans.is_empty());
        }
    }

    #[test]
    fn workloads_exercise_the_layers_they_were_chosen_for() {
        let rep = |name: &str| find(name).unwrap().run_rep(Size::Quick, 0, false).tally;
        let uni = rep("uni_sweep");
        assert!(uni.msgs_sim > 0 && uni.msgs_smp == 0 && uni.coh_transfers == 0);
        let open = rep("smp_open");
        assert!(open.msgs_smp > 0 && open.coh_transfers > 0 && open.closed_requests == 0);
        let closed = rep("smp_closed");
        assert!(
            closed.msgs_smp_closed > 0 && closed.closed_transmissions >= closed.closed_requests
        );
        let tables = rep("flow_tables");
        assert!(tables.table_walks > 0 && tables.table_probes >= tables.table_walks);
        // Fresh machines every 0.05 s: far more memo misses per message
        // than the same grid run warm.
        let cold = rep("cold_placements");
        let per_msg = |t: &Tally| t.replay.misses as f64 / t.msgs_offered as f64;
        assert!(per_msg(&cold) > 3.0 * per_msg(&open));
    }

    #[test]
    fn digest_separates_texts() {
        assert_ne!(
            digest(&["ab".into(), "c".into()]),
            digest(&["a".into(), "bc".into()])
        );
        assert_eq!(digest(&["x".into()]), digest(&["x".into()]));
    }
}
