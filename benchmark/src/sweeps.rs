//! The figure sweeps, re-assembled from public functions.
//!
//! `crates/bench` runs each grid cell inside a private `run_cell`; the
//! bodies are repeated here call for call so a clock can be read between
//! the calls. Every sweep runs its cells in the shipped binaries' job
//! order on one thread, reduces the per-seed results exactly as the
//! shipped `sweep` functions do, and returns the CSV text the binary
//! would have written — `verify` holds that text against the committed
//! goldens byte for byte.
//!
//! A *cell* is one simulator run: one (grid point, variant, seed). Which
//! seeds a grid point's cells get is the [`SeedPlan`]'s decision.

use crate::trace::Rec;
use bench::sweep::SweepPoint;
use bench::{csv_text, figure10, figure13, figure14, figure9, figures};
use cachesim::{MachineConfig, ReplayStats};
use ldlp::synth::paper_stack;
use ldlp::{BatchPolicy, Discipline, StackEngine};
use simnet::closed::{Class, ClosedPopulation};
use simnet::impair::ImpairCounters;
use simnet::stats::{ClassReport, SimReport};
use simnet::traffic::{Arrival, PoissonSource, SelfSimilarSource, TrafficSource};
use simnet::{run_sim, run_sim_lookup, ClosedConfig, SimConfig};
use smp::{tag_flows, SmpConfig, SmpOutcome, SmpSim, MAX_WCLASS};
use workload::WireClass;

/// Which simulator entry point ran a cell (denominators of the
/// `*_ns_per_msg` metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    Sim,
    Smp,
    SmpClosed,
}

/// What a rep accumulates from the public outcome structs: the checks,
/// the simulated end-to-end statistics and the per-layer counts. All of
/// it is deterministic for a given seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub cells: u64,
    pub failed_cells: u64,
    pub msgs_offered: u64,
    pub msgs_completed: u64,
    /// Σ over cells of `mean_imiss × offered` (and likewise below), so
    /// dividing by `msgs_offered` gives the message-weighted mean.
    pub imiss_weighted: f64,
    pub dmiss_weighted: f64,
    pub batch_weighted: f64,
    /// Each cell's `p99_latency_us`.
    pub p99_us: Vec<f64>,
    pub msgs_sim: u64,
    pub msgs_smp: u64,
    pub msgs_smp_closed: u64,
    pub replay: ReplayStats,
    pub coh_transfers: u64,
    pub coh_invalidations: u64,
    pub coh_stall_cycles: u64,
    pub handoff_msgs: u64,
    pub bp_stall_cycles: u64,
    pub closed_requests: u64,
    pub closed_transmissions: u64,
    pub table_probes: u64,
    pub table_walks: u64,
    pub table_cache_hits: u64,
}

fn all_finite(values: &[f64]) -> bool {
    values.iter().all(|v| v.is_finite())
}

/// A cell's report passes if the conservation law closes, the simulator
/// was offered exactly what the generator produced, and every reported
/// statistic is a finite number.
pub fn report_ok(r: &SimReport, generated: u64) -> bool {
    r.conservation_holds()
        && r.offered == generated
        && all_finite(&[
            r.duration_s,
            r.span_s,
            r.mean_latency_us,
            r.p50_latency_us,
            r.p99_latency_us,
            r.max_latency_us,
            r.mean_imiss,
            r.mean_dmiss,
            r.throughput,
            r.goodput,
            r.offered_load,
            r.mean_batch,
        ])
}

/// A class bucket passes if it closes on its own, matches the
/// generator's count for the class, and is finite.
pub fn class_ok(c: &ClassReport, generated: u64) -> bool {
    c.offered == generated
        && c.offered == c.completed + c.rejected + c.drops + c.shed
        && all_finite(&[
            c.p50_latency_us,
            c.p99_latency_us,
            c.mean_imiss,
            c.mean_dmiss,
            c.slo_attainment,
        ])
}

impl Tally {
    /// Folds one finished cell in. `ok` is the cell's verdict from
    /// [`report_ok`] (and [`class_ok`] where classes are reported).
    pub fn note_cell(&mut self, r: &SimReport, replay: ReplayStats, kind: RunKind, ok: bool) {
        self.cells += 1;
        self.failed_cells += u64::from(!ok);
        self.msgs_offered += r.offered;
        self.msgs_completed += r.completed;
        let w = r.offered as f64;
        self.imiss_weighted += r.mean_imiss * w;
        self.dmiss_weighted += r.mean_dmiss * w;
        self.batch_weighted += r.mean_batch * w;
        self.p99_us.push(r.p99_latency_us);
        match kind {
            RunKind::Sim => self.msgs_sim += r.offered,
            RunKind::Smp => self.msgs_smp += r.offered,
            RunKind::SmpClosed => self.msgs_smp_closed += r.offered,
        }
        self.replay.hits += replay.hits;
        self.replay.misses += replay.misses;
        self.replay.bypasses += replay.bypasses;
    }

    fn note_smp(&mut self, out: &SmpOutcome, kind: RunKind, ok: bool) {
        self.note_cell(&out.report, out.replay, kind, ok);
        self.coh_transfers += out.coherence.transfers;
        self.coh_invalidations += out.coherence.invalidations;
        self.coh_stall_cycles += out.coherence.stall_cycles;
        self.handoff_msgs += out.handoff_msgs;
        self.bp_stall_cycles += out.per_core.iter().map(|c| c.bp_stall_cycles).sum::<u64>();
    }
}

/// Hands each grid point the seeds of its cells.
///
/// The shipped binaries give every grid point seeds `1..=n`; with few
/// seeds that makes every cell of a sweep share one code/data placement
/// and one arrival stream per rate, and the simulated statistics inherit
/// that placement's luck (D-misses per message moved 9–18 % from seed to
/// seed). [`SeedPlan::distinct`] gives every grid point its own seeds
/// instead, so a rep averages over as many placements as it has cells.
#[derive(Debug, Clone)]
pub struct SeedPlan {
    base: u64,
    distinct: bool,
    handed_out: u64,
}

impl SeedPlan {
    /// `base + 1 ..= base + n` at every grid point; `base = 0` is what
    /// the shipped binaries run.
    pub fn shipped(base: u64) -> SeedPlan {
        SeedPlan {
            base,
            distinct: false,
            handed_out: 0,
        }
    }

    /// Consecutive, never repeated seeds. Run seed `s` owns the block
    /// starting at `s · 2²⁰ + 1`, so two run seeds share no cell seed.
    pub fn distinct(run_seed: u64) -> SeedPlan {
        SeedPlan {
            base: run_seed.wrapping_mul(1 << 20),
            distinct: true,
            handed_out: 0,
        }
    }

    fn next(&mut self, n: u64) -> std::ops::RangeInclusive<u64> {
        let first = self.base + if self.distinct { self.handed_out } else { 0 };
        self.handed_out += n;
        first + 1..=first + n
    }
}

/// Where a sweep gets its seeds and records its clocks and its counts.
pub struct Ctx<'a> {
    pub seeds: SeedPlan,
    pub rec: &'a mut Rec,
    pub tally: &'a mut Tally,
}

fn average(ctx: &mut Ctx, reports: &[SimReport]) -> SimReport {
    ctx.rec
        .span("simnet.stats.average", || SimReport::average(reports))
        .expect("a sweep runs at least one seed")
}

fn export(ctx: &mut Ctx, render: impl FnOnce() -> String) -> String {
    ctx.rec.span("bench.export", render)
}

fn sim_config(duration_s: f64, seed: u64) -> SimConfig {
    SimConfig {
        duration_s,
        pool_seed: seed,
        ..SimConfig::default()
    }
}

/// One (x, seed) job of figures 5 and 7: the same arrival stream through
/// a fresh engine per discipline, one cell each. The stream is generated
/// inside the first cell, as `bench::sweep` does.
fn uni_job(
    ctx: &mut Ctx,
    cfg: MachineConfig,
    disciplines: &[Discipline],
    seed: u64,
    duration_s: f64,
    source: &mut dyn TrafficSource,
) -> Vec<SimReport> {
    let mut arrivals: Vec<Arrival> = Vec::new();
    let mut reports = Vec::with_capacity(disciplines.len());
    for (i, &discipline) in disciplines.iter().enumerate() {
        ctx.rec.cell_begin();
        if i == 0 {
            arrivals = ctx
                .rec
                .span("simnet.traffic.gen", || source.take_until(duration_s));
        }
        let mut engine = ctx.rec.span("ldlp.engine.new", || {
            let (machine, layers) = paper_stack(cfg, seed);
            StackEngine::new(machine, layers, discipline)
        });
        ctx.rec.setup_done();
        let sim_cfg = sim_config(duration_s, seed);
        let report = ctx.rec.span("simnet.sim.run", || {
            run_sim(&mut engine, &arrivals, &sim_cfg)
        });
        ctx.rec.cell_end();
        let ok = report_ok(&report, arrivals.len() as u64);
        ctx.tally
            .note_cell(&report, engine.machine().replay_stats(), RunKind::Sim, ok);
        reports.push(report);
    }
    reports
}

/// Averages column `col` of a chunk of per-seed jobs.
fn average_column(ctx: &mut Ctx, chunk: &[Vec<SimReport>], col: usize) -> SimReport {
    let column: Vec<SimReport> = chunk.iter().map(|job| job[col].clone()).collect();
    average(ctx, &column)
}

/// Figure 5 (and 6): Poisson rate grid × {conv, ldlp, ilp}.
pub fn figure5(ctx: &mut Ctx, seeds: u64, duration_s: f64) -> String {
    let cfg = MachineConfig::synthetic_benchmark();
    let rates = bench::figure5_rates();
    let disciplines = [
        Discipline::Conventional,
        Discipline::Ldlp(BatchPolicy::DCacheFit),
        Discipline::Ilp,
    ];
    let mut points = Vec::new();
    for &rate in &rates {
        let jobs: Vec<Vec<SimReport>> = ctx
            .seeds
            .next(seeds)
            .map(|seed| {
                let mut source = PoissonSource::new(rate, 552, seed);
                uni_job(ctx, cfg, &disciplines, seed, duration_s, &mut source)
            })
            .collect();
        points.push(SweepPoint {
            x: rate,
            conventional: average_column(ctx, &jobs, 0),
            ldlp: average_column(ctx, &jobs, 1),
            ilp: Some(average_column(ctx, &jobs, 2)),
        });
    }
    export(ctx, || {
        csv_text(&figures::FIGURE5_HEADER, &figures::figure5_rows(&points))
    })
}

/// Figure 7: self-similar traffic × CPU clock grid × {conv, ldlp}.
pub fn figure7(ctx: &mut Ctx, seeds: u64, duration_s: f64) -> String {
    let disciplines = [
        Discipline::Conventional,
        Discipline::Ldlp(BatchPolicy::DCacheFit),
    ];
    let mut points = Vec::new();
    for &mhz in &bench::figure7_clocks() {
        let cfg = MachineConfig::synthetic_benchmark().with_clock_mhz(mhz);
        let jobs: Vec<Vec<SimReport>> = ctx
            .seeds
            .next(seeds)
            .map(|seed| {
                let mut source = SelfSimilarSource::bellcore_like(seed);
                uni_job(ctx, cfg, &disciplines, seed, duration_s, &mut source)
            })
            .collect();
        points.push(SweepPoint {
            x: mhz,
            conventional: average_column(ctx, &jobs, 0),
            ldlp: average_column(ctx, &jobs, 1),
            ilp: None,
        });
    }
    export(ctx, || {
        csv_text(&figures::FIGURE7_HEADER, &figures::figure7_rows(&points))
    })
}

/// Element-wise mean of per-seed side metrics, summed in seed order.
fn mean_extras<const N: usize>(chunk: &[[f64; N]]) -> [f64; N] {
    let mut acc = [0.0f64; N];
    for extras in chunk {
        for (a, x) in acc.iter_mut().zip(extras) {
            *a += x;
        }
    }
    acc.map(|a| a / chunk.len() as f64)
}

/// Figure 9: arrival rate × core count × six (discipline, dispatch)
/// variants through the open-loop multi-core simulator.
pub fn figure9(ctx: &mut Ctx, smoke: bool, seeds: u64, duration_s: f64) -> String {
    let mut points = Vec::new();
    for &rate in figure9::rates(smoke) {
        for &cores in figure9::core_counts(smoke) {
            let mut variants = Vec::new();
            for v in figure9::variants() {
                let mut reports = Vec::new();
                let mut extras = Vec::new();
                for seed in ctx.seeds.next(seeds) {
                    ctx.rec.cell_begin();
                    let raw = ctx.rec.span("simnet.traffic.gen", || {
                        PoissonSource::new(rate, figure9::MSG_BYTES, seed).take_until(duration_s)
                    });
                    let arrivals = ctx
                        .rec
                        .span("smp.steer.tag", || tag_flows(&raw, figure9::FLOWS, seed));
                    let cfg = SmpConfig {
                        duration_s,
                        placement_seed: seed,
                        ..SmpConfig::new(cores, v.dispatch, v.discipline)
                    };
                    let mut sim = ctx.rec.span("smp.sim.new", || SmpSim::new(&cfg));
                    ctx.rec.setup_done();
                    ctx.rec.span("smp.sim.run", || sim.run(&arrivals));
                    let out = ctx
                        .rec
                        .span("smp.sim.outcome", || sim.outcome(ImpairCounters::default()));
                    ctx.rec.cell_end();
                    let ok = report_ok(&out.report, arrivals.len() as u64);
                    ctx.tally.note_smp(&out, RunKind::Smp, ok);
                    extras.push([
                        out.coherence.transfers as f64,
                        out.coherence.invalidations as f64,
                        out.coherence.stall_cycles as f64,
                        out.handoff_msgs as f64,
                    ]);
                    reports.push(out.report);
                }
                let [l2_transfers, l2_invalidations, l2_stall_cycles, handoff_msgs] =
                    mean_extras(&extras);
                variants.push(figure9::VariantPoint {
                    discipline: v.discipline_label,
                    dispatch: v.dispatch_label,
                    report: average(ctx, &reports),
                    l2_transfers,
                    l2_invalidations,
                    l2_stall_cycles,
                    handoff_msgs,
                });
            }
            points.push(figure9::Figure9Point {
                rate,
                cores,
                variants,
            });
        }
    }
    export(ctx, || {
        csv_text(&figure9::FIGURE9_HEADER, &figure9::figure9_rows(&points))
    })
}

/// Figure 10: flow population 10² → 10⁶ × {conv, ldlp} × lookup-cache
/// variants, one table lookup charged per message.
pub fn figure10(ctx: &mut Ctx, smoke: bool, seeds: u64, duration_s: f64) -> String {
    let disciplines = [
        ("conv", Discipline::Conventional),
        ("ldlp", Discipline::Ldlp(BatchPolicy::DCacheFit)),
    ];
    let mut points = Vec::new();
    for &pop in figure10::populations(smoke) {
        for (label, discipline) in disciplines {
            let mut variants = Vec::new();
            for v in figure10::variants(smoke) {
                let mut reports = Vec::new();
                // Σ over seeds of [cache hits, cache misses, table probes].
                let mut sums = [0u64; 3];
                for seed in ctx.seeds.next(seeds) {
                    ctx.rec.cell_begin();
                    let arrivals = ctx.rec.span("simnet.traffic.gen", || {
                        PoissonSource::new(figure10::RATE, figure10::MSG_BYTES, seed)
                            .take_until(duration_s)
                    });
                    let flow_ids = ctx.rec.span("netstack.table.build", || {
                        figure10::flow_sequence(pop, arrivals.len(), seed, v.popmodel)
                    });
                    let mut engine = ctx.rec.span("ldlp.engine.new", || {
                        let (machine, layers) =
                            paper_stack(MachineConfig::synthetic_benchmark(), seed);
                        StackEngine::new(machine, layers, discipline)
                    });
                    let mut lookup = ctx.rec.span("netstack.table.build", || {
                        figure10::TableCharge::new(pop, v.scheme, v.cache_slots, seed)
                    });
                    ctx.rec.setup_done();
                    let sim_cfg = sim_config(duration_s, seed);
                    let report = ctx.rec.span("simnet.sim.run", || {
                        run_sim_lookup(&mut engine, &arrivals, &flow_ids, &sim_cfg, &mut lookup)
                    });
                    ctx.rec.cell_end();
                    let ok = report_ok(&report, arrivals.len() as u64);
                    ctx.tally
                        .note_cell(&report, engine.machine().replay_stats(), RunKind::Sim, ok);
                    let stats = lookup.cache_stats();
                    // Every cache miss walks the table once, and the
                    // charge keeps its probe total private: recover the
                    // integer from the public mean.
                    let probes = (lookup.mean_probes() * stats.misses as f64).round() as u64;
                    for (sum, x) in sums.iter_mut().zip([stats.hits, stats.misses, probes]) {
                        *sum += x;
                    }
                    reports.push(report);
                }
                let [hits, misses, probes] = sums;
                ctx.tally.table_cache_hits += hits;
                ctx.tally.table_walks += misses;
                ctx.tally.table_probes += probes;
                let ratio = |num: u64, den: u64| {
                    if den > 0 {
                        num as f64 / den as f64
                    } else {
                        0.0
                    }
                };
                variants.push(figure10::VariantPoint {
                    scheme: v.scheme.label(),
                    cache_slots: v.cache_slots,
                    popmodel: v.popmodel.label(),
                    report: average(ctx, &reports),
                    cache_hit_rate: ratio(hits, hits + misses),
                    mean_probes: ratio(probes, misses),
                });
            }
            points.push(figure10::Figure10Point {
                population: pop,
                discipline: label,
                variants,
            });
        }
    }
    export(ctx, || {
        csv_text(
            &figure10::FIGURE10_HEADER,
            &figure10::figure10_rows(&points),
        )
    })
}

/// Figure 13: closed-loop retrying clients against a 4-core server,
/// load × build × admission policy × retry budget.
pub fn figure13(ctx: &mut Ctx, smoke: bool, seeds: u64, duration_s: f64) -> String {
    let mut points = Vec::new();
    for cell in figure13::cells(smoke) {
        let v = cell.variant;
        let mut reports = Vec::new();
        let mut extras = Vec::new();
        for seed in ctx.seeds.next(seeds) {
            ctx.rec.cell_begin();
            let think_s = figure13::CLIENTS as f64 / (cell.load * v.capacity_msg_s);
            let mut pc = ClosedConfig::new(figure13::CLIENTS, think_s, duration_s, seed);
            pc.retry_budget_on = cell.budget_on;
            let mut pop = ctx
                .rec
                .span("simnet.closed.new", || ClosedPopulation::new(&pc));
            let cfg = SmpConfig {
                duration_s,
                placement_seed: seed,
                admission: cell.admission.policy,
                flow_control: v.flow_control,
                handoff_cap: 4,
                ..SmpConfig::new(figure13::CORES, v.dispatch, v.discipline)
            };
            let mut sim = ctx.rec.span("smp.sim.new", || SmpSim::new(&cfg));
            ctx.rec.setup_done();
            ctx.rec.span("smp.sim.run_closed", || {
                sim.run_closed(&mut pop, figure13::WEIGHTS)
            });
            let out = ctx
                .rec
                .span("smp.sim.outcome", || sim.outcome(pop.channel_counters()));
            ctx.rec.cell_end();
            let st = *pop.stats();
            let ok = report_ok(&out.report, st.offered);
            ctx.tally.note_smp(&out, RunKind::SmpClosed, ok);
            ctx.tally.closed_requests += st.requests;
            ctx.tally.closed_transmissions += st.transmissions;
            let frac = |class: Class| {
                let i = class.index();
                if st.per_class_requests[i] == 0 {
                    0.0
                } else {
                    st.per_class_useful[i] as f64 / st.per_class_requests[i] as f64
                }
            };
            let loss = |class: Class| {
                let i = class.index();
                (out.shed_by_class[i] + out.drops_by_class[i]) as f64
            };
            extras.push([
                st.retry_amplification(),
                st.requests as f64,
                st.transmissions as f64,
                st.abandoned_requests as f64,
                loss(Class::Call),
                loss(Class::Dns),
                loss(Class::Rpc),
                frac(Class::Call),
                frac(Class::Rpc),
                out.per_core.iter().map(|c| c.bp_stalls).sum::<u64>() as f64,
                out.per_core.iter().map(|c| c.bp_stall_cycles).sum::<u64>() as f64,
                out.handoff_msgs as f64,
            ]);
            reports.push(out.report);
        }
        points.push(figure13::Figure13Point {
            cell,
            report: average(ctx, &reports),
            extras: mean_extras(&extras),
        });
    }
    export(ctx, || {
        csv_text(
            &figure13::FIGURE13_HEADER,
            &figure13::figure13_rows(&points),
        )
    })
}

/// Figure 14: the mixed five-class service stream, cores × build, with
/// per-class reports.
pub fn figure14(ctx: &mut Ctx, smoke: bool, seeds: u64, duration_s: f64) -> String {
    let mut points = Vec::new();
    for &cores in figure14::core_counts(smoke) {
        for variant in figure14::variants() {
            let mut reports = Vec::new();
            let mut class_reports: Vec<Vec<ClassReport>> = Vec::new();
            for seed in ctx.seeds.next(seeds) {
                ctx.rec.cell_begin();
                let mix = workload::MixConfig::service_mix(figure14::RATE_MSG_S, duration_s, seed);
                let stream = ctx
                    .rec
                    .span("workload.stream.gen", || workload::generate(&mix));
                let counts = workload::class_counts(&stream);
                let arrivals = ctx.rec.span("smp.steer.tag", || {
                    workload::to_flow_arrivals(&stream, figure14::FLOWS, seed)
                });
                let cfg = SmpConfig {
                    duration_s,
                    placement_seed: seed,
                    wclass: workload::profiles(),
                    ..SmpConfig::new(cores, variant.dispatch, variant.discipline)
                };
                let mut sim = ctx.rec.span("smp.sim.new", || SmpSim::new(&cfg));
                ctx.rec.setup_done();
                ctx.rec.span("smp.sim.run", || sim.run(&arrivals));
                let out = ctx
                    .rec
                    .span("smp.sim.outcome", || sim.outcome(ImpairCounters::default()));
                ctx.rec.cell_end();
                let ok = report_ok(&out.report, stream.len() as u64)
                    && WireClass::ALL.iter().all(|c| {
                        out.classes
                            .get(c.index())
                            .is_some_and(|r| class_ok(r, counts[c.index()]))
                    });
                ctx.tally.note_smp(&out, RunKind::Smp, ok);
                reports.push(out.report);
                class_reports.push(out.classes);
            }
            let report = average(ctx, &reports);
            let classes = ctx.rec.span("simnet.stats.average", || {
                (0..MAX_WCLASS)
                    .map(|w| {
                        let per_seed: Vec<ClassReport> = class_reports
                            .iter()
                            .filter_map(|c| c.get(w).copied())
                            .collect();
                        ClassReport::average(&per_seed).unwrap_or_default()
                    })
                    .collect()
            });
            points.push(figure14::Figure14Point {
                cores,
                variant,
                report,
                classes,
            });
        }
    }
    export(ctx, || {
        csv_text(
            &figure14::FIGURE14_HEADER,
            &figure14::figure14_rows(&points),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy() -> SimReport {
        SimReport {
            offered: 100,
            completed: 90,
            rejected: 4,
            drops: 3,
            shed: 2,
            in_flight: 1,
            mean_latency_us: 12.0,
            p99_latency_us: 80.0,
            ..SimReport::default()
        }
    }

    #[test]
    fn seed_plans() {
        let mut shipped = SeedPlan::shipped(0);
        assert_eq!(shipped.next(3), 1..=3);
        assert_eq!(
            shipped.next(3),
            1..=3,
            "every grid point gets the same seeds"
        );
        let mut distinct = SeedPlan::distinct(0);
        assert_eq!(distinct.next(3), 1..=3);
        assert_eq!(distinct.next(2), 4..=5, "no seed is handed out twice");
        let mut other = SeedPlan::distinct(1);
        assert_eq!(
            *other.next(1).start(),
            (1 << 20) + 1,
            "run seeds own disjoint blocks"
        );
    }

    #[test]
    fn a_broken_report_is_a_failed_cell() {
        assert!(report_ok(&healthy(), 100));
        // Conservation off by one.
        let leak = SimReport {
            completed: 89,
            ..healthy()
        };
        assert!(!report_ok(&leak, 100));
        // The simulator saw a different stream than the generator made.
        assert!(!report_ok(&healthy(), 101));
        // A statistic that is not a number.
        let nan = SimReport {
            p99_latency_us: f64::NAN,
            ..healthy()
        };
        assert!(!report_ok(&nan, 100));
        let inf = SimReport {
            throughput: f64::INFINITY,
            ..healthy()
        };
        assert!(!report_ok(&inf, 100));

        let mut tally = Tally::default();
        for r in [healthy(), leak, nan] {
            let ok = report_ok(&r, 100);
            tally.note_cell(&r, ReplayStats::default(), RunKind::Sim, ok);
        }
        assert_eq!((tally.cells, tally.failed_cells), (3, 2));
        assert_eq!(tally.msgs_offered, 300);
    }

    #[test]
    fn a_class_bucket_must_close_and_match_the_generator() {
        let class = ClassReport {
            offered: 10,
            completed: 7,
            rejected: 1,
            drops: 1,
            shed: 1,
            ..ClassReport::default()
        };
        assert!(class_ok(&class, 10));
        assert!(!class_ok(&class, 11));
        assert!(!class_ok(&ClassReport { shed: 0, ..class }, 10));
        assert!(!class_ok(
            &ClassReport {
                slo_attainment: f64::NAN,
                ..class
            },
            10
        ));
    }
}
