//! Dynamics of the online LDLP algorithm (Section 3.1): "under light
//! load, messages will usually be processed singly, minimizing delay.
//! Under heavy load, messages will be processed in batches, maximizing
//! throughput."
//!
//! Drives the stack with regime-switching MMPP load (quiet 1000 msg/s,
//! bursts of 9000 msg/s) and records every batch the scheduler forms:
//! the batch factor tracks the offered load with no controller, no
//! tuning, and no configuration — it is an emergent property of
//! "take everything that has arrived". The run lasts `--duration`
//! seconds, but never less than 2.

use crate::{f, Output, RunOpts};
use cachesim::MachineConfig;
use ldlp::synth::paper_stack;
use ldlp::{BatchPolicy, Discipline, StackEngine};
use simnet::sim::run_sim_traced;
use simnet::traffic::{MmppSource, TrafficSource};
use simnet::SimConfig;

pub const DYNAMICS_HEADER: [&str; 4] = ["time_s", "offered_per_s", "mean_batch", "max_queue"];

pub fn run(opts: &RunOpts) -> Output {
    let duration = opts.duration_s.max(2.0);
    // Quiet/burst regimes of ~100 ms each.
    let mut source = MmppSource::two_state(1000.0, 9000.0, 0.1, 552, 42);
    let arrivals = source.take_until(duration);

    let (m, layers) = paper_stack(MachineConfig::synthetic_benchmark(), 7);
    let mut engine = StackEngine::new(m, layers, Discipline::Ldlp(BatchPolicy::DCacheFit));
    let mut records = Vec::new();
    let cfg = SimConfig {
        duration_s: duration,
        ..SimConfig::default()
    };
    let report = run_sim_traced(&mut engine, &arrivals, &cfg, Some(&mut records));

    // Downsample into 50 ms bins: mean batch, max queue, arrivals.
    let bin_s = 0.05;
    let bins = (duration / bin_s).ceil() as usize;
    let mut batch_sum = vec![0f64; bins];
    let mut batch_n = vec![0u32; bins];
    let mut queue_max = vec![0usize; bins];
    for r in &records {
        let b = ((r.time_s / bin_s) as usize).min(bins - 1);
        batch_sum[b] += r.batch as f64;
        batch_n[b] += 1;
        queue_max[b] = queue_max[b].max(r.queue_after + r.batch);
    }
    let mut arr_count = vec![0u32; bins];
    for a in &arrivals {
        let b = ((a.time_s / bin_s) as usize).min(bins - 1);
        arr_count[b] += 1;
    }

    let mut note = String::from("Mean batch, every 4th bin of the first 2 seconds:\n");
    let mut rows = Vec::new();
    for b in 0..bins {
        let mean_batch = if batch_n[b] == 0 {
            0.0
        } else {
            batch_sum[b] / batch_n[b] as f64
        };
        rows.push(vec![
            f(b as f64 * bin_s, 3),
            f(arr_count[b] as f64 / bin_s, 0),
            f(mean_batch, 2),
            queue_max[b].to_string(),
        ]);
        if b % 4 == 0 && (b as f64 * bin_s) < 2.0 {
            let bar = "#".repeat((mean_batch.round() as usize).min(40));
            note += &format!("  {:>4}s {bar}\n", f(b as f64 * bin_s, 2));
        }
    }
    note += &format!(
        "\nOverall: {} batches, mean batch {:.1}, mean latency {:.0} us, {} drops.\n\
         The batch factor follows the offered load within one batch time —\n\
         the scheduler *is* the controller.",
        records.len(),
        report.mean_batch,
        report.mean_latency_us,
        report.drops
    );
    Output::table(
        format!(
            "LDLP batch dynamics under MMPP load (quiet 1000/s, bursts 9000/s,\n\
             ~100 ms regimes, {duration}s, {} arrivals)",
            arrivals.len()
        ),
        &DYNAMICS_HEADER,
        rows,
        &[0, 1, 2, 3],
        &note,
    )
}
