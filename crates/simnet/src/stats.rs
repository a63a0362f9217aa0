//! Statistics: latency distributions, per-message miss averages, and a
//! Hurst-parameter estimator for validating the self-similar source.
//!
//! Accounting here is conservation-law truthful: every arrival the
//! simulator was offered is classified as completed, rejected (checksum
//! failure), dropped (refused admission), shed (evicted by the admission
//! policy), left in flight, or — for closed-loop sources — completed
//! stale after the client stopped waiting (`abandoned`), and
//! [`SimReport::conservation_holds`] checks that the books balance. Rates are computed over the *actual
//! processing span* (arrival window plus drain time), not the arrival
//! window, so an overloaded run can no longer report a throughput it
//! never achieved.

use crate::impair::ImpairCounters;

/// Cache-miss totals over the messages that left the machine, rejected
/// ones included (they still cost cache lines). Integer sums are exact,
/// so a report built from totals equals one built from per-message
/// samples bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MissTotals {
    /// Messages whose misses are summed.
    pub messages: u64,
    /// Their I-cache misses.
    pub imisses: u64,
    /// Their D-cache misses.
    pub dmisses: u64,
}

impl MissTotals {
    /// Adds one message's misses.
    pub fn add(&mut self, imisses: u64, dmisses: u64) {
        self.messages += 1;
        self.imisses += imisses;
        self.dmisses += dmisses;
    }
}

/// Raw run-level tallies handed to [`SimReport::from_totals`] alongside
/// the per-message latencies and the miss totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTally {
    /// Arrivals presented to the NIC (after any impairment channel).
    pub offered: u64,
    /// Messages processed but discarded at checksum verification.
    pub rejected: u64,
    /// Arrivals refused admission because the buffer was full.
    pub drops: u64,
    /// Queued packets evicted by the admission policy to make room.
    pub shed: u64,
    /// Packets still queued when the run ended.
    pub in_flight: u64,
    /// Completions that were stale by the time they finished: the
    /// closed-loop client had already been acknowledged by another copy
    /// or had abandoned the request (zero for open-loop sources).
    pub abandoned: u64,
    /// Arrival window in seconds.
    pub duration_s: f64,
    /// Actual span from start to the last completion, in seconds. Values
    /// <= 0 fall back to `duration_s` (e.g. a run with no completions).
    pub span_s: f64,
    /// Batches processed.
    pub batches: u64,
    /// What the impairment channel did upstream of the NIC.
    pub net: ImpairCounters,
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// Messages fully processed and delivered.
    pub completed: u64,
    /// Messages processed up to checksum verification and discarded
    /// there (cycles spent, no useful work).
    pub rejected: u64,
    /// Arrivals dropped because the NIC buffer was full.
    pub drops: u64,
    /// Queued packets evicted by the admission policy.
    pub shed: u64,
    /// Packets still queued when the run ended.
    pub in_flight: u64,
    /// Stale completions: the server finished the work after the
    /// closed-loop client stopped waiting for it (acknowledged via
    /// another copy, or the request abandoned). Always zero for
    /// open-loop sources; under closed-loop overload this is the wasted
    /// work that separates throughput from goodput.
    pub abandoned: u64,
    /// Arrivals presented to the NIC.
    pub offered: u64,
    /// Packets the impairment channel lost upstream of the NIC.
    pub net_dropped: u64,
    /// Packets the impairment channel delivered with damaged payloads.
    pub net_corrupted: u64,
    /// Extra copies the impairment channel injected.
    pub net_duplicated: u64,
    /// Run length in seconds (the span arrivals were drawn over).
    pub duration_s: f64,
    /// Start-to-last-completion span in seconds; equals `duration_s`
    /// when the queue drains inside the arrival window, exceeds it when
    /// the backlog drains past the end.
    pub span_s: f64,
    /// Mean latency (arrival to last-layer completion) in microseconds.
    pub mean_latency_us: f64,
    /// Median latency in microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_latency_us: f64,
    /// Largest observed latency in microseconds.
    pub max_latency_us: f64,
    /// Mean instruction-cache misses per message.
    pub mean_imiss: f64,
    /// Mean data-cache misses per message.
    pub mean_dmiss: f64,
    /// Messages processed (completed + rejected) per second of `span_s`.
    pub throughput: f64,
    /// *Useful* completions per second of `span_s` — excludes rejected
    /// messages, which consumed cycles but delivered nothing.
    pub goodput: f64,
    /// Arrivals per second of the arrival window (`offered / duration_s`).
    pub offered_load: f64,
    /// Mean batch size over all processed batches.
    pub mean_batch: f64,
    /// Standard deviation of `mean_latency_us` across the averaged runs
    /// (0 for a single run; populated by [`SimReport::average`]).
    pub latency_std_us: f64,
    /// Standard deviation of `mean_imiss` across the averaged runs.
    pub imiss_std: f64,
}

impl SimReport {
    /// Builds a report from raw per-message observations: totals the
    /// miss samples (one per processed message) and defers to
    /// [`SimReport::from_totals`].
    pub fn from_samples(
        latencies_us: &mut [f64],
        imisses: &[u64],
        dmisses: &[u64],
        tally: RunTally,
    ) -> SimReport {
        let misses = MissTotals {
            messages: imisses.len() as u64,
            imisses: imisses.iter().sum(),
            dmisses: dmisses.iter().sum(),
        };
        SimReport::from_totals(latencies_us, misses, tally)
    }

    /// Builds a report from the run's latencies, one sample per
    /// *completed* (not rejected) message, and its miss totals.
    pub fn from_totals(latencies_us: &mut [f64], misses: MissTotals, tally: RunTally) -> SimReport {
        let span_s = if tally.span_s > 0.0 {
            tally.span_s
        } else {
            tally.duration_s
        };
        let offered_load = if tally.duration_s > 0.0 {
            tally.offered as f64 / tally.duration_s
        } else {
            0.0
        };
        let n = latencies_us.len();
        // Stale (abandoned) completions consumed the machine exactly
        // like useful ones — they count toward throughput and batch
        // sizing, never toward goodput (no latency sample is recorded).
        let processed = n as u64 + tally.rejected + tally.abandoned;
        let mut r = SimReport {
            completed: n as u64,
            rejected: tally.rejected,
            drops: tally.drops,
            shed: tally.shed,
            in_flight: tally.in_flight,
            abandoned: tally.abandoned,
            offered: tally.offered,
            net_dropped: tally.net.dropped,
            net_corrupted: tally.net.corrupted,
            net_duplicated: tally.net.duplicated,
            duration_s: tally.duration_s,
            span_s,
            throughput: processed as f64 / span_s,
            goodput: n as f64 / span_s,
            offered_load,
            mean_batch: if tally.batches == 0 {
                0.0
            } else {
                processed as f64 / tally.batches as f64
            },
            ..SimReport::default()
        };
        if n == 0 {
            return r;
        }
        // Misses are totalled over every processed message (rejected
        // ones still cost cache lines), so `misses.messages` can exceed
        // the latency sample count.
        let miss_n = misses.messages.max(1) as f64;
        // Ties under `total_cmp` are bit-identical, so the unstable sort
        // yields the stable one's sequence without its scratch buffer.
        latencies_us.sort_unstable_by(f64::total_cmp);
        r.mean_latency_us = latencies_us.iter().sum::<f64>() / n as f64;
        r.p50_latency_us = percentile(latencies_us, 0.50);
        r.p99_latency_us = percentile(latencies_us, 0.99);
        r.max_latency_us = latencies_us.last().copied().unwrap_or_default();
        r.mean_imiss = misses.imisses as f64 / miss_n;
        r.mean_dmiss = misses.dmisses as f64 / miss_n;
        r
    }

    /// True iff every offered arrival is accounted for exactly once:
    /// `offered == completed + rejected + drops + shed + in_flight +
    /// abandoned` (the last term is the closed-loop stale-completion
    /// bucket, zero for open-loop sources).
    pub fn conservation_holds(&self) -> bool {
        self.offered
            == self.completed
                + self.rejected
                + self.drops
                + self.shed
                + self.in_flight
                + self.abandoned
    }

    /// Averages several reports (e.g. over random placements), weighting
    /// each run equally as the paper does. Counter fields become rounded
    /// per-run means, so conservation is checked per run, not on the
    /// average.
    ///
    /// Returns `None` for an empty slice: an all-zero report would
    /// vacuously pass [`SimReport::conservation_holds`] and read as "a
    /// run that offered nothing and lost nothing", silently masking a
    /// caller bug (e.g. a sweep configured with zero seeds).
    pub fn average(reports: &[SimReport]) -> Option<SimReport> {
        if reports.is_empty() {
            return None;
        }
        let n = reports.len() as f64;
        let sum = |f: fn(&SimReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
        // Counters are *rounded* per-run means; plain `as u64` truncation
        // biased every averaged counter low by up to one unit (e.g. 3
        // runs completing 100, 100, 101 messages averaged to 100, not
        // 100.33 → 100… but 1, 2, 2 averaged to 1 instead of 2).
        let sum_u = |f: fn(&SimReport) -> u64| {
            (reports.iter().map(f).sum::<u64>() as f64 / n).round() as u64
        };
        let std = |f: fn(&SimReport) -> f64| {
            let mean = reports.iter().map(f).sum::<f64>() / n;
            (reports.iter().map(|r| (f(r) - mean).powi(2)).sum::<f64>() / n).sqrt()
        };
        Some(SimReport {
            completed: sum_u(|r| r.completed),
            rejected: sum_u(|r| r.rejected),
            drops: sum_u(|r| r.drops),
            shed: sum_u(|r| r.shed),
            in_flight: sum_u(|r| r.in_flight),
            abandoned: sum_u(|r| r.abandoned),
            offered: sum_u(|r| r.offered),
            net_dropped: sum_u(|r| r.net_dropped),
            net_corrupted: sum_u(|r| r.net_corrupted),
            net_duplicated: sum_u(|r| r.net_duplicated),
            duration_s: sum(|r| r.duration_s),
            span_s: sum(|r| r.span_s),
            mean_latency_us: sum(|r| r.mean_latency_us),
            p50_latency_us: sum(|r| r.p50_latency_us),
            p99_latency_us: sum(|r| r.p99_latency_us),
            max_latency_us: sum(|r| r.max_latency_us),
            mean_imiss: sum(|r| r.mean_imiss),
            mean_dmiss: sum(|r| r.mean_dmiss),
            throughput: sum(|r| r.throughput),
            goodput: sum(|r| r.goodput),
            offered_load: sum(|r| r.offered_load),
            mean_batch: sum(|r| r.mean_batch),
            latency_std_us: std(|r| r.mean_latency_us),
            imiss_std: std(|r| r.mean_imiss),
        })
    }
}

/// Per-traffic-class raw samples for one run: the conservation buckets
/// plus the miss and latency observations, accumulated by the simulator
/// while a mixed multi-class stream runs. Storage is reusable across
/// runs ([`ClassSamples::clear`] keeps capacity) so the steady-state
/// run loop stays allocation-free once warm.
#[derive(Debug, Clone, Default)]
pub struct ClassSamples {
    /// Arrivals of this class presented to the NIC.
    pub offered: u64,
    /// Messages of this class fully processed and delivered.
    pub completed: u64,
    /// Messages of this class discarded at checksum verification.
    pub rejected: u64,
    /// Arrivals of this class refused admission.
    pub drops: u64,
    /// Queued packets of this class evicted by the admission policy.
    pub shed: u64,
    /// I-cache misses summed over processed (completed + rejected)
    /// messages of this class.
    pub imiss_sum: u64,
    /// D-cache misses summed over processed messages of this class.
    pub dmiss_sum: u64,
    /// One latency sample per completed message, microseconds.
    pub latencies_us: Vec<f64>,
}

impl ClassSamples {
    /// Resets the counters and samples, keeping allocated capacity.
    pub fn clear(&mut self) {
        self.offered = 0;
        self.completed = 0;
        self.rejected = 0;
        self.drops = 0;
        self.shed = 0;
        self.imiss_sum = 0;
        self.dmiss_sum = 0;
        self.latencies_us.clear();
    }

    /// True iff every offered arrival of this class is accounted for on
    /// a drained run: `offered == completed + rejected + drops + shed`.
    pub fn conservation_holds(&self) -> bool {
        self.offered == self.completed + self.rejected + self.drops + self.shed
    }

    /// Distills the samples into a [`ClassReport`], sorting the latency
    /// samples in place. `slo_us` is the class's latency objective
    /// (0 = none; attainment reports 1 then).
    pub fn report(&mut self, slo_us: f64) -> ClassReport {
        self.latencies_us.sort_unstable_by(f64::total_cmp);
        let processed = (self.completed + self.rejected).max(1) as f64;
        let within = if slo_us > 0.0 {
            self.latencies_us.iter().filter(|&&l| l <= slo_us).count() as u64
        } else {
            self.completed
        };
        ClassReport {
            offered: self.offered,
            completed: self.completed,
            rejected: self.rejected,
            drops: self.drops,
            shed: self.shed,
            p50_latency_us: percentile(&self.latencies_us, 0.50),
            p99_latency_us: percentile(&self.latencies_us, 0.99),
            mean_imiss: self.imiss_sum as f64 / processed,
            mean_dmiss: self.dmiss_sum as f64 / processed,
            slo_us,
            slo_attainment: within as f64 / self.completed.max(1) as f64,
        }
    }
}

/// Aggregated per-class results of one run (or a seed average): the
/// per-class slice of the conservation law plus the latency tail, the
/// per-message miss costs, and attainment against the class's latency
/// SLO.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassReport {
    /// Arrivals of this class presented to the NIC.
    pub offered: u64,
    /// Messages of this class fully processed and delivered.
    pub completed: u64,
    /// Messages of this class discarded at checksum verification.
    pub rejected: u64,
    /// Arrivals of this class refused admission.
    pub drops: u64,
    /// Queued packets of this class evicted by the admission policy.
    pub shed: u64,
    /// Median latency of completed messages, microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile latency of completed messages, microseconds.
    pub p99_latency_us: f64,
    /// Mean I-cache misses per processed message of this class.
    pub mean_imiss: f64,
    /// Mean D-cache misses per processed message of this class.
    pub mean_dmiss: f64,
    /// The latency objective the class was held to (0 = none).
    pub slo_us: f64,
    /// Fraction of completed messages within `slo_us` (1 when no SLO;
    /// 0 when nothing completed).
    pub slo_attainment: f64,
}

impl ClassReport {
    /// Averages several per-class reports (e.g. over seeds), weighting
    /// each run equally. Counter fields become rounded per-run means,
    /// mirroring [`SimReport::average`]. Returns `None` for an empty
    /// slice.
    pub fn average(reports: &[ClassReport]) -> Option<ClassReport> {
        if reports.is_empty() {
            return None;
        }
        let n = reports.len() as f64;
        let sum = |f: fn(&ClassReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
        let sum_u = |f: fn(&ClassReport) -> u64| {
            (reports.iter().map(f).sum::<u64>() as f64 / n).round() as u64
        };
        Some(ClassReport {
            offered: sum_u(|r| r.offered),
            completed: sum_u(|r| r.completed),
            rejected: sum_u(|r| r.rejected),
            drops: sum_u(|r| r.drops),
            shed: sum_u(|r| r.shed),
            p50_latency_us: sum(|r| r.p50_latency_us),
            p99_latency_us: sum(|r| r.p99_latency_us),
            mean_imiss: sum(|r| r.mean_imiss),
            mean_dmiss: sum(|r| r.mean_dmiss),
            slo_us: sum(|r| r.slo_us),
            slo_attainment: sum(|r| r.slo_attainment),
        })
    }
}

/// Percentile of an ascending-sorted slice, `q` in [0, 1], with linear
/// interpolation between ranks. (Nearest-rank rounding collapsed p99 to
/// the maximum for fewer than ~67 samples — a short run's tail latency
/// was whatever its single worst message happened to be.)
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() as f64 - 1.0) * q.clamp(0.0, 1.0);
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return sorted[lo];
    }
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi.min(sorted.len() - 1)] * frac
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{PoissonSource, SelfSimilarSource, TrafficSource};

    /// Why a Hurst estimate could not be produced.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum HurstError {
        /// The count series is too short for the aggregated-variance method.
        TooShort {
            /// Number of samples supplied.
            len: usize,
            /// Minimum the estimator needs.
            need: usize,
        },
        /// Fewer than two usable variance points (e.g. a constant series),
        /// so the log-log regression has no defined slope.
        DegenerateVariance,
    }

    /// Minimum count-series length [`estimate_hurst`] accepts.
    const HURST_MIN_SAMPLES: usize = 64;

    /// Estimates the Hurst parameter of a count process by the
    /// aggregated-variance method: for self-similar traffic the variance of
    /// the aggregated series at block size `m` scales as `m^(2H-2)`; a
    /// least-squares fit of `log Var(m)` against `log m` gives `H`. The
    /// oracle that tells the self-similar source from Poisson.
    ///
    /// Returns an error (rather than a silent NaN) when the series is too
    /// short or so close to constant that the regression is undefined.
    fn estimate_hurst(counts: &[f64]) -> Result<f64, HurstError> {
        if counts.len() < HURST_MIN_SAMPLES {
            return Err(HurstError::TooShort {
                len: counts.len(),
                need: HURST_MIN_SAMPLES,
            });
        }
        let mean_all = counts.iter().sum::<f64>() / counts.len() as f64;
        let mut points = Vec::new();
        let mut m = 1usize;
        while counts.len() / m >= 16 {
            let blocks = counts.len() / m;
            let mut var = 0.0;
            for b in 0..blocks {
                let s: f64 = counts[b * m..(b + 1) * m].iter().sum::<f64>() / m as f64;
                var += (s - mean_all).powi(2);
            }
            var /= blocks as f64;
            if var > 0.0 {
                points.push(((m as f64).ln(), var.ln()));
            }
            m *= 2;
        }
        // Least-squares slope of log Var vs log m; H = 1 + slope / 2.
        let n = points.len() as f64;
        let sx: f64 = points.iter().map(|p| p.0).sum();
        let sy: f64 = points.iter().map(|p| p.1).sum();
        let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        if points.len() < 2 || denom.abs() < f64::EPSILON {
            return Err(HurstError::DegenerateVariance);
        }
        let slope = (n * sxy - sx * sy) / denom;
        Ok(1.0 + slope / 2.0)
    }

    fn tally(drops: u64, duration_s: f64, batches: u64) -> RunTally {
        RunTally {
            drops,
            duration_s,
            batches,
            ..RunTally::default()
        }
    }

    /// The unstable percentile sorts change nothing a report shows: on
    /// samples with duplicates, both zeros and sorted runs, the samples
    /// end in the stable sort's order bit for bit, so every field —
    /// the order-sensitive float mean included — is the one a
    /// stably-sorted input gives.
    #[test]
    fn unstable_percentile_sorts_report_what_the_stable_sort_did() {
        let mut state = 7u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut noisy: Vec<f64> = (0..5_000).map(|_| (next() % 40) as f64 * 0.37).collect();
        noisy.extend([0.0, -0.0, 0.0, -0.0, 1e-300, -1e-300, f64::INFINITY]);
        let sorted_run: Vec<f64> = (0..3_000).map(|i| (i / 3) as f64 * 1.25).collect();
        let mut mixed = sorted_run.clone();
        mixed.extend(noisy.iter().copied());
        for samples in [noisy, sorted_run, mixed, vec![-0.0, 0.0], vec![2.5]] {
            let mut stable = samples.clone();
            stable.sort_by(|a, b| a.total_cmp(b));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let misses = vec![3u64; samples.len()];
            let run = RunTally {
                duration_s: 1.0,
                batches: 10,
                ..RunTally::default()
            };

            let (mut raw, mut presorted) = (samples.clone(), stable.clone());
            let from_raw = SimReport::from_samples(&mut raw, &misses, &misses, run);
            let from_stable = SimReport::from_samples(&mut presorted, &misses, &misses, run);
            assert_eq!(bits(&raw), bits(&stable), "sample order");
            // `{:?}` tells -0.0 from 0.0 and prints floats exactly.
            assert_eq!(format!("{from_raw:?}"), format!("{from_stable:?}"));
            assert_eq!(
                from_raw.mean_latency_us.to_bits(),
                from_stable.mean_latency_us.to_bits()
            );
            assert_eq!(
                from_raw.p99_latency_us.to_bits(),
                from_stable.p99_latency_us.to_bits()
            );

            let class = |latencies_us: Vec<f64>| ClassSamples {
                completed: latencies_us.len() as u64,
                latencies_us,
                ..ClassSamples::default()
            };
            let (mut raw, mut presorted) = (class(samples.clone()), class(stable.clone()));
            let (from_raw, from_stable) = (raw.report(9.0), presorted.report(9.0));
            assert_eq!(bits(&raw.latencies_us), bits(&stable), "class sample order");
            assert_eq!(format!("{from_raw:?}"), format!("{from_stable:?}"));
        }
    }

    #[test]
    fn percentile_basics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        // Rank (5-1)*0.99 = 3.96: between 4.0 and 5.0, not clamped to max.
        assert!((percentile(&v, 0.99) - 4.96).abs() < 1e-12);
        assert!((percentile(&v, 0.25) - 2.0).abs() < 1e-12);
        // Two samples: the median is their midpoint.
        assert_eq!(percentile(&[10.0, 20.0], 0.5), 15.0);
    }

    #[test]
    fn p99_no_longer_collapses_to_max_for_small_n() {
        // 50 samples with one huge outlier: nearest-rank rounding used to
        // report the outlier as p99; interpolation stays below it.
        let mut v: Vec<f64> = (0..49).map(|i| i as f64).collect();
        v.push(10_000.0);
        let p99 = percentile(&v, 0.99);
        assert!(p99 < 10_000.0, "p99 {p99} must not equal the max");
        assert!(p99 > 48.0);
    }

    #[test]
    fn report_from_samples() {
        let mut lat = vec![3.0, 1.0, 2.0];
        let r = SimReport::from_samples(&mut lat, &[10, 20, 30], &[1, 2, 3], tally(5, 1.0, 2));
        assert_eq!(r.completed, 3);
        assert_eq!(r.drops, 5);
        assert_eq!(r.mean_latency_us, 2.0);
        assert_eq!(r.p50_latency_us, 2.0);
        assert_eq!(r.max_latency_us, 3.0);
        assert_eq!(r.mean_imiss, 20.0);
        assert_eq!(r.throughput, 3.0);
        assert_eq!(r.goodput, 3.0);
        assert_eq!(r.mean_batch, 1.5);
    }

    #[test]
    fn throughput_uses_the_actual_span_not_the_arrival_window() {
        // 100 completions whose processing drained 1 s past the 1 s
        // arrival window: the old accounting claimed 100 msg/s, double
        // the rate the machine actually sustained.
        let mut lat: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let im = vec![0u64; 100];
        let t = RunTally {
            offered: 100,
            duration_s: 1.0,
            span_s: 2.0,
            batches: 100,
            ..RunTally::default()
        };
        let r = SimReport::from_samples(&mut lat, &im, &im, t);
        assert_eq!(r.throughput, 50.0);
        assert_eq!(r.goodput, 50.0);
        assert_eq!(r.offered_load, 100.0);
        assert_eq!(r.span_s, 2.0);
        assert!(r.conservation_holds());
    }

    #[test]
    fn rejected_messages_count_in_throughput_but_not_goodput() {
        let mut lat = vec![1.0, 2.0];
        let im = [5u64, 5, 5];
        let t = RunTally {
            offered: 3,
            rejected: 1,
            duration_s: 1.0,
            span_s: 1.0,
            batches: 3,
            ..RunTally::default()
        };
        let r = SimReport::from_samples(&mut lat, &im, &im, t);
        assert_eq!(r.completed, 2);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.throughput, 3.0, "rejected work still consumed the machine");
        assert_eq!(r.goodput, 2.0, "but it is not useful output");
        assert_eq!(r.mean_imiss, 5.0, "misses averaged over all processed");
        assert!(r.conservation_holds());
    }

    #[test]
    fn abandoned_work_counts_in_throughput_but_not_goodput() {
        // Two useful completions plus one stale one (the closed-loop
        // client had stopped waiting): the machine processed three
        // messages but only two were useful.
        let mut lat = vec![1.0, 2.0];
        let im = [5u64, 5, 5];
        let t = RunTally {
            offered: 3,
            abandoned: 1,
            duration_s: 1.0,
            span_s: 1.0,
            batches: 3,
            ..RunTally::default()
        };
        let r = SimReport::from_samples(&mut lat, &im, &im, t);
        assert_eq!(r.completed, 2);
        assert_eq!(r.abandoned, 1);
        assert_eq!(r.throughput, 3.0, "stale work still consumed the machine");
        assert_eq!(r.goodput, 2.0, "but delivered nothing the client wanted");
        assert_eq!(r.mean_batch, 1.0);
        assert!(r.conservation_holds(), "abandoned closes the books");
        let avg = SimReport::average(&[r.clone(), r]).expect("non-empty");
        assert_eq!(avg.abandoned, 1, "averaging carries the bucket");
    }

    #[test]
    fn conservation_detects_lost_arrivals() {
        let t = RunTally {
            offered: 10,
            drops: 2,
            duration_s: 1.0,
            ..RunTally::default()
        };
        let mut lat = vec![1.0; 7];
        let im = vec![0u64; 7];
        let r = SimReport::from_samples(&mut lat, &im, &im, t);
        assert!(!r.conservation_holds(), "7 + 2 != 10: one arrival vanished");
    }

    #[test]
    fn empty_report_is_safe() {
        let r = SimReport::from_samples(&mut [], &[], &[], tally(7, 1.0, 0));
        assert_eq!(r.completed, 0);
        assert_eq!(r.drops, 7);
        assert_eq!(r.mean_latency_us, 0.0);
        assert_eq!(r.span_s, 1.0, "span falls back to the arrival window");
    }

    #[test]
    fn averaging_reports() {
        let a = SimReport {
            mean_latency_us: 10.0,
            completed: 100,
            goodput: 50.0,
            ..SimReport::default()
        };
        let b = SimReport {
            mean_latency_us: 30.0,
            completed: 200,
            goodput: 150.0,
            ..SimReport::default()
        };
        let avg = SimReport::average(&[a, b]).expect("non-empty");
        assert_eq!(avg.mean_latency_us, 20.0);
        assert_eq!(avg.completed, 150);
        assert_eq!(avg.goodput, 100.0);
        assert_eq!(avg.latency_std_us, 10.0, "population std of 10 and 30");
    }

    #[test]
    fn averaging_counters_rounds_instead_of_truncating() {
        // Three runs completing 1, 2, 2: the mean is 5/3 ≈ 1.67, which
        // truncation used to report as 1.
        let reports: Vec<SimReport> = [1u64, 2, 2]
            .iter()
            .map(|&completed| SimReport {
                completed,
                ..SimReport::default()
            })
            .collect();
        let avg = SimReport::average(&reports).expect("non-empty");
        assert_eq!(avg.completed, 2, "5/3 rounds to 2, not down to 1");
    }

    #[test]
    fn averaging_no_reports_is_explicit_not_all_zero() {
        // The old all-zero report passed conservation_holds() and hid
        // zero-seed configuration bugs.
        assert!(SimReport::average(&[]).is_none());
    }

    #[test]
    fn class_samples_report_and_conservation() {
        let mut s = ClassSamples {
            offered: 10,
            completed: 6,
            rejected: 1,
            drops: 2,
            shed: 1,
            imiss_sum: 14,
            dmiss_sum: 7,
            latencies_us: vec![50.0, 10.0, 20.0, 30.0, 40.0, 60.0],
        };
        assert!(s.conservation_holds());
        let r = s.report(45.0);
        assert_eq!((r.offered, r.completed, r.rejected, r.drops, r.shed), (10, 6, 1, 2, 1));
        assert_eq!(r.mean_imiss, 2.0, "misses averaged over processed");
        assert_eq!(r.mean_dmiss, 1.0);
        assert_eq!(r.p50_latency_us, 35.0);
        // 4 of 6 completions landed within the 45 µs objective.
        assert!((r.slo_attainment - 4.0 / 6.0).abs() < 1e-12);
        s.offered += 1;
        assert!(!s.conservation_holds(), "one arrival vanished");
        s.clear();
        assert!(s.latencies_us.is_empty() && s.offered == 0);
        let empty = s.report(45.0);
        assert_eq!(empty.slo_attainment, 0.0, "nothing completed, nothing attained");
    }

    #[test]
    fn class_report_without_slo_is_vacuously_attained() {
        let mut s = ClassSamples {
            offered: 2,
            completed: 2,
            latencies_us: vec![1e9, 2e9],
            ..ClassSamples::default()
        };
        assert_eq!(s.report(0.0).slo_attainment, 1.0);
    }

    #[test]
    fn class_report_averaging_mirrors_sim_report() {
        let a = ClassReport {
            completed: 1,
            p99_latency_us: 10.0,
            slo_attainment: 1.0,
            ..ClassReport::default()
        };
        let b = ClassReport {
            completed: 2,
            p99_latency_us: 30.0,
            slo_attainment: 0.5,
            ..ClassReport::default()
        };
        let avg = ClassReport::average(&[a, b]).expect("non-empty");
        assert_eq!(avg.completed, 2, "3/2 rounds to 2");
        assert_eq!(avg.p99_latency_us, 20.0);
        assert_eq!(avg.slo_attainment, 0.75);
        assert!(ClassReport::average(&[]).is_none());
    }

    fn count_series(arrivals: &[crate::traffic::Arrival], bin_s: f64, duration: f64) -> Vec<f64> {
        let bins = (duration / bin_s) as usize;
        let mut counts = vec![0.0; bins];
        for a in arrivals {
            let b = (a.time_s / bin_s) as usize;
            if b < bins {
                counts[b] += 1.0;
            }
        }
        counts
    }

    #[test]
    fn hurst_separates_poisson_from_self_similar() {
        let poisson = PoissonSource::new(2000.0, 552, 2).take_until(60.0);
        let selfsim = SelfSimilarSource::bellcore_like(2).take_until(60.0);
        let hp = estimate_hurst(&count_series(&poisson, 0.01, 60.0)).expect("long series");
        let hs = estimate_hurst(&count_series(&selfsim, 0.01, 60.0)).expect("long series");
        assert!(hp < 0.65, "poisson H estimate {hp} should be near 0.5");
        assert!(hs > 0.7, "self-similar H estimate {hs} should be near 0.8");
        assert!(hs > hp + 0.1);
    }

    #[test]
    fn hurst_rejects_short_series_instead_of_panicking() {
        let err = estimate_hurst(&[1.0; 10]).unwrap_err();
        assert_eq!(
            err,
            HurstError::TooShort {
                len: 10,
                need: HURST_MIN_SAMPLES
            }
        );
    }

    #[test]
    fn hurst_rejects_constant_series_instead_of_nan() {
        // A constant series has zero variance at every block size: the
        // old code silently returned NaN here.
        let err = estimate_hurst(&[5.0; 256]).unwrap_err();
        assert_eq!(err, HurstError::DegenerateVariance);
    }
}
