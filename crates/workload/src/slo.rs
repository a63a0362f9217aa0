//! Per-class SLO verdicts over a run's class reports.
//!
//! The mixed-service question is not "how fast is the box" but "which
//! classes kept their promises". This module turns the per-class
//! reports `smp::SmpSim` accumulates ([`ClassReport`]) into one
//! verdict per service class: attainment against the class's latency
//! SLO, judged at the service target ([`ATTAINMENT_TARGET`]).

use crate::class::WireClass;
use simnet::stats::ClassReport;

/// Fraction of completed messages that must land within the class SLO
/// for the class to count as met (the usual "two nines" service bar).
pub const ATTAINMENT_TARGET: f64 = 0.99;

/// One class's SLO verdict for a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloVerdict {
    /// The class judged.
    pub class: WireClass,
    /// The latency objective it was held to, microseconds.
    pub slo_us: f64,
    /// Fraction of completed messages within the objective.
    pub attainment: f64,
    /// p99 latency of the class, microseconds.
    pub p99_us: f64,
    /// Whether attainment reached [`ATTAINMENT_TARGET`].
    pub met: bool,
}

/// Judges every service class present in `classes` (the
/// `SmpOutcome::classes` vector, indexed by class id). Classes the run
/// never offered a message are skipped — absence is not attainment.
pub fn evaluate(classes: &[ClassReport]) -> Vec<SloVerdict> {
    WireClass::ALL
        .iter()
        .filter_map(|&class| {
            let r = classes.get(class.index())?;
            if r.offered == 0 {
                return None;
            }
            Some(SloVerdict {
                class,
                slo_us: r.slo_us,
                attainment: r.slo_attainment,
                p99_us: r.p99_latency_us,
                met: r.slo_attainment >= ATTAINMENT_TARGET,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp::MAX_WCLASS;

    fn report(offered: u64, attainment: f64, slo_us: f64) -> ClassReport {
        ClassReport {
            offered,
            completed: offered,
            slo_us,
            slo_attainment: attainment,
            p99_latency_us: slo_us * 0.9,
            ..ClassReport::default()
        }
    }

    #[test]
    fn judges_only_offered_classes() {
        let mut classes = vec![ClassReport::default(); MAX_WCLASS];
        classes[WireClass::SvcRpc.index()] = report(100, 0.999, 150.0);
        classes[WireClass::MediaCtl.index()] = report(50, 0.5, 80.0);
        let v = evaluate(&classes);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].class, WireClass::SvcRpc);
        assert!(v[0].met);
        assert_eq!(v[1].class, WireClass::MediaCtl);
        assert!(!v[1].met);
    }

    #[test]
    fn target_is_a_closed_bound() {
        let mut classes = vec![ClassReport::default(); MAX_WCLASS];
        classes[WireClass::Dns.index()] = report(10, ATTAINMENT_TARGET, 300.0);
        let v = evaluate(&classes);
        assert!(v[0].met, "exactly at target counts as met");
    }

    #[test]
    fn empty_and_short_inputs_are_fine() {
        assert!(evaluate(&[]).is_empty());
        // A vector shorter than the class indices must not panic.
        assert!(evaluate(&[ClassReport::default()]).is_empty());
    }
}
