//! `compare A.json B.json`: applies each end-to-end metric's bound, one
//! row per (workload, metric), A as the baseline.

use crate::json::Value;
use crate::metrics::{Better, EndToEnd, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Simulated statistic, identical on both sides.
    Equal,
    /// Simulated statistic that changed: the two sides did not simulate
    /// the same thing, so no host-time comparison between them stands.
    Differs,
    Ok,
    Improved,
    Regression,
    /// Beyond the bound, but so was the noise of one side's own reps.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Equal => "equal",
            Verdict::Differs => "DIFFERS",
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }

    pub fn fails(self) -> bool {
        matches!(self, Verdict::Differs | Verdict::Regression)
    }
}

/// Judges B against baseline A. `spread` is the larger of the two
/// sides' rep spreads for this metric, as a share.
pub fn judge(m: &EndToEnd, a: f64, b: f64, spread: f64) -> Verdict {
    if m.exact {
        return if a == b {
            Verdict::Equal
        } else {
            Verdict::Differs
        };
    }
    let worse_by = match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    let allowed = (m.bound * a.abs()).max(m.abs_floor);
    if worse_by.abs() <= allowed {
        Verdict::Ok
    } else if spread > m.bound {
        Verdict::Unresolved
    } else if worse_by > 0.0 {
        Verdict::Regression
    } else {
        Verdict::Improved
    }
}

fn metric(workload: &Value, name: &str) -> Option<f64> {
    workload
        .get("end_to_end")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// How far the typical rep sat above the fastest, as a share: the
/// run's own evidence of how noisy the host was.
fn rep_spread(workload: &Value, key: &str) -> f64 {
    let read = |field: &str| {
        workload
            .get(key)
            .and_then(|s| s.get(field))
            .and_then(Value::as_f64)
    };
    match (read("min"), read("median")) {
        (Some(min), Some(median)) if min > 0.0 => (median - min) / min,
        _ => 0.0,
    }
}

fn spread_for(m: &EndToEnd, a: &Value, b: &Value) -> f64 {
    let key = match m.name {
        "wall_s" | "sim_msgs_per_host_s" => "rep_wall_s",
        "setup_s" => "rep_setup_s",
        _ => return 0.0,
    };
    rep_spread(a, key).max(rep_spread(b, key))
}

/// Prints the table; returns whether every row passed.
pub fn compare(a: &Value, b: &Value) -> Result<bool, String> {
    let wa = a.get("workloads").ok_or("A: no \"workloads\"")?;
    let wb = b.get("workloads").ok_or("B: no \"workloads\"")?;
    let mut pass = true;
    let mut unresolved = 0;
    println!(
        "{:16} {:22} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for (name, rec_a) in wa.fields() {
        let Some(rec_b) = wb.get(name) else {
            println!("{name:16} missing from B");
            pass = false;
            continue;
        };
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (metric(rec_a, m.name), metric(rec_b, m.name)) else {
                println!("{name:16} {:22} missing on one side", m.name);
                pass = false;
                continue;
            };
            let v = judge(m, x, y, spread_for(m, rec_a, rec_b));
            let change = if x != 0.0 { (y - x) / x * 100.0 } else { 0.0 };
            println!(
                "{name:16} {:22} {x:>14.6} {y:>14.6} {change:>+7.2}%  {}",
                m.name,
                v.label()
            );
            pass &= !v.fails();
            unresolved += usize::from(v == Verdict::Unresolved);
        }
        let digest = |r: &Value| {
            r.get("sim_digest")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let (da, db) = (digest(rec_a), digest(rec_b));
        let same = da == db && da != "?";
        println!(
            "{name:16} {:22} {da:>14} {db:>14} {:>8}  {}",
            "sim_digest",
            "",
            if same { "equal" } else { "DIFFERS" }
        );
        pass &= same;
    }
    for (name, _) in wb.fields() {
        if wa.get(name).is_none() {
            println!("{name:16} missing from A");
            pass = false;
        }
    }
    println!(
        "compare: {}{}",
        if pass { "within bounds" } else { "FAILED" },
        if unresolved > 0 {
            format!(", {unresolved} unresolved (rep spread above the bound: measure again)")
        } else {
            String::new()
        }
    );
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn relative_bound_in_both_directions() {
        let wall = m("wall_s");
        let just_inside = 1.0 + wall.bound * 0.99;
        let outside = 1.0 + wall.bound * 1.5;
        assert_eq!(judge(wall, 1.0, just_inside, 0.0), Verdict::Ok);
        assert_eq!(judge(wall, 1.0, outside, 0.0), Verdict::Regression);
        assert_eq!(judge(wall, 1.0, 1.0 / outside, 0.0), Verdict::Improved);
        // Higher is better: falling is the regression.
        let rate = m("sim_msgs_per_host_s");
        assert_eq!(judge(rate, 1e6, 1e6 / outside, 0.0), Verdict::Regression);
        assert_eq!(judge(rate, 1e6, 1e6 * outside, 0.0), Verdict::Improved);
    }

    #[test]
    fn noisy_reps_make_a_breach_unresolved_not_a_verdict() {
        let wall = m("wall_s");
        let outside = 1.0 + wall.bound * 2.0;
        assert_eq!(
            judge(wall, 1.0, outside, wall.bound * 1.1),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(wall, 1.0, 1.0 / outside, wall.bound * 1.1),
            Verdict::Unresolved
        );
        // Noise does not turn an in-bound reading into anything else.
        assert_eq!(judge(wall, 1.0, 1.01, 0.9), Verdict::Ok);
    }

    #[test]
    fn absolute_floors_cover_small_baselines() {
        // 6 ms of set-up tripling is still under the 0.05 s floor …
        let setup = m("setup_s");
        assert_eq!(judge(setup, 0.006, 0.018, 0.0), Verdict::Ok);
        assert_eq!(judge(setup, 0.006, 0.060, 0.0), Verdict::Regression);
        // … while 1.4 s of set-up is held to the relative bound.
        assert_eq!(
            judge(setup, 1.4, 1.4 * (1.0 + setup.bound * 1.2), 0.0),
            Verdict::Regression
        );
        // 5 MB may grow by 2 MB, 58 MB by its share.
        let rss = m("peak_rss_mb");
        assert_eq!(judge(rss, 5.0, 6.9, 0.0), Verdict::Ok);
        assert_eq!(judge(rss, 5.0, 7.5, 0.0), Verdict::Regression);
        assert_eq!(
            judge(rss, 58.0, 58.0 * (1.0 + rss.bound * 0.9), 0.0),
            Verdict::Ok
        );
        assert_eq!(
            judge(rss, 58.0, 58.0 * (1.0 + rss.bound * 1.2), 0.0),
            Verdict::Regression
        );
    }

    #[test]
    fn simulated_metrics_must_be_equal() {
        let imiss = m("sim_imiss_per_msg");
        assert_eq!(judge(imiss, 512.25, 512.25, 0.0), Verdict::Equal);
        assert_eq!(judge(imiss, 512.25, 512.250001, 9.9), Verdict::Differs);
        assert!(Verdict::Differs.fails() && Verdict::Regression.fails());
        assert!(!Verdict::Unresolved.fails() && !Verdict::Improved.fails());
    }
}
