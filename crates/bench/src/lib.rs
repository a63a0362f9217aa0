//! # bench — the paper's experiments
//!
//! Every table, figure and ablation of the paper (see DESIGN.md's
//! per-experiment index) is one entry of [`EXPERIMENTS`], with its body
//! in a module of its own. [`harness`] runs an entry: each binary under
//! `src/bin/` is [`harness::main`] called with its name, and
//! `all_experiments` runs the whole table in one process. A run writes its
//! CSVs into `results/`, then prints them as aligned tables; [`harness`]
//! lists the flags.

pub mod harness;
pub mod sweep;

pub mod ablation_cachesize;
pub mod ablation_cisc;
pub mod ablation_dilution;
pub mod ablation_layout;
pub mod ablation_policy;
pub mod ablation_prefetch;
pub mod ablation_tlb;
pub mod ablation_transmit;
pub mod dynamics;
pub mod figure1;
pub mod figure10;
pub mod figure13;
pub mod figure14;
pub mod figure4_regimes;
pub mod figure8;
pub mod figure9;
pub mod figures;
pub mod impairments;
pub mod signaling_goal;
pub mod table1;
pub mod table3;
pub mod trace_replay;

pub use harness::{csv_text, grid, Csv, Experiment, Output, RunOpts, EXPERIMENTS};

/// Formats a float with `d` decimals.
pub fn f(v: f64, d: usize) -> String {
    format!("{v:.d$}")
}

/// The arrival-rate grid of Figures 5 and 6 (messages/second).
pub fn figure5_rates() -> Vec<f64> {
    (1..=20).map(|i| i as f64 * 500.0).collect()
}

/// The CPU-clock grid of Figure 7 (MHz).
pub fn figure7_clocks() -> Vec<f64> {
    vec![10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 50.0, 60.0, 70.0, 80.0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn rate_grids() {
        let r = figure5_rates();
        assert_eq!(r.first(), Some(&500.0));
        assert_eq!(r.last(), Some(&10_000.0));
        assert_eq!(r.len(), 20);
        assert_eq!(figure7_clocks().len(), 11);
    }

    #[test]
    fn every_experiment_binary_is_in_the_suite() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let mut on_disk: Vec<String> = std::fs::read_dir(dir)
            .expect("read src/bin")
            .map(|entry| entry.expect("src/bin entry").path())
            .filter_map(|p| Some(p.file_stem()?.to_str()?.to_string()))
            .filter(|name| name != "all_experiments")
            .collect();
        on_disk.sort();
        let mut listed: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        listed.sort();
        assert_eq!(
            on_disk, listed,
            "EXPERIMENTS must name every binary all_experiments runs"
        );
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(10.0, 0), "10");
    }

    #[test]
    fn threads_flag_resolution() {
        let opts = RunOpts {
            threads: Some(3),
            ..RunOpts::default()
        };
        assert_eq!(opts.effective_threads(), 3);
        assert!(RunOpts::default().effective_threads() >= 1);
    }

    #[test]
    fn smoke_flag_defaults_off() {
        assert!(!RunOpts::default().smoke);
    }

    #[test]
    fn impairment_grid_shapes() {
        // 3 loss points x {iid, bursty} x 2 depths, minus the two
        // bursty-at-zero-loss cells; 6 loss points for the full grid.
        assert_eq!(impairments::grid(true).len(), 10);
        assert_eq!(impairments::grid(false).len(), 22);
        assert!(impairments::grid(false)
            .iter()
            .all(|c| !(c.bursty && c.loss_pct == 0.0)));
        let ch = impairments::cell_channel(
            impairments::ImpairCell {
                loss_pct: 5.0,
                bursty: true,
                reorder_depth: 8,
            },
            3,
        );
        assert_eq!(ch.drop_prob, 0.0, "bursty cells lose via the chain only");
        let ge = ch.gilbert.expect("bursty cell has a chain");
        assert!((ge.mean_loss() - 0.05).abs() < 1e-12);
        assert_eq!(ch.corrupt_prob, 0.025);
    }

    fn wire(cfg: simnet::ImpairConfig) -> impairments::WireCounters {
        impairments::wire_exercise(cfg, obs::Sink::Off).0
    }

    #[test]
    fn wire_exercise_clean_link_fires_no_exception_paths() {
        let w = wire(simnet::ImpairConfig::default());
        assert_eq!(w.checksum_rejects, 0);
        assert_eq!(w.ooo_buffered, 0);
        assert_eq!(w.reassembly_timeouts, 0);
    }

    #[test]
    fn wire_exercise_impaired_link_fires_them() {
        let lossy = simnet::ImpairConfig {
            drop_prob: 0.10,
            corrupt_prob: 0.05,
            reorder_prob: 0.25,
            reorder_depth: 8,
            seed: 3,
            ..simnet::ImpairConfig::default()
        };
        let w = wire(lossy);
        assert!(w.tcp_retransmits > 0, "losses force TCP retransmission");
        assert!(w.checksum_rejects > 0, "byte flips are caught by checksums");
        assert_eq!(w, wire(lossy), "the wire pass is deterministic");
        let (observed, sink) = impairments::wire_exercise(lossy, obs::Sink::record(false));
        assert_eq!(observed, w, "a sink does not change the exchange");
        assert!(sink.into_recorder().is_some());
    }

    #[test]
    fn csv_writing() {
        let dir = std::env::temp_dir().join("bench_csv_test");
        let text = csv_text(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        harness::write_files(&dir, &[("t.csv".into(), text)]);
        let text = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        std::fs::remove_dir_all(dir).ok();
    }
}
