//! Analytical blocking-factor estimation (Section 3.2).
//!
//! "The optimal blocking factor is hard to estimate. Lam \[22\] presents
//! algorithms that can give a fairly accurate estimate." This module
//! provides a Lam-style capacity model: predicted cache misses per message
//! as a function of the blocking factor `B`, and the `B` minimizing it.
//!
//! The model (per message, steady state, ignoring conflict misses):
//!
//! * Instruction misses: if the stack's code exceeds the I-cache, every
//!   layer is refetched once per batch, costing `code_lines / B` misses
//!   per message. If it fits, code misses are ~0 in steady state.
//! * Data misses: each message's lines are loaded once while the batch
//!   data fits in the D-cache; beyond `B_fit = (D - layer_data) / msg`,
//!   messages evict each other between layers and each of the `L` passes
//!   reloads them.

/// Stack and machine parameters for the capacity model.
#[derive(Debug, Clone, Copy)]
pub struct BlockingModel {
    /// Number of layers.
    pub layers: u64,
    /// Total code working set of the stack, in bytes.
    pub code_bytes: u64,
    /// Largest per-layer data working set, in bytes.
    pub layer_data_bytes: u64,
    /// Message size in bytes.
    pub msg_bytes: u64,
    /// Instruction-cache capacity in bytes.
    pub icache_bytes: u64,
    /// Data-cache capacity in bytes.
    pub dcache_bytes: u64,
    /// Cache line size in bytes.
    pub line_bytes: u64,
}

impl BlockingModel {
    /// Predicted cache misses per message at blocking factor `b >= 1`.
    pub fn misses_per_message(&self, b: u64) -> f64 {
        let b = b.max(1) as f64;
        let code_lines = (self.code_bytes as f64) / self.line_bytes as f64;
        let msg_lines = (self.msg_bytes as f64) / self.line_bytes as f64;

        let imisses = if self.code_bytes <= self.icache_bytes {
            0.0
        } else {
            code_lines / b
        };

        // A batch stays D-cache resident while its messages fit alongside
        // every layer's data (all layers' data persists across batches in
        // steady state when nothing evicts it).
        let all_layer_data = self.layers * self.layer_data_bytes;
        let fit = (self
            .dcache_bytes
            .saturating_sub(all_layer_data.min(self.dcache_bytes)) as f64)
            / self.msg_bytes.max(1) as f64;
        let dmisses = if b <= fit {
            // Batch resident: each message's lines load once, total.
            msg_lines
        } else {
            // Batch overflows the D-cache: every layer pass reloads the
            // messages, and the layer data thrashes too.
            msg_lines * self.layers as f64
                + (self.layer_data_bytes as f64 / self.line_bytes as f64)
        };
        imisses + dmisses
    }

    /// The blocking factor in `1..=max_b` minimizing predicted misses,
    /// preferring the smallest minimizer (less batching delay).
    pub fn optimal_blocking_factor(&self, max_b: u64) -> u64 {
        (1..=max_b.max(1))
            .min_by(|&a, &b| {
                self.misses_per_message(a)
                    .total_cmp(&self.misses_per_message(b))
            })
            .unwrap_or(1)
    }

    /// The largest batch whose data fits the D-cache alongside one
    /// layer's data (the paper's special-case batch cap).
    pub fn dcache_fit(&self) -> u64 {
        (self.dcache_bytes.saturating_sub(self.layer_data_bytes) / self.msg_bytes.max(1)).max(1)
    }

    /// The paper's synthetic benchmark parameters.
    pub fn paper_synthetic() -> Self {
        BlockingModel {
            layers: 5,
            code_bytes: 5 * 6 * 1024,
            layer_data_bytes: 256,
            msg_bytes: 552,
            icache_bytes: 8 * 1024,
            dcache_bytes: 8 * 1024,
            line_bytes: 32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misses_fall_with_blocking_until_dcache_overflows() {
        let m = BlockingModel::paper_synthetic();
        assert_eq!(m.dcache_fit(), 14);
        let best = m.optimal_blocking_factor(100);
        // Monotone decrease up to the optimum...
        for b in 1..best {
            assert!(
                m.misses_per_message(b) > m.misses_per_message(b + 1),
                "misses should fall from B={b} to B={}",
                b + 1
            );
        }
        // ...then a jump when the batch stops fitting the D-cache.
        assert!(m.misses_per_message(best + 1) > m.misses_per_message(best));
    }

    #[test]
    fn optimal_factor_is_near_the_dcache_fit_for_the_paper_stack() {
        // The policy cap (one layer's data resident) slightly exceeds the
        // capacity-model optimum (all layers' data resident); both land
        // in the low teens for the paper's geometry.
        let m = BlockingModel::paper_synthetic();
        let best = m.optimal_blocking_factor(100);
        assert!((10..=14).contains(&best), "optimum {best}");
        assert!(best <= m.dcache_fit());
    }

    #[test]
    fn small_stacks_do_not_need_blocking() {
        // A stack whose code fits the I-cache: B=1 is optimal (blocking
        // only adds message D-cache pressure).
        let m = BlockingModel {
            code_bytes: 4 * 1024,
            ..BlockingModel::paper_synthetic()
        };
        assert_eq!(m.optimal_blocking_factor(100), 1);
    }

    #[test]
    fn conventional_misses_match_figure5_scale() {
        // At B=1 the model predicts ~960 instruction misses + ~25 data
        // lines, matching Figure 5's conventional curve near 1000.
        let m = BlockingModel::paper_synthetic();
        let misses = m.misses_per_message(1);
        assert!((950.0..1050.0).contains(&misses), "got {misses}");
        // At the optimal factor, misses drop well below a third.
        let best = m.misses_per_message(m.optimal_blocking_factor(100));
        assert!(best < misses / 3.0, "blocked {best} vs conventional {misses}");
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        let m = BlockingModel {
            msg_bytes: 0,
            ..BlockingModel::paper_synthetic()
        };
        let _ = m.dcache_fit();
        let m = BlockingModel {
            layer_data_bytes: 1 << 30,
            ..BlockingModel::paper_synthetic()
        };
        assert!(m.misses_per_message(1).is_finite());
    }
}
