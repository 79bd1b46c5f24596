//! LUT-based softmax unit of the back-end V-PU.
//!
//! The paper implements the V-PU's softmax the same way A³ does: a look-up
//! table of the exponential function indexed by the quantized score (Table 1
//! lists a 1 KB LUT with 24-bit inputs and 16-bit outputs). This module
//! models that unit: scores are shifted by the row maximum (the standard
//! stability trick, free in hardware because the front-end already knows the
//! largest surviving score), the shifted value indexes a `2^index_bits`-entry
//! table of `exp(x)` over a bounded negative range, and the probabilities are
//! the table outputs normalized by their (fixed-point) sum.

/// Configuration of the LUT-based exponential/softmax unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftmaxLutConfig {
    /// Number of index bits (the paper's 1 KB LUT with 16-bit entries has
    /// 512 entries, i.e. 9 index bits).
    pub index_bits: u32,
    /// Output fractional bits of the stored exponentials (16-bit entries).
    pub output_bits: u32,
    /// Most negative shifted score representable; anything below maps to the
    /// last LUT entry (effectively zero probability).
    pub min_input: f32,
}

impl Default for SoftmaxLutConfig {
    fn default() -> Self {
        Self {
            index_bits: 9,
            output_bits: 16,
            min_input: -12.0,
        }
    }
}

/// A quantized exponential look-up table plus the softmax evaluation built on
/// top of it.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftmaxLut {
    config: SoftmaxLutConfig,
    /// Fixed-point `exp(x)` values for x in `[min_input, 0]`.
    entries: Vec<u32>,
}

impl SoftmaxLut {
    /// Builds the table for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no entries, non-negative
    /// `min_input`, or zero output bits).
    pub fn new(config: SoftmaxLutConfig) -> Self {
        assert!(
            config.index_bits >= 2 && config.index_bits <= 16,
            "index bits in 2..=16"
        );
        assert!(
            config.output_bits >= 4 && config.output_bits <= 24,
            "output bits in 4..=24"
        );
        assert!(config.min_input < 0.0, "min_input must be negative");
        let entries_count = 1usize << config.index_bits;
        let scale = ((1u64 << config.output_bits) - 1) as f32;
        let entries = (0..entries_count)
            .map(|i| {
                // Entry 0 corresponds to a shifted score of 0 (probability
                // weight 1.0); the last entry corresponds to `min_input`.
                let x = config.min_input * i as f32 / (entries_count - 1) as f32;
                (x.exp() * scale).round() as u32
            })
            .collect();
        Self { config, entries }
    }

    /// The configuration the table was built for.
    pub fn config(&self) -> SoftmaxLutConfig {
        self.config
    }

    /// Number of table entries.
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// Table size in bytes (16-bit entries are stored in two bytes each, as
    /// in the paper's 1 KB figure for 512 entries).
    pub fn size_bytes(&self) -> usize {
        self.entries.len() * (self.config.output_bits as usize).div_ceil(8)
    }

    /// Looks up the fixed-point exponential of a *shifted* (non-positive)
    /// score.
    pub fn exp_fixed(&self, shifted_score: f32) -> u32 {
        if shifted_score >= 0.0 {
            return self.entries[0];
        }
        if shifted_score <= self.config.min_input {
            return *self.entries.last().expect("table is never empty"); // lint:allow(panic-in-library, reason = "the constructor always materializes at least one table entry")
        }
        let frac = shifted_score / self.config.min_input; // in (0, 1)
        let idx = (frac * (self.entries.len() - 1) as f32).round() as usize;
        self.entries[idx.min(self.entries.len() - 1)]
    }

    /// Computes softmax probabilities for a slice of surviving scores using
    /// only LUT lookups and integer accumulation, mirroring the hardware.
    /// Returns an empty vector for empty input.
    pub fn softmax(&self, scores: &[f32]) -> Vec<f32> {
        if scores.is_empty() {
            return Vec::new();
        }
        let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let weights: Vec<u64> = scores
            .iter()
            .map(|&s| u64::from(self.exp_fixed(s - max)))
            .collect();
        let total: u64 = weights.iter().sum();
        if total == 0 {
            return vec![1.0 / scores.len() as f32; scores.len()];
        }
        weights.iter().map(|&w| w as f32 / total as f32).collect()
    }

    /// Maximum absolute probability error of the LUT softmax against the
    /// exact float softmax for a given score slice.
    pub fn max_error(&self, scores: &[f32]) -> f32 {
        let approx = self.softmax(scores);
        let exact = leopard_tensor::ops::softmax(scores);
        approx
            .iter()
            .zip(exact.iter())
            .map(|(a, e)| (a - e).abs())
            .fold(0.0, f32::max)
    }
}

impl Default for SoftmaxLut {
    fn default() -> Self {
        Self::new(SoftmaxLutConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_tensor::rng;
    use proptest::prelude::*;
    use rand::Rng;

    #[test]
    fn table_size_matches_table1() {
        // 512 entries x 16 bits = 1 KB, as listed in Table 1.
        let lut = SoftmaxLut::default();
        assert_eq!(lut.entries(), 512);
        assert_eq!(lut.size_bytes(), 1024);
    }

    #[test]
    fn exponential_endpoints() {
        let lut = SoftmaxLut::default();
        let scale = ((1u64 << 16) - 1) as f32;
        assert_eq!(lut.exp_fixed(0.0), scale as u32);
        assert!(lut.exp_fixed(-100.0) <= 1);
        // Midpoint is within quantization error of the true exponential.
        let x = -3.0f32;
        let approx = lut.exp_fixed(x) as f32 / scale;
        assert!((approx - x.exp()).abs() < 0.01);
    }

    #[test]
    fn lut_softmax_tracks_exact_softmax() {
        let lut = SoftmaxLut::default();
        let mut r = rng::seeded(3);
        for _ in 0..20 {
            let n = r.gen_range(2..32);
            let scores: Vec<f32> = (0..n).map(|_| r.gen_range(-4.0..4.0)).collect();
            let err = lut.max_error(&scores);
            assert!(err < 0.01, "LUT softmax error {err} too large");
            let sum: f32 = lut.softmax(&scores).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let lut = SoftmaxLut::default();
        assert!(lut.softmax(&[]).is_empty());
        let uniform = lut.softmax(&[-1e9, -1e9]);
        assert!((uniform[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn coarser_tables_are_less_accurate() {
        let fine = SoftmaxLut::new(SoftmaxLutConfig::default());
        let coarse = SoftmaxLut::new(SoftmaxLutConfig {
            index_bits: 4,
            ..SoftmaxLutConfig::default()
        });
        let scores = [0.3f32, -1.2, 2.0, 0.8, -0.4];
        assert!(coarse.max_error(&scores) >= fine.max_error(&scores));
    }

    #[test]
    #[should_panic(expected = "min_input must be negative")]
    fn invalid_config_panics() {
        let _ = SoftmaxLut::new(SoftmaxLutConfig {
            min_input: 1.0,
            ..SoftmaxLutConfig::default()
        });
    }

    proptest! {
        #[test]
        fn prop_probabilities_sum_to_one(
            scores in proptest::collection::vec(-6.0f32..6.0, 1..64),
        ) {
            let lut = SoftmaxLut::default();
            let p = lut.softmax(&scores);
            let sum: f32 = p.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }
}
