//! Shared training hyper-parameters.

use ea_embed::CandidateSearch;

/// Hyper-parameters shared by all EA models in this crate.
///
/// The defaults are tuned for the `Small`/`Bench` synthetic dataset scales so
/// that a full table of experiments finishes on a laptop CPU. Users running
/// paper-scale datasets should raise `epochs` and `dim`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Margin of the ranking losses.
    pub margin: f32,
    /// Number of negative samples per positive example.
    pub negative_samples: usize,
    /// Weight of the alignment loss relative to the triple loss.
    pub alignment_weight: f32,
    /// RNG seed. Training is fully deterministic given this seed.
    pub seed: u64,
    /// Candidate-generation strategy used by training-time nearest-neighbour
    /// sweeps (currently Dual-AMN's mutual-anchor mining, through
    /// [`CandidateSearch::mutual_top1`]): the exact fused top-1 pass, which
    /// scores each source-target pair once, or — for corpora where that
    /// O(n_s·n_t) sweep is the bottleneck — the IVF approximate pre-filter
    /// (optionally IVF-SQ) or the SQ8 quantized scan, which read the heads
    /// of a `k = 1` bidirectional index.
    pub candidate_search: CandidateSearch,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            epochs: 60,
            learning_rate: 0.05,
            margin: 1.0,
            negative_samples: 4,
            alignment_weight: 2.0,
            seed: 17,
            // Exact unless the EXEA_CANDIDATE_SEARCH override (CI's hook for
            // running the whole pipeline on an approximate engine) is set.
            candidate_search: CandidateSearch::default_from_env(),
        }
    }
}

impl TrainConfig {
    /// A configuration with fewer epochs and a smaller dimension, used by
    /// unit tests that only need the training loop to run, not to converge.
    pub fn fast() -> Self {
        Self {
            dim: 16,
            epochs: 40,
            ..Self::default()
        }
    }

    /// Validates the configuration, panicking on nonsensical values.
    pub fn validate(&self) {
        assert!(self.dim >= 2, "embedding dimension must be at least 2");
        assert!(self.epochs >= 1, "need at least one epoch");
        assert!(self.learning_rate > 0.0, "learning rate must be positive");
        assert!(self.margin > 0.0, "margin must be positive");
        assert!(
            self.negative_samples >= 1,
            "need at least one negative sample"
        );
    }

    /// Returns a copy with a different RNG seed (used to check that training
    /// is seed-deterministic but seed-sensitive).
    pub fn with_seed(&self, seed: u64) -> Self {
        Self {
            seed,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        TrainConfig::default().validate();
        TrainConfig::fast().validate();
    }

    #[test]
    fn fast_config_is_cheaper_than_default() {
        let fast = TrainConfig::fast();
        let default = TrainConfig::default();
        assert!(fast.epochs < default.epochs);
        assert!(fast.dim < default.dim);
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        let base = TrainConfig::default();
        let other = base.with_seed(99);
        assert_eq!(other.dim, base.dim);
        assert_eq!(other.epochs, base.epochs);
        assert_ne!(other.seed, base.seed);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn invalid_dimension_is_rejected() {
        TrainConfig {
            dim: 1,
            ..TrainConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn invalid_learning_rate_is_rejected() {
        TrainConfig {
            learning_rate: -0.1,
            ..TrainConfig::default()
        }
        .validate();
    }
}
