//! ExEA hyper-parameters.

use ea_embed::vector::sigmoid;
use ea_embed::CandidateSearch;

/// Hyper-parameters of the ExEA framework.
///
/// The names follow the paper: `alpha` discounts moderately-influential edges
/// (Eq. 7) and weights the embedding-similarity term of the alignment score
/// (Algorithm 2, line 14); `theta` and `gamma` are the thresholds of the
/// adaptive confidence aggregation (Eq. 9); `beta = sigmoid(theta)` is the
/// low-confidence threshold (§IV-C).
#[derive(Debug, Clone, PartialEq)]
pub struct ExeaConfig {
    /// Neighbourhood radius (in hops) used for explanation candidates.
    /// The paper uses `h ≤ 2`; 1 is the default for readability and speed.
    pub hops: usize,
    /// Discount for moderately-influential edges and weight of the embedding
    /// similarity inside the alignment score.
    pub alpha: f64,
    /// Threshold on the strong-edge aggregation below which moderate edges
    /// are also aggregated (Eq. 9).
    pub theta: f64,
    /// Threshold on the moderate-edge aggregation below which weak edges are
    /// also aggregated (Eq. 9).
    pub gamma: f64,
    /// Fixed small weight assigned to weakly-influential edges.
    pub weak_edge_weight: f64,
    /// Number of candidate target entities considered during repair
    /// (the `k` of Algorithms 1 and 2).
    pub top_k: usize,
    /// How candidate lists (and the initial greedy prediction) are produced:
    /// the exact blocked scan, the IVF approximate pre-filter
    /// ([`CandidateSearch::Ivf`], optionally with SQ8 list storage), the
    /// SQ8 quantized scan ([`CandidateSearch::Sq8`]) for corpora where the
    /// exact O(n_s·n_t) sweep dominates. At `nprobe = nlist` /
    /// `rerank_factor = usize::MAX` the approximate paths are bit-identical
    /// to the exact one; below that they trade recall for query time, but
    /// every score they do return is still the bit-exact f32 dot (see the
    /// README's recall/speed tables). Every engine searches resident
    /// panels. The `EXEA_CANDIDATE_SEARCH` override (four values, see the
    /// README) switches this default.
    pub candidate_search: CandidateSearch,
}

impl Default for ExeaConfig {
    fn default() -> Self {
        Self {
            hops: 1,
            alpha: 0.5,
            theta: 0.0,
            gamma: 0.0,
            weak_edge_weight: 0.05,
            top_k: 5,
            // Exact unless the EXEA_CANDIDATE_SEARCH override (CI's hook for
            // running the whole pipeline on an approximate engine) is set.
            candidate_search: CandidateSearch::default_from_env(),
        }
    }
}

impl ExeaConfig {
    /// Configuration using second-order (two-hop) candidate triples, as in
    /// Table II of the paper.
    pub fn second_order() -> Self {
        Self {
            hops: 2,
            ..Self::default()
        }
    }

    /// The low-confidence threshold `beta = sigmoid(theta)` (§IV-C).
    pub fn beta(&self) -> f64 {
        sigmoid(self.theta)
    }

    /// Validates the configuration, panicking on nonsensical values.
    pub fn validate(&self) {
        assert!(
            self.hops >= 1 && self.hops <= 3,
            "hops must be between 1 and 3"
        );
        assert!((0.0..=1.0).contains(&self.alpha), "alpha must be in [0, 1]");
        assert!(
            self.weak_edge_weight >= 0.0,
            "weak edge weight must be >= 0"
        );
        assert!(self.top_k >= 1, "top_k must be at least 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let c = ExeaConfig::default();
        c.validate();
        assert_eq!(c.hops, 1);
        // With theta = 0, beta = sigmoid(0) = 0.5 as in the paper.
        assert!((c.beta() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn second_order_uses_two_hops() {
        let c = ExeaConfig::second_order();
        c.validate();
        assert_eq!(c.hops, 2);
    }

    #[test]
    fn beta_follows_theta() {
        let c = ExeaConfig {
            theta: 2.0,
            ..ExeaConfig::default()
        };
        assert!(c.beta() > 0.85);
        let c = ExeaConfig {
            theta: -2.0,
            ..ExeaConfig::default()
        };
        assert!(c.beta() < 0.15);
    }

    #[test]
    #[should_panic(expected = "hops")]
    fn invalid_hops_rejected() {
        ExeaConfig {
            hops: 0,
            ..ExeaConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_rejected() {
        ExeaConfig {
            alpha: 1.5,
            ..ExeaConfig::default()
        }
        .validate();
    }
}
