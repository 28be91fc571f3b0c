//! Entity-alignment verification (paper §V-D2, Table VI).
//!
//! Verification treats each candidate pair as a claim and decides whether it
//! is correct. ExEA's signal is the explanation confidence: pairs whose ADG
//! confidence clears a threshold are accepted. The benchmark harness combines
//! this structural verdict with the simulated-LLM verdict (name-based) to
//! reproduce the paper's "ChatGPT + ExEA" fusion row.

use crate::framework::ExEa;
use ea_graph::{AlignmentPair, EntityId};

/// Precision / recall / F1 of a binary verification run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerificationOutcome {
    /// Fraction of accepted pairs that were actually correct.
    pub precision: f64,
    /// Fraction of correct pairs that were accepted.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

impl VerificationOutcome {
    /// Computes the outcome from prediction/label vectors.
    pub fn from_decisions(decisions: &[bool], labels: &[bool]) -> Self {
        assert_eq!(
            decisions.len(),
            labels.len(),
            "decisions and labels must align"
        );
        let tp = decisions
            .iter()
            .zip(labels)
            .filter(|&(&d, &l)| d && l)
            .count() as f64;
        let fp = decisions
            .iter()
            .zip(labels)
            .filter(|&(&d, &l)| d && !l)
            .count() as f64;
        let fn_ = decisions
            .iter()
            .zip(labels)
            .filter(|&(&d, &l)| !d && l)
            .count() as f64;
        let precision = if tp + fp > 0.0 { tp / (tp + fp) } else { 0.0 };
        let recall = if tp + fn_ > 0.0 { tp / (tp + fn_) } else { 0.0 };
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        Self {
            precision,
            recall,
            f1,
        }
    }
}

/// ExEA's verification decision for one pair: accept when the explanation
/// confidence clears the framework's low-confidence threshold `beta`.
pub fn verify_pair(exea: &ExEa<'_>, pair: &AlignmentPair) -> bool {
    let state = exea.default_alignment_state();
    let score = exea.score_with_state(pair.source, pair.target, state, true);
    score.has_strong_edges && score.confidence >= exea.config().beta()
}

/// Runs ExEA verification over a labelled set of candidate pairs and reports
/// precision, recall and F1 (the Table VI protocol: half the pairs correct,
/// half incorrect).
///
/// All candidates are scored in one parallel batch under the shared default
/// alignment state; decisions come back in candidate order and match
/// per-pair [`verify_pair`] calls exactly.
pub fn verify_pairs(
    exea: &ExEa<'_>,
    candidates: &[(AlignmentPair, bool)],
) -> (Vec<bool>, VerificationOutcome) {
    let pairs: Vec<AlignmentPair> = candidates.iter().map(|&(p, _)| p).collect();
    let state = exea.default_alignment_state();
    let beta = exea.config().beta();
    let decisions: Vec<bool> = exea
        .score_batch(&pairs, state, true, exea.batch_options())
        .into_iter()
        .map(|s| s.has_strong_edges && s.confidence >= beta)
        .collect();
    let labels: Vec<bool> = candidates.iter().map(|&(_, l)| l).collect();
    let outcome = VerificationOutcome::from_decisions(&decisions, &labels);
    (decisions, outcome)
}

/// Verifies every test source entity's top-`k` candidate targets straight
/// from the blocked candidate engine ([`ExEa::candidate_index`]): each
/// source's candidates are scored together by [`ExEa::score_targets`], the
/// sources fan out in one parallel batch, and every pair is accepted on the
/// usual strong-edges + `beta` rule.
///
/// This is the candidate-generation form of verification the engine makes
/// affordable at scale — O(n·k) pairs, with `k` capped by the engine's own
/// `top_k` — and the verdict for any pair is identical to [`verify_pair`].
/// Returns the pairs in (source row, rank) order with their verdicts.
pub fn verify_top_candidates(exea: &ExEa<'_>, k: usize) -> Vec<(AlignmentPair, bool)> {
    let index = exea.candidate_index();
    let state = exea.default_alignment_state();
    let beta = exea.config().beta();
    let rows: Vec<usize> = (0..index.source_ids().len()).collect();
    let verdicts = exea.run_batch(&rows, exea.batch_options(), |&row| {
        let source = index.source_ids()[row];
        let ranked: Vec<EntityId> = index.candidates(row).take(k).map(|(t, _)| t).collect();
        let mut targets = ranked.clone();
        targets.sort_unstable();
        targets.dedup();
        let scores = exea.score_targets(source, &targets, state, true);
        ranked
            .iter()
            .map(|t| {
                let s = scores[targets
                    .binary_search(t)
                    .expect("every ranked target is scored")];
                (s.pair, s.has_strong_edges && s.confidence >= beta)
            })
            .collect::<Vec<_>>()
    });
    verdicts.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExeaConfig;
    use ea_data::datasets::{load, DatasetName, DatasetScale};
    use ea_models::{build_model, ModelKind, TrainConfig};

    #[test]
    fn metrics_from_decisions_are_correct() {
        let decisions = [true, true, false, false];
        let labels = [true, false, true, false];
        let o = VerificationOutcome::from_decisions(&decisions, &labels);
        assert!((o.precision - 0.5).abs() < 1e-12);
        assert!((o.recall - 0.5).abs() < 1e-12);
        assert!((o.f1 - 0.5).abs() < 1e-12);
        let perfect = VerificationOutcome::from_decisions(&[true, false], &[true, false]);
        assert_eq!(perfect.precision, 1.0);
        assert_eq!(perfect.recall, 1.0);
        assert_eq!(perfect.f1, 1.0);
        let nothing = VerificationOutcome::from_decisions(&[false, false], &[true, true]);
        assert_eq!(nothing.precision, 0.0);
        assert_eq!(nothing.recall, 0.0);
        assert_eq!(nothing.f1, 0.0);
    }

    #[test]
    #[should_panic(expected = "decisions and labels")]
    fn mismatched_lengths_panic() {
        let _ = VerificationOutcome::from_decisions(&[true], &[true, false]);
    }

    #[test]
    fn verification_separates_correct_from_shuffled_pairs() {
        let pair = load(DatasetName::ZhEn, DatasetScale::Small);
        let trained = build_model(ModelKind::GcnAlign, TrainConfig::fast()).train(&pair);
        let exea = ExEa::new(&pair, &trained, ExeaConfig::default());

        // Build a balanced candidate set: correct reference pairs plus the
        // same sources paired with shifted (wrong) targets.
        let reference: Vec<_> = pair.reference.to_vec();
        let n = 40.min(reference.len());
        let mut candidates = Vec::new();
        for i in 0..n {
            candidates.push((reference[i], true));
            let wrong_target = reference[(i + 7) % reference.len()].target;
            if wrong_target != reference[i].target {
                candidates.push((AlignmentPair::new(reference[i].source, wrong_target), false));
            }
        }
        let (decisions, outcome) = verify_pairs(&exea, &candidates);
        assert_eq!(decisions.len(), candidates.len());
        // The structural verifier must clearly beat coin-flipping on this
        // separable task.
        assert!(outcome.f1 > 0.55, "verification F1 too low: {:?}", outcome);
        let _ = EntityId(0);
    }

    #[test]
    fn top_candidate_verification_matches_per_pair_verdicts() {
        let pair = load(DatasetName::ZhEn, DatasetScale::Small);
        let trained = build_model(ModelKind::GcnAlign, TrainConfig::fast()).train(&pair);
        let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
        let k = 2;
        let verdicts = verify_top_candidates(&exea, k);
        let index = exea.candidate_index();
        assert_eq!(verdicts.len(), index.source_ids().len() * k);
        // Pairs come back in (source row, rank) order and each verdict is
        // exactly what the per-pair API decides.
        for (row, &source) in index.source_ids().iter().enumerate().take(5) {
            for (rank, (target, _)) in index.candidates(row).take(k).enumerate() {
                let (p, accepted) = verdicts[row * k + rank];
                assert_eq!(p, AlignmentPair::new(source, target));
                assert_eq!(accepted, verify_pair(&exea, &p));
            }
        }
        // Some accepted, some rejected on a weak model's candidate lists.
        assert!(verdicts.iter().any(|&(_, a)| a));
        assert!(verdicts.iter().any(|&(_, a)| !a));
    }
}
