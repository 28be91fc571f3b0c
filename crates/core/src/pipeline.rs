//! Batched, parallel explanation and scoring.
//!
//! Every predicted pair needs a confidence, and the three repair loops
//! re-score whole alignments repeatedly. All of that work is embarrassingly
//! parallel — each pair only *reads* the shared KG pair, relation
//! functionalities, cached relation paths and rule tables — so this module
//! fans it out over a rayon worker pool. Two kinds of batch exist:
//! [`ExEa::explain_and_score_batch`] materialises each pair's explanation and
//! ADG, for callers that read the subgraph; [`ExEa::score_batch`] returns only
//! the confidence and the strong-edge flag, computed by the shared matching
//! core on per-thread scratch without building either.
//!
//! **Determinism.** Workers share nothing mutable (each has its own matching
//! scratch) and results are collected in input order, so a parallel batch is
//! bit-identical to the sequential loop it replaces (asserted by
//! `tests/batch_determinism.rs`). Confidence maps built from a batch are
//! keyed `(source, target)` in a `BTreeMap`, giving a canonical merge order
//! regardless of worker scheduling.

use crate::adg::Adg;
use crate::explanation::Explanation;
use crate::framework::ExEa;
use ea_graph::{AlignmentPair, AlignmentSet, EntityId};
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Controls how batch entry points execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOptions {
    /// Fan work out over the rayon pool. When `false` every batch runs on
    /// the calling thread (useful for debugging and determinism tests).
    pub parallel: bool,
    /// Batches smaller than this stay sequential even when `parallel` is
    /// set; spawning workers for a handful of pairs costs more than it saves.
    pub min_parallel_batch: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        Self {
            parallel: true,
            min_parallel_batch: 16,
        }
    }
}

impl BatchOptions {
    /// Options forcing sequential execution.
    pub fn sequential() -> Self {
        Self {
            parallel: false,
            min_parallel_batch: usize::MAX,
        }
    }

    /// Options forcing parallel execution regardless of batch size.
    pub fn always_parallel() -> Self {
        Self {
            parallel: true,
            min_parallel_batch: 0,
        }
    }
}

/// The fully scored explanation of one pair: the matching subgraph plus its
/// alignment dependency graph.
#[derive(Debug, Clone)]
pub struct ScoredExplanation {
    /// The pair that was explained.
    pub pair: AlignmentPair,
    /// The semantic-matching-subgraph explanation.
    pub explanation: Explanation,
    /// The ADG built from the explanation (relation conflicts applied as
    /// requested by the producing call).
    pub adg: Adg,
}

impl ScoredExplanation {
    /// Explanation confidence of the pair.
    pub fn confidence(&self) -> f64 {
        self.adg.confidence()
    }
}

/// Per-pair verdict for callers that only need scores (the repair loops,
/// verification): confidence plus the strong-edge flag. Produced by
/// [`ExEa::score_batch`], which never builds the explanation or its ADG.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairScore {
    /// The scored pair.
    pub pair: AlignmentPair,
    /// Explanation confidence (Eq. 9).
    pub confidence: f64,
    /// Whether the ADG has at least one strongly-influential edge (§IV-C).
    pub has_strong_edges: bool,
}

/// A deterministic confidence lookup built from a batch run.
///
/// Entries are keyed `(source, target)` in a `BTreeMap`, so iteration order
/// — and therefore any downstream aggregation — is independent of how many
/// workers produced the scores.
#[derive(Debug, Clone, Default)]
pub struct ConfidenceMap {
    scores: BTreeMap<(EntityId, EntityId), f64>,
}

impl ConfidenceMap {
    /// Builds the map from per-pair scores (later duplicates win; batches
    /// over alignment sets never contain duplicates).
    pub fn from_scores(scores: &[PairScore]) -> Self {
        let mut map = BTreeMap::new();
        for s in scores {
            map.insert((s.pair.source, s.pair.target), s.confidence);
        }
        Self { scores: map }
    }

    /// Confidence of a pair, if it was part of the batch.
    pub fn get(&self, source: EntityId, target: EntityId) -> Option<f64> {
        self.scores.get(&(source, target)).copied()
    }

    /// Number of scored pairs.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Iterates pairs in canonical `(source, target)` order.
    pub fn iter(&self) -> impl Iterator<Item = (EntityId, EntityId, f64)> + '_ {
        self.scores.iter().map(|(&(s, t), &c)| (s, t, c))
    }
}

impl<'a> ExEa<'a> {
    /// Order-preserving batch runner: maps `f` over `items`, in parallel
    /// when the options and batch size allow it.
    pub(crate) fn run_batch<T, R, F>(&self, items: &[T], options: &BatchOptions, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync + Send,
    {
        if options.parallel && items.len() >= options.min_parallel_batch.max(2) {
            items.par_iter().map(&f).collect()
        } else {
            items.iter().map(f).collect()
        }
    }

    /// Explains and scores every pair in `pairs` under an explicit alignment
    /// state, fanning the work out over the rayon pool.
    ///
    /// Results come back in input order and are bit-identical to calling
    /// [`ExEa::explain_with_state`] + [`ExEa::adg`] pair by pair.
    pub fn explain_and_score_batch(
        &self,
        pairs: &[AlignmentPair],
        state: &AlignmentSet,
        apply_relation_conflicts: bool,
        options: &BatchOptions,
    ) -> Vec<ScoredExplanation> {
        self.run_batch(pairs, options, |p| {
            let explanation = self.explain_with_state(p.source, p.target, state);
            let adg = self.adg(&explanation, apply_relation_conflicts);
            ScoredExplanation {
                pair: *p,
                explanation,
                adg,
            }
        })
    }

    /// Scores every pair in `pairs` under an explicit alignment state,
    /// keeping only confidence and the strong-edge flag. This is the entry
    /// point the repair loops and verification use: each pair is scored from
    /// the shared matching core, so no explanation or ADG is built, and the
    /// scores are bit-identical to [`ExEa::explain_and_score_batch`]'s.
    pub fn score_batch(
        &self,
        pairs: &[AlignmentPair],
        state: &AlignmentSet,
        apply_relation_conflicts: bool,
        options: &BatchOptions,
    ) -> Vec<PairScore> {
        self.run_batch(pairs, options, |p| {
            self.score_with_state(p.source, p.target, state, apply_relation_conflicts)
        })
    }

    /// Explains and scores every model prediction under the default
    /// alignment state (predictions plus seed), with relation-conflict
    /// adjustment — the batched counterpart of calling
    /// [`ExEa::explain_and_score`] for each prediction.
    pub fn explain_all(&self) -> Vec<ScoredExplanation> {
        let pairs: Vec<AlignmentPair> = self.predictions().iter().collect();
        let state = self.default_alignment_state();
        self.explain_and_score_batch(&pairs, state, true, self.batch_options())
    }

    /// Batched confidence map over every model prediction: a deterministic
    /// `(source, target) -> confidence` lookup.
    pub fn confidence_map(&self) -> ConfidenceMap {
        let pairs: Vec<AlignmentPair> = self.predictions().iter().collect();
        let state = self.default_alignment_state();
        let scores = self.score_batch(&pairs, state, true, self.batch_options());
        ConfidenceMap::from_scores(&scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_parallel_with_threshold() {
        let options = BatchOptions::default();
        assert!(options.parallel);
        assert!(options.min_parallel_batch > 1);
        assert!(!BatchOptions::sequential().parallel);
        assert_eq!(BatchOptions::always_parallel().min_parallel_batch, 0);
    }

    #[test]
    fn confidence_map_is_canonically_ordered() {
        let scores = vec![
            PairScore {
                pair: AlignmentPair::new(EntityId(2), EntityId(0)),
                confidence: 0.25,
                has_strong_edges: false,
            },
            PairScore {
                pair: AlignmentPair::new(EntityId(0), EntityId(1)),
                confidence: 0.75,
                has_strong_edges: true,
            },
        ];
        let map = ConfidenceMap::from_scores(&scores);
        assert_eq!(map.len(), 2);
        assert!(!map.is_empty());
        assert_eq!(map.get(EntityId(0), EntityId(1)), Some(0.75));
        assert_eq!(map.get(EntityId(9), EntityId(9)), None);
        let order: Vec<_> = map.iter().map(|(s, _, _)| s).collect();
        assert_eq!(order, vec![EntityId(0), EntityId(2)]);
    }
}
