//! The ExEA framework object: caches, explanation and ADG entry points.

use crate::adg::{confidence_from_aggregates, edge_rule, Adg, EdgeKind};
use crate::config::ExeaConfig;
use crate::explanation::{explain_sorted, for_each_match, Explanation, PathEmbedder, PathMatch};
use crate::pipeline::{BatchOptions, PairScore};
use crate::relation_embed::RelationEmbeddings;
use crate::rules::{mine_not_same_as_rules, relation_alignment, NotSameAsRules, RelationAlignment};
use ea_embed::CandidateIndex;
use ea_graph::paths::enumerate_paths;
use ea_graph::{
    AlignmentPair, AlignmentSet, Direction, EntityId, KgPair, KgSide, RelationFunctionality,
    RelationPath,
};
use ea_models::TrainedAlignment;

/// One pair's Eq. 8 per-class sums and strong-edge flag, as the matching
/// core accumulates them.
#[derive(Debug, Clone, Copy, Default)]
struct Eq8Sums {
    sums: [f64; 3],
    has_strong_edges: bool,
}

impl Eq8Sums {
    fn score(self, e1: EntityId, e2: EntityId, config: &ExeaConfig) -> PairScore {
        PairScore {
            pair: AlignmentPair::new(e1, e2),
            confidence: confidence_from_aggregates(self.sums, config.theta, config.gamma),
            has_strong_edges: self.has_strong_edges,
        }
    }
}

/// The ExEA framework bound to one KG pair and one trained EA model.
///
/// Construction precomputes everything the explanation and repair loops need
/// repeatedly: relation paths around every entity (up to the configured hop
/// count), relation embeddings, relation functionalities, the cross-KG
/// relation alignment, the ¬sameAs rules of the target graph, and the top-k
/// candidate engine (one scan — and, for the IVF strategy, one quantizer
/// build — serves prediction, repair and verification alike).
pub struct ExEa<'a> {
    pair: &'a KgPair,
    trained: &'a TrainedAlignment,
    config: ExeaConfig,
    source_relations: RelationEmbeddings,
    target_relations: RelationEmbeddings,
    source_functionality: RelationFunctionality,
    target_functionality: RelationFunctionality,
    /// Relation paths around every entity, stable-sorted by endpoint so the
    /// matching core finds a neighbour's run by binary search.
    source_paths: Vec<Vec<RelationPath>>,
    target_paths: Vec<Vec<RelationPath>>,
    relation_alignment: RelationAlignment,
    target_rules: NotSameAsRules,
    predictions: AlignmentSet,
    /// The default alignment state: `predictions` plus the seed alignment.
    state: AlignmentSet,
    batch: BatchOptions,
    /// Top-k candidate engine (`k = config.top_k`), built once at
    /// construction and shared by prediction, the repair loops and candidate
    /// verification.
    candidates: CandidateIndex,
}

impl<'a> ExEa<'a> {
    /// Builds the framework for a KG pair and a trained model.
    pub fn new(pair: &'a KgPair, trained: &'a TrainedAlignment, config: ExeaConfig) -> Self {
        config.validate();
        let source_relations = RelationEmbeddings::for_side(trained, &pair.source, KgSide::Source);
        let target_relations = RelationEmbeddings::for_side(trained, &pair.target, KgSide::Target);
        let source_functionality = RelationFunctionality::compute(&pair.source);
        let target_functionality = RelationFunctionality::compute(&pair.target);
        let sorted_paths = |kg, e| {
            let mut paths = enumerate_paths(kg, e, config.hops);
            paths.sort_by_key(RelationPath::end);
            paths
        };
        let source_paths = pair
            .source
            .entity_ids()
            .map(|e| sorted_paths(&pair.source, e))
            .collect();
        let target_paths = pair
            .target
            .entity_ids()
            .map(|e| sorted_paths(&pair.target, e))
            .collect();
        let relation_alignment = relation_alignment(pair, trained);
        let target_rules = mine_not_same_as_rules(&pair.target);
        // One candidate build serves everything downstream: the greedy
        // prediction `Ares` is the rank-0 column of the same engine the
        // repair loops walk (bit-identical to a dedicated k=1 exact scan;
        // for partial-probing IVF it can only see *more* lists than a k=1
        // search would, never fewer, and for SQ8 the re-rank depth only
        // grows with k), and the IVF/SQ8 quantizers — when configured — are
        // built exactly once per framework.
        let candidates = trained.candidate_index_with(pair, config.top_k, &config.candidate_search);
        let predictions = candidates.greedy_alignment();
        let mut state = predictions.clone();
        state.extend_from(&pair.seed);
        Self {
            pair,
            trained,
            config,
            source_relations,
            target_relations,
            source_functionality,
            target_functionality,
            source_paths,
            target_paths,
            relation_alignment,
            target_rules,
            predictions,
            state,
            batch: BatchOptions::default(),
            candidates,
        }
    }

    /// The top-k candidate engine over the pair's test source entities and
    /// all target entities (`k = config.top_k`) — the bounded O(n·k) form of
    /// the paper's ranked candidate matrix `M`, produced by the configured
    /// [`ea_embed::CandidateSearch`] strategy (exact blocked scan, IVF
    /// pre-filter — optionally with SQ8 list storage — or SQ8 quantized
    /// scan; approximate strategies may miss candidates but never re-score
    /// the ones they return). Built once at construction and shared by
    /// prediction, repair (cr2/cr3) and candidate verification.
    pub fn candidate_index(&self) -> &CandidateIndex {
        &self.candidates
    }

    /// The batch-execution options used by [`ExEa::explain_all`] and the
    /// internally batched repair/verification loops.
    pub fn batch_options(&self) -> &BatchOptions {
        &self.batch
    }

    /// Replaces the batch-execution options (builder style). Use
    /// [`BatchOptions::sequential`] to force single-threaded execution.
    pub fn with_batch_options(mut self, options: BatchOptions) -> Self {
        self.batch = options;
        self
    }

    /// The KG pair the framework operates on.
    pub fn pair(&self) -> &KgPair {
        self.pair
    }

    /// The trained model artifact in use.
    pub fn trained(&self) -> &TrainedAlignment {
        self.trained
    }

    /// The framework configuration.
    pub fn config(&self) -> &ExeaConfig {
        &self.config
    }

    /// The model's raw greedy predictions (`Ares`).
    pub fn predictions(&self) -> &AlignmentSet {
        &self.predictions
    }

    /// The mined cross-KG relation alignment.
    pub fn relation_alignment(&self) -> &RelationAlignment {
        &self.relation_alignment
    }

    /// The mined ¬sameAs rules of the target graph.
    pub fn target_rules(&self) -> &NotSameAsRules {
        &self.target_rules
    }

    /// The alignment state explanations should be generated against: the
    /// model predictions plus the seed alignment, built once at construction.
    pub fn default_alignment_state(&self) -> &AlignmentSet {
        &self.state
    }

    /// Number of candidate triples (within the configured hop count around
    /// both entities) for sparsity computation.
    pub fn candidate_triples(&self, e1: EntityId, e2: EntityId) -> usize {
        self.pair
            .source
            .triples_within_hops(e1, self.config.hops)
            .len()
            + self
                .pair
                .target
                .triples_within_hops(e2, self.config.hops)
                .len()
    }

    fn path_embedder(&self) -> PathEmbedder<'_> {
        PathEmbedder::new(self.trained, &self.source_relations, &self.target_relations)
    }

    /// Generates the explanation for the pair `(e1, e2)` under an explicit
    /// alignment state.
    pub fn explain_with_state(
        &self,
        e1: EntityId,
        e2: EntityId,
        state: &AlignmentSet,
    ) -> Explanation {
        explain_sorted(
            &self.path_embedder(),
            state,
            e1,
            e2,
            &self.source_paths[e1.index()],
            |t| &self.target_paths[t.index()],
        )
    }

    /// Generates the explanation for the pair `(e1, e2)` under the default
    /// alignment state (predictions plus seed).
    pub fn explain(&self, e1: EntityId, e2: EntityId) -> Explanation {
        self.explain_with_state(e1, e2, &self.state)
    }

    /// Builds the ADG for an explanation. When `apply_relation_conflicts` is
    /// set, neighbour nodes whose connecting relations are inferred to imply
    /// `¬sameAs` (relation-alignment conflicts, §IV-A) are removed before the
    /// confidence is computed.
    pub fn adg(&self, explanation: &Explanation, apply_relation_conflicts: bool) -> Adg {
        let mut adg = Adg::build(
            explanation,
            self.trained,
            &self.source_functionality,
            &self.target_functionality,
            &self.config,
        );
        if apply_relation_conflicts {
            let conflicting = self.relation_conflict_neighbors(explanation, &adg);
            if !conflicting.is_empty() {
                adg.remove_neighbors(conflicting);
            }
        }
        adg
    }

    /// Scores the pair `(e1, e2)` under an explicit alignment state: the ADG
    /// confidence (Eq. 9) and the strong-edge flag (§IV-C), without building
    /// the explanation or the ADG. The one-candidate case of
    /// [`ExEa::score_targets`].
    pub(crate) fn score_with_state(
        &self,
        e1: EntityId,
        e2: EntityId,
        state: &AlignmentSet,
        apply_relation_conflicts: bool,
    ) -> PairScore {
        let mut sums = [Eq8Sums::default()];
        self.accumulate(e1, &[e2], state, apply_relation_conflicts, &mut sums);
        sums[0].score(e1, e2, &self.config)
    }

    /// Scores `e1` against every target of `targets` (sorted ascending,
    /// distinct) under an explicit alignment state, in one pass over `e1`'s
    /// neighbour groups. Returns one [`PairScore`] per target, in `targets`
    /// order, each bit-identical to scoring that pair alone with
    /// [`ExEa::confidence_with_state`] / [`ExEa::score_batch`].
    ///
    /// # Panics
    /// Panics if `targets` is not strictly ascending.
    pub fn score_targets(
        &self,
        e1: EntityId,
        targets: &[EntityId],
        state: &AlignmentSet,
        apply_relation_conflicts: bool,
    ) -> Vec<PairScore> {
        assert!(
            targets.windows(2).all(|w| w[0] < w[1]),
            "score_targets needs strictly ascending targets"
        );
        let mut sums = vec![Eq8Sums::default(); targets.len()];
        self.accumulate(e1, targets, state, apply_relation_conflicts, &mut sums);
        targets
            .iter()
            .zip(sums)
            .map(|(&e2, s)| s.score(e1, e2, &self.config))
            .collect()
    }

    /// Runs the matching core for `e1` against `targets` and feeds each match
    /// straight into the ADG edge rule and Eq. 8's per-class sums of its
    /// target, in the ADG's edge order. With `apply_relation_conflicts`, a
    /// neighbour pair any of whose matches is a relation-alignment conflict
    /// contributes nothing — exactly what [`Adg::remove_neighbors`] does to
    /// that node. Each target's sums are therefore those of
    /// [`ExEa::explain_with_state`] followed by [`ExEa::adg`], bit for bit.
    fn accumulate(
        &self,
        e1: EntityId,
        targets: &[EntityId],
        state: &AlignmentSet,
        apply_relation_conflicts: bool,
        sums: &mut [Eq8Sums],
    ) {
        for_each_match(
            &self.path_embedder(),
            state,
            e1,
            &self.source_paths[e1.index()],
            targets,
            |t| &self.target_paths[t.index()],
            |i, sources, targets, matches| {
                let conflict =
                    |m: &PathMatch| self.relation_conflict(&sources[m.source], &targets[m.target]);
                if apply_relation_conflicts && matches.iter().any(conflict) {
                    return;
                }
                let influence = self
                    .trained
                    .entity_similarity(sources[0].end(), targets[0].end())
                    as f64;
                let acc = &mut sums[i];
                for m in matches {
                    let (kind, weight) = edge_rule(
                        &sources[m.source],
                        &targets[m.target],
                        &self.source_functionality,
                        &self.target_functionality,
                        &self.config,
                    );
                    acc.sums[kind as usize] += weight * influence;
                    acc.has_strong_edges |= kind == EdgeKind::Strong;
                }
            },
        );
    }

    /// The distinct endpoints of `e1`'s cached source paths, ascending. A
    /// score of `(e1, _)` reads the alignment state only through
    /// `target_of` of these entities, and every neighbour of `e1` is one of
    /// them (each is the endpoint of a one-hop path), so they are all the
    /// state repair's score memo must watch for `e1`.
    pub(crate) fn path_endpoints(&self, e1: EntityId) -> impl Iterator<Item = EntityId> + '_ {
        self.source_paths[e1.index()]
            .chunk_by(|a, b| a.end() == b.end())
            .map(|run| run[0].end())
    }

    /// Explanation confidence of a pair under a given alignment state.
    ///
    /// Computed from the matching core without building the explanation or
    /// the ADG, and bit-identical to the confidence of
    /// [`ExEa::explain_with_state`] followed by [`ExEa::adg`].
    pub fn confidence_with_state(
        &self,
        e1: EntityId,
        e2: EntityId,
        state: &AlignmentSet,
        apply_relation_conflicts: bool,
    ) -> f64 {
        self.score_with_state(e1, e2, state, apply_relation_conflicts)
            .confidence
    }

    /// Indexes of ADG neighbour nodes that are in relation-alignment conflict
    /// with the central pair: the direct relations connecting them to the two
    /// central entities map (through the relation alignment) to a relation
    /// pair that the target KG's ¬sameAs rules declare object-disjoint.
    pub fn relation_conflict_neighbors(&self, explanation: &Explanation, adg: &Adg) -> Vec<usize> {
        let mut conflicting = Vec::new();
        for (idx, node) in adg.neighbors.iter().enumerate() {
            let conflict = explanation.matched_paths.iter().any(|m| {
                m.source.end() == node.source
                    && m.target.end() == node.target
                    && self.relation_conflict(&m.source, &m.target)
            });
            if conflict {
                conflicting.push(idx);
            }
        }
        conflicting
    }

    /// Whether one matched path pair is a relation-alignment conflict (cr1,
    /// §IV-A): both paths are direct, and their relations map (through the
    /// relation alignment) to a relation pair that the target KG's ¬sameAs
    /// rules declare object-disjoint.
    fn relation_conflict(&self, source: &RelationPath, target: &RelationPath) -> bool {
        if !(source.is_direct() && target.is_direct()) {
            return false;
        }
        // Only the head-sharing rule shape is mined: both central entities
        // must be the heads of their triples (cross-KG triple (e2, r1, n1)
        // plus (e2, r2, n2)).
        if source.first_direction() != Direction::Forward
            || target.first_direction() != Direction::Forward
        {
            return false;
        }
        let r1 = source.steps[0].relation;
        let r2 = target.steps[0].relation;
        match self.relation_alignment.target_of(r1) {
            // Aligned relations support the match; different relations that
            // provably never share objects contradict it.
            Some(mapped) => mapped != r2 && self.target_rules.implies_not_same(mapped, r2),
            None => false,
        }
    }

    /// Convenience: explanation plus ADG (with relation-conflict adjustment)
    /// for a pair under the default state.
    pub fn explain_and_score(&self, e1: EntityId, e2: EntityId) -> (Explanation, Adg) {
        let explanation = self.explain_with_state(e1, e2, &self.state);
        let adg = self.adg(&explanation, true);
        (explanation, adg)
    }

    /// Renders a Fig. 5-style case study for one source entity: the predicted
    /// counterpart, the explanation subgraph and the confidence.
    pub fn render_case_study(&self, source: EntityId) -> String {
        let Some(target) = self.predictions.target_of(source) else {
            return format!(
                "{}: no prediction available",
                self.pair.source.entity_name(source).unwrap_or("?")
            );
        };
        let (explanation, adg) = self.explain_and_score(source, target);
        let mut out = String::new();
        out.push_str(&format!(
            "model {} predicts: {} ≡ {}  (confidence {:.3})\n",
            self.trained.model_name(),
            self.pair.source.entity_name(source).unwrap_or("?"),
            self.pair.target.entity_name(target).unwrap_or("?"),
            adg.confidence()
        ));
        out.push_str(&explanation.render(self.pair));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_data::datasets::{load, DatasetName, DatasetScale};
    use ea_models::{build_model, ModelKind, TrainConfig};

    fn setup() -> (ea_graph::KgPair, TrainedAlignment) {
        let pair = load(DatasetName::ZhEn, DatasetScale::Small);
        let trained = build_model(ModelKind::GcnAlign, TrainConfig::fast()).train(&pair);
        (pair, trained)
    }

    #[test]
    fn framework_builds_and_exposes_components() {
        let (pair, trained) = setup();
        let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
        assert_eq!(exea.predictions().len(), pair.reference.len());
        assert!(!exea.relation_alignment().is_empty());
        assert_eq!(exea.pair().name, pair.name);
        assert_eq!(exea.trained().model_name(), "GCN-Align");
        assert_eq!(exea.config().hops, 1);
        let state = exea.default_alignment_state();
        assert_eq!(state.len(), pair.reference.len() + pair.seed.len());
    }

    #[test]
    fn explanations_for_correct_pairs_raise_confidence() {
        let (pair, trained) = setup();
        let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
        // Average confidence over correctly predicted pairs should exceed the
        // average over deliberately wrong pairs.
        let predictions = exea.predictions().clone();
        let mut correct_conf = Vec::new();
        let mut wrong_conf = Vec::new();
        for p in pair.reference.iter().take(80) {
            let predicted = predictions.target_of(p.source);
            if predicted == Some(p.target) {
                let (_, adg) = exea.explain_and_score(p.source, p.target);
                correct_conf.push(adg.confidence());
            }
            // A deliberately mismatched target: shift by one reference pair.
            let wrong_target = pair
                .reference
                .iter()
                .find(|q| q.target != p.target)
                .unwrap()
                .target;
            let (_, adg) = exea.explain_and_score(p.source, wrong_target);
            wrong_conf.push(adg.confidence());
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            avg(&correct_conf) > avg(&wrong_conf),
            "correct pairs should have higher confidence ({:.3} vs {:.3})",
            avg(&correct_conf),
            avg(&wrong_conf)
        );
    }

    #[test]
    fn candidate_triples_match_hop_neighbourhoods() {
        let (pair, trained) = setup();
        let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
        let p = pair.reference.iter().next().unwrap();
        let expected = pair.source.triples_within_hops(p.source, 1).len()
            + pair.target.triples_within_hops(p.target, 1).len();
        assert_eq!(exea.candidate_triples(p.source, p.target), expected);
    }

    #[test]
    fn confidence_with_state_matches_explicit_pipeline() {
        let (pair, trained) = setup();
        let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
        let state = exea.default_alignment_state();
        let p = pair.reference.iter().next().unwrap();
        let via_helper = exea.confidence_with_state(p.source, p.target, state, false);
        let explanation = exea.explain_with_state(p.source, p.target, state);
        let via_pipeline = exea.adg(&explanation, false).confidence();
        assert!((via_helper - via_pipeline).abs() < 1e-12);
    }

    #[test]
    fn case_study_rendering_mentions_model_and_entities() {
        let (pair, trained) = setup();
        let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
        let p = pair.reference.iter().next().unwrap();
        let text = exea.render_case_study(p.source);
        assert!(text.contains("GCN-Align"));
        assert!(text.contains(pair.source.entity_name(p.source).unwrap()));
        assert!(text.contains("confidence"));
    }

    #[test]
    fn relation_conflict_adjustment_never_raises_confidence() {
        let (pair, trained) = setup();
        let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
        for p in pair.reference.iter().take(40) {
            let state = exea.default_alignment_state();
            let explanation = exea.explain_with_state(p.source, p.target, state);
            let plain = exea.adg(&explanation, false).confidence();
            let adjusted = exea.adg(&explanation, true).confidence();
            assert!(adjusted <= plain + 1e-9);
        }
    }
}
