//! The artifact produced by training: embeddings plus inference helpers.

use ea_embed::{
    vector, CandidateIndex, CandidateSearch, EmbeddingTable, HardNegativeCache, MutualTop1,
    SimilarityMatrix,
};
use ea_graph::{AlignmentSet, EntityId, KgPair, KgSide, RelationId};
use std::ops::Add;

/// Deterministic work counters of one training run: how many rows and
/// similarity dots its exact nearest-neighbour scans took. They read no
/// clock and are a deterministic function of the training seed (a
/// hard-negative refresh rescores only the rows training changed), so a
/// change to either scan shows up here as a different count, not as a
/// timing. Counters of several runs or stages add up with `+`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainingWork {
    /// Rows given a hard-negative list, summed over the cache build and
    /// every refresh ([`HardNegativeCache::listed_rows`]).
    pub hard_negative_rows: u64,
    /// Similarity dots the hard-negative cache build and refreshes computed
    /// ([`HardNegativeCache::dots`]).
    pub hard_negative_dots: u64,
    /// Source-target pairs the mutual-anchor search scored
    /// ([`MutualTop1::dots`]).
    pub mutual_anchor_dots: u64,
}

impl TrainingWork {
    /// The work of the last hard-negative cache build or refresh.
    pub fn hard_negatives(cache: &HardNegativeCache) -> Self {
        Self {
            hard_negative_rows: cache.listed_rows() as u64,
            hard_negative_dots: cache.dots(),
            ..Self::default()
        }
    }

    /// The work of one mutual-anchor search.
    pub fn mutual_anchors(search: &MutualTop1) -> Self {
        Self {
            mutual_anchor_dots: search.dots(),
            ..Self::default()
        }
    }
}

impl Add for TrainingWork {
    type Output = Self;

    fn add(self, other: Self) -> Self {
        Self {
            hard_negative_rows: self.hard_negative_rows + other.hard_negative_rows,
            hard_negative_dots: self.hard_negative_dots + other.hard_negative_dots,
            mutual_anchor_dots: self.mutual_anchor_dots + other.mutual_anchor_dots,
        }
    }
}

/// The output of training an EA model on a [`KgPair`]: entity embeddings for
/// both graphs, relation embeddings when the model learns them, and the
/// inference utilities the ExEA framework needs (similarity lookups, greedy
/// prediction, ranked candidate lists).
#[derive(Debug, Clone)]
pub struct TrainedAlignment {
    model_name: String,
    source_entities: EmbeddingTable,
    target_entities: EmbeddingTable,
    /// `vector::norm` of every entity row, derived once at construction so
    /// each similarity costs one dot instead of three.
    source_norms: Vec<f32>,
    target_norms: Vec<f32>,
    source_relations: Option<EmbeddingTable>,
    target_relations: Option<EmbeddingTable>,
    /// What training scanned; beside the tables, not part of them.
    work: TrainingWork,
}

impl TrainedAlignment {
    /// Creates a trained artifact. Relation tables are optional because
    /// GCN-Align does not learn relation embeddings (ExEA then derives them
    /// from entity embeddings, Eq. 1 of the paper).
    pub fn new(
        model_name: impl Into<String>,
        source_entities: EmbeddingTable,
        target_entities: EmbeddingTable,
        source_relations: Option<EmbeddingTable>,
        target_relations: Option<EmbeddingTable>,
    ) -> Self {
        let norms = |table: &EmbeddingTable| -> Vec<f32> {
            (0..table.rows())
                .map(|r| vector::norm(table.row(r)))
                .collect()
        };
        Self {
            model_name: model_name.into(),
            source_norms: norms(&source_entities),
            target_norms: norms(&target_entities),
            source_entities,
            target_entities,
            source_relations,
            target_relations,
            work: TrainingWork::default(),
        }
    }

    /// The artifact with the training work counters recorded by the model
    /// that produced it.
    pub fn with_work(self, work: TrainingWork) -> Self {
        Self { work, ..self }
    }

    /// The work counters of the training that produced this artifact (all
    /// zero for models without nearest-neighbour scans, and for artifacts
    /// built directly).
    pub fn work(&self) -> TrainingWork {
        self.work
    }

    /// Name of the model that produced this artifact.
    pub fn model_name(&self) -> &str {
        &self.model_name
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.source_entities.dim()
    }

    /// The entity-embedding table of one side.
    pub fn entities(&self, side: KgSide) -> &EmbeddingTable {
        match side {
            KgSide::Source => &self.source_entities,
            KgSide::Target => &self.target_entities,
        }
    }

    /// The relation-embedding table of one side, if the model learned one.
    pub fn relations(&self, side: KgSide) -> Option<&EmbeddingTable> {
        match side {
            KgSide::Source => self.source_relations.as_ref(),
            KgSide::Target => self.target_relations.as_ref(),
        }
    }

    /// Whether the model learned relation embeddings.
    pub fn has_relation_embeddings(&self) -> bool {
        self.source_relations.is_some() && self.target_relations.is_some()
    }

    /// The embedding vector of an entity.
    pub fn entity_embedding(&self, side: KgSide, entity: EntityId) -> &[f32] {
        self.entities(side).row(entity.index())
    }

    /// The embedding vector of a relation, if available.
    pub fn relation_embedding(&self, side: KgSide, relation: RelationId) -> Option<&[f32]> {
        self.relations(side).map(|t| t.row(relation.index()))
    }

    /// Cosine similarity between a source entity and a target entity:
    /// bit-identical to [`vector::cosine`] of the two rows, from the cached
    /// row norms.
    pub fn entity_similarity(&self, source: EntityId, target: EntityId) -> f32 {
        let (s, t) = (source.index(), target.index());
        vector::cosine_with_norms(
            self.source_entities.row(s),
            self.target_entities.row(t),
            self.source_norms[s],
            self.target_norms[t],
        )
    }

    /// Cosine similarity between two entities on the *same* side (used when
    /// comparing competing source entities), from the cached row norms like
    /// [`TrainedAlignment::entity_similarity`].
    pub fn same_side_similarity(&self, side: KgSide, a: EntityId, b: EntityId) -> f32 {
        let (table, norms) = match side {
            KgSide::Source => (&self.source_entities, &self.source_norms),
            KgSide::Target => (&self.target_entities, &self.target_norms),
        };
        let (a, b) = (a.index(), b.index());
        vector::cosine_with_norms(table.row(a), table.row(b), norms[a], norms[b])
    }

    /// The similarity matrix between the pair's test source entities and all
    /// target entities, the structure Algorithm 1 of the paper calls `M`.
    ///
    /// This is the dense O(n²) *reference*; inference hot paths use
    /// [`TrainedAlignment::candidate_index`] instead, which produces
    /// bit-identical top-k candidates and greedy alignments in O(n·k) memory.
    pub fn similarity_matrix(&self, pair: &KgPair) -> SimilarityMatrix {
        let sources = pair.test_source_entities();
        let targets: Vec<EntityId> = pair.target.entity_ids().collect();
        SimilarityMatrix::compute(
            &self.source_entities,
            &sources,
            &self.target_entities,
            &targets,
        )
    }

    /// Blocked top-`k` candidate lists between the pair's test source
    /// entities and all target entities — the bounded-memory production form
    /// of the matrix `M` (same greedy alignment and top-k candidates as
    /// [`TrainedAlignment::similarity_matrix`], O(n·k) storage). Exact scan;
    /// use [`TrainedAlignment::candidate_index_with`] to switch strategies.
    pub fn candidate_index(&self, pair: &KgPair, k: usize) -> CandidateIndex {
        self.candidate_index_with(pair, k, &CandidateSearch::Exact)
    }

    /// Top-`k` candidate lists between the pair's test source entities and
    /// all target entities, produced by the given candidate-generation
    /// strategy ([`CandidateSearch`]) — the exact blocked scan, the IVF
    /// approximate pre-filter (optionally IVF-SQ) or the SQ8 quantized
    /// scan. Approximate strategies may
    /// miss candidates but every returned score is the bit-exact f32 dot of
    /// the exact kernel.
    pub fn candidate_index_with(
        &self,
        pair: &KgPair,
        k: usize,
        search: &CandidateSearch,
    ) -> CandidateIndex {
        let sources = pair.test_source_entities();
        let targets: Vec<EntityId> = pair.target.entity_ids().collect();
        search.forward_index(
            &self.source_entities,
            &sources,
            &self.target_entities,
            &targets,
            k,
        )
    }

    /// Greedy alignment prediction for the pair's test source entities
    /// (the paper's `Ares`). Runs on the blocked candidate engine with
    /// `k = 1`, so prediction memory is O(n) instead of the dense matrix's
    /// O(n²). Exact scan; `candidate_index_with(pair, 1, search)` followed
    /// by [`CandidateIndex::greedy_alignment`] predicts through another
    /// strategy.
    pub fn predict(&self, pair: &KgPair) -> AlignmentSet {
        self.candidate_index(pair, 1).greedy_alignment()
    }

    /// Alignment accuracy of the greedy prediction against the reference
    /// alignment.
    pub fn accuracy(&self, pair: &KgPair) -> f64 {
        self.predict(pair).accuracy_against(&pair.reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_graph::{AlignmentPair, KnowledgeGraph};

    fn tiny_pair() -> KgPair {
        let mut k1 = KnowledgeGraph::new();
        k1.add_triple_by_names("a1", "r", "b1");
        k1.add_triple_by_names("b1", "r", "c1");
        let mut k2 = KnowledgeGraph::new();
        k2.add_triple_by_names("a2", "s", "b2");
        k2.add_triple_by_names("b2", "s", "c2");
        let seed = AlignmentSet::from_pairs([AlignmentPair::new(
            k1.entity_by_name("a1").unwrap(),
            k2.entity_by_name("a2").unwrap(),
        )]);
        let reference = AlignmentSet::from_pairs([
            AlignmentPair::new(
                k1.entity_by_name("b1").unwrap(),
                k2.entity_by_name("b2").unwrap(),
            ),
            AlignmentPair::new(
                k1.entity_by_name("c1").unwrap(),
                k2.entity_by_name("c2").unwrap(),
            ),
        ]);
        KgPair::new("tiny", k1, k2, seed, reference).unwrap()
    }

    /// Builds a trained artifact whose embeddings perfectly encode the gold
    /// alignment: entity i on both sides gets the i-th basis vector.
    fn perfect_artifact(pair: &KgPair) -> TrainedAlignment {
        let n = pair.source.num_entities().max(pair.target.num_entities());
        let mut s = EmbeddingTable::zeros(pair.source.num_entities(), n);
        let mut t = EmbeddingTable::zeros(pair.target.num_entities(), n);
        for i in 0..pair.source.num_entities() {
            s.row_mut(i)[i] = 1.0;
        }
        for i in 0..pair.target.num_entities() {
            t.row_mut(i)[i] = 1.0;
        }
        TrainedAlignment::new("perfect", s, t, None, None)
    }

    #[test]
    fn accessors_report_shapes() {
        let pair = tiny_pair();
        let trained = perfect_artifact(&pair);
        assert_eq!(trained.model_name(), "perfect");
        assert_eq!(trained.dim(), 3);
        assert!(!trained.has_relation_embeddings());
        assert!(trained.relations(KgSide::Source).is_none());
        assert_eq!(
            trained.entities(KgSide::Source).rows(),
            pair.source.num_entities()
        );
        assert!(trained
            .relation_embedding(KgSide::Target, RelationId(0))
            .is_none());
    }

    #[test]
    fn perfect_embeddings_yield_perfect_accuracy() {
        let pair = tiny_pair();
        let trained = perfect_artifact(&pair);
        let prediction = trained.predict(&pair);
        assert_eq!(prediction.len(), 2);
        assert!((trained.accuracy(&pair) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn similarity_lookups_are_consistent() {
        let pair = tiny_pair();
        let trained = perfect_artifact(&pair);
        let b1 = pair.source.entity_by_name("b1").unwrap();
        let b2 = pair.target.entity_by_name("b2").unwrap();
        let c2 = pair.target.entity_by_name("c2").unwrap();
        assert!(trained.entity_similarity(b1, b2) > trained.entity_similarity(b1, c2));
        let m = trained.similarity_matrix(&pair);
        assert_eq!(
            m.similarity(b1, b2).unwrap(),
            trained.entity_similarity(b1, b2)
        );
    }

    #[test]
    fn candidate_index_matches_dense_matrix() {
        let pair = tiny_pair();
        let trained = perfect_artifact(&pair);
        let m = trained.similarity_matrix(&pair);
        let index = trained.candidate_index(&pair, 3);
        let mut dense = m.greedy_alignment().to_vec();
        let mut blocked = index.greedy_alignment().to_vec();
        dense.sort();
        blocked.sort();
        assert_eq!(dense, blocked);
        for &s in &pair.test_source_entities() {
            let dense_top: Vec<_> = m.top_k(s, 3);
            let blocked_top: Vec<_> = index.top_k(s, 3);
            assert_eq!(dense_top.len(), blocked_top.len());
            for ((dt, ds), (bt, bs)) in dense_top.iter().zip(&blocked_top) {
                assert_eq!(dt, bt);
                assert_eq!(ds.to_bits(), bs.to_bits());
            }
        }
    }

    #[test]
    fn same_side_similarity_is_reflexive() {
        let pair = tiny_pair();
        let trained = perfect_artifact(&pair);
        let a1 = pair.source.entity_by_name("a1").unwrap();
        let b1 = pair.source.entity_by_name("b1").unwrap();
        assert!(
            trained.same_side_similarity(KgSide::Source, a1, a1)
                > trained.same_side_similarity(KgSide::Source, a1, b1)
        );
    }

    #[test]
    fn cached_norm_similarities_equal_plain_cosine() {
        let pair = tiny_pair();
        let trained =
            crate::build_model(crate::ModelKind::GcnAlign, crate::TrainConfig::fast()).train(&pair);
        // Zero one row per side: cosine's zero-norm branch must match too.
        let mut source = trained.entities(KgSide::Source).clone();
        let mut target = trained.entities(KgSide::Target).clone();
        source.row_mut(0).fill(0.0);
        target.row_mut(target.rows() - 1).fill(0.0);
        let trained = TrainedAlignment::new("zeroed", source, target, None, None);
        let (s, t) = (
            trained.entities(KgSide::Source),
            trained.entities(KgSide::Target),
        );
        let bits = |x: f32| x.to_bits();
        for a in pair.source.entity_ids() {
            for b in pair.target.entity_ids() {
                let want = vector::cosine(s.row(a.index()), t.row(b.index()));
                assert_eq!(bits(trained.entity_similarity(a, b)), bits(want));
            }
        }
        for (side, table, ids) in [
            (
                KgSide::Source,
                s,
                pair.source.entity_ids().collect::<Vec<_>>(),
            ),
            (KgSide::Target, t, pair.target.entity_ids().collect()),
        ] {
            for &a in &ids {
                for &b in &ids {
                    let want = vector::cosine(table.row(a.index()), table.row(b.index()));
                    assert_eq!(bits(trained.same_side_similarity(side, a, b)), bits(want));
                }
            }
        }
    }

    #[test]
    fn relation_tables_are_exposed_when_present() {
        let pair = tiny_pair();
        let s_rel = EmbeddingTable::zeros(pair.source.num_relations(), 4);
        let t_rel = EmbeddingTable::zeros(pair.target.num_relations(), 4);
        let trained = TrainedAlignment::new(
            "with-relations",
            EmbeddingTable::zeros(pair.source.num_entities(), 4),
            EmbeddingTable::zeros(pair.target.num_entities(), 4),
            Some(s_rel),
            Some(t_rel),
        );
        assert!(trained.has_relation_embeddings());
        assert!(trained
            .relation_embedding(KgSide::Source, RelationId(0))
            .is_some());
    }
}
