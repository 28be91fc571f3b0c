//! Relation and path representations (Eqs. 1–2 of the paper).
//!
//! ExEA matches relation paths by comparing their embeddings. When the EA
//! model learned relation embeddings (MTransE, AlignE, Dual-AMN) those are
//! used directly; when it did not (GCN-Align), relation embeddings are derived
//! from entity embeddings through the TransE-inspired translation of Eq. 1:
//! `r = mean over (s, r, o) of (e_s - e_o)`.
//!
//! A relation path `p = (e1, r1, e'1, …, rn, e'n)` is represented by Eq. 2:
//! the mean of the entity embeddings along the path (excluding the final
//! neighbour) concatenated with the mean of the relation embeddings.

use ea_embed::{vector, EmbeddingTable};
use ea_graph::{KgSide, KnowledgeGraph, RelationPath};
use ea_models::TrainedAlignment;

/// Relation embeddings for one side of the pair: either the model's own table
/// or a table derived from entity embeddings via Eq. 1.
#[derive(Debug, Clone)]
pub struct RelationEmbeddings {
    table: EmbeddingTable,
}

impl RelationEmbeddings {
    /// Builds relation embeddings for `side`, preferring the model's learned
    /// relation table and falling back to the Eq. 1 derivation.
    pub fn for_side(trained: &TrainedAlignment, kg: &KnowledgeGraph, side: KgSide) -> Self {
        match trained.relations(side) {
            Some(table) => Self {
                table: table.clone(),
            },
            None => Self {
                table: derive_from_entities(trained.entities(side), kg),
            },
        }
    }

    /// Embedding vector of a relation.
    pub fn get(&self, relation: ea_graph::RelationId) -> &[f32] {
        self.table.row(relation.index())
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.dim()
    }

    /// Number of relations covered.
    pub fn len(&self) -> usize {
        self.table.rows()
    }

    /// Whether no relations are covered.
    pub fn is_empty(&self) -> bool {
        self.table.rows() == 0
    }
}

/// Eq. 1: `r = (1/|T_r|) Σ (e_s − e_o)` over all triples carrying `r`.
pub fn derive_from_entities(entities: &EmbeddingTable, kg: &KnowledgeGraph) -> EmbeddingTable {
    let dim = entities.dim();
    let mut table = EmbeddingTable::zeros(kg.num_relations().max(1), dim);
    // One accumulator reused across relations (no per-relation allocation).
    let mut acc = vec![0.0f32; dim];
    for r in kg.relation_ids() {
        acc.fill(0.0);
        let mut count = 0usize;
        for t in kg.triples_with_relation(r) {
            let s = entities.row(t.head.index());
            let o = entities.row(t.tail.index());
            for i in 0..dim {
                acc[i] += s[i] - o[i];
            }
            count += 1;
        }
        if count > 0 {
            vector::scale(&mut acc, 1.0 / count as f32);
            table.row_mut(r.index()).copy_from_slice(&acc);
        }
    }
    table
}

/// Eq. 2: the path representation
/// `p = (e1 + Σ intermediate entities) / n ⊕ (Σ relations) / n`.
pub fn path_embedding(
    path: &RelationPath,
    entities: &EmbeddingTable,
    relations: &RelationEmbeddings,
) -> Vec<f32> {
    let mut out = vec![0.0f32; entities.dim() + relations.dim()];
    path_embedding_into(path, entities, relations, &mut out);
    out
}

/// [`path_embedding`] written into `out`, which must hold
/// `entities.dim() + relations.dim()` values: the allocation-free form the
/// matching core runs on reused scratch.
pub(crate) fn path_embedding_into(
    path: &RelationPath,
    entities: &EmbeddingTable,
    relations: &RelationEmbeddings,
    out: &mut [f32],
) {
    let n = path.len() as f32;
    let (entity_part, relation_part) = out.split_at_mut(entities.dim());

    entity_part.copy_from_slice(entities.row(path.start.index()));
    for step in &path.steps[..path.len() - 1] {
        vector::add_scaled(entity_part, entities.row(step.entity.index()), 1.0);
    }
    vector::scale(entity_part, 1.0 / n);

    relation_part.fill(0.0);
    for step in &path.steps {
        vector::add_scaled(relation_part, relations.get(step.relation), 1.0);
    }
    vector::scale(relation_part, 1.0 / n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_data::datasets::{load, DatasetName, DatasetScale};
    use ea_graph::paths::enumerate_paths;
    use ea_models::{build_model, ModelKind, TrainConfig};

    fn trained_pair(kind: ModelKind) -> (ea_graph::KgPair, TrainedAlignment) {
        let pair = load(DatasetName::ZhEn, DatasetScale::Small);
        let trained = build_model(kind, TrainConfig::fast()).train(&pair);
        (pair, trained)
    }

    #[test]
    fn model_relation_embeddings_are_used_when_available() {
        let (pair, trained) = trained_pair(ModelKind::MTransE);
        let rel = RelationEmbeddings::for_side(&trained, &pair.source, KgSide::Source);
        assert_eq!(rel.len(), pair.source.num_relations());
        assert_eq!(rel.dim(), trained.dim());
        assert!(!rel.is_empty());
        // Must match the model's table exactly.
        let rid = ea_graph::RelationId(0);
        assert_eq!(
            rel.get(rid),
            trained.relation_embedding(KgSide::Source, rid).unwrap()
        );
    }

    #[test]
    fn derivation_is_used_for_models_without_relation_embeddings() {
        let (pair, trained) = trained_pair(ModelKind::GcnAlign);
        assert!(!trained.has_relation_embeddings());
        let rel = RelationEmbeddings::for_side(&trained, &pair.source, KgSide::Source);
        assert_eq!(rel.len(), pair.source.num_relations());
        // Derived vectors are generally non-zero for used relations.
        let used = pair.source.triples()[0].relation;
        assert!(rel.get(used).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn derive_from_entities_matches_manual_average() {
        let mut kg = KnowledgeGraph::new();
        kg.add_triple_by_names("a", "r", "b");
        kg.add_triple_by_names("c", "r", "d");
        let mut entities = EmbeddingTable::zeros(4, 2);
        entities.row_mut(0).copy_from_slice(&[1.0, 0.0]); // a
        entities.row_mut(1).copy_from_slice(&[0.0, 1.0]); // b
        entities.row_mut(2).copy_from_slice(&[2.0, 0.0]); // c
        entities.row_mut(3).copy_from_slice(&[0.0, 2.0]); // d
        let table = derive_from_entities(&entities, &kg);
        // r = mean((a-b), (c-d)) = mean((1,-1), (2,-2)) = (1.5, -1.5)
        assert_eq!(table.row(0), &[1.5, -1.5]);
    }

    #[test]
    fn path_embedding_has_entity_plus_relation_dims() {
        let (pair, trained) = trained_pair(ModelKind::MTransE);
        let rel = RelationEmbeddings::for_side(&trained, &pair.source, KgSide::Source);
        let entities = trained.entities(KgSide::Source);
        let e = pair
            .source
            .entity_ids()
            .find(|&e| pair.source.degree(e) > 1)
            .unwrap();
        let paths = enumerate_paths(&pair.source, e, 2);
        assert!(!paths.is_empty());
        for p in paths.iter().take(10) {
            let emb = path_embedding(p, entities, &rel);
            assert_eq!(emb.len(), entities.dim() + rel.dim());
            assert!(emb.iter().any(|&v| v != 0.0));
        }
    }

    #[test]
    fn single_hop_path_embedding_is_entity_concat_relation() {
        let (pair, trained) = trained_pair(ModelKind::MTransE);
        let rel = RelationEmbeddings::for_side(&trained, &pair.source, KgSide::Source);
        let entities = trained.entities(KgSide::Source);
        let triple = pair.source.triples()[0];
        let path = RelationPath::single(triple.head, triple).unwrap();
        let emb = path_embedding(&path, entities, &rel);
        assert_eq!(&emb[..entities.dim()], entities.row(triple.head.index()));
        assert_eq!(&emb[entities.dim()..], rel.get(triple.relation));
    }

    use ea_graph::KnowledgeGraph;
}
