//! Shared training machinery used by the concrete models.
//!
//! The four models differ in *what* they score (translations vs. aggregated
//! neighbourhoods) and in *how* they pick negatives, but they share the same
//! skeleton: margin-based ranking losses optimised with sparse SGD over
//! entity/relation embedding tables. The helpers here keep each model file
//! focused on the parts that make it distinctive.

use crate::config::TrainConfig;
use ea_embed::{vector, EmbeddingTable, Negatives};
use ea_graph::{AlignmentSet, KgPair, KnowledgeGraph};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Mutable training state shared by the translation-based models: entity and
/// relation tables for both graphs.
#[derive(Debug)]
pub struct TranslationState {
    /// Source-graph entity embeddings.
    pub source_entities: EmbeddingTable,
    /// Target-graph entity embeddings.
    pub target_entities: EmbeddingTable,
    /// Source-graph relation embeddings.
    pub source_relations: EmbeddingTable,
    /// Target-graph relation embeddings.
    pub target_relations: EmbeddingTable,
}

impl TranslationState {
    /// Initialises uniformly-random, row-normalised tables for a KG pair.
    pub fn init(pair: &KgPair, config: &TrainConfig, rng: &mut ChaCha8Rng) -> Self {
        let dim = config.dim;
        Self {
            source_entities: EmbeddingTable::uniform_normalized(
                pair.source.num_entities(),
                dim,
                1.0,
                rng,
            ),
            target_entities: EmbeddingTable::uniform_normalized(
                pair.target.num_entities(),
                dim,
                1.0,
                rng,
            ),
            source_relations: EmbeddingTable::uniform_normalized(
                pair.source.num_relations().max(1),
                dim,
                1.0,
                rng,
            ),
            target_relations: EmbeddingTable::uniform_normalized(
                pair.target.num_relations().max(1),
                dim,
                1.0,
                rng,
            ),
        }
    }
}

/// Creates the deterministic RNG for a training run.
pub fn training_rng(config: &TrainConfig) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(config.seed)
}

/// TransE plausibility score: squared L2 norm of `h + r - t`. Lower is more
/// plausible.
pub fn transe_score(h: &[f32], r: &[f32], t: &[f32]) -> f32 {
    let mut sum = 0.0;
    for i in 0..h.len() {
        let d = h[i] + r[i] - t[i];
        sum += d * d;
    }
    sum
}

/// One epoch of TransE margin-ranking updates over the triples of one graph.
///
/// For every triple a corrupted triple is produced by replacing the head or
/// the tail with a sampled negative entity. When the margin is violated the
/// four involved rows (head, relation, tail, corrupted entity) receive SGD
/// updates.
#[allow(clippy::too_many_arguments)]
pub fn transe_epoch<N: Negatives>(
    kg: &KnowledgeGraph,
    entities: &mut EmbeddingTable,
    relations: &mut EmbeddingTable,
    sampler: &N,
    config: &TrainConfig,
    rng: &mut ChaCha8Rng,
) {
    let lr = config.learning_rate;
    // Gradient scratch reused across every sample of the epoch (the old code
    // collected two fresh `Vec<f32>`s per violated sample).
    let mut pos_grad = vec![0.0f32; config.dim];
    let mut neg_grad = vec![0.0f32; config.dim];
    for triple in kg.triples() {
        for _ in 0..config.negative_samples {
            let corrupt_tail = rng.gen_bool(0.5);
            let anchor = if corrupt_tail {
                triple.tail.index()
            } else {
                triple.head.index()
            };
            let Some(neg) = sampler.negative(rng, entities, anchor, anchor) else {
                continue;
            };
            let (h, r, t) = (
                triple.head.index(),
                triple.relation.index(),
                triple.tail.index(),
            );
            let (neg_h, neg_t) = if corrupt_tail { (h, neg) } else { (neg, t) };

            let pos_score = transe_score(entities.row(h), relations.row(r), entities.row(t));
            let neg_score =
                transe_score(entities.row(neg_h), relations.row(r), entities.row(neg_t));
            let violation = config.margin + pos_score - neg_score;
            if violation <= 0.0 {
                continue;
            }
            // Gradient of pos_score w.r.t. h (and r) is 2(h + r - t); w.r.t. t
            // it is the negation. The negative triple contributes with the
            // opposite sign.
            fill_transe_grad(
                entities.row(h),
                relations.row(r),
                entities.row(t),
                &mut pos_grad,
            );
            fill_transe_grad(
                entities.row(neg_h),
                relations.row(r),
                entities.row(neg_t),
                &mut neg_grad,
            );

            entities.add_to_row(h, &pos_grad, -lr);
            entities.add_to_row(t, &pos_grad, lr);
            relations.add_to_row(r, &pos_grad, -lr);
            entities.add_to_row(neg_h, &neg_grad, lr);
            entities.add_to_row(neg_t, &neg_grad, -lr);
            relations.add_to_row(r, &neg_grad, lr);
        }
    }
}

/// `grad = 2 (h + r - t)`, the TransE margin gradient, into a reused buffer.
#[inline]
fn fill_transe_grad(h: &[f32], r: &[f32], t: &[f32], out: &mut [f32]) {
    for (o, ((x, y), z)) in out.iter_mut().zip(h.iter().zip(r).zip(t)) {
        *o = 2.0 * (x + y - z);
    }
}

/// One epoch of seed-alignment pulling: the embeddings of seed-aligned
/// entities are moved towards each other, scaled by
/// `config.alignment_weight`.
pub fn alignment_pull_epoch(
    seed: &AlignmentSet,
    source_entities: &mut EmbeddingTable,
    target_entities: &mut EmbeddingTable,
    config: &TrainConfig,
) {
    let step = config.learning_rate * config.alignment_weight;
    let mut diff = vec![0.0f32; source_entities.dim()];
    for p in seed.iter() {
        vector::sub_into(
            source_entities.row(p.source.index()),
            target_entities.row(p.target.index()),
            &mut diff,
        );
        source_entities.add_to_row(p.source.index(), &diff, -step);
        target_entities.add_to_row(p.target.index(), &diff, step);
    }
}

/// Hard seed anchoring: the embeddings of each seed-aligned pair are replaced
/// by their mean, so the two spaces share exact anchor points.
///
/// This is the "parameter sharing" calibration used by bootstrapping-style EA
/// models: seed entities are treated as the same parameter. Structural
/// training then positions the remaining entities relative to these shared
/// anchors, which is what lets alignment propagate beyond the seed.
pub fn merge_seed_embeddings(
    seed: &AlignmentSet,
    source_entities: &mut EmbeddingTable,
    target_entities: &mut EmbeddingTable,
) {
    let dim = source_entities.dim();
    let mut mean = vec![0.0f32; dim];
    for p in seed.iter() {
        vector::add_into(
            source_entities.row(p.source.index()),
            target_entities.row(p.target.index()),
            &mut mean,
        );
        vector::scale(&mut mean, 0.5);
        source_entities
            .row_mut(p.source.index())
            .copy_from_slice(&mean);
        target_entities
            .row_mut(p.target.index())
            .copy_from_slice(&mean);
    }
}

/// One epoch of alignment margin-ranking with negative target entities:
/// seed pairs must be closer than the source entity is to a sampled negative
/// target entity. This is the loss that lets AlignE and Dual-AMN distinguish
/// highly similar entities.
///
/// The sampler is queried only for seed targets (`positive` is always some
/// `p.target` of `seed`), so a hard-negative cache needs lists for
/// [`seed_targets`] alone.
pub fn alignment_margin_epoch<N: Negatives>(
    seed: &AlignmentSet,
    source_entities: &mut EmbeddingTable,
    target_entities: &mut EmbeddingTable,
    sampler: &N,
    config: &TrainConfig,
    rng: &mut ChaCha8Rng,
) {
    let step = config.learning_rate * config.alignment_weight;
    let mut pos_grad = vec![0.0f32; source_entities.dim()];
    let mut neg_grad = vec![0.0f32; source_entities.dim()];
    for p in seed.iter() {
        let s = p.source.index();
        let t = p.target.index();
        for _ in 0..config.negative_samples {
            let Some(neg) = sampler.negative(rng, target_entities, t, t) else {
                continue;
            };
            let pos_dist = vector::squared_distance(source_entities.row(s), target_entities.row(t));
            let neg_dist =
                vector::squared_distance(source_entities.row(s), target_entities.row(neg));
            if config.margin + pos_dist - neg_dist <= 0.0 {
                continue;
            }
            vector::sub_into(
                source_entities.row(s),
                target_entities.row(t),
                &mut pos_grad,
            );
            vector::sub_into(
                source_entities.row(s),
                target_entities.row(neg),
                &mut neg_grad,
            );
            // Decrease the positive distance.
            source_entities.add_to_row(s, &pos_grad, -step);
            target_entities.add_to_row(t, &pos_grad, step);
            // Increase the negative distance.
            source_entities.add_to_row(s, &neg_grad, step);
            target_entities.add_to_row(neg, &neg_grad, -step);
        }
    }
}

/// The target entities of the seed pairs, in seed order: the rows
/// [`alignment_margin_epoch`] draws negatives for, and so the rows the
/// hard-negative models build their caches for
/// ([`ea_embed::HardNegativeCache::build_for`]).
pub fn seed_targets(seed: &AlignmentSet) -> Vec<usize> {
    seed.iter().map(|p| p.target.index()).collect()
}

/// Precomputed neighbour lists used by the aggregation-based models:
/// for each entity, the `(neighbour, relation)` pairs of its incident triples.
#[derive(Debug, Clone)]
pub struct NeighborLists {
    lists: Vec<Vec<(u32, u32)>>,
}

impl NeighborLists {
    /// Builds neighbour lists for a graph.
    pub fn build(kg: &KnowledgeGraph) -> Self {
        let mut lists = vec![Vec::new(); kg.num_entities()];
        for (e, list) in lists.iter_mut().enumerate() {
            let eid = ea_graph::EntityId::from_index(e);
            for (n, t, _) in kg.neighbors(eid) {
                list.push((n.0, t.relation.0));
            }
        }
        Self { lists }
    }

    /// The `(neighbour, relation)` pairs of an entity.
    pub fn of(&self, entity: usize) -> &[(u32, u32)] {
        &self.lists[entity]
    }

    /// Number of entities covered.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// Whether the graph had no entities.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }
}

/// Computes aggregated (one-layer GCN-style) embeddings:
/// `out(e) = normalize(base(e) + mean over neighbours of gate(r) ⊙ base(n))`.
///
/// When `gates` is `None` the aggregation is ungated (GCN-Align); with gates
/// it is relation-aware (Dual-AMN).
pub fn aggregate(
    base: &EmbeddingTable,
    neighbors: &NeighborLists,
    gates: Option<&EmbeddingTable>,
) -> EmbeddingTable {
    let dim = base.dim();
    let mut out = EmbeddingTable::zeros(base.rows(), dim);
    let mut acc = vec![0.0f32; dim];
    for e in 0..base.rows() {
        let list = neighbors.of(e);
        acc.copy_from_slice(base.row(e));
        if !list.is_empty() {
            let scale = 1.0 / list.len() as f32;
            for &(n, r) in list {
                let n_row = base.row(n as usize);
                match gates {
                    Some(g) => {
                        let gate = g.row(r as usize);
                        for i in 0..dim {
                            acc[i] += scale * gate[i] * n_row[i];
                        }
                    }
                    None => {
                        vector::add_scaled(&mut acc, n_row, scale);
                    }
                }
            }
        }
        vector::normalize(&mut acc);
        out.row_mut(e).copy_from_slice(&acc);
    }
    out
}

/// Anchor initialisation for the aggregation-based models.
///
/// Seed-aligned entities receive a *shared* random unit vector on both sides
/// (the anchor); all other entities receive only small random noise. After
/// [`propagate`], an entity's representation is dominated by which anchors
/// appear in its multi-hop neighbourhood — the structural signal GCN-based EA
/// models extract — while the noise component breaks ties deterministically.
pub fn anchor_init(
    pair: &KgPair,
    config: &TrainConfig,
    noise_scale: f32,
    rng: &mut ChaCha8Rng,
) -> (EmbeddingTable, EmbeddingTable) {
    let dim = config.dim;
    let mut source = EmbeddingTable::uniform_normalized(pair.source.num_entities(), dim, 1.0, rng);
    let mut target = EmbeddingTable::uniform_normalized(pair.target.num_entities(), dim, 1.0, rng);
    for i in 0..source.rows() {
        vector::scale(source.row_mut(i), noise_scale);
    }
    for i in 0..target.rows() {
        vector::scale(target.row_mut(i), noise_scale);
    }
    let mut anchor = vec![0.0f32; dim];
    for p in pair.seed.iter() {
        for v in anchor.iter_mut() {
            *v = rng.gen_range(-1.0..=1.0);
        }
        vector::normalize(&mut anchor);
        source.row_mut(p.source.index()).copy_from_slice(&anchor);
        target.row_mut(p.target.index()).copy_from_slice(&anchor);
    }
    (source, target)
}

/// Runs `layers` rounds of neighbourhood propagation:
/// `h ← normalize(self_weight · h + mean over neighbours of gate(r) ⊙ h(n))`.
///
/// With the seed anchors merged by [`merge_seed_embeddings`], two rounds are
/// enough for an entity's representation to be dominated by *which anchors it
/// is near*, which is the structural signal the GCN-family models exploit at
/// inference time.
pub fn propagate(
    base: &EmbeddingTable,
    neighbors: &NeighborLists,
    gates: Option<&EmbeddingTable>,
    layers: usize,
    self_weight: f32,
) -> EmbeddingTable {
    let dim = base.dim();
    let mut current = base.clone();
    let mut acc = vec![0.0f32; dim];
    for _ in 0..layers {
        let mut next = EmbeddingTable::zeros(current.rows(), dim);
        for e in 0..current.rows() {
            let list = neighbors.of(e);
            for (a, v) in acc.iter_mut().zip(current.row(e)) {
                *a = v * self_weight;
            }
            if !list.is_empty() {
                let scale = 1.0 / list.len() as f32;
                for &(n, r) in list {
                    let n_row = current.row(n as usize);
                    match gates {
                        Some(g) => {
                            let gate = g.row(r as usize);
                            for i in 0..dim {
                                acc[i] += scale * gate[i] * n_row[i];
                            }
                        }
                        None => {
                            vector::add_scaled(&mut acc, n_row, scale);
                        }
                    }
                }
            }
            vector::normalize(&mut acc);
            next.row_mut(e).copy_from_slice(&acc);
        }
        current = next;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_data::datasets::{load, DatasetName, DatasetScale};
    use ea_embed::NegativeSampler;
    use ea_graph::EntityId;

    #[test]
    fn transe_score_is_zero_for_exact_translation() {
        let h = [1.0, 2.0];
        let r = [0.5, -1.0];
        let t = [1.5, 1.0];
        assert!(transe_score(&h, &r, &t).abs() < 1e-12);
        assert!(transe_score(&h, &r, &[0.0, 0.0]) > 0.0);
    }

    #[test]
    fn transe_epochs_improve_triple_ranking() {
        let pair = load(DatasetName::ZhEn, DatasetScale::Small);
        let config = TrainConfig::fast();
        let mut rng = training_rng(&config);
        let mut state = TranslationState::init(&pair, &config, &mut rng);
        let sampler = NegativeSampler::uniform(pair.source.num_entities());

        // Fraction of triples ranked above a fixed corrupted variant: the
        // quantity the margin loss actually optimises.
        let ranking_accuracy = |ent: &EmbeddingTable, rel: &EmbeddingTable| {
            let n = pair.source.num_entities();
            let correct = pair
                .source
                .triples()
                .iter()
                .enumerate()
                .filter(|(i, t)| {
                    let pos = transe_score(
                        ent.row(t.head.index()),
                        rel.row(t.relation.index()),
                        ent.row(t.tail.index()),
                    );
                    let corrupted_tail = (t.tail.index() + i + 1) % n;
                    let neg = transe_score(
                        ent.row(t.head.index()),
                        rel.row(t.relation.index()),
                        ent.row(corrupted_tail),
                    );
                    pos < neg
                })
                .count();
            correct as f64 / pair.source.num_triples() as f64
        };

        let before = ranking_accuracy(&state.source_entities, &state.source_relations);
        for epoch in 0..20 {
            transe_epoch(
                &pair.source,
                &mut state.source_entities,
                &mut state.source_relations,
                &sampler,
                &config,
                &mut rng,
            );
            if epoch % 5 == 4 {
                state.source_entities.normalize_rows();
            }
        }
        let after = ranking_accuracy(&state.source_entities, &state.source_relations);
        assert!(
            after > before && after > 0.7,
            "TransE epochs should improve triple ranking ({before:.3} -> {after:.3})"
        );
    }

    #[test]
    fn alignment_pull_brings_seed_pairs_closer() {
        let pair = load(DatasetName::ZhEn, DatasetScale::Small);
        let config = TrainConfig::fast();
        let mut rng = training_rng(&config);
        let mut state = TranslationState::init(&pair, &config, &mut rng);
        let avg_dist = |s: &EmbeddingTable, t: &EmbeddingTable| {
            pair.seed
                .iter()
                .map(|p| {
                    vector::squared_distance(s.row(p.source.index()), t.row(p.target.index()))
                        as f64
                })
                .sum::<f64>()
                / pair.seed.len() as f64
        };
        let before = avg_dist(&state.source_entities, &state.target_entities);
        for _ in 0..10 {
            alignment_pull_epoch(
                &pair.seed,
                &mut state.source_entities,
                &mut state.target_entities,
                &config,
            );
        }
        let after = avg_dist(&state.source_entities, &state.target_entities);
        assert!(
            after < before * 0.7,
            "pull should shrink seed distances ({before} -> {after})"
        );
    }

    #[test]
    fn alignment_margin_epoch_separates_negatives() {
        let pair = load(DatasetName::ZhEn, DatasetScale::Small);
        let config = TrainConfig::fast();
        let mut rng = training_rng(&config);
        let mut state = TranslationState::init(&pair, &config, &mut rng);
        let sampler = NegativeSampler::uniform(pair.target.num_entities());
        let avg_dist = |s: &EmbeddingTable, t: &EmbeddingTable| {
            pair.seed
                .iter()
                .map(|p| {
                    vector::squared_distance(s.row(p.source.index()), t.row(p.target.index()))
                        as f64
                })
                .sum::<f64>()
                / pair.seed.len() as f64
        };
        let before = avg_dist(&state.source_entities, &state.target_entities);
        for _ in 0..10 {
            alignment_margin_epoch(
                &pair.seed,
                &mut state.source_entities,
                &mut state.target_entities,
                &sampler,
                &config,
                &mut rng,
            );
        }
        let after = avg_dist(&state.source_entities, &state.target_entities);
        assert!(
            after < before,
            "margin epochs should shrink positive distances"
        );
    }

    #[test]
    fn neighbor_lists_match_graph_neighbors() {
        let pair = load(DatasetName::ZhEn, DatasetScale::Small);
        let lists = NeighborLists::build(&pair.source);
        assert_eq!(lists.len(), pair.source.num_entities());
        assert!(!lists.is_empty());
        for e in pair.source.entity_ids().take(50) {
            assert_eq!(lists.of(e.index()).len(), pair.source.neighbors(e).len());
        }
    }

    #[test]
    fn aggregation_produces_unit_rows_and_mixes_neighbors() {
        let pair = load(DatasetName::ZhEn, DatasetScale::Small);
        let config = TrainConfig::fast();
        let mut rng = training_rng(&config);
        let base = EmbeddingTable::uniform_normalized(
            pair.source.num_entities(),
            config.dim,
            1.0,
            &mut rng,
        );
        let lists = NeighborLists::build(&pair.source);
        let out = aggregate(&base, &lists, None);
        assert_eq!(out.rows(), base.rows());
        // Rows are normalised.
        for e in 0..out.rows().min(100) {
            let n = vector::norm(out.row(e));
            assert!((n - 1.0).abs() < 1e-4 || n < 1e-6);
        }
        // Aggregated embedding differs from the base for entities with neighbours.
        let busy = pair
            .source
            .entity_ids()
            .find(|&e| pair.source.degree(e) > 2)
            .unwrap();
        let cos = vector::cosine(base.row(busy.index()), out.row(busy.index()));
        assert!(cos < 0.999, "aggregation should change the embedding");
    }

    #[test]
    fn gated_aggregation_uses_relation_gates() {
        let mut kg = ea_graph::KnowledgeGraph::new();
        kg.add_triple_by_names("a", "r0", "b");
        let lists = NeighborLists::build(&kg);
        let mut base = EmbeddingTable::zeros(2, 2);
        base.row_mut(0).copy_from_slice(&[1.0, 0.0]);
        base.row_mut(1).copy_from_slice(&[0.0, 1.0]);
        // Gate that zeroes out the neighbour contribution.
        let zero_gate = EmbeddingTable::zeros(1, 2);
        let gated = aggregate(&base, &lists, Some(&zero_gate));
        let a = EntityId(0);
        assert!((vector::cosine(gated.row(a.index()), &[1.0, 0.0]) - 1.0).abs() < 1e-5);
        // Ungated aggregation mixes in the neighbour.
        let ungated = aggregate(&base, &lists, None);
        assert!(vector::cosine(ungated.row(a.index()), &[1.0, 0.0]) < 0.999);
    }
}
