//! The naive confidence reference shared by the oracle suites
//! (`confidence_oracle.rs`, `repair_oracle.rs`): paper §III, Eqs. 2–9,
//! written without the library's caches, scratch or batching, plus the
//! random inputs both suites draw.

// Each suite uses a different subset of these helpers.
#![allow(dead_code)]

use ea_data::generator::{SyntheticConfig, SyntheticGenerator};
use ea_embed::{vector, EmbeddingTable};
use ea_graph::{
    AlignmentSet, Direction, EntityId, KgPair, KgSide, RelationFunctionality, RelationPath, Triple,
};
use ea_models::TrainedAlignment;
use exea_core::relation_embed::RelationEmbeddings;
use exea_core::ExEa;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};

// ---------------------------------------------------------------------------
// The reference.

/// Everything the reference reads, gathered independently of `ExEa`'s caches.
pub struct Reference<'a> {
    pub exea: &'a ExEa<'a>,
    pub source_relations: RelationEmbeddings,
    pub target_relations: RelationEmbeddings,
    pub source_functionality: RelationFunctionality,
    pub target_functionality: RelationFunctionality,
}

type PathsByPair<'a> =
    HashMap<(EntityId, EntityId), (Vec<&'a RelationPath>, Vec<&'a RelationPath>)>;

pub struct NaiveMatch {
    pub source: RelationPath,
    pub target: RelationPath,
    pub similarity: f32,
}

pub struct NaiveExplanation {
    pub matches: Vec<NaiveMatch>,
    pub source_triples: BTreeSet<Triple>,
    pub target_triples: BTreeSet<Triple>,
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Strong,
    Moderate,
    Weak,
}

/// Eq. 2, one allocation per part.
fn naive_path_embedding(
    path: &RelationPath,
    entities: &EmbeddingTable,
    relations: &RelationEmbeddings,
) -> Vec<f32> {
    let n = path.len() as f32;
    let mut entity_part = entities.row(path.start.index()).to_vec();
    for e in path.intermediate_entities() {
        vector::add_scaled(&mut entity_part, entities.row(e.index()), 1.0);
    }
    vector::scale(&mut entity_part, 1.0 / n);
    let mut relation_part = vec![0.0f32; relations.dim()];
    for r in path.relations() {
        vector::add_scaled(&mut relation_part, relations.get(r), 1.0);
    }
    vector::scale(&mut relation_part, 1.0 / n);
    vector::concat(&entity_part, &relation_part)
}

fn direct_weight(path: &RelationPath, functionality: &RelationFunctionality) -> f64 {
    let step = &path.steps[0];
    match step.direction {
        Direction::Forward => functionality.ifunc(step.relation),
        Direction::Backward => functionality.func(step.relation),
    }
}

fn long_weight(path: &RelationPath, functionality: &RelationFunctionality) -> f64 {
    path.segments()
        .iter()
        .map(|s| direct_weight(s, functionality))
        .product()
}

impl<'a> Reference<'a> {
    pub fn new(exea: &'a ExEa<'a>) -> Self {
        let pair = exea.pair();
        let trained = exea.trained();
        Self {
            exea,
            source_relations: RelationEmbeddings::for_side(trained, &pair.source, KgSide::Source),
            target_relations: RelationEmbeddings::for_side(trained, &pair.target, KgSide::Target),
            source_functionality: RelationFunctionality::compute(&pair.source),
            target_functionality: RelationFunctionality::compute(&pair.target),
        }
    }

    pub fn explain(
        &self,
        state: &AlignmentSet,
        e1: EntityId,
        e2: EntityId,
        source_paths: &[RelationPath],
        target_paths: &[RelationPath],
    ) -> NaiveExplanation {
        let trained = self.exea.trained();
        let mut by_pair: PathsByPair<'_> = HashMap::new();
        for p in source_paths {
            let n1 = p.end();
            if n1 == e1 {
                continue;
            }
            if let Some(n2) = state.target_of(n1) {
                by_pair.entry((n1, n2)).or_default().0.push(p);
            }
        }
        for p in target_paths {
            let n2 = p.end();
            if n2 == e2 {
                continue;
            }
            for ((_, pn2), entry) in by_pair.iter_mut() {
                if *pn2 == n2 {
                    entry.1.push(p);
                }
            }
        }
        let source_entities = trained.entities(KgSide::Source);
        let target_entities = trained.entities(KgSide::Target);
        let mut matches = Vec::new();
        for (p1s, p2s) in by_pair.into_values() {
            if p1s.is_empty() || p2s.is_empty() {
                continue;
            }
            let emb1: Vec<Vec<f32>> = p1s
                .iter()
                .map(|p| naive_path_embedding(p, source_entities, &self.source_relations))
                .collect();
            let emb2: Vec<Vec<f32>> = p2s
                .iter()
                .map(|p| naive_path_embedding(p, target_entities, &self.target_relations))
                .collect();
            let dim = emb1[0].len().min(emb2[0].len());
            let sim = |a: &[f32], b: &[f32]| vector::cosine(&a[..dim], &b[..dim]);
            let best_for_p1: Vec<usize> = emb1
                .iter()
                .map(|a| {
                    (0..emb2.len())
                        .max_by(|&x, &y| {
                            ea_embed::order::asc_f32(sim(a, &emb2[x]), sim(a, &emb2[y]))
                        })
                        .unwrap()
                })
                .collect();
            let best_for_p2: Vec<usize> = emb2
                .iter()
                .map(|b| {
                    (0..emb1.len())
                        .max_by(|&x, &y| {
                            ea_embed::order::asc_f32(sim(&emb1[x], b), sim(&emb1[y], b))
                        })
                        .unwrap()
                })
                .collect();
            for (i, &j) in best_for_p1.iter().enumerate() {
                if best_for_p2[j] == i {
                    matches.push(NaiveMatch {
                        source: p1s[i].clone(),
                        target: p2s[j].clone(),
                        similarity: sim(&emb1[i], &emb2[j]),
                    });
                }
            }
        }
        matches.sort_by_key(|m| {
            (
                m.source.end(),
                m.target.end(),
                m.source.len(),
                m.target.len(),
            )
        });
        NaiveExplanation {
            source_triples: matches.iter().flat_map(|m| m.source.triples()).collect(),
            target_triples: matches.iter().flat_map(|m| m.target.triples()).collect(),
            matches,
        }
    }

    /// Cosine of a source and a target entity's raw embedding rows, both
    /// norms derived afresh.
    pub fn similarity(&self, source: EntityId, target: EntityId) -> f32 {
        let trained = self.exea.trained();
        vector::cosine(
            trained.entity_embedding(KgSide::Source, source),
            trained.entity_embedding(KgSide::Target, target),
        )
    }

    /// `(confidence, has_strong_edges)` of the ADG over `matches`.
    pub fn score(&self, matches: &[NaiveMatch], apply_relation_conflicts: bool) -> (f64, bool) {
        let config = self.exea.config();
        let mut nodes: Vec<((EntityId, EntityId), f64)> = Vec::new();
        let mut edges: Vec<(usize, Kind, f64)> = Vec::new();
        for m in matches {
            let key = (m.source.end(), m.target.end());
            let node = match nodes.iter().position(|(k, _)| *k == key) {
                Some(i) => i,
                None => {
                    nodes.push((key, self.similarity(key.0, key.1) as f64));
                    nodes.len() - 1
                }
            };
            let (sf, tf) = (&self.source_functionality, &self.target_functionality);
            let (kind, weight) = match (m.source.is_direct(), m.target.is_direct()) {
                (true, true) => (
                    Kind::Strong,
                    direct_weight(&m.source, sf).min(direct_weight(&m.target, tf)),
                ),
                (true, false) => (
                    Kind::Moderate,
                    config.alpha * direct_weight(&m.source, sf).min(long_weight(&m.target, tf)),
                ),
                (false, true) => (
                    Kind::Moderate,
                    config.alpha * direct_weight(&m.target, tf).min(long_weight(&m.source, sf)),
                ),
                (false, false) => (Kind::Weak, config.weak_edge_weight),
            };
            edges.push((node, kind, weight));
        }
        if apply_relation_conflicts {
            let removed: Vec<bool> = nodes
                .iter()
                .map(|(key, _)| {
                    matches
                        .iter()
                        .filter(|m| (m.source.end(), m.target.end()) == *key)
                        .any(|m| self.conflicts(m))
                })
                .collect();
            edges.retain(|&(node, _, _)| !removed[node]);
        }
        let aggregate = |kind: Kind| -> f64 {
            edges
                .iter()
                .filter(|e| e.1 == kind)
                .map(|&(node, _, weight)| weight * nodes[node].1)
                .sum()
        };
        let (cs, cm, cw) = (
            aggregate(Kind::Strong),
            aggregate(Kind::Moderate),
            aggregate(Kind::Weak),
        );
        let mut total = cs;
        if cs < config.theta {
            total += cm;
            if cm < config.gamma {
                total += cw;
            }
        }
        let strong = edges.iter().any(|e| e.1 == Kind::Strong);
        (vector::sigmoid(total), strong)
    }

    /// cr1 on one matched path pair: both direct and forward, and the source
    /// relation maps to a different target relation that never shares an
    /// object with the target path's relation.
    fn conflicts(&self, m: &NaiveMatch) -> bool {
        if !(m.source.is_direct() && m.target.is_direct()) {
            return false;
        }
        if m.source.first_direction() != Direction::Forward
            || m.target.first_direction() != Direction::Forward
        {
            return false;
        }
        let r1 = m.source.steps[0].relation;
        let r2 = m.target.steps[0].relation;
        match self.exea.relation_alignment().target_of(r1) {
            Some(mapped) => mapped != r2 && self.exea.target_rules().implies_not_same(mapped, r2),
            None => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Inputs.

/// A random table on a coarse grid (so distinct paths often embed to the
/// same vector and their similarities tie), with row `zero_row` all zero.
pub fn grid_table(rng: &mut StdRng, rows: usize, dim: usize, zero_row: usize) -> EmbeddingTable {
    let mut table = EmbeddingTable::zeros(rows, dim);
    for r in 0..rows {
        if r == zero_row {
            continue;
        }
        for v in table.row_mut(r) {
            *v = f32::from(rng.gen_range(-2i8..=2)) * 0.5;
        }
    }
    table
}

/// `relation_mode`: 0 derives relation embeddings from entities (Eq. 1),
/// 1 gives both sides learned tables, 2 gives the sides tables of different
/// widths so path similarities compare a common prefix.
pub fn random_model(rng: &mut StdRng, pair: &KgPair, relation_mode: u8) -> TrainedAlignment {
    let dim = 8;
    let (ns, nt) = (pair.source.num_entities(), pair.target.num_entities());
    let (zero_s, zero_t) = (rng.gen_range(0..ns), rng.gen_range(0..nt));
    let source = grid_table(rng, ns, dim, zero_s);
    let target = grid_table(rng, nt, dim, zero_t);
    let (rs, rt) = (pair.source.num_relations(), pair.target.num_relations());
    let (source_rel, target_rel) = match relation_mode {
        0 => (None, None),
        1 => (Some((rs, dim)), Some((rt, dim))),
        _ => (Some((rs, 6)), Some((rt, 4))),
    };
    let mut relations = |shape: Option<(usize, usize)>| {
        shape.map(|(rows, d)| {
            let zero = rng.gen_range(0..rows);
            grid_table(rng, rows, d, zero)
        })
    };
    let source_rel = relations(source_rel);
    let target_rel = relations(target_rel);
    TrainedAlignment::new("random-grid", source, target, source_rel, target_rel)
}

pub fn synthetic_pair(seed: u64, heterogeneous: bool) -> KgPair {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    SyntheticGenerator::new(SyntheticConfig {
        name: "oracle".to_owned(),
        world_entities: rng.gen_range(30..60),
        world_relations: rng.gen_range(3..8),
        avg_world_degree: 2.0 + rng.gen_range(0..4) as f64 * 0.5,
        extra_entities_per_side: 6,
        extra_triple_rate: 0.2,
        heterogeneous_schema: heterogeneous,
        relation_merge_factor: if heterogeneous { 3 } else { 1 },
        rng_seed: seed,
        ..SyntheticConfig::default()
    })
    .generate()
}
