//! Alignment dependency graphs (paper §III-B).
//!
//! An ADG abstracts an explanation: matched entity pairs become nodes (with
//! the pair's embedding similarity as its *influence*), matched relation-path
//! pairs become edges between the central node and its neighbour nodes. Edge
//! weights come from relation functionality (Eqs. 3–7) and the central node's
//! *confidence* (Eqs. 8–9) estimates how likely the explained alignment is to
//! be valid — the quantity every repair decision is based on.

use crate::config::ExeaConfig;
use crate::explanation::{Explanation, MatchedPath};
use ea_embed::vector::sigmoid;
use ea_graph::{Direction, EntityId, PathStep, RelationFunctionality, RelationPath};
use ea_models::TrainedAlignment;
use std::collections::HashMap;

/// How strongly an ADG edge lets a neighbour node influence the central node,
/// determined by the lengths of its two matched relation paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Both paths have length one: direct relations on both sides.
    Strong,
    /// Exactly one path has length one.
    Moderate,
    /// Both paths are longer than one hop.
    Weak,
}

/// A node of the ADG: a matched entity pair and its influence (embedding
/// similarity between the two entities).
#[derive(Debug, Clone, PartialEq)]
pub struct AdgNode {
    /// Source-graph entity of the pair.
    pub source: EntityId,
    /// Target-graph entity of the pair.
    pub target: EntityId,
    /// Influence of the node: cosine similarity of the two entity embeddings.
    pub influence: f64,
}

/// An edge between the central node and one neighbour node.
#[derive(Debug, Clone, PartialEq)]
pub struct AdgEdge {
    /// Index of the neighbour node in [`Adg::neighbors`].
    pub neighbor: usize,
    /// Edge category (strong / moderate / weak).
    pub kind: EdgeKind,
    /// Edge weight (Eqs. 5–7).
    pub weight: f64,
}

/// The alignment dependency graph of one explained pair.
#[derive(Debug, Clone)]
pub struct Adg {
    /// The central node: the pair being explained.
    pub central: AdgNode,
    /// The neighbour nodes: matched neighbour entity pairs.
    pub neighbors: Vec<AdgNode>,
    /// Edges between the central node and neighbour nodes.
    pub edges: Vec<AdgEdge>,
    confidence: f64,
    theta: f64,
    gamma: f64,
}

impl Adg {
    /// Builds the ADG for an explanation.
    pub fn build(
        explanation: &Explanation,
        trained: &TrainedAlignment,
        source_functionality: &RelationFunctionality,
        target_functionality: &RelationFunctionality,
        config: &ExeaConfig,
    ) -> Self {
        let central = AdgNode {
            source: explanation.source_entity,
            target: explanation.target_entity,
            influence: trained
                .entity_similarity(explanation.source_entity, explanation.target_entity)
                as f64,
        };

        let mut neighbor_index: HashMap<(EntityId, EntityId), usize> = HashMap::new();
        let mut neighbors: Vec<AdgNode> = Vec::new();
        let mut edges: Vec<AdgEdge> = Vec::new();

        let mut sorted_paths: Vec<&MatchedPath> = explanation.matched_paths.iter().collect();
        sorted_paths.sort_by_key(|m| {
            (
                m.source.end(),
                m.target.end(),
                m.source.len(),
                m.target.len(),
            )
        });

        for m in sorted_paths {
            let key = (m.source.end(), m.target.end());
            let idx = *neighbor_index.entry(key).or_insert_with(|| {
                neighbors.push(AdgNode {
                    source: key.0,
                    target: key.1,
                    influence: trained.entity_similarity(key.0, key.1) as f64,
                });
                neighbors.len() - 1
            });
            let (kind, weight) = edge_rule(
                &m.source,
                &m.target,
                source_functionality,
                target_functionality,
                config,
            );
            edges.push(AdgEdge {
                neighbor: idx,
                kind,
                weight,
            });
        }

        let mut adg = Self {
            central,
            neighbors,
            edges,
            confidence: 0.5,
            theta: config.theta,
            gamma: config.gamma,
        };
        adg.recompute_confidence();
        adg
    }

    /// The explanation confidence of the central node (Eq. 9).
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// Whether the ADG has at least one strongly-influential edge — the
    /// condition §IV-C uses to decide that a pair is *not* a low-confidence
    /// conflict.
    pub fn has_strong_edges(&self) -> bool {
        self.edges.iter().any(|e| e.kind == EdgeKind::Strong)
    }

    /// Number of neighbour nodes.
    pub fn num_neighbors(&self) -> usize {
        self.neighbors.len()
    }

    /// Removes the neighbour nodes at the given indexes (used when relation
    /// alignment conflicts show a neighbour pair is misaligned) and
    /// recomputes the confidence.
    pub fn remove_neighbors(&mut self, mut indexes: Vec<usize>) {
        indexes.sort_unstable();
        indexes.dedup();
        if indexes.is_empty() {
            return;
        }
        let mut remap: Vec<Option<usize>> = vec![None; self.neighbors.len()];
        let mut kept = Vec::with_capacity(self.neighbors.len());
        let mut next = 0usize;
        for (i, node) in self.neighbors.iter().enumerate() {
            if indexes.binary_search(&i).is_err() {
                remap[i] = Some(next);
                kept.push(node.clone());
                next += 1;
            }
        }
        self.neighbors = kept;
        self.edges = self
            .edges
            .iter()
            .filter_map(|e| {
                remap[e.neighbor].map(|n| AdgEdge {
                    neighbor: n,
                    kind: e.kind,
                    weight: e.weight,
                })
            })
            .collect();
        self.recompute_confidence();
    }

    /// Aggregation of one edge class: `Σ weight(edge) · influence(neighbour)`
    /// (the inner sums of Eq. 8).
    fn aggregate(&self, kind: EdgeKind) -> f64 {
        self.edges
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.weight * self.neighbors[e.neighbor].influence)
            .sum()
    }

    fn recompute_confidence(&mut self) {
        self.confidence = confidence_from_aggregates(
            [
                self.aggregate(EdgeKind::Strong),
                self.aggregate(EdgeKind::Moderate),
                self.aggregate(EdgeKind::Weak),
            ],
            self.theta,
            self.gamma,
        );
    }
}

/// Eq. 9 over the three per-class aggregates of Eq. 8, indexed by
/// `EdgeKind as usize` (strong, moderate, weak): moderate and weak
/// contributions are only consulted when the stronger classes are below
/// their thresholds. Both [`Adg`] and `ExEa::score_with_state`
/// end here, so their confidences agree bit for bit when the aggregates do.
pub(crate) fn confidence_from_aggregates(sums: [f64; 3], theta: f64, gamma: f64) -> f64 {
    let [cs, cm, cw] = sums;
    let mut total = cs;
    if cs < theta {
        total += cm;
        if cm < gamma {
            total += cw;
        }
    }
    sigmoid(total)
}

/// The ADG edge rule (Eqs. 3–7): the kind of the edge a matched path pair
/// contributes, fixed by the two path lengths, and its weight.
pub(crate) fn edge_rule(
    source: &RelationPath,
    target: &RelationPath,
    source_functionality: &RelationFunctionality,
    target_functionality: &RelationFunctionality,
    config: &ExeaConfig,
) -> (EdgeKind, f64) {
    match (source.is_direct(), target.is_direct()) {
        (true, true) => {
            let w1 = direct_path_weight(source, source_functionality);
            let w2 = direct_path_weight(target, target_functionality);
            (EdgeKind::Strong, w1.min(w2))
        }
        (true, false) => {
            let wd = direct_path_weight(source, source_functionality);
            let wl = long_path_weight(target, target_functionality);
            (EdgeKind::Moderate, config.alpha * wd.min(wl))
        }
        (false, true) => {
            let wd = direct_path_weight(target, target_functionality);
            let wl = long_path_weight(source, source_functionality);
            (EdgeKind::Moderate, config.alpha * wd.min(wl))
        }
        (false, false) => (EdgeKind::Weak, config.weak_edge_weight),
    }
}

/// Eqs. 3–4 for one step: a step leaving its entity as the head is weighted
/// by the relation's inverse functionality; a step where the entity is the
/// tail is weighted by the functionality.
fn step_weight(step: &PathStep, functionality: &RelationFunctionality) -> f64 {
    match step.direction {
        Direction::Forward => functionality.ifunc(step.relation),
        Direction::Backward => functionality.func(step.relation),
    }
}

/// Eqs. 3–4: the weight of a direct path is the weight of its one step.
fn direct_path_weight(path: &RelationPath, functionality: &RelationFunctionality) -> f64 {
    step_weight(&path.steps[0], functionality)
}

/// Eq. 6: the weight of a long path is the product of the weights of its
/// direct segments, one per step.
fn long_path_weight(path: &RelationPath, functionality: &RelationFunctionality) -> f64 {
    path.steps
        .iter()
        .map(|step| step_weight(step, functionality))
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explanation::generate_explanation;
    use crate::relation_embed::RelationEmbeddings;
    use ea_data::datasets::{load, DatasetName, DatasetScale};
    use ea_graph::paths::enumerate_paths;
    use ea_graph::{AlignmentSet, KgSide};
    use ea_models::{build_model, ModelKind, TrainConfig};

    struct Fixture {
        pair: ea_graph::KgPair,
        trained: TrainedAlignment,
        alignment: AlignmentSet,
        rel_s: RelationEmbeddings,
        rel_t: RelationEmbeddings,
        func_s: RelationFunctionality,
        func_t: RelationFunctionality,
        config: ExeaConfig,
    }

    fn fixture() -> Fixture {
        let pair = load(DatasetName::ZhEn, DatasetScale::Small);
        let trained = build_model(ModelKind::GcnAlign, TrainConfig::fast()).train(&pair);
        let mut alignment = trained.predict(&pair);
        alignment.extend_from(&pair.seed);
        let rel_s = RelationEmbeddings::for_side(&trained, &pair.source, KgSide::Source);
        let rel_t = RelationEmbeddings::for_side(&trained, &pair.target, KgSide::Target);
        let func_s = RelationFunctionality::compute(&pair.source);
        let func_t = RelationFunctionality::compute(&pair.target);
        Fixture {
            pair,
            trained,
            alignment,
            rel_s,
            rel_t,
            func_s,
            func_t,
            config: ExeaConfig::default(),
        }
    }

    fn adg_for(f: &Fixture, e1: EntityId, e2: EntityId, hops: usize) -> Adg {
        let p1 = enumerate_paths(&f.pair.source, e1, hops);
        let p2 = enumerate_paths(&f.pair.target, e2, hops);
        let exp = generate_explanation(
            &f.trained,
            &f.alignment,
            e1,
            e2,
            &p1,
            &p2,
            &f.rel_s,
            &f.rel_t,
        );
        Adg::build(&exp, &f.trained, &f.func_s, &f.func_t, &f.config)
    }

    #[test]
    fn confidence_is_a_probability() {
        let f = fixture();
        for p in f.pair.reference.iter().take(40) {
            let adg = adg_for(&f, p.source, p.target, 1);
            let c = adg.confidence();
            assert!((0.0..=1.0).contains(&c), "confidence {c} out of range");
        }
    }

    #[test]
    fn empty_explanation_gives_half_confidence() {
        let f = fixture();
        let exp = Explanation::empty(EntityId(0), EntityId(0));
        let adg = Adg::build(&exp, &f.trained, &f.func_s, &f.func_t, &f.config);
        assert!((adg.confidence() - 0.5).abs() < 1e-12);
        assert!(!adg.has_strong_edges());
        assert_eq!(adg.num_neighbors(), 0);
    }

    #[test]
    fn first_order_explanations_give_strong_edges_only() {
        let f = fixture();
        for p in f.pair.reference.iter().take(30) {
            let adg = adg_for(&f, p.source, p.target, 1);
            for e in &adg.edges {
                assert_eq!(e.kind, EdgeKind::Strong);
                assert!(e.weight >= 0.0 && e.weight <= 1.0);
            }
        }
    }

    #[test]
    fn edges_reference_valid_neighbors() {
        let f = fixture();
        for p in f.pair.reference.iter().take(30) {
            let adg = adg_for(&f, p.source, p.target, 2);
            for e in &adg.edges {
                assert!(e.neighbor < adg.neighbors.len());
            }
        }
    }

    #[test]
    fn strong_evidence_raises_confidence_above_half() {
        let f = fixture();
        // A pair with strong edges and positively-influencing neighbours must
        // have confidence above the no-evidence level of 0.5.
        let found = f.pair.reference.iter().take(60).find(|p| {
            let adg = adg_for(&f, p.source, p.target, 1);
            adg.has_strong_edges() && adg.neighbors.iter().all(|n| n.influence > 0.0)
        });
        if let Some(p) = found {
            let adg = adg_for(&f, p.source, p.target, 1);
            assert!(adg.confidence() > 0.5);
        }
    }

    #[test]
    fn removing_all_neighbors_resets_confidence() {
        let f = fixture();
        let p = f
            .pair
            .reference
            .iter()
            .find(|p| adg_for(&f, p.source, p.target, 1).num_neighbors() > 0)
            .expect("an explainable pair exists");
        let mut adg = adg_for(&f, p.source, p.target, 1);
        let all: Vec<usize> = (0..adg.num_neighbors()).collect();
        adg.remove_neighbors(all);
        assert_eq!(adg.num_neighbors(), 0);
        assert!(adg.edges.is_empty());
        assert!((adg.confidence() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn removing_one_neighbor_keeps_edge_indexes_consistent() {
        let f = fixture();
        let p = f
            .pair
            .reference
            .iter()
            .find(|p| adg_for(&f, p.source, p.target, 1).num_neighbors() >= 2)
            .expect("a pair with two matched neighbours exists");
        let mut adg = adg_for(&f, p.source, p.target, 1);
        let before = adg.num_neighbors();
        let removed_pair = (adg.neighbors[0].source, adg.neighbors[0].target);
        adg.remove_neighbors(vec![0]);
        assert_eq!(adg.num_neighbors(), before - 1);
        for e in &adg.edges {
            assert!(e.neighbor < adg.neighbors.len());
            let n = &adg.neighbors[e.neighbor];
            assert_ne!((n.source, n.target), removed_pair);
        }
    }

    #[test]
    fn direct_path_weight_uses_direction() {
        let mut kg = ea_graph::KnowledgeGraph::new();
        // "born_in" has many subjects per object: func < 1, ifunc = 1 when
        // each subject appears once.
        kg.add_triple_by_names("alice", "born_in", "paris");
        kg.add_triple_by_names("bob", "born_in", "paris");
        let func = RelationFunctionality::compute(&kg);
        let alice = kg.entity_by_name("alice").unwrap();
        let paris = kg.entity_by_name("paris").unwrap();
        let triple = kg.triples()[0];
        // Walking from alice (head) uses ifunc = 0.5 (2 triples, 1 object).
        let forward = RelationPath::single(alice, triple).unwrap();
        assert!((direct_path_weight(&forward, &func) - 0.5).abs() < 1e-12);
        // Walking from paris (tail) uses func = 1.0 (2 subjects / 2 triples).
        let backward = RelationPath::single(paris, triple).unwrap();
        assert!((direct_path_weight(&backward, &func) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn long_path_weight_is_product_of_segments() {
        let mut kg = ea_graph::KnowledgeGraph::new();
        kg.add_triple_by_names("a", "r1", "b");
        kg.add_triple_by_names("b", "r2", "c");
        let func = RelationFunctionality::compute(&kg);
        let a = kg.entity_by_name("a").unwrap();
        let c = kg.entity_by_name("c").unwrap();
        let path = ea_graph::paths::paths_between(&kg, a, c, 2).pop().unwrap();
        let expected: f64 = path
            .segments()
            .iter()
            .map(|s| direct_path_weight(s, &func))
            .product();
        assert!((long_path_weight(&path, &func) - expected).abs() < 1e-12);
        assert!(expected > 0.0);
    }
}
