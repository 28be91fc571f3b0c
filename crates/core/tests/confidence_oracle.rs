//! A naive reference for explanation confidence (paper §III, Eqs. 2–9).
//!
//! The reference is deliberately simple. It groups matched neighbours in a
//! `HashMap` and scans every target path per group. It embeds each path with
//! freshly allocated vectors (Eq. 2) and recomputes every cosine inside the
//! two mutual-best passes. It clones the matched paths, builds the ADG as an
//! explicit node and edge list, and applies relation-alignment conflicts
//! (cr1) by deleting whole neighbour nodes.
//!
//! The properties draw small synthetic KG pairs, with and without a merged
//! target schema so that cr1 fires, at 1 to 3 hops. Embedding tables are
//! random, on a coarse grid so that path similarities tie, and each holds a
//! zero row. Alignment states are random perturbations of the gold
//! alignment: some sources are dropped or remapped, several share one target,
//! and some neighbours are mapped onto the explained target itself. Every
//! score the library returns — `confidence_with_state`, both fields of
//! `score_batch`, and `explain_with_state` followed by `adg` — must equal the
//! reference bit for bit.

use ea_data::generator::{SyntheticConfig, SyntheticGenerator};
use ea_embed::{vector, CandidateSearch, EmbeddingTable};
use ea_graph::paths::enumerate_paths;
use ea_graph::{
    AlignmentPair, AlignmentSet, Direction, EntityId, KgPair, KgSide, RelationFunctionality,
    RelationPath, Triple,
};
use ea_models::TrainedAlignment;
use exea_core::explanation::generate_explanation;
use exea_core::relation_embed::RelationEmbeddings;
use exea_core::{BatchOptions, ExEa, ExeaConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};

// ---------------------------------------------------------------------------
// The reference.

/// Everything the reference reads, gathered independently of `ExEa`'s caches.
struct Reference<'a> {
    exea: &'a ExEa<'a>,
    source_relations: RelationEmbeddings,
    target_relations: RelationEmbeddings,
    source_functionality: RelationFunctionality,
    target_functionality: RelationFunctionality,
}

type PathsByPair<'a> =
    HashMap<(EntityId, EntityId), (Vec<&'a RelationPath>, Vec<&'a RelationPath>)>;

struct NaiveMatch {
    source: RelationPath,
    target: RelationPath,
    similarity: f32,
}

struct NaiveExplanation {
    matches: Vec<NaiveMatch>,
    source_triples: BTreeSet<Triple>,
    target_triples: BTreeSet<Triple>,
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
    fn new(exea: &'a ExEa<'a>) -> Self {
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

    fn explain(
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

    /// `(confidence, has_strong_edges)` of the ADG over `matches`.
    fn score(&self, matches: &[NaiveMatch], apply_relation_conflicts: bool) -> (f64, bool) {
        let config = self.exea.config();
        let trained = self.exea.trained();
        let mut nodes: Vec<((EntityId, EntityId), f64)> = Vec::new();
        let mut edges: Vec<(usize, Kind, f64)> = Vec::new();
        for m in matches {
            let key = (m.source.end(), m.target.end());
            let node = match nodes.iter().position(|(k, _)| *k == key) {
                Some(i) => i,
                None => {
                    nodes.push((key, trained.entity_similarity(key.0, key.1) as f64));
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
fn grid_table(rng: &mut StdRng, rows: usize, dim: usize, zero_row: usize) -> EmbeddingTable {
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
fn random_model(rng: &mut StdRng, pair: &KgPair, relation_mode: u8) -> TrainedAlignment {
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

fn synthetic_pair(seed: u64, heterogeneous: bool) -> KgPair {
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

/// Pairs to score: gold pairs, the zero-row entities, and random targets.
fn scored_pairs(rng: &mut StdRng, pair: &KgPair) -> Vec<AlignmentPair> {
    let gold: Vec<AlignmentPair> = pair.full_gold().to_vec();
    let nt = pair.target.num_entities();
    let ns = pair.source.num_entities();
    (0..24)
        .map(|i| match i % 3 {
            0 => *gold.choose(rng).unwrap(),
            1 => {
                let g = gold.choose(rng).unwrap();
                AlignmentPair::new(g.source, EntityId(rng.gen_range(0..nt) as u32))
            }
            _ => AlignmentPair::new(
                EntityId(rng.gen_range(0..ns) as u32),
                EntityId(rng.gen_range(0..nt) as u32),
            ),
        })
        .collect()
}

/// The gold alignment with sources dropped, remapped at random, piled onto a
/// few hub targets (many-to-one), or mapped onto a scored pair's target.
fn random_state(rng: &mut StdRng, pair: &KgPair, scored: &[AlignmentPair]) -> AlignmentSet {
    let gold = pair.full_gold();
    let nt = pair.target.num_entities();
    let hubs: Vec<EntityId> = (0..3)
        .map(|_| EntityId(rng.gen_range(0..nt) as u32))
        .collect();
    let mut state = AlignmentSet::new();
    for s in pair.source.entity_ids() {
        let target = match rng.gen_range(0..20) {
            0..=10 => gold.target_of(s),
            11..=12 => None,
            13..=14 => Some(EntityId(rng.gen_range(0..nt) as u32)),
            15..=17 => Some(*hubs.choose(rng).unwrap()),
            _ => Some(scored.choose(rng).unwrap().target),
        };
        if let Some(t) = target {
            state.insert(AlignmentPair::new(s, t));
        }
    }
    state
}

/// `e`'s paths followed by those of a random other entity, shuffled: the
/// public `generate_explanation` takes arbitrary slices, including paths
/// that end at the explained entity itself.
fn foreign_paths(
    rng: &mut StdRng,
    kg: &ea_graph::KnowledgeGraph,
    e: EntityId,
    hops: usize,
) -> Vec<RelationPath> {
    let other = EntityId(rng.gen_range(0..kg.num_entities()) as u32);
    let mut paths = enumerate_paths(kg, e, hops);
    paths.extend(enumerate_paths(kg, other, hops));
    // Neighbours of `e` also start paths that end at `e`.
    if let Some(n) = kg.neighbors_iter(e).next() {
        paths.extend(enumerate_paths(kg, n.entity, hops));
    }
    paths.shuffle(rng);
    paths
}

// ---------------------------------------------------------------------------
// The checks.

fn assert_explanation_matches(
    got: &exea_core::Explanation,
    want: &NaiveExplanation,
    context: &str,
) {
    assert_eq!(
        got.matched_paths.len(),
        want.matches.len(),
        "{context}: matched path count"
    );
    for (g, w) in got.matched_paths.iter().zip(&want.matches) {
        assert_eq!(g.source, w.source, "{context}: source path");
        assert_eq!(g.target, w.target, "{context}: target path");
        assert_eq!(
            g.similarity.to_bits(),
            w.similarity.to_bits(),
            "{context}: similarity"
        );
    }
    let got_s: BTreeSet<Triple> = got.source_triples.triples().collect();
    let got_t: BTreeSet<Triple> = got.target_triples.triples().collect();
    assert_eq!(got_s, want.source_triples, "{context}: source triples");
    assert_eq!(got_t, want.target_triples, "{context}: target triples");
}

/// Counts of what a case exercised: pairs whose confidence cr1 changed, and
/// pairs whose explanation had any matched path.
#[derive(Default)]
struct Coverage {
    cr1_changed: usize,
    explained: usize,
}

fn check_case(
    gen_seed: u64,
    hops: usize,
    heterogeneous: bool,
    relation_mode: u8,
    knobs: usize,
) -> Coverage {
    let mut rng = StdRng::seed_from_u64(gen_seed);
    let pair = synthetic_pair(gen_seed, heterogeneous);
    let trained = random_model(&mut rng, &pair, relation_mode);
    let config = ExeaConfig {
        hops,
        alpha: [0.5, 0.3][knobs % 2],
        theta: [0.0, -0.25, 0.25][knobs % 3],
        gamma: [0.0, 0.1, -0.1][(knobs / 3) % 3],
        candidate_search: CandidateSearch::Exact,
        ..ExeaConfig::default()
    };
    let exea = ExEa::new(&pair, &trained, config);
    let reference = Reference::new(&exea);
    let scored = scored_pairs(&mut rng, &pair);
    let state = random_state(&mut rng, &pair, &scored);
    let mut coverage = Coverage::default();

    for cr1 in [false, true] {
        let sequential = exea.score_batch(&scored, &state, cr1, &BatchOptions::sequential());
        let parallel = exea.score_batch(&scored, &state, cr1, &BatchOptions::always_parallel());
        for ((p, s), q) in scored.iter().zip(&sequential).zip(&parallel) {
            let context = format!(
                "seed {gen_seed} hops {hops} hetero {heterogeneous} relations {relation_mode} \
                 knobs {knobs} cr1 {cr1} pair ({}, {})",
                p.source.0, p.target.0
            );
            let source_paths = enumerate_paths(&pair.source, p.source, hops);
            let target_paths = enumerate_paths(&pair.target, p.target, hops);
            let naive = reference.explain(&state, p.source, p.target, &source_paths, &target_paths);
            let (want, want_strong) = reference.score(&naive.matches, cr1);

            let single = exea.confidence_with_state(p.source, p.target, &state, cr1);
            assert_eq!(
                single.to_bits(),
                want.to_bits(),
                "{context}: confidence_with_state"
            );
            for batch in [s, q] {
                assert_eq!(batch.pair, *p, "{context}: score_batch order");
                assert_eq!(
                    batch.confidence.to_bits(),
                    want.to_bits(),
                    "{context}: score_batch confidence"
                );
                assert_eq!(
                    batch.has_strong_edges, want_strong,
                    "{context}: strong flag"
                );
            }

            let explanation = exea.explain_with_state(p.source, p.target, &state);
            assert_explanation_matches(&explanation, &naive, &context);
            let adg = exea.adg(&explanation, cr1);
            assert_eq!(adg.confidence().to_bits(), want.to_bits(), "{context}: adg");
            assert_eq!(adg.has_strong_edges(), want_strong, "{context}: adg strong");

            // The public form over arbitrary, unsorted slices.
            let foreign_s = foreign_paths(&mut rng, &pair.source, p.source, hops);
            let foreign_t = foreign_paths(&mut rng, &pair.target, p.target, hops);
            let naive_foreign =
                reference.explain(&state, p.source, p.target, &foreign_s, &foreign_t);
            let rel_s = &reference.source_relations;
            let rel_t = &reference.target_relations;
            let foreign = generate_explanation(
                &trained, &state, p.source, p.target, &foreign_s, &foreign_t, rel_s, rel_t,
            );
            assert_explanation_matches(&foreign, &naive_foreign, &format!("{context} foreign"));
            let (want_foreign, strong_foreign) = reference.score(&naive_foreign.matches, cr1);
            let adg = exea.adg(&foreign, cr1);
            assert_eq!(
                adg.confidence().to_bits(),
                want_foreign.to_bits(),
                "{context}: foreign adg"
            );
            assert_eq!(
                adg.has_strong_edges(),
                strong_foreign,
                "{context}: foreign strong"
            );

            if cr1 {
                let plain = exea.confidence_with_state(p.source, p.target, &state, false);
                coverage.cr1_changed += usize::from(plain.to_bits() != want.to_bits());
                coverage.explained += usize::from(!naive.matches.is_empty());
            }
        }
    }
    coverage
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every scoring entry point equals the naive reference bit for bit.
    #[test]
    fn confidence_matches_the_naive_reference(
        gen_seed in 0u64..1_000_000,
        hops in 1usize..=3,
        heterogeneous in proptest::bool::ANY,
        relation_mode in 0u8..3,
        knobs in 0usize..9,
    ) {
        check_case(gen_seed, hops, heterogeneous, relation_mode, knobs);
    }
}

/// A fixed sweep that also checks the inputs reach the interesting code:
/// cr1 changes some confidences and most cases explain something.
#[test]
fn fixed_sweep_exercises_cr1_and_multi_hop_paths() {
    let mut total = Coverage::default();
    for (i, hops) in [1usize, 2, 3].into_iter().enumerate() {
        for heterogeneous in [false, true] {
            let c = check_case(1000 + i as u64, hops, heterogeneous, (i % 3) as u8, i * 4);
            total.cr1_changed += c.cr1_changed;
            total.explained += c.explained;
        }
    }
    assert!(total.cr1_changed > 0, "cr1 never changed a confidence");
    assert!(
        total.explained > 20,
        "too few explained pairs ({})",
        total.explained
    );
}
