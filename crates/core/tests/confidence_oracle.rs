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

mod naive_reference;

use ea_embed::CandidateSearch;
use ea_graph::paths::enumerate_paths;
use ea_graph::{AlignmentPair, AlignmentSet, EntityId, KgPair, RelationPath, Triple};
use exea_core::explanation::generate_explanation;
use exea_core::{BatchOptions, ExEa, ExeaConfig};
use naive_reference::{random_model, synthetic_pair, NaiveExplanation, Reference};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Inputs.

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
