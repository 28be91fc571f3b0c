//! One source against many candidate targets, checked against the naive
//! per-pair reference (paper §III, Eqs. 2–9).
//!
//! `ExEa::score_targets` walks a source's neighbour groups once for a whole
//! sorted slice of candidate targets. Inside each group it finds the hit
//! candidates from the shorter side: the aligned neighbour's own paths,
//! walked against the slice, or each candidate's paths, searched for that
//! neighbour. Whatever else shares the slice, each target's score must be
//! the naive reference's confidence and strong-edge flag for that one pair,
//! bit for bit.
//!
//! The properties draw small synthetic KG pairs at 1 to 3 hops, with and
//! without a merged target schema so that cr1 fires, and random partial
//! alignment states (dropped, remapped and piled-up sources). Two path-less
//! target entities and a path-less source are added to every pair. For each
//! sampled source the candidate slices have 0, 1, a few and all targets, and
//! the few include the aligned neighbour `n2` of one of the source's groups
//! and a path-less target, so both ways of finding hits run and the `t ==
//! n2` skip is reached. `verify_top_candidates`, which groups each source's
//! `k` candidates into one such call, must agree with the reference too.

mod naive_reference;

use ea_embed::CandidateSearch;
use ea_graph::paths::enumerate_paths;
use ea_graph::{AlignmentPair, AlignmentSet, EntityId, KgPair, RelationPath};
use exea_core::{verify_top_candidates, ExEa, ExeaConfig};
use naive_reference::{random_model, synthetic_pair, Reference};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

// ---------------------------------------------------------------------------
// Inputs.

/// The gold alignment with sources dropped, remapped at random or piled onto
/// a few hub targets (many-to-one).
fn random_state(rng: &mut StdRng, pair: &KgPair) -> AlignmentSet {
    let gold = pair.full_gold();
    let nt = pair.target.num_entities();
    let hubs: Vec<EntityId> = (0..3)
        .map(|_| EntityId(rng.gen_range(0..nt) as u32))
        .collect();
    let mut state = AlignmentSet::new();
    for s in pair.source.entity_ids() {
        let target = match rng.gen_range(0..20) {
            0..=11 => gold.target_of(s),
            12..=13 => None,
            14..=16 => Some(EntityId(rng.gen_range(0..nt) as u32)),
            _ => Some(*hubs.choose(rng).unwrap()),
        };
        if let Some(t) = target {
            state.insert(AlignmentPair::new(s, t));
        }
    }
    state
}

/// The candidate slices for `e1`, each sorted and distinct: none, one random
/// target, a few (random targets, the aligned neighbour of one of `e1`'s
/// groups and a path-less target) and every target.
fn candidate_slices(
    rng: &mut StdRng,
    pair: &KgPair,
    state: &AlignmentSet,
    e1: EntityId,
    hops: usize,
    pathless: &[EntityId],
) -> Vec<Vec<EntityId>> {
    let nt = pair.target.num_entities();
    let few_len = rng.gen_range(2..6);
    let mut random_target = || EntityId(rng.gen_range(0..nt) as u32);
    let one = vec![random_target()];
    let mut few: Vec<EntityId> = (0..few_len).map(|_| random_target()).collect();
    let aligned: Vec<EntityId> = enumerate_paths(&pair.source, e1, hops)
        .iter()
        .filter_map(|p| state.target_of(p.end()))
        .collect();
    few.extend(aligned.choose(rng));
    few.extend(pathless.choose(rng));
    few.sort_unstable();
    few.dedup();
    vec![Vec::new(), one, few, pair.target.entity_ids().collect()]
}

// ---------------------------------------------------------------------------
// The checks.

/// What a case exercised, so the fixed sweep can check that the inputs reach
/// both ways of finding hits and the skips.
#[derive(Default)]
struct Coverage {
    /// Groups whose hits are found by walking `n2`'s paths, with a hit.
    walked: usize,
    /// Groups whose hits are found by searching each candidate, with a hit.
    probed: usize,
    /// Slices holding a group's own `n2`.
    holds_n2: usize,
    /// Scores with any matched path.
    explained: usize,
}

/// The endpoints of each target entity's paths, and how many paths it has.
struct TargetEnds {
    counts: Vec<usize>,
    ends: Vec<HashSet<EntityId>>,
}

impl TargetEnds {
    fn new(pair: &KgPair, hops: usize) -> Self {
        let paths: Vec<Vec<RelationPath>> = pair
            .target
            .entity_ids()
            .map(|t| enumerate_paths(&pair.target, t, hops))
            .collect();
        Self {
            counts: paths.iter().map(Vec::len).collect(),
            ends: paths
                .iter()
                .map(|ps| ps.iter().map(RelationPath::end).collect())
                .collect(),
        }
    }

    /// Tallies, per neighbour group of `e1`, which way the core finds hits
    /// in `slice` (it walks `n2`'s paths when they are fewer than the
    /// candidates) and whether any candidate is hit.
    fn tally(
        &self,
        source_paths: &[RelationPath],
        state: &AlignmentSet,
        e1: EntityId,
        slice: &[EntityId],
        coverage: &mut Coverage,
    ) {
        let groups: HashSet<EntityId> = source_paths.iter().map(RelationPath::end).collect();
        for n1 in groups.into_iter().filter(|&n1| n1 != e1) {
            let Some(n2) = state.target_of(n1) else {
                continue;
            };
            coverage.holds_n2 += usize::from(slice.contains(&n2));
            let hit = slice
                .iter()
                .any(|&t| t != n2 && self.ends[t.index()].contains(&n2));
            if !hit {
                continue;
            }
            if self.counts[n2.index()] < slice.len() {
                coverage.walked += 1;
            } else {
                coverage.probed += 1;
            }
        }
    }
}

fn check_case(gen_seed: u64, hops: usize, heterogeneous: bool, relation_mode: u8) -> Coverage {
    let mut rng = StdRng::seed_from_u64(gen_seed);
    let mut pair = synthetic_pair(gen_seed, heterogeneous);
    let pathless: Vec<EntityId> = (0..2)
        .map(|i| pair.target.add_entity(&format!("pathless-target-{i}")))
        .collect();
    let pathless_source = pair.source.add_entity("pathless-source");
    let trained = random_model(&mut rng, &pair, relation_mode);
    let config = ExeaConfig {
        hops,
        alpha: [0.5, 0.3][gen_seed as usize % 2],
        candidate_search: CandidateSearch::Exact,
        ..ExeaConfig::default()
    };
    let exea = ExEa::new(&pair, &trained, config);
    let reference = Reference::new(&exea);
    let state = random_state(&mut rng, &pair);
    let ends = TargetEnds::new(&pair, hops);
    let ns = pair.source.num_entities();
    let mut sources: Vec<EntityId> = (0..6)
        .map(|_| EntityId(rng.gen_range(0..ns) as u32))
        .collect();
    sources.push(pathless_source);
    let mut coverage = Coverage::default();

    for e1 in sources {
        let source_paths = enumerate_paths(&pair.source, e1, hops);
        for slice in candidate_slices(&mut rng, &pair, &state, e1, hops, &pathless) {
            ends.tally(&source_paths, &state, e1, &slice, &mut coverage);
            for cr1 in [false, true] {
                let scores = exea.score_targets(e1, &slice, &state, cr1);
                assert_eq!(scores.len(), slice.len());
                for (&t, got) in slice.iter().zip(&scores) {
                    let context = format!(
                        "seed {gen_seed} hops {hops} hetero {heterogeneous} \
                         relations {relation_mode} cr1 {cr1} slice of {} pair ({}, {})",
                        slice.len(),
                        e1.0,
                        t.0
                    );
                    let target_paths = enumerate_paths(&pair.target, t, hops);
                    let naive = reference.explain(&state, e1, t, &source_paths, &target_paths);
                    let (want, want_strong) = reference.score(&naive.matches, cr1);
                    assert_eq!(got.pair, AlignmentPair::new(e1, t), "{context}: order");
                    assert_eq!(
                        got.confidence.to_bits(),
                        want.to_bits(),
                        "{context}: confidence"
                    );
                    assert_eq!(got.has_strong_edges, want_strong, "{context}: strong flag");
                    coverage.explained += usize::from(cr1 && !naive.matches.is_empty());
                }
            }
        }
    }

    // Verification scores each source's top-k candidates in one call.
    let default_state = exea.default_alignment_state();
    let beta = exea.config().beta();
    for (p, accepted) in verify_top_candidates(&exea, exea.config().top_k) {
        let source_paths = enumerate_paths(&pair.source, p.source, hops);
        let target_paths = enumerate_paths(&pair.target, p.target, hops);
        let naive = reference.explain(
            default_state,
            p.source,
            p.target,
            &source_paths,
            &target_paths,
        );
        let (confidence, strong) = reference.score(&naive.matches, true);
        assert_eq!(
            accepted,
            strong && confidence >= beta,
            "seed {gen_seed} hops {hops}: verdict of ({}, {})",
            p.source.0,
            p.target.0
        );
    }
    coverage
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every score of a many-target call equals the naive per-pair reference
    /// bit for bit.
    #[test]
    fn many_target_scores_match_the_naive_reference(
        gen_seed in 0u64..1_000_000,
        hops in 1usize..=3,
        heterogeneous in proptest::bool::ANY,
        relation_mode in 0u8..3,
    ) {
        check_case(gen_seed, hops, heterogeneous, relation_mode);
    }
}

/// A fixed sweep that also checks the inputs reach the interesting code:
/// both ways of finding hits, slices that hold a group's own `n2`, and
/// explained pairs.
#[test]
fn fixed_sweep_walks_and_probes() {
    let mut total = Coverage::default();
    for (i, hops) in [1usize, 2, 3].into_iter().enumerate() {
        for heterogeneous in [false, true] {
            let c = check_case(2000 + i as u64, hops, heterogeneous, (i % 3) as u8);
            total.walked += c.walked;
            total.probed += c.probed;
            total.holds_n2 += c.holds_n2;
            total.explained += c.explained;
        }
    }
    assert!(total.walked > 0, "no group walked n2's paths");
    assert!(total.probed > 0, "no group searched each candidate");
    assert!(total.holds_n2 > 0, "no slice held a group's own n2");
    assert!(
        total.explained > 20,
        "too few explained pairs ({})",
        total.explained
    );
}

/// The slice must be strictly ascending: the core binary-searches it.
#[test]
#[should_panic(expected = "strictly ascending")]
fn unsorted_targets_panic() {
    let pair = synthetic_pair(7, false);
    let trained = random_model(&mut StdRng::seed_from_u64(7), &pair, 0);
    let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
    let state = exea.default_alignment_state();
    exea.score_targets(EntityId(0), &[EntityId(2), EntityId(1)], state, true);
}
