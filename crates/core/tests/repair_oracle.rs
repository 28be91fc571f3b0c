//! A naive reference for repair (paper §IV, Algorithms 1 and 2).
//!
//! The reference is deliberately simple. Every decision scores claims
//! against an immutable snapshot of the alignment state and builds the next
//! state as an edited clone. Every score is the naive confidence of
//! `naive_reference` (paths enumerated afresh, explanation and ADG built
//! from scratch) plus `alpha` times a cosine whose norms are re-derived from
//! the raw rows. Candidate lists come from the dense `SimilarityMatrix`.
//! Nothing is batched, cached or edited in place.
//!
//! The properties draw small synthetic KG pairs at 1 and 2 hops, with and
//! without a merged target schema (so cr1 fires), and with and without a
//! noisy seed (so predictions claim seed targets and seed sources share
//! targets). Embedding tables sit on a coarse grid with a zero row; some
//! test sources copy another's row, so competing claims tie; and one target
//! row may be all NaN, so greedy completion meets a NaN similarity.
//! `repair` must equal the reference bit for bit under `RepairConfig`'s
//! default and each of its three ablations — the repaired alignment and
//! every `RepairStats` field — and so must `verify_pairs`.

mod naive_reference;

use ea_data::noise::with_noisy_seed;
use ea_embed::{vector, CandidateSearch, EmbeddingTable, SimilarityMatrix};
use ea_graph::paths::enumerate_paths;
use ea_graph::{AlignmentPair, AlignmentSet, EntityId, KgPair, KgSide};
use ea_models::TrainedAlignment;
use exea_core::repair::RepairStats;
use exea_core::{verify_pairs, ExEa, ExeaConfig, RepairConfig, VerificationOutcome};
use naive_reference::{random_model, synthetic_pair, Reference};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::io::Write;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

// ---------------------------------------------------------------------------
// The reference.

/// What the cases exercised, so the fixed sweep can check that the inputs
/// reach the decisions the reference pins.
#[derive(Default)]
struct Coverage {
    /// One-to-many conflicts whose two best claims scored exactly equal.
    cr2_ties: usize,
    /// cr3 loops that stopped because a round left as many entities
    /// unaligned as the round before.
    cr3_equal_stops: usize,
    /// Greedy completions that compared a NaN similarity.
    greedy_nan: usize,
    /// Entities greedy completion aligned.
    greedy_fallback: usize,
}

/// `a` ranks strictly above `b`: every real score above every NaN, NaNs
/// never above anything.
fn above(a: f64, b: f64) -> bool {
    match (a.is_nan(), b.is_nan()) {
        (false, true) => true,
        (false, false) => a > b,
        _ => false,
    }
}

/// Best first: higher score, NaNs last, then the smaller id.
fn best_first(a: &(EntityId, f64), b: &(EntityId, f64)) -> Ordering {
    if above(a.1, b.1) {
        Ordering::Less
    } else if above(b.1, a.1) {
        Ordering::Greater
    } else {
        a.0.cmp(&b.0)
    }
}

/// `state` with `pair` removed.
fn without(state: &AlignmentSet, pair: AlignmentPair) -> AlignmentSet {
    let mut next = state.clone();
    next.remove(&pair);
    next
}

/// `state` with `pair` added.
fn with(state: &AlignmentSet, pair: AlignmentPair) -> AlignmentSet {
    let mut next = state.clone();
    next.insert(pair);
    next
}

struct RepairReference<'a> {
    naive: Reference<'a>,
    exea: &'a ExEa<'a>,
    dense: SimilarityMatrix,
}

impl<'a> RepairReference<'a> {
    fn new(exea: &'a ExEa<'a>) -> Self {
        Self {
            naive: Reference::new(exea),
            exea,
            dense: exea.trained().similarity_matrix(exea.pair()),
        }
    }

    fn pair(&self) -> &KgPair {
        self.exea.pair()
    }

    fn beta(&self) -> f64 {
        vector::sigmoid(self.exea.config().theta)
    }

    /// `(confidence, has_strong_edges)` of `(e1, e2)` under `state`.
    fn score(&self, e1: EntityId, e2: EntityId, state: &AlignmentSet, cr1: bool) -> (f64, bool) {
        let hops = self.exea.config().hops;
        let source_paths = enumerate_paths(&self.pair().source, e1, hops);
        let target_paths = enumerate_paths(&self.pair().target, e2, hops);
        let explanation = self
            .naive
            .explain(state, e1, e2, &source_paths, &target_paths);
        self.naive.score(&explanation.matches, cr1)
    }

    /// Algorithm 2, line 14: confidence plus `alpha` times similarity.
    fn alignment_score(&self, e1: EntityId, e2: EntityId, state: &AlignmentSet, cr1: bool) -> f64 {
        self.score(e1, e2, state, cr1).0
            + self.exea.config().alpha * self.naive.similarity(e1, e2) as f64
    }

    /// The greedy prediction `Ares` from the dense matrix.
    fn predictions(&self) -> AlignmentSet {
        self.dense.greedy_alignment()
    }

    /// `e1` takes the first free candidate, or the first whose non-seed
    /// holder it strictly outscores; the loser goes to `next_round`.
    fn claim(
        &self,
        state: &AlignmentSet,
        e1: EntityId,
        candidates: Vec<(EntityId, Option<f64>)>,
        cr1: bool,
        next_round: &mut Vec<EntityId>,
    ) -> AlignmentSet {
        let seed = &self.pair().seed;
        for (e2, score) in candidates {
            if !state.contains_target(e2) {
                return with(state, AlignmentPair::new(e1, e2));
            }
            let Some(&holder) = state
                .sources_of(e2)
                .iter()
                .find(|&&s| !seed.contains_source(s))
            else {
                continue;
            };
            let score = score.unwrap_or_else(|| self.alignment_score(e1, e2, state, cr1));
            let holder_score = self.alignment_score(holder, e2, state, cr1);
            if above(score, holder_score) {
                let next = without(state, AlignmentPair::new(holder, e2));
                next_round.push(holder);
                return with(&next, AlignmentPair::new(e1, e2));
            }
        }
        next_round.push(e1);
        state.clone()
    }

    /// Targets adjacent to the counterparts of `e1`'s neighbours.
    fn candidate_targets(&self, e1: EntityId, state: &AlignmentSet) -> Vec<EntityId> {
        let pair = self.pair();
        let mut candidates = BTreeSet::new();
        for (n1, _, _) in pair.source.neighbors(e1) {
            if n1 == e1 {
                continue;
            }
            let Some(n2) = state.target_of(n1) else {
                continue;
            };
            for (t, _, _) in pair.target.neighbors(n2) {
                if t != n2 {
                    candidates.insert(t);
                }
            }
        }
        candidates.into_iter().collect()
    }

    fn repair(
        &self,
        config: &RepairConfig,
        coverage: &mut Coverage,
    ) -> (AlignmentSet, RepairStats) {
        let pair = self.pair();
        let seed = &pair.seed;
        let k = self.exea.config().top_k;
        let cr1 = config.resolve_relation_conflicts;
        let predictions = self.predictions();
        let mut stats = RepairStats {
            one_to_many_conflicts: predictions.one_to_many_conflicts().len(),
            ..RepairStats::default()
        };
        let mut state = predictions.clone();
        state.extend_from(seed);
        let mut unaligned: Vec<EntityId> = Vec::new();

        if config.resolve_one_to_many {
            // Predictions that claim a seed target are dissolved.
            for p in predictions.iter() {
                if seed.contains_target(p.target) {
                    state = without(&state, p);
                    unaligned.push(p.source);
                }
            }
            // Algorithm 1, OnetoOne: every claim scored before any loser
            // leaves; the best claim (score desc, id asc) stays.
            let snapshot = state.clone();
            for (target, sources) in snapshot.one_to_many_conflicts() {
                if seed.contains_target(target) {
                    continue;
                }
                let mut claims: Vec<(EntityId, f64)> = sources
                    .iter()
                    .map(|&s| (s, self.alignment_score(s, target, &snapshot, cr1)))
                    .collect();
                claims.sort_by(best_first);
                if claims[0].1.to_bits() == claims[1].1.to_bits() && !claims[0].1.is_nan() {
                    coverage.cr2_ties += 1;
                }
                for &(loser, _) in &claims[1..] {
                    state = without(&state, AlignmentPair::new(loser, target));
                    unaligned.push(loser);
                }
            }
            unaligned.sort();
            unaligned.dedup();
            // Algorithm 1, lines 2–21: claim from the dense top-k lists.
            while !unaligned.is_empty() {
                let last_len = unaligned.len();
                let mut next_round = Vec::new();
                for e1 in std::mem::take(&mut unaligned) {
                    let ranked = self
                        .dense
                        .top_k(e1, k)
                        .into_iter()
                        .map(|(e2, _)| (e2, None))
                        .collect();
                    state = self.claim(&state, e1, ranked, cr1, &mut next_round);
                }
                next_round.sort();
                next_round.dedup();
                unaligned = next_round;
                if unaligned.len() >= last_len {
                    break;
                }
            }
        }

        if config.resolve_low_confidence {
            // Algorithm 2.
            let beta = self.beta();
            let mut last_len: Option<usize> = None;
            loop {
                let low: Vec<AlignmentPair> = state
                    .iter()
                    .filter(|p| !seed.contains_source(p.source))
                    .filter(|p| {
                        let (confidence, strong) = self.score(p.source, p.target, &state, cr1);
                        !strong || confidence < beta
                    })
                    .collect();
                stats.low_confidence_pairs += low.len();
                for p in low {
                    state = without(&state, p);
                    unaligned.push(p.source);
                }
                unaligned.sort();
                unaligned.dedup();
                if let Some(prev) = last_len {
                    if unaligned.len() >= prev {
                        coverage.cr3_equal_stops += usize::from(unaligned.len() == prev);
                        break;
                    }
                }
                last_len = Some(unaligned.len());
                if unaligned.is_empty() {
                    break;
                }
                let mut next_round = Vec::new();
                for e1 in std::mem::take(&mut unaligned) {
                    let mut scored: Vec<(EntityId, f64)> = self
                        .candidate_targets(e1, &state)
                        .into_iter()
                        .map(|e2| (e2, self.alignment_score(e1, e2, &state, cr1)))
                        .collect();
                    scored.sort_by(best_first);
                    scored.truncate(k);
                    let ranked = scored.into_iter().map(|(e2, s)| (e2, Some(s))).collect();
                    state = self.claim(&state, e1, ranked, cr1, &mut next_round);
                }
                next_round.sort();
                next_round.dedup();
                unaligned = next_round;
            }
        }

        stats.greedy_fallback = unaligned.len();
        coverage.greedy_fallback += unaligned.len();
        state = self.greedy_completion(&state, &unaligned, coverage);

        let mut repaired = AlignmentSet::new();
        for p in state.iter() {
            if !seed.contains_source(p.source) {
                repaired.insert(p);
            }
        }
        stats.changed_pairs = pair
            .reference
            .sources()
            .into_iter()
            .filter(|&s| repaired.target_of(s) != predictions.target_of(s))
            .count();
        (repaired, stats)
    }

    /// Each still-unaligned source takes the most similar free target not yet
    /// taken (first in id order on ties); a NaN similarity never wins over a
    /// real one.
    fn greedy_completion(
        &self,
        state: &AlignmentSet,
        unaligned: &[EntityId],
        coverage: &mut Coverage,
    ) -> AlignmentSet {
        let mut free: Vec<EntityId> = self
            .pair()
            .target
            .entity_ids()
            .filter(|&t| !state.contains_target(t))
            .collect();
        let mut state = state.clone();
        for &e1 in unaligned {
            let sims: Vec<f64> = free
                .iter()
                .map(|&t| self.naive.similarity(e1, t) as f64)
                .collect();
            coverage.greedy_nan += usize::from(sims.iter().any(|s| s.is_nan()));
            let mut best: Option<usize> = None;
            for (i, &sim) in sims.iter().enumerate() {
                if best.is_none_or(|b| above(sim, sims[b])) {
                    best = Some(i);
                }
            }
            if let Some(b) = best {
                state = with(&state, AlignmentPair::new(e1, free.remove(b)));
            }
        }
        state
    }

    /// Verification decisions under the default state (predictions plus
    /// seed), with cr1.
    fn verify(&self, candidates: &[(AlignmentPair, bool)]) -> (Vec<bool>, VerificationOutcome) {
        let mut state = self.predictions();
        state.extend_from(&self.pair().seed);
        let beta = self.beta();
        let decisions: Vec<bool> = candidates
            .iter()
            .map(|(p, _)| {
                let (confidence, strong) = self.score(p.source, p.target, &state, true);
                strong && confidence >= beta
            })
            .collect();
        let labels: Vec<bool> = candidates.iter().map(|&(_, l)| l).collect();
        let outcome = VerificationOutcome::from_decisions(&decisions, &labels);
        (decisions, outcome)
    }
}

// ---------------------------------------------------------------------------
// Inputs.

/// `random_model` with ties and a NaN: a quarter of the test sources copy
/// another test source's row, and with `nan_target` the row of the first or
/// the last non-seed target is all NaN. Greedy completion scans free targets
/// in id order, so the NaN comes before or after every real similarity.
fn tied_model(
    rng: &mut StdRng,
    pair: &KgPair,
    relation_mode: u8,
    nan_target: bool,
) -> TrainedAlignment {
    let base = random_model(rng, pair, relation_mode);
    let mut source: EmbeddingTable = base.entities(KgSide::Source).clone();
    let mut target: EmbeddingTable = base.entities(KgSide::Target).clone();
    let tests = pair.test_source_entities();
    for _ in 0..tests.len() / 4 {
        let from = tests[rng.gen_range(0..tests.len())].index();
        let to = tests[rng.gen_range(0..tests.len())].index();
        let row = source.row(from).to_vec();
        source.row_mut(to).copy_from_slice(&row);
    }
    if nan_target {
        let mut free = pair
            .target
            .entity_ids()
            .filter(|&t| !pair.seed.contains_target(t));
        let picked = if rng.gen_bool(0.5) {
            free.next()
        } else {
            free.last()
        };
        if let Some(t) = picked {
            target.row_mut(t.index()).fill(f32::NAN);
        }
    }
    TrainedAlignment::new(
        base.model_name(),
        source,
        target,
        base.relations(KgSide::Source).cloned(),
        base.relations(KgSide::Target).cloned(),
    )
}

/// Every test gold pair as a positive, and each test source with a random
/// target as a negative (labelled by the gold alignment).
fn verification_candidates(rng: &mut StdRng, pair: &KgPair) -> Vec<(AlignmentPair, bool)> {
    let nt = pair.target.num_entities() as u32;
    let mut candidates = Vec::new();
    for gold in pair.reference.iter() {
        candidates.push((gold, true));
        let wrong = AlignmentPair::new(gold.source, EntityId(rng.gen_range(0..nt)));
        candidates.push((wrong, pair.reference.contains(&wrong)));
    }
    candidates
}

// ---------------------------------------------------------------------------
// The checks.

/// How long one library `repair` call on these small pairs may take.
const REPAIR_DEADLINE: Duration = Duration::from_secs(120);

/// Runs `f`, aborting the test process if it has not returned within
/// [`REPAIR_DEADLINE`]: a repair loop whose stop rule no longer terminates
/// fails the suite instead of hanging it.
fn within_deadline<R>(what: &str, f: impl FnOnce() -> R) -> R {
    let (done, wait) = mpsc::channel::<()>();
    let what = what.to_owned();
    std::thread::spawn(move || {
        if let Err(RecvTimeoutError::Timeout) = wait.recv_timeout(REPAIR_DEADLINE) {
            // Straight to stderr: the harness would swallow `eprintln!`.
            let _ = writeln!(
                std::io::stderr(),
                "{what}: repair still running after {REPAIR_DEADLINE:?}"
            );
            std::process::abort();
        }
    });
    let result = f();
    drop(done);
    result
}

#[allow(clippy::too_many_arguments)]
fn check_case(
    gen_seed: u64,
    hops: usize,
    heterogeneous: bool,
    noisy: bool,
    nan_target: bool,
    relation_mode: u8,
    knobs: usize,
) -> Coverage {
    let mut rng = StdRng::seed_from_u64(gen_seed);
    let mut pair = synthetic_pair(gen_seed, heterogeneous);
    if noisy {
        pair = with_noisy_seed(&pair, 0.3, gen_seed);
    }
    let trained = tied_model(&mut rng, &pair, relation_mode, nan_target);
    let config = ExeaConfig {
        hops,
        alpha: [0.5, 0.3][knobs % 2],
        theta: [0.0, -0.25, 0.25][knobs % 3],
        gamma: [0.0, 0.1][(knobs / 3) % 2],
        top_k: [5, 3][(knobs / 2) % 2],
        candidate_search: CandidateSearch::Exact,
        ..ExeaConfig::default()
    };
    let exea = ExEa::new(&pair, &trained, config);
    let reference = RepairReference::new(&exea);
    let context = format!(
        "seed {gen_seed} hops {hops} hetero {heterogeneous} noisy {noisy} nan {nan_target} \
         relations {relation_mode} knobs {knobs}"
    );
    assert_eq!(
        exea.predictions().to_vec(),
        reference.predictions().to_vec(),
        "{context}: predictions"
    );

    let mut coverage = Coverage::default();
    for config in [
        RepairConfig::default(),
        RepairConfig::without_cr1(),
        RepairConfig::without_cr2(),
        RepairConfig::without_cr3(),
    ] {
        let got = within_deadline(&format!("{context} {config:?}"), || exea.repair(&config));
        let (want, want_stats) = reference.repair(&config, &mut coverage);
        assert_eq!(
            got.repaired.to_vec(),
            want.to_vec(),
            "{context} {config:?}: repaired alignment"
        );
        assert_eq!(got.stats, want_stats, "{context} {config:?}: stats");
    }

    let candidates = verification_candidates(&mut rng, &pair);
    let (decisions, outcome) = verify_pairs(&exea, &candidates);
    let (want_decisions, want_outcome) = reference.verify(&candidates);
    assert_eq!(
        decisions, want_decisions,
        "{context}: verify_pairs decisions"
    );
    assert_eq!(outcome, want_outcome, "{context}: verify_pairs outcome");
    coverage
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `repair` and `verify_pairs` equal the naive reference bit for bit.
    #[test]
    fn repair_matches_the_naive_reference(
        gen_seed in 0u64..1_000_000,
        hops in 1usize..=2,
        heterogeneous in proptest::bool::ANY,
        noisy in proptest::bool::ANY,
        nan_target in proptest::bool::ANY,
        relation_mode in 0u8..3,
        knobs in 0usize..12,
    ) {
        check_case(gen_seed, hops, heterogeneous, noisy, nan_target, relation_mode, knobs);
    }
}

/// A fixed sweep over every input switch that also checks the inputs reach
/// the decisions the reference pins: tied cr2 claims, a cr3 loop stopped by
/// an equal count, and greedy completion past a NaN similarity.
#[test]
fn fixed_sweep_exercises_ties_stops_and_nan() {
    let mut total = Coverage::default();
    let mut case = 0u64;
    for hops in [1usize, 2] {
        for heterogeneous in [false, true] {
            for noisy in [false, true] {
                let c = check_case(
                    2000 + case,
                    hops,
                    heterogeneous,
                    noisy,
                    case.is_multiple_of(2),
                    (case % 3) as u8,
                    case as usize,
                );
                total.cr2_ties += c.cr2_ties;
                total.cr3_equal_stops += c.cr3_equal_stops;
                total.greedy_nan += c.greedy_nan;
                total.greedy_fallback += c.greedy_fallback;
                case += 1;
            }
        }
    }
    assert!(total.cr2_ties > 0, "no cr2 conflict tied");
    assert!(
        total.cr3_equal_stops > 0,
        "no cr3 loop stopped on an equal count"
    );
    assert!(total.greedy_fallback > 0, "greedy completion never ran");
    assert!(total.greedy_nan > 0, "greedy completion never met a NaN");
}
