//! Entity-alignment repair (paper §IV, Algorithms 1 and 2).
//!
//! Repair turns the model's raw greedy predictions into a conflict-free,
//! higher-accuracy alignment by resolving three kinds of conflicts:
//!
//! * **cr1 — relation-alignment conflicts**: neighbour evidence whose
//!   relations provably imply `¬sameAs` is removed from ADGs before their
//!   confidence is used (soft conflicts, applied inside every ADG build).
//! * **cr2 — one-to-many conflicts** (Algorithm 1): several source entities
//!   claiming the same target entity; the claim with the highest explanation
//!   confidence wins and the losers are re-aligned from their ranked
//!   candidate lists.
//! * **cr3 — low-confidence conflicts** (Algorithm 2): pairs whose
//!   explanation carries no strongly-influential evidence are dissolved and
//!   re-aligned using an alignment score that balances explanation confidence
//!   and embedding similarity.
//!
//! The expensive parts of both algorithms — scoring every competing claim of
//! every one-to-many conflict, and re-scoring the whole working alignment on
//! each low-confidence sweep — consume the batched parallel pipeline
//! ([`crate::pipeline`]) instead of explaining pairs one at a time. Batches
//! preserve input order, so repair decisions (and therefore the repaired
//! alignment) are bit-identical whether the batches run sequentially or on
//! the worker pool.

use crate::framework::ExEa;
use ea_graph::{AlignmentPair, AlignmentSet, EntityId};
use std::cmp::Ordering;
use std::collections::HashSet;

/// Which conflict resolvers to run (the paper's ablation switches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairConfig {
    /// cr1: adjust ADGs for relation-alignment conflicts.
    pub resolve_relation_conflicts: bool,
    /// cr2: resolve one-to-many conflicts (Algorithm 1).
    pub resolve_one_to_many: bool,
    /// cr3: resolve low-confidence conflicts (Algorithm 2).
    pub resolve_low_confidence: bool,
}

impl Default for RepairConfig {
    fn default() -> Self {
        Self {
            resolve_relation_conflicts: true,
            resolve_one_to_many: true,
            resolve_low_confidence: true,
        }
    }
}

impl RepairConfig {
    /// Ablation helper: everything enabled except relation-conflict resolution.
    pub fn without_cr1() -> Self {
        Self {
            resolve_relation_conflicts: false,
            ..Self::default()
        }
    }

    /// Ablation helper: everything enabled except one-to-many resolution.
    pub fn without_cr2() -> Self {
        Self {
            resolve_one_to_many: false,
            ..Self::default()
        }
    }

    /// Ablation helper: everything enabled except low-confidence resolution.
    pub fn without_cr3() -> Self {
        Self {
            resolve_low_confidence: false,
            ..Self::default()
        }
    }
}

/// Statistics describing what the repair pipeline did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// One-to-many conflicts found in the raw predictions.
    pub one_to_many_conflicts: usize,
    /// Pairs dissolved because their explanation confidence was low.
    pub low_confidence_pairs: usize,
    /// Pairs whose target was changed by the repair.
    pub changed_pairs: usize,
    /// Source entities that ended up re-aligned by the final greedy step.
    pub greedy_fallback: usize,
}

/// Keeps only the `k` best-scored candidates, best first, via
/// [`ea_embed::select_top_k_by`] partial selection instead of fully sorting
/// the list. The `(score desc, id asc)` NaN-safe total order matches what the
/// old stable descending sort produced over the id-sorted candidate list (a
/// NaN score now deterministically ranks last), so repair decisions are
/// unchanged bit for bit on real scores.
fn select_top_candidates(scored: &mut Vec<(EntityId, f64)>, k: usize) {
    ea_embed::select_top_k_by(scored, k, |a, b| {
        ea_embed::order::desc_f64(a.1, b.1).then(a.0.cmp(&b.0))
    });
}

/// The claim order `conflict_winner` maximises under: alignment score through
/// the NaN-safe ascending comparator (a NaN can never rank above a real
/// score), equal scores ranking the *smaller* source id higher (the id
/// comparison is reversed so `max_by` picks it).
fn claim_order(a: &(EntityId, f64), b: &(EntityId, f64)) -> Ordering {
    ea_embed::order::asc_f64(a.1, b.1).then(b.0.cmp(&a.0))
}

/// The winning claim of a one-to-many conflict: highest alignment score,
/// ties broken by the smallest source entity id. Comparing under the strict
/// total [`claim_order`] makes the winner independent of the order the claims
/// are listed in. Returns `None` on an empty claim list — the caller skips
/// such conflicts instead of panicking.
fn conflict_winner(claims: &[(EntityId, f64)]) -> Option<EntityId> {
    claims
        .iter()
        .copied()
        .max_by(claim_order)
        .map(|(source, _)| source)
}

/// The result of running the repair pipeline.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired alignment `A*` (covers every test source entity).
    pub repaired: AlignmentSet,
    /// Bookkeeping about the repair process.
    pub stats: RepairStats,
}

impl<'a> ExEa<'a> {
    /// Runs the full repair pipeline on the model's predictions.
    ///
    /// The working set is the scoring state itself: `work` starts as one
    /// clone of the default alignment state (predictions plus seed), every
    /// resolver edits it in place and scores explanations against it, and
    /// the seed pairs are stripped before the outcome is returned. Seed and
    /// test sources are disjoint, so no edit ever touches a seed pair.
    pub fn repair(&self, config: &RepairConfig) -> RepairOutcome {
        let seed = &self.pair().seed;
        let predictions = self.predictions();
        let cr1 = config.resolve_relation_conflicts;
        let k = self.config().top_k;
        let mut stats = RepairStats {
            one_to_many_conflicts: predictions.one_to_many_conflicts().len(),
            ..RepairStats::default()
        };

        let mut work = self.default_alignment_state().clone();
        let mut unaligned: Vec<EntityId> = Vec::new();

        // ---- cr2: one-to-many conflicts (Algorithm 1) -------------------
        if config.resolve_one_to_many {
            // A prediction that claims a *seed* target entity conflicts with
            // the training alignment (the seed target already has a source):
            // dissolve it up front, exactly like any other one-to-many claim.
            for p in predictions
                .iter()
                .filter(|p| seed.contains_target(p.target))
            {
                work.remove(&p);
                unaligned.push(p.source);
            }
            self.resolve_one_to_many(&mut work, &mut unaligned, cr1);
            unaligned.sort();
            unaligned.dedup();
            self.realign_by_similarity(&mut work, &mut unaligned, k, cr1);
        }

        // ---- cr3: low-confidence conflicts (Algorithm 2) -----------------
        if config.resolve_low_confidence {
            self.resolve_low_confidence(&mut work, &mut unaligned, k, cr1, &mut stats);
        }

        // ---- final greedy completion -------------------------------------
        stats.greedy_fallback = unaligned.len();
        self.greedy_completion(&mut work, &mut unaligned);

        for s in seed.sources() {
            work.remove_source(s);
        }
        stats.changed_pairs = self
            .pair()
            .reference
            .sources()
            .iter()
            .filter(|&&s| work.target_of(s) != predictions.target_of(s))
            .count();

        RepairOutcome {
            repaired: work,
            stats,
        }
    }

    /// Combined alignment score used by the repair decisions: explanation
    /// confidence plus `alpha` times the model's embedding similarity
    /// (Algorithm 2, line 14 — also used when comparing competing claims so
    /// that local evidence and global similarity are balanced consistently).
    fn alignment_score(&self, e1: EntityId, e2: EntityId, state: &AlignmentSet, cr1: bool) -> f64 {
        self.confidence_with_state(e1, e2, state, cr1)
            + self.config().alpha * self.trained().entity_similarity(e1, e2) as f64
    }

    /// `OnetoOne(Atrain, Ares)` of Algorithm 1: for every one-to-many
    /// conflict keep the claim with the highest alignment score and move the
    /// losers from `work` to `unaligned`. Targets held only by seed sources
    /// (a noisy seed can map several sources to one target) are not repair's
    /// to resolve and are skipped.
    ///
    /// All competing claims across all conflicts are scored in one parallel
    /// batch against `work` before any loser is removed.
    fn resolve_one_to_many(
        &self,
        work: &mut AlignmentSet,
        unaligned: &mut Vec<EntityId>,
        cr1: bool,
    ) {
        let seed = &self.pair().seed;
        let conflicts: Vec<(EntityId, Vec<EntityId>)> = work
            .one_to_many_conflicts()
            .into_iter()
            .filter(|(target, _)| !seed.contains_target(*target))
            .collect();
        let claims: Vec<AlignmentPair> = conflicts
            .iter()
            .flat_map(|(target, sources)| sources.iter().map(|&s| AlignmentPair::new(s, *target)))
            .collect();
        let scores = self.run_batch(&claims, self.batch_options(), |p| {
            self.alignment_score(p.source, p.target, work, cr1)
        });
        let mut scores = scores.into_iter();
        for (target, sources) in conflicts {
            let scored: Vec<(EntityId, f64)> =
                sources.iter().copied().zip(scores.by_ref()).collect();
            // Deterministic winner: (score desc, entity id asc) — equal
            // confidences can no longer make the outcome depend on claim
            // order. A conflict with no claims (should not occur; defensive
            // against future callers) is logged and skipped rather than
            // panicking mid-repair.
            let Some(winner) = conflict_winner(&scored) else {
                debug_assert!(false, "one-to-many conflict with no claims");
                eprintln!(
                    "repair: skipping one-to-many conflict on target {target}: no competing claims"
                );
                continue;
            };
            for s in sources.into_iter().filter(|&s| s != winner) {
                work.remove(&AlignmentPair::new(s, target));
                unaligned.push(s);
            }
        }
    }

    /// The claim walk of Algorithm 1 (lines 5–18) and Algorithm 2 (lines
    /// 12–20): `e1` takes the first candidate target nobody holds, or the
    /// first one whose holder it strictly outscores under
    /// [`ExEa::alignment_score`] against `work`. Each candidate may carry
    /// `e1`'s score when the caller already computed it. Seed holders are
    /// never displaced. The displaced holder — or `e1` itself, when no
    /// candidate could be claimed — goes to `next_round`.
    fn claim(
        &self,
        work: &mut AlignmentSet,
        e1: EntityId,
        candidates: impl IntoIterator<Item = (EntityId, Option<f64>)>,
        cr1: bool,
        next_round: &mut Vec<EntityId>,
    ) {
        let seed = &self.pair().seed;
        for (e2, score) in candidates {
            if !work.contains_target(e2) {
                work.insert(AlignmentPair::new(e1, e2));
                return;
            }
            let holder = work
                .sources_of(e2)
                .iter()
                .copied()
                .find(|&s| !seed.contains_source(s));
            let Some(holder) = holder else { continue };
            let score = score.unwrap_or_else(|| self.alignment_score(e1, e2, work, cr1));
            let holder_score = self.alignment_score(holder, e2, work, cr1);
            if ea_embed::order::asc_f64(score, holder_score).is_gt() {
                work.remove(&AlignmentPair::new(holder, e2));
                work.insert(AlignmentPair::new(e1, e2));
                next_round.push(holder);
                return;
            }
        }
        next_round.push(e1);
    }

    /// Lines 2–21 of Algorithm 1: iteratively re-align the unaligned source
    /// entities from their ranked candidate lists, stealing a target from a
    /// weaker claim when the alignment score says so.
    ///
    /// Candidates come from the cached blocked top-k engine
    /// ([`ExEa::candidate_index`]): O(n·k) storage instead of the dense
    /// matrix, and the per-claim `source_index` lookups are O(1) hash probes
    /// rather than the linear scans that used to make this loop quadratic.
    fn realign_by_similarity(
        &self,
        work: &mut AlignmentSet,
        unaligned: &mut Vec<EntityId>,
        k: usize,
        cr1: bool,
    ) {
        let index = self.candidate_index();
        while !unaligned.is_empty() {
            let last_len = unaligned.len();
            let mut next_round: Vec<EntityId> = Vec::new();
            for e1 in std::mem::take(unaligned) {
                match index.source_index(e1) {
                    Some(row) => {
                        let ranked = index.candidates(row).take(k).map(|(e2, _)| (e2, None));
                        self.claim(work, e1, ranked, cr1, &mut next_round);
                    }
                    None => next_round.push(e1),
                }
            }
            next_round.sort();
            next_round.dedup();
            *unaligned = next_round;
            if unaligned.len() >= last_len {
                break;
            }
        }
    }

    /// Algorithm 2: dissolve low-confidence pairs and re-align them with the
    /// combined alignment score `confidence + alpha * similarity`.
    fn resolve_low_confidence(
        &self,
        work: &mut AlignmentSet,
        unaligned: &mut Vec<EntityId>,
        k: usize,
        cr1: bool,
        stats: &mut RepairStats,
    ) {
        let seed = &self.pair().seed;
        let beta = self.config().beta();
        let mut last_len: Option<usize> = None;
        loop {
            // Detect low-confidence pairs under the current state. The scan
            // re-scores every test pair of the working alignment, so it runs
            // as one parallel batch over shared read-only state.
            let pairs: Vec<AlignmentPair> = work
                .iter()
                .filter(|p| !seed.contains_source(p.source))
                .collect();
            let low: Vec<AlignmentPair> = self
                .score_batch(&pairs, work, cr1, self.batch_options())
                .into_iter()
                .filter(|s| !s.has_strong_edges || s.confidence < beta)
                .map(|s| s.pair)
                .collect();
            stats.low_confidence_pairs += low.len();
            for p in &low {
                work.remove(p);
                unaligned.push(p.source);
            }
            unaligned.sort();
            unaligned.dedup();

            if let Some(prev) = last_len {
                if unaligned.len() >= prev {
                    break;
                }
            }
            last_len = Some(unaligned.len());
            if unaligned.is_empty() {
                break;
            }

            // Re-align from candidate lists scored by confidence + similarity.
            let mut next_round: Vec<EntityId> = Vec::new();
            for e1 in std::mem::take(unaligned) {
                let mut scored: Vec<(EntityId, f64)> = self
                    .candidate_targets(e1, work)
                    .into_iter()
                    .map(|e2| (e2, self.alignment_score(e1, e2, work, cr1)))
                    .collect();
                select_top_candidates(&mut scored, k);
                let ranked = scored.into_iter().map(|(e2, score)| (e2, Some(score)));
                self.claim(work, e1, ranked, cr1, &mut next_round);
            }
            next_round.sort();
            next_round.dedup();
            *unaligned = next_round;
        }
    }

    /// Candidate target entities for re-alignment: targets whose neighbours
    /// are aligned with neighbours of `e1` (their explanations are guaranteed
    /// to carry evidence), ordered deterministically.
    fn candidate_targets(&self, e1: EntityId, state: &AlignmentSet) -> Vec<EntityId> {
        let mut candidates: HashSet<EntityId> = HashSet::new();
        for n1 in self.pair().source.neighbor_entities(e1) {
            if let Some(n2) = state.target_of(n1) {
                for t in self.pair().target.neighbor_entities(n2) {
                    candidates.insert(t);
                }
            }
        }
        let mut result: Vec<EntityId> = candidates.into_iter().collect();
        result.sort();
        result
    }

    /// Final fallback: greedily align still-unaligned source entities with
    /// unaligned target entities by embedding similarity. A NaN similarity
    /// ranks below every real one, so it never beats a real candidate.
    fn greedy_completion(&self, work: &mut AlignmentSet, unaligned: &mut Vec<EntityId>) {
        if unaligned.is_empty() {
            return;
        }
        let free_targets: Vec<EntityId> = self
            .pair()
            .target
            .entity_ids()
            .filter(|&t| !work.contains_target(t))
            .collect();
        let mut taken: HashSet<EntityId> = HashSet::new();
        for &e1 in unaligned.iter() {
            let mut best: Option<(EntityId, f32)> = None;
            for &t in &free_targets {
                if taken.contains(&t) {
                    continue;
                }
                let sim = self.trained().entity_similarity(e1, t);
                if best.is_none_or(|(_, b)| ea_embed::order::asc_f32(sim, b).is_gt()) {
                    best = Some((t, sim));
                }
            }
            if let Some((t, _)) = best {
                work.insert(AlignmentPair::new(e1, t));
                taken.insert(t);
            }
        }
        unaligned.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExeaConfig;
    use ea_data::datasets::{load, DatasetName, DatasetScale};
    use ea_graph::KgSide;
    use ea_models::{build_model, ModelKind, TrainConfig, TrainedAlignment};

    fn setup(kind: ModelKind) -> (ea_graph::KgPair, TrainedAlignment) {
        let pair = load(DatasetName::ZhEn, DatasetScale::Small);
        let trained = build_model(kind, TrainConfig::fast()).train(&pair);
        (pair, trained)
    }

    #[test]
    fn repair_improves_accuracy_and_removes_conflicts() {
        let (pair, trained) = setup(ModelKind::MTransE);
        let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
        let base_accuracy = trained.accuracy(&pair);
        let outcome = exea.repair(&RepairConfig::default());
        let repaired_accuracy = outcome.repaired.accuracy_against(&pair.reference);
        assert!(
            repaired_accuracy > base_accuracy,
            "repair should improve accuracy ({base_accuracy:.3} -> {repaired_accuracy:.3})"
        );
        assert!(outcome.repaired.is_one_to_one());
    }

    #[test]
    fn repair_covers_every_test_source_entity() {
        let (pair, trained) = setup(ModelKind::GcnAlign);
        let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
        let outcome = exea.repair(&RepairConfig::default());
        for s in pair.reference.sources() {
            assert!(
                outcome.repaired.contains_source(s),
                "source {s} lost by repair"
            );
        }
    }

    #[test]
    fn disabling_one_to_many_resolution_keeps_conflicts() {
        let (pair, trained) = setup(ModelKind::MTransE);
        let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
        let full = exea.repair(&RepairConfig::default());
        let no_cr2 = exea.repair(&RepairConfig::without_cr2());
        // Full repair ends one-to-one; the ablation usually retains conflicts
        // (the raw predictions of a weak model are full of them).
        assert!(full.repaired.is_one_to_one());
        let base_conflicts = exea.predictions().one_to_many_conflicts().len();
        assert!(base_conflicts > 0, "test premise: conflicts exist");
        assert!(full.stats.one_to_many_conflicts == base_conflicts);
        // Both variants must still improve on the raw model output; the exact
        // ordering between them is evaluated at benchmark scale.
        let base = trained.accuracy(&pair);
        let acc_full = full.repaired.accuracy_against(&pair.reference);
        let acc_no_cr2 = no_cr2.repaired.accuracy_against(&pair.reference);
        assert!(acc_full > base);
        assert!(acc_no_cr2 > base);
    }

    #[test]
    fn ablations_do_not_exceed_full_repair() {
        let (pair, trained) = setup(ModelKind::MTransE);
        let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
        let full = exea
            .repair(&RepairConfig::default())
            .repaired
            .accuracy_against(&pair.reference);
        for config in [
            RepairConfig::without_cr1(),
            RepairConfig::without_cr2(),
            RepairConfig::without_cr3(),
        ] {
            let acc = exea
                .repair(&config)
                .repaired
                .accuracy_against(&pair.reference);
            // The resolvers are heuristics evaluated properly at benchmark
            // scale; at unit-test scale we only require that no ablation beats
            // the full pipeline by a wide margin.
            assert!(
                acc <= full + 0.10,
                "ablated repair ({config:?}) unexpectedly beats full repair ({acc:.3} vs {full:.3})"
            );
        }
    }

    #[test]
    fn repair_stats_are_populated() {
        let (pair, trained) = setup(ModelKind::MTransE);
        let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
        let outcome = exea.repair(&RepairConfig::default());
        assert_eq!(
            outcome.stats.one_to_many_conflicts,
            exea.predictions().one_to_many_conflicts().len()
        );
        assert!(outcome.stats.changed_pairs > 0);
        let _ = pair;
    }

    #[test]
    fn conflict_winner_is_order_independent_on_ties() {
        let e = EntityId;
        // Equal confidences: the smallest entity id wins, however the claims
        // are listed (the regression case for the old first-seen-wins loop).
        let tied = vec![(e(7), 0.5), (e(2), 0.5), (e(9), 0.5)];
        assert_eq!(conflict_winner(&tied), Some(e(2)));
        let mut reversed = tied.clone();
        reversed.reverse();
        assert_eq!(conflict_winner(&reversed), Some(e(2)));
        // A strictly higher confidence still wins regardless of id.
        let mixed = vec![(e(1), 0.4), (e(8), 0.6), (e(3), 0.6)];
        assert_eq!(conflict_winner(&mixed), Some(e(3)));
        // NaN confidences lose to any real confidence and tie among
        // themselves by id; an empty conflict yields None instead of a panic.
        let with_nan = vec![(e(5), f64::NAN), (e(6), -1.0)];
        assert_eq!(conflict_winner(&with_nan), Some(e(6)));
        let all_nan = vec![(e(5), f64::NAN), (e(4), f64::NAN)];
        assert_eq!(conflict_winner(&all_nan), Some(e(4)));
        assert_eq!(conflict_winner(&[]), None);
    }

    #[test]
    fn greedy_completion_never_picks_a_nan_similarity() {
        let (pair, trained) = setup(ModelKind::GcnAlign);
        // Every target id below `nan_target` is a seed target, so once it is
        // free it is the first target greedy completion looks at.
        let nan_target = pair
            .target
            .entity_ids()
            .find(|&t| !pair.seed.contains_target(t))
            .unwrap();
        let mut targets = trained.entities(KgSide::Target).clone();
        targets.row_mut(nan_target.index()).fill(f32::NAN);
        let trained = TrainedAlignment::new(
            trained.model_name(),
            trained.entities(KgSide::Source).clone(),
            targets,
            trained.relations(KgSide::Source).cloned(),
            trained.relations(KgSide::Target).cloned(),
        );
        let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
        let mut work = exea.default_alignment_state().clone();
        for s in work.sources_of(nan_target).to_vec() {
            work.remove_source(s);
        }
        let e1 = pair.reference.sources()[0];
        work.remove_source(e1);
        exea.greedy_completion(&mut work, &mut vec![e1]);
        let t = work.target_of(e1).expect("greedy completion aligns e1");
        assert_ne!(t, nan_target, "a NaN similarity beat every real one");
        assert!(!trained.entity_similarity(e1, t).is_nan());
    }

    #[test]
    fn repair_config_ablation_constructors() {
        assert!(!RepairConfig::without_cr1().resolve_relation_conflicts);
        assert!(RepairConfig::without_cr1().resolve_one_to_many);
        assert!(!RepairConfig::without_cr2().resolve_one_to_many);
        assert!(!RepairConfig::without_cr3().resolve_low_confidence);
        assert_eq!(
            RepairConfig::default(),
            RepairConfig {
                resolve_relation_conflicts: true,
                resolve_one_to_many: true,
                resolve_low_confidence: true,
            }
        );
    }
}
