//! Perturbation-based baseline explainers (EALime, EAShapley, Anchor, LORE).
//!
//! All four methods share the same perturbation engine: the candidate triples
//! around the explained pair are binary features; a perturbed sample keeps a
//! random subset; the two central entities are re-encoded from the kept
//! triples (Eq. 10 — neighbour embedding translated by the relation
//! embedding) and the model response is the cosine similarity of the two
//! re-encoded entities. What differs is how each method turns samples into a
//! triple ranking:
//!
//! * **EALime** — weighted ridge regression with the locality kernel of
//!   Eq. 11; coefficients rank the triples.
//! * **EAShapley** — Monte-Carlo Shapley value estimation (marginal
//!   contribution of each triple over random coalitions).
//! * **Anchor** — greedy growth of a rule (set of triples) whose conditional
//!   precision on the perturbed samples exceeds a target.
//! * **LORE** — a shallow decision tree fit on the perturbed samples; the
//!   features tested on the positive path form the explanation.

use crate::llm::strip_digits;
use ea_graph::{EntityId, KgPair, KgSide, Triple};
use ea_models::TrainedAlignment;
use exea_core::relation_embed::RelationEmbeddings;
use exea_core::{Explainer, Explanation};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cmp::Ordering;

/// Which baseline strategy a [`PerturbationExplainer`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineMethod {
    /// LIME transferred to EA (weighted linear surrogate).
    EaLime,
    /// Shapley-value estimation by Monte-Carlo sampling.
    EaShapley,
    /// Anchor: high-precision rule search.
    Anchor,
    /// LORE: decision-tree rule extraction.
    Lore,
    /// ChatGPT (perturb): name-similarity proxy response instead of the
    /// model's embeddings (simulated LLM, see `DESIGN.md` §3).
    ChatGptPerturb,
}

impl BaselineMethod {
    /// Display name used in the result tables.
    pub fn label(&self) -> &'static str {
        match self {
            BaselineMethod::EaLime => "EALime",
            BaselineMethod::EaShapley => "EAShapley",
            BaselineMethod::Anchor => "Anchor",
            BaselineMethod::Lore => "LORE",
            BaselineMethod::ChatGptPerturb => "ChatGPT (perturb)",
        }
    }

    /// The four transferred baselines of Table I (without the LLM variants).
    pub fn table1() -> [BaselineMethod; 4] {
        [
            BaselineMethod::EaLime,
            BaselineMethod::EaShapley,
            BaselineMethod::Anchor,
            BaselineMethod::Lore,
        ]
    }
}

/// The perturbation features of one explained pair: the candidate triples
/// plus, per side, the ascending indexes of the candidates incident to that
/// side's central entity. Only incident triples enter the re-encoding
/// (Eq. 10) and the name proxy, so every perturbed sample walks these lists
/// instead of all candidates — in ascending order, the order a full scan
/// would visit them, so every float sum stays bit-identical.
struct Features {
    source: EntityId,
    target: EntityId,
    candidates: Vec<(Triple, KgSide)>,
    source_incident: Vec<usize>,
    target_incident: Vec<usize>,
}

impl Features {
    fn new(source: EntityId, target: EntityId, candidates: Vec<(Triple, KgSide)>) -> Self {
        let incident = |side: KgSide, entity: EntityId| -> Vec<usize> {
            candidates
                .iter()
                .enumerate()
                .filter(|(_, (t, s))| *s == side && t.contains(entity))
                .map(|(i, _)| i)
                .collect()
        };
        Self {
            source_incident: incident(KgSide::Source, source),
            target_incident: incident(KgSide::Target, target),
            source,
            target,
            candidates,
        }
    }

    fn len(&self) -> usize {
        self.candidates.len()
    }

    /// The central entity of `side` and the candidates incident to it.
    fn central(&self, side: KgSide) -> (EntityId, &[usize]) {
        match side {
            KgSide::Source => (self.source, &self.source_incident),
            KgSide::Target => (self.target, &self.target_incident),
        }
    }
}

/// A perturbation-based explainer bound to one KG pair and trained model.
pub struct PerturbationExplainer<'a> {
    pair: &'a KgPair,
    trained: &'a TrainedAlignment,
    method: BaselineMethod,
    source_relations: RelationEmbeddings,
    target_relations: RelationEmbeddings,
    /// Neighbourhood radius for candidate triples.
    pub hops: usize,
    /// Number of perturbed samples drawn per explained pair.
    pub samples: usize,
    /// RNG seed (per-pair sampling is derived from it deterministically).
    pub seed: u64,
}

impl<'a> PerturbationExplainer<'a> {
    /// Creates an explainer for the given baseline method.
    pub fn new(pair: &'a KgPair, trained: &'a TrainedAlignment, method: BaselineMethod) -> Self {
        Self {
            pair,
            trained,
            method,
            source_relations: RelationEmbeddings::for_side(trained, &pair.source, KgSide::Source),
            target_relations: RelationEmbeddings::for_side(trained, &pair.target, KgSide::Target),
            hops: 1,
            samples: 64,
            seed: 23,
        }
    }

    /// Sets the candidate-triple radius (1 = first-order, 2 = second-order).
    pub fn with_hops(mut self, hops: usize) -> Self {
        self.hops = hops;
        self
    }

    fn candidates(&self, source: EntityId, target: EntityId) -> Vec<(Triple, KgSide)> {
        let mut cands: Vec<(Triple, KgSide)> = self
            .pair
            .source
            .triples_within_hops(source, self.hops)
            .into_iter()
            .map(|t| (t, KgSide::Source))
            .collect();
        cands.extend(
            self.pair
                .target
                .triples_within_hops(target, self.hops)
                .into_iter()
                .map(|t| (t, KgSide::Target)),
        );
        cands
    }

    /// Re-encodes the central entity of `side` from the included incident
    /// triples (Eq. 10): outgoing triples contribute `e_other - r`, incoming
    /// triples contribute `e_other + r`. Returns a zero vector when nothing
    /// incident is included.
    fn local_encode(&self, features: &Features, side: KgSide, mask: &[bool]) -> Vec<f32> {
        let (entity, incident) = features.central(side);
        let entities = self.trained.entities(side);
        let relations = match side {
            KgSide::Source => &self.source_relations,
            KgSide::Target => &self.target_relations,
        };
        let dim = entities.dim();
        let rel_dim = relations.dim().min(dim);
        let mut acc = vec![0.0f32; dim];
        let mut count = 0usize;
        for &i in incident {
            if !mask[i] {
                continue;
            }
            let (t, _) = &features.candidates[i];
            let (other, sign) = if t.head == entity {
                (t.tail, -1.0f32)
            } else {
                (t.head, 1.0f32)
            };
            let other_emb = entities.row(other.index());
            let rel = relations.get(t.relation);
            for d in 0..dim {
                let r = if d < rel_dim { rel[d] } else { 0.0 };
                acc[d] += other_emb[d] + sign * r;
            }
            count += 1;
        }
        if count > 0 {
            ea_embed::vector::scale(&mut acc, 1.0 / count as f32);
        }
        acc
    }

    /// The model-response value of one perturbed sample.
    fn value(&self, features: &Features, mask: &[bool]) -> f64 {
        match self.method {
            BaselineMethod::ChatGptPerturb => {
                // The simulated LLM judges similarity from names only: the
                // fraction of included source triples whose neighbour name
                // (digits stripped) also appears as an included target
                // neighbour name.
                let collect = |side: KgSide| -> Vec<String> {
                    let (entity, incident) = features.central(side);
                    incident
                        .iter()
                        .filter(|&&i| mask[i])
                        .map(|&i| {
                            let (t, _) = &features.candidates[i];
                            let other = if t.head == entity { t.tail } else { t.head };
                            let kg = match side {
                                KgSide::Source => &self.pair.source,
                                KgSide::Target => &self.pair.target,
                            };
                            strip_digits(kg.entity_name(other).unwrap_or(""))
                        })
                        .collect()
                };
                let src_names = collect(KgSide::Source);
                let tgt_names = collect(KgSide::Target);
                if src_names.is_empty() || tgt_names.is_empty() {
                    return 0.0;
                }
                let matched = src_names
                    .iter()
                    .filter(|n| tgt_names.iter().any(|m| m == *n))
                    .count();
                matched as f64 / src_names.len() as f64
            }
            _ => {
                let e1 = self.local_encode(features, KgSide::Source, mask);
                let e2 = self.local_encode(features, KgSide::Target, mask);
                ea_embed::vector::cosine(&e1, &e2) as f64
            }
        }
    }

    /// Locality kernel of Eq. 11: mean similarity between the re-encoded and
    /// the original central-entity embeddings.
    fn locality_weight(&self, features: &Features, mask: &[bool]) -> f64 {
        let e1 = self.local_encode(features, KgSide::Source, mask);
        let e2 = self.local_encode(features, KgSide::Target, mask);
        let s1 = ea_embed::vector::cosine(
            &e1,
            self.trained
                .entity_embedding(KgSide::Source, features.source),
        ) as f64;
        let s2 = ea_embed::vector::cosine(
            &e2,
            self.trained
                .entity_embedding(KgSide::Target, features.target),
        ) as f64;
        (0.5 * (s1 + s2)).max(0.01)
    }

    /// Scores every candidate triple; higher means more important.
    fn score_candidates(&self, features: &Features, rng: &mut ChaCha8Rng) -> Vec<f64> {
        let n = features.len();
        if n == 0 {
            return Vec::new();
        }
        match self.method {
            BaselineMethod::EaLime | BaselineMethod::ChatGptPerturb => {
                // Weighted ridge regression on random masks.
                let masks: Vec<Vec<bool>> = (0..self.samples)
                    .map(|_| (0..n).map(|_| rng.gen_bool(0.5)).collect())
                    .collect();
                let values: Vec<f64> = masks.iter().map(|m| self.value(features, m)).collect();
                let weights: Vec<f64> = masks
                    .iter()
                    .map(|m| self.locality_weight(features, m))
                    .collect();
                ridge_regression(&masks, &values, &weights, 0.1)
            }
            BaselineMethod::EaShapley => {
                // Monte-Carlo Shapley estimation.
                let rounds = (self.samples / 2).max(8);
                let mut scores = vec![0.0f64; n];
                for _ in 0..rounds {
                    let base_mask: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
                    for i in 0..n {
                        let mut without = base_mask.clone();
                        without[i] = false;
                        let mut with = base_mask.clone();
                        with[i] = true;
                        scores[i] += self.value(features, &with) - self.value(features, &without);
                    }
                }
                for s in &mut scores {
                    *s /= rounds as f64;
                }
                scores
            }
            BaselineMethod::Anchor => {
                // Greedy precision-driven rule growth; the score of a triple
                // is the (negated) step at which it was added, so earlier
                // anchor members rank higher.
                let full_value = self.value(features, &vec![true; n]);
                let threshold = full_value * 0.8;
                let precision = |anchor: &[usize], rng: &mut ChaCha8Rng| -> f64 {
                    let trials = 24;
                    let mut hits = 0usize;
                    for _ in 0..trials {
                        let mut mask: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
                        for &a in anchor {
                            mask[a] = true;
                        }
                        if self.value(features, &mask) >= threshold {
                            hits += 1;
                        }
                    }
                    hits as f64 / trials as f64
                };
                let mut anchor: Vec<usize> = Vec::new();
                let mut scores = vec![0.0f64; n];
                for step in 0..n.min(12) {
                    let mut best: Option<(usize, f64)> = None;
                    for i in 0..n {
                        if anchor.contains(&i) {
                            continue;
                        }
                        let mut trial = anchor.clone();
                        trial.push(i);
                        let p = precision(&trial, rng);
                        if best.is_none_or(|(_, bp)| p > bp) {
                            best = Some((i, p));
                        }
                    }
                    let Some((pick, p)) = best else { break };
                    anchor.push(pick);
                    scores[pick] = 1000.0 - step as f64;
                    if p >= 0.95 {
                        break;
                    }
                }
                scores
            }
            BaselineMethod::Lore => {
                // Shallow decision tree on balanced perturbed samples; the
                // features tested on the path of the all-included instance
                // form the rule.
                let full_value = self.value(features, &vec![true; n]);
                let threshold = full_value * 0.8;
                let masks: Vec<Vec<bool>> = (0..self.samples * 2)
                    .map(|_| (0..n).map(|_| rng.gen_bool(0.5)).collect())
                    .collect();
                let labels: Vec<bool> = masks
                    .iter()
                    .map(|m| self.value(features, m) >= threshold)
                    .collect();
                let mut scores = vec![0.0f64; n];
                let mut remaining: Vec<usize> = (0..masks.len()).collect();
                // Grow the positive path greedily by information gain.
                for depth in 0..6usize.min(n) {
                    let Some((feature, gain)) = best_split(&masks, &labels, &remaining, &scores)
                    else {
                        break;
                    };
                    if gain <= 1e-9 {
                        break;
                    }
                    scores[feature] = 1000.0 - depth as f64;
                    // Follow the branch of the explained instance (all true).
                    remaining.retain(|&s| masks[s][feature]);
                    if remaining.len() < 4 {
                        break;
                    }
                }
                scores
            }
        }
    }
}

/// Finds the unused feature with the highest information gain on the
/// remaining samples.
fn best_split(
    masks: &[Vec<bool>],
    labels: &[bool],
    remaining: &[usize],
    used: &[f64],
) -> Option<(usize, f64)> {
    if remaining.is_empty() {
        return None;
    }
    let entropy = |subset: &[usize]| -> f64 {
        if subset.is_empty() {
            return 0.0;
        }
        let pos = subset.iter().filter(|&&i| labels[i]).count() as f64;
        let p = pos / subset.len() as f64;
        if p == 0.0 || p == 1.0 {
            0.0
        } else {
            -p * p.log2() - (1.0 - p) * (1.0 - p).log2()
        }
    };
    let base = entropy(remaining);
    let n_features = masks[0].len();
    let mut best: Option<(usize, f64)> = None;
    for f in 0..n_features {
        if used[f] != 0.0 {
            continue;
        }
        let on: Vec<usize> = remaining.iter().copied().filter(|&i| masks[i][f]).collect();
        let off: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| !masks[i][f])
            .collect();
        let weighted = (on.len() as f64 * entropy(&on) + off.len() as f64 * entropy(&off))
            / remaining.len() as f64;
        let gain = base - weighted;
        if best.is_none_or(|(_, g)| gain > g) {
            best = Some((f, gain));
        }
    }
    best
}

/// Solves a weighted ridge regression `y ≈ X β` and returns `β`.
fn ridge_regression(masks: &[Vec<bool>], values: &[f64], weights: &[f64], lambda: f64) -> Vec<f64> {
    let n = masks.first().map_or(0, Vec::len);
    if n == 0 {
        return Vec::new();
    }
    // Normal equations: (XᵀWX + λI) β = XᵀWy.
    let mut a = vec![vec![0.0f64; n]; n];
    let mut b = vec![0.0f64; n];
    for (row, (&y, &w)) in masks.iter().zip(values.iter().zip(weights)) {
        for i in 0..n {
            if !row[i] {
                continue;
            }
            b[i] += w * y;
            for j in 0..n {
                if row[j] {
                    a[i][j] += w;
                }
            }
        }
    }
    for (i, row) in a.iter_mut().enumerate() {
        row[i] += lambda;
    }
    solve_linear_system(a, b)
}

/// Gaussian elimination with partial pivoting.
// Index-based loops mirror the textbook elimination; iterator forms would
// fight the borrow checker over simultaneous pivot/target row access.
#[allow(clippy::needless_range_loop)]
fn solve_linear_system(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // Pivot. NaN-safe ascending order: a NaN coefficient loses the pivot
        // race instead of panicking the `partial_cmp(..).unwrap()` this used.
        let pivot = (col..n)
            .max_by(|&x, &y| ea_embed::order::asc_f64(a[x][col].abs(), a[y][col].abs()))
            .unwrap();
        a.swap(col, pivot);
        b.swap(col, pivot);
        if a[col][col].abs() < 1e-12 {
            continue;
        }
        for row in col + 1..n {
            let factor = a[row][col] / a[col][col];
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut sum = b[row];
        for k in row + 1..n {
            sum -= a[row][k] * x[k];
        }
        x[row] = if a[row][row].abs() < 1e-12 {
            0.0
        } else {
            sum / a[row][row]
        };
    }
    x
}

/// NaN-safe strict total order over candidate indices under their
/// perturbation scores (score desc, index asc): a degenerate score can never
/// scramble the ranking.
fn rank_by_score(scores: &[f64], a: usize, b: usize) -> Ordering {
    ea_embed::order::desc_f64(scores[a], scores[b]).then(a.cmp(&b))
}

impl Explainer for PerturbationExplainer<'_> {
    fn method_name(&self) -> &str {
        self.method.label()
    }

    fn explain_pair(&self, source: EntityId, target: EntityId, budget: usize) -> Explanation {
        let candidates = self.candidates(source, target);
        if candidates.is_empty() || budget == 0 {
            return Explanation::empty(source, target);
        }
        let features = Features::new(source, target, candidates);
        // Deterministic per-pair RNG so repeated calls agree.
        let mut rng =
            ChaCha8Rng::seed_from_u64(self.seed ^ ((source.0 as u64) << 32) ^ target.0 as u64);
        let scores = self.score_candidates(&features, &mut rng);
        let mut ranked: Vec<usize> = (0..features.len()).collect();
        ranked.sort_unstable_by(|&a, &b| rank_by_score(&scores, a, b));

        let mut explanation = Explanation::empty(source, target);
        for &idx in ranked.iter().take(budget.min(features.len())) {
            if scores[idx] <= 0.0 {
                // Only keep triples with positive evidence.
                continue;
            }
            let (t, side) = features.candidates[idx];
            match side {
                KgSide::Source => explanation.source_triples.insert(t),
                KgSide::Target => explanation.target_triples.insert(t),
            };
        }
        explanation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_data::datasets::{load, DatasetName, DatasetScale};
    use ea_models::{build_model, ModelKind, TrainConfig};

    fn setup() -> (KgPair, TrainedAlignment) {
        let pair = load(DatasetName::ZhEn, DatasetScale::Small);
        let trained = build_model(ModelKind::MTransE, TrainConfig::fast()).train(&pair);
        (pair, trained)
    }

    #[test]
    fn labels_and_table1_set() {
        assert_eq!(BaselineMethod::EaLime.label(), "EALime");
        assert_eq!(BaselineMethod::Lore.label(), "LORE");
        assert_eq!(BaselineMethod::table1().len(), 4);
    }

    #[test]
    fn every_method_respects_the_budget_and_graph_membership() {
        let (pair, trained) = setup();
        let p = pair.reference.iter().next().unwrap();
        for method in [
            BaselineMethod::EaLime,
            BaselineMethod::EaShapley,
            BaselineMethod::Anchor,
            BaselineMethod::Lore,
            BaselineMethod::ChatGptPerturb,
        ] {
            let explainer = PerturbationExplainer::new(&pair, &trained, method);
            let explanation = explainer.explain_pair(p.source, p.target, 4);
            assert!(
                explanation.num_triples() <= 4,
                "{method:?} exceeded the budget"
            );
            for t in explanation.source_triples.triples() {
                assert!(pair.source.contains_triple(&t));
            }
            for t in explanation.target_triples.triples() {
                assert!(pair.target.contains_triple(&t));
            }
            assert_eq!(explainer.method_name(), method.label());
        }
    }

    #[test]
    fn explanations_are_deterministic() {
        let (pair, trained) = setup();
        let p = pair.reference.iter().next().unwrap();
        let explainer = PerturbationExplainer::new(&pair, &trained, BaselineMethod::EaShapley);
        let a = explainer.explain_pair(p.source, p.target, 5);
        let b = explainer.explain_pair(p.source, p.target, 5);
        assert_eq!(
            a.source_triples.to_hash_set(),
            b.source_triples.to_hash_set()
        );
        assert_eq!(
            a.target_triples.to_hash_set(),
            b.target_triples.to_hash_set()
        );
    }

    #[test]
    fn zero_budget_gives_empty_explanation() {
        let (pair, trained) = setup();
        let p = pair.reference.iter().next().unwrap();
        let explainer = PerturbationExplainer::new(&pair, &trained, BaselineMethod::EaLime);
        assert!(explainer.explain_pair(p.source, p.target, 0).is_empty());
    }

    #[test]
    fn ridge_regression_recovers_dominant_feature() {
        // y = 1 exactly when feature 0 is present.
        let masks = vec![
            vec![true, false, false],
            vec![true, true, false],
            vec![false, true, true],
            vec![false, false, true],
            vec![true, false, true],
            vec![false, true, false],
        ];
        let values: Vec<f64> = masks.iter().map(|m| if m[0] { 1.0 } else { 0.0 }).collect();
        let weights = vec![1.0; masks.len()];
        let beta = ridge_regression(&masks, &values, &weights, 0.01);
        assert!(beta[0] > beta[1] && beta[0] > beta[2], "{beta:?}");
    }

    #[test]
    fn linear_solver_handles_identity() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 2.0]];
        let b = vec![3.0, 8.0];
        let x = solve_linear_system(a, b);
        assert!((x[0] - 3.0).abs() < 1e-9);
        assert!((x[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn second_order_candidates_expand_the_pool() {
        let (pair, trained) = setup();
        let p = pair.reference.iter().next().unwrap();
        let one = PerturbationExplainer::new(&pair, &trained, BaselineMethod::EaLime);
        let two = PerturbationExplainer::new(&pair, &trained, BaselineMethod::EaLime).with_hops(2);
        assert!(
            two.candidates(p.source, p.target).len() >= one.candidates(p.source, p.target).len()
        );
    }
}
