//! Semantic-matching-subgraph explanations (paper §III-A).
//!
//! The heuristic behind ExEA: *two entities are aligned because their relation
//! triples share similar semantics*. An explanation for a predicted pair
//! `(e1, e2)` is therefore built by
//!
//! 1. finding neighbour entities of `e1` and `e2` that are themselves aligned
//!    (by the model's predictions or the seed alignment): `e1`'s paths are
//!    walked in runs that share an endpoint `n1`, `n2 = state(n1)` is
//!    resolved once per run, and the targets with a run ending at `n2` are
//!    found from the shorter side — `n2`'s own paths, walked against the
//!    sorted candidate targets, or each candidate's paths, binary-searched
//!    for `n2` (all path lists are sorted by endpoint);
//! 2. collecting the relation paths from each central entity to its matched
//!    neighbours and embedding them (Eq. 2) into reused scratch, `e1`'s run
//!    once per group;
//! 3. matching those paths bidirectionally by path-embedding similarity
//!    (mutual nearest neighbours over one cosine tile per neighbour pair), and
//! 4. taking the triples along matched paths as the explanation subgraph.
//!
//! Steps 1–3 are one *matching core*, `for_each_match`, which scores one
//! source against a whole sorted slice of candidate targets. It is shared by
//! [`generate_explanation`] (which materialises step 4 for one target) and by
//! the scorers behind [`crate::ExEa::score_targets`],
//! [`crate::ExEa::confidence_with_state`] and [`crate::ExEa::score_batch`]
//! (which read only the ADG confidence and never build the explanation).
//! Every consumer therefore sees a pair's matches in the same order, whatever
//! other candidates share the call.

use crate::relation_embed::{path_embedding_into, RelationEmbeddings};
use ea_embed::{vector, EmbeddingTable};
use ea_graph::{AlignmentSet, EntityId, KgPair, KgSide, RelationPath, Subgraph};
use ea_models::TrainedAlignment;
use std::borrow::Borrow;
use std::cell::RefCell;

/// A pair of relation paths — one around the source entity, one around the
/// target entity — judged to carry the same semantics.
#[derive(Debug, Clone)]
pub struct MatchedPath {
    /// Path from the source central entity to a matched source neighbour.
    pub source: RelationPath,
    /// Path from the target central entity to the matched target neighbour.
    pub target: RelationPath,
    /// Cosine similarity of the two path embeddings.
    pub similarity: f32,
}

/// The explanation for one predicted alignment pair: the semantic matching
/// subgraph around the two entities.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The source entity being explained.
    pub source_entity: EntityId,
    /// The target entity being explained.
    pub target_entity: EntityId,
    /// The matched relation-path pairs forming the explanation.
    pub matched_paths: Vec<MatchedPath>,
    /// Source-side triples of the matching subgraph.
    pub source_triples: Subgraph,
    /// Target-side triples of the matching subgraph.
    pub target_triples: Subgraph,
}

impl Explanation {
    /// An explanation with no matched paths (the model's decision cannot be
    /// grounded in matching structure).
    pub fn empty(source_entity: EntityId, target_entity: EntityId) -> Self {
        Self {
            source_entity,
            target_entity,
            matched_paths: Vec::new(),
            source_triples: Subgraph::new(),
            target_triples: Subgraph::new(),
        }
    }

    /// Whether the explanation contains no evidence at all.
    pub fn is_empty(&self) -> bool {
        self.matched_paths.is_empty()
    }

    /// Total number of triples selected by the explanation (both sides).
    pub fn num_triples(&self) -> usize {
        self.source_triples.len() + self.target_triples.len()
    }

    /// Sparsity (Eq. 13): `1 - |explanation| / |candidates|`, where the
    /// candidate count is the number of triples within `h` hops of the two
    /// entities. Returns 1.0 when there are no candidates.
    pub fn sparsity(&self, candidate_triples: usize) -> f64 {
        if candidate_triples == 0 {
            return 1.0;
        }
        1.0 - self.num_triples() as f64 / candidate_triples as f64
    }

    /// Renders the explanation with entity/relation names for display
    /// (the Fig. 5 case-study format).
    pub fn render(&self, pair: &KgPair) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "explanation for ({} ≡ {})\n",
            pair.source.entity_name(self.source_entity).unwrap_or("?"),
            pair.target.entity_name(self.target_entity).unwrap_or("?"),
        ));
        if self.is_empty() {
            out.push_str("  (no matching structure found)\n");
            return out;
        }
        for m in &self.matched_paths {
            out.push_str(&format!(
                "  {}  <=>  {}   (sim {:.3})\n",
                m.source.render(&pair.source),
                m.target.render(&pair.target),
                m.similarity
            ));
        }
        out
    }
}

/// What Eq. 2 reads on both sides: the entity tables and the relation
/// embeddings.
#[derive(Clone, Copy)]
pub(crate) struct PathEmbedder<'a> {
    source_entities: &'a EmbeddingTable,
    target_entities: &'a EmbeddingTable,
    source_relations: &'a RelationEmbeddings,
    target_relations: &'a RelationEmbeddings,
}

impl<'a> PathEmbedder<'a> {
    pub(crate) fn new(
        trained: &'a TrainedAlignment,
        source_relations: &'a RelationEmbeddings,
        target_relations: &'a RelationEmbeddings,
    ) -> Self {
        Self {
            source_entities: trained.entities(KgSide::Source),
            target_entities: trained.entities(KgSide::Target),
            source_relations,
            target_relations,
        }
    }

    /// The embedding prefix both sides compare on. The two sides may have
    /// different embedding dimensionality when the relation tables differ
    /// (e.g. Dual-AMN gates); the shortest common prefix aligns the entity
    /// parts first.
    fn common_dim(&self) -> usize {
        (self.source_entities.dim() + self.source_relations.dim())
            .min(self.target_entities.dim() + self.target_relations.dim())
    }
}

/// One mutual-best path match inside a neighbour group: indexes into the
/// group's source and target runs, and the cosine of the two embeddings.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PathMatch {
    pub(crate) source: usize,
    pub(crate) target: usize,
    pub(crate) similarity: f32,
}

/// Buffers the matching core reuses across groups and calls: path
/// embeddings, their norms, the cosine tile, the target-side picks and the
/// matches. They grow to the largest group seen and are never shrunk.
#[derive(Default)]
struct MatchScratch {
    source_embeddings: Vec<f32>,
    target_embeddings: Vec<f32>,
    source_norms: Vec<f32>,
    target_norms: Vec<f32>,
    tile: Vec<f32>,
    best_source: Vec<usize>,
    matches: Vec<PathMatch>,
}

thread_local! {
    /// One scratch per worker thread: scoring and explaining never allocate
    /// per path, and workers share nothing mutable.
    static SCRATCH: RefCell<MatchScratch> = RefCell::new(MatchScratch::default());
}

/// The run of `paths` (sorted by endpoint) that ends at `end`.
fn endpoint_run<P: Borrow<RelationPath>>(paths: &[P], end: EntityId) -> &[P] {
    let lo = paths.partition_point(|p| p.borrow().end() < end);
    let len = paths[lo..].partition_point(|p| p.borrow().end() == end);
    &paths[lo..lo + len]
}

/// Embeds `run` (Eq. 2) into `embeddings`, one `width`-wide row per path,
/// and records each row's norm over its first `dim` values.
fn embed_run<P: Borrow<RelationPath>>(
    run: &[P],
    entities: &EmbeddingTable,
    relations: &RelationEmbeddings,
    dim: usize,
    embeddings: &mut Vec<f32>,
    norms: &mut Vec<f32>,
) {
    let width = entities.dim() + relations.dim();
    embeddings.resize(run.len() * width, 0.0);
    norms.clear();
    for (p, row) in run.iter().zip(embeddings.chunks_exact_mut(width)) {
        path_embedding_into(p.borrow(), entities, relations, row);
        norms.push(vector::norm(&row[..dim]));
    }
}

impl MatchScratch {
    /// Embeds one neighbour group's source run (step 2), once for all the
    /// candidate targets the group is matched against.
    fn embed_sources<P: Borrow<RelationPath>>(
        &mut self,
        embedder: &PathEmbedder<'_>,
        sources: &[P],
    ) {
        embed_run(
            sources,
            embedder.source_entities,
            embedder.source_relations,
            embedder.common_dim(),
            &mut self.source_embeddings,
            &mut self.source_norms,
        );
    }

    /// Mutual-best matching of the embedded source run against one target
    /// run (steps 2–3). Leaves the matches in `self.matches`, ordered by
    /// `(source length, target length)` and, within that, by source index.
    fn match_targets<P: Borrow<RelationPath>>(
        &mut self,
        embedder: &PathEmbedder<'_>,
        sources: &[P],
        targets: &[P],
    ) {
        let source_width = embedder.source_entities.dim() + embedder.source_relations.dim();
        let target_width = embedder.target_entities.dim() + embedder.target_relations.dim();
        let dim = embedder.common_dim();
        embed_run(
            targets,
            embedder.target_entities,
            embedder.target_relations,
            dim,
            &mut self.target_embeddings,
            &mut self.target_norms,
        );

        // One l×m tile of cosines, each computed once.
        let (l, m) = (sources.len(), targets.len());
        self.tile.clear();
        for i in 0..l {
            let a = &self.source_embeddings[i * source_width..][..dim];
            let na = self.source_norms[i];
            for j in 0..m {
                let b = &self.target_embeddings[j * target_width..][..dim];
                let nb = self.target_norms[j];
                self.tile.push(vector::cosine_with_norms(a, b, na, nb));
            }
        }

        // NaN-safe ascending total order: a NaN path similarity always loses
        // the argmax. Ties between real scores keep the last index.
        let tile = &self.tile;
        self.best_source.clear();
        self.best_source.extend((0..m).map(|j| {
            (0..l)
                .max_by(|&x, &y| ea_embed::order::asc_f32(tile[x * m + j], tile[y * m + j]))
                .expect("the source run is non-empty")
        }));
        self.matches.clear();
        for i in 0..l {
            let row = &tile[i * m..][..m];
            let j = (0..m)
                .max_by(|&x, &y| ea_embed::order::asc_f32(row[x], row[y]))
                .expect("the target run is non-empty");
            if self.best_source[j] == i {
                self.matches.push(PathMatch {
                    source: i,
                    target: j,
                    similarity: row[j],
                });
            }
        }
        // Stable, so equal lengths keep source-index order.
        self.matches.sort_by_key(|pm| {
            (
                sources[pm.source].borrow().len(),
                targets[pm.target].borrow().len(),
            )
        });
    }
}

/// The matching core (steps 1–3): one source `e1` against a sorted slice of
/// distinct candidate targets, groups in the outer loop.
///
/// `source_paths` are `e1`'s paths and `target_paths(t)` the paths around
/// target `t`, both sorted by endpoint. For every neighbour group `(n1, n2 =
/// alignment(n1))` of `e1`, in ascending `n1` order, the group is resolved
/// once and `e1`'s run ending at `n1` is embedded once. The candidates `t`
/// whose run ending at `n2` is non-empty are then found from the shorter
/// side: when `n2` has fewer paths than there are candidates, `n2`'s
/// same-endpoint runs are walked and each endpoint is binary-searched among
/// the candidates; otherwise each candidate's paths are binary-searched for
/// `n2`. The walk relies on path symmetry — `t` has a path ending at `n2`
/// exactly when `n2` has one ending at `t` — which enumerated simple paths
/// over both edge directions always have. With one candidate the walk runs
/// only when `target_paths(n2)` is empty, where both sides find nothing, so
/// a one-target caller may pass paths that are not symmetric.
///
/// Calls `visit(i, sources, targets, matches)` once per hit, where `i`
/// indexes `candidates`, `sources` / `targets` are the runs ending at `n1` /
/// `n2` and `matches` index into them. `matches` is never empty: with
/// last-index ties, the tile's maximum in the last row that holds it, at
/// that row's last maximal column, is always a mutual best. Neighbours
/// equal to the central entities (`n1 = e1`, `n2 = t`) are skipped. So each
/// candidate sees its groups in ascending `n1` order, exactly the order of
/// [`generate_explanation`]'s matched paths, and every consumer accumulates
/// a pair's evidence in the same order whatever else is in `candidates`.
///
/// The work runs on this thread's scratch, which `visit` must not re-enter.
pub(crate) fn for_each_match<'t, P: Borrow<RelationPath> + 't>(
    embedder: &PathEmbedder<'_>,
    alignment: &AlignmentSet,
    e1: EntityId,
    source_paths: &[P],
    candidates: &[EntityId],
    target_paths: impl Fn(EntityId) -> &'t [P],
    mut visit: impl FnMut(usize, &[P], &[P], &[PathMatch]),
) {
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        let mut rest = source_paths;
        while let Some(first) = rest.first() {
            let n1 = first.borrow().end();
            let (sources, tail) = rest.split_at(rest.partition_point(|p| p.borrow().end() == n1));
            rest = tail;
            if n1 == e1 {
                continue;
            }
            let Some(n2) = alignment.target_of(n1) else {
                continue;
            };
            let mut embedded = false;
            let mut hit = |i: usize| {
                let t = candidates[i];
                if t == n2 {
                    return;
                }
                let targets = endpoint_run(target_paths(t), n2);
                if targets.is_empty() {
                    return;
                }
                if !embedded {
                    scratch.embed_sources(embedder, sources);
                    embedded = true;
                }
                scratch.match_targets(embedder, sources, targets);
                visit(i, sources, targets, &scratch.matches);
            };
            let around = target_paths(n2);
            if around.len() < candidates.len() {
                let mut lo = 0;
                for run in around.chunk_by(|a, b| a.borrow().end() == b.borrow().end()) {
                    match candidates[lo..].binary_search(&run[0].borrow().end()) {
                        Ok(i) => {
                            hit(lo + i);
                            lo += i + 1;
                        }
                        Err(i) => lo += i,
                    }
                    if lo == candidates.len() {
                        break;
                    }
                }
            } else {
                (0..candidates.len()).for_each(&mut hit);
            }
        }
    });
}

/// Step 4 on the matching core, for paths already sorted by endpoint:
/// `target_paths(e2)` are the paths the explanation matches against.
pub(crate) fn explain_sorted<'t, P: Borrow<RelationPath> + 't>(
    embedder: &PathEmbedder<'_>,
    alignment: &AlignmentSet,
    e1: EntityId,
    e2: EntityId,
    source_paths: &[P],
    target_paths: impl Fn(EntityId) -> &'t [P],
) -> Explanation {
    let mut explanation = Explanation::empty(e1, e2);
    for_each_match(
        embedder,
        alignment,
        e1,
        source_paths,
        &[e2],
        target_paths,
        |_, sources, targets, matches| {
            for pm in matches {
                let source = sources[pm.source].borrow();
                let target = targets[pm.target].borrow();
                for t in source.triples() {
                    explanation.source_triples.insert(t);
                }
                for t in target.triples() {
                    explanation.target_triples.insert(t);
                }
                explanation.matched_paths.push(MatchedPath {
                    source: source.clone(),
                    target: target.clone(),
                    similarity: pm.similarity,
                });
            }
        },
    );
    explanation
}

/// Generates the semantic matching subgraph for the pair `(e1, e2)`.
///
/// `alignment` is the alignment state used to decide which neighbours count
/// as matched — the union of the seed alignment and the model's current
/// predictions (or the partially repaired alignment during repair).
/// `source_paths` / `target_paths` are the relation paths of length `<= hops`
/// starting at `e1` / `e2`, in any order; they are stable-sorted by endpoint
/// (by reference) before matching. [`crate::ExEa`] caches them pre-sorted and
/// skips that step.
///
/// Matched paths come out ordered by source neighbour, then by the two path
/// lengths, then by position in `source_paths`.
#[allow(clippy::too_many_arguments)]
pub fn generate_explanation(
    trained: &TrainedAlignment,
    alignment: &AlignmentSet,
    e1: EntityId,
    e2: EntityId,
    source_paths: &[RelationPath],
    target_paths: &[RelationPath],
    source_relations: &RelationEmbeddings,
    target_relations: &RelationEmbeddings,
) -> Explanation {
    let mut sources: Vec<&RelationPath> = source_paths.iter().collect();
    sources.sort_by_key(|p| p.end());
    let mut targets: Vec<&RelationPath> = target_paths.iter().collect();
    targets.sort_by_key(|p| p.end());
    let embedder = PathEmbedder::new(trained, source_relations, target_relations);
    // The one slice stands for every entity's paths; with one candidate the
    // core never needs them to be symmetric.
    explain_sorted(&embedder, alignment, e1, e2, &sources, |_| &targets[..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation_embed::RelationEmbeddings;
    use ea_data::datasets::{load, DatasetName, DatasetScale};
    use ea_graph::paths::enumerate_paths;
    use ea_graph::KgSide;
    use ea_models::{build_model, ModelKind, TrainConfig};

    fn setup() -> (
        ea_graph::KgPair,
        TrainedAlignment,
        AlignmentSet,
        RelationEmbeddings,
        RelationEmbeddings,
    ) {
        let pair = load(DatasetName::ZhEn, DatasetScale::Small);
        let trained = build_model(ModelKind::GcnAlign, TrainConfig::fast()).train(&pair);
        let mut alignment = trained.predict(&pair);
        alignment.extend_from(&pair.seed);
        let rel_s = RelationEmbeddings::for_side(&trained, &pair.source, KgSide::Source);
        let rel_t = RelationEmbeddings::for_side(&trained, &pair.target, KgSide::Target);
        (pair, trained, alignment, rel_s, rel_t)
    }

    fn explain_one(
        pair: &ea_graph::KgPair,
        trained: &TrainedAlignment,
        alignment: &AlignmentSet,
        rel_s: &RelationEmbeddings,
        rel_t: &RelationEmbeddings,
        e1: EntityId,
        e2: EntityId,
    ) -> Explanation {
        let p1 = enumerate_paths(&pair.source, e1, 1);
        let p2 = enumerate_paths(&pair.target, e2, 1);
        generate_explanation(trained, alignment, e1, e2, &p1, &p2, rel_s, rel_t)
    }

    #[test]
    fn correct_pairs_get_nonempty_explanations_mostly() {
        let (pair, trained, alignment, rel_s, rel_t) = setup();
        let mut non_empty = 0usize;
        let mut total = 0usize;
        for p in pair.reference.iter().take(50) {
            let exp = explain_one(
                &pair, &trained, &alignment, &rel_s, &rel_t, p.source, p.target,
            );
            total += 1;
            if !exp.is_empty() {
                non_empty += 1;
            }
        }
        assert!(
            non_empty * 2 > total,
            "most correct pairs should have matching structure ({non_empty}/{total})"
        );
    }

    #[test]
    fn explanation_triples_come_from_the_right_graphs() {
        let (pair, trained, alignment, rel_s, rel_t) = setup();
        let p = pair.reference.iter().next().unwrap();
        let exp = explain_one(
            &pair, &trained, &alignment, &rel_s, &rel_t, p.source, p.target,
        );
        for t in exp.source_triples.triples() {
            assert!(pair.source.contains_triple(&t));
        }
        for t in exp.target_triples.triples() {
            assert!(pair.target.contains_triple(&t));
        }
    }

    #[test]
    fn matched_paths_start_at_the_central_entities() {
        let (pair, trained, alignment, rel_s, rel_t) = setup();
        for p in pair.reference.iter().take(20) {
            let exp = explain_one(
                &pair, &trained, &alignment, &rel_s, &rel_t, p.source, p.target,
            );
            for m in &exp.matched_paths {
                assert_eq!(m.source.start, p.source);
                assert_eq!(m.target.start, p.target);
                // Matched endpoints must be aligned in the current state.
                assert_eq!(alignment.target_of(m.source.end()), Some(m.target.end()));
            }
        }
    }

    #[test]
    fn sparsity_is_in_unit_interval() {
        let (pair, trained, alignment, rel_s, rel_t) = setup();
        for p in pair.reference.iter().take(20) {
            let exp = explain_one(
                &pair, &trained, &alignment, &rel_s, &rel_t, p.source, p.target,
            );
            let candidates = pair.source.triples_within_hops(p.source, 1).len()
                + pair.target.triples_within_hops(p.target, 1).len();
            let s = exp.sparsity(candidates);
            assert!((0.0..=1.0).contains(&s), "sparsity {s} out of range");
        }
        let empty = Explanation::empty(EntityId(0), EntityId(0));
        assert_eq!(empty.sparsity(0), 1.0);
        assert!(empty.is_empty());
        assert_eq!(empty.num_triples(), 0);
    }

    #[test]
    fn render_mentions_entity_names() {
        let (pair, trained, alignment, rel_s, rel_t) = setup();
        let p = pair.reference.iter().next().unwrap();
        let exp = explain_one(
            &pair, &trained, &alignment, &rel_s, &rel_t, p.source, p.target,
        );
        let rendered = exp.render(&pair);
        assert!(rendered.contains("explanation for"));
        assert!(rendered.contains(pair.source.entity_name(p.source).unwrap()));
    }

    #[test]
    fn unaligned_neighbors_produce_empty_explanation() {
        let (pair, trained, _alignment, rel_s, rel_t) = setup();
        // With an empty alignment state nothing can match.
        let empty_alignment = AlignmentSet::new();
        let p = pair.reference.iter().next().unwrap();
        let exp = explain_one(
            &pair,
            &trained,
            &empty_alignment,
            &rel_s,
            &rel_t,
            p.source,
            p.target,
        );
        assert!(exp.is_empty());
    }
}
