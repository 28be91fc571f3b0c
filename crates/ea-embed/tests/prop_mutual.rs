//! Property suite pinning the fused exact mutual top-1 pass
//! ([`MutualTop1::compute`], the `Exact` arm of
//! [`CandidateSearch::mutual_top1`]) to the dense [`SimilarityMatrix`]
//! reference: each source's best target is the argmax of its dense row and
//! each target's best source the argmax of its dense column, ids and score
//! bits alike, ties going to the lowest index, for any tile sizes.
//!
//! The random tables carry the cases that stress the running bests:
//! duplicated rows (exact score ties on both axes), zero-norm rows (score 0),
//! a NaN row (normalised to all-zero, so it scores 0 like a zero-norm row)
//! and a row with an infinite entry (normalised to a NaN, so every score it
//! takes part in is NaN, which ranks below every real score). Side sizes
//! cover 0, 1 and values that are not a multiple of `kernel::GROUP` or of the
//! tile sizes.

use ea_embed::{
    kernel, order, CandidateSearch, EmbeddingTable, IvfParams, MutualTop1, SimilarityMatrix,
    Sq8Params,
};
use ea_graph::EntityId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;

fn ids(n: usize) -> Vec<EntityId> {
    (0..n as u32).map(EntityId).collect()
}

/// A random `rows × dim` table in which, driven by `seed`, some rows are
/// copies of earlier rows, some are all-zero, one may be all-NaN and one
/// may hold an infinite entry. `clean` keeps it a plain Xavier table.
fn table(seed: u64, rows: usize, dim: usize, clean: bool) -> EmbeddingTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = EmbeddingTable::xavier(rows, dim, &mut rng);
    if clean || rows == 0 {
        return t;
    }
    for r in 0..rows {
        match rng.gen_range(0..10) {
            0..=1 if r > 0 => {
                let src = t.row(rng.gen_range(0..r)).to_vec();
                t.row_mut(r).copy_from_slice(&src);
            }
            2 => t.row_mut(r).fill(0.0),
            _ => {}
        }
    }
    if rng.gen_bool(0.5) {
        let r = rng.gen_range(0..rows);
        t.row_mut(r).fill(f32::NAN);
    }
    if rng.gen_bool(0.5) {
        let r = rng.gen_range(0..rows);
        let e = rng.gen_range(0..dim);
        t.row_mut(r)[e] = f32::INFINITY;
    }
    t
}

/// The first position of the best score among `scores` under
/// `(score desc, position asc)`: the dense argmax with ties to the lowest
/// index and NaN below every real score.
fn argmax(scores: impl Iterator<Item = f32>) -> Option<(usize, f32)> {
    let mut best: Option<(usize, f32)> = None;
    for (i, s) in scores.enumerate() {
        match best {
            Some((_, b)) if order::desc_f32(s, b) != Ordering::Less => {}
            _ => best = Some((i, s)),
        }
    }
    best
}

/// Asserts `mutual` holds exactly the dense row and column argmaxes.
fn assert_matches_dense(m: &SimilarityMatrix, mutual: &MutualTop1, what: &str) {
    let (n_s, n_t) = (m.source_ids().len(), m.target_ids().len());
    let bits = |b: Option<(usize, f32)>| b.map(|(i, s)| (i, s.to_bits()));
    for i in 0..n_s {
        let dense = argmax((0..n_t).map(|j| m.value(i, j)));
        assert_eq!(
            bits(mutual.best_target(i)),
            bits(dense),
            "{what}: source {i} best target"
        );
    }
    for j in 0..n_t {
        let dense = argmax((0..n_s).map(|i| m.value(i, j)));
        assert_eq!(
            bits(mutual.best_source(j)),
            bits(dense),
            "{what}: target {j} best source"
        );
    }
    assert_eq!(mutual.best_target(n_s), None, "{what}: past the sources");
    assert_eq!(mutual.best_source(n_t), None, "{what}: past the targets");
    assert_eq!(
        mutual.dots(),
        (n_s * n_t) as u64,
        "{what}: one dot per pair"
    );
}

fn check(seed: u64, n_s: usize, n_t: usize, dim: usize, tiles: (usize, usize)) {
    let s = table(seed, n_s, dim, false);
    let t = table(seed ^ 0x9e37, n_t, dim, false);
    let (sids, tids) = (ids(n_s), ids(n_t));
    let m = SimilarityMatrix::compute(&s, &sids, &t, &tids);
    let fused = CandidateSearch::Exact.mutual_top1(&s, &sids, &t, &tids);
    assert_matches_dense(&m, &fused, "default tiles");
    let tiled = MutualTop1::compute_with_tiles(&s, &sids, &t, &tids, tiles.0, tiles.1);
    assert_matches_dense(&m, &tiled, "explicit tiles");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fused pass equals the dense argmaxes for any shapes and tiles.
    #[test]
    fn fused_pass_matches_dense_argmax(
        seed in 0u64..10_000,
        n_s in 0usize..40,
        n_t in 0usize..40,
        dim in 1usize..11,
        row_tile in 1usize..10,
        col_tile in 1usize..20,
    ) {
        check(seed, n_s, n_t, dim, (row_tile, col_tile));
    }

    /// The approximate engines' top-1 heads equal the fused exact pass when
    /// they scan everything (NaN-free tables; they cover each pair twice).
    #[test]
    fn exhaustive_approximate_heads_match_fused(
        seed in 0u64..10_000,
        n_s in 1usize..30,
        n_t in 1usize..30,
    ) {
        let s = table(seed, n_s, 6, true);
        let t = table(seed ^ 0x51, n_t, 6, true);
        let (sids, tids) = (ids(n_s), ids(n_t));
        let exact = MutualTop1::compute(&s, &sids, &t, &tids);
        let bits = |b: Option<(usize, f32)>| b.map(|(i, s)| (i, s.to_bits()));
        for search in [
            CandidateSearch::Ivf(IvfParams::exhaustive()),
            CandidateSearch::Sq8(Sq8Params::exhaustive()),
        ] {
            let approx = search.mutual_top1(&s, &sids, &t, &tids);
            for i in 0..n_s {
                prop_assert_eq!(bits(approx.best_target(i)), bits(exact.best_target(i)));
            }
            for j in 0..n_t {
                prop_assert_eq!(bits(approx.best_source(j)), bits(exact.best_source(j)));
            }
            prop_assert_eq!(approx.dots(), 2 * (n_s * n_t) as u64);
        }
    }
}

/// Side sizes at and around the group and default tile boundaries, with
/// tiles that do not divide them.
#[test]
fn boundary_sizes_match_dense_argmax() {
    let sizes = [0, 1, kernel::GROUP - 1, kernel::GROUP + 1, 129, 257];
    for (a, &n_s) in sizes.iter().enumerate() {
        for (b, &n_t) in sizes.iter().enumerate() {
            check((a * 7 + b) as u64, n_s, n_t, 5, (3, 7));
        }
    }
}

/// All-tied tables: every score equal, so every best is position 0.
#[test]
fn full_ties_resolve_to_lowest_index() {
    let mut s = EmbeddingTable::zeros(11, 3);
    let mut t = EmbeddingTable::zeros(13, 3);
    for r in 0..11 {
        s.row_mut(r).copy_from_slice(&[1.0, 2.0, 2.0]);
    }
    for r in 0..13 {
        t.row_mut(r).copy_from_slice(&[2.0, 4.0, 4.0]);
    }
    let mutual = MutualTop1::compute_with_tiles(&s, &ids(11), &t, &ids(13), 2, 3);
    for i in 0..11 {
        assert_eq!(mutual.best_target(i).map(|(j, _)| j), Some(0));
    }
    for j in 0..13 {
        assert_eq!(mutual.best_source(j).map(|(i, _)| i), Some(0));
    }
}

/// NaN scores rank below every real score, and an all-NaN row or column
/// falls back to its lowest position.
#[test]
fn nan_scores_rank_last() {
    let mut s = EmbeddingTable::zeros(3, 2);
    s.row_mut(0).copy_from_slice(&[f32::INFINITY, 0.0]); // NaN after normalising
    s.row_mut(1).copy_from_slice(&[1.0, 0.0]);
    s.row_mut(2).copy_from_slice(&[0.0, 1.0]);
    let mut t = EmbeddingTable::zeros(2, 2);
    t.row_mut(0).copy_from_slice(&[0.0, 1.0]);
    t.row_mut(1).copy_from_slice(&[1.0, 0.0]);
    let mutual = MutualTop1::compute(&s, &ids(3), &t, &ids(2));
    let (j, score) = mutual.best_target(0).unwrap();
    assert_eq!(j, 0);
    assert!(score.is_nan());
    assert_eq!(mutual.best_target(1).map(|(j, _)| j), Some(1));
    assert_eq!(mutual.best_source(0).map(|(i, _)| i), Some(2));
    assert_eq!(mutual.best_source(1).map(|(i, _)| i), Some(1));
}

/// Row blocks whose scores are all NaN must lose every column to a later
/// block's real scores when the per-block column bests are folded.
#[test]
fn all_nan_blocks_lose_the_fold() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut s = EmbeddingTable::xavier(9, 4, &mut rng);
    for r in 0..4 {
        s.row_mut(r)[r] = f32::INFINITY;
    }
    let t = EmbeddingTable::xavier(7, 4, &mut rng);
    let (sids, tids) = (ids(9), ids(7));
    let m = SimilarityMatrix::compute(&s, &sids, &t, &tids);
    let mutual = MutualTop1::compute_with_tiles(&s, &sids, &t, &tids, 2, 3);
    assert_matches_dense(&m, &mutual, "leading NaN blocks");
    for j in 0..7 {
        let (i, score) = mutual.best_source(j).unwrap();
        assert!(i >= 4 && !score.is_nan(), "target {j}: row {i}");
    }
}
