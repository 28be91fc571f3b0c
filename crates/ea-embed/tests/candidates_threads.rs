//! Determinism of the blocked candidate engine under a multi-thread rayon
//! pool: with `RAYON_NUM_THREADS=8` (the same forced-parallel regime the
//! core batch-determinism suite runs under) the engine must return exactly
//! the dense reference's candidate lists, greedy alignment and CSLS scores,
//! and the fused mutual top-1 pass exactly the dense row and column argmaxes.
//!
//! This lives in its own integration-test binary so the env var is set
//! before the rayon shim samples it — on a single-core host the default pool
//! would otherwise never actually split work.

use ea_embed::{order, CandidateIndex, EmbeddingTable, MutualTop1, SimilarityMatrix};
use ea_graph::EntityId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;

#[test]
fn eight_thread_pool_is_bit_identical_to_dense_reference() {
    // Must run before any rayon use in this process: the shim reads the
    // variable once.
    std::env::set_var("RAYON_NUM_THREADS", "8");

    for seed in 0..6u64 {
        let n_s = 150 + 17 * seed as usize;
        let n_t = 90 + 23 * seed as usize;
        let k = 5;
        let mut rng = StdRng::seed_from_u64(seed);
        let s = EmbeddingTable::xavier(n_s, 16, &mut rng);
        let t = EmbeddingTable::xavier(n_t, 16, &mut rng);
        let sids: Vec<EntityId> = (0..n_s as u32).map(EntityId).collect();
        let tids: Vec<EntityId> = (0..n_t as u32).map(EntityId).collect();

        let m = SimilarityMatrix::compute(&s, &sids, &t, &tids);
        // Small row tiles force many parallel blocks across the 8 workers.
        let index = CandidateIndex::compute_with_tiles(&s, &sids, &t, &tids, k, true, 16, 32);

        let mut dense_pairs = m.greedy_alignment().to_vec();
        let mut blocked_pairs = index.greedy_alignment().to_vec();
        dense_pairs.sort();
        blocked_pairs.sort();
        assert_eq!(dense_pairs, blocked_pairs, "greedy diverged (seed {seed})");

        for (i, &sid) in sids.iter().enumerate() {
            let dense_top = m.top_k(sid, k);
            let blocked_top: Vec<(EntityId, f32)> = index.candidates(i).collect();
            assert_eq!(dense_top.len(), blocked_top.len());
            for ((dt, ds), (bt, bs)) in dense_top.iter().zip(&blocked_top) {
                assert_eq!(dt, bt, "candidate id diverged (seed {seed}, row {i})");
                assert_eq!(
                    ds.to_bits(),
                    bs.to_bits(),
                    "score diverged (seed {seed}, row {i})"
                );
            }
        }

        // Two runs of the parallel engine agree with each other (scheduling
        // independence) ...
        let again = CandidateIndex::compute_with_tiles(&s, &sids, &t, &tids, k, true, 16, 32);
        for i in 0..n_s {
            let a: Vec<(EntityId, u32)> =
                index.candidates(i).map(|(t, s)| (t, s.to_bits())).collect();
            let b: Vec<(EntityId, u32)> =
                again.candidates(i).map(|(t, s)| (t, s.to_bits())).collect();
            assert_eq!(a, b, "parallel reruns diverged (seed {seed}, row {i})");
        }

        // ... and CSLS stays pinned to the dense cells under the pool.
        let mut m_csls = m.clone();
        let mut index_csls = index.clone();
        m_csls.apply_csls(3);
        index_csls.apply_csls(3);
        for (i, &sid) in sids.iter().enumerate() {
            for (tid, score) in index_csls.candidates(i) {
                let dense = m_csls.similarity(sid, tid).unwrap();
                assert_eq!(
                    score.to_bits(),
                    dense.to_bits(),
                    "CSLS diverged under 8 threads (seed {seed})"
                );
            }
        }
    }
}

/// The fused mutual top-1 pass under the 8-worker pool: many row blocks
/// whose per-column bests are folded in block order must give the dense
/// row and column argmaxes, ties included, on every rerun.
#[test]
fn eight_thread_pool_mutual_top1_matches_dense_argmax() {
    std::env::set_var("RAYON_NUM_THREADS", "8");

    let argmax = |scores: &mut dyn Iterator<Item = f32>| -> Option<(usize, u32)> {
        let mut best: Option<(usize, f32)> = None;
        for (i, s) in scores.enumerate() {
            match best {
                Some((_, b)) if order::desc_f32(s, b) != Ordering::Less => {}
                _ => best = Some((i, s)),
            }
        }
        best.map(|(i, s)| (i, s.to_bits()))
    };
    let bits = |b: Option<(usize, f32)>| b.map(|(i, s)| (i, s.to_bits()));
    for seed in 0..6u64 {
        let n_s = 150 + 17 * seed as usize;
        let n_t = 90 + 23 * seed as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = EmbeddingTable::xavier(n_s, 16, &mut rng);
        let t = EmbeddingTable::xavier(n_t, 16, &mut rng);
        // Duplicated source rows in different row blocks: their column
        // scores tie, and the fold must keep the earlier block's row.
        for r in (40..n_s).step_by(37) {
            let src = s.row(r % 23).to_vec();
            s.row_mut(r).copy_from_slice(&src);
        }
        let sids: Vec<EntityId> = (0..n_s as u32).map(EntityId).collect();
        let tids: Vec<EntityId> = (0..n_t as u32).map(EntityId).collect();

        let m = SimilarityMatrix::compute(&s, &sids, &t, &tids);
        let mutual = MutualTop1::compute_with_tiles(&s, &sids, &t, &tids, 16, 32);
        let again = MutualTop1::compute_with_tiles(&s, &sids, &t, &tids, 16, 32);
        for i in 0..n_s {
            let dense = argmax(&mut (0..n_t).map(|j| m.value(i, j)));
            assert_eq!(
                bits(mutual.best_target(i)),
                dense,
                "seed {seed}, source {i}"
            );
            assert_eq!(bits(again.best_target(i)), dense, "rerun, seed {seed}");
        }
        for j in 0..n_t {
            let dense = argmax(&mut (0..n_s).map(|i| m.value(i, j)));
            assert_eq!(
                bits(mutual.best_source(j)),
                dense,
                "seed {seed}, target {j}"
            );
            assert_eq!(bits(again.best_source(j)), dense, "rerun, seed {seed}");
        }
    }
}
