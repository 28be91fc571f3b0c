//! Property suite pinning the SQ8 quantized path to the exact references.
//!
//! Mirrors the IVF suite's contracts for the quantized engine:
//!
//! 1. **Round trip** — per-dimension affine quantization reconstructs every
//!    finite entry within half a quantization step.
//! 2. **Exact subset** — every `(id, score)` entry an SQ8 search returns
//!    exists in the dense reference with a bit-identical score; rows always
//!    carry the full `min(k, n)` entries, duplicate-free, in the canonical
//!    `(score desc, column asc)` order. The quantized scan may *miss*
//!    candidates, never re-score them.
//! 3. **Exhaustive re-ranking is exact** — `Sq8Params::exhaustive()` is
//!    bit-identical to the exact blocked engine, forward and reverse lists
//!    included; the same holds for IVF-SQ at exhaustive probing + re-rank.
//! 4. **Determinism** — quantization and search are pure functions of their
//!    inputs: rebuilds and re-runs are identical to the bit.

use ea_embed::{
    order, CandidateIndex, CandidateSearch, EmbeddingTable, IvfListStorage, IvfParams,
    QuantizedTable, SimilarityMatrix, Sq8Params,
};
use ea_graph::EntityId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tables(seed: u64, n_s: usize, n_t: usize, dim: usize) -> (EmbeddingTable, EmbeddingTable) {
    let mut rng = StdRng::seed_from_u64(seed);
    let s = EmbeddingTable::xavier(n_s, dim, &mut rng);
    let t = EmbeddingTable::xavier(n_t, dim, &mut rng);
    (s, t)
}

fn ids(n: usize) -> Vec<EntityId> {
    (0..n as u32).map(EntityId).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn quantization_round_trip_is_within_half_a_step(
        seed in 0u64..10_000,
        n in 1usize..40,
        dim in 1usize..16,
    ) {
        let (t, _) = tables(seed, n, 1, dim);
        let all: Vec<usize> = (0..n).collect();
        let norm = t.gather_normalized(&all);
        let qt = QuantizedTable::build(&norm);
        prop_assert_eq!(qt.rows(), n);
        prop_assert_eq!(qt.code_bytes(), n * dim, "codes must be 1 byte per entry");
        let mut decoded = vec![0.0f32; dim];
        for r in 0..n {
            qt.dequantize_row(r, &mut decoded);
            for (d, &dec) in decoded.iter().enumerate() {
                let original = norm.row(r)[d];
                let err = (dec - original).abs();
                // Unit rows have range <= 2, so a step is <= 2/255; half a
                // step plus float slop bounds the reconstruction error.
                prop_assert!(
                    err <= 1.0 / 255.0 + 1e-5,
                    "row {} dim {}: err {}", r, d, err
                );
            }
        }
        // Rebuild determinism.
        let again = QuantizedTable::build(&norm);
        for r in 0..n {
            prop_assert_eq!(qt.code_row(r), again.code_row(r), "rebuild changed row {}", r);
        }
    }

    #[test]
    fn sq8_entries_are_an_exact_subset_of_the_dense_reference(
        seed in 0u64..10_000,
        n_s in 1usize..20,
        n_t in 1usize..40,
        k in 1usize..8,
        rerank_factor in 1usize..6,
        dim in 2usize..8,
    ) {
        let (s, t) = tables(seed, n_s, n_t, dim);
        let (sids, tids) = (ids(n_s), ids(n_t));
        let m = SimilarityMatrix::compute(&s, &sids, &t, &tids);
        let search = CandidateSearch::Sq8(Sq8Params { rerank_factor });
        let index = search.forward_index(&s, &sids, &t, &tids, k);

        for (i, &sid) in sids.iter().enumerate() {
            let entries: Vec<(EntityId, f32)> = index.candidates(i).collect();
            prop_assert_eq!(entries.len(), k.min(n_t), "row {} not filled", i);
            let mut seen = std::collections::HashSet::new();
            for &(e, _) in &entries {
                prop_assert!(seen.insert(e), "row {} has duplicate candidate", i);
            }
            for w in entries.windows(2) {
                prop_assert!(
                    order::desc_f32(w[0].1, w[1].1).then(w[0].0.cmp(&w[1].0)).is_lt(),
                    "row {} not in canonical order", i
                );
            }
            for &(e, score) in &entries {
                let dense = m.similarity(sid, e).expect("candidate must be a real target");
                prop_assert_eq!(
                    score.to_bits(), dense.to_bits(),
                    "row {} candidate {:?} re-scored", i, e
                );
            }
        }
        // Re-running the search is deterministic to the bit.
        let again = search.forward_index(&s, &sids, &t, &tids, k);
        for i in 0..n_s {
            let a: Vec<(EntityId, u32)> =
                index.candidates(i).map(|(e, v)| (e, v.to_bits())).collect();
            let b: Vec<(EntityId, u32)> =
                again.candidates(i).map(|(e, v)| (e, v.to_bits())).collect();
            prop_assert_eq!(a, b, "re-run diverged on row {}", i);
        }
    }

    #[test]
    fn exhaustive_sq8_is_bit_identical_to_the_exact_engine(
        seed in 0u64..10_000,
        n_s in 1usize..18,
        n_t in 1usize..18,
        k in 1usize..6,
        dim in 2usize..6,
    ) {
        let (s, t) = tables(seed, n_s, n_t, dim);
        let (sids, tids) = (ids(n_s), ids(n_t));
        let exact = CandidateIndex::compute_bidirectional(&s, &sids, &t, &tids, k);
        let sq8 = CandidateSearch::Sq8(Sq8Params::exhaustive())
            .bidirectional_index(&s, &sids, &t, &tids, k);

        prop_assert_eq!(exact.greedy_alignment().to_vec(), sq8.greedy_alignment().to_vec());
        for i in 0..n_s {
            let a: Vec<(EntityId, u32)> =
                exact.candidates(i).map(|(e, v)| (e, v.to_bits())).collect();
            let b: Vec<(EntityId, u32)> =
                sq8.candidates(i).map(|(e, v)| (e, v.to_bits())).collect();
            prop_assert_eq!(a, b, "forward row {} diverged", i);
        }
        // Reverse heads: the exact fused top-1 pass against exhaustive
        // SQ8's `k = 1` bidirectional index.
        let exact_heads = CandidateSearch::Exact.mutual_top1(&s, &sids, &t, &tids);
        let sq8_heads = CandidateSearch::Sq8(Sq8Params::exhaustive()).mutual_top1(&s, &sids, &t, &tids);
        for j in 0..n_t {
            prop_assert_eq!(
                exact_heads.best_source(j).map(|(e, v)| (e, v.to_bits())),
                sq8_heads.best_source(j).map(|(e, v)| (e, v.to_bits())),
                "reverse head for target {} diverged", j
            );
        }
    }

    #[test]
    fn exhaustive_ivf_sq8_reproduces_the_exact_engine(
        seed in 0u64..10_000,
        quantizer_seed in 0u64..1_000,
        n_s in 1usize..16,
        n_t in 1usize..16,
        k in 1usize..6,
        nlist in 1usize..10,
        dim in 2usize..6,
    ) {
        let (s, t) = tables(seed, n_s, n_t, dim);
        let (sids, tids) = (ids(n_s), ids(n_t));
        let exact = CandidateIndex::compute(&s, &sids, &t, &tids, k);
        // Exhaustive probing *and* exhaustive re-ranking: every row is
        // gathered and exactly re-scored, so IVF-SQ must equal exact.
        let ivf_sq8 = CandidateSearch::Ivf(IvfParams {
            nlist,
            nprobe: usize::MAX,
            seed: quantizer_seed,
            storage: IvfListStorage::Sq8(Sq8Params::exhaustive()),
            ..IvfParams::default()
        })
        .forward_index(&s, &sids, &t, &tids, k);
        for i in 0..n_s {
            let a: Vec<(EntityId, u32)> =
                exact.candidates(i).map(|(e, v)| (e, v.to_bits())).collect();
            let b: Vec<(EntityId, u32)> =
                ivf_sq8.candidates(i).map(|(e, v)| (e, v.to_bits())).collect();
            prop_assert_eq!(a, b, "forward row {} diverged", i);
        }
    }

    #[test]
    fn partial_ivf_sq8_entries_are_an_exact_subset(
        seed in 0u64..10_000,
        n_s in 1usize..14,
        n_t in 1usize..30,
        k in 1usize..6,
        nlist in 1usize..8,
        nprobe in 1usize..8,
        rerank_factor in 1usize..5,
        dim in 2usize..6,
    ) {
        let (s, t) = tables(seed, n_s, n_t, dim);
        let (sids, tids) = (ids(n_s), ids(n_t));
        let m = SimilarityMatrix::compute(&s, &sids, &t, &tids);
        let index = CandidateSearch::Ivf(IvfParams {
            nlist,
            nprobe,
            storage: IvfListStorage::Sq8(Sq8Params { rerank_factor }),
            ..IvfParams::default()
        })
        .forward_index(&s, &sids, &t, &tids, k);
        for (i, &sid) in sids.iter().enumerate() {
            let entries: Vec<(EntityId, f32)> = index.candidates(i).collect();
            prop_assert_eq!(entries.len(), k.min(n_t), "row {} not filled", i);
            for &(e, score) in &entries {
                let dense = m.similarity(sid, e).expect("candidate must be a real target");
                prop_assert_eq!(score.to_bits(), dense.to_bits(), "row {} re-scored", i);
            }
        }
    }
}

/// Degenerate embeddings: a NaN row (infinite pre-normalisation embedding)
/// must rank last in SQ8 results exactly as it does in the exact engine.
#[test]
fn nan_rows_rank_last_under_sq8() {
    let mut s = EmbeddingTable::zeros(1, 2);
    s.row_mut(0).copy_from_slice(&[1.0, 0.0]);
    let mut t = EmbeddingTable::zeros(3, 2);
    t.row_mut(0).copy_from_slice(&[f32::INFINITY, 1.0]); // NaN after normalisation
    t.row_mut(1).copy_from_slice(&[1.0, 0.1]);
    t.row_mut(2).copy_from_slice(&[0.1, 1.0]);
    let sids = ids(1);
    let tids = ids(3);
    let index =
        CandidateSearch::Sq8(Sq8Params::exhaustive()).forward_index(&s, &sids, &t, &tids, 3);
    let entries: Vec<(EntityId, f32)> = index.candidates(0).collect();
    assert_eq!(entries.len(), 3);
    assert_eq!(entries[2].0, EntityId(0), "NaN target must rank last");
    assert!(entries[2].1.is_nan());
    assert!(!entries[0].1.is_nan() && !entries[1].1.is_nan());
}
