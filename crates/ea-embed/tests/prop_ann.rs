//! Property suite pinning the IVF ANN pre-filter to the exact references.
//!
//! Three contracts:
//!
//! 1. **Exact subset** — every `(id, score)` entry an IVF search returns
//!    exists in the dense reference with a bit-identical score, rows always
//!    carry the full `min(k, n_t)` entries (minimum-fill probing), are
//!    duplicate-free and sorted under the canonical `(score desc, column
//!    asc)` order. The pre-filter may *miss* candidates, never re-score them;
//!    recall is measured against the dense top-k.
//! 2. **Exhaustive probing is exact** — at `nprobe >= nlist` the IVF path is
//!    bit-identical to the exact blocked engine, forward and reverse lists
//!    included, for any `nlist` and quantizer seed.
//! 3. **Quantizer determinism** — `IvfIndex::build` is a pure function of
//!    (corpus, params): rebuilds are identical to the bit and the inverted
//!    lists partition the corpus.

use ea_embed::{
    order, CandidateIndex, CandidateSearch, EmbeddingTable, IvfIndex, IvfParams, SimilarityMatrix,
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
    fn ann_entries_are_an_exact_subset_of_the_dense_reference(
        seed in 0u64..10_000,
        n_s in 1usize..20,
        n_t in 1usize..40,
        k in 1usize..8,
        nlist in 1usize..12,
        nprobe in 1usize..12,
        dim in 2usize..8,
    ) {
        let (s, t) = tables(seed, n_s, n_t, dim);
        let (sids, tids) = (ids(n_s), ids(n_t));
        let m = SimilarityMatrix::compute(&s, &sids, &t, &tids);
        let params = IvfParams { nlist, nprobe, ..IvfParams::default() };
        let index = CandidateSearch::Ivf(params).forward_index(&s, &sids, &t, &tids, k);

        let mut kept = 0usize;
        let mut total = 0usize;
        for (i, &sid) in sids.iter().enumerate() {
            let entries: Vec<(EntityId, f32)> = index.candidates(i).collect();
            // Minimum-fill: always the full row, no duplicates.
            prop_assert_eq!(entries.len(), k.min(n_t), "row {} not filled", i);
            let mut seen = std::collections::HashSet::new();
            for &(e, _) in &entries {
                prop_assert!(seen.insert(e), "row {} has duplicate candidate", i);
            }
            // Canonical order and bit-identical scores vs the dense cell.
            for w in entries.windows(2) {
                let a = (w[0].1, w[0].0);
                let b = (w[1].1, w[1].0);
                prop_assert!(
                    order::desc_f32(a.0, b.0).then(a.1.cmp(&b.1)).is_lt(),
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
            // Measured recall vs the dense top-k.
            let dense_top: std::collections::HashSet<EntityId> =
                m.top_k(sid, k).into_iter().map(|(e, _)| e).collect();
            kept += entries.iter().filter(|(e, _)| dense_top.contains(e)).count();
            total += dense_top.len();
        }
        let recall = kept as f64 / total.max(1) as f64;
        prop_assert!((0.0..=1.0).contains(&recall));
        if nprobe >= nlist {
            prop_assert!((recall - 1.0).abs() < 1e-12, "full probing must reach recall 1.0");
        }
    }

    #[test]
    fn exhaustive_ivf_is_bit_identical_to_the_exact_engine(
        seed in 0u64..10_000,
        quantizer_seed in 0u64..1_000,
        n_s in 1usize..18,
        n_t in 1usize..18,
        k in 1usize..6,
        nlist in 1usize..14,
        dim in 2usize..6,
    ) {
        let (s, t) = tables(seed, n_s, n_t, dim);
        let (sids, tids) = (ids(n_s), ids(n_t));
        let exact = CandidateIndex::compute_bidirectional(&s, &sids, &t, &tids, k);
        let params = IvfParams {
            nlist,
            nprobe: usize::MAX,
            seed: quantizer_seed,
            ..IvfParams::default()
        };
        let ivf = CandidateSearch::Ivf(params.clone()).bidirectional_index(&s, &sids, &t, &tids, k);

        prop_assert_eq!(exact.greedy_alignment().to_vec(), ivf.greedy_alignment().to_vec());
        for i in 0..n_s {
            let a: Vec<(EntityId, u32)> =
                exact.candidates(i).map(|(e, v)| (e, v.to_bits())).collect();
            let b: Vec<(EntityId, u32)> =
                ivf.candidates(i).map(|(e, v)| (e, v.to_bits())).collect();
            prop_assert_eq!(a, b, "forward row {} diverged", i);
        }
        // Reverse heads: the exact fused top-1 pass against exhaustive IVF's
        // `k = 1` bidirectional index.
        let exact_heads = CandidateSearch::Exact.mutual_top1(&s, &sids, &t, &tids);
        let ivf_heads = CandidateSearch::Ivf(params).mutual_top1(&s, &sids, &t, &tids);
        for j in 0..n_t {
            prop_assert_eq!(
                exact_heads.best_source(j).map(|(e, v)| (e, v.to_bits())),
                ivf_heads.best_source(j).map(|(e, v)| (e, v.to_bits())),
                "reverse head for target {} diverged", j
            );
        }
    }

    #[test]
    fn quantizer_is_deterministic_and_partitions_the_corpus(
        seed in 0u64..10_000,
        n in 1usize..60,
        nlist in 1usize..10,
        dim in 2usize..6,
    ) {
        let (corpus, _) = tables(seed, n, 1, dim);
        let all: Vec<usize> = (0..n).collect();
        let corpus = corpus.gather_normalized(&all);
        let params = IvfParams { nlist, ..IvfParams::default() };
        let a = IvfIndex::build(&corpus, &params);
        let b = IvfIndex::build(&corpus, &params);
        prop_assert_eq!(a.nlist(), b.nlist());
        let mut seen = vec![false; n];
        for c in 0..a.nlist() {
            prop_assert_eq!(a.list(c), b.list(c), "list {} diverged on rebuild", c);
            prop_assert_eq!(a.centroid(c), b.centroid(c), "centroid {} diverged", c);
            prop_assert!(a.list(c).windows(2).all(|w| w[0] < w[1]), "list {} not ascending", c);
            for &row in a.list(c) {
                prop_assert!(!seen[row as usize], "row {} filed twice", row);
                seen[row as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&x| x), "quantizer dropped corpus rows");
    }
}
