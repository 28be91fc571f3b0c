//! Property suite pinning the sharded scatter-gather engine to the
//! single-index engines.
//!
//! Two contracts:
//!
//! 1. **Full routing is bit-identical** — with every shard routed and
//!    exhaustive per-shard engines, [`ShardedIndex`] returns bit-identical
//!    `(global row, score bits)` lists to the exact single-index engine,
//!    for any shard count (shard-count invariance), both partitions, flat
//!    and SQ8 list storage.
//! 2. **Partial routing is subset-only** — routing fewer shards (or probing
//!    fewer lists per shard) may only *miss* candidates: rows always carry
//!    the full `min(k, n)` entries (shard-level minimum-fill), are
//!    duplicate-free, sorted under the canonical `(score desc, id asc)`
//!    order, and every returned score is the bit-exact dense score of that
//!    (query, row) pair.

use ea_embed::{
    EmbeddingTable, IvfIndex, IvfListStorage, IvfParams, ShardParams, ShardPartition, ShardedIndex,
    Sq8Params,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Raw tables normalised exactly once — the same single normalisation every
/// engine input gets, so scores are comparable to the bit.
fn normalized_pair(
    seed: u64,
    n_q: usize,
    n: usize,
    dim: usize,
) -> (EmbeddingTable, EmbeddingTable) {
    let mut rng = StdRng::seed_from_u64(seed);
    let q = EmbeddingTable::xavier(n_q, dim, &mut rng);
    let c = EmbeddingTable::xavier(n, dim, &mut rng);
    let all_q: Vec<usize> = (0..n_q).collect();
    let all_c: Vec<usize> = (0..n).collect();
    (q.gather_normalized(&all_q), c.gather_normalized(&all_c))
}

/// The exact reference ranking: the single-index engine at exhaustive
/// probing (bit-identical to the dense reference, pinned by
/// `prop_ann.rs`), with `k = n` so every row's full ranking is available.
fn full_ranking(queries: &EmbeddingTable, corpus: &EmbeddingTable) -> Vec<Vec<(u32, f32)>> {
    let index = IvfIndex::build(corpus, &IvfParams::exhaustive());
    index.search(queries, corpus, corpus.rows(), usize::MAX)
}

fn assert_bit_identical(a: &[Vec<(u32, f32)>], b: &[Vec<(u32, f32)>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: query count");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        let pa: Vec<(u32, u32)> = ra.iter().map(|&(r, s)| (r, s.to_bits())).collect();
        let pb: Vec<(u32, u32)> = rb.iter().map(|&(r, s)| (r, s.to_bits())).collect();
        assert_eq!(pa, pb, "{what}: query {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn full_routing_with_exhaustive_shards_is_bit_identical_for_any_shard_count(
        seed in 0u64..10_000,
        n_q in 1usize..16,
        n in 1usize..48,
        k in 1usize..8,
        nshards in 1usize..6,
        dim in 2usize..8,
        clustered in 0usize..2,
        sq8 in 0usize..2,
    ) {
        let (queries, corpus) = normalized_pair(seed, n_q, n, dim);
        let exact = IvfIndex::build(&corpus, &IvfParams::exhaustive())
            .search(&queries, &corpus, k, usize::MAX);
        let storage = if sq8 == 1 {
            IvfListStorage::Sq8(Sq8Params::exhaustive())
        } else {
            IvfListStorage::Flat
        };
        let params = ShardParams {
            nshards,
            partition: if clustered == 1 {
                ShardPartition::Clustered
            } else {
                ShardPartition::Contiguous
            },
            ivf: IvfParams { storage, ..IvfParams::exhaustive() },
            ..ShardParams::exhaustive()
        };
        let sharded = ShardedIndex::build(&corpus, &params);
        prop_assert_eq!(sharded.nshards(), params.resolved_nshards(n));
        let got = sharded.search(&queries, k);
        assert_bit_identical(&got, &exact, "exhaustive sharded vs exact");
        // Explicit full-width routing is the same thing.
        let routed = sharded.search_routed(&queries, k, sharded.nshards());
        assert_bit_identical(&routed, &exact, "search_routed at nshards");
    }

    #[test]
    fn partial_routing_is_subset_only_with_exact_scores(
        seed in 0u64..10_000,
        n_q in 1usize..12,
        n in 1usize..40,
        k in 1usize..8,
        nshards in 1usize..6,
        route in 1usize..6,
        nprobe in 1usize..6,
        dim in 2usize..8,
    ) {
        let (queries, corpus) = normalized_pair(seed, n_q, n, dim);
        let reference = full_ranking(&queries, &corpus);
        let params = ShardParams {
            nshards,
            route_shards: route,
            partition: ShardPartition::Clustered,
            ivf: IvfParams { nprobe, ..IvfParams::default() },
        };
        let sharded = ShardedIndex::build(&corpus, &params);
        let got = sharded.search_routed(&queries, k, route);
        let cap = k.min(n);
        for (i, row) in got.iter().enumerate() {
            // Shard-level minimum-fill: always the full list.
            prop_assert_eq!(row.len(), cap, "query {}", i);
            let mut seen = std::collections::HashSet::new();
            for (rank, &(r, s)) in row.iter().enumerate() {
                prop_assert!(seen.insert(r), "query {} duplicates row {}", i, r);
                // Bit-exact score of that (query, row) pair in the dense
                // full ranking: approximation is subset-only, never
                // re-scoring.
                let dense = reference[i]
                    .iter()
                    .find(|&&(rr, _)| rr == r)
                    .expect("row exists");
                prop_assert_eq!(s.to_bits(), dense.1.to_bits(), "query {} rank {}", i, rank);
                // Canonical order.
                if rank > 0 {
                    let prev = row[rank - 1];
                    prop_assert!(
                        prev.1 > s || (prev.1 == s && prev.0 < r),
                        "query {} not sorted at rank {}",
                        i,
                        rank
                    );
                }
            }
        }
    }
}
