//! Thread-count determinism of the sharded scatter-gather engine.
//!
//! With `RAYON_NUM_THREADS=8` (the forced-parallel regime the other
//! determinism suites run under) the full shard pipeline — clustered
//! partitioning, per-shard engine builds, routing, scatter and gather-merge
//! — must stay bit-identical to the dense single-threaded reference at
//! exhaustive settings, and run-to-run deterministic at partial routing.
//! The dense reference never touches the rayon pool, so this is the
//! strongest cross-thread-count pin we can express in-process.
//!
//! Lives in its own integration-test binary so the env var is set before
//! the rayon shim samples it.

use ea_embed::{
    CandidateSearch, EmbeddingTable, ShardParams, ShardPartition, ShardedIndex, SimilarityMatrix,
};
use ea_graph::EntityId;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn eight_thread_exhaustive_sharded_matches_dense_reference() {
    // Must run before any rayon use in this process: the shim reads the
    // variable once.
    std::env::set_var("RAYON_NUM_THREADS", "8");

    for seed in 0..3u64 {
        let n_s = 110 + 17 * seed as usize;
        let n_t = 160 + 23 * seed as usize;
        let k = 5;
        let mut rng = StdRng::seed_from_u64(300 + seed);
        let s = EmbeddingTable::xavier(n_s, 14, &mut rng);
        let t = EmbeddingTable::xavier(n_t, 14, &mut rng);
        let sids: Vec<EntityId> = (0..n_s as u32).map(EntityId).collect();
        let tids: Vec<EntityId> = (0..n_t as u32).map(EntityId).collect();

        let m = SimilarityMatrix::compute(&s, &sids, &t, &tids);
        let search = CandidateSearch::Sharded(ShardParams {
            nshards: 4,
            ..ShardParams::exhaustive()
        });
        let index = search.bidirectional_index(&s, &sids, &t, &tids, k);

        for (i, &sid) in sids.iter().enumerate() {
            let dense_top = m.top_k(sid, k);
            let sharded_top: Vec<(EntityId, f32)> = index.candidates(i).collect();
            assert_eq!(dense_top.len(), sharded_top.len());
            for ((dt, ds), (bt, bs)) in dense_top.iter().zip(&sharded_top) {
                assert_eq!(dt, bt, "candidate diverged (seed {seed}, row {i})");
                assert_eq!(
                    ds.to_bits(),
                    bs.to_bits(),
                    "score diverged (seed {seed}, row {i})"
                );
            }
        }
        let mut dense_pairs = m.greedy_alignment().to_vec();
        let mut sharded_pairs = index.greedy_alignment().to_vec();
        dense_pairs.sort();
        sharded_pairs.sort();
        assert_eq!(dense_pairs, sharded_pairs, "greedy diverged (seed {seed})");
    }
}

#[test]
fn eight_thread_partial_routing_is_run_to_run_deterministic() {
    std::env::set_var("RAYON_NUM_THREADS", "8");

    let mut rng = StdRng::seed_from_u64(11);
    let raw_q = EmbeddingTable::xavier(180, 12, &mut rng);
    let raw_c = EmbeddingTable::xavier(320, 12, &mut rng);
    let all_q: Vec<usize> = (0..180).collect();
    let all_c: Vec<usize> = (0..320).collect();
    let queries = raw_q.gather_normalized(&all_q);
    let corpus = raw_c.gather_normalized(&all_c);

    let params = ShardParams {
        nshards: 5,
        route_shards: 2,
        partition: ShardPartition::Clustered,
        ..ShardParams::default()
    };
    // Same pool, same inputs: a second search *and* a full rebuild must
    // reproduce every id and score bit.
    let index = ShardedIndex::build(&corpus, &params);
    let a = index.search(&queries, 6);
    let b = index.search(&queries, 6);
    let rebuilt = ShardedIndex::build(&corpus, &params);
    let c = rebuilt.search(&queries, 6);
    for i in 0..queries.rows() {
        let pa: Vec<(u32, u32)> = a[i].iter().map(|&(r, s)| (r, s.to_bits())).collect();
        let pb: Vec<(u32, u32)> = b[i].iter().map(|&(r, s)| (r, s.to_bits())).collect();
        let pc: Vec<(u32, u32)> = c[i].iter().map(|&(r, s)| (r, s.to_bits())).collect();
        assert_eq!(pa, pb, "row {i} diverged between searches");
        assert_eq!(pa, pc, "row {i} diverged after rebuild");
    }
}
