//! Thread-count determinism of the SQ8 quantized search pipeline.
//!
//! With `RAYON_NUM_THREADS=8` (the forced-parallel regime the other
//! determinism suites run under) the blocked ADC scan + exact re-rank must
//! stay bit-identical to the dense single-threaded reference at exhaustive
//! re-ranking, and bit-identical across repeated runs at partial re-ranking
//! — the quantized selection and the order-preserving block merges may not
//! depend on how queries land on workers. Lives in its own integration-test
//! binary so the env var is set before the rayon shim samples it.

use ea_embed::{
    CandidateSearch, EmbeddingTable, IvfListStorage, IvfParams, SimilarityMatrix, Sq8Params,
};
use ea_graph::EntityId;
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

#[test]
fn exhaustive_sq8_matches_the_dense_reference_under_forced_parallelism() {
    std::env::set_var("RAYON_NUM_THREADS", "8");
    // Several row blocks (> SQ8_ROW_TILE queries) so the pool genuinely
    // splits the work.
    let (s, t) = tables(41, 300, 180, 24);
    let (sids, tids) = (ids(300), ids(180));
    let m = SimilarityMatrix::compute(&s, &sids, &t, &tids);
    let index =
        CandidateSearch::Sq8(Sq8Params::exhaustive()).bidirectional_index(&s, &sids, &t, &tids, 7);
    for (i, &sid) in sids.iter().enumerate() {
        let dense: Vec<(EntityId, u32)> = m
            .top_k(sid, 7)
            .into_iter()
            .map(|(e, v)| (e, v.to_bits()))
            .collect();
        let got: Vec<(EntityId, u32)> =
            index.candidates(i).map(|(e, v)| (e, v.to_bits())).collect();
        assert_eq!(dense, got, "row {i} diverged from the dense reference");
    }
}

#[test]
fn partial_sq8_is_run_to_run_deterministic_under_forced_parallelism() {
    std::env::set_var("RAYON_NUM_THREADS", "8");
    let (s, t) = tables(43, 260, 400, 16);
    let (sids, tids) = (ids(260), ids(400));
    for search in [
        CandidateSearch::Sq8(Sq8Params::default()),
        CandidateSearch::Ivf(IvfParams {
            storage: IvfListStorage::Sq8(Sq8Params::default()),
            ..IvfParams::default()
        }),
    ] {
        let a = search.bidirectional_index(&s, &sids, &t, &tids, 5);
        let b = search.bidirectional_index(&s, &sids, &t, &tids, 5);
        for i in 0..sids.len() {
            let ra: Vec<(EntityId, u32)> = a.candidates(i).map(|(e, v)| (e, v.to_bits())).collect();
            let rb: Vec<(EntityId, u32)> = b.candidates(i).map(|(e, v)| (e, v.to_bits())).collect();
            assert_eq!(ra, rb, "{} re-run diverged on row {i}", search.name());
        }
        let (a, b) = (
            search.mutual_top1(&s, &sids, &t, &tids),
            search.mutual_top1(&s, &sids, &t, &tids),
        );
        for j in 0..tids.len() {
            assert_eq!(
                a.best_source(j).map(|(e, v)| (e, v.to_bits())),
                b.best_source(j).map(|(e, v)| (e, v.to_bits())),
                "{} reverse head diverged",
                search.name()
            );
        }
    }
}
