//! Thread-count determinism of the mapped (out-of-core) candidate store.
//!
//! With `RAYON_NUM_THREADS=8` (the forced-parallel regime the other
//! determinism suites run under) a mapped search must stay bit-identical to
//! the in-memory backend and bit-identical across repeated runs: the shared
//! `MappedStore` is scanned concurrently by every worker, and neither the
//! staging of gathered rows nor the order-preserving block merges may
//! depend on how queries land on workers. Lives in its own integration-test
//! binary so the env var is set before the rayon shim samples it.

use ea_embed::{
    CandidateSearch, EmbeddingTable, IvfIndex, IvfListStorage, IvfParams, LsmParams, MappedIndex,
    MappedOptions, ShardParams, Sq8Params, StoreBacking,
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
fn mapped_search_matches_in_memory_under_forced_parallelism() {
    std::env::set_var("RAYON_NUM_THREADS", "8");
    // Several row blocks (> the 128-query tile) so the pool genuinely
    // splits the work over the shared mapped store.
    let (q_table, corpus) = tables(51, 300, 400, 16);
    let all_q: Vec<usize> = (0..300).collect();
    let all_c: Vec<usize> = (0..400).collect();
    let queries = q_table.gather_normalized(&all_q);
    let corpus = corpus.gather_normalized(&all_c);

    let params = IvfParams {
        storage: IvfListStorage::Sq8(Sq8Params::default()),
        ..IvfParams::default()
    };
    let index = IvfIndex::build(&corpus, &params);
    let in_memory = index.search(&queries, &corpus, 7, 5);

    let path =
        std::env::temp_dir().join(format!("exea-storage-threads-{}.eacg", std::process::id()));
    index.save(&corpus, &path).expect("save");
    let mapped = MappedIndex::open(&path).expect("open");
    let sq8 = Sq8Params::default();
    let a = mapped.search_ivf(&queries, 7, 5, Some(&sq8));
    let b = mapped.search_ivf(&queries, 7, 5, Some(&sq8));
    drop(mapped);
    let _ = std::fs::remove_file(&path);

    for (q, (want, got)) in in_memory.iter().zip(&a).enumerate() {
        let want: Vec<(u32, u32)> = want.iter().map(|&(i, s)| (i, s.to_bits())).collect();
        let got: Vec<(u32, u32)> = got.iter().map(|&(i, s)| (i, s.to_bits())).collect();
        assert_eq!(want, got, "query {q} diverged from the in-memory backend");
    }
    assert_eq!(a, b, "mapped re-run diverged");
}

#[test]
fn mapped_backing_strategies_are_run_to_run_deterministic_under_forced_parallelism() {
    std::env::set_var("RAYON_NUM_THREADS", "8");
    let (s, t) = tables(53, 260, 340, 12);
    let (sids, tids) = (ids(260), ids(340));
    let ivf = IvfParams {
        storage: IvfListStorage::Sq8(Sq8Params::default()),
        ..IvfParams::default()
    };
    let sharded = ShardParams {
        nshards: 3,
        ivf: ivf.clone(),
        ..ShardParams::default()
    };
    let lsm = LsmParams {
        seal_rows: 64,
        ivf,
        ..LsmParams::default()
    };
    for prefer_mmap in [true, false] {
        let backing = StoreBacking::Mapped(MappedOptions {
            prefer_mmap,
            ..MappedOptions::default()
        });
        for (resident, search) in [
            (
                CandidateSearch::Sharded(sharded.clone()),
                CandidateSearch::Sharded(ShardParams {
                    backing: backing.clone(),
                    ..sharded.clone()
                }),
            ),
            (
                CandidateSearch::Lsm(lsm.clone()),
                CandidateSearch::Lsm(LsmParams {
                    backing: backing.clone(),
                    ..lsm.clone()
                }),
            ),
        ] {
            let a = search.bidirectional_index(&s, &sids, &t, &tids, 5);
            let b = search.bidirectional_index(&s, &sids, &t, &tids, 5);
            let c = resident.bidirectional_index(&s, &sids, &t, &tids, 5);
            for i in 0..sids.len() {
                let row = |x: &ea_embed::CandidateIndex| -> Vec<(EntityId, u32)> {
                    x.candidates(i).map(|(e, v)| (e, v.to_bits())).collect()
                };
                assert_eq!(
                    row(&a),
                    row(&b),
                    "{} re-run diverged on row {i}",
                    search.name()
                );
                assert_eq!(row(&a), row(&c), "{} vs resident on row {i}", search.name());
            }
            for &tid in &tids {
                let head = |x: &ea_embed::CandidateIndex| {
                    x.best_source_for_target(tid).map(|(e, v)| (e, v.to_bits()))
                };
                assert_eq!(
                    head(&a),
                    head(&b),
                    "{} reverse head diverged",
                    search.name()
                );
                assert_eq!(
                    head(&a),
                    head(&c),
                    "{} reverse head vs resident",
                    search.name()
                );
            }
        }
    }
}
