//! Property suite pinning the sharded scatter-gather engine to the
//! single-container engines.
//!
//! Three contracts:
//!
//! 1. **Full routing is bit-identical** — with every shard routed and
//!    exhaustive per-shard engines, [`ShardedIndex`] returns bit-identical
//!    `(global row, score bits)` lists to the exact single-container engine,
//!    for any shard count (shard-count invariance), both partitions, flat
//!    and SQ8 list storage, in-memory and mapped backings.
//! 2. **Partial routing is subset-only** — routing fewer shards (or probing
//!    fewer lists per shard) may only *miss* candidates: rows always carry
//!    the full `min(k, n)` entries (shard-level minimum-fill), are
//!    duplicate-free, sorted under the canonical `(score desc, id asc)`
//!    order, and every returned score is the bit-exact dense score of that
//!    (query, row) pair.
//! 3. **Container parity** — [`ShardedIndex::open`] over independently
//!    saved per-shard containers answers bit-identically to
//!    [`ShardedIndex::build`] over the same rows, and open failures name
//!    the offending container file.

use ea_embed::{
    save_ivf_streaming, EmbeddingTable, IvfIndex, IvfListStorage, IvfParams, MappedOptions,
    OpenOptions, ShardParams, ShardPartition, ShardedIndex, Sq8Params, StorageError, StoreBacking,
    TableRows,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static UNIQUE: AtomicU64 = AtomicU64::new(0);

/// A collision-free container path under the system temp dir; removed on
/// drop even when an assertion fails.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        TempFile(std::env::temp_dir().join(format!(
            "exea-prop-shard-{}-{}-{tag}.eacg",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

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

/// The exact reference ranking: the single-container engine at exhaustive
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
    ) {
        let (queries, corpus) = normalized_pair(seed, n_q, n, dim);
        let exact = IvfIndex::build(&corpus, &IvfParams::exhaustive())
            .search(&queries, &corpus, k, usize::MAX);
        let params = ShardParams {
            nshards,
            partition: if clustered == 1 {
                ShardPartition::Clustered
            } else {
                ShardPartition::Contiguous
            },
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
            backing: StoreBacking::InMemory,
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

    #[test]
    fn mapped_and_sq8_shards_match_their_in_memory_build(
        seed in 0u64..10_000,
        n_q in 1usize..10,
        n in 1usize..32,
        k in 1usize..6,
        nshards in 1usize..4,
        route in 1usize..4,
        sq8 in 0usize..2,
        dim in 2usize..8,
    ) {
        let (queries, corpus) = normalized_pair(seed, n_q, n, dim);
        let storage = if sq8 == 1 {
            IvfListStorage::Sq8(Sq8Params::default())
        } else {
            IvfListStorage::Flat
        };
        let resident = ShardParams {
            nshards,
            route_shards: route,
            partition: ShardPartition::Clustered,
            ivf: IvfParams { storage: storage.clone(), ..IvfParams::default() },
            backing: StoreBacking::InMemory,
        };
        let mapped = ShardParams {
            backing: StoreBacking::Mapped(MappedOptions::default()),
            ..resident.clone()
        };
        let a = ShardedIndex::build(&corpus, &resident);
        let b = ShardedIndex::build(&corpus, &mapped);
        assert_bit_identical(
            &a.search(&queries, k),
            &b.search(&queries, k),
            "mapped shards vs resident shards",
        );
        // Memory reporting stays truthful across the backings.
        prop_assert_eq!(a.stored_bytes(), 0);
        prop_assert_eq!(a.backend(), "resident");
        prop_assert!(b.stored_bytes() > 0);
        prop_assert!(b.backend() == "mmap" || b.backend() == "pread");
        prop_assert!(a.resident_bytes() > b.resident_bytes());
    }
}

/// [`ShardedIndex::open`] over independently saved contiguous-shard
/// containers answers bit-identically to the equivalent
/// [`ShardedIndex::build`].
#[test]
fn opened_shard_containers_match_the_built_shard_set() {
    let (queries, corpus) = normalized_pair(99, 12, 50, 6);
    let n = corpus.rows();
    let nshards = 3;
    let params = ShardParams {
        nshards,
        partition: ShardPartition::Contiguous,
        backing: StoreBacking::Mapped(MappedOptions::default()),
        ..ShardParams::default()
    };
    let built = ShardedIndex::build(&corpus, &params);

    // Save each contiguous shard independently, as a deployment would.
    let per = n.div_ceil(nshards);
    let files: Vec<TempFile> = (0..nshards)
        .map(|s| {
            let file = TempFile::new(&format!("open-{s}"));
            let rows: Vec<usize> = (s * per..((s + 1) * per).min(n)).collect();
            let raw: Vec<f32> = rows
                .iter()
                .flat_map(|&r| corpus.row(r).iter().copied())
                .collect();
            let mut shard_table = EmbeddingTable::zeros(rows.len(), corpus.dim());
            for (i, chunk) in raw.chunks(corpus.dim()).enumerate() {
                shard_table.row_mut(i).copy_from_slice(chunk);
            }
            save_ivf_streaming(
                &TableRows::new(&shard_table),
                &IvfParams::default(),
                &file.0,
                0,
            )
            .expect("save shard container");
            file
        })
        .collect();

    let paths: Vec<&std::path::Path> = files.iter().map(|f| f.0.as_path()).collect();
    let opened =
        ShardedIndex::open(&paths, &OpenOptions::default(), &params).expect("open shard set");
    assert_eq!(opened.nshards(), nshards);
    assert_eq!(opened.rows(), n);
    for k in [1, 4, 9] {
        assert_bit_identical(
            &opened.search(&queries, k),
            &built.search(&queries, k),
            "opened vs built shard set",
        );
    }
}

/// Shard-set open failures name the offending container file, not just the
/// section inside it.
#[test]
fn shard_open_errors_name_the_offending_container() {
    let (_, corpus) = normalized_pair(7, 1, 20, 4);
    let good = TempFile::new("good");
    save_ivf_streaming(&TableRows::new(&corpus), &IvfParams::default(), &good.0, 0).expect("save");
    let bad = TempFile::new("bad");
    std::fs::write(&bad.0, vec![42u8; 128]).unwrap();

    let paths = [good.0.as_path(), bad.0.as_path()];
    let err = ShardedIndex::open(&paths, &OpenOptions::default(), &ShardParams::default())
        .expect_err("corrupt shard must fail");
    assert!(matches!(err.root(), StorageError::BadMagic));
    assert_eq!(err.path(), Some(bad.0.as_path()));
    assert!(
        err.to_string().contains(&bad.0.display().to_string()),
        "error must name the bad shard file: {err}"
    );
}
