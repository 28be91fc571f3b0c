//! Property suite pinning the on-disk candidate store to the in-memory
//! engines.
//!
//! Three contracts:
//!
//! 1. **Backend bit-identity** — build in memory → save → load (mmap *and*
//!    forced-pread backends) → search returns bit-identical `(id, score
//!    bits)` lists to the in-memory backend, for IVF-flat, IVF-SQ and the
//!    whole-corpus SQ8 scan, at every probe/re-rank setting tried. The
//!    config-level spill path ([`StoreBacking::Mapped`] segments of the
//!    sharded and LSM [`CandidateSearch`] engines, mmap and pread) is pinned
//!    the same way end to end, reverse lists included.
//! 2. **Corruption rejection** — truncating the container at any point, or
//!    flipping any byte of it, makes `MappedIndex::open` return a typed
//!    [`StorageError`] (never a panic, never a silently-wrong index).
//! 3. **Validated assembly** — `IvfIndex::from_parts` /
//!    `QuantizedTable::from_parts` reject shape and CSR-invariant
//!    violations with errors naming the offending section.

use ea_embed::{
    CandidateSearch, EmbeddingTable, IvfIndex, IvfListStorage, IvfParams, LsmParams, MappedIndex,
    MappedOptions, OpenOptions, QuantizedTable, ShardParams, Sq8Params, StorageError, StoreBacking,
};
use ea_graph::EntityId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static UNIQUE: AtomicU64 = AtomicU64::new(0);

/// A collision-free container path under the system temp dir; removed by
/// [`TempFile::drop`] even when an assertion fails.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        TempFile(std::env::temp_dir().join(format!(
            "exea-prop-storage-{}-{}-{tag}.eacg",
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

fn normalized(seed: u64, rows: usize, dim: usize) -> EmbeddingTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = EmbeddingTable::xavier(rows, dim, &mut rng);
    let all: Vec<usize> = (0..rows).collect();
    t.gather_normalized(&all)
}

fn ids(n: usize) -> Vec<EntityId> {
    (0..n as u32).map(EntityId).collect()
}

/// Both read backends: the mmap'd view and forced buffered positional reads.
fn backends() -> [OpenOptions; 2] {
    [
        OpenOptions::default(),
        OpenOptions {
            prefer_mmap: false,
            verify: true,
        },
    ]
}

fn assert_rows_bit_identical(want: &[Vec<(u32, f32)>], got: &[Vec<(u32, f32)>], label: &str) {
    assert_eq!(want.len(), got.len(), "{label}: query count diverged");
    for (q, (w, g)) in want.iter().zip(got).enumerate() {
        let w: Vec<(u32, u32)> = w.iter().map(|&(i, s)| (i, s.to_bits())).collect();
        let g: Vec<(u32, u32)> = g.iter().map(|&(i, s)| (i, s.to_bits())).collect();
        assert_eq!(w, g, "{label}: query {q} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mapped_ivf_search_is_bit_identical_to_in_memory(
        seed in 0u64..10_000,
        n_q in 1usize..12,
        n in 1usize..50,
        k in 1usize..8,
        nlist in 1usize..10,
        nprobe in 1usize..10,
        dim in 2usize..8,
        use_sq8 in proptest::bool::ANY,
    ) {
        let corpus = normalized(seed, n, dim);
        let queries = normalized(seed.wrapping_add(1), n_q, dim);
        let params = IvfParams {
            nlist,
            storage: if use_sq8 {
                IvfListStorage::Sq8(Sq8Params::default())
            } else {
                IvfListStorage::Flat
            },
            ..IvfParams::default()
        };
        let index = IvfIndex::build(&corpus, &params);
        let in_memory = index.search(&queries, &corpus, k, nprobe);

        let file = TempFile::new("ivf");
        index.save(&corpus, &file.0).expect("save must succeed");
        let sq8 = use_sq8.then(Sq8Params::default);
        for options in backends() {
            let mapped = MappedIndex::open_with(&file.0, &options).expect("open must succeed");
            prop_assert_eq!(mapped.rows(), n);
            prop_assert_eq!(mapped.dim(), dim);
            prop_assert!(mapped.has_ivf());
            prop_assert_eq!(mapped.has_codes(), use_sq8);
            // The panels must not be resident: only centroids + CSR + grid.
            prop_assert!(mapped.resident_bytes() < n * dim * 4 + n * dim + 4096);
            let got = mapped.search_ivf(&queries, k, nprobe, sq8.as_ref());
            assert_rows_bit_identical(&in_memory, &got, mapped.backend());
        }
    }

    #[test]
    fn mapped_sq8_search_is_bit_identical_to_in_memory(
        seed in 0u64..10_000,
        n_q in 1usize..12,
        n in 1usize..50,
        k in 1usize..8,
        rerank_factor in 1usize..6,
        dim in 2usize..8,
    ) {
        let corpus = normalized(seed, n, dim);
        let queries = normalized(seed.wrapping_add(1), n_q, dim);
        let quantized = QuantizedTable::build(&corpus);
        let params = Sq8Params { rerank_factor };
        let in_memory = quantized.search(&queries, &corpus, k, &params);

        let file = TempFile::new("sq8");
        quantized.save(&corpus, &file.0).expect("save must succeed");
        for options in backends() {
            let mapped = MappedIndex::open_with(&file.0, &options).expect("open must succeed");
            prop_assert!(!mapped.has_ivf());
            prop_assert!(mapped.has_codes());
            let got = mapped.search_sq8(&queries, k, &params);
            assert_rows_bit_identical(&in_memory, &got, mapped.backend());
        }
    }

    #[test]
    fn mapped_backing_strategies_match_in_memory_end_to_end(
        seed in 0u64..10_000,
        n_s in 1usize..14,
        n_t in 1usize..20,
        k in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = EmbeddingTable::xavier(n_s, 6, &mut rng);
        let t = EmbeddingTable::xavier(n_t, 6, &mut rng);
        let (sids, tids) = (ids(n_s), ids(n_t));
        // Every mapped strategy in every case: {sharded, LSM} × {flat, SQ8
        // lists} × {mmap, pread}, each against its resident twin.
        for (sq8, prefer_mmap) in [(false, true), (false, false), (true, true), (true, false)] {
            let ivf = IvfParams {
                storage: if sq8 {
                    IvfListStorage::Sq8(Sq8Params::default())
                } else {
                    IvfListStorage::Flat
                },
                ..IvfParams::default()
            };
            let backing = StoreBacking::Mapped(MappedOptions {
                prefer_mmap,
                ..MappedOptions::default()
            });
            let sharded = ShardParams { nshards: 3, ivf: ivf.clone(), ..ShardParams::default() };
            // A seal budget below the corpus makes several mapped segments.
            let lsm = LsmParams { seal_rows: 4, ivf, ..LsmParams::default() };
            for (resident, mapped) in [
                (
                    CandidateSearch::Sharded(sharded.clone()),
                    CandidateSearch::Sharded(ShardParams { backing: backing.clone(), ..sharded }),
                ),
                (
                    CandidateSearch::Lsm(lsm.clone()),
                    CandidateSearch::Lsm(LsmParams { backing, ..lsm }),
                ),
            ] {
                let a = resident.bidirectional_index(&s, &sids, &t, &tids, k);
                let b = mapped.bidirectional_index(&s, &sids, &t, &tids, k);
                for i in 0..n_s {
                    let ra: Vec<(EntityId, u32)> =
                        a.candidates(i).map(|(e, v)| (e, v.to_bits())).collect();
                    let rb: Vec<(EntityId, u32)> =
                        b.candidates(i).map(|(e, v)| (e, v.to_bits())).collect();
                    prop_assert_eq!(ra, rb, "{}: forward row {} diverged", mapped.name(), i);
                }
                for &tid in &tids {
                    prop_assert_eq!(
                        a.best_source_for_target(tid).map(|(e, v)| (e, v.to_bits())),
                        b.best_source_for_target(tid).map(|(e, v)| (e, v.to_bits())),
                        "{}: reverse head for {:?} diverged", mapped.name(), tid
                    );
                }
                prop_assert_eq!(
                    a.greedy_alignment().to_vec(),
                    b.greedy_alignment().to_vec(),
                    "{}: greedy alignment diverged", mapped.name()
                );
            }
        }
    }

    #[test]
    fn truncated_containers_are_rejected(
        seed in 0u64..10_000,
        n in 1usize..30,
        cut in 0usize..64,
    ) {
        let corpus = normalized(seed, n, 5);
        let index = IvfIndex::build(
            &corpus,
            &IvfParams {
                storage: IvfListStorage::Sq8(Sq8Params::default()),
                ..IvfParams::default()
            },
        );
        let file = TempFile::new("trunc");
        index.save(&corpus, &file.0).expect("save must succeed");
        let full = std::fs::read(&file.0).expect("read back");
        // Sweep truncation points across the whole file, denser near the
        // ends where header/footer live.
        let len = (full.len() * cut) / 64;
        std::fs::write(&file.0, &full[..len]).expect("write truncated");
        for options in backends() {
            match MappedIndex::open_with(&file.0, &options) {
                Err(_) => {}
                Ok(_) => prop_assert!(
                    false,
                    "truncation to {} of {} bytes must be rejected", len, full.len()
                ),
            }
        }
        // The untouched file still opens.
        std::fs::write(&file.0, &full).expect("restore");
        prop_assert!(MappedIndex::open(&file.0).is_ok());
    }

    #[test]
    fn corrupted_bytes_are_rejected(
        seed in 0u64..10_000,
        n in 1usize..30,
        position in 0usize..97,
    ) {
        let corpus = normalized(seed, n, 5);
        let quantized = QuantizedTable::build(&corpus);
        let file = TempFile::new("flip");
        quantized.save(&corpus, &file.0).expect("save must succeed");
        let mut bytes = std::fs::read(&file.0).expect("read back");
        let at = (bytes.len() - 1) * position / 96;
        bytes[at] ^= 0x40;
        std::fs::write(&file.0, &bytes).expect("write corrupted");
        for options in backends() {
            match MappedIndex::open_with(&file.0, &options) {
                Err(_) => {}
                Ok(_) => prop_assert!(false, "flipped byte {} must be rejected", at),
            }
        }
    }
}

#[test]
fn from_parts_validation_names_the_offending_section() {
    // IVF: offsets that do not ascend from 0 to the row count.
    let centroids = EmbeddingTable::zeros(2, 3);
    let bad = IvfIndex::from_parts(centroids.clone(), vec![0, 3, 2], vec![0, 1, 2], 3);
    match bad {
        Err(StorageError::Corrupt { section, .. }) => assert_eq!(section, "list offsets"),
        other => panic!("expected corrupt list offsets, got {other:?}"),
    }
    // IVF: wrong offset count for the centroid count.
    let bad = IvfIndex::from_parts(centroids.clone(), vec![0, 3], vec![0, 1, 2], 3);
    match bad {
        Err(StorageError::ShapeMismatch { section, .. }) => assert_eq!(section, "list offsets"),
        other => panic!("expected list-offsets shape mismatch, got {other:?}"),
    }
    // IVF: a corpus row filed twice (and another missing).
    let bad = IvfIndex::from_parts(centroids.clone(), vec![0, 2, 3], vec![0, 0, 2], 3);
    match bad {
        Err(StorageError::Corrupt { section, detail }) => {
            assert_eq!(section, "list rows");
            assert!(detail.contains("twice"), "{detail}");
        }
        other => panic!("expected corrupt list rows, got {other:?}"),
    }
    // IVF: row index out of bounds.
    let bad = IvfIndex::from_parts(centroids.clone(), vec![0, 2, 3], vec![0, 1, 9], 3);
    assert!(matches!(
        bad,
        Err(StorageError::Corrupt {
            section: "list rows",
            ..
        })
    ));
    // IVF: row count disagreeing with the corpus.
    let bad = IvfIndex::from_parts(centroids, vec![0, 1, 2], vec![0, 1], 5);
    assert!(matches!(
        bad,
        Err(StorageError::ShapeMismatch {
            section: "list rows",
            ..
        })
    ));
    // A valid assembly round-trips.
    let ok = IvfIndex::from_parts(EmbeddingTable::zeros(2, 3), vec![0, 2, 3], vec![0, 2, 1], 3)
        .expect("valid parts must assemble");
    assert_eq!(ok.nlist(), 2);
    assert_eq!(ok.list(0), &[0, 2]);

    // SQ8: code panel shorter than rows × dim.
    let bad = QuantizedTable::from_parts(4, 3, vec![0; 11], vec![0.0; 3], vec![0.0; 3]);
    assert!(matches!(
        bad,
        Err(StorageError::ShapeMismatch {
            section: "sq8 codes",
            ..
        })
    ));
    // SQ8: grid arms disagreeing with the dimension.
    let bad = QuantizedTable::from_parts(4, 3, vec![0; 12], vec![0.0; 2], vec![0.0; 3]);
    assert!(matches!(
        bad,
        Err(StorageError::ShapeMismatch {
            section: "sq8 grid",
            ..
        })
    ));
    let ok = QuantizedTable::from_parts(4, 3, vec![0; 12], vec![0.0; 3], vec![0.0; 3])
        .expect("valid parts must assemble");
    assert_eq!((ok.rows(), ok.dim()), (4, 3));
}

#[test]
fn missing_sections_are_reported_by_name() {
    // A container with only an f32 panel (legal) has neither IVF nor SQ8
    // search state; sq8 search must be refused by the accessors.
    let corpus = normalized(77, 8, 4);
    let index = IvfIndex::build(&corpus, &IvfParams::default());
    let file = TempFile::new("flat-only");
    index.save(&corpus, &file.0).expect("save");
    let mapped = MappedIndex::open(&file.0).expect("open");
    assert!(mapped.has_ivf());
    assert!(!mapped.has_codes());
    assert!(mapped.stored_bytes() > 0);
}

#[test]
fn open_reports_version_and_magic_errors_with_the_container_path() {
    let file = TempFile::new("magic");
    // Random bytes long enough to parse: bad magic, wrapped with the path
    // of the offending container (the only way to tell shard files apart).
    std::fs::write(&file.0, vec![7u8; 256]).unwrap();
    let err = MappedIndex::open(&file.0).unwrap_err();
    assert!(matches!(err.root(), StorageError::BadMagic));
    assert_eq!(err.path(), Some(file.0.as_path()));
    assert!(
        err.to_string().contains(&file.0.display().to_string()),
        "error must name the container file: {err}"
    );
    // A future version: rejected with the version found.
    let corpus = normalized(3, 4, 3);
    let quantized = QuantizedTable::build(&corpus);
    quantized.save(&corpus, &file.0).unwrap();
    let mut bytes = std::fs::read(&file.0).unwrap();
    bytes[8] = 99; // version field, little-endian low byte
    std::fs::write(&file.0, &bytes).unwrap();
    let err = MappedIndex::open(&file.0).unwrap_err();
    assert!(matches!(err.root(), StorageError::BadVersion { found: 99 }));
    assert_eq!(err.path(), Some(file.0.as_path()));
}
