//! Property suite pinning the streaming container builder to the one-shot
//! save, and the coalesced pread gathers to the mmap backend.
//!
//! Three contracts:
//!
//! 1. **Byte identity** — [`save_ivf_streaming`] / [`save_sq8_streaming`]
//!    produce a container file *byte-identical* (section checksums included)
//!    to the one-shot `IvfIndex::build` + `save` /
//!    `QuantizedTable::build` + `save` on the same input, for every chunk
//!    size, both IVF list storages and both seeding strategies. Every
//!    existing bit-identity pin of the one-shot container therefore carries
//!    over to streamed containers verbatim.
//! 2. **Bounded staging** — the builder's chunk-scaled staging buffers never
//!    exceed an O(chunk · dim) bound, and the peak is *independent of the
//!    corpus row count* at a fixed chunk size (the point of streaming).
//! 3. **Backend bit-identity on streamed containers** — searches through the
//!    mmap'd view and through the coalesced-pread fallback return identical
//!    `(id, score bits)` lists, for IVF-flat, IVF-SQ and whole-corpus SQ8.

use ea_embed::{
    save_ivf_streaming, save_sq8_streaming, EmbeddingTable, IvfIndex, IvfListStorage, IvfParams,
    IvfSeeding, MappedIndex, NormalizedRows, OpenOptions, QuantizedTable, Sq8Params, TableRows,
};
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
            "exea-prop-streaming-{}-{}-{tag}.eacg",
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

/// Both read backends: the mmap'd view and forced buffered positional reads
/// (which now sort, coalesce and readahead their gathers).
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

/// The chunk sizes every byte-identity case sweeps: degenerate (1), prime,
/// power-of-two, exactly the corpus, larger than the corpus, and the
/// "choose for me" default (0).
fn chunk_sweep(n: usize) -> [usize; 6] {
    [1, 3, 64, n.max(1), n + 7, 0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn streaming_ivf_save_is_byte_identical_to_one_shot(
        seed in 0u64..10_000,
        n in 1usize..60,
        nlist in 1usize..10,
        dim in 2usize..8,
        use_sq8 in proptest::bool::ANY,
        kmeanspp in proptest::bool::ANY,
    ) {
        let corpus = normalized(seed, n, dim);
        let params = IvfParams {
            nlist,
            storage: if use_sq8 {
                IvfListStorage::Sq8(Sq8Params::default())
            } else {
                IvfListStorage::Flat
            },
            seeding: if kmeanspp {
                IvfSeeding::KmeansPlusPlus
            } else {
                IvfSeeding::Shuffle
            },
            ..IvfParams::default()
        };
        let one_shot = TempFile::new("ivf-oneshot");
        IvfIndex::build(&corpus, &params)
            .save(&corpus, &one_shot.0)
            .expect("one-shot save");
        let want = std::fs::read(&one_shot.0).expect("read one-shot");

        for chunk in chunk_sweep(n) {
            let streamed = TempFile::new("ivf-streamed");
            let stats = save_ivf_streaming(&TableRows::new(&corpus), &params, &streamed.0, chunk)
                .expect("streaming save");
            prop_assert_eq!(stats.rows, n);
            prop_assert!(stats.passes >= 2, "at least one assign + one section sweep");
            let got = std::fs::read(&streamed.0).expect("read streamed");
            prop_assert!(
                want == got,
                "chunk {} containers diverged ({} vs {} bytes)", chunk, want.len(), got.len()
            );
        }
    }

    #[test]
    fn streaming_sq8_save_is_byte_identical_to_one_shot(
        seed in 0u64..10_000,
        n in 1usize..60,
        dim in 2usize..8,
    ) {
        let corpus = normalized(seed, n, dim);
        let one_shot = TempFile::new("sq8-oneshot");
        QuantizedTable::build(&corpus)
            .save(&corpus, &one_shot.0)
            .expect("one-shot save");
        let want = std::fs::read(&one_shot.0).expect("read one-shot");

        for chunk in chunk_sweep(n) {
            let streamed = TempFile::new("sq8-streamed");
            let stats = save_sq8_streaming(&TableRows::new(&corpus), &streamed.0, chunk)
                .expect("streaming save");
            prop_assert_eq!(stats.rows, n);
            prop_assert_eq!(stats.passes, 3, "grid fit + codes + panel");
            let got = std::fs::read(&streamed.0).expect("read streamed");
            prop_assert!(want == got, "chunk {} containers diverged", chunk);
        }
    }

    #[test]
    fn searches_on_streamed_containers_are_backend_bit_identical(
        seed in 0u64..10_000,
        n_q in 1usize..10,
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
        let in_memory = IvfIndex::build(&corpus, &params).search(&queries, &corpus, k, nprobe);

        let file = TempFile::new("backend");
        save_ivf_streaming(&TableRows::new(&corpus), &params, &file.0, 16)
            .expect("streaming save");
        let sq8 = use_sq8.then(Sq8Params::default);
        for options in backends() {
            let mapped = MappedIndex::open_with(&file.0, &options).expect("open");
            let got = mapped.search_ivf(&queries, k, nprobe, sq8.as_ref());
            assert_rows_bit_identical(&in_memory, &got, mapped.backend());
        }
    }

    #[test]
    fn whole_corpus_sq8_on_streamed_containers_is_backend_bit_identical(
        seed in 0u64..10_000,
        n_q in 1usize..10,
        n in 1usize..50,
        k in 1usize..8,
        rerank_factor in 1usize..6,
        dim in 2usize..8,
    ) {
        let corpus = normalized(seed, n, dim);
        let queries = normalized(seed.wrapping_add(1), n_q, dim);
        let params = Sq8Params { rerank_factor };
        let in_memory = QuantizedTable::build(&corpus).search(&queries, &corpus, k, &params);

        let file = TempFile::new("sq8-backend");
        save_sq8_streaming(&TableRows::new(&corpus), &file.0, 16).expect("streaming save");
        for options in backends() {
            let mapped = MappedIndex::open_with(&file.0, &options).expect("open");
            let got = mapped.search_sq8(&queries, k, &params);
            assert_rows_bit_identical(&in_memory, &got, mapped.backend());
        }
    }

    #[test]
    fn kmeanspp_streaming_saves_are_reproducible(
        seed in 0u64..10_000,
        n in 1usize..50,
        nlist in 1usize..10,
    ) {
        let corpus = normalized(seed, n, 4);
        let params = IvfParams {
            nlist,
            seeding: IvfSeeding::KmeansPlusPlus,
            ..IvfParams::default()
        };
        let a = TempFile::new("kpp-a");
        let b = TempFile::new("kpp-b");
        save_ivf_streaming(&TableRows::new(&corpus), &params, &a.0, 8).expect("save a");
        save_ivf_streaming(&TableRows::new(&corpus), &params, &b.0, 8).expect("save b");
        prop_assert!(
            std::fs::read(&a.0).unwrap() == std::fs::read(&b.0).unwrap(),
            "same seed must reproduce the same container byte for byte"
        );
    }
}

/// The staging-memory contract: at a fixed chunk size the builder's peak
/// chunk-scaled staging is identical for a small and a 4×-larger corpus, and
/// bounded by O(chunk · dim) — row count only grows the O(rows) bookkeeping
/// (assignments, CSR), never the staging buffers.
#[test]
fn peak_staging_is_bounded_by_chunk_not_corpus() {
    let dim = 6;
    let chunk = 8;
    let params = IvfParams {
        nlist: 4,
        storage: IvfListStorage::Sq8(Sq8Params::default()),
        ..IvfParams::default()
    };
    let mut peaks = Vec::new();
    for n in [40usize, 160] {
        let table = normalized(9, n, dim);
        let rows: Vec<usize> = (0..n).collect();
        // NormalizedRows cannot hand out borrows, so every chunk goes
        // through the staging buffers — the honest streaming shape.
        let source = NormalizedRows::new(&table, &rows);
        let file = TempFile::new("staging");
        let stats = save_ivf_streaming(&source, &params, &file.0, chunk).expect("save");
        assert_eq!(stats.rows, n);
        // f32 staging panel + SQ8 code staging + per-chunk k-means scores,
        // all chunk-scaled.
        let bound = chunk * dim * 4 + chunk * dim + chunk * 4;
        assert!(
            stats.peak_staging_bytes > 0 && stats.peak_staging_bytes <= bound,
            "rows {n}: peak {} outside (0, {bound}]",
            stats.peak_staging_bytes
        );
        peaks.push(stats.peak_staging_bytes);
    }
    assert_eq!(
        peaks[0], peaks[1],
        "peak staging must not grow with corpus rows at a fixed chunk"
    );
}

/// Empty corpora stream to the same container the one-shot path writes
/// (no IVF lists beyond the empty CSR, no SQ8 sections).
#[test]
fn empty_corpus_streams_byte_identical() {
    let corpus = EmbeddingTable::zeros(0, 4);
    let params = IvfParams {
        storage: IvfListStorage::Sq8(Sq8Params::default()),
        ..IvfParams::default()
    };
    let one_shot = TempFile::new("empty-oneshot");
    IvfIndex::build(&corpus, &params)
        .save(&corpus, &one_shot.0)
        .expect("one-shot save");
    let streamed = TempFile::new("empty-streamed");
    let stats = save_ivf_streaming(&TableRows::new(&corpus), &params, &streamed.0, 0)
        .expect("streaming save");
    assert_eq!(stats.rows, 0);
    assert_eq!(
        std::fs::read(&one_shot.0).unwrap(),
        std::fs::read(&streamed.0).unwrap()
    );
    let mapped = MappedIndex::open(&streamed.0).expect("open empty");
    assert_eq!(mapped.rows(), 0);
}

/// `NormalizedRows` streams the same bytes `gather_normalized` + `TableRows`
/// would: the chunked per-row normalisation is bit-identical to the
/// materialised gather.
#[test]
fn normalized_rows_match_materialised_gather() {
    let raw = {
        let mut rng = StdRng::seed_from_u64(21);
        EmbeddingTable::xavier(33, 5, &mut rng)
    };
    let rows: Vec<usize> = (0..33).rev().collect();
    let gathered = raw.gather_normalized(&rows);
    let params = IvfParams::default();

    let via_gather = TempFile::new("gathered");
    save_ivf_streaming(&TableRows::new(&gathered), &params, &via_gather.0, 7).expect("save");
    let via_stream = TempFile::new("normstream");
    save_ivf_streaming(&NormalizedRows::new(&raw, &rows), &params, &via_stream.0, 7).expect("save");
    assert_eq!(
        std::fs::read(&via_gather.0).unwrap(),
        std::fs::read(&via_stream.0).unwrap()
    );
}
