//! Crash-consistency suite for the on-disk candidate container.
//!
//! The contract under test: **a container is either complete and verified,
//! or opening it fails with a typed [`StorageError`]** — a reader can never
//! observe garbage. Three attack surfaces:
//!
//! - a *killed writer*: a streaming save that panics mid-write (simulating
//!   a crash at an arbitrary point) must leave no file behind at all — the
//!   [`ContainerWriter`] RAII guard removes the unfinished container, so
//!   there is no window where a partial file looks like a real one;
//! - a *torn file*: a complete container truncated at randomized byte
//!   offsets must always fail to open with a typed error (`Truncated`,
//!   `BadChecksum`, `BadMagic`, …) on both read backends;
//! - *bit rot*: a complete container with randomized single-byte flips
//!   must be caught by the verified open.
//!
//! Plus the spill-file RAII contract: segment engines that spill their
//! panels to disk leave the spill directory empty once dropped, even
//! across many runs.
//!
//! [`ContainerWriter`]: crates/ea-embed/src/storage.rs

use ea_embed::{
    save_ivf_streaming, save_sq8_streaming, EmbeddingTable, IvfIndex, IvfListStorage, IvfParams,
    MappedIndex, MappedOptions, OpenOptions, RowSource, ShardParams, ShardedIndex, Sq8Params,
    StorageError, StoreBacking,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static UNIQUE: AtomicU64 = AtomicU64::new(0);

/// A collision-free path under the system temp dir; removed on drop even
/// when an assertion fails first.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        TempFile(std::env::temp_dir().join(format!(
            "exea-crash-{}-{}-{tag}.eacg",
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

/// A [`RowSource`] that dies when asked for any row at or past `kill_at` —
/// the deterministic stand-in for a writer crashing mid-save.
struct DyingRows<'a> {
    table: &'a EmbeddingTable,
    kill_at: usize,
}

impl RowSource for DyingRows<'_> {
    fn rows(&self) -> usize {
        self.table.rows()
    }

    fn dim(&self) -> usize {
        self.table.dim()
    }

    fn fill_rows(&self, start: usize, out: &mut [f32]) {
        let count = out.len() / self.table.dim();
        assert!(
            start + count <= self.kill_at,
            "injected writer crash at row {}",
            self.kill_at
        );
        for (i, row) in out.chunks_exact_mut(self.table.dim()).enumerate() {
            row.copy_from_slice(self.table.row(start + i));
        }
    }
}

/// Both read backends: the mmap'd view and forced buffered positional
/// reads — crash consistency must hold on each.
fn backends() -> [OpenOptions; 2] {
    [
        OpenOptions::default(),
        OpenOptions {
            prefer_mmap: false,
            verify: true,
        },
    ]
}

fn assert_typed_failure(result: Result<MappedIndex, StorageError>, what: &str) {
    match result {
        Ok(_) => panic!("{what}: a damaged container must not open"),
        Err(e) => {
            // Every failure is one of the typed variants and survives
            // formatting (no panic rendering the message, path attached).
            let message = e.to_string();
            assert!(!message.is_empty());
            match e.root() {
                StorageError::Truncated { .. }
                | StorageError::BadChecksum { .. }
                | StorageError::BadMagic
                | StorageError::BadVersion { .. }
                | StorageError::Corrupt { .. }
                | StorageError::SectionMissing { .. }
                | StorageError::ShapeMismatch { .. }
                | StorageError::Io(_) => {}
                StorageError::AtPath { .. } => {
                    panic!("{what}: root() must strip the AtPath wrapper")
                }
            }
        }
    }
}

#[test]
fn killed_ivf_save_leaves_no_file_behind() {
    let corpus = normalized(11, 96, 16);
    // Kill the writer at a spread of crash points: during the k-means
    // sweep, during the encode sweep, near the end.
    for kill_at in [1, 8, 32, 64, 95] {
        let file = TempFile::new("killed-ivf");
        let source = DyingRows {
            table: &corpus,
            kill_at,
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            save_ivf_streaming(&source, &IvfParams::default(), &file.0, 24)
        }));
        assert!(outcome.is_err(), "kill_at={kill_at} must abort the save");
        assert!(
            !file.0.exists(),
            "kill_at={kill_at}: the RAII guard must remove the unfinished container"
        );
    }
}

#[test]
fn killed_sq8_save_leaves_no_file_behind() {
    let corpus = normalized(12, 80, 12);
    for kill_at in [1, 16, 40, 79] {
        let file = TempFile::new("killed-sq8");
        let source = DyingRows {
            table: &corpus,
            kill_at,
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            save_sq8_streaming(&source, &file.0, 16)
        }));
        assert!(outcome.is_err(), "kill_at={kill_at} must abort the save");
        assert!(
            !file.0.exists(),
            "kill_at={kill_at}: the RAII guard must remove the unfinished container"
        );
    }
}

#[test]
fn truncation_at_randomized_offsets_always_fails_typed() {
    let corpus = normalized(13, 120, 16);
    let index = IvfIndex::build(&corpus, &IvfParams::default());
    let good = TempFile::new("trunc-good");
    index.save(&corpus, &good.0).expect("save full container");
    let bytes = std::fs::read(&good.0).expect("read container back");
    assert!(bytes.len() > 64, "container is non-trivial");

    // Deterministically randomized truncation points, plus the structural
    // boundaries (empty file, half a header, one byte short of complete).
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut cuts: Vec<usize> = vec![0, 1, 12, 23, 24, bytes.len() - 1];
    for _ in 0..40 {
        cuts.push(rng.gen_range(0..bytes.len()));
    }

    let torn = TempFile::new("trunc-torn");
    for cut in cuts {
        std::fs::write(&torn.0, &bytes[..cut]).expect("write truncated copy");
        for options in backends() {
            assert_typed_failure(
                MappedIndex::open_with(&torn.0, &options),
                &format!("truncated at {cut}/{} bytes", bytes.len()),
            );
        }
    }

    // Sanity: the untouched original still opens on both backends.
    for options in backends() {
        MappedIndex::open_with(&good.0, &options).expect("the complete container opens");
    }
}

#[test]
fn randomized_bit_rot_is_caught_by_the_verified_open() {
    let corpus = normalized(14, 100, 12);
    let index = IvfIndex::build(&corpus, &IvfParams::default());
    let good = TempFile::new("rot-good");
    index.save(&corpus, &good.0).expect("save full container");
    let bytes = std::fs::read(&good.0).expect("read container back");

    let mut rng = StdRng::seed_from_u64(0xB17F11);
    let rotten = TempFile::new("rot-bad");
    for _ in 0..25 {
        let at = rng.gen_range(0..bytes.len());
        let bit = rng.gen_range(0..8u32);
        let mut copy = bytes.clone();
        copy[at] ^= 1 << bit;
        std::fs::write(&rotten.0, &copy).expect("write corrupted copy");
        for options in backends() {
            // A flip can land anywhere — magic, header, checksum, payload —
            // so any typed variant is acceptable; silently opening with
            // altered bytes is not.
            assert_typed_failure(
                MappedIndex::open_with(&rotten.0, &options),
                &format!("bit {bit} flipped at byte {at}"),
            );
        }
    }
}

#[test]
fn spilled_searches_leave_the_spill_directory_empty() {
    let dir = std::env::temp_dir().join(format!(
        "exea-crash-spills-{}-{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("spill dir");

    let corpus = normalized(15, 64, 12);
    let queries = normalized(16, 4, 12);
    let resident_params = ShardParams {
        nshards: 3,
        ivf: IvfParams {
            storage: IvfListStorage::Sq8(Sq8Params::default()),
            ..IvfParams::default()
        },
        ..ShardParams::default()
    };
    let resident = ShardedIndex::build(&corpus, &resident_params).search(&queries, 5);
    for round in 0..3 {
        let params = ShardParams {
            backing: StoreBacking::Mapped(MappedOptions {
                dir: Some(dir.clone()),
                ..MappedOptions::default()
            }),
            ..resident_params.clone()
        };
        let index = ShardedIndex::build(&corpus, &params);
        assert!(index.stored_bytes() > 0, "round {round}: shards must spill");
        let spilled = index.search(&queries, 5);
        drop(index);
        assert_eq!(
            spilled, resident,
            "round {round}: spilled search stays bit-identical"
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("spill dir readable")
            .collect();
        assert!(
            leftovers.is_empty(),
            "round {round}: spill files must be RAII-removed, found {leftovers:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
