//! Thread, crash and file-lifetime behaviour of the LSM mutable engine.
//!
//! Four pins, all under `RAYON_NUM_THREADS=8` (the forced-parallel regime
//! of the other determinism suites; each test sets the variable before the
//! rayon shim samples it, which is why this suite is its own binary):
//!
//! 1. **Concurrent queries during seal/compact are deterministic** —
//!    readers searching through an `RwLock` (the `exea-serve` access
//!    pattern) while a writer inserts, deletes, seals and compacts observe
//!    bit-identical results per mutation phase, across threads and across
//!    two full runs of the schedule.
//! 2. **A killed seal/compact leaves no partial container behind** — a
//!    failed spill (missing directory) is a typed error, the
//!    pre-compaction segment set keeps answering bit-identically, and the
//!    retry succeeds; a segment file truncated in place panics the
//!    compaction with the documented message instead of returning garbage
//!    (pread backend; under mmap truncation is SIGBUS, see the
//!    `MappedIndex` file-lifetime docs) and creates no output container.
//! 3. **Compaction bytes are thread-count invariant** — the compacted
//!    container built under 8 threads equals byte-for-byte the one built
//!    by a re-executed child process under `RAYON_NUM_THREADS=1`.
//! 4. **Sealed segments outlive their directory entry** — deleting a
//!    mapped segment's file after open changes nothing on the pread
//!    backend (the fd pins the inode), while a fresh open of the deleted
//!    path fails with a typed `StorageError::Io` naming the path — the
//!    regression pin for the container-open file-lifetime contract.

use ea_embed::lsm::{LsmParams, MutableIndex};
use ea_embed::{
    EmbeddingTable, IvfParams, MappedIndex, MappedOptions, OpenOptions, StorageError, StoreBacking,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, RwLock};

static UNIQUE: AtomicU64 = AtomicU64::new(0);

/// A collision-free spill directory under the system temp dir; removed on
/// drop even when an assertion fails.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "exea-lsm-threads-{}-{}-{tag}",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create spill dir");
        TempDir(dir)
    }

    fn files(&self) -> Vec<PathBuf> {
        let mut out: Vec<PathBuf> = std::fs::read_dir(&self.0)
            .map(|it| it.filter_map(|e| e.ok().map(|e| e.path())).collect())
            .unwrap_or_default();
        out.sort();
        out
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn force_eight_threads() {
    // Must run before any rayon use in this process: the shim reads the
    // variable once.
    std::env::set_var("RAYON_NUM_THREADS", "8");
}

/// Mapped, pread-backed params: the backend whose file-lifetime semantics
/// (fd pins the inode) these tests pin. `EXEA_MAPPED_BACKEND=mmap` in the
/// environment overrides this — callers that must not run on mmap check
/// [`mmap_forced`].
fn pread_params(seal_rows: usize, dir: &Path) -> LsmParams {
    LsmParams {
        seal_rows,
        ivf: IvfParams::exhaustive(),
        backing: StoreBacking::Mapped(MappedOptions {
            dir: Some(dir.to_path_buf()),
            prefer_mmap: false,
        }),
    }
}

fn mmap_forced() -> bool {
    ea_embed::mapped_backend_from_env() == Ok(Some(true))
}

fn raw_row(seed: u64, step: usize, dim: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed ^ (step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..dim).map(|_| rng.gen_range(-1.0f32..=1.0)).collect()
}

fn normalized_queries(seed: u64, n_q: usize, dim: usize) -> EmbeddingTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let q = EmbeddingTable::xavier(n_q, dim, &mut rng);
    let all: Vec<usize> = (0..n_q).collect();
    q.gather_normalized(&all)
}

fn bits(list: &[ea_embed::topk::Ranked]) -> Vec<(u32, u32)> {
    list.iter().map(|r| (r.index, r.score.to_bits())).collect()
}

/// One deterministic mutation schedule: what the writer does in phase `p`.
fn mutate(index: &mut MutableIndex, p: usize, seed: u64, dim: usize) {
    match p % 5 {
        0 | 1 => {
            for i in 0..12 {
                index
                    .insert((p * 100 + i) as u32, &raw_row(seed, p * 1000 + i, dim))
                    .expect("insert");
            }
        }
        2 => {
            for i in 0..6 {
                index.remove(((p - 1) * 100 + i) as u32);
            }
        }
        3 => index.seal().expect("seal"),
        _ => index.compact().expect("compact"),
    }
}

/// Pin 1: readers through an `RwLock` during a seal/compact schedule see
/// bit-identical per-phase results, across reader threads and across two
/// full runs.
#[test]
fn eight_thread_queries_during_seal_and_compact_are_bit_identical_run_to_run() {
    force_eight_threads();
    const READERS: usize = 4;
    const PHASES: usize = 15;
    let seed = 71u64;
    let dim = 10usize;
    let queries = normalized_queries(seed ^ 0xBEEF, 6, dim);

    let run = || -> Vec<Vec<Vec<(u32, u32)>>> {
        let dir = TempDir::new("rwlock");
        let shared = RwLock::new(MutableIndex::new(dim, pread_params(8, &dir.0)));
        // Two barriers per phase: writer mutates, everyone searches the
        // settled state concurrently, repeat. Reads overlap each other (and
        // the 8-thread rayon pool inside each search); the lock orders
        // reads against the mutation, exactly like the serve engine.
        let start = Barrier::new(READERS + 1);
        let done = Barrier::new(READERS + 1);
        let mut per_reader: Vec<Vec<Vec<(u32, u32)>>> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..READERS {
                handles.push(scope.spawn(|| {
                    let mut observed = Vec::with_capacity(PHASES);
                    for _ in 0..PHASES {
                        start.wait();
                        let guard = shared.read().expect("read lock");
                        observed.push(bits(&guard.search(&queries, 5)));
                        drop(guard);
                        done.wait();
                    }
                    observed
                }));
            }
            for p in 0..PHASES {
                {
                    let mut guard = shared.write().expect("write lock");
                    mutate(&mut guard, p, seed, dim);
                }
                start.wait();
                done.wait();
            }
            for h in handles {
                per_reader.push(h.join().expect("reader thread"));
            }
        });
        per_reader
    };

    let first = run();
    for (r, observed) in first.iter().enumerate().skip(1) {
        assert_eq!(observed, &first[0], "reader {r} diverged within the run");
    }
    let second = run();
    assert_eq!(second[0], first[0], "schedule diverged across runs");
}

/// Pin 2a: a seal/compact whose spill fails is a typed error that leaves
/// the pre-failure segment set answering bit-identically, with no partial
/// container anywhere; the retry succeeds. Also the live half of the
/// file-lifetime regression: the sealed segments' files are *deleted* under
/// the index (pread fd pins the inode) and every byte still answers.
#[test]
fn failed_compaction_is_typed_and_leaves_the_segment_set_intact() {
    force_eight_threads();
    if mmap_forced() {
        // Unlinked-file reads are also safe under mmap, but this test's
        // point is the pread fd contract; the mmap run covers nothing new.
        return;
    }
    let seed = 91u64;
    let dim = 8usize;
    let dir = TempDir::new("failed-compact");
    let queries = normalized_queries(seed ^ 0xF00D, 5, dim);
    let mut index = MutableIndex::new(dim, pread_params(10, &dir.0));
    for i in 0..47 {
        index
            .insert(i, &raw_row(seed, i as usize, dim))
            .expect("insert");
    }
    for i in 0..9 {
        index.remove(i * 5);
    }
    index.seal().expect("seal tail");
    assert!(index.segments() >= 2);
    let before = bits(&index.search(&queries, 6));

    // Kill the spill target: every segment file disappears with the
    // directory, yet the open fds keep each sealed segment fully readable.
    std::fs::remove_dir_all(&dir.0).expect("remove spill dir");
    let err = index
        .compact()
        .expect_err("compact must fail without a spill dir");
    assert!(
        matches!(err.root(), StorageError::Io(_)),
        "want a typed I/O error, got {err}"
    );
    // Unchanged: same segments, same answers, bit for bit — served from
    // unlinked inodes.
    assert!(index.segments() >= 2);
    assert_eq!(
        bits(&index.search(&queries, 6)),
        before,
        "post-failure answers"
    );

    // The retry succeeds once the directory is back, and the directory
    // afterwards holds exactly the compacted container — no partials.
    std::fs::create_dir_all(&dir.0).expect("recreate spill dir");
    index.compact().expect("retry compact");
    assert_eq!(index.segments(), 1);
    assert_eq!(
        bits(&index.search(&queries, 6)),
        before,
        "post-compaction answers"
    );
    assert_eq!(dir.files().len(), 1, "exactly the compacted container");
    assert_eq!(dir.files()[0], index.segment_paths()[0]);
}

/// Pin 2b: a compaction killed mid-read (segment file truncated in place —
/// the pread half of the documented file-lifetime caveat) panics with the
/// documented message instead of returning garbage, and leaves no output
/// container behind.
#[test]
fn killed_compaction_read_panics_cleanly_and_writes_nothing() {
    force_eight_threads();
    if mmap_forced() {
        // In-place truncation under mmap is SIGBUS (uncatchable): the
        // documented caveat, not something a test can survive.
        return;
    }
    let seed = 17u64;
    let dim = 6usize;
    let dir = TempDir::new("killed-compact");
    let mut index = MutableIndex::new(dim, pread_params(usize::MAX, &dir.0));
    for i in 0..30 {
        index
            .insert(i, &raw_row(seed, i as usize, dim))
            .expect("insert");
    }
    index.seal().expect("seal");
    let segment_file = index.segment_paths()[0].to_path_buf();
    let files_before = dir.files();

    // Truncate the sealed container under the live index: the next
    // compaction read runs off the end of the inode.
    let full = std::fs::metadata(&segment_file).expect("stat").len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&segment_file)
        .expect("reopen for truncation")
        .set_len(full / 3)
        .expect("truncate");

    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| index.compact()))
        .expect_err("truncated segment must kill the compaction");
    let message = panic.downcast_ref::<String>().cloned().unwrap_or_else(|| {
        panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .unwrap_or_default()
    });
    assert!(
        message.contains("container read failed mid-compaction"),
        "want the documented panic, got: {message}"
    );
    // No partial compaction output: the directory holds exactly the files
    // it held before the kill.
    assert_eq!(
        dir.files(),
        files_before,
        "no partial container left behind"
    );
    // The poisoned index is torn down without further reads.
    drop(index);
}

/// Pin 4 (other half): a *fresh* open of a deleted container path is a
/// typed `StorageError::Io` naming the path — never UB or garbage.
#[test]
fn reopening_a_deleted_segment_path_is_a_typed_error() {
    force_eight_threads();
    let seed = 3u64;
    let dim = 6usize;
    let dir = TempDir::new("reopen");
    let mut index = MutableIndex::new(dim, pread_params(usize::MAX, &dir.0));
    for i in 0..20 {
        index
            .insert(i, &raw_row(seed, i as usize, dim))
            .expect("insert");
    }
    index.seal().expect("seal");
    let path = index.segment_paths()[0].to_path_buf();
    std::fs::remove_file(&path).expect("unlink segment");

    let err = MappedIndex::open_with(&path, &OpenOptions::default())
        .expect_err("open of a deleted path must fail");
    assert!(matches!(err.root(), StorageError::Io(_)), "got {err}");
    assert_eq!(err.path(), Some(path.as_path()), "error must name the path");

    // The index that held the fd never noticed.
    let queries = normalized_queries(seed, 3, dim);
    assert_eq!(index.search(&queries, 4).len(), 3 * 4);
}

/// Name of the env var the subprocess helper communicates through.
const DUMP_ENV: &str = "EXEA_LSM_DUMP_PATH";

/// Deterministic fixture shared by the thread-count invariance pair.
fn build_and_compact(dir: &Path) -> Vec<u8> {
    let seed = 2024u64;
    let dim = 12usize;
    let mut index = MutableIndex::new(dim, pread_params(16, dir));
    for i in 0..120 {
        index
            .insert(i, &raw_row(seed, i as usize, dim))
            .expect("insert");
    }
    for i in 0..25 {
        index.remove(i * 4);
    }
    index.seal().expect("seal");
    index.compact().expect("compact");
    std::fs::read(index.segment_paths()[0]).expect("read compacted container")
}

/// Subprocess helper for pin 3: inert unless [`DUMP_ENV`] is set (the
/// parent re-executes this test binary with it pointing at a scratch file
/// and `RAYON_NUM_THREADS=1`).
#[test]
fn helper_dump_compacted_container() {
    let Ok(out) = std::env::var(DUMP_ENV) else {
        return;
    };
    let dir = TempDir::new("dump-child");
    std::fs::write(&out, build_and_compact(&dir.0)).expect("write dump");
}

/// Pin 3: the compacted container built under 8 rayon threads is
/// byte-identical (checksums included) to one built by a child process
/// running the identical schedule under `RAYON_NUM_THREADS=1`.
#[test]
fn compaction_bytes_are_thread_count_invariant() {
    force_eight_threads();
    let dir = TempDir::new("dump-parent");
    let eight = build_and_compact(&dir.0);

    let dump = dir.0.join("single-thread.bin");
    let status = std::process::Command::new(std::env::current_exe().expect("current exe"))
        .args(["--exact", "helper_dump_compacted_container", "--nocapture"])
        .env("RAYON_NUM_THREADS", "1")
        .env(DUMP_ENV, &dump)
        .status()
        .expect("spawn single-thread child");
    assert!(status.success(), "child failed: {status}");
    let one = std::fs::read(&dump).expect("read child dump");
    assert_eq!(eight.len(), one.len(), "container length");
    assert!(
        eight == one,
        "compacted container must not depend on the thread count"
    );
}
