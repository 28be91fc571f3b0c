//! Thread-count behaviour of the LSM mutable engine.
//!
//! Two pins, both under `RAYON_NUM_THREADS=8` (the forced-parallel regime
//! of the other determinism suites; each test sets the variable before the
//! rayon shim samples it, which is why this suite is its own binary):
//!
//! 1. **Concurrent queries during seal/compact are deterministic** —
//!    readers searching through an `RwLock` (the `exea-serve` access
//!    pattern) while a writer inserts, deletes, seals and compacts observe
//!    bit-identical results per mutation phase, across threads and across
//!    two full runs of the schedule.
//! 2. **Compaction is thread-count invariant** — the compacted segment
//!    built under 8 threads (its live rows and the answers of its
//!    single-probe k-means lists) equals byte-for-byte the one built by a
//!    re-executed child process under `RAYON_NUM_THREADS=1`.

use ea_embed::lsm::{LsmParams, MutableIndex};
use ea_embed::{EmbeddingTable, IvfParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Barrier, RwLock};

fn force_eight_threads() {
    // Must run before any rayon use in this process: the shim reads the
    // variable once.
    std::env::set_var("RAYON_NUM_THREADS", "8");
}

fn params(seal_rows: usize, ivf: IvfParams) -> LsmParams {
    LsmParams { seal_rows, ivf }
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
                index.insert((p * 100 + i) as u32, &raw_row(seed, p * 1000 + i, dim));
            }
        }
        2 => {
            for i in 0..6 {
                index.remove(((p - 1) * 100 + i) as u32);
            }
        }
        3 => index.seal(),
        _ => index.compact(),
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
        let shared = RwLock::new(MutableIndex::new(dim, params(8, IvfParams::exhaustive())));
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

/// Name of the env var the subprocess helper communicates through.
const DUMP_ENV: &str = "EXEA_LSM_DUMP_PATH";

/// Deterministic fixture shared by the thread-count invariance pair: the
/// compacted segment's live rows, entity ids and single-probe answers, as
/// little-endian bytes. Probing one list makes the answers depend on the
/// k-means clustering the compaction ran, not just on the rows.
fn build_and_compact() -> Vec<u8> {
    let seed = 2024u64;
    let dim = 12usize;
    let ivf = IvfParams {
        nprobe: 1,
        ..IvfParams::default()
    };
    let mut index = MutableIndex::new(dim, params(16, ivf));
    for i in 0..120 {
        index.insert(i, &raw_row(seed, i as usize, dim));
    }
    for i in 0..25 {
        index.remove(i * 4);
    }
    index.seal();
    index.compact();
    assert_eq!(index.segments(), 1);
    let (live, entities) = index.live_table();
    let queries = normalized_queries(seed ^ 0xC0DE, 9, dim);
    let mut out = Vec::new();
    out.extend(live.data().iter().flat_map(|v| v.to_le_bytes()));
    out.extend(entities.iter().flat_map(|e| e.to_le_bytes()));
    for (id, score) in bits(&index.search(&queries, 5)) {
        out.extend(id.to_le_bytes());
        out.extend(score.to_le_bytes());
    }
    out
}

/// Subprocess helper for pin 2: inert unless [`DUMP_ENV`] is set (the
/// parent re-executes this test binary with it pointing at a scratch file
/// and `RAYON_NUM_THREADS=1`).
#[test]
fn helper_dump_compacted_segment() {
    let Ok(out) = std::env::var(DUMP_ENV) else {
        return;
    };
    std::fs::write(&out, build_and_compact()).expect("write dump");
}

/// Pin 2: the compacted segment built under 8 rayon threads is
/// byte-identical to one built by a child process running the identical
/// schedule under `RAYON_NUM_THREADS=1`.
#[test]
fn compaction_bytes_are_thread_count_invariant() {
    force_eight_threads();
    let eight = build_and_compact();

    let dump = std::env::temp_dir().join(format!(
        "exea-lsm-threads-{}-single-thread.bin",
        std::process::id()
    ));
    let status = std::process::Command::new(std::env::current_exe().expect("current exe"))
        .args(["--exact", "helper_dump_compacted_segment", "--nocapture"])
        .env("RAYON_NUM_THREADS", "1")
        .env(DUMP_ENV, &dump)
        .status()
        .expect("spawn single-thread child");
    assert!(status.success(), "child failed: {status}");
    let one = std::fs::read(&dump).expect("read child dump");
    let _ = std::fs::remove_file(&dump);
    assert_eq!(eight.len(), one.len(), "dump length");
    assert!(
        eight == one,
        "compacted segment must not depend on the thread count"
    );
}
