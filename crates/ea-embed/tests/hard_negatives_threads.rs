//! Determinism of the hard-negative cache build and refresh under a
//! multi-thread rayon pool: with `RAYON_NUM_THREADS=8` the blocked scan must
//! return exactly the naive per-row oracle's lists, two builds must agree, a
//! build restricted to some rows must list exactly those rows' lists, and a
//! refresh after edits must match a fresh build of the edited table.
//!
//! This lives in its own integration-test binary so the env var is set
//! before the rayon shim samples it — on a single-core host the default pool
//! would otherwise never actually split work.

use ea_embed::{order, vector, EmbeddingTable, HardNegativeCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The naive oracle: per-pair cosine, full `(score desc, row asc)` sort,
/// top `k + 1`, drop the row itself, take `k`.
fn oracle_list(table: &EmbeddingTable, i: usize, k: usize, universe: usize) -> Vec<u32> {
    let mut scored: Vec<(usize, f32)> = (0..universe)
        .map(|j| (j, vector::cosine(table.row(i), table.row(j))))
        .collect();
    scored.sort_unstable_by(|a, b| order::desc_f32(a.1, b.1).then(a.0.cmp(&b.0)));
    scored
        .into_iter()
        .take(k + 1)
        .map(|(j, _)| j)
        .filter(|&j| j != i)
        .map(|j| j as u32)
        .take(k)
        .collect()
}

#[test]
fn eight_thread_pool_matches_the_naive_oracle() {
    // Must run before any rayon use in this process: the shim reads the
    // variable once.
    std::env::set_var("RAYON_NUM_THREADS", "8");

    for seed in 0..4u64 {
        // Several 128-row blocks and 256-column tiles, with remainders.
        let rows = 400 + 61 * seed as usize;
        let universe = rows - 13 * seed as usize;
        let k = 10;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut table = EmbeddingTable::xavier(rows, 13, &mut rng);
        // Exact duplicates (ties) and zero rows spread over the blocks.
        for i in (5..rows).step_by(37) {
            let src = rng.gen_range(0..i);
            let copy = table.row(src).to_vec();
            table.row_mut(i).copy_from_slice(&copy);
        }
        for i in (3..rows).step_by(151) {
            table.row_mut(i).fill(0.0);
        }

        let cache = HardNegativeCache::build(&table, k, universe, 0.1);
        let again = HardNegativeCache::build(&table, k, universe, 0.1);
        for i in 0..universe {
            assert_eq!(
                cache.neighbors(i),
                oracle_list(&table, i, k, universe).as_slice(),
                "list diverged under 8 threads (seed {seed}, row {i})"
            );
            assert_eq!(
                cache.neighbors(i),
                again.neighbors(i),
                "parallel rebuilds diverged (seed {seed}, row {i})"
            );
        }

        // Every third row (spread over several query blocks), a duplicate
        // and a row past the universe.
        let positives: Vec<usize> = (0..universe).step_by(3).chain([6, rows]).collect();
        let restricted = HardNegativeCache::build_for(&table, &positives, k, universe, 0.1);
        for i in 0..universe {
            let expected = if i % 3 == 0 { cache.neighbors(i) } else { &[] };
            assert_eq!(
                restricted.neighbors(i),
                expected,
                "restricted build diverged under 8 threads (seed {seed}, row {i})"
            );
        }

        // Nudge every 9th row, zero one and move one listed row, then
        // refresh: the merges and rescans must give the fresh build's lists.
        let mut edited = table.clone();
        for i in (seed as usize..rows).step_by(9) {
            edited.row_mut(i)[0] += 0.01;
        }
        edited.row_mut(20).fill(0.0);
        edited.row_mut(33)[1] -= 0.5;
        let mut refreshed = restricted.clone();
        refreshed.refresh(&edited);
        let fresh = HardNegativeCache::build_for(&edited, &positives, k, universe, 0.1);
        for i in 0..universe {
            assert_eq!(
                refreshed.neighbors(i),
                fresh.neighbors(i),
                "refresh diverged under 8 threads (seed {seed}, row {i})"
            );
            if i % 3 == 0 {
                assert_eq!(
                    refreshed.neighbors(i),
                    oracle_list(&edited, i, k, universe).as_slice(),
                    "refresh diverged from the oracle (seed {seed}, row {i})"
                );
            }
        }
    }
}
