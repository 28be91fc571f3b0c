//! Property suite pinning [`HardNegativeCache::build`] — one blocked,
//! parallel self-join — to the naive per-row oracle it replaced: for every
//! row, score all rows of the universe with [`vector::cosine`] (norms derived
//! per pair), fully sort by `(score desc, row asc)`, keep `k + 1`, drop the
//! row itself and take `k`. Lists must match entry for entry, including
//! exact score ties (duplicated rows), zero-norm rows, NaN rows, odd
//! dimensions, `k ≥ universe`, a universe smaller than the table and
//! universes of 0, 1 and 2 rows. The cache's allocation-free draw is pinned
//! against the collect-then-index draw on the same RNG stream.
//!
//! [`HardNegativeCache::build_for`] — the same scan restricted to the rows a
//! caller queries — is pinned against both: every listed row equals the full
//! build's list and the oracle's, every other row is empty, and draws
//! consume the RNG stream exactly as the full build's do.

use ea_embed::{order, vector, EmbeddingTable, HardNegativeCache, Negatives};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Indexes of the `k` rows of `table` (restricted to `0..universe`) most
/// similar to row `query` by cosine similarity, in decreasing similarity
/// order; the query row itself may be included. Per-pair norms, full sort.
fn nearest_rows(table: &EmbeddingTable, query: usize, k: usize, universe: usize) -> Vec<usize> {
    let universe = universe.min(table.rows());
    let q = table.row(query);
    let mut scored: Vec<(usize, f32)> = (0..universe)
        .map(|j| (j, vector::cosine(q, table.row(j))))
        .collect();
    scored.sort_unstable_by(|a, b| order::desc_f32(a.1, b.1).then(a.0.cmp(&b.0)));
    scored.into_iter().take(k).map(|(j, _)| j).collect()
}

/// The oracle's hard-negative list of row `i`.
fn oracle_list(table: &EmbeddingTable, i: usize, k: usize, universe: usize) -> Vec<u32> {
    nearest_rows(table, i, k.saturating_add(1), universe)
        .into_iter()
        .filter(|&j| j != i)
        .map(|j| j as u32)
        .take(k)
        .collect()
}

fn assert_matches_oracle(table: &EmbeddingTable, k: usize, universe: usize) {
    let cache = HardNegativeCache::build(table, k, universe, 0.3);
    let universe = universe.min(table.rows());
    assert_eq!(cache.universe(), universe);
    for i in 0..universe {
        assert_eq!(
            cache.neighbors(i),
            oracle_list(table, i, k, universe).as_slice(),
            "row {i} (k {k}, universe {universe})"
        );
    }
    assert!(cache.neighbors(universe).is_empty());
}

/// Pins `build_for(positives)` to the full build and the oracle: rows of
/// `positives` inside the universe carry the full build's list (and the
/// oracle's), every other row is empty; on one seeded RNG stream, draws for
/// covered positives match the full build's and draws for uncovered ones
/// match the full build's draws for a positive outside the universe.
fn assert_build_for_matches(
    table: &EmbeddingTable,
    positives: &[usize],
    k: usize,
    universe: usize,
    uniform_prob: f64,
    rng_seed: u64,
) {
    let restricted = HardNegativeCache::build_for(table, positives, k, universe, uniform_prob);
    let full = HardNegativeCache::build(table, k, universe, uniform_prob);
    let universe = universe.min(table.rows());
    assert_eq!(restricted.universe(), universe);
    let (covered, uncovered): (Vec<usize>, Vec<usize>) =
        (0..universe).partition(|row| positives.contains(row));
    for &i in &covered {
        assert_eq!(restricted.neighbors(i), full.neighbors(i), "row {i}");
        assert_eq!(
            restricted.neighbors(i),
            oracle_list(table, i, k, universe).as_slice(),
            "row {i} (k {k}, universe {universe})"
        );
    }
    for &i in uncovered.iter().chain(&[universe, universe + 1]) {
        assert!(restricted.neighbors(i).is_empty(), "row {i} is not listed");
    }
    let mut a = StdRng::seed_from_u64(rng_seed);
    let mut b = StdRng::seed_from_u64(rng_seed);
    for draw in 0..120usize {
        let exclude = (draw * 7) % universe.max(1);
        if !covered.is_empty() {
            let positive = covered[draw % covered.len()];
            assert_eq!(
                restricted.negative(&mut a, table, positive, exclude),
                full.negative(&mut b, table, positive, exclude),
                "covered draw {draw}"
            );
        }
        if !uncovered.is_empty() {
            let positive = uncovered[draw % uncovered.len()];
            assert_eq!(
                restricted.negative(&mut a, table, positive, exclude),
                full.negative(&mut b, table, universe, exclude),
                "uncovered draw {draw}"
            );
        }
    }
}

/// A random table with degenerate rows mixed in: per row, with the given
/// per-mille odds, a zero-norm row (all zeros, or Xavier noise scaled so its
/// norm is nonzero but below `f32::EPSILON`), an exact copy of an earlier
/// row (exact score ties) or a NaN row; otherwise Xavier noise.
fn degenerate_table(
    seed: u64,
    rows: usize,
    dim: usize,
    zero_pm: u32,
    dup_pm: u32,
    nan_pm: u32,
) -> EmbeddingTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table = EmbeddingTable::xavier(rows, dim, &mut rng);
    for i in 0..rows {
        let roll = rng.gen_range(0..1000u32);
        if roll < zero_pm {
            let scale = if roll % 2 == 0 { 0.0 } else { 1e-9 };
            table.row_mut(i).iter_mut().for_each(|x| *x *= scale);
        } else if roll < zero_pm + dup_pm && i > 0 {
            let src = rng.gen_range(0..i);
            let copy = table.row(src).to_vec();
            table.row_mut(i).copy_from_slice(&copy);
        } else if roll < zero_pm + dup_pm + nan_pm {
            table.row_mut(i)[0] = f32::NAN;
        }
    }
    table
}

/// The draw the cache made before it became allocation-free: collect the
/// list entries other than `exclude`, then index them with one `gen_range`.
fn collect_then_index_draw<R: Rng>(
    cache: &HardNegativeCache,
    uniform_prob: f64,
    rng: &mut R,
    positive: usize,
    exclude: usize,
) -> Option<usize> {
    let universe = cache.universe();
    if universe < 2 {
        return None;
    }
    if positive < universe && !rng.gen_bool(uniform_prob) {
        let list: Vec<usize> = cache
            .neighbors(positive)
            .iter()
            .map(|&j| j as usize)
            .filter(|&j| j != exclude)
            .collect();
        if !list.is_empty() {
            return Some(list[rng.gen_range(0..list.len())]);
        }
    }
    loop {
        let candidate = rng.gen_range(0..universe);
        if candidate != exclude {
            return Some(candidate);
        }
    }
}

#[test]
fn nearest_rows_orders_by_similarity() {
    // Rows 0-2 point towards +x, rows 3-5 towards +y.
    let mut table = EmbeddingTable::zeros(6, 2);
    for i in 0..3 {
        table.row_mut(i).copy_from_slice(&[1.0, 0.1 * i as f32]);
    }
    for i in 3..6 {
        table
            .row_mut(i)
            .copy_from_slice(&[0.1 * (i - 3) as f32, 1.0]);
    }
    let nn = nearest_rows(&table, 0, 3, 6);
    assert_eq!(nn, vec![0, 1, 2], "itself first, then its own cluster");
    // Restricting the universe excludes later rows entirely.
    let nn_small = nearest_rows(&table, 0, 6, 3);
    assert!(nn_small.iter().all(|&i| i < 3));
    // The blocked build agrees.
    assert_matches_oracle(&table, 2, 6);
    assert_matches_oracle(&table, 6, 3);
}

#[test]
fn tiny_universes_match_the_oracle() {
    let table = degenerate_table(3, 5, 3, 0, 0, 0);
    for universe in 0..=2 {
        for k in [0, 1, 2, 5] {
            assert_matches_oracle(&table, k, universe);
        }
    }
    let mut rng = StdRng::seed_from_u64(0);
    for universe in 0..=1 {
        let cache = HardNegativeCache::build(&table, 3, universe, 0.0);
        assert_eq!(cache.negative(&mut rng, &table, 0, 0), None);
    }
    let two = HardNegativeCache::build(&table, 3, 2, 0.0);
    assert_eq!(two.neighbors(0), &[1]);
    assert_eq!(two.negative(&mut rng, &table, 0, 0), Some(1));
}

#[test]
fn all_zero_and_all_equal_tables_rank_by_row() {
    // Every score is 0 (zero rows) or identical (equal rows): the lists are
    // the lowest-numbered other rows.
    let zeros = EmbeddingTable::zeros(300, 5);
    let mut equal = EmbeddingTable::zeros(300, 5);
    for i in 0..300 {
        equal
            .row_mut(i)
            .copy_from_slice(&[0.5, -1.0, 2.0, 0.25, 1.5]);
    }
    for table in [&zeros, &equal] {
        let cache = HardNegativeCache::build(table, 3, 300, 0.0);
        assert_eq!(cache.neighbors(0), &[1, 2, 3]);
        assert_eq!(cache.neighbors(2), &[0, 1, 3]);
        assert_eq!(cache.neighbors(299), &[0, 1, 2]);
        assert_matches_oracle(table, 3, 300);
    }
}

#[test]
fn build_for_empty_and_out_of_universe_sets_list_nothing() {
    let table = degenerate_table(9, 50, 6, 40, 200, 0);
    for positives in [&[][..], &[40, 45, 49, 400][..]] {
        let cache = HardNegativeCache::build_for(&table, positives, 4, 40, 0.3);
        assert!((0..52).all(|i| cache.neighbors(i).is_empty()));
        assert_build_for_matches(&table, positives, 4, 40, 0.3, 5);
    }
    // Duplicates collapse onto one list.
    assert_build_for_matches(&table, &[3, 3, 17, 3, 39, 17], 4, 40, 0.3, 6);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `build_for` over drawn row sets — with duplicates, rows past the
    /// universe and the empty set — on tables with zero and duplicated rows
    /// and universes up to the table's length.
    #[test]
    fn build_for_matches_build_and_oracle(
        seed in 0u64..10_000,
        rows in 1usize..300,
        universe_cut in 0usize..300,
        dim in 1usize..10,
        k in 0usize..12,
        zero_pm in 0u32..150,
        dup_pm in 0u32..300,
        drawn in proptest::collection::vec(0usize..360, 0..40),
        repeat in 0usize..40,
        uniform_pm in 0u32..1000,
    ) {
        let table = degenerate_table(seed, rows, dim, zero_pm, dup_pm, 0);
        let universe = universe_cut % (rows + 1);
        let mut positives = drawn.clone();
        positives.extend_from_slice(&drawn[..repeat.min(drawn.len())]);
        let uniform_prob = f64::from(uniform_pm) / 1000.0;
        assert_build_for_matches(&table, &positives, k, universe, uniform_prob, seed ^ 0x5eed);
    }

    /// Core contract on tables large enough to span several row blocks and
    /// column tiles of the self-join, with zero rows, duplicated rows and
    /// NaN rows mixed in and odd and even dimensions.
    #[test]
    fn blocked_build_matches_naive_oracle(
        seed in 0u64..10_000,
        rows in 1usize..420,
        dim in 1usize..12,
        k in 0usize..14,
        zero_pm in 0u32..120,
        dup_pm in 0u32..250,
        nan_pm in 0u32..20,
    ) {
        let table = degenerate_table(seed, rows, dim, zero_pm, dup_pm, nan_pm);
        assert_matches_oracle(&table, k, rows);
    }

    /// `k` at or past the universe keeps every other row; a universe smaller
    /// than the table only ever sees its own prefix.
    #[test]
    fn large_k_and_short_universes_match_oracle(
        seed in 0u64..10_000,
        rows in 1usize..300,
        universe_cut in 0usize..300,
        dim in 1usize..8,
        k_extra in 0usize..4,
        dup_pm in 0u32..400,
    ) {
        let table = degenerate_table(seed, rows, dim, 30, dup_pm, 0);
        let universe = universe_cut % (rows + 1);
        assert_matches_oracle(&table, universe + k_extra, universe);
        assert_matches_oracle(&table, 5, universe);
    }

    /// The allocation-free draw consumes the RNG stream exactly like the
    /// collect-then-index draw, so the same seed yields the same negatives.
    #[test]
    fn draws_match_collect_then_index(
        seed in 0u64..10_000,
        rows in 1usize..40,
        k in 0usize..8,
        uniform_pm in 0u32..1000,
    ) {
        let table = degenerate_table(seed, rows, 4, 50, 200, 0);
        let uniform_prob = f64::from(uniform_pm) / 1000.0;
        let cache = HardNegativeCache::build(&table, k, rows, uniform_prob);
        let mut a = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut b = StdRng::seed_from_u64(seed ^ 0x5eed);
        for draw in 0..200usize {
            let positive = draw % (rows + 1);
            let exclude = (draw * 7) % rows;
            prop_assert_eq!(
                cache.negative(&mut a, &table, positive, exclude),
                collect_then_index_draw(&cache, uniform_prob, &mut b, positive, exclude),
                "draw {}", draw
            );
        }
    }
}

/// FNV-1a (64-bit) over the universe and every row's neighbour list.
fn neighbors_digest(cache: &HardNegativeCache) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    feed(&(cache.universe() as u64).to_le_bytes());
    for i in 0..cache.universe() {
        for &j in cache.neighbors(i) {
            feed(&j.to_le_bytes());
        }
    }
    hash
}

/// Fixed 300×64 table (300 is not a multiple of any scan group width): Xavier
/// noise with rows 7, 150 and 299 zeroed and rows 41 and 263 exact copies of
/// rows 40 and 17. The digest was captured before the blocked scan moved to
/// the packed panel kernel; any scan change must keep every list.
#[test]
fn seeded_300x64_build_is_pinned() {
    let mut rng = StdRng::seed_from_u64(0x00ea_0300);
    let mut table = EmbeddingTable::xavier(300, 64, &mut rng);
    for zero in [7, 150, 299] {
        table.row_mut(zero).fill(0.0);
    }
    for (dst, src) in [(41, 40), (263, 17)] {
        let copy = table.row(src).to_vec();
        table.row_mut(dst).copy_from_slice(&copy);
    }
    let cache = HardNegativeCache::build(&table, 10, 300, 0.0);
    assert_eq!(
        cache.neighbors(40)[0],
        41,
        "a duplicate is its row's nearest"
    );
    let digest = neighbors_digest(&cache);
    assert_eq!(
        digest, 0xc92f_757c_9535_4f34,
        "neighbour digest: {digest:#018x}"
    );
}
