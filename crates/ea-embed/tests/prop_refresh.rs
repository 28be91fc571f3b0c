//! Property suite pinning [`HardNegativeCache::refresh`] — the incremental
//! update that rescores only the rows whose bits changed — to a fresh
//! [`HardNegativeCache::build_for`] of the edited table and to the naive
//! per-row oracle: after every refresh of a random edit sequence, every
//! row's neighbour ids and the score bits of its `k + 1` ranked entries must
//! match both. The edits cover no-op rewrites, `0.0` ↔ `-0.0`, zero and NaN
//! rows, duplicated rows, exact ties with a list's `(k + 1)`-th entry, list
//! members that fall below the old floor (which forces a rescan), universes
//! smaller than the table, `k ≥ universe − 1`, and universes of 0 and 1
//! rows. The dot counts pin that an unchanged table costs nothing and that
//! an unchanged row whose list cannot be proven exact is rescanned.

use ea_embed::{order, vector, EmbeddingTable, HardNegativeCache};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The oracle's ranked entries of row `i`: every row of `0..universe`
/// scored by [`vector::cosine`], fully sorted by `(score desc, row asc)`,
/// the first `min(k + 1, universe)` kept, as `(row, score bits)`.
fn oracle_ranked(table: &EmbeddingTable, i: usize, k: usize, universe: usize) -> Vec<(u32, u32)> {
    let q = table.row(i);
    let mut scored: Vec<(usize, f32)> = (0..universe)
        .map(|j| (j, vector::cosine(q, table.row(j))))
        .collect();
    scored.sort_unstable_by(|a, b| order::desc_f32(a.1, b.1).then(a.0.cmp(&b.0)));
    scored
        .into_iter()
        .take(k.saturating_add(1))
        .map(|(j, s)| (j as u32, s.to_bits()))
        .collect()
}

/// `(row, score bits)` of a cache's ranked entries for `row`.
fn ranked_bits(cache: &HardNegativeCache, row: usize) -> Vec<(u32, u32)> {
    cache
        .ranked(row)
        .iter()
        .map(|r| (r.index, r.score.to_bits()))
        .collect()
}

/// Pins `cache` (refreshed from `table`) to a fresh `build_for` of `table`
/// over the same rows and to the oracle.
fn assert_exact(
    cache: &HardNegativeCache,
    table: &EmbeddingTable,
    positives: &[usize],
    k: usize,
    universe: usize,
    context: &str,
) {
    let fresh = HardNegativeCache::build_for(table, positives, k, universe, 0.3);
    let universe = universe.min(table.rows());
    assert_eq!(cache.universe(), universe, "{context}");
    assert_eq!(cache.listed_rows(), fresh.listed_rows(), "{context}");
    for i in 0..universe + 2 {
        assert_eq!(cache.neighbors(i), fresh.neighbors(i), "{context}: row {i}");
        assert_eq!(
            ranked_bits(cache, i),
            ranked_bits(&fresh, i),
            "{context}: ranked row {i}"
        );
        if !fresh.ranked(i).is_empty() {
            let oracle = oracle_ranked(table, i, k, universe);
            assert_eq!(ranked_bits(cache, i), oracle, "{context}: oracle row {i}");
            let list: Vec<u32> = oracle
                .iter()
                .map(|&(j, _)| j)
                .filter(|&j| j as usize != i)
                .take(k)
                .collect();
            assert_eq!(cache.neighbors(i), list.as_slice(), "{context}: list {i}");
        }
    }
}

/// Xavier noise with a few zero rows and exact duplicates mixed in.
fn seeded_table(seed: u64, rows: usize, dim: usize) -> EmbeddingTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table = EmbeddingTable::xavier(rows, dim, &mut rng);
    for i in 0..rows {
        match rng.gen_range(0..20u32) {
            0 => table.row_mut(i).fill(0.0),
            1 if i > 0 => {
                let copy = table.row(rng.gen_range(0..i)).to_vec();
                table.row_mut(i).copy_from_slice(&copy);
            }
            _ => {}
        }
    }
    table
}

/// One edit of the table between refreshes.
#[derive(Debug, Clone)]
enum Edit {
    /// Rewrite a row with its own values: no bit changes.
    Rewrite(usize),
    /// Set one element to `0.0` or `-0.0`.
    SignedZero {
        row: usize,
        elem: usize,
        negative: bool,
    },
    /// All zeros.
    ZeroRow(usize),
    /// A NaN in the first element.
    NanRow(usize),
    /// An exact copy of another row.
    Duplicate { dst: usize, src: usize },
    /// Small noise: the row usually stays where it ranked.
    Nudge { row: usize, seed: u64 },
    /// A copy of the `(k + 1)`-th ranked row of a listed row's list: an
    /// exact tie with that list's floor.
    TieFloor { listed: usize, dst: usize },
    /// Move a member of a listed row's list opposite to that row, so it
    /// falls below the old floor.
    Sink { listed: usize, member: usize },
}

/// Applies `edit` to `table`; `listed` and `cache` resolve the edits that
/// target a list.
fn apply(edit: &Edit, table: &mut EmbeddingTable, cache: &HardNegativeCache, listed: &[usize]) {
    let rows = table.rows();
    let dim = table.dim();
    match *edit {
        Edit::Rewrite(r) => {
            let copy = table.row(r % rows).to_vec();
            table.row_mut(r % rows).copy_from_slice(&copy);
        }
        Edit::SignedZero {
            row,
            elem,
            negative,
        } => {
            table.row_mut(row % rows)[elem % dim] = if negative { -0.0 } else { 0.0 };
        }
        Edit::ZeroRow(r) => table.row_mut(r % rows).fill(0.0),
        Edit::NanRow(r) => table.row_mut(r % rows)[0] = f32::NAN,
        Edit::Duplicate { dst, src } => {
            let copy = table.row(src % rows).to_vec();
            table.row_mut(dst % rows).copy_from_slice(&copy);
        }
        Edit::Nudge { row, seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            for x in table.row_mut(row % rows) {
                *x += rng.gen_range(-0.01f32..0.01);
            }
        }
        Edit::TieFloor { listed: l, dst } => {
            if let Some(&i) = listed.get(l % listed.len().max(1)) {
                if let Some(floor) = cache.ranked(i).last() {
                    let copy = table.row(floor.index as usize).to_vec();
                    table.row_mut(dst % rows).copy_from_slice(&copy);
                }
            }
        }
        Edit::Sink { listed: l, member } => {
            if let Some(&i) = listed.get(l % listed.len().max(1)) {
                let list = cache.neighbors(i);
                if !list.is_empty() {
                    let m = list[member % list.len()] as usize;
                    let opposite: Vec<f32> = table.row(i).iter().map(|x| -x).collect();
                    table.row_mut(m).copy_from_slice(&opposite);
                }
            }
        }
    }
}

/// Edits of every kind, with row and element picks reduced modulo the
/// table's shape (and list picks modulo the listed rows) when applied.
fn edit_strategy() -> impl Strategy<Value = Edit> {
    (0u8..8, 0usize..400, 0usize..400, 0u64..u64::MAX).prop_map(|(kind, a, b, seed)| match kind {
        0 => Edit::Rewrite(a),
        1 => Edit::SignedZero {
            row: a,
            elem: b,
            negative: seed % 2 == 0,
        },
        2 => Edit::ZeroRow(a),
        3 => Edit::NanRow(a),
        4 => Edit::Duplicate { dst: a, src: b },
        5 => Edit::Nudge { row: a, seed },
        6 => Edit::TieFloor { listed: a, dst: b },
        _ => Edit::Sink {
            listed: a,
            member: b,
        },
    })
}

/// The distinct rows of `positives` inside the universe, ascending: the
/// rows a cache over them lists.
fn listed_rows(positives: &[usize], universe: usize) -> Vec<usize> {
    let mut listed: Vec<usize> = positives
        .iter()
        .copied()
        .filter(|&r| r < universe)
        .collect();
    listed.sort_unstable();
    listed.dedup();
    listed
}

/// Builds over `positives`, then runs `rounds` of edits, each followed by
/// a refresh that must match a fresh build and the oracle.
fn run_rounds(
    mut table: EmbeddingTable,
    positives: &[usize],
    k: usize,
    universe: usize,
    rounds: &[Vec<Edit>],
) {
    let mut cache = HardNegativeCache::build_for(&table, positives, k, universe, 0.3);
    assert_exact(&cache, &table, positives, k, universe, "build");
    let listed = listed_rows(positives, cache.universe());
    for (round, edits) in rounds.iter().enumerate() {
        for edit in edits {
            apply(edit, &mut table, &cache, &listed);
        }
        cache.refresh(&table);
        assert_exact(
            &cache,
            &table,
            positives,
            k,
            universe,
            &format!("round {round} after {edits:?}"),
        );
    }
}

#[test]
fn refresh_of_an_unchanged_table_computes_no_dots() {
    let table = seeded_table(1, 300, 16);
    let positives: Vec<usize> = (0..300).step_by(4).collect();
    let mut cache = HardNegativeCache::build_for(&table, &positives, 10, 300, 0.3);
    assert_eq!(cache.dots(), 75 * 300);
    cache.refresh(&table);
    assert_eq!(cache.dots(), 0);
    assert_exact(&cache, &table, &positives, 10, 300, "unchanged");
    // Rewriting rows with their own bits is no change either.
    let mut rewritten = table.clone();
    for r in 0..300 {
        let copy = rewritten.row(r).to_vec();
        rewritten.row_mut(r).copy_from_slice(&copy);
    }
    cache.refresh(&rewritten);
    assert_eq!(cache.dots(), 0);
    assert_eq!(cache.listed_rows(), 75);
}

#[test]
fn signed_zero_is_a_change() {
    let mut table = seeded_table(2, 120, 8);
    table.row_mut(40).fill(0.0);
    let positives = [3, 50, 90];
    let mut cache = HardNegativeCache::build_for(&table, &positives, 5, 120, 0.3);
    table.row_mut(40)[2] = -0.0;
    cache.refresh(&table);
    // Row 40 is rescored against the three clean lists; a zero row scores
    // 0, which cannot displace their floors here.
    assert_eq!(cache.dots(), 3);
    assert_exact(&cache, &table, &positives, 5, 120, "-0.0");
    table.row_mut(40)[2] = 0.0;
    cache.refresh(&table);
    assert_eq!(cache.dots(), 3);
    assert_exact(&cache, &table, &positives, 5, 120, "+0.0");
}

#[test]
fn a_member_sinking_below_the_floor_forces_a_rescan() {
    let mut table = seeded_table(3, 200, 12);
    let (i, k, universe) = (17, 6, 200);
    let mut cache = HardNegativeCache::build_for(&table, &[i], k, universe, 0.3);
    let member = cache.neighbors(i)[2] as usize;
    let opposite: Vec<f32> = table.row(i).iter().map(|x| -x).collect();
    table.row_mut(member).copy_from_slice(&opposite);
    cache.refresh(&table);
    // One rescored dot, then the whole universe.
    assert_eq!(cache.dots(), 1 + universe as u64);
    assert!(!cache.neighbors(i).contains(&(member as u32)));
    assert_exact(&cache, &table, &[i], k, universe, "sunk member");

    // A non-member that stays out needs no rescan.
    let outsider = (0..universe)
        .find(|&j| j != i && !cache.ranked(i).iter().any(|r| r.index as usize == j))
        .unwrap();
    let opposite: Vec<f32> = table.row(i).iter().map(|x| -x).collect();
    table.row_mut(outsider).copy_from_slice(&opposite);
    cache.refresh(&table);
    assert_eq!(cache.dots(), 1);
    assert_exact(&cache, &table, &[i], k, universe, "sunk outsider");

    // A changed query row is rescanned outright.
    table.row_mut(i)[0] += 0.5;
    cache.refresh(&table);
    assert_eq!(cache.dots(), universe as u64);
    assert_exact(&cache, &table, &[i], k, universe, "moved query");
}

#[test]
fn ties_with_the_floor_merge_without_a_rescan() {
    let table = seeded_table(4, 150, 10);
    let (k, universe) = (8, 150);
    for i in [5, 60, 149] {
        let cache = HardNegativeCache::build_for(&table, &[i], k, universe, 0.3);
        let floor = *cache.ranked(i).last().unwrap();
        let outside: Vec<usize> = (0..universe)
            .filter(|&j| j != i && !cache.ranked(i).iter().any(|r| r.index as usize == j))
            .collect();
        // A row outside the list becomes an exact copy of the floor row:
        // below the floor's index it displaces the floor, above it it
        // ranks next. Either way the merge is exact without a rescan.
        for dst in [outside[0], outside[outside.len() - 1]] {
            let mut edited = table.clone();
            let copy = edited.row(floor.index as usize).to_vec();
            edited.row_mut(dst).copy_from_slice(&copy);
            let mut refreshed = cache.clone();
            refreshed.refresh(&edited);
            assert_eq!(refreshed.dots(), 1, "row {i}, copy at {dst}");
            assert_exact(&refreshed, &edited, &[i], k, universe, "floor tie");
            let displaced = dst < floor.index as usize;
            assert_eq!(
                refreshed.ranked(i).iter().any(|r| r.index as usize == dst),
                displaced,
                "row {i}, copy at {dst}"
            );
        }
    }
}

#[test]
fn tiny_universes_and_large_k_refresh_exactly() {
    for universe in 0..=3 {
        for k in [0, 1, 2, 5] {
            let mut table = seeded_table(5, 6, 3);
            let positives = [0, 1, 2, 4];
            let mut cache = HardNegativeCache::build_for(&table, &positives, k, universe, 0.3);
            for (round, r) in [1usize, 0, 2, 5].into_iter().enumerate() {
                table.row_mut(r)[round % 3] += 0.75;
                cache.refresh(&table);
                assert_exact(
                    &cache,
                    &table,
                    &positives,
                    k,
                    universe,
                    &format!("universe {universe}, k {k}, round {round}"),
                );
            }
        }
    }
}

#[test]
fn zero_width_rows_rank_by_row() {
    let table = EmbeddingTable::zeros(5, 0);
    let mut cache = HardNegativeCache::build_for(&table, &[1, 3], 2, 5, 0.3);
    assert_eq!(cache.neighbors(1), &[0, 2]);
    cache.refresh(&table);
    assert_eq!(cache.dots(), 0);
    assert_exact(&cache, &table, &[1, 3], 2, 5, "zero width");
}

#[test]
fn rows_past_the_universe_are_not_watched() {
    let mut table = seeded_table(6, 80, 6);
    let mut cache = HardNegativeCache::build_for(&table, &[1, 10, 70], 4, 50, 0.3);
    table.row_mut(60).fill(3.0);
    table.row_mut(79)[0] = f32::NAN;
    cache.refresh(&table);
    assert_eq!(cache.dots(), 0);
    assert_exact(&cache, &table, &[1, 10, 70], 4, 50, "past universe");
}

#[test]
#[should_panic(expected = "refresh needs a table")]
fn refresh_rejects_a_shorter_table() {
    let table = seeded_table(7, 20, 4);
    let mut cache = HardNegativeCache::build(&table, 3, 20, 0.3);
    cache.refresh(&seeded_table(7, 19, 4));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random edit sequences on tables that span several row blocks and
    /// column tiles, with universes up to the table's length.
    #[test]
    fn refresh_matches_a_fresh_build_and_the_oracle(
        seed in 0u64..10_000,
        rows in 1usize..400,
        universe_cut in 0usize..400,
        dim in 1usize..12,
        k in 0usize..12,
        positives in proptest::collection::vec(0usize..440, 0..64),
        rounds in proptest::collection::vec(
            proptest::collection::vec(edit_strategy(), 0..12),
            1..5,
        ),
    ) {
        let table = seeded_table(seed, rows, dim);
        let universe = universe_cut % (rows + 1);
        run_rounds(table, &positives, k, universe, &rounds);
    }

    /// `k` at or past `universe - 1`: every row is in every list, so a
    /// clean row's merge always covers the universe.
    #[test]
    fn large_k_refreshes_match(
        seed in 0u64..10_000,
        rows in 1usize..60,
        dim in 1usize..6,
        k_extra in 0usize..3,
        positives in proptest::collection::vec(0usize..60, 0..20),
        rounds in proptest::collection::vec(
            proptest::collection::vec(edit_strategy(), 0..6),
            1..4,
        ),
    ) {
        let table = seeded_table(seed, rows, dim);
        run_rounds(table, &positives, rows.saturating_sub(1) + k_extra, rows, &rounds);
    }

    /// Mostly small nudges, as in training: most refreshes merge, and the
    /// work is never more than a full rebuild plus the merge attempts.
    #[test]
    fn nudged_refreshes_match(
        seed in 0u64..10_000,
        rows in 2usize..300,
        k in 1usize..12,
        nudged in proptest::collection::vec((0usize..300, 0u64..u64::MAX), 0..30),
    ) {
        let mut table = seeded_table(seed, rows, 8);
        let positives: Vec<usize> = (0..rows).step_by(3).collect();
        let mut cache = HardNegativeCache::build_for(&table, &positives, k, rows, 0.3);
        for &(row, nudge) in &nudged {
            apply(&Edit::Nudge { row, seed: nudge }, &mut table, &cache, &positives);
        }
        let mut changed: Vec<usize> = nudged.iter().map(|&(r, _)| r % rows).collect();
        changed.sort_unstable();
        changed.dedup();
        cache.refresh(&table);
        let listed = positives.len() as u64;
        prop_assert!(cache.dots() <= listed * (changed.len() + rows) as u64);
        assert_exact(&cache, &table, &positives, k, rows, "nudged");
    }
}
