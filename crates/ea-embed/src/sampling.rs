//! Negative sampling strategies for margin-based alignment training.
//!
//! TransE-style and GNN-style EA models both learn by contrasting positive
//! triples / alignment pairs against corrupted ("negative") ones. The paper's
//! models differ mainly in *how* they pick negatives:
//!
//! * MTransE / GCN-Align — uniform corruption ([`NegativeSampler`]).
//! * AlignE / Dual-AMN — *hard* negatives: entities whose current embeddings
//!   are close to the positive counterpart, which is what lets those models
//!   distinguish similar entities (paper §V-B5, §V-C4). They draw from a
//!   [`HardNegativeCache`] of nearest-neighbour lists that they refresh every
//!   few epochs.
//!
//! **Cache build = the queried rows against the whole universe.**
//! [`HardNegativeCache::build_for`] gathers the rows a caller will query (for
//! the two models, the seed pairs' target entities) and scores them against
//! every row of the universe with the same tile loop the exact
//! [`crate::CandidateIndex`] engine runs: row norms are computed once, the
//! universe is packed once into element-major row groups
//! ([`crate::kernel::pack_panel`]), every query block streams column tiles of
//! that packed copy through [`crate::kernel::scan_packed`], each tile of dots
//! becomes cosines in one branch-free loop (the query's norm read once, a
//! zero-norm side selected to 0), the cosines go into a bounded
//! [`crate::topk::TopK`] per query, and fixed query blocks fan out over the
//! rayon pool and are concatenated in input order.
//! [`HardNegativeCache::build`] is the same scan with every row queried.
//!
//! **Refresh = rescore only what changed.** The cache keeps a bit-for-bit
//! copy of the universe rows it last scanned, their norms, and each listed
//! row's top `k + 1` entries with scores. [`HardNegativeCache::refresh`]
//! compares the current rows with that copy bit for bit. A listed row whose
//! own bits changed is rescanned against the whole universe. Every other
//! listed row keeps the entries of its list whose rows did not change:
//! their dots are the same bits, so their scores are too. It then scores
//! the changed rows with the same tile loop and cosine, and merges the two
//! best-first lists. Rows that are neither changed nor in the old list rank
//! strictly after the old `(k + 1)`-th entry, so if at least `k + 1` merged
//! entries rank at or before that entry under [`Ranked::rank_cmp`], the
//! merged list is the exact one; if not, that row is rescanned too.
//! `build_for` is a refresh of an empty cache, in which every row has
//! changed. [`HardNegativeCache::listed_rows`] and
//! [`HardNegativeCache::dots`] report the work of the last build or
//! refresh; the dots are the ones actually computed.
//!
//! Each listed row is bit-identical to a naive per-row scan, after a build
//! and after any sequence of refreshes
//! (`crates/ea-embed/tests/prop_hard_negatives.rs` and
//! `tests/prop_refresh.rs` pin this, `tests/hard_negatives_threads.rs` under
//! `RAYON_NUM_THREADS=8`), so the trained tables of both models do not
//! depend on the build strategy, the set of queried rows, the rows a
//! refresh rescans or the worker count.

use crate::candidates::{blocked_topk, DEFAULT_COL_TILE, DEFAULT_ROW_TILE};
use crate::embedding::EmbeddingTable;
use crate::topk::{merge_ranked, Ranked};
use crate::vector;
use rand::Rng;
use std::cmp::Ordering;

/// Anything that can propose negative entities for contrastive training.
///
/// Implemented by [`NegativeSampler`] (stateless uniform sampling) and
/// [`HardNegativeCache`] (precomputed nearest-neighbour lists, used by AlignE
/// and Dual-AMN).
pub trait Negatives {
    /// Samples a negative entity index different from `exclude`, for the
    /// positive entity `positive`. `embeddings` is the table the positive
    /// lives in; the strategies in this module ignore it (the cache reads
    /// the table it was built from).
    fn negative<R: Rng>(
        &self,
        rng: &mut R,
        embeddings: &EmbeddingTable,
        positive: usize,
        exclude: usize,
    ) -> Option<usize>;
}

/// Uniform negative sampling over a fixed candidate entity universe
/// `0..universe`.
#[derive(Debug, Clone)]
pub struct NegativeSampler {
    universe: usize,
}

impl NegativeSampler {
    /// Creates a uniform sampler over `universe` entities.
    pub fn uniform(universe: usize) -> Self {
        NegativeSampler { universe }
    }

    /// Number of candidate entities.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Samples an entity index in `0..universe` different from `exclude`,
    /// uniformly at random.
    ///
    /// Returns `None` when the universe has fewer than two entities (no
    /// negative exists).
    pub fn sample<R: Rng>(&self, rng: &mut R, exclude: usize) -> Option<usize> {
        (self.universe >= 2).then(|| uniform_excluding(rng, self.universe, exclude))
    }
}

impl Negatives for NegativeSampler {
    fn negative<R: Rng>(
        &self,
        rng: &mut R,
        _embeddings: &EmbeddingTable,
        _positive: usize,
        exclude: usize,
    ) -> Option<usize> {
        self.sample(rng, exclude)
    }
}

/// Precomputed hard-negative candidate lists.
///
/// Scanning the full entity table for nearest neighbours on every sample is
/// prohibitively slow inside a training loop; the cache computes, once per
/// refresh, the `k` most similar entities of every row a caller will query
/// (scanned against the whole universe) and then samples from those lists in
/// O(k) without allocating. Models refresh the cache every few epochs so the
/// negatives track the moving embeddings; a refresh rescores only the rows
/// that changed since the last one (see the module docs).
///
/// **Bit-identity contract.** A listed row `i`'s list is exactly what a naive
/// per-row scan of the table last built or refreshed from gives: score every
/// row `j` of `0..universe` by `(dot(i, j) / (‖i‖·‖j‖)).clamp(-1, 1)` (0 when
/// either norm is ≤ `f32::EPSILON`), sort by `(score desc, j asc)`, keep the
/// first `k + 1`, drop `i` itself and take `k`. The build computes it as one
/// blocked, parallel scan of the listed rows against the universe, and a
/// refresh as a merge of unchanged entries with rescored changed rows plus
/// rescans (see the module docs); same dots, same formula, same strict total
/// order, so the lists match the naive scan whatever the tile sizes, the set
/// of listed rows, the edits between refreshes or the worker count. Every
/// listed row holds `min(k, universe - 1)` entries; every other row has an
/// empty list.
#[derive(Debug, Clone)]
pub struct HardNegativeCache {
    /// Row-major lists, `row_len` entries per listed row, in row order.
    neighbors: Vec<u32>,
    /// The top `cap` entries of every listed row with their scores (the row
    /// itself among them where it ranks), `cap` per row in row order: what
    /// a refresh merges rescored rows into.
    ranked: Vec<Ranked>,
    /// The listed rows, ascending; a row's position is its slot.
    listed: Vec<usize>,
    /// Per row of `0..universe`, its slot in `neighbors`, or [`NO_LIST`].
    slots: Vec<u32>,
    /// Bit-for-bit copy of the universe rows the lists were computed from;
    /// no rows before the first refresh.
    snapshot: EmbeddingTable,
    /// `vector::norm` of every snapshot row.
    norms: Vec<f32>,
    /// Entries kept per listed row before it drops itself: `min(k + 1,
    /// universe)`.
    cap: usize,
    row_len: usize,
    uniform_prob: f64,
    universe: usize,
    /// Similarity dots the last build or refresh computed.
    dots: u64,
}

/// The `slots` entry of a row without a list.
const NO_LIST: u32 = u32::MAX;

/// The hard-negative score map: one tile of raw dots of a query with norm
/// `ni` against rows with norms `col_norms` becomes cosines in place. It is
/// branch-free over the tile so the loop vectorises; a zero-norm side
/// selects 0 (the quotient it replaces may be inf or NaN). Builds and
/// refreshes both score through it, so a rescored entry has the bits of a
/// scanned one.
fn cosine_tile(ni: f32, col_norms: &[f32], dots: &mut [f32]) {
    for (d, &nj) in dots.iter_mut().zip(col_norms) {
        let cosine = (*d / (ni * nj)).clamp(-1.0, 1.0);
        let degenerate = ni <= f32::EPSILON || nj <= f32::EPSILON;
        *d = if degenerate { 0.0 } else { cosine };
    }
}

/// The rows `rows` of `table`, copied into a table of their own.
fn gather_rows(
    table: &EmbeddingTable,
    rows: impl ExactSizeIterator<Item = usize>,
) -> EmbeddingTable {
    let n = rows.len();
    let data = rows.flat_map(|r| table.row(r)).copied().collect();
    EmbeddingTable::from_data(n, table.dim(), data)
}

/// Whether two rows hold the same bits (so `0.0` and `-0.0` differ, and a
/// NaN equals only the same NaN).
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl HardNegativeCache {
    /// Builds the cache from the current embeddings: for every row in
    /// `0..universe`, the `k` most cosine-similar other rows.
    pub fn build(table: &EmbeddingTable, k: usize, universe: usize, uniform_prob: f64) -> Self {
        Self::build_for(
            table,
            &(0..universe).collect::<Vec<_>>(),
            k,
            universe,
            uniform_prob,
        )
    }

    /// Builds lists only for the rows in `positives` (duplicates and rows at
    /// or past `universe` are ignored): for each, the `k` most
    /// cosine-similar other rows of `0..universe`, bit-identical to the list
    /// [`Self::build`] gives it. Every other row gets an empty list, and
    /// [`Negatives::negative`] draws for it as for a row outside the
    /// universe. This is [`Self::refresh`] of an empty cache.
    pub fn build_for(
        table: &EmbeddingTable,
        positives: &[usize],
        k: usize,
        universe: usize,
        uniform_prob: f64,
    ) -> Self {
        let universe = universe.min(table.rows());
        let mut listed: Vec<usize> = positives
            .iter()
            .copied()
            .filter(|&r| r < universe)
            .collect();
        listed.sort_unstable();
        listed.dedup();
        // Top `k + 1` so that dropping the row itself still leaves `k`.
        let cap = k.saturating_add(1).min(universe);
        let row_len = k.min(universe.saturating_sub(1));
        let mut slots = vec![NO_LIST; universe];
        for (slot, &i) in listed.iter().enumerate() {
            slots[i] = slot as u32;
        }
        let unset = Ranked {
            score: f32::NAN,
            index: u32::MAX,
        };
        let mut cache = Self {
            neighbors: vec![0; listed.len() * row_len],
            ranked: vec![unset; listed.len() * cap],
            listed,
            slots,
            snapshot: EmbeddingTable::zeros(0, table.dim()),
            norms: Vec::new(),
            cap,
            row_len,
            uniform_prob: uniform_prob.clamp(0.0, 1.0),
            universe,
            dots: 0,
        };
        cache.refresh(table);
        cache
    }

    /// Brings every list up to date with `table`, which must have the
    /// dimension and at least the `universe` rows the cache was built with.
    /// Rows of the universe whose bits differ from the last build or
    /// refresh are rescored; a listed row that changed, or whose list the
    /// rescored rows could push below its old `(k + 1)`-th entry, is
    /// rescanned against the whole universe. The lists are bit-identical to
    /// a fresh [`Self::build_for`] of `table` over the same rows, and
    /// [`Self::dots`] counts the dots computed: 0 when nothing changed.
    ///
    /// # Panics
    /// Panics if `table` has another dimension or fewer than `universe`
    /// rows.
    pub fn refresh(&mut self, table: &EmbeddingTable) {
        assert!(
            table.dim() == self.snapshot.dim() && table.rows() >= self.universe,
            "refresh needs a table of dimension {} with at least {} rows",
            self.snapshot.dim(),
            self.universe
        );
        let universe = self.universe;
        // No snapshot yet (a build): every row has changed.
        let fresh = self.snapshot.rows() != universe;
        let changed: Vec<usize> = (0..universe)
            .filter(|&j| fresh || !same_bits(table.row(j), self.snapshot.row(j)))
            .collect();
        self.dots = 0;
        if changed.is_empty() {
            return;
        }
        if fresh {
            self.snapshot = gather_rows(table, 0..universe);
            self.norms = vec![0.0; universe];
        }
        let mut is_changed = vec![false; universe];
        for &j in &changed {
            self.snapshot.row_mut(j).copy_from_slice(table.row(j));
            self.norms[j] = vector::norm(self.snapshot.row(j));
            is_changed[j] = true;
        }
        let (mut rescan, clean): (Vec<usize>, Vec<usize>) =
            (0..self.listed.len()).partition(|&slot| is_changed[self.listed[slot]]);
        rescan.extend(self.merge_changed(&clean, &changed, &is_changed));
        self.rescan(&rescan);
        for (slot, &i) in self.listed.iter().enumerate() {
            let list = &self.ranked[slot * self.cap..(slot + 1) * self.cap];
            let out = &mut self.neighbors[slot * self.row_len..(slot + 1) * self.row_len];
            let others = list.iter().map(|r| r.index).filter(|&j| j as usize != i);
            let mut written = 0;
            for (o, j) in out.iter_mut().zip(others) {
                *o = j;
                written += 1;
            }
            debug_assert_eq!(written, self.row_len);
        }
    }

    /// Updates the lists of the unchanged listed rows in `clean` (slots)
    /// from the rows in `changed` (ascending; `is_changed` marks them):
    /// each keeps its unchanged entries and merges in its best changed
    /// rows, scored by the same blocked scan and [`cosine_tile`]. Returns
    /// the slots whose merged list cannot be shown exact, which need a
    /// rescan; their lists are left as they were.
    fn merge_changed(
        &mut self,
        clean: &[usize],
        changed: &[usize],
        is_changed: &[bool],
    ) -> Vec<usize> {
        if clean.is_empty() {
            return Vec::new();
        }
        let cap = self.cap;
        let queries = gather_rows(&self.snapshot, clean.iter().map(|&s| self.listed[s]));
        let corpus = gather_rows(&self.snapshot, changed.iter().copied());
        let changed_norms: Vec<f32> = changed.iter().map(|&j| self.norms[j]).collect();
        // `changed` is ascending, so ranking by position ranks by row.
        let best_cap = cap.min(changed.len());
        let best = blocked_topk(
            &queries,
            &corpus,
            best_cap,
            DEFAULT_ROW_TILE,
            DEFAULT_COL_TILE,
            |q, tile_start, dots| {
                let ni = self.norms[self.listed[clean[q]]];
                cosine_tile(ni, &changed_norms[tile_start..], dots);
            },
        );
        self.dots += clean.len() as u64 * changed.len() as u64;
        let mut unresolved = Vec::new();
        for (best, &slot) in best.chunks_exact(best_cap).zip(clean) {
            let old = &mut self.ranked[slot * cap..(slot + 1) * cap];
            let floor = old[cap - 1];
            let kept: Vec<Ranked> = old
                .iter()
                .filter(|r| !is_changed[r.index as usize])
                .copied()
                .collect();
            let rescored: Vec<Ranked> = best
                .iter()
                .map(|r| Ranked {
                    score: r.score,
                    index: changed[r.index as usize] as u32,
                })
                .collect();
            let merged = merge_ranked(&[&kept, &rescored], cap);
            // Every row not merged here is unchanged and was outside the
            // old list, so it ranks strictly after `floor`.
            let every_row_merged = kept.len() + changed.len() == self.universe;
            if every_row_merged || merged[cap - 1].rank_cmp(&floor) != Ordering::Greater {
                old.copy_from_slice(&merged);
            } else {
                unresolved.push(slot);
            }
        }
        unresolved
    }

    /// Rescans the listed rows in `slots` against the whole universe.
    fn rescan(&mut self, slots: &[usize]) {
        if slots.is_empty() {
            return;
        }
        let cap = self.cap;
        let queries = gather_rows(&self.snapshot, slots.iter().map(|&s| self.listed[s]));
        let ranked = blocked_topk(
            &queries,
            &self.snapshot,
            cap,
            DEFAULT_ROW_TILE,
            DEFAULT_COL_TILE,
            |q, tile_start, dots| {
                let ni = self.norms[self.listed[slots[q]]];
                cosine_tile(ni, &self.norms[tile_start..], dots);
            },
        );
        self.dots += slots.len() as u64 * self.universe as u64;
        for (list, &slot) in ranked.chunks_exact(cap).zip(slots) {
            self.ranked[slot * cap..(slot + 1) * cap].copy_from_slice(list);
        }
    }

    /// Number of entities covered by the cache.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Rows the cache keeps a list for (the distinct queried rows inside
    /// the universe).
    pub fn listed_rows(&self) -> usize {
        self.listed.len()
    }

    /// Similarity dots the last build or refresh computed: every listed row
    /// against every row of the universe for a build, and for a refresh the
    /// changed rows against every unchanged listed row plus the rescanned
    /// rows against the universe.
    pub fn dots(&self) -> u64 {
        self.dots
    }

    /// The slot of `row`'s list, if it has one.
    fn slot(&self, row: usize) -> Option<usize> {
        match self.slots.get(row) {
            Some(&slot) if slot != NO_LIST => Some(slot as usize),
            _ => None,
        }
    }

    /// The hard-negative list of `row` (most similar first); empty for rows
    /// outside the universe and rows the cache was not built for.
    pub fn neighbors(&self, row: usize) -> &[u32] {
        match self.slot(row) {
            Some(slot) => &self.neighbors[slot * self.row_len..(slot + 1) * self.row_len],
            None => &[],
        }
    }

    /// The `min(k + 1, universe)` best rows of the universe for `row`, with
    /// their scores, best first: the list [`Self::neighbors`] takes after
    /// dropping `row` itself. Empty for rows without a list.
    pub fn ranked(&self, row: usize) -> &[Ranked] {
        match self.slot(row) {
            Some(slot) => &self.ranked[slot * self.cap..(slot + 1) * self.cap],
            None => &[],
        }
    }
}

impl Negatives for HardNegativeCache {
    fn negative<R: Rng>(
        &self,
        rng: &mut R,
        _embeddings: &EmbeddingTable,
        positive: usize,
        exclude: usize,
    ) -> Option<usize> {
        if self.universe < 2 {
            return None;
        }
        // A row without a list (outside the universe, or not built for)
        // takes one uniform draw and no `gen_bool`.
        if self.slot(positive).is_some() && !rng.gen_bool(self.uniform_prob) {
            // One `gen_range` over the entries other than `exclude`, then
            // pick that entry by position: no per-draw allocation.
            let mut others = self
                .neighbors(positive)
                .iter()
                .map(|&j| j as usize)
                .filter(|&j| j != exclude);
            let count = others.clone().count();
            if count > 0 {
                return others.nth(rng.gen_range(0..count));
            }
        }
        Some(uniform_excluding(rng, self.universe, exclude))
    }
}

fn uniform_excluding<R: Rng>(rng: &mut R, universe: usize, exclude: usize) -> usize {
    loop {
        let candidate = rng.gen_range(0..universe);
        if candidate != exclude {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn clustered_table() -> EmbeddingTable {
        // Rows 0-2 point towards +x, rows 3-5 towards +y.
        let mut t = EmbeddingTable::zeros(6, 2);
        for i in 0..3 {
            t.row_mut(i).copy_from_slice(&[1.0, 0.1 * i as f32]);
        }
        for i in 3..6 {
            t.row_mut(i).copy_from_slice(&[0.1 * (i - 3) as f32, 1.0]);
        }
        t
    }

    #[test]
    fn uniform_sampler_never_returns_excluded() {
        let sampler = NegativeSampler::uniform(10);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..200 {
            let s = sampler.sample(&mut rng, 3).unwrap();
            assert_ne!(s, 3);
            assert!(s < 10);
        }
    }

    #[test]
    fn uniform_sampler_on_tiny_universe() {
        let sampler = NegativeSampler::uniform(1);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(sampler.sample(&mut rng, 0), None);
    }

    #[test]
    fn sampler_universe_accessor() {
        assert_eq!(NegativeSampler::uniform(5).universe(), 5);
    }

    #[test]
    fn hard_cache_prefers_similar_rows() {
        let table = clustered_table();
        let cache = HardNegativeCache::build(&table, 2, 6, 0.0);
        assert_eq!(cache.universe(), 6);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = vec![0usize; 6];
        for _ in 0..300 {
            let s = cache.negative(&mut rng, &table, 0, 0).unwrap();
            counts[s] += 1;
        }
        let x_cluster = counts[1] + counts[2];
        let y_cluster = counts[3] + counts[4] + counts[5];
        assert!(
            x_cluster > y_cluster,
            "cache ignored similarity: {counts:?}"
        );
    }

    #[test]
    fn cache_reports_rows_listed_and_dots() {
        let table = clustered_table();
        // Duplicates and rows past the universe are not listed.
        let cache = HardNegativeCache::build_for(&table, &[4, 1, 4, 9], 2, 6, 0.0);
        assert_eq!((cache.listed_rows(), cache.dots()), (2, 2 * 6));
        let full = HardNegativeCache::build(&table, 2, 6, 0.0);
        assert_eq!((full.listed_rows(), full.dots()), (6, 6 * 6));
    }

    #[test]
    fn hard_cache_excludes_requested_entity() {
        let table = clustered_table();
        let cache = HardNegativeCache::build(&table, 3, 6, 0.0);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let s = cache.negative(&mut rng, &table, 2, 1).unwrap();
            assert_ne!(s, 1);
        }
    }

    #[test]
    fn hard_cache_tiny_universe_returns_none() {
        let table = EmbeddingTable::zeros(1, 2);
        let cache = HardNegativeCache::build(&table, 3, 1, 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(cache.negative(&mut rng, &table, 0, 0), None);
    }

    #[test]
    fn negatives_trait_is_object_usable_through_generics() {
        fn draw<N: Negatives>(n: &N, table: &EmbeddingTable) -> Option<usize> {
            let mut rng = StdRng::seed_from_u64(1);
            n.negative(&mut rng, table, 0, 0)
        }
        let table = clustered_table();
        assert!(draw(&NegativeSampler::uniform(6), &table).is_some());
        assert!(draw(&HardNegativeCache::build(&table, 2, 6, 0.1), &table).is_some());
    }
}
