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
//!   [`HardNegativeCache`] of nearest-neighbour lists that they rebuild every
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
//! [`HardNegativeCache::listed_rows`] and [`HardNegativeCache::dots`] report
//! the work of a build.
//! [`HardNegativeCache::build`] is the same scan with every row queried.
//! Each listed row is bit-identical to a naive per-row scan
//! (`crates/ea-embed/tests/prop_hard_negatives.rs` pins this,
//! `tests/hard_negatives_threads.rs` under `RAYON_NUM_THREADS=8`), so the
//! trained tables of both models do not depend on the build strategy, the
//! set of queried rows or the worker count.

use crate::candidates::{blocked_topk, DEFAULT_COL_TILE, DEFAULT_ROW_TILE};
use crate::embedding::EmbeddingTable;
use crate::vector;
use rand::Rng;

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
/// O(k) without allocating. Models rebuild the cache every few epochs so the
/// negatives track the moving embeddings.
///
/// **Bit-identity contract.** A listed row `i`'s list is exactly what a naive
/// per-row scan gives: score every row `j` of `0..universe` by
/// `(dot(i, j) / (‖i‖·‖j‖)).clamp(-1, 1)` (0 when either norm is
/// ≤ `f32::EPSILON`), sort by `(score desc, j asc)`, keep the first `k + 1`,
/// drop `i` itself and take `k`. The build computes it as one blocked,
/// parallel scan of the listed rows against the universe (see the module
/// docs); same dots, same formula, same strict total order, so the lists
/// match the naive scan whatever the tile sizes, the set of listed rows or
/// the worker count. Every listed row holds `min(k, universe - 1)` entries;
/// every other row has an empty list.
#[derive(Debug, Clone)]
pub struct HardNegativeCache {
    /// Row-major lists, `row_len` entries per listed row, in row order.
    neighbors: Vec<u32>,
    /// Per row of `0..universe`, its slot in `neighbors`, or [`NO_LIST`].
    slots: Vec<u32>,
    row_len: usize,
    uniform_prob: f64,
    universe: usize,
    /// Rows that got a list.
    listed: usize,
}

/// The `slots` entry of a row without a list.
const NO_LIST: u32 = u32::MAX;

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
    /// universe.
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
        let prefix;
        let rows = if universe == table.rows() {
            table
        } else {
            let data = table.data()[..universe * table.dim()].to_vec();
            prefix = EmbeddingTable::from_data(universe, table.dim(), data);
            &prefix
        };
        let data = listed.iter().flat_map(|&r| rows.row(r)).copied().collect();
        let queries = EmbeddingTable::from_data(listed.len(), rows.dim(), data);
        let norms: Vec<f32> = (0..universe).map(|i| vector::norm(rows.row(i))).collect();
        // Top `k + 1` so that dropping the row itself still leaves `k`.
        let cap = k.saturating_add(1).min(universe);
        let row_len = k.min(universe.saturating_sub(1));
        let mut neighbors = Vec::with_capacity(listed.len() * row_len);
        if cap > 0 {
            let ranked = blocked_topk(
                &queries,
                rows,
                cap,
                DEFAULT_ROW_TILE,
                DEFAULT_COL_TILE,
                |q, tile_start, dots| {
                    // Branch-free over the tile so the loop vectorises; a
                    // zero-norm side selects 0 (the quotient it replaces may
                    // be inf or NaN).
                    let ni = norms[listed[q]];
                    let tile_norms = &norms[tile_start..tile_start + dots.len()];
                    for (d, &nj) in dots.iter_mut().zip(tile_norms) {
                        let cosine = (*d / (ni * nj)).clamp(-1.0, 1.0);
                        let degenerate = ni <= f32::EPSILON || nj <= f32::EPSILON;
                        *d = if degenerate { 0.0 } else { cosine };
                    }
                },
            );
            for (list, &i) in ranked.chunks_exact(cap).zip(&listed) {
                let before = neighbors.len();
                neighbors.extend(
                    list.iter()
                        .map(|r| r.index)
                        .filter(|&j| j as usize != i)
                        .take(k),
                );
                debug_assert_eq!(neighbors.len() - before, row_len);
            }
        }
        let mut slots = vec![NO_LIST; universe];
        for (slot, &i) in listed.iter().enumerate() {
            slots[i] = slot as u32;
        }
        Self {
            neighbors,
            slots,
            row_len,
            uniform_prob: uniform_prob.clamp(0.0, 1.0),
            universe,
            listed: listed.len(),
        }
    }

    /// Number of entities covered by the cache.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Rows the cache built a list for (the distinct queried rows inside
    /// the universe).
    pub fn listed_rows(&self) -> usize {
        self.listed
    }

    /// Similarity dots the build computed: every listed row against every
    /// row of the universe.
    pub fn dots(&self) -> u64 {
        self.listed as u64 * self.universe as u64
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
