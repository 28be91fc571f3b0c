//! The segment layer under the sharded and LSM engines.
//!
//! A segment is one immutable IVF engine over a fixed set of rows: the rows
//! themselves plus an [`IvfIndex`] built over them, both resident. Sharding
//! pairs each segment with a shard-local → global row map and a centroid
//! router; the LSM engine pairs each with time-ordered entity ids and a
//! shadow mask. Both fold their per-segment partial lists through
//! [`gather`].

use crate::ann::{IvfIndex, IvfParams, ROW_TILE};
use crate::embedding::EmbeddingTable;
use crate::topk::{Ranked, TopK};
use rayon::prelude::*;

/// The engine of one segment: the segment rows plus an [`IvfIndex`] built
/// over them (which owns the SQ8 codes when the params ask for them).
#[derive(Debug)]
pub(crate) struct SegmentStore {
    table: EmbeddingTable,
    index: IvfIndex,
}

impl SegmentStore {
    /// Builds the engine over `table`'s rows, used as stored (already
    /// normalised: dividing a unit row by its ≈1.0 norm again would perturb
    /// the low bits and break bit-identity with a single engine).
    pub(crate) fn build(table: EmbeddingTable, params: &IvfParams) -> SegmentStore {
        let index = IvfIndex::build(&table, params);
        SegmentStore { table, index }
    }

    pub(crate) fn ivf(&self) -> &IvfIndex {
        &self.index
    }

    /// The segment rows, in segment-local order.
    pub(crate) fn table(&self) -> &EmbeddingTable {
        &self.table
    }

    /// Best-first partial top-`cap` over this segment's rows, segment-local
    /// ids, exactly `queries.rows() * cap` entries for `cap > 0` and a
    /// non-empty segment. `params` must be the ones the segment was built
    /// with; `nprobe` resolves against the segment's own list count.
    pub(crate) fn search_flat(
        &self,
        queries: &EmbeddingTable,
        cap: usize,
        params: &IvfParams,
    ) -> Vec<Ranked> {
        let nprobe = params.resolved_nprobe(self.index.nlist());
        self.index.search_flat(queries, &self.table, cap, nprobe)
    }

    /// Heap bytes kept resident: row panels plus coarse state.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.table.data().len() * 4 + self.index.resident_bytes()
    }
}

/// Per query, folds the best-first partial lists `partials(q)` yields (in
/// that order) through one [`TopK`] of `cap`, over fixed query tiles
/// concatenated in query order: `n_q * cap` entries. `rank_cmp` is a strict
/// total order, so the kept set is a pure function of the candidate
/// multiset — bit-identical to one selection over the union of partials,
/// whatever the segment boundaries or thread count.
pub(crate) fn gather<'a, I>(
    n_q: usize,
    cap: usize,
    partials: impl Fn(usize) -> I + Sync,
) -> Vec<Ranked>
where
    I: Iterator<Item = &'a [Ranked]>,
{
    let tiles: Vec<usize> = (0..n_q).step_by(ROW_TILE).collect();
    tiles
        .par_iter()
        .map(|&start| {
            let end = (start + ROW_TILE).min(n_q);
            let mut out = Vec::with_capacity((end - start) * cap);
            for q in start..end {
                let mut select = TopK::new(cap);
                for list in partials(q) {
                    select.merge(list);
                }
                let merged = select.into_sorted();
                debug_assert_eq!(merged.len(), cap, "partials must fill every selection");
                out.extend(merged);
            }
            out
        })
        .collect::<Vec<_>>()
        .concat()
}
