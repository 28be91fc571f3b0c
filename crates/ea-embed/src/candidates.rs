//! Blocked top-k candidate engine for alignment inference.
//!
//! The dense [`SimilarityMatrix`](crate::SimilarityMatrix) materialises every
//! `n_s × n_t` similarity **and** a full per-source ranking — O(n²) memory —
//! even though repair and verification only ever consume the `top_k`
//! candidates of each source entity plus point lookups. [`CandidateIndex`]
//! computes the same similarities in cache-friendly tiles fanned out over the
//! rayon pool, but keeps only a bounded per-source top-k candidate list
//! (binary-heap selection), so peak candidate storage — including every
//! transient block buffer — is O(n·k), beside the O(n·d) normalised rows and
//! the one packed copy of the corpus the scan reads. Consumers that need the
//! per-target *reverse* neighbourhoods (CSLS) opt in with
//! [`CandidateIndex::compute_bidirectional`], which runs a second, transposed
//! blocked pass: still O(n·k) peak memory, at twice the dot-product work.
//! `dot(a, b)` and `dot(b, a)` multiply and accumulate the same values in the
//! same lane order, so the transposed pass is bit-identical to reading the
//! forward scores.
//!
//! **Mutual top-1.** Mutual-nearest-neighbour mining needs only each side's
//! single best, so it does not build a bidirectional index: [`MutualTop1`]
//! runs one blocked pass in which every clamped dot updates the query row's
//! running best column and the column's running best row, both under the
//! canonical order. Each dot is computed once (the symmetry above), and
//! per-block column bests are folded in block order
//! (`crates/ea-embed/tests/prop_mutual.rs` pins it against the dense row and
//! column argmaxes).
//!
//! **Scan.** The corpus is packed once per pass into element-major groups of
//! [`kernel::GROUP`] rows ([`kernel::pack_panel`]); every query row of a
//! block streams column tiles of that packed copy through
//! [`kernel::scan_packed`], and tiles need not be group-aligned. The top-k
//! passes take their score as a map over one tile of raw dots, applied in
//! place before the tile's candidates are pushed: `clamped` for the
//! pre-normalised engines, the norm-divided cosine for the hard-negative
//! cache. A whole-tile loop with no per-dot call vectorises.
//!
//! **Determinism contract.** Embedding rows are normalised once
//! ([`EmbeddingTable::gather_normalized`]) and every similarity is the same
//! [`crate::kernel`] dot product (clamped to `[-1, 1]`) the dense reference
//! computes — same lane assignment, same combine, whether it comes from the
//! packed scan here or the row-major scan there — so scores are
//! bit-identical. Candidates are ordered by the canonical
//! `(score desc, column asc)` total order — exactly what the dense stable
//! descending sort produces — and parallel blocks are merged in input order,
//! so the engine returns the same top-k lists and the same greedy alignment
//! whether it runs on one thread or many
//! (`crates/ea-embed/tests/prop_candidates.rs` pins it against the dense
//! reference, `tests/candidates_threads.rs` under `RAYON_NUM_THREADS=8`).
//! Scores must be NaN-free; zero-norm rows are handled (they score 0).
//!
//! **CSLS.** [`CandidateIndex::apply_csls`] (bidirectional indexes only)
//! re-scores the stored candidate lists using the top-k neighbourhood
//! averages — the standard approximation for hubness correction. Because the
//! engine tracks the exact forward *and* reverse top-k neighbourhoods, every
//! adjusted score is bit-identical to the dense
//! [`SimilarityMatrix::apply_csls`](crate::SimilarityMatrix::apply_csls)
//! value at the same cell whenever `csls_k <= k`; the approximation is only
//! that re-ranking cannot pull in targets that were outside the raw top-k.

use crate::embedding::EmbeddingTable;
use crate::kernel;
use crate::topk::{Ranked, TopK};
use ea_graph::{AlignmentPair, AlignmentSet, EntityId};
use rayon::prelude::*;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;

/// Default number of source rows per parallel work block.
pub(crate) const DEFAULT_ROW_TILE: usize = 128;
/// Default number of target columns per cache tile: the tile's normalised
/// target rows stay hot while every source row of the block scans them.
pub(crate) const DEFAULT_COL_TILE: usize = 256;

/// Streams one block of query rows against the whole corpus, one column
/// tile at a time (`packed` is the corpus's [`kernel::pack_panel`]). Tiles
/// are the outer loop, so a tile's packed groups stay cache-hot while every
/// block row scans them. For each tile and row it calls
/// `visit(slot, row, tile_start, dots)` with the raw kernel dots of query
/// `row` (block position `slot`) against corpus rows
/// `tile_start..tile_start + dots.len()`. Each dot is bit-identical to the
/// per-pair `kernel::dot` of the same rows.
fn scan_tiles(
    queries: &EmbeddingTable,
    corpus: &EmbeddingTable,
    packed: &[f32],
    rows: Range<usize>,
    col_tile: usize,
    mut visit: impl FnMut(usize, usize, usize, &mut [f32]),
) {
    let n_c = corpus.rows();
    let dim = corpus.dim();
    let mut dots = vec![0.0f32; col_tile.min(n_c)];
    let mut tile_start = 0;
    while tile_start < n_c {
        let tile_end = (tile_start + col_tile).min(n_c);
        let tile = &mut dots[..tile_end - tile_start];
        for (slot, i) in rows.clone().enumerate() {
            kernel::scan_packed(
                queries.row(i),
                corpus.data(),
                packed,
                dim,
                tile_start..tile_end,
                tile,
            );
            visit(slot, i, tile_start, tile);
        }
        tile_start = tile_end;
    }
}

/// Scans one block of query rows against the whole corpus
/// ([`scan_tiles`]), keeping the per-row top-`cap` candidates under the
/// canonical `(score desc, column asc)` order. `score(row, tile_start,
/// dots)` maps one tile of query `row`'s raw kernel dots (corpus rows
/// `tile_start..tile_start + dots.len()`) to ranked scores in place; the
/// push loop then reads finished scores. Pure function of its inputs: block
/// results are identical however blocks are scheduled. Output is the
/// flattened best-first lists, exactly `cap.min(corpus.rows())` entries per
/// block row.
fn process_block(
    queries: &EmbeddingTable,
    corpus: &EmbeddingTable,
    packed: &[f32],
    rows: Range<usize>,
    cap: usize,
    col_tile: usize,
    score: &impl Fn(usize, usize, &mut [f32]),
) -> Vec<Ranked> {
    let mut select: Vec<TopK> = rows.clone().map(|_| TopK::new(cap)).collect();
    scan_tiles(
        queries,
        corpus,
        packed,
        rows,
        col_tile,
        |slot, i, tile_start, dots| {
            score(i, tile_start, dots);
            for (off, &s) in dots.iter().enumerate() {
                select[slot].push(s, (tile_start + off) as u32);
            }
        },
    );
    let mut out = Vec::with_capacity(select.len() * cap.min(corpus.rows()));
    for s in select {
        out.extend(s.into_sorted());
    }
    out
}

/// Fans query-row blocks over the rayon pool and concatenates the block
/// results in input order: the flattened top-`cap` lists of every query row
/// against the corpus, ranked by the tile score map `score` (see
/// [`process_block`]). The corpus is packed once per call
/// ([`kernel::pack_panel`]) and shared by every block. Peak transient memory
/// is that one packed copy of the corpus plus the block outputs —
/// O(corpus + queries · cap).
pub(crate) fn blocked_topk(
    queries: &EmbeddingTable,
    corpus: &EmbeddingTable,
    cap: usize,
    row_tile: usize,
    col_tile: usize,
    score: impl Fn(usize, usize, &mut [f32]) + Sync,
) -> Vec<Ranked> {
    let n_q = queries.rows();
    let packed = kernel::pack_panel(corpus.data(), corpus.dim());
    let block_starts: Vec<usize> = (0..n_q).step_by(row_tile).collect();
    let blocks: Vec<Vec<Ranked>> = block_starts
        .par_iter()
        .map(|&start| {
            process_block(
                queries,
                corpus,
                &packed,
                start..(start + row_tile).min(n_q),
                cap,
                col_tile,
                &score,
            )
        })
        .collect();
    blocks.concat()
}

/// The score map of the pre-normalised engines: each dot of two unit (or
/// all-zero) rows clamped to `[-1, 1]` — bit-identical to
/// [`crate::vector::cosine_prenormalized`] of the same pair.
pub(crate) fn clamped(_row: usize, _tile_start: usize, dots: &mut [f32]) {
    for d in dots {
        *d = d.clamp(-1.0, 1.0);
    }
}

/// The "no entry yet" running best of [`mutual_block`]: any scored entry,
/// NaN included, outranks it under [`Ranked::rank_cmp`] (a NaN score ties
/// and the index `u32::MAX` loses the tie-break).
const UNSET: Ranked = Ranked {
    score: f32::NAN,
    index: u32::MAX,
};

/// Replaces `best` with `(score, index)` if that ranks strictly earlier
/// under the canonical `(score desc, index asc)` order.
#[inline(always)]
fn keep_best(best: &mut Ranked, score: f32, index: u32) {
    let entry = Ranked { score, index };
    if entry.rank_cmp(best) == Ordering::Less {
        *best = entry;
    }
}

/// The fused top-1 scan of one block of query rows ([`scan_tiles`]): every
/// clamped dot updates both the query row's running best column and the
/// column's running best row of this block, each under the canonical
/// `(score desc, index asc)` order. Returns the block rows' best columns and
/// the per-column best rows over this block only (indexes are absolute).
fn mutual_block(
    queries: &EmbeddingTable,
    corpus: &EmbeddingTable,
    packed: &[f32],
    rows: Range<usize>,
    col_tile: usize,
) -> (Vec<Ranked>, Vec<Ranked>) {
    let mut row_best = vec![UNSET; rows.len()];
    let mut col_best = vec![UNSET; corpus.rows()];
    scan_tiles(
        queries,
        corpus,
        packed,
        rows,
        col_tile,
        |slot, i, tile_start, dots| {
            let best = &mut row_best[slot];
            let cols = &mut col_best[tile_start..tile_start + dots.len()];
            for (off, (&dot, col)) in dots.iter().zip(cols).enumerate() {
                let s = dot.clamp(-1.0, 1.0);
                keep_best(best, s, (tile_start + off) as u32);
                keep_best(col, s, i as u32);
            }
        },
    );
    (row_best, col_best)
}

/// Exact mutual top-1 of pre-normalised `queries` against `corpus` in one
/// blocked pass: each query row's best corpus row and each corpus row's best
/// query row, both under `(score desc, index asc)` on the clamped kernel
/// dot. Each dot is computed once (`dot(a, b)` equals `dot(b, a)` bit for
/// bit, so the column bests equal a transposed pass). Query blocks fan out
/// over the rayon pool; their per-column bests are folded in block order,
/// so the result does not depend on the worker count. Empty when either side
/// is.
fn fused_top1(
    queries: &EmbeddingTable,
    corpus: &EmbeddingTable,
    row_tile: usize,
    col_tile: usize,
) -> (Vec<Ranked>, Vec<Ranked>) {
    let (n_q, n_c) = (queries.rows(), corpus.rows());
    if n_q == 0 || n_c == 0 {
        return (Vec::new(), Vec::new());
    }
    let packed = kernel::pack_panel(corpus.data(), corpus.dim());
    let block_starts: Vec<usize> = (0..n_q).step_by(row_tile).collect();
    let blocks: Vec<(Vec<Ranked>, Vec<Ranked>)> = block_starts
        .par_iter()
        .map(|&start| {
            mutual_block(
                queries,
                corpus,
                &packed,
                start..(start + row_tile).min(n_q),
                col_tile,
            )
        })
        .collect();
    let mut row_best = Vec::with_capacity(n_q);
    let mut col_best = vec![UNSET; n_c];
    for (rows, cols) in blocks {
        row_best.extend(rows);
        for (best, entry) in col_best.iter_mut().zip(cols) {
            keep_best(best, entry.score, entry.index);
        }
    }
    (row_best, col_best)
}

/// Each source entity's single best target and each target entity's single
/// best source — the mutual-nearest-neighbour view that anchor mining reads
/// (a pair is mutual when each side is the other's best). Positions index
/// the `source_ids` / `target_ids` the search was built from; scores are
/// the clamped cosine of the normalised rows, bit-identical to the dense
/// [`crate::SimilarityMatrix`] cell, and ties go to the lowest position.
///
/// Built by [`crate::CandidateSearch::mutual_top1`]: the exact engine
/// ([`MutualTop1::compute`]) scores every pair once in one fused blocked
/// pass; the approximate engines read the heads of a `k = 1`
/// bidirectional index (two directed passes).
#[derive(Debug, Clone)]
pub struct MutualTop1 {
    /// Per source position, its best target position and score.
    source_best: Vec<Ranked>,
    /// Per target position, its best source position and score.
    target_best: Vec<Ranked>,
    /// Source-target pairs the passes covered (see [`MutualTop1::dots`]).
    dots: u64,
}

impl MutualTop1 {
    /// The exact fused pass with the default tile sizes.
    pub fn compute(
        source_table: &EmbeddingTable,
        source_ids: &[EntityId],
        target_table: &EmbeddingTable,
        target_ids: &[EntityId],
    ) -> Self {
        Self::compute_with_tiles(
            source_table,
            source_ids,
            target_table,
            target_ids,
            DEFAULT_ROW_TILE,
            DEFAULT_COL_TILE,
        )
    }

    /// [`MutualTop1::compute`] with explicit tile sizes (tuning knob;
    /// results are bit-identical for any tile sizes).
    pub fn compute_with_tiles(
        source_table: &EmbeddingTable,
        source_ids: &[EntityId],
        target_table: &EmbeddingTable,
        target_ids: &[EntityId],
        row_tile: usize,
        col_tile: usize,
    ) -> Self {
        let source = normalized_side(source_table, source_ids);
        let target = normalized_side(target_table, target_ids);
        let (source_best, target_best) =
            fused_top1(&source, &target, row_tile.max(1), col_tile.max(1));
        Self {
            source_best,
            target_best,
            dots: source_ids.len() as u64 * target_ids.len() as u64,
        }
    }

    /// The heads of a bidirectional index's forward and reverse lists.
    /// `dots` is what the index's two directed passes covered.
    pub(crate) fn from_index(index: &CandidateIndex) -> Self {
        let heads = |ids: &[u32], scores: &[f32], len: usize| -> Vec<Ranked> {
            if len == 0 {
                return Vec::new();
            }
            ids.iter()
                .zip(scores)
                .step_by(len)
                .map(|(&index, &score)| Ranked { score, index })
                .collect()
        };
        let (n_s, n_t) = (index.source_ids.len() as u64, index.target_ids.len() as u64);
        Self {
            source_best: heads(&index.cand_cols, &index.cand_scores, index.row_len),
            target_best: heads(&index.rev_rows, &index.rev_scores, index.rev_len),
            dots: 2 * n_s * n_t,
        }
    }

    /// The best target position of source position `i` and its score;
    /// `None` past the sources or when there are no targets.
    pub fn best_target(&self, i: usize) -> Option<(usize, f32)> {
        self.source_best.get(i).map(|r| (r.index as usize, r.score))
    }

    /// The best source position of target position `j` and its score;
    /// `None` past the targets or when there are no sources.
    pub fn best_source(&self, j: usize) -> Option<(usize, f32)> {
        self.target_best.get(j).map(|r| (r.index as usize, r.score))
    }

    /// Source-target pairs the search scored: `n_s · n_t` for the exact
    /// fused pass, which computes each dot once, and `2 · n_s · n_t` for
    /// the approximate engines' two directed passes (an upper bound on the
    /// exact dots their pre-filters let through).
    pub fn dots(&self) -> u64 {
        self.dots
    }
}

/// The rows of `ids` gathered from `table` and L2-normalised once
/// ([`EmbeddingTable::gather_normalized`]): one side of a one-shot candidate
/// search.
fn normalized_side(table: &EmbeddingTable, ids: &[EntityId]) -> EmbeddingTable {
    let rows: Vec<usize> = ids.iter().map(|id| id.index()).collect();
    table.gather_normalized(&rows)
}

/// Bounded top-k candidate lists between source and target entities — the
/// O(n·k) replacement for the dense similarity matrix `M` of Algorithm 1.
///
/// Stores, per source entity, its `min(k, n_t)` best target candidates (best
/// first) plus hash-backed id→index maps for O(1) lookups.
/// [`CandidateIndex::compute_bidirectional`] additionally stores, per target
/// entity, its `min(k, n_s)` best source rows (exact reverse neighbourhoods,
/// required by CSLS and mutual-nearest-neighbour checks).
#[derive(Debug, Clone)]
pub struct CandidateIndex {
    source_ids: Vec<EntityId>,
    target_ids: Vec<EntityId>,
    k: usize,
    /// Candidates stored per source row: `min(k, n_t)`.
    row_len: usize,
    /// Per-source candidate target columns, best first (`n_s * row_len`).
    cand_cols: Vec<u32>,
    /// Scores aligned with `cand_cols`; [`CandidateIndex::apply_csls`]
    /// rewrites these in place.
    cand_scores: Vec<f32>,
    /// Whether the reverse neighbourhoods were computed.
    has_reverse: bool,
    /// Entries stored per target column: `min(k, n_s)` on bidirectional
    /// indexes, 0 on forward-only ones.
    rev_len: usize,
    /// Per-target best source rows, best first (`n_t * rev_len`); raw scores.
    rev_rows: Vec<u32>,
    rev_scores: Vec<f32>,
    source_index: HashMap<EntityId, u32>,
    target_index: HashMap<EntityId, u32>,
}

impl CandidateIndex {
    /// Computes the forward top-`k` candidate lists between the embeddings of
    /// `source_ids` and `target_ids` with the default tile sizes. This is the
    /// production inference path: one blocked pass, O(n·k) peak memory.
    pub fn compute(
        source_table: &EmbeddingTable,
        source_ids: &[EntityId],
        target_table: &EmbeddingTable,
        target_ids: &[EntityId],
        k: usize,
    ) -> Self {
        Self::compute_with_tiles(
            source_table,
            source_ids,
            target_table,
            target_ids,
            k,
            false,
            DEFAULT_ROW_TILE,
            DEFAULT_COL_TILE,
        )
    }

    /// [`CandidateIndex::compute`] plus the exact per-target reverse top-k
    /// lists, produced by a second, transposed blocked pass (twice the dot
    /// products, still O(n·k) peak memory). Required for
    /// [`CandidateIndex::apply_csls`].
    pub fn compute_bidirectional(
        source_table: &EmbeddingTable,
        source_ids: &[EntityId],
        target_table: &EmbeddingTable,
        target_ids: &[EntityId],
        k: usize,
    ) -> Self {
        Self::compute_with_tiles(
            source_table,
            source_ids,
            target_table,
            target_ids,
            k,
            true,
            DEFAULT_ROW_TILE,
            DEFAULT_COL_TILE,
        )
    }

    /// [`CandidateIndex::compute`] / [`CandidateIndex::compute_bidirectional`]
    /// with explicit tile sizes (tuning knob; results are bit-identical for
    /// any tile sizes — pinned by the property suite).
    #[allow(clippy::too_many_arguments)]
    pub fn compute_with_tiles(
        source_table: &EmbeddingTable,
        source_ids: &[EntityId],
        target_table: &EmbeddingTable,
        target_ids: &[EntityId],
        k: usize,
        reverse: bool,
        row_tile: usize,
        col_tile: usize,
    ) -> Self {
        let row_tile = row_tile.max(1);
        let col_tile = col_tile.max(1);
        Self::from_passes(
            source_table,
            source_ids,
            target_table,
            target_ids,
            k,
            reverse,
            |queries, corpus, cap| blocked_topk(queries, corpus, cap, row_tile, col_tile, clamped),
        )
    }

    /// The one-shot build every engine shares: normalise both sides once,
    /// run the engine's directed `pass` source → target for the forward
    /// lists and, when `reverse`, target → source for the reverse lists (the
    /// transposed problem; the kernel is symmetric bit for bit), then
    /// assemble. A pass gets the normalised query and corpus rows and
    /// returns exactly `cap` best-first entries per query row,
    /// `Ranked::index` being a corpus-side position.
    pub(crate) fn from_passes(
        source_table: &EmbeddingTable,
        source_ids: &[EntityId],
        target_table: &EmbeddingTable,
        target_ids: &[EntityId],
        k: usize,
        reverse: bool,
        pass: impl Fn(&EmbeddingTable, &EmbeddingTable, usize) -> Vec<Ranked>,
    ) -> Self {
        let source = normalized_side(source_table, source_ids);
        let target = normalized_side(target_table, target_ids);
        let n_s = source_ids.len();
        let n_t = target_ids.len();
        let row_len = k.min(n_t);
        let forward = pass(&source, &target, row_len);
        debug_assert_eq!(forward.len(), n_s * row_len, "forward lists must be full");

        let mut cand_cols = Vec::with_capacity(forward.len());
        let mut cand_scores = Vec::with_capacity(forward.len());
        for entry in forward {
            cand_cols.push(entry.index);
            cand_scores.push(entry.score);
        }

        let rev_len = if reverse { k.min(n_s) } else { 0 };
        let mut rev_rows = Vec::new();
        let mut rev_scores = Vec::new();
        if reverse {
            let backward = pass(&target, &source, rev_len);
            debug_assert_eq!(backward.len(), n_t * rev_len, "reverse lists must be full");
            rev_rows.reserve(backward.len());
            rev_scores.reserve(backward.len());
            for entry in backward {
                rev_rows.push(entry.index);
                rev_scores.push(entry.score);
            }
        }

        // First occurrence wins, matching the dense linear-scan semantics.
        let mut source_index = HashMap::with_capacity(n_s);
        for (i, &s) in source_ids.iter().enumerate() {
            source_index.entry(s).or_insert(i as u32);
        }
        let mut target_index = HashMap::with_capacity(n_t);
        for (j, &t) in target_ids.iter().enumerate() {
            target_index.entry(t).or_insert(j as u32);
        }

        Self {
            source_ids: source_ids.to_vec(),
            target_ids: target_ids.to_vec(),
            k,
            row_len,
            cand_cols,
            cand_scores,
            has_reverse: reverse,
            rev_len,
            rev_rows,
            rev_scores,
            source_index,
            target_index,
        }
    }

    /// The `k` the index was built with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Candidates actually stored per source entity: `min(k, n_t)`.
    pub fn candidates_per_source(&self) -> usize {
        self.row_len
    }

    /// Whether the index carries the per-target reverse neighbourhoods
    /// ([`CandidateIndex::compute_bidirectional`]).
    pub fn has_reverse(&self) -> bool {
        self.has_reverse
    }

    /// Source entities (row labels).
    pub fn source_ids(&self) -> &[EntityId] {
        &self.source_ids
    }

    /// Target entities (column labels).
    pub fn target_ids(&self) -> &[EntityId] {
        &self.target_ids
    }

    /// Row index of a source entity — O(1), hash-backed.
    pub fn source_index(&self, source: EntityId) -> Option<usize> {
        self.source_index.get(&source).map(|&i| i as usize)
    }

    /// Column index of a target entity — O(1), hash-backed.
    pub fn target_index(&self, target: EntityId) -> Option<usize> {
        self.target_index.get(&target).map(|&j| j as usize)
    }

    /// The target entity at `rank` (0 = most similar) of the `i`-th source
    /// entity's candidate list — the `M[i][j]` access of Algorithm 1,
    /// bounded at `min(k, n_t)` candidates.
    pub fn ranked_target(&self, i: usize, rank: usize) -> Option<EntityId> {
        if i >= self.source_ids.len() || rank >= self.row_len {
            return None;
        }
        let col = self.cand_cols[i * self.row_len + rank] as usize;
        Some(self.target_ids[col])
    }

    /// The `i`-th source entity's candidates, best first, with scores.
    /// Out-of-range rows yield an empty iterator (mirroring
    /// [`CandidateIndex::ranked_target`] returning `None`).
    pub fn candidates(&self, i: usize) -> impl Iterator<Item = (EntityId, f32)> + '_ {
        let base = i.saturating_mul(self.row_len).min(self.cand_cols.len());
        let end = (base + self.row_len).min(self.cand_cols.len());
        self.cand_cols[base..end]
            .iter()
            .zip(&self.cand_scores[base..end])
            .map(|(&col, &score)| (self.target_ids[col as usize], score))
    }

    /// The best `k` stored candidates of a source entity (at most the
    /// index's own `k`).
    pub fn top_k(&self, source: EntityId, k: usize) -> Vec<(EntityId, f32)> {
        match self.source_index(source) {
            Some(i) => self.candidates(i).take(k).collect(),
            None => Vec::new(),
        }
    }

    /// Point lookup: the stored score of `(source, target)`, if `target` is
    /// among `source`'s top-k candidates.
    pub fn candidate_score(&self, source: EntityId, target: EntityId) -> Option<f32> {
        let i = self.source_index(source)?;
        let j = self.target_index(target)? as u32;
        let base = i * self.row_len;
        self.cand_cols[base..base + self.row_len]
            .iter()
            .position(|&col| col == j)
            .map(|slot| self.cand_scores[base + slot])
    }

    /// Greedy alignment: every source entity aligned to its best candidate.
    /// Bit-identical to the dense [`crate::SimilarityMatrix::greedy_alignment`].
    pub fn greedy_alignment(&self) -> AlignmentSet {
        let mut set = AlignmentSet::new();
        if self.row_len == 0 {
            return set;
        }
        for (i, &s) in self.source_ids.iter().enumerate() {
            let col = self.cand_cols[i * self.row_len] as usize;
            set.insert(AlignmentPair::new(s, self.target_ids[col]));
        }
        set
    }

    /// CSLS re-scoring on the stored top-k neighbourhoods (the standard
    /// blocked approximation for hubness correction): every stored candidate
    /// score becomes `2·s − r(source) − r(target)` where the neighbourhood
    /// averages come from the exact forward/reverse top-k lists, then each
    /// row is re-ranked.
    ///
    /// For `k <= self.k()` every adjusted score is bit-identical to the dense
    /// [`crate::SimilarityMatrix::apply_csls`] value at the same cell; the
    /// only divergence from the dense path is that candidates outside the raw
    /// top-k can never enter a row. Apply at most once (reverse
    /// neighbourhoods keep raw scores).
    ///
    /// # Panics
    /// Panics on a forward-only index — build with
    /// [`CandidateIndex::compute_bidirectional`].
    pub fn apply_csls(&mut self, k: usize) {
        assert!(
            self.has_reverse,
            "apply_csls requires an index built with compute_bidirectional"
        );
        let n_s = self.source_ids.len();
        let n_t = self.target_ids.len();
        if n_s == 0 || n_t == 0 || self.row_len == 0 {
            return;
        }
        let k = k.max(1);
        // Neighbourhood averages: the stored lists are sorted descending, so
        // their k-prefix is the top-k neighbourhood and the sum runs in the
        // same descending order as the dense reference (bit-identical sums).
        let row_avg: Vec<f32> = (0..n_s)
            .map(|i| {
                let row = &self.cand_scores[i * self.row_len..(i + 1) * self.row_len];
                let take = k.min(row.len());
                row[..take].iter().sum::<f32>() / k.min(n_t).max(1) as f32
            })
            .collect();
        let col_avg: Vec<f32> = (0..n_t)
            .map(|j| {
                let col = &self.rev_scores[j * self.rev_len..(j + 1) * self.rev_len];
                let take = k.min(col.len());
                col[..take].iter().sum::<f32>() / k.min(n_s).max(1) as f32
            })
            .collect();
        let mut entries: Vec<Ranked> = Vec::with_capacity(self.row_len);
        for (i, &r_avg) in row_avg.iter().enumerate() {
            let base = i * self.row_len;
            entries.clear();
            for slot in 0..self.row_len {
                let col = self.cand_cols[base + slot];
                let raw = self.cand_scores[base + slot];
                entries.push(Ranked {
                    score: 2.0 * raw - r_avg - col_avg[col as usize],
                    index: col,
                });
            }
            entries.sort_unstable_by(|a, b| a.rank_cmp(b));
            for (slot, entry) in entries.iter().enumerate() {
                self.cand_cols[base + slot] = entry.index;
                self.cand_scores[base + slot] = entry.score;
            }
        }
    }

    /// Bytes held by the candidate lists (forward + reverse) — the O(n·k)
    /// storage that replaces the dense O(n_s·n_t) matrix + rankings.
    pub fn candidate_bytes(&self) -> usize {
        (self.cand_cols.len() + self.rev_rows.len())
            * (std::mem::size_of::<u32>() + std::mem::size_of::<f32>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basis_tables() -> (EmbeddingTable, EmbeddingTable, Vec<EntityId>, Vec<EntityId>) {
        let mut s = EmbeddingTable::zeros(3, 3);
        let mut t = EmbeddingTable::zeros(3, 3);
        let basis = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];
        for i in 0..3 {
            s.row_mut(i).copy_from_slice(&basis[i]);
            let mut v = basis[i];
            v[(i + 1) % 3] = 0.1;
            t.row_mut(i).copy_from_slice(&v);
        }
        let ids: Vec<EntityId> = (0..3).map(EntityId).collect();
        (s, t, ids.clone(), ids)
    }

    #[test]
    fn recovers_identity_alignment() {
        let (s, t, sids, tids) = basis_tables();
        let index = CandidateIndex::compute(&s, &sids, &t, &tids, 2);
        let alignment = index.greedy_alignment();
        for i in 0..3u32 {
            assert_eq!(alignment.target_of(EntityId(i)), Some(EntityId(i)));
        }
        assert_eq!(index.k(), 2);
        assert_eq!(index.candidates_per_source(), 2);
        assert_eq!(index.source_ids().len(), 3);
        assert_eq!(index.target_ids().len(), 3);
    }

    #[test]
    fn lookups_are_hash_backed_and_bounded() {
        let (s, t, sids, tids) = basis_tables();
        let index = CandidateIndex::compute(&s, &sids, &t, &tids, 2);
        assert_eq!(index.source_index(EntityId(2)), Some(2));
        assert_eq!(index.source_index(EntityId(9)), None);
        assert_eq!(index.target_index(EntityId(1)), Some(1));
        assert_eq!(index.ranked_target(0, 0), Some(EntityId(0)));
        assert_eq!(index.ranked_target(0, 2), None, "rank bounded by k");
        assert_eq!(index.ranked_target(9, 0), None);
        let top = index.top_k(EntityId(0), 5);
        assert_eq!(top.len(), 2, "at most min(k, n_t) candidates stored");
        assert!(top[0].1 >= top[1].1);
        assert!(index.top_k(EntityId(42), 2).is_empty());
        assert!(index.candidate_score(EntityId(0), EntityId(0)).is_some());
    }

    #[test]
    fn k_larger_than_targets_stores_full_ranking() {
        let (s, t, sids, tids) = basis_tables();
        let index = CandidateIndex::compute(&s, &sids, &t, &tids, 99);
        assert_eq!(index.candidates_per_source(), 3);
        for i in 0..3 {
            assert_eq!(index.candidates(i).count(), 3);
        }
    }

    #[test]
    fn empty_inputs_are_handled() {
        let s = EmbeddingTable::zeros(1, 2);
        let t = EmbeddingTable::zeros(1, 2);
        let mut empty = CandidateIndex::compute_bidirectional(&s, &[], &t, &[], 3);
        empty.apply_csls(2);
        assert!(empty.greedy_alignment().is_empty());
        assert_eq!(empty.candidate_bytes(), 0);
        let no_targets = CandidateIndex::compute(&s, &[EntityId(0)], &t, &[], 3);
        assert!(no_targets.greedy_alignment().is_empty());
        assert_eq!(no_targets.ranked_target(0, 0), None);
    }

    #[test]
    fn zero_norm_rows_score_zero() {
        let s = EmbeddingTable::zeros(2, 2); // all-zero source rows
        let mut t = EmbeddingTable::zeros(1, 2);
        t.row_mut(0).copy_from_slice(&[1.0, 0.0]);
        let sids: Vec<EntityId> = (0..2).map(EntityId).collect();
        let index = CandidateIndex::compute(&s, &sids, &t, &[EntityId(0)], 1);
        for i in 0..2 {
            let (_, score) = index.candidates(i).next().unwrap();
            assert_eq!(score, 0.0);
        }
    }

    #[test]
    fn reverse_lists_expose_best_source() {
        let (s, t, sids, tids) = basis_tables();
        let index = CandidateIndex::compute_bidirectional(&s, &sids, &t, &tids, 2);
        assert!(index.has_reverse());
        let heads = MutualTop1::from_index(&index);
        for j in 0..3 {
            let (best, score) = heads.best_source(j).unwrap();
            assert_eq!(best, j);
            assert!(score > 0.9);
        }
        assert!(heads.best_source(7).is_none());
    }

    #[test]
    fn csls_demotes_hub_targets() {
        // Same hub construction as the dense CSLS test.
        let mut s = EmbeddingTable::zeros(2, 2);
        s.row_mut(0).copy_from_slice(&[1.0, 0.0]);
        s.row_mut(1).copy_from_slice(&[0.0, 1.0]);
        let mut t = EmbeddingTable::zeros(3, 2);
        t.row_mut(0).copy_from_slice(&[0.8, 0.75]); // hub
        t.row_mut(1).copy_from_slice(&[1.0, 0.0]);
        t.row_mut(2).copy_from_slice(&[0.1, 1.0]);
        let sids: Vec<EntityId> = (0..2).map(EntityId).collect();
        let tids: Vec<EntityId> = (0..3).map(EntityId).collect();
        let mut index = CandidateIndex::compute_bidirectional(&s, &sids, &t, &tids, 3);
        index.apply_csls(1);
        let alignment = index.greedy_alignment();
        assert_eq!(alignment.target_of(EntityId(0)), Some(EntityId(1)));
        assert_eq!(alignment.target_of(EntityId(1)), Some(EntityId(2)));
    }

    #[test]
    fn memory_is_bounded_by_n_times_k() {
        let (s, t, sids, tids) = basis_tables();
        let forward = CandidateIndex::compute(&s, &sids, &t, &tids, 2);
        // Forward-only: 3 sources * 2 entries, 8 bytes each.
        assert!(!forward.has_reverse());
        assert_eq!(forward.candidate_bytes(), 3 * 2 * 8);
        let both = CandidateIndex::compute_bidirectional(&s, &sids, &t, &tids, 2);
        // Bidirectional adds 3 targets * 2 reverse entries.
        assert_eq!(both.candidate_bytes(), (3 * 2 + 3 * 2) * 8);
    }

    #[test]
    fn out_of_range_row_yields_empty_candidates() {
        let (s, t, sids, tids) = basis_tables();
        let index = CandidateIndex::compute(&s, &sids, &t, &tids, 2);
        assert_eq!(index.candidates(99).count(), 0);
        assert_eq!(index.candidates(usize::MAX).count(), 0);
    }

    #[test]
    #[should_panic(expected = "compute_bidirectional")]
    fn forward_only_csls_panics() {
        let (s, t, sids, tids) = basis_tables();
        let mut index = CandidateIndex::compute(&s, &sids, &t, &tids, 2);
        index.apply_csls(1);
    }
}
