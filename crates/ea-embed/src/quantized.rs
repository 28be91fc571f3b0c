//! SQ8 scalar-quantized corpus scan with exact re-ranking.
//!
//! The exact blocked scan reads four bytes per dimension per candidate; past
//! the cache sizes the scan is memory-bandwidth bound, so the standard next
//! step from the ANN literature (IVF-flat → IVF-SQ) is to compress the
//! corpus. [`QuantizedTable`] stores the normalised corpus with
//! **per-dimension affine int8 quantization** — for every dimension `d` an
//! offset `o_d` (the column minimum) and scale `s_d` (the column range /
//! 255), each row entry an 8-bit code `c` reconstructing to
//! `o_d + s_d · c` — one quarter of the bytes of the f32 table.
//!
//! Queries scan the codes via an **integer-dot asymmetric distance
//! computation (ADC)**: the approximate score decomposes as
//! `Σ_d q_d·(o_d + s_d·c_jd) = Σ_d q_d·o_d + Σ_d (q_d·s_d)·c_jd`, so each
//! query precomputes the constant `base = Σ q_d·o_d` and quantizes its
//! per-dimension lookup row `q_d·s_d` to an **i16 integer LUT** once
//! ([`QuantizedTable::prepare_query`], the i16 range chosen so the
//! accumulator provably never overflows). The scan then reduces to a pure
//! integer dot `Σ lq_d · c_jd` over the byte panel, accumulated in `i32` —
//! which the compiler vectorises far wider than an f32 FMA chain — in a 1×4
//! register block mirroring [`crate::kernel`], reading 4× fewer corpus
//! bytes per candidate. Integer addition is associative, so the scan is
//! trivially bit-deterministic for any blocking.
//!
//! **Exactness contract (subset-only approximation).** Approximate scores
//! are used *only* to select `rerank · k` candidates per query; the selected
//! rows are then re-scored with the exact f32 kernel on the original
//! normalised corpus, so every `(id, score)` entry a [`Sq8Params`] search
//! returns is **bit-identical** to the corresponding exact-scan entry — SQ8
//! can miss candidates (recall < 1), never re-score them. This is the same
//! contract the IVF pre-filter keeps, and it is what lets the returned
//! scores feed repair/verification unchanged. With
//! [`Sq8Params::exhaustive`] every scanned row is re-ranked exactly and the
//! result is bit-identical to the exact blocked scan
//! (`crates/ea-embed/tests/prop_sq8.rs` pins both contracts).
//!
//! Consumers switch the strategy on through
//! [`CandidateSearch::Sq8`](crate::CandidateSearch::Sq8) (whole-corpus
//! quantized scan) or [`IvfListStorage::Sq8`](crate::IvfListStorage) (IVF-SQ:
//! quantized inverted-list scans inside [`crate::IvfIndex`]).

use crate::ann::ROW_TILE;
use crate::embedding::EmbeddingTable;
use crate::kernel;
use crate::topk::{Ranked, TopK};
use rayon::prelude::*;

/// Default [`Sq8Params::rerank_factor`] when left at 0 ("choose
/// automatically").
const DEFAULT_RERANK_FACTOR: usize = 4;

/// Tuning knobs of the SQ8 quantized scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sq8Params {
    /// How many approximate candidates are kept per query for exact
    /// re-scoring, as a multiple of `k`: the re-rank depth is
    /// `min(rerank_factor · k, n)` (never below `min(k, n)`, so result rows
    /// are always full). 0 = "choose automatically" (currently 4);
    /// `usize::MAX` ([`Sq8Params::exhaustive`]) re-ranks every scanned row,
    /// reproducing the exact scan bit for bit.
    pub rerank_factor: usize,
}

impl Sq8Params {
    /// Parameters that exactly re-rank every scanned row: recall 1.0,
    /// bit-identical to the exact scan (useful to validate a deployment
    /// before dialling `rerank_factor` down for speed).
    pub fn exhaustive() -> Self {
        Self {
            rerank_factor: usize::MAX,
        }
    }

    /// The re-rank depth actually used for result rows of `cap` entries
    /// selected from `n` scanned rows: `cap <= depth <= n`.
    pub fn resolved_rerank(&self, cap: usize, n: usize) -> usize {
        let factor = if self.rerank_factor == 0 {
            DEFAULT_RERANK_FACTOR
        } else {
            self.rerank_factor
        };
        cap.saturating_mul(factor).max(cap).min(n)
    }
}

/// A corpus compressed with per-dimension affine int8 quantization: codes
/// plus the per-dimension `(offset, scale)` reconstruction grid.
///
/// Build once from a *normalised* corpus table
/// ([`EmbeddingTable::gather_normalized`]); the build is a pure function of
/// the table, so quantized scans are deterministic across runs and thread
/// counts.
#[derive(Debug, Clone)]
pub struct QuantizedTable {
    rows: usize,
    dim: usize,
    /// Row-major 8-bit codes (`rows × dim`).
    codes: Vec<u8>,
    /// Per-dimension reconstruction offset (the column minimum).
    offset: Vec<f32>,
    /// Per-dimension reconstruction scale (column range / 255; 0 for
    /// constant, empty or non-finite columns, whose codes are all 0).
    scale: Vec<f32>,
}

impl QuantizedTable {
    /// Quantizes every row of `table`. Non-finite entries (NaN rows survive
    /// normalisation of infinite embeddings) are coded as 0 and excluded
    /// from the per-dimension range; their *exact* re-rank scores are still
    /// NaN and rank last, so degenerate rows keep the behaviour of the exact
    /// engine.
    pub fn build(table: &EmbeddingTable) -> Self {
        let rows = table.rows();
        let dim = table.dim();
        let data = table.data();
        // Per-dimension min/max in one row-major pass (column-major striding
        // would touch a fresh cache line per element at large corpora).
        let mut fit = Sq8GridFit::new(dim);
        for r in 0..rows {
            fit.update_row(&data[r * dim..(r + 1) * dim]);
        }
        let (offset, scale) = fit.finish();
        let mut codes = vec![0u8; rows * dim];
        for r in 0..rows {
            sq8_encode_row(
                &offset,
                &scale,
                &data[r * dim..(r + 1) * dim],
                &mut codes[r * dim..(r + 1) * dim],
            );
        }
        Self {
            rows,
            dim,
            codes,
            offset,
            scale,
        }
    }

    /// Number of quantized rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Dimension of each row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The 8-bit codes of row `i`.
    pub fn code_row(&self, i: usize) -> &[u8] {
        &self.codes[i * self.dim..(i + 1) * self.dim]
    }

    /// Reconstructs row `i` into `out` (`offset_d + scale_d · code`).
    /// The per-dimension reconstruction error is at most `scale_d / 2` for
    /// finite inputs (pinned by the property suite).
    pub fn dequantize_row(&self, i: usize, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.dim);
        let codes = self.code_row(i);
        for d in 0..self.dim {
            out[d] = self.offset[d] + self.scale[d] * codes[d] as f32;
        }
    }

    /// Bytes held by the code panel — 1/4 of the f32 corpus it replaces
    /// (plus `2 · dim` f32 of reconstruction grid).
    pub fn code_bytes(&self) -> usize {
        self.codes.len()
    }

    /// Precomputes the integer ADC query state: quantizes the f32 lookup row
    /// `q_d · scale_d` onto a symmetric i16 grid chosen so that a full-row
    /// `i32` accumulation provably cannot overflow, fills `lut` with the i16
    /// codes, and returns `(base, step)` such that the approximate score of
    /// row `j` is `base + step · (Σ_d lut_d · code_jd)` with
    /// `base = Σ q_d · offset_d`.
    ///
    /// Degenerate queries (all-zero or non-finite lookup rows) get an
    /// all-zero LUT and `step = 0`: every row scores `base`, selection falls
    /// back to ascending row order, and the exact re-rank still returns the
    /// same rows the exact engine would (NaN exact scores rank last there
    /// too).
    pub fn prepare_query(&self, q: &[f32], lut: &mut Vec<i16>) -> (f32, f32) {
        let dim = self.dim;
        debug_assert_eq!(q.len(), dim);
        let base = kernel::dot(q, &self.offset);
        lut.clear();
        // Largest finite |q_d * scale_d| sets the grid.
        let mut magnitude = 0.0f32;
        for (&x, &s) in q.iter().zip(&self.scale) {
            let v = (x * s).abs();
            if v.is_finite() && v > magnitude {
                magnitude = v;
            }
        }
        // Overflow-safe integer bound: dim rows of |lq| ≤ bound times codes
        // ≤ 255 stay within i32 whatever the data.
        let bound = (i32::MAX / (255 * dim.max(1) as i32) - 1).min(i16::MAX as i32 - 1);
        if magnitude <= 0.0 || bound <= 0 {
            lut.resize(dim, 0);
            return (base, 0.0);
        }
        let grid = bound as f32 / magnitude;
        lut.extend(q.iter().zip(&self.scale).map(|(&x, &s)| {
            let v = x * s;
            if v.is_finite() {
                (v * grid).round() as i16
            } else {
                0
            }
        }));
        (base, 1.0 / grid)
    }

    /// Integer ADC scan of a prepared query against **all** rows:
    /// `out[j] = base + step · (Σ_d lut_d · code_jd)`, the integer dot
    /// register-blocked over the byte panel. Approximate scores — selection
    /// only, never returned to consumers.
    pub fn scan(&self, lut: &[i16], base: f32, step: f32, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.rows);
        adc_scan_panel(&self.codes, self.dim, lut, base, step, out);
    }

    /// Integer ADC scan of a prepared query against gathered rows (the
    /// IVF-SQ inverted-list form):
    /// `out[i] = base + step · (Σ_d lut_d · code(rows[i], d))`.
    pub fn scan_rows(&self, lut: &[i16], base: f32, step: f32, rows: &[u32], out: &mut [f32]) {
        adc_scan_gather(&self.codes, self.dim, lut, base, step, rows, out);
    }

    /// Approximate top-`k` search over a prebuilt quantized table — the
    /// deployment shape where quantization amortises across query batches
    /// (mirror of [`crate::IvfIndex::search`]). Each query runs the integer
    /// ADC scan, keeps the approximate best `rerank_factor · k`, and the
    /// exact kernel re-scores them. Returns one best-first list of exactly
    /// `min(k, n)` `(corpus row, score)` entries per query; every returned
    /// score is the bit-exact f32 dot of the exact scan.
    ///
    /// `corpus` must be the (normalised) table this quantized table was
    /// built from; `queries` must be normalised the same way.
    pub fn search(
        &self,
        queries: &EmbeddingTable,
        corpus: &EmbeddingTable,
        k: usize,
        params: &Sq8Params,
    ) -> Vec<Vec<(u32, f32)>> {
        let cap = k.min(corpus.rows());
        if cap == 0 {
            return vec![Vec::new(); queries.rows()];
        }
        let rerank = params.resolved_rerank(cap, corpus.rows());
        let flat = sq8_topk_flat(queries, corpus, self, cap, rerank);
        flat.chunks(cap)
            .map(|chunk| chunk.iter().map(|r| (r.index, r.score)).collect())
            .collect()
    }
}

/// Incremental per-dimension `(min, max)` accumulator behind the SQ8
/// reconstruction grid of [`QuantizedTable::build`]. Min/max are
/// order-insensitive, so the finished grid does not depend on row order.
struct Sq8GridFit {
    min: Vec<f32>,
    max: Vec<f32>,
}

impl Sq8GridFit {
    /// Starts an empty fit over `dim`-wide rows.
    fn new(dim: usize) -> Self {
        Self {
            min: vec![f32::INFINITY; dim],
            max: vec![f32::NEG_INFINITY; dim],
        }
    }

    /// Folds one row into the per-dimension ranges. Non-finite entries are
    /// excluded (they code as 0 and never stretch the grid).
    fn update_row(&mut self, row: &[f32]) {
        debug_assert_eq!(row.len(), self.min.len());
        for ((lo, hi), &v) in self.min.iter_mut().zip(self.max.iter_mut()).zip(row) {
            if !v.is_finite() {
                continue;
            }
            if v < *lo {
                *lo = v;
            }
            if v > *hi {
                *hi = v;
            }
        }
    }

    /// Derives the `(offset, scale)` reconstruction grid from the
    /// accumulated ranges: offset = column minimum, scale = range / 255,
    /// both 0 for empty or all-non-finite columns, scale 0 (exact
    /// reconstruction from the offset) for constant columns.
    fn finish(self) -> (Vec<f32>, Vec<f32>) {
        let dim = self.min.len();
        let mut offset = vec![0.0f32; dim];
        let mut scale = vec![0.0f32; dim];
        for d in 0..dim {
            if self.max[d] > self.min[d] {
                offset[d] = self.min[d];
                scale[d] = (self.max[d] - self.min[d]) / 255.0;
            } else if self.min[d].is_finite() {
                // Constant column: reconstruct exactly from the offset.
                offset[d] = self.min[d];
            }
        }
        (offset, scale)
    }
}

/// Quantizes one row onto a finished `(offset, scale)` grid:
/// `code = round((v - offset) / scale)` clamped to `0..=255`, with
/// non-finite entries and zero-scale columns coded as 0. The per-row kernel
/// of [`QuantizedTable::build`].
fn sq8_encode_row(offset: &[f32], scale: &[f32], row: &[f32], out: &mut [u8]) {
    debug_assert_eq!(row.len(), offset.len());
    debug_assert_eq!(out.len(), offset.len());
    for d in 0..row.len() {
        let v = row[d];
        out[d] = if scale[d] > 0.0 && v.is_finite() {
            ((v - offset[d]) / scale[d]).round().clamp(0.0, 255.0) as u8
        } else {
            0
        };
    }
}

/// Integer ADC scan of a contiguous row-major code panel:
/// `out[j] = base + step · (Σ_d lut_d · code_jd)`, register-blocked like
/// [`kernel::scan_block`]. Integer accumulation is associative, so any
/// blocking is bit-identical.
fn adc_scan_panel(codes: &[u8], dim: usize, lut: &[i16], base: f32, step: f32, out: &mut [f32]) {
    debug_assert_eq!(codes.len(), out.len() * dim);
    let n = out.len();
    let blocks = n / kernel::BLOCK;
    for b in 0..blocks {
        let i = b * kernel::BLOCK * dim;
        let sums = adc_int_1x4(
            lut,
            &codes[i..i + dim],
            &codes[i + dim..i + 2 * dim],
            &codes[i + 2 * dim..i + 3 * dim],
            &codes[i + 3 * dim..i + 4 * dim],
        );
        for (o, s) in out[b * kernel::BLOCK..(b + 1) * kernel::BLOCK]
            .iter_mut()
            .zip(sums)
        {
            *o = base + step * s as f32;
        }
    }
    for (j, o) in out.iter_mut().enumerate().skip(blocks * kernel::BLOCK) {
        *o = base + step * adc_int(lut, &codes[j * dim..(j + 1) * dim]) as f32;
    }
}

/// Integer ADC scan of gathered rows of a row-major code panel (the IVF-SQ
/// inverted-list form): `out[i] = base + step · (Σ_d lut_d · code(rows[i], d))`.
fn adc_scan_gather(
    codes: &[u8],
    dim: usize,
    lut: &[i16],
    base: f32,
    step: f32,
    rows: &[u32],
    out: &mut [f32],
) {
    debug_assert!(out.len() >= rows.len());
    let mut blocks = rows.chunks_exact(kernel::BLOCK);
    let mut j = 0;
    for block in &mut blocks {
        let (i0, i1, i2, i3) = (
            block[0] as usize * dim,
            block[1] as usize * dim,
            block[2] as usize * dim,
            block[3] as usize * dim,
        );
        let sums = adc_int_1x4(
            lut,
            &codes[i0..i0 + dim],
            &codes[i1..i1 + dim],
            &codes[i2..i2 + dim],
            &codes[i3..i3 + dim],
        );
        for (o, s) in out[j..j + kernel::BLOCK].iter_mut().zip(sums) {
            *o = base + step * s as f32;
        }
        j += kernel::BLOCK;
    }
    for &row in blocks.remainder() {
        let base_i = row as usize * dim;
        out[j] = base + step * adc_int(lut, &codes[base_i..base_i + dim]) as f32;
        j += 1;
    }
}

/// Per-pair integer ADC reduction: `Σ lut_d · code_d` in `i32`. Integer
/// addition is associative, so any evaluation order is bit-identical; the
/// LUT grid guarantees no overflow for full rows.
#[inline]
pub(crate) fn adc_int(lut: &[i16], codes: &[u8]) -> i32 {
    debug_assert_eq!(lut.len(), codes.len());
    let mut acc = 0i32;
    for (&x, &c) in lut.iter().zip(codes) {
        acc += x as i32 * c as i32;
    }
    acc
}

/// 1×4 register block of [`adc_int`]: four rows of codes share each loaded
/// LUT element, four independent integer accumulator streams.
#[inline]
fn adc_int_1x4(lut: &[i16], c0: &[u8], c1: &[u8], c2: &[u8], c3: &[u8]) -> [i32; 4] {
    let n = lut.len();
    debug_assert!(c0.len() == n && c1.len() == n && c2.len() == n && c3.len() == n);
    let (mut a0, mut a1, mut a2, mut a3) = (0i32, 0i32, 0i32, 0i32);
    for i in 0..n {
        let x = lut[i] as i32;
        a0 += x * c0[i] as i32;
        a1 += x * c1[i] as i32;
        a2 += x * c2[i] as i32;
        a3 += x * c3[i] as i32;
    }
    [a0, a1, a2, a3]
}

/// Per-block scratch of the quantized scan — one set of buffers per rayon
/// work block, reused across its queries (no per-query allocation beyond the
/// bounded selection heaps). Shared with the IVF-SQ list scans.
pub(crate) struct Sq8Scratch {
    lut: Vec<i16>,
    approx: Vec<f32>,
    idx: Vec<u32>,
    exact: Vec<f32>,
}

impl Sq8Scratch {
    pub(crate) fn new() -> Self {
        Self {
            lut: Vec::new(),
            approx: Vec::new(),
            idx: Vec::new(),
            exact: Vec::new(),
        }
    }
}

/// The quantized selection + exact re-rank for one query — the single
/// implementation the whole-corpus SQ8 scan and the IVF-SQ list scans both
/// run, so the re-rank contract (canonical total order, clamp, bit-exact
/// returned scores) cannot diverge between them.
///
/// ADC-scores the candidate rows through `quantized`'s code panel
/// (`rows = None` scans the whole corpus in panel order; `Some(rows)` scans
/// a gathered row list), keeps the best `rerank` by approximate score
/// (strict total order: approx desc, row asc — NaN approximations rank
/// last), re-scores those rows with the exact kernel over `corpus`'s f32
/// rows and appends the bounded exact selection best-first to `out`:
/// exactly `cap` entries, every score a bit-exact clamped f32 dot.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sq8_select_and_rerank(
    query: &[f32],
    corpus: &EmbeddingTable,
    quantized: &QuantizedTable,
    rows: Option<&[u32]>,
    cap: usize,
    rerank: usize,
    scratch: &mut Sq8Scratch,
    out: &mut Vec<Ranked>,
) {
    let (base, step) = quantized.prepare_query(query, &mut scratch.lut);
    // Bounded heap selection under the canonical (score desc, row asc)
    // total order — same selected set as a full sort, one comparison per
    // non-surviving row.
    let mut approx_select = TopK::new(rerank);
    match rows {
        None => {
            scratch.approx.resize(quantized.rows(), 0.0);
            quantized.scan(&scratch.lut, base, step, &mut scratch.approx);
            for (j, &score) in scratch.approx.iter().enumerate() {
                approx_select.push(score, j as u32);
            }
        }
        Some(rows) => {
            scratch.approx.resize(rows.len(), 0.0);
            quantized.scan_rows(&scratch.lut, base, step, rows, &mut scratch.approx);
            for (&row, &score) in rows.iter().zip(&scratch.approx) {
                approx_select.push(score, row);
            }
        }
    }
    scratch.idx.clear();
    scratch
        .idx
        .extend(approx_select.into_sorted().iter().map(|r| r.index));
    scratch.exact.resize(scratch.idx.len(), 0.0);
    kernel::scan_gather(
        query,
        corpus.data(),
        corpus.dim(),
        &scratch.idx,
        &mut scratch.exact,
    );
    let mut select = TopK::new(cap);
    for (&col, &score) in scratch.idx.iter().zip(&scratch.exact) {
        select.push(score.clamp(-1.0, 1.0), col);
    }
    debug_assert_eq!(select.kept(), cap, "re-rank depth must fill result rows");
    out.extend(select.into_sorted());
}

/// Fans query blocks over the rayon pool (order-preserving concat, the exact
/// engine's fan-out shape) and returns the flattened best-first lists:
/// exactly `cap` entries per query. `quantized` must be built from `corpus`.
pub(crate) fn sq8_topk_flat(
    queries: &EmbeddingTable,
    corpus: &EmbeddingTable,
    quantized: &QuantizedTable,
    cap: usize,
    rerank: usize,
) -> Vec<Ranked> {
    assert_eq!(corpus.rows(), quantized.rows(), "row count mismatch");
    assert_eq!(corpus.dim(), quantized.dim(), "dimension mismatch");
    let n_q = queries.rows();
    if cap == 0 || n_q == 0 {
        return Vec::new();
    }
    let block_starts: Vec<usize> = (0..n_q).step_by(ROW_TILE).collect();
    let blocks: Vec<Vec<Ranked>> = block_starts
        .par_iter()
        .map(|&start| {
            let end = (start + ROW_TILE).min(n_q);
            let mut scratch = Sq8Scratch::new();
            let mut out = Vec::with_capacity((end - start) * cap);
            for q in start..end {
                sq8_select_and_rerank(
                    queries.row(q),
                    corpus,
                    quantized,
                    None,
                    cap,
                    rerank,
                    &mut scratch,
                    &mut out,
                );
            }
            out
        })
        .collect();
    blocks.concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_normalized(seed: u64, rows: usize, dim: usize) -> EmbeddingTable {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = EmbeddingTable::xavier(rows, dim, &mut rng);
        let all: Vec<usize> = (0..rows).collect();
        t.gather_normalized(&all)
    }

    #[test]
    fn params_resolve_rerank_depth() {
        let p = Sq8Params::default();
        assert_eq!(p.resolved_rerank(5, 1000), 20, "auto factor is 4");
        assert_eq!(p.resolved_rerank(5, 12), 12, "clamped to corpus");
        assert_eq!(p.resolved_rerank(0, 10), 0);
        assert_eq!(Sq8Params::exhaustive().resolved_rerank(5, 1000), 1000);
        let two = Sq8Params { rerank_factor: 2 };
        assert_eq!(two.resolved_rerank(5, 1000), 10);
        assert_eq!(two.resolved_rerank(5, 3), 3);
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_scale() {
        let table = random_normalized(3, 40, 17);
        let qt = QuantizedTable::build(&table);
        assert_eq!(qt.rows(), 40);
        assert_eq!(qt.dim(), 17);
        assert_eq!(qt.code_bytes(), 40 * 17);
        let mut decoded = vec![0.0f32; 17];
        for r in 0..40 {
            qt.dequantize_row(r, &mut decoded);
            for (d, &dec) in decoded.iter().enumerate() {
                let err = (dec - table.row(r)[d]).abs();
                // Half a quantization step plus float slop.
                assert!(
                    err <= qt.scale[d] * 0.5 + 1e-6,
                    "row {r} dim {d}: err {err} vs scale {}",
                    qt.scale[d]
                );
            }
        }
    }

    #[test]
    fn constant_and_empty_columns_reconstruct_exactly() {
        let mut t = EmbeddingTable::zeros(3, 2);
        for r in 0..3 {
            t.row_mut(r).copy_from_slice(&[0.25, -1.5]);
        }
        let qt = QuantizedTable::build(&t);
        let mut out = vec![0.0f32; 2];
        for r in 0..3 {
            qt.dequantize_row(r, &mut out);
            assert_eq!(out, vec![0.25, -1.5]);
        }
        let empty = QuantizedTable::build(&EmbeddingTable::zeros(0, 4));
        assert_eq!(empty.rows(), 0);
        assert_eq!(empty.code_bytes(), 0);
    }

    #[test]
    fn nan_entries_code_to_zero_without_poisoning_the_grid() {
        let mut t = EmbeddingTable::zeros(3, 2);
        t.row_mut(0).copy_from_slice(&[f32::NAN, 1.0]);
        t.row_mut(1).copy_from_slice(&[0.5, 2.0]);
        t.row_mut(2).copy_from_slice(&[1.5, 3.0]);
        let qt = QuantizedTable::build(&t);
        assert_eq!(qt.code_row(0)[0], 0);
        // The finite rows of the NaN column still quantize on a finite grid.
        let mut out = vec![0.0f32; 2];
        qt.dequantize_row(1, &mut out);
        assert!((out[0] - 0.5).abs() < 1e-2);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn scan_matches_reference_adc_loop_bit_for_bit() {
        for (rows, dim) in [(0usize, 5usize), (1, 1), (6, 7), (9, 13), (12, 8)] {
            let table = random_normalized(rows as u64 * 31 + dim as u64, rows, dim);
            let qt = QuantizedTable::build(&table);
            let queries = random_normalized(99, 3.min(rows.max(1)), dim);
            let mut lut = Vec::new();
            let mut out = vec![0.0f32; rows];
            for q in 0..queries.rows() {
                let (base, step) = qt.prepare_query(queries.row(q), &mut lut);
                qt.scan(&lut, base, step, &mut out);
                for (j, &got) in out.iter().enumerate() {
                    let want = base + step * adc_int(&lut, qt.code_row(j)) as f32;
                    assert_eq!(got.to_bits(), want.to_bits(), "{rows}x{dim} row {j}");
                }
                // Gathered scan agrees on arbitrary index patterns.
                if rows > 1 {
                    let idx: Vec<u32> = (0..rows as u32).rev().chain([0, 0]).collect();
                    let mut gathered = vec![0.0f32; idx.len()];
                    qt.scan_rows(&lut, base, step, &idx, &mut gathered);
                    for (i, &row) in idx.iter().enumerate() {
                        let want = base + step * adc_int(&lut, qt.code_row(row as usize)) as f32;
                        assert_eq!(gathered[i].to_bits(), want.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn approximate_scores_track_true_dots() {
        let corpus = random_normalized(11, 50, 24);
        let queries = random_normalized(12, 4, 24);
        let qt = QuantizedTable::build(&corpus);
        let mut lut = Vec::new();
        let mut approx = vec![0.0f32; 50];
        for q in 0..queries.rows() {
            let (base, step) = qt.prepare_query(queries.row(q), &mut lut);
            qt.scan(&lut, base, step, &mut approx);
            // Worst-case ADC error: corpus quantization (Σ |q_d|·scale_d/2)
            // plus LUT quantization (half an integer grid step per
            // dimension, times the max code 255).
            let corpus_err: f32 = queries.row(q)[..]
                .iter()
                .zip(&qt.scale)
                .map(|(&x, &s)| x.abs() * s * 0.5)
                .sum();
            let lut_err = 0.5 * step * 255.0 * qt.dim() as f32;
            let bound = corpus_err + lut_err + 1e-5;
            for (j, &got) in approx.iter().enumerate() {
                let exact = kernel::dot(queries.row(q), corpus.row(j));
                assert!(
                    (got - exact).abs() <= bound,
                    "query {q} row {j}: |{got} - {exact}| > {bound}"
                );
            }
        }
    }

    #[test]
    fn degenerate_queries_get_zero_luts() {
        let corpus = random_normalized(13, 8, 4);
        let qt = QuantizedTable::build(&corpus);
        let mut lut = Vec::new();
        let (_, step) = qt.prepare_query(&[0.0; 4], &mut lut);
        assert_eq!(step, 0.0);
        assert!(lut.iter().all(|&v| v == 0));
        let (base, step) = qt.prepare_query(&[f32::NAN; 4], &mut lut);
        assert!(base.is_nan());
        assert_eq!(step, 0.0, "non-finite lookup rows must disable the grid");
        assert!(lut.iter().all(|&v| v == 0));
    }
}
