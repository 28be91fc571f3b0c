//! Register-blocked similarity micro-kernel.
//!
//! Every exact similarity in the workspace — the dense
//! [`crate::SimilarityMatrix`] reference, the blocked
//! [`crate::CandidateIndex`] engine, the IVF pre-filter's centroid scoring,
//! list scans and k-means assignment, and the hard-negative neighbour sweeps
//! — bottoms out in dot products of one query row against many corpus rows.
//! The old implementation walked that workload one pair at a time through a
//! sequential `iter().zip().sum()` dot: one accumulator, a loop-carried
//! dependency per element, and a fresh bounds-checked `row(j)` lookup per
//! pair. This module is the GEMM-shaped replacement:
//!
//! * [`dot`] — the per-pair kernel: [`LANES`]-wide unrolled **independent
//!   accumulators** (lane `l` sums elements `l, l+4, l+8, …`), combined as
//!   `(acc0 + acc1) + (acc2 + acc3)`. The independent chains remove the
//!   loop-carried dependency so the compiler emits vectorized FMAs.
//! * [`scan_block`] / [`scan_gather`] — the row-major scan drivers: score
//!   one query against a contiguous row-major panel (centroid tables, the
//!   dense reference, flat list scans) or against gathered row indexes (IVF
//!   inverted lists, SQ8 re-rank candidates) through a 1×[`BLOCK`] register
//!   block, the remainder through [`dot`].
//! * [`pack_panel`] / [`scan_packed`] — the packed scan the blocked exact
//!   top-k passes use (the [`crate::CandidateIndex`] engine, the `Exact`
//!   one-shot pass and the hard-negative self-join). The corpus is packed
//!   once per pass into element-major groups of [`GROUP`] rows, and each
//!   query is scored against a whole group by a 1×[`GROUP`] kernel.
//!
//! **Why pack.** The 1×4 block of [`scan_block`] vectorises *across rows*:
//! one SIMD lane per corpus row. A row-major panel stores each row's
//! elements contiguously, so every 4-element chunk of four rows has to be
//! transposed with shuffles before it can be multiplied — about ten
//! shuffle instructions per four multiplies. In a packed group, element `e`
//! of all [`GROUP`] rows sits in one contiguous run, so the kernel loads it
//! as is, multiplies it by the broadcast `q[e]` and adds it into lane
//! `e % LANES` of the eight row accumulators: plain loads, no shuffles.
//! Packing costs one pass over the corpus and one copy of it, made once per
//! top-k pass and reused by every query (Goto & van de Geijn, "Anatomy of
//! High-Performance Matrix Multiplication", ACM TOMS 2008).
//!
//! **Determinism contract.** For a given `(query, row)` pair every entry
//! produced by any function in this module is bit-identical to [`dot`] on
//! that pair: the lane assignment — not the call shape or the memory layout
//! — fixes the summation order. The dense reference (row-major
//! [`scan_block`]), the blocked engine (packed [`scan_packed`]), the IVF
//! pre-filter and the SQ8 re-rank therefore keep scoring bit-identically to
//! *each other* (the invariant the property suites pin), through two
//! independent scan paths. `crates/ea-embed/tests/prop_kernel.rs` pins every
//! scan against the per-pair reference loop for every remainder
//! `rows % BLOCK` and `rows % GROUP`, odd and zero dimensions and, for
//! [`scan_packed`], every sub-range of rows.
//!
//! The functions take raw `&[f32]` panels (`EmbeddingTable::data()`) rather
//! than table types so the kernel stays a leaf module usable from scans,
//! quantized re-ranking and tests alike.

use std::ops::Range;

/// Number of independent accumulator lanes inside the per-pair dot.
pub const LANES: usize = 4;

/// Corpus rows scored per register block by [`scan_block`] and
/// [`scan_gather`].
pub const BLOCK: usize = 4;

/// Corpus rows per element-major group of a packed panel ([`pack_panel`]).
pub const GROUP: usize = 8;

/// Dot product with [`LANES`] unrolled independent accumulators.
///
/// Lane `l` accumulates elements `l, l + LANES, l + 2·LANES, …` (the
/// remainder elements continue the same pattern), and the lanes are combined
/// pairwise: `(acc0 + acc1) + (acc2 + acc3)`. This is the **uniform
/// summation order** every similarity in the workspace uses; the register
/// blocks and the scans reproduce it bit for bit.
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (x, y) in (&mut ca).zip(&mut cb) {
        acc[0] += x[0] * y[0];
        acc[1] += x[1] * y[1];
        acc[2] += x[2] * y[2];
        acc[3] += x[3] * y[3];
    }
    for (l, (x, y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        acc[l] += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Sums one row's accumulator lanes in the canonical combine order.
#[inline]
fn combine(acc: [f32; LANES]) -> f32 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// The 1×4 register block: `q` against exactly four rows, each output
/// bit-identical to [`dot`] of that pair. Sixteen accumulators live across
/// the loop — four independent FMA streams per row — and every loaded query
/// chunk is reused by all four rows.
#[inline]
fn dot_1x4(q: &[f32], r0: &[f32], r1: &[f32], r2: &[f32], r3: &[f32]) -> [f32; BLOCK] {
    let n = q.len();
    debug_assert!(r0.len() == n && r1.len() == n && r2.len() == n && r3.len() == n);
    let mut acc = [[0.0f32; LANES]; BLOCK];
    let chunks = n / LANES;
    for c in 0..chunks {
        let base = c * LANES;
        let qc = &q[base..base + LANES];
        for (a, r) in acc.iter_mut().zip([r0, r1, r2, r3]) {
            let rc = &r[base..base + LANES];
            a[0] += qc[0] * rc[0];
            a[1] += qc[1] * rc[1];
            a[2] += qc[2] * rc[2];
            a[3] += qc[3] * rc[3];
        }
    }
    for i in chunks * LANES..n {
        let l = i - chunks * LANES;
        acc[0][l] += q[i] * r0[i];
        acc[1][l] += q[i] * r1[i];
        acc[2][l] += q[i] * r2[i];
        acc[3][l] += q[i] * r3[i];
    }
    [
        combine(acc[0]),
        combine(acc[1]),
        combine(acc[2]),
        combine(acc[3]),
    ]
}

/// Scores one query row against a contiguous row-major panel of
/// `out.len()` rows of dimension `dim`, writing `dot(q, panel_row_j)` into
/// `out[j]`. This is the streaming form for panels scanned without a packed
/// copy (the dense reference, centroid tables, flat list and staged-row
/// scans): the panel is read front to back exactly once, [`BLOCK`] rows per
/// register block.
///
/// # Panics
/// Panics in debug builds if `panel.len() != out.len() * dim` or
/// `q.len() != dim`.
#[inline]
pub fn scan_block(q: &[f32], panel: &[f32], dim: usize, out: &mut [f32]) {
    debug_assert_eq!(q.len(), dim);
    debug_assert_eq!(panel.len(), out.len() * dim);
    let n = out.len();
    let blocks = n / BLOCK;
    for b in 0..blocks {
        let base = b * BLOCK * dim;
        let scores = dot_1x4(
            q,
            &panel[base..base + dim],
            &panel[base + dim..base + 2 * dim],
            &panel[base + 2 * dim..base + 3 * dim],
            &panel[base + 3 * dim..base + 4 * dim],
        );
        out[b * BLOCK..(b + 1) * BLOCK].copy_from_slice(&scores);
    }
    for j in blocks * BLOCK..n {
        out[j] = dot(q, &panel[j * dim..(j + 1) * dim]);
    }
}

/// Scores one query row against gathered rows of a row-major table:
/// `out[i] = dot(q, data[rows[i]])`. The gathered form the IVF inverted-list
/// scans and the SQ8 exact re-rank use — row indexes need not be contiguous,
/// sorted or unique.
///
/// # Panics
/// Panics in debug builds if `out` is shorter than `rows`; panics if a row
/// index is out of bounds for `data`.
#[inline]
pub fn scan_gather(q: &[f32], data: &[f32], dim: usize, rows: &[u32], out: &mut [f32]) {
    debug_assert_eq!(q.len(), dim);
    debug_assert!(out.len() >= rows.len());
    let mut blocks = rows.chunks_exact(BLOCK);
    let mut j = 0;
    for block in &mut blocks {
        let (i0, i1, i2, i3) = (
            block[0] as usize * dim,
            block[1] as usize * dim,
            block[2] as usize * dim,
            block[3] as usize * dim,
        );
        let scores = dot_1x4(
            q,
            &data[i0..i0 + dim],
            &data[i1..i1 + dim],
            &data[i2..i2 + dim],
            &data[i3..i3 + dim],
        );
        out[j..j + BLOCK].copy_from_slice(&scores);
        j += BLOCK;
    }
    for &row in blocks.remainder() {
        let base = row as usize * dim;
        out[j] = dot(q, &data[base..base + dim]);
        j += 1;
    }
}

/// Packs the full [`GROUP`]-row groups of a row-major table (`dim` columns)
/// into element-major order: row `g·GROUP + r`, element `e` lands at
/// `(g·dim + e)·GROUP + r`, so each group is `dim` runs of [`GROUP`]
/// contiguous values. The trailing `rows % GROUP` rows are not packed —
/// [`scan_packed`] scores them from the row-major table. The result has
/// `(rows / GROUP) · dim · GROUP` entries.
///
/// # Panics
/// Panics in debug builds if `data.len()` is not a multiple of `dim`.
pub fn pack_panel(data: &[f32], dim: usize) -> Vec<f32> {
    if dim == 0 {
        return Vec::new();
    }
    debug_assert_eq!(data.len() % dim, 0);
    let groups = data.len() / dim / GROUP;
    let mut packed = vec![0.0f32; groups * dim * GROUP];
    for (g, group) in packed.chunks_exact_mut(dim * GROUP).enumerate() {
        let rows = &data[g * GROUP * dim..(g + 1) * GROUP * dim];
        for (r, row) in rows.chunks_exact(dim).enumerate() {
            for (e, &x) in row.iter().enumerate() {
                group[e * GROUP + r] = x;
            }
        }
    }
    packed
}

/// The 1×[`GROUP`] packed kernel: `q` against one element-major group (see
/// [`pack_panel`]), each output bit-identical to [`dot`] of that pair.
/// `acc[l][r]` accumulates element `e` of row `r` for every `e ≡ l`
/// (mod [`LANES`]) — the lane assignment of [`dot`] — and the lanes are
/// combined in [`dot`]'s order. Element `e` of the eight rows is one
/// contiguous run, so it is a plain load multiplied by the broadcast
/// `q[e]`.
#[inline]
fn dot_1x8(q: &[f32], group: &[f32]) -> [f32; GROUP] {
    debug_assert_eq!(group.len(), q.len() * GROUP);
    let mut acc = [[0.0f32; GROUP]; LANES];
    let mut qc = q.chunks_exact(LANES);
    let mut gc = group.chunks_exact(LANES * GROUP);
    for (qs, gs) in (&mut qc).zip(&mut gc) {
        for ((lane, &x), run) in acc.iter_mut().zip(qs).zip(gs.chunks_exact(GROUP)) {
            for (a, &y) in lane.iter_mut().zip(run) {
                *a += x * y;
            }
        }
    }
    let tail = gc.remainder().chunks_exact(GROUP);
    for ((lane, &x), run) in acc.iter_mut().zip(qc.remainder()).zip(tail) {
        for (a, &y) in lane.iter_mut().zip(run) {
            *a += x * y;
        }
    }
    let mut out = [0.0f32; GROUP];
    for (r, o) in out.iter_mut().enumerate() {
        *o = combine([acc[0][r], acc[1][r], acc[2][r], acc[3][r]]);
    }
    out
}

/// Scores one query row against the table rows `rows`, writing
/// `dot(q, data_row_j)` into `out[j - rows.start]`. `data` is the row-major
/// table and `packed` its [`pack_panel`]. Every [`GROUP`]-aligned group
/// inside `rows` goes through the packed 1×[`GROUP`] kernel (indexed by its
/// absolute group); the partial groups at either end of the range — a range
/// may start or end anywhere — are scored by [`dot`] on the row-major rows.
/// Bit-identical to [`dot`] either way.
///
/// # Panics
/// Panics in debug builds if `q.len() != dim` or `out.len() != rows.len()`;
/// panics if `rows` reaches past `data` or `packed` does not cover its
/// groups.
// Kept out of line: inlined into the top-k loop of `process_block`, the
// SLP vectoriser re-interleaves the packed loads with shuffles and the
// build runs ~25% slower. A call per (query, tile) costs nothing
// measurable.
#[inline(never)]
pub fn scan_packed(
    q: &[f32],
    data: &[f32],
    packed: &[f32],
    dim: usize,
    rows: Range<usize>,
    out: &mut [f32],
) {
    debug_assert_eq!(q.len(), dim);
    debug_assert_eq!(out.len(), rows.len());
    let start = rows.start;
    let first_group = start.div_ceil(GROUP);
    let end_group = (rows.end / GROUP).max(first_group);
    let head_end = (first_group * GROUP).min(rows.end);
    let tail_start = (end_group * GROUP).max(head_end);
    for j in (start..head_end).chain(tail_start..rows.end) {
        out[j - start] = dot(q, &data[j * dim..(j + 1) * dim]);
    }
    let stride = dim * GROUP;
    for g in first_group..end_group {
        let scores = dot_1x8(q, &packed[g * stride..(g + 1) * stride]);
        out[g * GROUP - start..(g + 1) * GROUP - start].copy_from_slice(&scores);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, offset: f32) -> Vec<f32> {
        (0..n).map(|i| offset + 0.25 * i as f32).collect()
    }

    #[test]
    fn dot_matches_sequential_sum_on_exact_values() {
        // Integer-valued inputs: any summation order gives the same bits.
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let b = [7.0f32, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0];
        let expected: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot(&a, &b), expected);
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[3.0], &[4.0]), 12.0);
    }

    #[test]
    fn scan_block_matches_per_row_dot() {
        for n_rows in 0..=9 {
            for dim in [1usize, 2, 5, 6, 100] {
                let q = ramp(dim, -0.9);
                let panel: Vec<f32> = (0..n_rows * dim).map(|i| 0.01 * i as f32 - 1.0).collect();
                let mut out = vec![0.0f32; n_rows];
                scan_block(&q, &panel, dim, &mut out);
                for j in 0..n_rows {
                    let row = &panel[j * dim..(j + 1) * dim];
                    assert_eq!(out[j].to_bits(), dot(&q, row).to_bits());
                }
            }
        }
    }

    #[test]
    fn scan_gather_handles_arbitrary_index_patterns() {
        let dim = 6;
        let n = 10;
        let data: Vec<f32> = (0..n * dim).map(|i| (i as f32).sin()).collect();
        let q = ramp(dim, 0.1);
        // Unsorted, duplicated, partial-block index list.
        let rows = [7u32, 0, 7, 3, 9, 2, 2];
        let mut out = vec![0.0f32; rows.len()];
        scan_gather(&q, &data, dim, &rows, &mut out);
        for (i, &row) in rows.iter().enumerate() {
            let r = &data[row as usize * dim..(row as usize + 1) * dim];
            assert_eq!(out[i].to_bits(), dot(&q, r).to_bits());
        }
    }

    #[test]
    fn pack_panel_round_trips_the_layout() {
        for rows in [0usize, 1, 7, 8, 9, 16, 21] {
            for dim in [0usize, 1, 3, 4, 5] {
                let data: Vec<f32> = (0..rows * dim).map(|i| i as f32).collect();
                let packed = pack_panel(&data, dim);
                let groups = rows / GROUP;
                assert_eq!(packed.len(), groups * dim * GROUP, "rows {rows} dim {dim}");
                // Unpacking every group recovers the row-major prefix.
                let mut unpacked = vec![f32::NAN; groups * GROUP * dim];
                for g in 0..groups {
                    for e in 0..dim {
                        for r in 0..GROUP {
                            unpacked[(g * GROUP + r) * dim + e] = packed[(g * dim + e) * GROUP + r];
                        }
                    }
                }
                assert_eq!(unpacked, data[..groups * GROUP * dim]);
            }
        }
    }
}
