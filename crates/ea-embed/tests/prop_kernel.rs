//! Property suite pinning the register-blocked micro-kernel.
//!
//! The kernel's whole value rests on one invariant: for a given
//! `(query, row)` pair, **every** entry point — the per-pair [`kernel::dot`],
//! the contiguous-panel [`kernel::scan_block`], the gathered
//! [`kernel::scan_gather`] and the packed-group [`kernel::scan_packed`] —
//! produces the same bits, for every remainder `rows % BLOCK` and
//! `rows % GROUP`, every dimension (odd, below one lane, below one block,
//! zero) and, for the packed scan, every row sub-range. That is what lets
//! the dense reference, the blocked engine, the IVF pre-filter and the SQ8
//! re-rank all change summation order *together* and stay bit-identical to
//! each other.
//!
//! A tolerance check against an f64 reference keeps the unrolled kernel
//! honest about being a dot product at all, not just self-consistent.

use ea_embed::kernel;
use proptest::prelude::*;

/// Finite, moderately sized values: enough dynamic range to catch ordering
/// bugs, no infinities that would mask them with NaN propagation.
fn value() -> impl Strategy<Value = f32> {
    (-100i32..=100).prop_map(|v| v as f32 * 0.0173)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `scan_block` == the reference scalar loop (one `dot` per row), bit for
    /// bit, across every block remainder and odd dimension.
    #[test]
    fn scan_block_is_bit_identical_to_the_per_pair_kernel(
        rows in 0usize..13,            // covers every remainder mod BLOCK
        dim in 0usize..23,             // odd dims, sub-lane dims, dim 0
        q_seed in proptest::collection::vec(value(), 0..23),
        data in proptest::collection::vec(value(), 0..300),
    ) {
        let q: Vec<f32> = (0..dim).map(|i| *q_seed.get(i).unwrap_or(&0.37)).collect();
        let panel: Vec<f32> = (0..rows * dim)
            .map(|i| *data.get(i % data.len().max(1)).unwrap_or(&-0.21))
            .collect();
        let mut out = vec![f32::NAN; rows];
        kernel::scan_block(&q, &panel, dim, &mut out);
        for j in 0..rows {
            let row = &panel[j * dim..(j + 1) * dim];
            prop_assert_eq!(
                out[j].to_bits(),
                kernel::dot(&q, row).to_bits(),
                "rows {} dim {} row {}", rows, dim, j
            );
        }
    }

    /// `scan_gather` == `dot` on arbitrary (unsorted, duplicated) row lists.
    #[test]
    fn scan_gather_is_bit_identical_on_arbitrary_index_lists(
        n in 1usize..12,
        dim in 0usize..17,
        picks in proptest::collection::vec(0usize..12, 0..15),
        data in proptest::collection::vec(value(), 0..220),
    ) {
        let take = |i: usize| *data.get(i % data.len().max(1)).unwrap_or(&1.25);
        let table: Vec<f32> = (0..n * dim).map(take).collect();
        let q: Vec<f32> = (0..dim).map(|d| take(d + 7919)).collect();
        let rows: Vec<u32> = picks.iter().map(|&p| (p % n) as u32).collect();
        let mut out = vec![f32::NAN; rows.len()];
        kernel::scan_gather(&q, &table, dim, &rows, &mut out);
        for (i, &row) in rows.iter().enumerate() {
            let r = &table[row as usize * dim..(row as usize + 1) * dim];
            prop_assert_eq!(out[i].to_bits(), kernel::dot(&q, r).to_bits());
        }
    }

    /// The unrolled kernel is still a dot product: within f64-accumulation
    /// tolerance of the mathematically ordered sum.
    #[test]
    fn dot_tracks_the_f64_reference(
        pairs in proptest::collection::vec((value(), value()), 0..64),
    ) {
        let a: Vec<f32> = pairs.iter().map(|&(x, _)| x).collect();
        let b: Vec<f32> = pairs.iter().map(|&(_, y)| y).collect();
        let reference: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
        let got = kernel::dot(&a, &b) as f64;
        let tol = 1e-4 * (1.0 + reference.abs());
        prop_assert!((got - reference).abs() <= tol, "{got} vs {reference}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `scan_packed` == `dot` per row, bit for bit, exhaustively over tables
    /// of 0..=17 rows (every remainder mod GROUP, up to two full groups),
    /// every dimension below 23 (0, sub-lane and odd dims) and every
    /// `(tile_start, tile_end)` sub-range of the packed table — ranges that
    /// start or end mid-group included.
    #[test]
    fn scan_packed_is_bit_identical_on_every_sub_range(
        q_seed in proptest::collection::vec(value(), 22),
        data in proptest::collection::vec(value(), 1..400),
    ) {
        for rows in 0usize..=17 {
            for dim in 0usize..23 {
                let q = &q_seed[..dim];
                let table: Vec<f32> = (0..rows * dim).map(|i| data[i % data.len()]).collect();
                let packed = kernel::pack_panel(&table, dim);
                for start in 0..=rows {
                    for end in start..=rows {
                        let mut out = vec![f32::NAN; end - start];
                        kernel::scan_packed(q, &table, &packed, dim, start..end, &mut out);
                        for (o, j) in out.iter().zip(start..end) {
                            let row = &table[j * dim..(j + 1) * dim];
                            prop_assert_eq!(
                                o.to_bits(),
                                kernel::dot(q, row).to_bits(),
                                "rows {} dim {} range {}..{} row {}", rows, dim, start, end, j
                            );
                        }
                    }
                }
            }
        }
    }
}
