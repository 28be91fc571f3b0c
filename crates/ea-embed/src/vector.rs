//! Dense-vector kernels.
//!
//! All embedding math in the workspace goes through these functions. The dot
//! product — the one reduction on every hot path — delegates to the
//! register-blocked [`crate::kernel`] so that per-pair calls and the blocked
//! scans use the same unrolled summation order (see the kernel module's
//! determinism contract); everything else is a straightforward loop over
//! `f32` slices. Avoiding a BLAS dependency keeps the build self-contained.

use crate::kernel;

/// Dot product of two equal-length vectors — the per-pair entry point of the
/// register-blocked [`crate::kernel`] ([`LANES`](crate::kernel::LANES)-wide
/// unrolled independent accumulators). Bit-identical to the corresponding
/// entry of [`crate::kernel::scan_block`]/[`crate::kernel::scan_gather`].
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    kernel::dot(a, b)
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two vectors.
#[inline]
pub fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// L1 (Manhattan) distance between two vectors.
#[inline]
pub fn l1_distance(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Cosine similarity. Returns 0.0 when either vector is (numerically) zero so
/// that degenerate embeddings never dominate a nearest-neighbour search.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    cosine_with_norms(a, b, norm(a), norm(b))
}

/// [`cosine`] with the two norms already computed (`na = norm(a)`,
/// `nb = norm(b)`): bit-identical to it, for callers that compare one
/// vector against many and derive each norm once.
#[inline]
pub fn cosine_with_norms(a: &[f32], b: &[f32], na: f32, nb: f32) -> f32 {
    if na <= f32::EPSILON || nb <= f32::EPSILON {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// Cosine similarity of two *pre-normalised* vectors (unit rows, or all-zero
/// rows standing in for degenerate embeddings): a plain dot product clamped
/// to `[-1, 1]`.
///
/// Every similarity the alignment-inference phase computes — the dense
/// [`crate::SimilarityMatrix`] reference and the blocked
/// [`crate::CandidateIndex`] engine — goes through this one function on rows
/// produced by [`crate::EmbeddingTable::gather_normalized`], so the two paths
/// score bit-identically. Skipping the per-pair norm derivation of
/// [`cosine`] removes the O(n_s·n_t·d) of redundant norm work the old dense
/// compute paid.
#[inline]
pub fn cosine_prenormalized(a: &[f32], b: &[f32]) -> f32 {
    dot(a, b).clamp(-1.0, 1.0)
}

/// `out += alpha * x` (axpy).
#[inline]
pub fn add_scaled(out: &mut [f32], x: &[f32], alpha: f32) {
    debug_assert_eq!(out.len(), x.len());
    for (o, v) in out.iter_mut().zip(x) {
        *o += alpha * v;
    }
}

/// Element-wise sum of two vectors into a new vector. Training loops should
/// prefer [`add_into`] with a reused scratch buffer.
#[inline]
pub fn add(a: &[f32], b: &[f32]) -> Vec<f32> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Element-wise difference `a - b` into a new vector. Training loops should
/// prefer [`sub_into`] with a reused scratch buffer.
#[inline]
pub fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Element-wise sum `a + b` written into an existing buffer — the
/// allocation-free form of [`add`] for per-step gradient work inside
/// training loops (hold one scratch `Vec` outside the loop and reuse it).
#[inline]
pub fn add_into(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    for (o, (x, y)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o = x + y;
    }
}

/// Element-wise difference `a - b` written into an existing buffer — the
/// allocation-free form of [`sub`] for per-step gradient work inside
/// training loops.
#[inline]
pub fn sub_into(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    for (o, (x, y)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o = x - y;
    }
}

/// Scales a vector in place.
#[inline]
pub fn scale(a: &mut [f32], alpha: f32) {
    for v in a.iter_mut() {
        *v *= alpha;
    }
}

/// Normalises a vector to unit L2 norm in place. Zero vectors are left
/// untouched.
#[inline]
pub fn normalize(a: &mut [f32]) {
    let n = norm(a);
    if n > f32::EPSILON {
        scale(a, 1.0 / n);
    }
}

/// Arithmetic mean of a set of vectors. Returns a zero vector of length `dim`
/// when the set is empty. The single mean-of-rows reduction in the workspace
/// ([`crate::EmbeddingTable::mean_of_rows`] delegates here); reductions that
/// run inside loops should use [`mean_into`] with a reused buffer.
pub fn mean<'a, I: IntoIterator<Item = &'a [f32]>>(vectors: I, dim: usize) -> Vec<f32> {
    let mut acc = vec![0.0f32; dim];
    mean_into(vectors, &mut acc);
    acc
}

/// [`mean`] written into an existing buffer (`out` is fully overwritten; its
/// length is the dimension). Returns the number of vectors averaged.
pub fn mean_into<'a, I: IntoIterator<Item = &'a [f32]>>(vectors: I, out: &mut [f32]) -> usize {
    out.fill(0.0);
    let mut count = 0usize;
    for v in vectors {
        add_scaled(out, v, 1.0);
        count += 1;
    }
    if count > 0 {
        scale(out, 1.0 / count as f32);
    }
    count
}

/// Concatenates two vectors (the `⊕` of the paper's path representation,
/// Eq. 2).
pub fn concat(a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn distances() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(l1_distance(&[0.0, 0.0], &[3.0, -4.0]), 7.0);
    }

    #[test]
    fn cosine_of_parallel_and_orthogonal() {
        assert!((cosine(&[1.0, 0.0], &[2.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
        assert_eq!(cosine(&[1.0, 1.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn axpy_and_elementwise_ops() {
        let mut out = vec![1.0, 1.0];
        add_scaled(&mut out, &[2.0, 4.0], 0.5);
        assert_eq!(out, vec![2.0, 3.0]);
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 4.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn in_place_add_and_sub_match_allocating_forms() {
        let a = [1.0f32, 2.5, -3.0];
        let b = [0.5f32, -1.5, 4.0];
        let mut out = vec![9.0f32; 3]; // stale scratch must be overwritten
        add_into(&a, &b, &mut out);
        assert_eq!(out, add(&a, &b));
        sub_into(&a, &b, &mut out);
        assert_eq!(out, sub(&a, &b));
    }

    #[test]
    fn mean_into_reuses_scratch_and_counts() {
        let a = vec![1.0f32, 2.0];
        let b = vec![3.0f32, 6.0];
        let mut out = vec![7.0f32; 2];
        assert_eq!(mean_into([a.as_slice(), b.as_slice()], &mut out), 2);
        assert_eq!(out, vec![2.0, 4.0]);
        assert_eq!(mean_into(std::iter::empty(), &mut out), 0);
        assert_eq!(out, vec![0.0, 0.0]);
    }

    #[test]
    fn normalize_produces_unit_vectors() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
        let mut zero = vec![0.0, 0.0];
        normalize(&mut zero);
        assert_eq!(zero, vec![0.0, 0.0]);
    }

    #[test]
    fn mean_of_vectors() {
        let a = vec![1.0f32, 2.0];
        let b = vec![3.0f32, 6.0];
        let m = mean([a.as_slice(), b.as_slice()], 2);
        assert_eq!(m, vec![2.0, 4.0]);
        let empty = mean(std::iter::empty(), 3);
        assert_eq!(empty, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn concat_appends() {
        assert_eq!(concat(&[1.0], &[2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn sigmoid_is_stable_and_bounded() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 0.001);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!(sigmoid(1000.0) <= 1.0);
        // Symmetry: sigmoid(-x) = 1 - sigmoid(x)
        let x = 1.37;
        assert!((sigmoid(-x) - (1.0 - sigmoid(x))).abs() < 1e-12);
    }
}
