//! Row-major embedding tables.

use crate::vector;
use rand::Rng;

/// A dense table of `rows` embeddings of dimension `dim`, stored row-major.
///
/// Entity and relation embeddings of every model in the workspace are stored
/// in this type; [`ea_graph::EntityId`]-style dense ids double as row indexes.
///
/// [`ea_graph::EntityId`]: https://docs.rs/ea-graph
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTable {
    rows: usize,
    dim: usize,
    data: Vec<f32>,
}

impl EmbeddingTable {
    /// Creates a zero-initialised table.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        Self {
            rows,
            dim,
            data: vec![0.0; rows * dim],
        }
    }

    /// Wraps an existing row-major buffer (`rows * dim` values) as a table —
    /// how the LSM segments own the rows they gathered.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * dim`.
    pub(crate) fn from_data(rows: usize, dim: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * dim, "row-major buffer length mismatch");
        Self { rows, dim, data }
    }

    /// Creates a table initialised with Xavier/Glorot uniform noise:
    /// each value is drawn from `U(-b, b)` with `b = sqrt(6 / (rows + dim))`.
    pub fn xavier<R: Rng>(rows: usize, dim: usize, rng: &mut R) -> Self {
        let bound = (6.0 / (rows + dim).max(1) as f64).sqrt() as f32;
        let data = (0..rows * dim)
            .map(|_| rng.gen_range(-bound..=bound))
            .collect();
        Self { rows, dim, data }
    }

    /// Creates a table with every row drawn uniformly from `[-bound, bound]`
    /// and then L2-normalised (the initialisation TransE-style models use).
    pub fn uniform_normalized<R: Rng>(rows: usize, dim: usize, bound: f32, rng: &mut R) -> Self {
        let mut table = Self {
            rows,
            dim,
            data: (0..rows * dim)
                .map(|_| rng.gen_range(-bound..=bound))
                .collect(),
        };
        table.normalize_rows();
        table
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Immutable view of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Copies the contents of row `src` of `other` into row `dst` of `self`.
    pub fn copy_row_from(&mut self, dst: usize, other: &EmbeddingTable, src: usize) {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        let src_row = other.row(src).to_vec();
        self.row_mut(dst).copy_from_slice(&src_row);
    }

    /// L2-normalises every row in place (zero rows are left untouched).
    pub fn normalize_rows(&mut self) {
        for i in 0..self.rows {
            vector::normalize(self.row_mut(i));
        }
    }

    /// Adds `alpha * grad` to row `i`.
    pub fn add_to_row(&mut self, i: usize, grad: &[f32], alpha: f32) {
        vector::add_scaled(self.row_mut(i), grad, alpha);
    }

    /// Gathers the given rows into a new table with every row L2-normalised.
    ///
    /// Rows whose norm is numerically zero (`<= f32::EPSILON`) come out
    /// all-zero, so downstream dot products score them as 0 against
    /// everything — the same contract [`vector::cosine`] applies to
    /// degenerate embeddings. This is the one-time normalisation pass the
    /// similarity engines run instead of re-deriving norms per pair.
    pub fn gather_normalized(&self, rows: &[usize]) -> EmbeddingTable {
        let mut out = EmbeddingTable::zeros(rows.len(), self.dim);
        for (dst, &src) in rows.iter().enumerate() {
            self.normalized_row_into(src, out.row_mut(dst));
        }
        out
    }

    /// Writes the L2-normalised copy of row `src` into `out` — the per-row
    /// kernel behind [`Self::gather_normalized`], exposed so callers can
    /// normalise single rows with bit-identical results to the gather.
    ///
    /// Rows with numerically zero norm (`<= f32::EPSILON`) come out
    /// all-zero, matching the [`vector::cosine`] degenerate-embedding
    /// contract.
    ///
    /// # Panics
    /// Panics if `src >= rows` or `out.len() != dim`.
    pub fn normalized_row_into(&self, src: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "output slice length mismatch");
        let row = self.row(src);
        let n = vector::norm(row);
        if n > f32::EPSILON {
            let inv = 1.0 / n;
            for (o, &v) in out.iter_mut().zip(row) {
                *o = v * inv;
            }
        } else {
            out.fill(0.0);
        }
    }

    /// Mean of a set of rows; a zero vector if the set is empty.
    pub fn mean_of_rows(&self, rows: &[usize]) -> Vec<f32> {
        vector::mean(rows.iter().map(|&r| self.row(r)), self.dim)
    }

    /// Frobenius norm of the whole table (used in convergence diagnostics).
    pub fn frobenius_norm(&self) -> f32 {
        vector::norm(&self.data)
    }

    /// Raw data slice (row-major). Mainly useful for tests and serialization.
    pub fn data(&self) -> &[f32] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_table_shape() {
        let t = EmbeddingTable::zeros(3, 4);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.dim(), 4);
        assert!(t.data().iter().all(|&x| x == 0.0));
        assert_eq!(t.row(2).len(), 4);
    }

    #[test]
    fn xavier_values_are_bounded() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = EmbeddingTable::xavier(10, 8, &mut rng);
        let bound = (6.0f64 / 18.0).sqrt() as f32 + 1e-6;
        assert!(t.data().iter().all(|&x| x.abs() <= bound));
        // Not all values should be identical.
        assert!(t.data().iter().any(|&x| x != t.data()[0]));
    }

    #[test]
    fn uniform_normalized_rows_have_unit_norm() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = EmbeddingTable::uniform_normalized(5, 16, 6.0, &mut rng);
        for i in 0..5 {
            assert!((crate::vector::norm(t.row(i)) - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn xavier_is_deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let ta = EmbeddingTable::xavier(4, 4, &mut a);
        let tb = EmbeddingTable::xavier(4, 4, &mut b);
        assert_eq!(ta, tb);
    }

    #[test]
    fn row_mutation_and_updates() {
        let mut t = EmbeddingTable::zeros(2, 3);
        t.row_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        t.add_to_row(0, &[1.0, 1.0, 1.0], 2.0);
        assert_eq!(t.row(0), &[3.0, 4.0, 5.0]);
        assert_eq!(t.row(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn copy_row_from_other_table() {
        let mut a = EmbeddingTable::zeros(2, 2);
        let mut b = EmbeddingTable::zeros(2, 2);
        b.row_mut(1).copy_from_slice(&[7.0, 8.0]);
        a.copy_row_from(0, &b, 1);
        assert_eq!(a.row(0), &[7.0, 8.0]);
    }

    #[test]
    fn mean_of_rows_matches_manual_average() {
        let mut t = EmbeddingTable::zeros(3, 2);
        t.row_mut(0).copy_from_slice(&[1.0, 0.0]);
        t.row_mut(1).copy_from_slice(&[3.0, 2.0]);
        assert_eq!(t.mean_of_rows(&[0, 1]), vec![2.0, 1.0]);
        assert_eq!(t.mean_of_rows(&[]), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_row_panics() {
        let t = EmbeddingTable::zeros(1, 2);
        let _ = t.row(5);
    }

    #[test]
    fn frobenius_norm_is_positive_for_nonzero_table() {
        let mut t = EmbeddingTable::zeros(1, 2);
        t.row_mut(0).copy_from_slice(&[3.0, 4.0]);
        assert!((t.frobenius_norm() - 5.0).abs() < 1e-6);
    }
}
