//! Dense row-major matrices with the operations backpropagation needs.
//!
//! This is deliberately a small, allocation-honest matrix type rather
//! than a general tensor library: every operation the layers use is a
//! named method with shape assertions, so dimension bugs fail loudly at
//! the call site.

use cne_util::SeedSequence;
use rand::Rng;

/// A dense `rows × cols` matrix of `f64` in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)`.
    #[must_use]
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Self { rows, cols, data }
    }

    /// Builds a matrix whose rows are the given vectors.
    ///
    /// # Panics
    /// Panics if rows have unequal lengths or `rows` is empty.
    #[must_use]
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix with entries drawn IID uniform in `[-scale, scale]`.
    #[must_use]
    pub fn random_uniform(rows: usize, cols: usize, scale: f64, seed: SeedSequence) -> Self {
        let mut rng = seed.rng();
        Self::from_fn(rows, cols, |_, _| rng.gen_range(-scale..=scale))
    }

    /// `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row out of range");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw row-major buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    /// Panics unless `self.cols == rhs.rows`.
    #[must_use]
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order for cache-friendly access of row-major data.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `selfᵀ · rhs` without materializing the transpose.
    ///
    /// # Panics
    /// Panics unless `self.rows == rhs.rows`.
    #[must_use]
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "transpose_matmul shape mismatch");
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[i * rhs.cols..(i + 1) * rhs.cols];
                let out_row = &mut out.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self · rhsᵀ`.
    ///
    /// Bit-identical to the row-by-row dot products
    /// `Σ_k self[i,k]·rhs[j,k]` summed with [`Iterator::sum`]: every
    /// output starts from the same identity `sum` starts from and adds
    /// its products in `k` order. The loop runs i-k-j over a transposed
    /// copy of `rhs`, so the innermost loop updates a contiguous output
    /// row and vectorizes, where the dot-product reduction cannot
    /// (reassociating it would change the rounding).
    ///
    /// # Panics
    /// Panics unless `self.cols == rhs.cols`.
    #[must_use]
    pub fn matmul_transpose(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "matmul_transpose shape mismatch");
        let rhs_t = rhs.transpose();
        // −0.0 on current toolchains, +0.0 on older ones.
        let identity: f64 = std::iter::empty::<f64>().sum();
        let mut out = Matrix::from_vec(self.rows, rhs.rows, vec![identity; self.rows * rhs.rows]);
        for i in 0..self.rows {
            let out_row = &mut out.data[i * rhs.rows..(i + 1) * rhs.rows];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                let bt_row = &rhs_t.data[k * rhs.rows..(k + 1) * rhs.rows];
                for (o, &b) in out_row.iter_mut().zip(bt_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Materialized transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.data[c * self.cols + r])
    }

    /// Adds a row vector to every row (bias broadcast).
    ///
    /// # Panics
    /// Panics unless `bias.len() == cols`.
    pub fn add_row_broadcast(&mut self, bias: &[f64]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (v, &b) in self.data[r * self.cols..(r + 1) * self.cols]
                .iter_mut()
                .zip(bias)
            {
                *v += b;
            }
        }
    }

    /// Column sums (used for bias gradients).
    #[must_use]
    pub fn column_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, &v) in out
                .iter_mut()
                .zip(&self.data[r * self.cols..(r + 1) * self.cols])
            {
                *o += v;
            }
        }
        out
    }

    /// In-place element-wise map.
    pub fn map_inplace<F: FnMut(f64) -> f64>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// `self += alpha * other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scales every entry by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Frobenius norm.
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Extracts the sub-matrix made of the given rows.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    #[must_use]
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Number of scalar entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn m(rows: usize, cols: usize, data: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, data.to_vec())
    }

    /// The original `matmul_transpose`: one `Iterator::sum` dot
    /// product per output. The oracle the i-k-j kernel must match
    /// bit for bit.
    fn matmul_transpose_reference(lhs: &Matrix, rhs: &Matrix) -> Matrix {
        assert_eq!(lhs.cols, rhs.cols, "matmul_transpose shape mismatch");
        let mut out = Matrix::zeros(lhs.rows, rhs.rows);
        for i in 0..lhs.rows {
            let a_row = &lhs.data[i * lhs.cols..(i + 1) * lhs.cols];
            for j in 0..rhs.rows {
                let b_row = &rhs.data[j * rhs.cols..(j + 1) * rhs.cols];
                let dot: f64 = a_row.iter().zip(b_row).map(|(&a, &b)| a * b).sum();
                out.data[i * rhs.rows + j] = dot;
            }
        }
        out
    }

    /// A random matrix with a seed-chosen share of exact `±0.0`
    /// entries (ReLU-zeroed gradients, zero-padded inputs) and,
    /// optionally, whole zero rows.
    fn sparse_random(rows: usize, cols: usize, zero_pct: u64, seed: u64) -> Matrix {
        let mut rng = SeedSequence::new(seed).rng();
        let zero_row = rows > 1 && rng.gen_range(0..4) == 0;
        Matrix::from_fn(rows, cols, |r, _| {
            let roll: u64 = rng.gen_range(0..100);
            if (zero_row && r == 0) || roll < zero_pct {
                if roll % 2 == 0 {
                    0.0
                } else {
                    -0.0
                }
            } else {
                rng.gen_range(-2.0..2.0)
            }
        })
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// The vectorizable kernel is `to_bits`-identical to the
        /// dot-product original, signed zeros included.
        #[test]
        fn matmul_transpose_matches_reference_bits(
            rows in 0usize..9, cols in 0usize..17, other in 0usize..9,
            zero_pct in 0u64..101, seed in 0u64..1_000_000,
        ) {
            let a = sparse_random(rows, cols, zero_pct, seed);
            let b = sparse_random(other, cols, zero_pct, seed ^ 0x5eed);
            let fast = a.matmul_transpose(&b);
            let slow = matmul_transpose_reference(&a, &b);
            prop_assert_eq!(fast.shape(), slow.shape());
            prop_assert_eq!(bits(&fast), bits(&slow));
        }
    }

    #[test]
    fn matmul_small_known() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_matmul_agrees_with_explicit() {
        let a = Matrix::random_uniform(4, 3, 1.0, SeedSequence::new(1));
        let b = Matrix::random_uniform(4, 5, 1.0, SeedSequence::new(2));
        let fast = a.transpose_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert_eq!(fast.shape(), (3, 5));
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_transpose_agrees_with_explicit() {
        let a = Matrix::random_uniform(4, 3, 1.0, SeedSequence::new(3));
        let b = Matrix::random_uniform(5, 3, 1.0, SeedSequence::new(4));
        let fast = a.matmul_transpose(&b);
        let slow = a.matmul(&b.transpose());
        assert_eq!(fast.shape(), (4, 5));
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn broadcast_and_column_sums() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_broadcast(&[1.0, -2.0]);
        assert_eq!(a.as_slice(), &[1.0, -2.0, 1.0, -2.0, 1.0, -2.0]);
        assert_eq!(a.column_sums(), vec![3.0, -6.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[1.0, 1.0, 1.0]);
        a.axpy(2.0, &b);
        assert_eq!(a.as_slice(), &[3.0, 4.0, 5.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn select_rows_copies() {
        let a = m(3, 2, &[0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
        let sel = a.select_rows(&[2, 0]);
        assert_eq!(sel.as_slice(), &[20.0, 21.0, 0.0, 1.0]);
    }

    #[test]
    fn from_rows_builds() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.shape(), (2, 2));
        assert_eq!(a.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn frobenius_norm_known() {
        let a = m(1, 2, &[3.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }
}
