//! Compressed sparse row (CSR) matrices.
//!
//! The `UoI_VAR` vectorised design matrix `I ⊗ X` is block diagonal with
//! sparsity `1 - 1/p` (paper §IV-B1), so the reference implementation used
//! Eigen's sparse module on that path. This module provides the CSR kernels
//! that path needs: construction from triplets or dense, `spmv`,
//! transposed `spmv`, Gram products restricted to supports, and the
//! block-diagonal constructor used by the explicit Kronecker build.

use crate::dense::Matrix;

/// A CSR (compressed sparse row) matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array, length `rows + 1`.
    row_ptr: Vec<usize>,
    /// Column indices, length `nnz`, sorted within each row.
    col_idx: Vec<usize>,
    /// Nonzero values, length `nnz`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Empty matrix with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: vec![],
            values: vec![],
        }
    }

    /// Build from `(row, col, value)` triplets. Duplicate entries are summed;
    /// explicit zeros are dropped.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut sorted: Vec<(usize, usize, f64)> = triplets
            .iter()
            .copied()
            .inspect(|&(r, c, _)| {
                assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds");
            })
            .collect();
        sorted.sort_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut current_row = 0usize;
        for (r, c, v) in sorted {
            if let (Some(&last_c), Some(last_v)) = (col_idx.last(), values.last_mut()) {
                if current_row == r && last_c == c && row_ptr[r] < col_idx.len() {
                    // Duplicate within the same row: accumulate.
                    *last_v += v;
                    continue;
                }
            }
            while current_row < r {
                current_row += 1;
                row_ptr[current_row] = col_idx.len();
            }
            col_idx.push(c);
            values.push(v);
        }
        while current_row < rows {
            current_row += 1;
            row_ptr[current_row] = col_idx.len();
        }
        let mut m = Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        };
        m.prune(0.0);
        m
    }

    /// Convert a dense matrix, keeping entries with `|v| > tol`.
    pub fn from_dense(a: &Matrix, tol: f64) -> Self {
        let (rows, cols) = a.shape();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for i in 0..rows {
            for (j, &v) in a.row(i).iter().enumerate() {
                if v.abs() > tol {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Block-diagonal matrix with `copies` copies of `block` — the explicit
    /// form of `I_copies ⊗ block`.
    pub fn block_diag(block: &Matrix, copies: usize) -> Self {
        let (br, bc) = block.shape();
        let sparse_block = Self::from_dense(block, 0.0);
        let nnz = sparse_block.nnz() * copies;
        let mut row_ptr = Vec::with_capacity(br * copies + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for k in 0..copies {
            let col_off = k * bc;
            for i in 0..br {
                let (cs, vs) = sparse_block.row_entries(i);
                col_idx.extend(cs.iter().map(|&c| c + col_off));
                values.extend_from_slice(vs);
                row_ptr.push(col_idx.len());
            }
        }
        Self {
            rows: br * copies,
            cols: bc * copies,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries that are zero (the paper quotes `1 - 1/p` for the
    /// Kronecker design matrix).
    pub fn sparsity(&self) -> f64 {
        let total = (self.rows * self.cols) as f64;
        if total == 0.0 {
            0.0
        } else {
            1.0 - self.nnz() as f64 / total
        }
    }

    /// Column indices and values of row `i`.
    pub fn row_entries(&self, i: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[s..e], &self.values[s..e])
    }

    /// Element lookup (O(log nnz_row)).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row_entries(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Drop stored entries with `|v| <= tol`.
    pub fn prune(&mut self, tol: f64) {
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for i in 0..self.rows {
            let (cs, vs) = {
                let (s, e) = (self.row_ptr[i], self.row_ptr[i + 1]);
                (&self.col_idx[s..e], &self.values[s..e])
            };
            for (&c, &v) in cs.iter().zip(vs) {
                if v.abs() > tol {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr[i + 1] = col_idx.len();
        }
        self.row_ptr = row_ptr;
        self.col_idx = col_idx;
        self.values = values;
    }

    /// Sparse matrix-vector product `A * x`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "spmv: dimension mismatch");
        (0..self.rows)
            .map(|i| {
                let (cs, vs) = self.row_entries(i);
                cs.iter().zip(vs).map(|(&c, &v)| v * x[c]).sum()
            })
            .collect()
    }

    /// Transposed sparse matrix-vector product `A^T * x`.
    pub fn spmv_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "spmv_t: dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            if xi != 0.0 {
                let (cs, vs) = self.row_entries(i);
                for (&c, &v) in cs.iter().zip(vs) {
                    y[c] += v * xi;
                }
            }
        }
        y
    }

    /// Dense representation (test/debug helper — quadratic memory).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cs, vs) = self.row_entries(i);
            for (&c, &v) in cs.iter().zip(vs) {
                m[(i, c)] = v;
            }
        }
        m
    }

    /// Extract the sub-matrix keeping only the listed columns (support
    /// restriction for the sparse OLS path). Column order follows `idx`.
    pub fn gather_cols(&self, idx: &[usize]) -> CsrMatrix {
        // Map original column -> new position.
        let mut remap = vec![usize::MAX; self.cols];
        for (new, &old) in idx.iter().enumerate() {
            assert!(old < self.cols);
            remap[old] = new;
        }
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..self.rows {
            let (cs, vs) = self.row_entries(i);
            let mut entries: Vec<(usize, f64)> = cs
                .iter()
                .zip(vs)
                .filter_map(|(&c, &v)| (remap[c] != usize::MAX).then_some((remap[c], v)))
                .collect();
            entries.sort_by_key(|&(c, _)| c);
            for (c, v) in entries {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr[i + 1] = col_idx.len();
        }
        CsrMatrix {
            rows: self.rows,
            cols: idx.len(),
            row_ptr,
            col_idx,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_roundtrip_with_duplicates() {
        let m =
            CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (1, 2, 2.0), (1, 2, 3.0), (2, 1, -1.0)]);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.get(2, 1), -1.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn from_dense_and_back() {
        let d = Matrix::from_rows(&[&[0.0, 1.5], &[2.5, 0.0], &[0.0, 0.0]]);
        let s = CsrMatrix::from_dense(&d, 0.0);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.to_dense(), d);
        assert!((s.sparsity() - 4.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    fn spmv_matches_dense() {
        let d = Matrix::from_fn(6, 4, |i, j| {
            if (i + j) % 3 == 0 {
                (i + 1) as f64
            } else {
                0.0
            }
        });
        let s = CsrMatrix::from_dense(&d, 0.0);
        let x = [1.0, -2.0, 0.5, 3.0];
        assert_eq!(s.spmv(&x), crate::blas::gemv(&d, &x));
        let xt = [1.0, 0.0, -1.0, 2.0, 0.5, 1.0];
        assert_eq!(s.spmv_t(&xt), crate::blas::gemv_t(&d, &xt));
    }

    #[test]
    fn block_diag_is_identity_kron() {
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let bd = CsrMatrix::block_diag(&b, 3);
        assert_eq!(bd.shape(), (6, 6));
        assert_eq!(bd.nnz(), 12);
        assert_eq!(bd.get(0, 0), 1.0);
        assert_eq!(bd.get(2, 2), 1.0);
        assert_eq!(bd.get(5, 4), 3.0);
        assert_eq!(bd.get(0, 2), 0.0);
        // Paper's sparsity formula: 1 - 1/p with p = copies here since the
        // block is square: sparsity = 1 - 1/3.
        assert!((bd.sparsity() - (1.0 - 1.0 / 3.0)).abs() < 1e-15);
    }

    #[test]
    fn gather_cols_subset() {
        let d = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let s = CsrMatrix::from_dense(&d, 0.0);
        let g = s.gather_cols(&[2, 0]);
        assert_eq!(g.to_dense(), d.gather_cols(&[2, 0]));
    }

    #[test]
    fn prune_drops_small_entries() {
        let mut m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1e-12), (1, 1, 1.0)]);
        m.prune(1e-9);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(1, 1), 1.0);
    }

    #[test]
    fn empty_rows_handled() {
        let m = CsrMatrix::from_triplets(4, 4, &[(3, 3, 2.0)]);
        assert_eq!(m.get(3, 3), 2.0);
        assert_eq!(m.spmv(&[1.0; 4]), vec![0.0, 0.0, 0.0, 2.0]);
    }
}
