//! Minimal dense linear algebra: row-major matrices and Cholesky
//! factorisation — all the Gaussian process machinery needs.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `f64` matrix.
///
/// ```
/// use boils_gp::Matrix;
///
/// let mut m = Matrix::zeros(2, 2);
/// m[(0, 0)] = 1.0;
/// m[(1, 1)] = 2.0;
/// assert_eq!(m[(1, 1)], 2.0);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major closure.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols);
        (0..self.rows)
            .map(|i| {
                let row = &self.data[i * self.cols..(i + 1) * self.cols];
                row.iter().zip(v).map(|(a, b)| a * b).sum()
            })
            .collect()
    }

    /// Matrix-matrix product.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows);
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Error: the matrix was not positive definite even after jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct NotPositiveDefiniteError {
    /// The pivot index where factorisation failed.
    pub pivot: usize,
}

impl fmt::Display for NotPositiveDefiniteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is not positive definite at pivot {}", self.pivot)
    }
}

impl std::error::Error for NotPositiveDefiniteError {}

/// A lower-triangular Cholesky factor `A = L·Lᵀ`.
#[derive(Clone, Debug)]
pub struct Cholesky {
    l: Matrix,
    jitter: f64,
}

impl Cholesky {
    /// Factorises a symmetric positive-definite matrix, adding `jitter` to
    /// the diagonal (retrying with ×10 jitter up to three times).
    ///
    /// # Errors
    ///
    /// Returns [`NotPositiveDefiniteError`] if factorisation keeps failing.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn new(a: &Matrix, jitter: f64) -> Result<Cholesky, NotPositiveDefiniteError> {
        assert_eq!(a.rows(), a.cols(), "cholesky needs a square matrix");
        let mut eps = jitter;
        let mut last_err = NotPositiveDefiniteError { pivot: 0 };
        for _ in 0..4 {
            match Self::factor(a, eps) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    last_err = e;
                    eps = (eps * 10.0).max(1e-12);
                }
            }
        }
        Err(last_err)
    }

    fn factor(a: &Matrix, jitter: f64) -> Result<Cholesky, NotPositiveDefiniteError> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                if i == j {
                    sum += jitter;
                }
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(NotPositiveDefiniteError { pivot: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l, jitter })
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// The diagonal jitter that was actually added during factorisation
    /// (the requested value, escalated ×10 per retry if needed).
    pub fn effective_jitter(&self) -> f64 {
        self.jitter
    }

    /// Extends the factor of an `n×n` matrix `A` to the factor of
    ///
    /// ```text
    /// A' = [ A   b ]
    ///      [ bᵀ  c ]
    /// ```
    ///
    /// in `O(n²)` instead of refactorising in `O(n³)`. The new row is
    /// `l = L⁻¹ b`, `d = √(c + jitter − lᵀl)`, using the same effective
    /// jitter as the original factorisation — so when the extension
    /// succeeds, the result is bit-identical to factorising `A'` from
    /// scratch at that jitter (the leading block of a Cholesky factor only
    /// depends on the leading block of the matrix, and the arithmetic here
    /// mirrors `Cholesky::factor`'s last row exactly).
    ///
    /// # Errors
    ///
    /// Returns [`NotPositiveDefiniteError`] if the new diagonal pivot is
    /// non-positive (the caller should fall back to a full factorisation,
    /// which can escalate jitter).
    ///
    /// # Panics
    ///
    /// Panics if `off_diag.len()` differs from the current dimension.
    pub fn extend(
        &self,
        off_diag: &[f64],
        diag: f64,
    ) -> Result<Cholesky, NotPositiveDefiniteError> {
        let n = self.l.rows();
        assert_eq!(off_diag.len(), n, "off-diagonal block must have n entries");
        let row = self.solve_lower(off_diag);
        let mut pivot = diag + self.jitter;
        for &v in &row {
            pivot -= v * v;
        }
        if pivot <= 0.0 || !pivot.is_finite() {
            return Err(NotPositiveDefiniteError { pivot: n });
        }
        let mut l = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            for j in 0..=i {
                l[(i, j)] = self.l[(i, j)];
            }
        }
        for (j, &v) in row.iter().enumerate() {
            l[(n, j)] = v;
        }
        l[(n, n)] = pivot.sqrt();
        Ok(Cholesky {
            l,
            jitter: self.jitter,
        })
    }

    /// Removes row and column `index` from the factored matrix in `O(n²)`:
    /// the factor of the `(n−1)×(n−1)` principal submatrix of `A` with that
    /// row/column deleted — the rank-1 *downdate* dual of
    /// [`Cholesky::extend`].
    ///
    /// Deleting row `index` of `L` leaves an `(n−1)×n` lower-Hessenberg
    /// matrix `H` with `H·Hᵀ` equal to the reduced matrix; a sweep of
    /// Givens rotations over column pairs `(j, j+1)` for `j ≥ index`
    /// restores lower-triangularity while preserving `H·Hᵀ` (rotations are
    /// orthogonal), so the result is a genuine Cholesky factor of the
    /// reduced matrix at the same effective jitter. Unlike `extend`, the
    /// restored factor agrees with a from-scratch factorisation only to
    /// rounding (the rotations reassociate the arithmetic) — ≤ 1e-8 under
    /// the property tests, not bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`NotPositiveDefiniteError`] if a restored diagonal pivot
    /// vanishes or goes non-finite (numerically semi-definite input); the
    /// caller should fall back to a full factorisation, mirroring the
    /// [`Cholesky::extend`] failure contract.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn downdate(&self, index: usize) -> Result<Cholesky, NotPositiveDefiniteError> {
        let n = self.l.rows();
        assert!(index < n, "downdate index {index} out of bounds for {n}");
        // Copy L without row `index`. Rows below it keep one entry past
        // their (new) diagonal, in column new-row-index + 1.
        let mut h = Matrix::zeros(n - 1, n);
        for i in 0..n {
            if i == index {
                continue;
            }
            let dst = if i < index { i } else { i - 1 };
            for j in 0..=i {
                h[(dst, j)] = self.l[(i, j)];
            }
        }
        // Givens sweep: zero the super-diagonal entry of each row from
        // `index` down, rotating the same column pair in every later row.
        for j in index..n.saturating_sub(1) {
            let a = h[(j, j)];
            let b = h[(j, j + 1)];
            let r = a.hypot(b);
            if r <= 0.0 || !r.is_finite() {
                return Err(NotPositiveDefiniteError { pivot: j });
            }
            let (c, s) = (a / r, b / r);
            h[(j, j)] = r;
            h[(j, j + 1)] = 0.0;
            for i in (j + 1)..(n - 1) {
                let (u, v) = (h[(i, j)], h[(i, j + 1)]);
                h[(i, j)] = c * u + s * v;
                h[(i, j + 1)] = c * v - s * u;
            }
        }
        let l = Matrix::from_fn(n - 1, n - 1, |i, j| if j <= i { h[(i, j)] } else { 0.0 });
        Ok(Cholesky {
            l,
            jitter: self.jitter,
        })
    }

    /// Solves `A x = b` by forward/backward substitution.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let y = self.solve_lower(b);
        self.solve_upper(&y)
    }

    /// Solves `L y = b`.
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        assert_eq!(b.len(), n);
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for (k, &yk) in y[..i].iter().enumerate() {
                sum -= self.l[(i, k)] * yk;
            }
            y[i] = sum / self.l[(i, i)];
        }
        y
    }

    /// Solves `Lᵀ x = y`.
    pub fn solve_upper(&self, y: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        assert_eq!(y.len(), n);
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                sum -= self.l[(k, i)] * xk;
            }
            x[i] = sum / self.l[(i, i)];
        }
        x
    }

    /// `log |A| = 2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.l.rows()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Bᵀ B + I is symmetric positive definite.
        let b = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64 * 0.3 - 1.0);
        let mut a = b.transpose().mul(&b);
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        a
    }

    #[test]
    fn cholesky_reconstructs_matrix() {
        let a = spd3();
        let c = Cholesky::new(&a, 0.0).expect("spd");
        let rebuilt = c.l().mul(&c.l().transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!((rebuilt[(i, j)] - a[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn solve_inverts() {
        let a = spd3();
        let c = Cholesky::new(&a, 0.0).expect("spd");
        let b = vec![1.0, -2.0, 0.5];
        let x = c.solve(&b);
        let back = a.mul_vec(&x);
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }

    #[test]
    fn log_det_matches_identity() {
        let c = Cholesky::new(&Matrix::identity(5), 0.0).expect("identity is spd");
        assert!(c.log_det().abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let mut a = Matrix::identity(2);
        a[(0, 0)] = -5.0;
        assert!(Cholesky::new(&a, 1e-9).is_err());
    }

    #[test]
    fn jitter_rescues_near_singular() {
        // Rank-1 matrix: singular, but PSD — jitter makes it PD.
        let a = Matrix::from_fn(3, 3, |_, _| 1.0);
        assert!(Cholesky::new(&a, 1e-9).is_ok());
    }

    #[test]
    fn extension_matches_from_scratch_factorisation() {
        // Build a 5×5 SPD matrix, factor its leading 4×4 block, then
        // extend by the last row/column and compare against factoring the
        // whole matrix directly: bit-identical when no jitter retry fires.
        let b = Matrix::from_fn(5, 5, |i, j| ((i * 5 + j) as f64 * 0.17).sin());
        let mut a = b.transpose().mul(&b);
        for i in 0..5 {
            a[(i, i)] += 2.0;
        }
        let leading = Matrix::from_fn(4, 4, |i, j| a[(i, j)]);
        let off: Vec<f64> = (0..4).map(|i| a[(i, 4)]).collect();
        let extended = Cholesky::new(&leading, 1e-9)
            .expect("spd")
            .extend(&off, a[(4, 4)])
            .expect("pivot stays positive");
        let direct = Cholesky::new(&a, 1e-9).expect("spd");
        for i in 0..5 {
            for j in 0..=i {
                assert_eq!(
                    extended.l()[(i, j)],
                    direct.l()[(i, j)],
                    "L[{i},{j}] diverged"
                );
            }
        }
        assert_eq!(extended.effective_jitter(), direct.effective_jitter());
    }

    #[test]
    fn extension_rejects_pivot_breaking_updates() {
        let a = Matrix::identity(3);
        let c = Cholesky::new(&a, 0.0).expect("spd");
        // New column makes the matrix singular: [1,0,0] with diag 1 is the
        // first basis vector repeated.
        assert!(c.extend(&[1.0, 0.0, 0.0], 1.0).is_err());
        assert!(c.extend(&[0.3, 0.2, 0.1], 2.0).is_ok());
    }

    /// A reproducible SPD matrix for the downdate tests.
    fn spd(n: usize, seed: u64) -> Matrix {
        let b = Matrix::from_fn(n, n, |i, j| {
            (((i * n + j) as f64 + seed as f64) * 0.37).sin()
        });
        let mut a = b.transpose().mul(&b);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn downdate_matches_refactorisation_at_every_index() {
        let n = 6;
        let a = spd(n, 3);
        let full = Cholesky::new(&a, 1e-9).expect("spd");
        for drop in 0..n {
            let keep: Vec<usize> = (0..n).filter(|&i| i != drop).collect();
            let reduced = Matrix::from_fn(n - 1, n - 1, |i, j| a[(keep[i], keep[j])]);
            let direct = Cholesky::new(&reduced, 1e-9).expect("spd");
            let down = full.downdate(drop).expect("principal submatrix stays pd");
            for i in 0..n - 1 {
                for j in 0..=i {
                    assert!(
                        (down.l()[(i, j)] - direct.l()[(i, j)]).abs() < 1e-10,
                        "drop {drop}: L[{i},{j}] {} vs {}",
                        down.l()[(i, j)],
                        direct.l()[(i, j)]
                    );
                }
            }
            assert_eq!(down.effective_jitter(), direct.effective_jitter());
        }
    }

    #[test]
    fn downdate_undoes_extend() {
        // Extending by a row and then downdating it must recover the
        // original factor (the last row/column removal needs no rotation,
        // so this direction is exact).
        let a = spd(4, 7);
        let base = Cholesky::new(&a, 1e-9).expect("spd");
        let off = vec![0.3, -0.2, 0.5, 0.1];
        let grown = base.extend(&off, 6.0).expect("pd");
        let back = grown.downdate(4).expect("pd");
        for i in 0..4 {
            for j in 0..=i {
                assert_eq!(back.l()[(i, j)], base.l()[(i, j)], "L[{i},{j}]");
            }
        }
    }

    #[test]
    fn downdate_solves_the_reduced_system() {
        let n = 7;
        let a = spd(n, 19);
        let full = Cholesky::new(&a, 0.0).expect("spd");
        let drop = 3;
        let keep: Vec<usize> = (0..n).filter(|&i| i != drop).collect();
        let down = full.downdate(drop).expect("pd");
        let b: Vec<f64> = keep.iter().map(|&i| (i as f64 * 0.7).cos()).collect();
        let x = down.solve(&b);
        // Check A' x = b against the reduced matrix directly.
        for (row, &i) in keep.iter().enumerate() {
            let lhs: f64 = keep
                .iter()
                .enumerate()
                .map(|(col, &j)| a[(i, j)] * x[col])
                .sum();
            assert!(
                (lhs - b[row]).abs() < 1e-8,
                "row {row}: {lhs} vs {}",
                b[row]
            );
        }
    }

    #[test]
    fn matmul_and_transpose() {
        let a = Matrix::from_fn(2, 3, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        let c = a.mul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        // Row 0 of a = [0,1,2]; col 0 of b = [0,2,4] → 0+2+8 = 10.
        assert_eq!(c[(0, 0)], 10.0);
        assert_eq!(a.transpose()[(2, 1)], a[(1, 2)]);
    }
}
