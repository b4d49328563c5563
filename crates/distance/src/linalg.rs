//! Minimal dense linear algebra: just enough to solve the Laplacian systems
//! of the resistance model. Row-major `f64` matrices and Gaussian
//! elimination with partial pivoting.

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
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

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    /// Add `v` to element `(r, c)`.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] += v;
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        self.data
            .chunks_exact(self.cols)
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }
}

/// Error from the linear solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is (numerically) singular.
    Singular,
    /// The matrix is not square or the RHS length mismatches.
    Shape,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "singular matrix"),
            LinalgError::Shape => write!(f, "shape mismatch"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Solve `A x = b` by Gaussian elimination with partial pivoting. `a` and
/// `b` are consumed as workspace.
///
/// # Errors
/// [`LinalgError::Shape`] on non-square `A` or mismatched `b`;
/// [`LinalgError::Singular`] when a pivot is numerically zero.
pub fn solve(mut a: Matrix, mut b: Vec<f64>) -> Result<Vec<f64>, LinalgError> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(LinalgError::Shape);
    }
    const EPS: f64 = 1e-12;
    for col in 0..n {
        // Partial pivot: largest |value| in this column at or below the
        // diagonal.
        let pivot_row = (col..n)
            .max_by(|&r1, &r2| {
                a.get(r1, col)
                    .abs()
                    .partial_cmp(&a.get(r2, col).abs())
                    .expect("NaN in solver")
            })
            .expect("non-empty range");
        if a.get(pivot_row, col).abs() < EPS {
            return Err(LinalgError::Singular);
        }
        if pivot_row != col {
            for c in 0..n {
                let tmp = a.get(col, c);
                *a.get_mut(col, c) = a.get(pivot_row, c);
                *a.get_mut(pivot_row, c) = tmp;
            }
            b.swap(col, pivot_row);
        }
        let pivot = a.get(col, col);
        for r in (col + 1)..n {
            let factor = a.get(r, col) / pivot;
            if factor == 0.0 {
                continue;
            }
            for c in col..n {
                let v = a.get(col, c);
                *a.get_mut(r, c) -= factor * v;
            }
            b[r] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let mut acc = b[r];
        for (c, &xc) in x.iter().enumerate().skip(r + 1) {
            acc -= a.get(r, c) * xc;
        }
        x[r] = acc / a.get(r, r);
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn solve_identity() {
        let mut a = Matrix::zeros(3, 3);
        for i in 0..3 {
            *a.get_mut(i, i) = 1.0;
        }
        let x = solve(a, vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solve_2x2() {
        // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
        let a = Matrix {
            rows: 2,
            cols: 2,
            data: vec![2.0, 1.0, 1.0, 3.0],
        };
        let x = solve(a, vec![5.0, 10.0]).unwrap();
        assert_close(x[0], 1.0);
        assert_close(x[1], 3.0);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = Matrix {
            rows: 2,
            cols: 2,
            data: vec![0.0, 1.0, 1.0, 0.0],
        };
        let x = solve(a, vec![2.0, 3.0]).unwrap();
        assert_close(x[0], 3.0);
        assert_close(x[1], 2.0);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix {
            rows: 2,
            cols: 2,
            data: vec![1.0, 2.0, 2.0, 4.0],
        };
        assert_eq!(solve(a, vec![1.0, 2.0]), Err(LinalgError::Singular));
    }

    #[test]
    fn shape_mismatch_detected() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(solve(a, vec![1.0, 2.0]), Err(LinalgError::Shape));
        let a = Matrix::zeros(2, 2);
        assert_eq!(solve(a, vec![1.0]), Err(LinalgError::Shape));
    }

    #[test]
    fn solution_satisfies_system() {
        // Random-ish 5x5 diagonally dominant system.
        let n = 5;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                *a.get_mut(i, j) = ((i * 7 + j * 3) % 5) as f64;
            }
            *a.get_mut(i, i) += 20.0;
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let x = solve(a.clone(), b.clone()).unwrap();
        let back = a.mul_vec(&x);
        for (u, v) in back.iter().zip(&b) {
            assert_close(*u, *v);
        }
    }

    #[test]
    fn mul_vec_basic() {
        let a = Matrix {
            rows: 2,
            cols: 3,
            data: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        };
        assert_eq!(a.mul_vec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
    }
}
