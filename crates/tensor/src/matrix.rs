//! Row-major dense matrices generic over a [`Scalar`] element type.

use crate::{Half, Scalar};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// A dense, row-major matrix.
///
/// `Matrix<Half>` is the operand type of the paper's kernels (queries, keys,
/// values, contexts). `Matrix<f32>` is used for reference computations.
///
/// # Examples
///
/// ```
/// use mg_tensor::{Half, Matrix};
///
/// let mut m = Matrix::<Half>::zeros(2, 3);
/// m.set(1, 2, Half::from_f32(4.0));
/// assert_eq!(m.get(1, 2).to_f32(), 4.0);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix<T: Scalar = Half> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Matrix<T> {
        Matrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Creates a matrix from an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Matrix<T> {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Matrix<T> {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix with elements drawn uniformly from `[-1, 1)`,
    /// deterministically seeded.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Matrix<T> {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Uniform::new(-1.0f32, 1.0f32);
        Matrix::from_fn(rows, cols, |_, _| T::from_f32(dist.sample(&mut rng)))
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> T {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: T) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Returns row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns row `r` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert!(r < self.rows, "row out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The underlying row-major buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Converts every element to another scalar type, element `i`
    /// becoming `U::from_f32(self[i].to_f32())`. Runs a chunk at a time
    /// through [`crate::pack::decode_slice`] and
    /// [`crate::pack::encode_slice`], so a `Half` result is rounded by the
    /// vector encode when the [`crate::simd`] dispatch is active.
    pub fn cast<U: Scalar>(&self) -> Matrix<U> {
        const CHUNK: usize = 4096;
        let mut out = Matrix::<U>::zeros(self.rows, self.cols);
        crate::par::for_each_chunk_mut(&mut out.data, CHUNK, |i, dst| {
            let mut buf = crate::scratch::take_zeroed(dst.len());
            crate::pack::decode_slice(&self.data[i * CHUNK..i * CHUNK + dst.len()], &mut buf);
            crate::pack::encode_slice(&buf, dst);
        });
        out
    }

    /// Total bytes occupied by the element buffer (metadata excluded).
    pub fn byte_len(&self) -> u64 {
        self.data.len() as u64 * T::byte_size()
    }

    /// Returns the maximum absolute element-wise difference to `other`,
    /// treating matching infinities as equal.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff<U: Scalar>(&self, other: &Matrix<U>) -> f32 {
        assert_eq!(self.rows, other.rows, "row mismatch");
        assert_eq!(self.cols, other.cols, "col mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| {
                let (a, b) = (a.to_f32(), b.to_f32());
                if a == b || (a.is_infinite() && b.is_infinite() && a.signum() == b.signum()) {
                    0.0
                } else {
                    (a - b).abs()
                }
            })
            .fold(0.0f32, f32::max)
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for r in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for c in 0..show_cols {
                write!(f, "{:8.4} ", self.get(r, c).to_f32())?;
            }
            if self.cols > show_cols {
                write!(f, "...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_values() {
        let m = Matrix::<f32>::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn get_set_round_trip() {
        let mut m = Matrix::<Half>::zeros(2, 2);
        m.set(0, 1, Half::from_f32(3.0));
        assert_eq!(m.get(0, 1).to_f32(), 3.0);
        assert_eq!(m.get(0, 0).to_f32(), 0.0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_out_of_bounds_panics() {
        let m = Matrix::<f32>::zeros(2, 2);
        m.get(2, 0);
    }

    #[test]
    fn from_vec_validates_length() {
        let m = Matrix::<f32>::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_wrong_length_panics() {
        let _ = Matrix::<f32>::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn transpose_is_involution() {
        let m = Matrix::<f32>::random(5, 7, 42);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(3, 4), m.get(4, 3));
    }

    #[test]
    fn random_is_deterministic() {
        let a = Matrix::<Half>::random(4, 4, 7);
        let b = Matrix::<Half>::random(4, 4, 7);
        let c = Matrix::<Half>::random(4, 4, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn cast_preserves_representable_values() {
        let m = Matrix::<Half>::random(3, 3, 1);
        let back: Matrix<Half> = m.cast::<f32>().cast();
        assert_eq!(m, back);
    }

    #[test]
    fn max_abs_diff_detects_difference() {
        let a = Matrix::<f32>::zeros(2, 2);
        let mut b = Matrix::<f32>::zeros(2, 2);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set(1, 1, 0.5);
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }

    #[test]
    fn max_abs_diff_treats_matching_infinities_equal() {
        let mut a = Matrix::<f32>::zeros(1, 2);
        let mut b = Matrix::<f32>::zeros(1, 2);
        a.set(0, 0, f32::NEG_INFINITY);
        b.set(0, 0, f32::NEG_INFINITY);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn byte_len_counts_element_bytes() {
        assert_eq!(Matrix::<Half>::zeros(4, 4).byte_len(), 32);
        assert_eq!(Matrix::<f32>::zeros(4, 4).byte_len(), 64);
    }
}
