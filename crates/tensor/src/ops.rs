//! Element-wise matrix operations used by attention pipelines.
//!
//! The transformer-layer ops ([`add`], [`gelu`], [`layer_norm`]) run
//! row-parallel over decoded `f32` rows: each output row is computed by
//! one task from rows decoded with [`pack::decode_slice`] and rounded
//! back with [`pack::encode_slice`]. Decode is exact and every element
//! keeps its per-element formula, so the output bits do not depend on
//! the thread count.

use crate::{pack, par, scratch, Matrix, Scalar};

/// Builds a `rows × cols` matrix row-parallel: `f(r, row)` fills the
/// zeroed `f32` row `r`, which is then rounded into the output.
fn map_rows<O: Scalar>(
    rows: usize,
    cols: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) -> Matrix<O> {
    let mut out = Matrix::<O>::zeros(rows, cols);
    par::for_each_chunk_mut(out.as_mut_slice(), cols, |r, out_row| {
        let mut row = scratch::take_zeroed(cols);
        f(r, &mut row);
        pack::encode_slice(&row, out_row);
    });
    out
}

/// Returns `a + b` element-wise, accumulating in `f32`.
///
/// Used to merge the partial contexts produced by the coarse-grained and
/// fine-grained SpMM kernels.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn add<A: Scalar, B: Scalar, O: Scalar>(a: &Matrix<A>, b: &Matrix<B>) -> Matrix<O> {
    assert_eq!(a.rows(), b.rows(), "row mismatch");
    assert_eq!(a.cols(), b.cols(), "col mismatch");
    map_rows(a.rows(), a.cols(), |r, row| {
        let mut b_row = scratch::take_zeroed(row.len());
        pack::decode_slice(a.row(r), row);
        pack::decode_slice(b.row(r), &mut b_row);
        for (x, &y) in row.iter_mut().zip(b_row.iter()) {
            *x += y;
        }
    })
}

/// Returns `scale * x` element-wise.
pub fn scale<T: Scalar, O: Scalar>(x: &Matrix<T>, scale: f32) -> Matrix<O> {
    Matrix::from_fn(x.rows(), x.cols(), |r, c| {
        O::from_f32(x.get(r, c).to_f32() * scale)
    })
}

/// Returns `x + mask` element-wise; `-inf` mask entries invalidate elements.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn apply_mask<T: Scalar, O: Scalar>(x: &Matrix<T>, mask: &Matrix<f32>) -> Matrix<O> {
    assert_eq!(x.rows(), mask.rows(), "row mismatch");
    assert_eq!(x.cols(), mask.cols(), "col mismatch");
    Matrix::from_fn(x.rows(), x.cols(), |r, c| {
        O::from_f32(x.get(r, c).to_f32() + mask.get(r, c))
    })
}

/// GELU activation (tanh approximation), used by transformer FFN blocks.
pub fn gelu<T: Scalar, O: Scalar>(x: &Matrix<T>) -> Matrix<O> {
    map_rows(x.rows(), x.cols(), |r, row| {
        pack::decode_slice(x.row(r), row);
        for slot in row.iter_mut() {
            let v = *slot;
            let inner = 0.797_884_6 * (v + 0.044_715 * v * v * v);
            *slot = 0.5 * v * (1.0 + inner.tanh());
        }
    })
}

/// Row-wise layer normalization with learned `gamma` and `beta`.
///
/// # Panics
///
/// Panics if `gamma` or `beta` length differs from `x.cols()`.
pub fn layer_norm<T: Scalar, O: Scalar>(x: &Matrix<T>, gamma: &[f32], beta: &[f32]) -> Matrix<O> {
    assert_eq!(gamma.len(), x.cols(), "gamma length mismatch");
    assert_eq!(beta.len(), x.cols(), "beta length mismatch");
    let cols = x.cols();
    map_rows(x.rows(), cols, |r, row| {
        pack::decode_slice(x.row(r), row);
        let mean = row.iter().sum::<f32>() / cols as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let inv_std = 1.0 / (var + 1e-5).sqrt();
        for ((v, &g), &b) in row.iter_mut().zip(gamma).zip(beta) {
            *v = (*v - mean) * inv_std * g + b;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simd, Half};

    /// Every finite `Half` class — normals up to ±65504, subnormals and
    /// ±0 — from a deterministic walk over the bit space.
    fn finite_halves(rows: usize, cols: usize, salt: u32) -> Matrix<Half> {
        Matrix::from_fn(rows, cols, |r, c| {
            let bits = ((r * cols + c) as u32 * 40_503 + salt) as u16;
            let h = Half::from_bits(bits);
            if h.to_f32().is_finite() {
                h
            } else {
                Half::from_bits(bits & 0x83ff)
            }
        })
    }

    fn assert_same_bits(got: &Matrix<f32>, want: &Matrix<f32>, ctx: &str) {
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: element {i}");
        }
    }

    #[test]
    fn row_parallel_ops_match_the_per_element_formula_bitwise() {
        // Odd shapes so rows split unevenly across workers; the references
        // are the per-element formulas, evaluated serially. Outputs stay
        // f32 so no difference can hide in a rounding to Half.
        let (rows, cols) = (37, 45);
        let a = finite_halves(rows, cols, 1);
        let b = finite_halves(rows, cols, 7_919);
        let gamma: Vec<f32> = (0..cols).map(|c| 0.5 + c as f32 * 0.03).collect();
        let beta: Vec<f32> = (0..cols).map(|c| c as f32 * 0.01 - 0.2).collect();
        let add_ref = Matrix::<f32>::from_fn(rows, cols, |r, c| {
            a.get(r, c).to_f32() + b.get(r, c).to_f32()
        });
        let gelu_ref = Matrix::<f32>::from_fn(rows, cols, |r, c| {
            let v = a.get(r, c).to_f32();
            let inner = 0.797_884_6 * (v + 0.044_715 * v * v * v);
            0.5 * v * (1.0 + inner.tanh())
        });
        let mut ln_ref = Matrix::<f32>::zeros(rows, cols);
        for r in 0..rows {
            let row: Vec<f32> = a.row(r).iter().map(|v| v.to_f32()).collect();
            let mean = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
            let inv_std = 1.0 / (var + 1e-5).sqrt();
            for c in 0..cols {
                ln_ref.set(r, c, (row[c] - mean) * inv_std * gamma[c] + beta[c]);
            }
        }
        for threads in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool");
            for simd_on in [false, true] {
                let ctx = format!("threads {threads} simd {simd_on}");
                let (sum, act, normed) = pool.install(|| {
                    simd::set_override(Some(simd_on));
                    let out: (Matrix<f32>, Matrix<f32>, Matrix<f32>) =
                        (add(&a, &b), gelu(&a), layer_norm(&a, &gamma, &beta));
                    simd::set_override(None);
                    out
                });
                assert_same_bits(&sum, &add_ref, &format!("add {ctx}"));
                assert_same_bits(&act, &gelu_ref, &format!("gelu {ctx}"));
                assert_same_bits(&normed, &ln_ref, &format!("layer_norm {ctx}"));
            }
        }
    }

    #[test]
    fn add_is_elementwise() {
        let a = Matrix::<f32>::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::<f32>::from_vec(1, 2, vec![10.0, 20.0]);
        let c: Matrix<f32> = add(&a, &b);
        assert_eq!(c.as_slice(), &[11.0, 22.0]);
    }

    #[test]
    fn scale_multiplies() {
        let a = Matrix::<f32>::from_vec(1, 2, vec![2.0, -4.0]);
        let c: Matrix<f32> = scale(&a, 0.5);
        assert_eq!(c.as_slice(), &[1.0, -2.0]);
    }

    #[test]
    fn mask_invalidates_with_neg_infinity() {
        let a = Matrix::<f32>::from_vec(1, 2, vec![2.0, 3.0]);
        let mut m = Matrix::<f32>::zeros(1, 2);
        m.set(0, 1, f32::NEG_INFINITY);
        let c: Matrix<f32> = apply_mask(&a, &m);
        assert_eq!(c.get(0, 0), 2.0);
        assert_eq!(c.get(0, 1), f32::NEG_INFINITY);
    }

    #[test]
    fn gelu_fixed_points() {
        let x = Matrix::<f32>::from_vec(1, 3, vec![0.0, 100.0, -100.0]);
        let y: Matrix<f32> = gelu(&x);
        assert_eq!(y.get(0, 0), 0.0);
        assert!((y.get(0, 1) - 100.0).abs() < 1e-3);
        assert!(y.get(0, 2).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let x = Matrix::<f32>::random(3, 16, 9);
        let gamma = vec![1.0; 16];
        let beta = vec![0.0; 16];
        let y: Matrix<f32> = layer_norm(&x, &gamma, &beta);
        for r in 0..3 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 16.0;
            let var: f32 = y
                .row(r)
                .iter()
                .map(|v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 16.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }
}
