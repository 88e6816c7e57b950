//! Packed `f32` operand panels: decode an FP16 operand once, reuse it
//! everywhere.
//!
//! The naive kernels re-convert every FP16 element on every use — a
//! GEMM touches each element of `B` once per output row, so the same
//! bits go through `Half::to_f32` `m` times. Real sparse-attention
//! kernels (SPLAT, Fused3S) win by staging operands into registers or
//! shared memory once and running the MAC loop over the staged tile;
//! this module is the CPU analogue. [`decode_slice`] converts a slice in
//! one pass, [`Panel`] stages a whole matrix as a row-major `f32` panel
//! in a pooled [`crate::scratch`] buffer, and [`SlabPanel`] stages a GEMM
//! `B` operand as cache-sized column slabs.
//!
//! Bit-identity: FP16→FP32 decode is exact, so replacing a per-use
//! conversion with a staged panel changes *where* the conversion
//! happens, never the value — provided the consumer keeps its
//! accumulation order, results are bit-identical by construction.

use crate::scratch::{self, ScratchF32};
use crate::simd::SPAN;
use crate::{Matrix, Scalar};

/// Decodes `src` into `dst` element-wise (exact for both scalar types).
///
/// `Half` sources route through the vectorized LUT gather in
/// [`crate::simd`] when the dispatch is active; it reads the same
/// compile-time table per-element decode indexes, so the two paths are
/// bit-identical by construction.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn decode_slice<T: Scalar>(src: &[T], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "decode length mismatch");
    T::decode_into(src, dst);
}

/// Rounds `src` into `dst` element-wise (round-to-nearest-even for
/// `Half` outputs, identity for `f32`).
///
/// `Half` outputs route through the F16C conversion in [`crate::simd`]
/// when the dispatch is active; it implements the same rounding
/// [`crate::Half::from_f32`] does, so the two paths are bit-identical.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn encode_slice<O: Scalar>(src: &[f32], dst: &mut [O]) {
    assert_eq!(src.len(), dst.len(), "encode length mismatch");
    O::encode_from(src, dst);
}

/// A matrix decoded once into a row-major `f32` panel.
///
/// The backing buffer comes from the per-thread [`crate::scratch`] pool
/// and returns there when the panel drops, so repeated kernel calls
/// (e.g. the serve simulator's request loop) reuse the same allocation.
///
/// # Examples
///
/// ```
/// use mg_tensor::{pack::Panel, Half, Matrix};
///
/// let m = Matrix::<Half>::random(4, 8, 1);
/// let panel = Panel::from_matrix(&m);
/// assert_eq!(panel.row(2)[3], m.get(2, 3).to_f32());
/// ```
pub struct Panel {
    buf: ScratchF32,
    cols: usize,
}

impl Panel {
    /// Decodes every element of `m` into a pooled row-major panel.
    pub fn from_matrix<T: Scalar>(m: &Matrix<T>) -> Panel {
        let mut buf = scratch::take_zeroed(m.rows() * m.cols());
        decode_slice(m.as_slice(), &mut buf);
        Panel {
            buf,
            cols: m.cols(),
        }
    }

    /// Decodes `m` into a **column-major** panel: row `c` of the panel is
    /// column `c` of the matrix. `A × Bᵀ`-shaped kernels pack `B` this way
    /// so their inner loops read the same contiguous `n`-major layout a
    /// plain [`Panel::from_matrix`] of an untransposed `B` would give —
    /// one transpose at pack time instead of `n` strided walks per output
    /// row. Decode is exact, so consumers stay bit-identical.
    pub fn from_matrix_transposed<T: Scalar>(m: &Matrix<T>) -> Panel {
        let (rows, cols) = (m.rows(), m.cols());
        let mut buf = scratch::take_zeroed(rows * cols);
        let src = m.as_slice();
        for r in 0..rows {
            for (c, v) in src[r * cols..(r + 1) * cols].iter().enumerate() {
                buf[c * rows + r] = v.to_f32();
            }
        }
        Panel { buf, cols: rows }
    }

    /// Decodes a flat slice as a `rows × cols` panel (e.g. CSR values
    /// with `cols == 1`, or BSR block storage with `cols == block²`).
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` is not a multiple of `cols`.
    pub fn from_slice<T: Scalar>(src: &[T], cols: usize) -> Panel {
        let cols = cols.max(1);
        assert_eq!(
            src.len() % cols,
            0,
            "slice length must be a multiple of cols"
        );
        let mut buf = scratch::take_zeroed(src.len());
        decode_slice(src, &mut buf);
        Panel { buf, cols }
    }

    /// Row `r` of the panel.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.buf[r * self.cols..(r + 1) * self.cols]
    }

    /// Number of columns per row.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The whole panel, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.buf
    }
}

/// The `B` operand of a GEMM decoded into **column slabs**: slab `s`
/// holds columns `SPAN·s .. SPAN·s + w` of the `k × n` operand as one
/// contiguous k-major `k × w` block (`w` = [`crate::simd::SPAN`], or
/// the ragged remainder for the last slab).
///
/// A whole-width k-major panel spreads each `SPAN`-wide column window
/// over `k` cache lines `n · 4` bytes apart; a slab packs the same
/// window densely, so one slab (393 KB at k = 3072) stays cache-resident
/// while a block of output rows runs over it. The values are those of a
/// plain panel, only the layout differs, so consumers stay bit-identical.
///
/// [`crate::gemm`] and [`crate::gemm_nt`] run their row blocks over these
/// slabs, and the coarse SDDMM runs each stored block over the slabs of
/// `Kᵀ` that cover its columns.
pub struct SlabPanel {
    buf: ScratchF32,
    k: usize,
    n: usize,
}

impl SlabPanel {
    /// Decodes the `k × n` matrix `b` into slabs, one slab per parallel
    /// task.
    pub fn from_matrix<T: Scalar>(b: &Matrix<T>) -> SlabPanel {
        let (k, n) = (b.rows(), b.cols());
        let mut buf = scratch::take_zeroed(k * n);
        crate::par::for_each_chunk_mut(&mut buf, k * SPAN, |s, slab| {
            let (j0, w) = (s * SPAN, SPAN.min(n - s * SPAN));
            for (kk, dst) in slab.chunks_exact_mut(w).enumerate() {
                decode_slice(&b.row(kk)[j0..j0 + w], dst);
            }
        });
        SlabPanel { buf, k, n }
    }

    /// Decodes the **transpose** of the `n × k` matrix `b` into slabs,
    /// so `A × Bᵀ` runs through the same slab loop as `A × B`. Each row
    /// of `b` is decoded once as a whole and scattered down its slab
    /// column.
    pub fn from_matrix_transposed<T: Scalar>(b: &Matrix<T>) -> SlabPanel {
        let k = b.cols();
        let mut buf = scratch::take_zeroed(k * b.rows());
        crate::par::for_each_chunk_mut(&mut buf, k * SPAN, |s, slab| {
            let w = slab.len() / k.max(1);
            let mut row = scratch::take_zeroed(k);
            for jj in 0..w {
                decode_slice(b.row(s * SPAN + jj), &mut row);
                for (kk, &v) in row.iter().enumerate() {
                    slab[kk * w + jj] = v;
                }
            }
        });
        SlabPanel {
            buf,
            k,
            n: b.rows(),
        }
    }

    /// Number of slabs, `⌈n / SPAN⌉`.
    #[inline]
    pub fn slabs(&self) -> usize {
        self.n.div_ceil(SPAN)
    }

    /// Slab `s` as `(first column, width, k-major k × width block)`.
    #[inline]
    pub fn slab(&self, s: usize) -> (usize, usize, &[f32]) {
        let j0 = s * SPAN;
        let w = SPAN.min(self.n - j0);
        (j0, w, &self.buf[j0 * self.k..(j0 + w) * self.k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Half;

    #[test]
    fn decode_and_encode_round_trip() {
        let src = vec![Half::from_f32(1.5), Half::NEG_INFINITY, Half::ZERO];
        let mut mid = vec![0.0f32; 3];
        decode_slice(&src, &mut mid);
        assert_eq!(mid, vec![1.5, f32::NEG_INFINITY, 0.0]);
        let mut back = vec![Half::ZERO; 3];
        encode_slice(&mid, &mut back);
        assert_eq!(back, src);
    }

    #[test]
    #[should_panic(expected = "decode length mismatch")]
    fn mismatched_lengths_panic() {
        let mut dst = vec![0.0f32; 2];
        decode_slice(&[Half::ONE], &mut dst);
    }

    #[test]
    fn panel_rows_match_matrix_rows() {
        let m = Matrix::<Half>::random(5, 7, 3);
        let p = Panel::from_matrix(&m);
        for r in 0..5 {
            for c in 0..7 {
                assert_eq!(p.row(r)[c], m.get(r, c).to_f32());
            }
        }
        assert_eq!(p.cols(), 7);
        assert_eq!(p.as_slice().len(), 35);
    }

    #[test]
    fn from_slice_panels_flat_storage() {
        let vals = vec![Half::ONE, Half::ZERO, Half::from_f32(2.0), Half::ONE];
        let p = Panel::from_slice(&vals, 2);
        assert_eq!(p.row(0), &[1.0, 0.0]);
        assert_eq!(p.row(1), &[2.0, 1.0]);
        // cols = 0 is clamped to 1 (a flat value vector).
        let flat = Panel::from_slice(&vals, 1);
        assert_eq!(flat.as_slice(), &[1.0, 0.0, 2.0, 1.0]);
    }

    #[test]
    fn transposed_panel_rows_are_matrix_columns() {
        let m = Matrix::<Half>::random(5, 7, 4);
        let t = Panel::from_matrix_transposed(&m);
        assert_eq!(t.cols(), 5);
        for c in 0..7 {
            for r in 0..5 {
                assert_eq!(t.row(c)[r], m.get(r, c).to_f32());
            }
        }
    }

    #[test]
    fn slabs_hold_column_windows_k_major() {
        // n = 2·SPAN + 5: two full slabs and a ragged one; the transposed
        // pack of Bᵀ must produce the identical slabs.
        let (k, n) = (3, 2 * SPAN + 5);
        let b = Matrix::<Half>::random(k, n, 8);
        for slabs in [
            SlabPanel::from_matrix(&b),
            SlabPanel::from_matrix_transposed(&b.transpose()),
        ] {
            assert_eq!(slabs.slabs(), 3);
            for s in 0..3 {
                let (j0, w, block) = slabs.slab(s);
                assert_eq!((j0, w), (s * SPAN, if s == 2 { 5 } else { SPAN }));
                for kk in 0..k {
                    for jj in 0..w {
                        assert_eq!(block[kk * w + jj], b.get(kk, j0 + jj).to_f32());
                    }
                }
            }
        }
    }

    #[test]
    fn empty_matrix_panels_cleanly() {
        let m = Matrix::<Half>::zeros(0, 4);
        let p = Panel::from_matrix(&m);
        assert!(p.as_slice().is_empty());
    }
}
