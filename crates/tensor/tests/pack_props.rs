//! Bit-equality of the packed microkernels against the naive reference.
//!
//! The packed `gemm`/`gemm_nt` promise *bit-identical* results to the
//! retained `naive` module at every thread count: FP16→FP32 decode is
//! exact and the per-element accumulation order is unchanged. These tests
//! pin that promise over matrices drawn from the **full** `Half` bit
//! space — which naturally includes subnormals, ±Inf, and NaN — plus
//! empty and degenerate shapes, under 1-thread and 4-thread pools.
//!
//! Known gap: the full-bit-space tests here pass in debug builds (the
//! tier-1 and CI configuration) but fail under `cargo test --release`,
//! always on a NaN *payload* (`packed NaN vs reference NaN`), never on a
//! value. An optimised build may commute the operands of an `fmul` or
//! `fadd` in either path, and x86 returns the first operand's payload
//! when both are NaN, so the payload of a NaN-meets-NaN result is not
//! pinned by the source. `assert_bits_eq` stays strict; the finite-data
//! test below is the one meant to run under `--release`.

use mg_tensor::{dot, dot_f32, gemm, gemm_nt, naive, pack, simd, Half, Matrix};
use rayon::ThreadPoolBuilder;

/// Deterministic LCG over raw u16 bit patterns (MMIX constants). Unlike
/// `Matrix::random`, which draws finite values, this covers every `Half`
/// class: normals, subnormals, ±0, ±Inf, and NaN payloads.
struct BitRng(u64);

impl BitRng {
    fn next_u16(&mut self) -> u16 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 48) as u16
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> Matrix<Half> {
        Matrix::from_fn(rows, cols, |_, _| Half::from_bits(self.next_u16()))
    }
}

fn pool(n: usize) -> rayon::ThreadPool {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap()
}

/// Bit-level comparison that treats every NaN payload distinctly: the
/// packed path must reproduce the reference's exact bits, NaNs included.
fn assert_bits_eq(packed: &Matrix<f32>, reference: &Matrix<f32>, ctx: &str) {
    assert_eq!(packed.rows(), reference.rows(), "{ctx}: row mismatch");
    assert_eq!(packed.cols(), reference.cols(), "{ctx}: col mismatch");
    for (i, (p, r)) in packed
        .as_slice()
        .iter()
        .zip(reference.as_slice())
        .enumerate()
    {
        assert_eq!(
            p.to_bits(),
            r.to_bits(),
            "{ctx}: element {i} diverges: packed {p:?} vs reference {r:?}"
        );
    }
}

/// Shapes chosen to stress the register tiler and the slab loop:
/// empty, single-element, below/at/above the NR=8 tile width, odd sizes
/// with ragged tails, and row counts past one 64-row block (odd, so the
/// last block ends on an unpaired row) with `n` past one 32-column slab
/// and not a multiple of it, at `k` = 0 and 1.
const SHAPES: &[(usize, usize, usize)] = &[
    (0, 4, 3),
    (3, 0, 5),
    (2, 7, 0),
    (1, 1, 1),
    (5, 3, 7),
    (4, 16, 8),
    (9, 12, 17),
    (16, 64, 33),
    (67, 1, 45),
    (131, 0, 71),
    (65, 9, 33),
];

#[test]
fn packed_gemm_matches_naive_bitwise_over_full_half_space() {
    let mut rng = BitRng(0x5eed_0001);
    for threads in [1, 4] {
        for &(m, k, n) in SHAPES {
            for round in 0..4 {
                let a = rng.matrix(m, k);
                let b = rng.matrix(k, n);
                let (packed, reference) = pool(threads).install(|| {
                    let p: Matrix<f32> = gemm(&a, &b);
                    let r: Matrix<f32> = naive::gemm(&a, &b);
                    (p, r)
                });
                assert_bits_eq(
                    &packed,
                    &reference,
                    &format!("gemm {m}x{k}x{n} round {round} threads {threads}"),
                );
            }
        }
    }
}

#[test]
fn packed_gemm_nt_matches_naive_bitwise_over_full_half_space() {
    let mut rng = BitRng(0x5eed_0002);
    for threads in [1, 4] {
        for &(m, k, n) in SHAPES {
            for round in 0..4 {
                let a = rng.matrix(m, k);
                let b = rng.matrix(n, k);
                let (packed, reference) = pool(threads).install(|| {
                    let p: Matrix<f32> = gemm_nt(&a, &b);
                    let r: Matrix<f32> = naive::gemm_nt(&a, &b);
                    (p, r)
                });
                assert_bits_eq(
                    &packed,
                    &reference,
                    &format!("gemm_nt {m}x{k}x{n} round {round} threads {threads}"),
                );
            }
        }
    }
}

#[test]
fn packed_gemm_matches_naive_bitwise_on_finite_model_shape() {
    // A model-like shape crossing several row blocks and slabs, each with
    // a ragged tail. Finite data keeps NaN payloads out, so this test
    // also holds in optimised builds (see the module docs).
    let (m, k, n) = (130, 96, 100);
    let a = Matrix::<Half>::random(m, k, 11);
    let b = Matrix::<Half>::random(k, n, 12);
    let bt = Matrix::<Half>::random(n, k, 13);
    for threads in [1, 4] {
        let (p, r, p_nt, r_nt) = pool(threads).install(|| {
            let p: Matrix<f32> = gemm(&a, &b);
            let r: Matrix<f32> = naive::gemm(&a, &b);
            let p_nt: Matrix<f32> = gemm_nt(&a, &bt);
            let r_nt: Matrix<f32> = naive::gemm_nt(&a, &bt);
            (p, r, p_nt, r_nt)
        });
        assert_bits_eq(&p, &r, &format!("finite gemm threads {threads}"));
        assert_bits_eq(&p_nt, &r_nt, &format!("finite gemm_nt threads {threads}"));
    }
}

#[test]
fn dot_f32_matches_dot_bitwise_over_full_half_space() {
    let mut rng = BitRng(0x5eed_0003);
    for len in [0, 1, 7, 8, 9, 63, 64, 257] {
        for round in 0..8 {
            let a: Vec<Half> = (0..len).map(|_| Half::from_bits(rng.next_u16())).collect();
            let b: Vec<Half> = (0..len).map(|_| Half::from_bits(rng.next_u16())).collect();
            let a_f: Vec<f32> = a.iter().map(|v| v.to_f32()).collect();
            let b_f: Vec<f32> = b.iter().map(|v| v.to_f32()).collect();
            assert_eq!(
                dot(&a, &b).to_bits(),
                dot_f32(&a_f, &b_f).to_bits(),
                "dot len {len} round {round}"
            );
        }
    }
}

#[test]
fn simd_and_scalar_dispatch_agree_bitwise() {
    // The env-driven tests above already run under whatever MG_SIMD the CI
    // matrix sets; this one pins the *override* path directly — forcing
    // the scalar and vector kernels in turn on identical inputs and
    // demanding bit-identical output, NaN payloads included. Interleaving
    // with other tests is harmless: both modes equal `naive`, so a
    // transient mode flip cannot fail a concurrent packed-vs-naive check.
    let mut rng = BitRng(0x5eed_0005);
    for threads in [1, 4] {
        for &(m, k, n) in SHAPES {
            let a = rng.matrix(m, k);
            let b = rng.matrix(k, n);
            let bt = rng.matrix(n, k);
            let (s_gemm, s_nt, v_gemm, v_nt) = pool(threads).install(|| {
                simd::set_override(Some(false));
                let sg: Matrix<f32> = gemm(&a, &b);
                let sn: Matrix<f32> = gemm_nt(&a, &bt);
                simd::set_override(Some(true));
                let vg: Matrix<f32> = gemm(&a, &b);
                let vn: Matrix<f32> = gemm_nt(&a, &bt);
                simd::set_override(None);
                (sg, sn, vg, vn)
            });
            assert_bits_eq(
                &v_gemm,
                &s_gemm,
                &format!("cross-mode gemm {m}x{k}x{n} threads {threads}"),
            );
            assert_bits_eq(
                &v_nt,
                &s_nt,
                &format!("cross-mode gemm_nt {m}x{k}x{n} threads {threads}"),
            );
        }
    }
}

#[test]
fn packed_f16_output_matches_naive_rounding() {
    // Rounding back to Half happens element-wise after accumulation; a
    // packed run must round the exact same f32 values the reference does.
    let mut rng = BitRng(0x5eed_0004);
    let a = rng.matrix(11, 19);
    let b = rng.matrix(19, 13);
    let packed: Matrix<Half> = gemm(&a, &b);
    let reference: Matrix<Half> = naive::gemm(&a, &b);
    for (p, r) in packed.as_slice().iter().zip(reference.as_slice()) {
        assert_eq!(p.to_bits(), r.to_bits());
    }
}

#[test]
fn encode_slice_matches_from_f32_at_ragged_lengths() {
    // Every length around the 8-lane encode step, over rounding edges
    // (ties to even, the overflow edge, the half subnormal range and its
    // underflow edge, f32 denormals, quiet and signalling NaNs) followed
    // by raw f32 bit patterns, under the ambient dispatch and both
    // forced modes, at several offsets so the vector body and the scalar
    // tail both start unaligned. `tests/encode_exhaustive.rs` covers all
    // 2³² inputs in an optimised build.
    let mut rng = BitRng(0x5eed_0006);
    let edges = [
        0.0f32,
        -0.0,
        1.0 + f32::EPSILON * 4096.0,
        1.0 + f32::EPSILON * 3.0 * 4096.0,
        65504.0,
        65519.99,
        65520.0,
        -65520.0,
        2.0f32.powi(-24),
        2.0f32.powi(-25),
        2.0f32.powi(-25) * 1.000_001,
        -(2.0f32.powi(-26)),
        f32::MIN_POSITIVE / 2.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(0x7FC0_0000),
        f32::from_bits(0xFFC0_1234),
        f32::from_bits(0x7F80_0001),
        f32::from_bits(0xFF80_2001),
    ];
    let src: Vec<f32> = edges
        .into_iter()
        .chain(
            (0..61).map(|_| f32::from_bits((rng.next_u16() as u32) << 16 | rng.next_u16() as u32)),
        )
        .collect();
    let lens: Vec<usize> = (0..=17).chain([31, 33, 65]).collect();
    for mode in [None, Some(false), Some(true)] {
        simd::set_override(mode);
        for &len in &lens {
            for lo in [0usize, 3, 15] {
                let s = &src[lo..lo + len];
                let mut dst = vec![Half::ZERO; len];
                pack::encode_slice(s, &mut dst);
                for (i, (d, v)) in dst.iter().zip(s).enumerate() {
                    assert_eq!(
                        d.to_bits(),
                        Half::from_f32(*v).to_bits(),
                        "len {len} offset {lo} element {i} ({:#010x}) mode {mode:?}",
                        v.to_bits()
                    );
                }
            }
        }
    }
    simd::set_override(None);
}
