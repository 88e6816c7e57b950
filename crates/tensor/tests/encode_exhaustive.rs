//! Exhaustive check of the vector f32→f16 encode: every one of the 2³²
//! f32 bit patterns — NaN payloads, signalling NaNs, denormals and both
//! zeros included — must round to exactly the bits `Half::from_f32`
//! produces.
//!
//! About 20 s in an optimised build and far longer in a debug one, so
//! the test is ignored by default:
//!
//! ```text
//! cargo test --release -p mg-tensor --test encode_exhaustive -- --ignored
//! ```
//!
//! On a CPU without AVX2 + F16C (or a build without the `simd` feature)
//! the encode falls back to `Half::from_f32` itself and the check holds
//! trivially.

use mg_tensor::{pack, simd, Half};

#[test]
#[ignore = "2^32 inputs; run with --release -- --ignored"]
fn vector_encode_matches_from_f32_over_every_f32_bit_pattern() {
    simd::set_override(Some(true));
    let mut src = vec![0.0f32; 1 << 16];
    let mut dst = vec![Half::ZERO; 1 << 16];
    for hi in 0u32..1 << 16 {
        for (lo, v) in src.iter_mut().enumerate() {
            *v = f32::from_bits(hi << 16 | lo as u32);
        }
        pack::encode_slice(&src, &mut dst);
        for (s, d) in src.iter().zip(dst.iter()) {
            let want = Half::from_f32(*s);
            assert_eq!(
                d.to_bits(),
                want.to_bits(),
                "f32 bits {:#010x}: vector {:#06x} vs scalar {:#06x}",
                s.to_bits(),
                d.to_bits(),
                want.to_bits()
            );
        }
    }
    simd::set_override(None);
}
