//! The four workloads. Each generates its inputs from the run seed and
//! hands the library only those inputs.

mod decode;
mod longformer;
mod qds;
mod serve;

pub use decode::ChatDecode;
pub use longformer::LongformerAttention;
pub use qds::QdsForward;
pub use serve::ServePoisson;

use crate::stats::Fnv;
use mg_models::WorkloadSample;

/// Tolerance of `tests/attention_correctness.rs` for one head against
/// `multigrain::reference_attention`.
pub const HEAD_TOLERANCE: f32 = 0.02;

/// A seed derived from the run seed for input `index` of stream `tag`.
pub fn sub_seed(seed: u64, tag: u64, index: u64) -> u64 {
    // splitmix64 finalizer over the combined words.
    let mut z = seed ^ tag.rotate_left(32) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE5_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `k` samples at the mid-quantiles `(2j + 1) / 2k` of a pool ordered by
/// valid length: the pool's length distribution, stratified, so that
/// different seeds change token layouts without swinging the mix of
/// lengths a short run sees.
pub fn quantile_samples(mut pool: Vec<WorkloadSample>, k: usize) -> Vec<WorkloadSample> {
    pool.sort_by_key(|s| s.valid_len);
    (0..k)
        .map(|j| pool[(2 * j + 1) * pool.len() / (2 * k)].clone())
        .collect()
}

/// Fingerprint of a sample list.
pub fn samples_digest(samples: &[WorkloadSample]) -> u64 {
    let mut h = Fnv::new();
    for s in samples {
        h.word(s.valid_len as u64);
        for &t in &s.special_tokens {
            h.word(t as u64);
        }
    }
    h.0
}
