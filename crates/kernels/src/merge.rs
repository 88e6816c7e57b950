//! Element-wise merge kernel: sums the partial contexts produced by the
//! coarse and fine SpMM kernels (Multigrain's dice step splits `P` by
//! grain, so `C = C_coarse + C_fine` with the global rows written
//! directly by the dense kernel).

use crate::cache::{apply_cache_model, apply_writeback_filter, CacheHints};
use mg_gpusim::{DeviceSpec, KernelProfile, LaunchConfig, TbWork};
use mg_tensor::{pack, par, scratch, Half, Matrix};

/// Elements processed per thread block of the merge kernel.
const MERGE_TILE: usize = 8 * 1024;

/// Profile of an `n_inputs`-way element-wise add over `elements` FP16
/// values, replicated over `instances`.
pub fn merge_add_profile(
    spec: &DeviceSpec,
    elements: usize,
    n_inputs: usize,
    instances: usize,
    name: &str,
) -> KernelProfile {
    let total = elements * instances;
    let tbs = total.div_ceil(MERGE_TILE).max(1);
    let per_tb = (total.div_ceil(tbs)) as u64;
    let work = TbWork {
        tensor_macs: 0,
        cuda_flops: per_tb * (n_inputs as u64 - 1).max(1),
        sfu_ops: 0,
        l2_read: per_tb * 2 * n_inputs as u64,
        dram_read: 0,
        dram_write: per_tb * 2,
        stall_cycles: 0,
    };
    let launch = LaunchConfig {
        threads_per_tb: 256,
        regs_per_thread: 32,
        smem_per_tb: 0,
    };
    let mut profile = KernelProfile::uniform(name, launch, tbs, work);
    let raw = profile.sum_blocks(|t| t.l2_read);
    apply_cache_model(
        spec,
        &mut profile,
        CacheHints {
            unique_bytes: raw,
            reuse_footprint: raw,
        },
    );
    apply_writeback_filter(spec, &mut profile);
    profile
}

/// Functionally merges partial contexts by element-wise addition,
/// accumulating in FP32.
///
/// Row by row: each part's row is decoded once and added into an f32 row
/// seeded with `-0.0`, the seed of the `Sum` fold a per-element
/// `parts.iter().sum()` uses, in part order; the row is then rounded
/// with one [`pack::encode_slice`].
///
/// # Panics
///
/// Panics if the parts have different shapes or `parts` is empty.
pub fn merge_add_compute(parts: &[&Matrix<Half>]) -> Matrix<Half> {
    assert!(!parts.is_empty(), "need at least one partial context");
    let (rows, cols) = (parts[0].rows(), parts[0].cols());
    for m in parts {
        assert_eq!(
            (m.rows(), m.cols()),
            (rows, cols),
            "partial context shape mismatch"
        );
    }
    let mut out = Matrix::<Half>::zeros(rows, cols);
    par::for_each_chunk_mut(out.as_mut_slice(), cols, |r, out_row| {
        let mut acc = scratch::take_zeroed(cols);
        let mut row = scratch::take_zeroed(cols);
        acc.fill(-0.0);
        for m in parts {
            pack::decode_slice(m.row(r), &mut row);
            for (a, &v) in acc.iter_mut().zip(row.iter()) {
                *a += v;
            }
        }
        pack::encode_slice(&acc, out_row);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_elementwise() {
        let a = Matrix::<Half>::random(4, 4, 1);
        let b = Matrix::<Half>::random(4, 4, 2);
        let m = merge_add_compute(&[&a, &b]);
        for r in 0..4 {
            for c in 0..4 {
                let expect = Half::from_f32(a.get(r, c).to_f32() + b.get(r, c).to_f32());
                assert_eq!(m.get(r, c), expect);
            }
        }
    }

    #[test]
    fn row_merge_matches_per_element_sum_bitwise() {
        // Signed zeros, infinities, NaN payloads and subnormals: the row
        // merge must reproduce the per-element `Sum` fold bit for bit,
        // for one, two and three parts.
        let specials = [
            0x0000u16, 0x8000, 0x7C00, 0xFC00, 0x7E01, 0xFE02, 0x0001, 0x83FF, 0x3C00,
        ];
        let part = |shift: usize| {
            Matrix::from_fn(3, 9, |r, c| {
                Half::from_bits(specials[(r * 9 + c + shift) % 9])
            })
        };
        let (a, b, c) = (part(0), part(4), part(7));
        for parts in [vec![&a], vec![&a, &b], vec![&a, &b, &c]] {
            let m = merge_add_compute(&parts);
            for r in 0..3 {
                for col in 0..9 {
                    let sum: f32 = parts.iter().map(|p| p.get(r, col).to_f32()).sum();
                    assert_eq!(m.get(r, col).to_bits(), Half::from_f32(sum).to_bits());
                }
            }
        }
    }

    #[test]
    fn profile_is_memory_dominated() {
        let spec = DeviceSpec::a100();
        let p = merge_add_profile(&spec, 1 << 20, 2, 4, "merge");
        let t = p.total();
        assert!(t.l2_read > t.cuda_flops, "reads dominate flops");
        // 8 MiB of writes against a 20 MiB half-L2: 40% evicted.
        let full: u64 = (1 << 20) * 4 * 2;
        assert!(
            t.dram_write < full && t.dram_write > full / 4,
            "write-back filtered: {}",
            t.dram_write
        );
    }

    #[test]
    fn tiny_merge_still_launches_one_block() {
        let spec = DeviceSpec::a100();
        let p = merge_add_profile(&spec, 16, 2, 1, "merge");
        assert_eq!(p.tb_count(), 1);
    }
}
