//! Property-based tests on the kernel layer: softmax stochasticity over
//! random sliced patterns, SDDMM/SpMM against dense references, and
//! profile invariants.

use mg_gpusim::{DeviceSpec, KernelProfile, LaunchConfig, TbWork};
use mg_kernels::cache::{
    apply_cache_model, apply_writeback_filter, reapply_cache_model, CacheHints,
};
use mg_kernels::{
    coarse_sddmm_compute, coarse_spmm_compute, compound_softmax_compute, fine_sddmm_compute,
    fine_sddmm_profile, fine_spmm_compute, AttnDims, FineSddmmScheme,
};
use mg_patterns::{AtomicPattern, CompoundPattern, SlicedPattern};
use mg_tensor::{gemm, gemm_nt, softmax_rows, Half, Matrix};
use proptest::prelude::*;

fn small_pattern() -> impl Strategy<Value = CompoundPattern> {
    let atomic = prop_oneof![
        (0usize..12).prop_map(|w| AtomicPattern::Local { window: w }),
        (1usize..5, any::<u64>()).prop_map(|(n, seed)| AtomicPattern::Random { per_row: n, seed }),
        proptest::collection::vec(0usize..32, 1..4)
            .prop_map(|tokens| AtomicPattern::Selected { tokens }),
        (2usize..9).prop_map(|b| AtomicPattern::BlockedLocal { block: b }),
    ];
    proptest::collection::vec(atomic, 1..3).prop_map(|parts| {
        let mut p = CompoundPattern::new(32);
        for part in parts {
            p = p.with(part);
        }
        p
    })
}

/// Per-head grids: `(blocks, heads)` per kernel, raw loads and writes
/// only (the cache model fills in `dram_read`).
fn head_grids() -> impl Strategy<Value = Vec<(Vec<TbWork>, usize)>> {
    let work = (0u64..1 << 20, 0u64..1 << 16).prop_map(|(l2_read, dram_write)| TbWork {
        cuda_flops: 1 << 10,
        l2_read,
        dram_write,
        ..TbWork::default()
    });
    proptest::collection::vec((proptest::collection::vec(work, 1..24), 1usize..16), 1..4)
}

/// Each grid filtered as one kernel, either run-compact or written out.
fn filtered(spec: &DeviceSpec, grids: &[(Vec<TbWork>, usize)], compact: bool) -> KernelProfile {
    let mut merged: Option<KernelProfile> = None;
    for (i, (blocks, heads)) in grids.iter().enumerate() {
        let mut p = if compact {
            KernelProfile::replicated("k", LaunchConfig::default(), blocks.clone(), *heads)
        } else {
            let tbs = std::iter::repeat_n(blocks, *heads)
                .flatten()
                .copied()
                .collect();
            KernelProfile::replicated("k", LaunchConfig::default(), tbs, 1)
        };
        let unique = 1000 * (i as u64 + 1) * *heads as u64;
        apply_cache_model(
            spec,
            &mut p,
            CacheHints {
                unique_bytes: unique,
                reuse_footprint: unique / 2,
            },
        );
        apply_writeback_filter(spec, &mut p);
        match &mut merged {
            Some(m) => m.extend_with(&p),
            None => merged = Some(p),
        }
    }
    merged.expect("at least one grid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The cache model scales each stored block once: run-compact grids
    /// filter, merge and re-filter to exactly the blocks and stats of the
    /// written-out grids.
    #[test]
    fn cache_filters_agree_on_compact_and_expanded_grids(grids in head_grids()) {
        for spec in [DeviceSpec::a100(), DeviceSpec::rtx3090()] {
            let mut c = filtered(&spec, &grids, true);
            let mut e = filtered(&spec, &grids, false);
            prop_assert_eq!(&c, &e);
            reapply_cache_model(&spec, &mut c);
            reapply_cache_model(&spec, &mut e);
            prop_assert_eq!(&c, &e);
        }
    }

    /// The compound softmax over any sliced pattern is row-stochastic on
    /// non-empty rows: probabilities sum to 1 and lie in [0, 1].
    #[test]
    fn compound_softmax_is_row_stochastic(pattern in small_pattern(), seed in 0u64..1000) {
        let sliced = SlicedPattern::from_compound(&pattern, 8).expect("aligned");
        let q = Matrix::<Half>::random(32, 8, seed);
        let k = Matrix::<Half>::random(32, 8, seed + 1);
        let coarse_s = sliced.coarse().map(|c| coarse_sddmm_compute(&q, &k, &c.structure));
        let fine_s = sliced.fine().map(|f| fine_sddmm_compute(&q, &k, f));
        let (pc, pf) = compound_softmax_compute(
            coarse_s.as_ref().map(|s| (s, sliced.coarse().expect("coarse").mask.as_slice())),
            fine_s.as_ref(),
            0.35,
        );
        let mut row_sums = [0.0f32; 32];
        if let Some(pc) = &pc {
            let b = pc.block_size();
            for (br, _, elems) in pc.iter_blocks() {
                for (e, v) in elems.iter().enumerate() {
                    let val = v.to_f32();
                    prop_assert!((0.0..=1.001).contains(&val), "probability out of range: {val}");
                    row_sums[br * b + e / b] += val;
                }
            }
        }
        if let Some(pf) = &pf {
            for (r, _, v) in pf.iter() {
                let val = v.to_f32();
                prop_assert!((0.0..=1.001).contains(&val));
                row_sums[r] += val;
            }
        }
        for (r, &sum) in row_sums.iter().enumerate() {
            let nnz = pattern.row_columns(r).len();
            // Rows owned by the sliced parts sum to ~1; empty rows to 0.
            if nnz > 0 {
                prop_assert!((sum - 1.0).abs() < 0.05, "row {r} sums to {sum}");
            } else {
                prop_assert!(sum.abs() < 1e-6, "empty row {r} must stay zero");
            }
        }
    }

    /// Fine SDDMM values equal the dense product at their coordinates.
    #[test]
    fn fine_sddmm_matches_dense(pattern in small_pattern(), seed in 0u64..1000) {
        let csr = pattern.to_csr::<Half>();
        let q = Matrix::<Half>::random(32, 8, seed);
        let k = Matrix::<Half>::random(32, 8, seed + 7);
        let s = fine_sddmm_compute(&q, &k, &csr);
        let dense: Matrix<f32> = gemm_nt(&q, &k);
        for (r, c, v) in s.iter() {
            prop_assert_eq!(v, Half::from_f32(dense.get(r, c)));
        }
    }

    /// Coarse SpMM over a blocked softmax equals the dense pipeline.
    #[test]
    fn coarse_pipeline_matches_dense(seed in 0u64..500, window in 2usize..10) {
        let pattern = CompoundPattern::new(32).with(AtomicPattern::Local { window });
        let sliced = SlicedPattern::from_compound(&pattern, 8).expect("aligned");
        let coarse = sliced.coarse().expect("local has a coarse part");
        let q = Matrix::<Half>::random(32, 8, seed);
        let k = Matrix::<Half>::random(32, 8, seed + 1);
        let v = Matrix::<Half>::random(32, 8, seed + 2);
        let s = coarse_sddmm_compute(&q, &k, &coarse.structure);
        let (pc, _) = compound_softmax_compute(Some((&s, coarse.mask.as_slice())), None, 0.35);
        let c = coarse_spmm_compute(&pc.expect("coarse"), &v);

        let s_ref: Matrix<Half> = gemm_nt(&q, &k);
        let p_ref: Matrix<Half> = softmax_rows(&s_ref, 0.35, Some(&pattern.to_dense_mask()));
        let c_ref: Matrix<Half> = gemm(&p_ref, &v);
        prop_assert!(c.max_abs_diff(&c_ref) < 0.02, "diff {}", c.max_abs_diff(&c_ref));
    }

    /// fine SpMM distributes over addition of the sparse operand
    /// (linearity in P).
    #[test]
    fn fine_spmm_is_linear(seed in 0u64..500) {
        let pattern = CompoundPattern::new(32)
            .with(AtomicPattern::Random { per_row: 4, seed });
        let csr = pattern.to_csr::<Half>();
        let q = Matrix::<Half>::random(32, 8, seed);
        let k = Matrix::<Half>::random(32, 8, seed + 1);
        let v = Matrix::<Half>::random(32, 8, seed + 2);
        let p1 = fine_sddmm_compute(&q, &k, &csr);
        // P2 = 2 * P1 (same structure).
        let mut p2 = p1.clone();
        for val in p2.values_mut() {
            *val = Half::from_f32(val.to_f32() * 2.0);
        }
        let c1 = fine_spmm_compute(&p1, &v);
        let c2 = fine_spmm_compute(&p2, &v);
        for r in 0..32 {
            for c in 0..8 {
                let expect = 2.0 * c1.get(r, c).to_f32();
                let got = c2.get(r, c).to_f32();
                prop_assert!((got - expect).abs() <= expect.abs() * 0.01 + 0.01);
            }
        }
    }

    /// Profiles never lose work: total flops are independent of the
    /// scheme's thread-block decomposition (up to 1D padding, which only
    /// adds).
    #[test]
    fn one_dim_tiling_only_adds_work(pattern in small_pattern()) {
        let spec = DeviceSpec::a100();
        let dims = AttnDims { seq_len: 32, head_dim: 8, batch: 1, heads: 1 };
        let csr = pattern.to_csr::<Half>();
        let rs = fine_sddmm_profile(&spec, &dims, &csr, FineSddmmScheme::RowSplit, "rs");
        let od = fine_sddmm_profile(&spec, &dims, &csr, FineSddmmScheme::OneDimTiling, "od");
        prop_assert!(od.total().cuda_flops >= rs.total().cuda_flops - 4 * csr.nnz() as u64);
        // And both write the same payload.
        let rs_payload: u64 = csr.nnz() as u64 * 2;
        prop_assert!(od.sum_blocks(|t| t.dram_write) <= rs_payload);
    }
}
