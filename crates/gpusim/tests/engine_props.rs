//! Property-based tests on the timing engine: monotonicity, conservation,
//! and scheduling invariants over randomized kernel profiles.

use mg_gpusim::{
    time_kernel, DeviceSpec, Gpu, KernelProfile, LaunchConfig, TbWork, DEFAULT_STREAM,
};
use proptest::prelude::*;

fn arb_work() -> impl Strategy<Value = TbWork> {
    (0u64..1 << 22, 0u64..1 << 22, 0u64..1 << 14, 0u64..1 << 16).prop_map(
        |(tensor, cuda, sfu, bytes)| TbWork {
            tensor_macs: tensor,
            cuda_flops: cuda,
            sfu_ops: sfu,
            l2_read: bytes,
            dram_read: bytes / 2,
            dram_write: bytes / 4,
            stall_cycles: 0,
        },
    )
}

fn arb_profile() -> impl Strategy<Value = KernelProfile> {
    (proptest::collection::vec(arb_work(), 1..200), 1usize..9).prop_map(|(tbs, warps)| {
        KernelProfile::replicated(
            "k",
            LaunchConfig {
                threads_per_tb: warps * 32,
                regs_per_thread: 64,
                smem_per_tb: 4096,
            },
            tbs,
            1,
        )
    })
}

/// A grid as runs of `(blocks, repeat)`, plus the warps per block.
type Runs = (Vec<(Vec<TbWork>, usize)>, usize);

fn arb_runs() -> impl Strategy<Value = Runs> {
    (
        proptest::collection::vec(
            (proptest::collection::vec(arb_work(), 1..24), 1usize..16),
            1..5,
        ),
        1usize..9,
    )
}

fn launch(warps: usize) -> LaunchConfig {
    LaunchConfig {
        threads_per_tb: warps * 32,
        regs_per_thread: 64,
        smem_per_tb: 4096,
    }
}

/// The grid stored as runs.
fn compact((runs, warps): &Runs) -> KernelProfile {
    let mut p = KernelProfile::new("k", launch(*warps));
    for (blocks, repeat) in runs {
        p.push_run(blocks, *repeat);
    }
    p
}

/// The same grid with every run written out block by block.
fn expanded((runs, warps): &Runs) -> KernelProfile {
    let tbs: Vec<TbWork> = runs
        .iter()
        .flat_map(|(blocks, repeat)| std::iter::repeat_n(blocks, *repeat).flatten().copied())
        .collect();
    KernelProfile::replicated("k", launch(*warps), tbs, 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A run-compact grid describes exactly its expanded grid: the same
    /// blocks in dispatch order, totals, and timing record, solo on two
    /// devices and co-executing with another kernel.
    #[test]
    fn compact_and_expanded_grids_time_identically(runs in arb_runs(), other in arb_runs()) {
        let (c, e) = (compact(&runs), expanded(&runs));
        prop_assert_eq!(&c, &e);
        prop_assert_eq!(c.tb_count(), e.tb_count());
        prop_assert_eq!(c.total(), e.total());
        prop_assert_eq!(c.total_dram_bytes(), e.total_dram_bytes());
        for spec in [DeviceSpec::a100(), DeviceSpec::rtx3090()] {
            prop_assert_eq!(time_kernel(&spec, &c), time_kernel(&spec, &e));
            let mut records = Vec::new();
            for (p, q) in [(&c, compact(&other)), (&e, expanded(&other))] {
                let mut gpu = Gpu::new(spec.clone());
                let s1 = gpu.create_stream();
                gpu.launch(DEFAULT_STREAM, p.clone());
                gpu.launch(s1, q);
                gpu.synchronize();
                records.push(gpu.records().to_vec());
            }
            prop_assert_eq!(&records[0], &records[1]);
        }
    }

    /// Durations are strictly positive and finite.
    #[test]
    fn durations_positive_and_finite(p in arb_profile()) {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let d = gpu.run_solo(p).duration();
        prop_assert!(d.is_finite() && d > 0.0);
    }

    /// Adding a thread block never makes the kernel faster.
    #[test]
    fn adding_a_block_never_speeds_up(p in arb_profile(), extra in arb_work()) {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let base = gpu.run_solo(p.clone()).duration();
        gpu.reset();
        let mut bigger = p;
        bigger.push_run(&[extra], 1);
        let more = gpu.run_solo(bigger).duration();
        prop_assert!(more >= base * 0.999, "{more} < {base}");
    }

    /// Doubling every block's work never makes the kernel faster.
    #[test]
    fn doubling_work_never_speeds_up(p in arb_profile()) {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let base = gpu.run_solo(p.clone()).duration();
        gpu.reset();
        let mut doubled = p;
        for tb in doubled.stored_blocks_mut() {
            tb.tensor_macs *= 2;
            tb.cuda_flops *= 2;
            tb.l2_read *= 2;
            tb.dram_read *= 2;
        }
        let more = gpu.run_solo(doubled).duration();
        prop_assert!(more >= base * 0.999);
    }

    /// Two-stream co-execution lies between max(solo) and roughly
    /// solo_a + solo_b. A small interference allowance (35 %) covers the
    /// case of two bandwidth-bound kernels thrashing the shared memory
    /// system — which real multi-stream exhibits too.
    #[test]
    fn overlap_bounded_by_serial_and_parallel_ideal(
        a in arb_profile(),
        b in arb_profile(),
    ) {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let ta = gpu.run_solo(a.clone()).duration();
        gpu.reset();
        let tb = gpu.run_solo(b.clone()).duration();
        gpu.reset();
        let s1 = gpu.create_stream();
        gpu.launch(DEFAULT_STREAM, a);
        gpu.launch(s1, b);
        let t_par = gpu.synchronize();
        prop_assert!(
            t_par <= (ta + tb) * 1.35,
            "bounded interference: {t_par} vs {}",
            ta + tb
        );
        prop_assert!(t_par >= ta.max(tb) * 0.99, "no better than the heavier kernel");
    }

    /// DRAM accounting equals the profile's declared bytes regardless of
    /// how the kernel is scheduled.
    #[test]
    fn dram_bytes_conserved(p in arb_profile()) {
        let declared = p.total_dram_bytes();
        let mut gpu = Gpu::new(DeviceSpec::rtx3090());
        let rec = gpu.run_solo(p);
        prop_assert_eq!(rec.dram_bytes, declared);
    }

    /// The busy-fraction metric stays in (0, 1].
    #[test]
    fn occupancy_ratio_in_unit_interval(p in arb_profile()) {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let rec = gpu.run_solo(p);
        prop_assert!(rec.achieved_over_theoretical > 0.0);
        prop_assert!(rec.achieved_over_theoretical <= 1.0);
    }
}
