//! Serial-vs-parallel bit-equality for every functional kernel and
//! profile builder in `mg-kernels`.

use mg_gpusim::DeviceSpec;
use mg_kernels::{
    coarse_sddmm_compute, coarse_sddmm_profile, coarse_spmm_compute, coarse_spmm_profile,
    compound_softmax_compute, compound_softmax_profile, fine_sddmm_compute, fine_sddmm_profile,
    fine_spmm_compute, fine_spmm_profile, AttnDims, CoarseMapping, FineSddmmScheme,
};
use mg_patterns::{AtomicPattern, CompoundPattern, SlicedPattern};
use mg_tensor::{Half, Matrix};
use rayon::ThreadPoolBuilder;

fn pool(n: usize) -> rayon::ThreadPool {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap()
}

const SEQ: usize = 96;
const DH: usize = 16;
const BLOCK: usize = 8;

fn dims() -> AttnDims {
    AttnDims {
        seq_len: SEQ,
        head_dim: DH,
        batch: 1,
        heads: 2,
    }
}

fn sliced() -> SlicedPattern {
    let pattern = CompoundPattern::new(SEQ)
        .with(AtomicPattern::Local { window: 6 })
        .with(AtomicPattern::Random {
            per_row: 4,
            seed: 11,
        });
    SlicedPattern::from_compound(&pattern, BLOCK).expect("aligned")
}

fn half_bits(vals: &[Half]) -> Vec<u16> {
    vals.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn coarse_computes_are_bit_identical() {
    let s = sliced();
    let coarse = s.coarse().expect("coarse part");
    let q = Matrix::<Half>::random(SEQ, DH, 1);
    let k = Matrix::<Half>::random(SEQ, DH, 2);
    let v = Matrix::<Half>::random(SEQ, DH, 3);

    let sddmm_1 = pool(1).install(|| coarse_sddmm_compute(&q, &k, &coarse.structure));
    let spmm_1 = pool(1).install(|| coarse_spmm_compute(&sddmm_1, &v));
    for threads in [2, 5] {
        let sddmm_n = pool(threads).install(|| coarse_sddmm_compute(&q, &k, &coarse.structure));
        assert_eq!(
            half_bits(sddmm_1.values()),
            half_bits(sddmm_n.values()),
            "sddmm threads={threads}"
        );
        let spmm_n = pool(threads).install(|| coarse_spmm_compute(&sddmm_n, &v));
        assert_eq!(
            half_bits(spmm_1.as_slice()),
            half_bits(spmm_n.as_slice()),
            "spmm threads={threads}"
        );
    }
}

#[test]
fn fine_computes_are_bit_identical() {
    let s = sliced();
    let fine = s.fine().expect("fine part");
    let q = Matrix::<Half>::random(SEQ, DH, 4);
    let k = Matrix::<Half>::random(SEQ, DH, 5);
    let v = Matrix::<Half>::random(SEQ, DH, 6);

    let sddmm_1 = pool(1).install(|| fine_sddmm_compute(&q, &k, fine));
    let spmm_1 = pool(1).install(|| fine_spmm_compute(&sddmm_1, &v));
    for threads in [3, 8] {
        let sddmm_n = pool(threads).install(|| fine_sddmm_compute(&q, &k, fine));
        assert_eq!(
            half_bits(sddmm_1.values()),
            half_bits(sddmm_n.values()),
            "sddmm threads={threads}"
        );
        let spmm_n = pool(threads).install(|| fine_spmm_compute(&sddmm_n, &v));
        assert_eq!(
            half_bits(spmm_1.as_slice()),
            half_bits(spmm_n.as_slice()),
            "spmm threads={threads}"
        );
    }
}

#[test]
fn compound_softmax_is_bit_identical() {
    let s = sliced();
    let coarse = s.coarse().expect("coarse part");
    let fine = s.fine().expect("fine part");
    let q = Matrix::<Half>::random(SEQ, DH, 7);
    let k = Matrix::<Half>::random(SEQ, DH, 8);
    let cs = coarse_sddmm_compute(&q, &k, &coarse.structure);
    let fs = fine_sddmm_compute(&q, &k, fine);
    let scale = 0.25;

    let run = |threads: usize| {
        pool(threads).install(|| {
            compound_softmax_compute(Some((&cs, coarse.mask.as_slice())), Some(&fs), scale)
        })
    };
    let (pc1, pf1) = run(1);
    for threads in [2, 7] {
        let (pcn, pfn) = run(threads);
        assert_eq!(
            half_bits(pc1.as_ref().unwrap().values()),
            half_bits(pcn.as_ref().unwrap().values()),
            "coarse threads={threads}"
        );
        assert_eq!(
            half_bits(pf1.as_ref().unwrap().values()),
            half_bits(pfn.as_ref().unwrap().values()),
            "fine threads={threads}"
        );
    }

    // Single-part variants go down different parallel paths; exercise both.
    let (c_only_1, _) = pool(1)
        .install(|| compound_softmax_compute(Some((&cs, coarse.mask.as_slice())), None, scale));
    let (c_only_n, _) = pool(4)
        .install(|| compound_softmax_compute(Some((&cs, coarse.mask.as_slice())), None, scale));
    assert_eq!(
        half_bits(c_only_1.as_ref().unwrap().values()),
        half_bits(c_only_n.as_ref().unwrap().values())
    );
    let (_, f_only_1) = pool(1).install(|| compound_softmax_compute(None, Some(&fs), scale));
    let (_, f_only_n) = pool(4).install(|| compound_softmax_compute(None, Some(&fs), scale));
    assert_eq!(
        half_bits(f_only_1.as_ref().unwrap().values()),
        half_bits(f_only_n.as_ref().unwrap().values())
    );
}

#[test]
fn profile_builders_are_identical_across_thread_counts() {
    let spec = DeviceSpec::a100();
    let s = sliced();
    let coarse = s.coarse().expect("coarse part");
    let fine = s.fine().expect("fine part");
    let d = dims();

    let build = |threads: usize| {
        pool(threads).install(|| {
            vec![
                coarse_sddmm_profile(
                    &spec,
                    &d,
                    &coarse.structure,
                    CoarseMapping::BlockRowPerTb,
                    "a",
                ),
                coarse_sddmm_profile(&spec, &d, &coarse.structure, CoarseMapping::BlockPerTb, "b"),
                coarse_spmm_profile(
                    &spec,
                    &d,
                    &coarse.structure,
                    CoarseMapping::BlockRowPerTb,
                    "c",
                ),
                fine_sddmm_profile(&spec, &d, fine, FineSddmmScheme::RowSplit, "d"),
                fine_sddmm_profile(&spec, &d, fine, FineSddmmScheme::OneDimTiling, "e"),
                fine_spmm_profile(&spec, &d, fine, "f"),
                compound_softmax_profile(&spec, &d, s.coarse(), s.fine(), "g"),
            ]
        })
    };
    let serial = build(1);
    for threads in [2, 6] {
        let par = build(threads);
        for (a, b) in serial.iter().zip(par.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a, b, "profile {} threads={threads}", a.name);
        }
    }
}
