//! The traced run's replays of library entry points through their public
//! building blocks, one span per layer call, in the library's own order
//! and with its own arguments — so a replay's outputs equal the original
//! call's bit for bit (`run_traced` checks this on every traced op).
//!
//! FLOP and byte counts recorded here are *computed* from tensor shapes
//! and plan non-zeros, not measured.

use crate::trace::Tracer;
use mg_gpusim::Gpu;
use mg_kernels::{
    coarse_sddmm_compute, coarse_spmm_compute, compound_softmax_compute, dense_sddmm_compute,
    dense_softmax_compute, dense_spmm_compute, fine_sddmm_compute, fine_spmm_compute,
    fused_attention_compute, merge_add_compute,
};
use mg_patterns::{BlockedPattern, CompoundPattern, SlicedPattern};
use mg_sparse::{Csr, SparseError};
use mg_tensor::{gemm, Half, Matrix};
use multigrain::{Attention, AttentionProblem, Method, Op, StreamRole};

/// The method-specific metadata `Attention::plan` builds.
pub enum Planned {
    Multigrain(SlicedPattern),
    Triton(BlockedPattern),
    Sputnik(Csr<Half>),
    Fused,
}

/// The execute span and useful-ratio metric names of a method.
pub fn method_names(method: Method) -> (&'static str, &'static str) {
    match method {
        Method::Multigrain => ("core.execute.multigrain", "kernels.useful_ratio.multigrain"),
        Method::TritonStyle => ("core.execute.triton", "kernels.useful_ratio.triton"),
        Method::SputnikStyle => ("core.execute.sputnik", "kernels.useful_ratio.sputnik"),
        Method::FusedStyle => ("core.execute.fused", "kernels.useful_ratio.fused"),
    }
}

/// Replays `Attention::plan`: the problem, then the pattern-layer
/// slicing or rendering the method needs.
pub fn plan(
    tr: &mut Tracer,
    method: Method,
    problem: &AttentionProblem,
) -> Result<Planned, SparseError> {
    let pattern = problem.pattern();
    let block = problem.block_size();
    tr.span("patterns.slice", |_| match method {
        Method::Multigrain => SlicedPattern::from_compound(pattern, block).map(Planned::Multigrain),
        Method::TritonStyle => pattern.to_blocked(block).map(Planned::Triton),
        Method::SputnikStyle => Ok(Planned::Sputnik(pattern.to_csr())),
        Method::FusedStyle => Ok(Planned::Fused),
    })
}

/// FLOPs and bytes of an `m × k` by `k × n` FP16 GEMM.
pub fn gemm_counts(m: usize, k: usize, n: usize) -> (f64, f64) {
    let (m, k, n) = (m as f64, k as f64, n as f64);
    (2.0 * m * k * n, 2.0 * (m * k + k * n + m * n))
}

/// Records the computed counts of `a × b` under the shape's names and
/// under the `tensor.gemm` aggregate.
pub fn count_gemm(
    tr: &mut Tracer,
    flops_name: &'static str,
    bytes_name: &'static str,
    a: &Matrix<Half>,
    b: &Matrix<Half>,
) {
    let (flops, bytes) = gemm_counts(a.rows(), a.cols(), b.cols());
    tr.count(flops_name, flops);
    tr.count(bytes_name, bytes);
    tr.count("tensor.gemm.flops", flops);
    tr.count("tensor.gemm.bytes_computed", bytes);
}

/// One counted GEMM inside a span named `name`; its counts go under
/// `<name>.flops` and `<name>.bytes_computed`.
pub fn traced_gemm(
    tr: &mut Tracer,
    name: &'static str,
    counts: [&'static str; 2],
    a: &Matrix<Half>,
    b: &Matrix<Half>,
) -> Matrix<Half> {
    count_gemm(tr, counts[0], counts[1], a, b);
    tr.span(name, |_| gemm(a, b))
}

fn kernel_counts(tr: &mut Tracer, kernel: usize, flops: f64, bytes: f64) {
    const FLOPS: [&str; 8] = [
        "kernels.coarse_sddmm.flops",
        "kernels.fine_sddmm.flops",
        "kernels.softmax.flops",
        "kernels.coarse_spmm.flops",
        "kernels.fine_spmm.flops",
        "kernels.merge.flops",
        "kernels.global_rows.flops",
        "kernels.fused.flops",
    ];
    const BYTES: [&str; 8] = [
        "kernels.coarse_sddmm.bytes_computed",
        "kernels.fine_sddmm.bytes_computed",
        "kernels.softmax.bytes_computed",
        "kernels.coarse_spmm.bytes_computed",
        "kernels.fine_spmm.bytes_computed",
        "kernels.merge.bytes_computed",
        "kernels.global_rows.bytes_computed",
        "kernels.fused.bytes_computed",
    ];
    tr.count(FLOPS[kernel], flops);
    tr.count(BYTES[kernel], bytes);
    tr.count("kernels.attn.flops", flops);
    tr.count("kernels.attn.bytes_computed", bytes);
}

const COARSE_SDDMM: usize = 0;
const FINE_SDDMM: usize = 1;
const SOFTMAX: usize = 2;
const COARSE_SPMM: usize = 3;
const FINE_SPMM: usize = 4;
const MERGE: usize = 5;
const GLOBAL_ROWS: usize = 6;
const FUSED: usize = 7;

/// Replays `Attention::execute_numeric` for one head. `pattern_nnz` is
/// the pattern's valid-element count (only the fused kernel's counts
/// need it).
#[allow(clippy::too_many_arguments)]
pub fn execute(
    tr: &mut Tracer,
    planned: &Planned,
    problem: &AttentionProblem,
    pattern_nnz: usize,
    q: &Matrix<Half>,
    k: &Matrix<Half>,
    v: &Matrix<Half>,
) -> Matrix<Half> {
    let scale = problem.dims().scale();
    let (l, d) = (q.rows() as f64, q.cols() as f64);
    match planned {
        Planned::Sputnik(csr) => {
            let n = csr.nnz() as f64;
            kernel_counts(
                tr,
                FINE_SDDMM,
                2.0 * n * d,
                l * d * 2.0 + n * d * 2.0 + n * 6.0,
            );
            let s = tr.span("kernels.fine_sddmm", |_| fine_sddmm_compute(q, k, csr));
            kernel_counts(tr, SOFTMAX, 5.0 * n, n * 4.0);
            let (_, p) = tr.span("kernels.softmax", |_| {
                compound_softmax_compute(None, Some(&s), scale)
            });
            kernel_counts(
                tr,
                FINE_SPMM,
                2.0 * n * d,
                n * 6.0 + n * d * 2.0 + l * d * 2.0,
            );
            let p = p.expect("fine part present");
            tr.span("kernels.fine_spmm", |_| fine_spmm_compute(&p, v))
        }
        Planned::Triton(blocked) => {
            let st = &blocked.structure;
            let (e, nb, b) = (
                st.stored_elements() as f64,
                st.nnz_blocks() as f64,
                st.block_size() as f64,
            );
            kernel_counts(
                tr,
                COARSE_SDDMM,
                2.0 * e * d,
                nb * 2.0 * b * d * 2.0 + e * 2.0,
            );
            let s = tr.span("kernels.coarse_sddmm", |_| coarse_sddmm_compute(q, k, st));
            kernel_counts(tr, SOFTMAX, 5.0 * e, e * 8.0);
            let (p, _) = tr.span("kernels.softmax", |_| {
                compound_softmax_compute(Some((&s, &blocked.mask)), None, scale)
            });
            kernel_counts(
                tr,
                COARSE_SPMM,
                2.0 * e * d,
                e * 2.0 + nb * b * d * 2.0 + l * d * 2.0,
            );
            let p = p.expect("coarse part present");
            tr.span("kernels.coarse_spmm", |_| coarse_spmm_compute(&p, v))
        }
        Planned::Fused => {
            let n = pattern_nnz as f64;
            kernel_counts(tr, FUSED, 4.0 * n * d + 5.0 * n, l * d * 4.0 + n * d * 4.0);
            tr.span("kernels.fused", |_| {
                fused_attention_compute(q, k, v, problem.pattern(), scale)
            })
        }
        Planned::Multigrain(sliced) => multigrain(tr, sliced, problem, q, k, v, scale),
    }
}

/// Replays the Multigrain path of `execute_numeric`: SDDMM per grain,
/// compound softmax, SpMM per grain, merge, then the dense global rows.
fn multigrain(
    tr: &mut Tracer,
    sliced: &SlicedPattern,
    problem: &AttentionProblem,
    q: &Matrix<Half>,
    k: &Matrix<Half>,
    v: &Matrix<Half>,
    scale: f32,
) -> Matrix<Half> {
    let (l, d) = (q.rows() as f64, q.cols() as f64);
    let coarse = sliced.coarse();
    let fine = sliced.fine();
    let e = coarse.map_or(0.0, |c| c.structure.stored_elements() as f64);
    let nb = coarse.map_or(0.0, |c| c.structure.nnz_blocks() as f64);
    let b = sliced.block_size() as f64;
    let n = fine.map_or(0.0, |f| f.nnz() as f64);

    let coarse_s = coarse.map(|c| {
        kernel_counts(
            tr,
            COARSE_SDDMM,
            2.0 * e * d,
            nb * 2.0 * b * d * 2.0 + e * 2.0,
        );
        tr.span("kernels.coarse_sddmm", |_| {
            coarse_sddmm_compute(q, k, &c.structure)
        })
    });
    let fine_s = fine.map(|f| {
        kernel_counts(
            tr,
            FINE_SDDMM,
            2.0 * n * d,
            l * d * 2.0 + n * d * 2.0 + n * 6.0,
        );
        tr.span("kernels.fine_sddmm", |_| fine_sddmm_compute(q, k, f))
    });
    kernel_counts(tr, SOFTMAX, 5.0 * (e + n), e * 8.0 + n * 4.0);
    let (coarse_p, fine_p) = tr.span("kernels.softmax", |_| {
        compound_softmax_compute(
            coarse_s
                .as_ref()
                .map(|s| (s, coarse.expect("coarse structure").mask.as_slice())),
            fine_s.as_ref(),
            scale,
        )
    });
    let coarse_c = coarse_p.map(|p| {
        kernel_counts(
            tr,
            COARSE_SPMM,
            2.0 * e * d,
            e * 2.0 + nb * b * d * 2.0 + l * d * 2.0,
        );
        tr.span("kernels.coarse_spmm", |_| coarse_spmm_compute(&p, v))
    });
    let fine_c = fine_p.map(|p| {
        kernel_counts(
            tr,
            FINE_SPMM,
            2.0 * n * d,
            n * 6.0 + n * d * 2.0 + l * d * 2.0,
        );
        tr.span("kernels.fine_spmm", |_| fine_spmm_compute(&p, v))
    });
    let mut context = match (coarse_c, fine_c) {
        (Some(a), Some(c)) => {
            kernel_counts(tr, MERGE, l * d, 3.0 * l * d * 2.0);
            tr.span("kernels.merge", |_| merge_add_compute(&[&a, &c]))
        }
        (Some(a), None) => a,
        (None, Some(c)) => c,
        (None, None) => Matrix::zeros(q.rows(), v.cols()),
    };

    let global = sliced.global_rows();
    if !global.is_empty() {
        let g = global.len() as f64;
        kernel_counts(
            tr,
            GLOBAL_ROWS,
            4.0 * g * l * d + 5.0 * g * l,
            2.0 * g * d * 2.0 + 2.0 * l * d * 2.0 + 4.0 * g * l * 2.0,
        );
        tr.span("kernels.global_rows", |_| {
            let q_rows = Matrix::from_fn(global.len(), q.cols(), |i, j| q.get(global[i], j));
            let mut s_g = dense_sddmm_compute(&q_rows, k);
            let valid = problem.pattern().valid_len();
            for r in 0..s_g.rows() {
                for c in valid..s_g.cols() {
                    s_g.set(r, c, Half::NEG_INFINITY);
                }
            }
            let p_g = dense_softmax_compute(&s_g, scale);
            let c_g = dense_spmm_compute(&p_g, v);
            for (i, &r) in global.iter().enumerate() {
                for j in 0..context.cols() {
                    context.set(r, j, c_g.get(i, j));
                }
            }
        });
    }
    context
}

/// Replays `Attention::run_timed_batch` on `gpu`: per phase, the merged
/// cost-model profiles, then the launches and the barrier.
pub fn timed_batch(tr: &mut Tracer, attns: &[&Attention], gpu: &mut Gpu) {
    let spec = gpu.spec().clone();
    for op in [Op::Sddmm, Op::Softmax, Op::Spmm, Op::Merge] {
        let profiles = tr.span("kernels.profile", |_| {
            Attention::batch_phase_profiles(attns, &spec, op)
        });
        tr.count("gpusim.kernels", profiles.len() as f64);
        tr.span("gpusim.step", |_| {
            for (role, profile) in profiles {
                let stream = match role {
                    StreamRole::Main => gpu.stream(0),
                    StreamRole::Fine => gpu.stream(1),
                    StreamRole::Dense => gpu.stream(2),
                };
                gpu.launch(stream, profile);
            }
            gpu.synchronize();
        });
    }
}

/// Valid elements over elements computed, for one planned pattern.
pub fn useful_ratio(planned: &Planned, pattern: &CompoundPattern, valid: usize) -> f64 {
    let computed = match planned {
        Planned::Multigrain(s) => {
            let st = s.stats();
            st.coarse_stored_elements + st.fine_elements + st.global_rows * pattern.seq_len()
        }
        Planned::Triton(b) => b.structure.stored_elements(),
        Planned::Sputnik(csr) => csr.nnz(),
        Planned::Fused => valid,
    };
    valid as f64 / computed.max(1) as f64
}
