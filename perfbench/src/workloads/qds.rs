//! `qds_forward`: `SparseTransformer::forward_numeric` with
//! QDS-Transformer-base dimensions at L = 2048, Multigrain attention.

use super::{quantile_samples, samples_digest, sub_seed, HEAD_TOLERANCE};
use crate::replay::{self, count_gemm, traced_gemm};
use crate::stats::{median, percentile, Fnv};
use crate::trace::Tracer;
use crate::Workload;
use mg_gpusim::{DeviceSpec, Gpu};
use mg_models::{workload, ModelConfig, SparseTransformer, WorkloadSample};
use mg_tensor::{gelu, gemm, layer_norm, Half, Matrix};
use multigrain::{reference_attention, Attention, AttentionProblem, Method};

/// Encoder layers in one timed forward pass (the full model has 12;
/// one keeps a pass at about two seconds on two threads).
const FORWARD_LAYERS: usize = 1;
/// Distinct samples per run.
const SAMPLES: usize = 2;

/// One seeded head of a sample and its dense reference.
struct HeadCheck {
    attn: Attention,
    q: Matrix<Half>,
    k: Matrix<Half>,
    v: Matrix<Half>,
    reference: Matrix<Half>,
}

/// What `check` learns about an input once.
struct Facts {
    sim_ms: f64,
    plan_bytes: f64,
    nnz: usize,
}

pub struct QdsForward {
    model: SparseTransformer,
    samples: Vec<WorkloadSample>,
    token_seeds: Vec<u64>,
    heads: Vec<HeadCheck>,
    facts: Vec<Option<Facts>>,
}

impl Workload for QdsForward {
    type Out = Matrix<Half>;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut cfg = ModelConfig::qds_base();
        cfg.layers = FORWARD_LAYERS;
        let model = SparseTransformer::new(cfg);
        let l = model.config().max_seq_len;
        let d = model.config().head_dim;
        let pool = workload::msmarco_like(l, 256, sub_seed(seed, 1, 0));
        let samples = quantile_samples(pool, SAMPLES);
        let token_seeds = (0..SAMPLES as u64).map(|i| sub_seed(seed, 2, i)).collect();
        let heads = samples
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let attn = model
                    .plan_attention(Method::Multigrain, s, 1)
                    .map_err(|e| e.to_string())?;
                let hs = |t| sub_seed(seed, 3, 4 * i as u64 + t);
                let q = Matrix::random(l, d, hs(0));
                let k = Matrix::random(l, d, hs(1));
                let v = Matrix::random(l, d, hs(2));
                let scale = attn.problem().dims().scale();
                let reference = reference_attention(&q, &k, &v, attn.problem().pattern(), scale);
                Ok(HeadCheck {
                    attn,
                    q,
                    k,
                    v,
                    reference,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(QdsForward {
            model,
            samples,
            token_seeds,
            heads,
            facts: (0..SAMPLES).map(|_| None).collect(),
        })
    }

    fn inputs(&self) -> usize {
        self.samples.len()
    }

    fn tokens(&self, i: usize) -> u64 {
        self.samples[i].valid_len as u64
    }

    fn input_digest(&self) -> u64 {
        let mut h = Fnv(samples_digest(&self.samples));
        self.token_seeds.iter().for_each(|&s| h.word(s));
        h.0
    }

    fn op(&mut self, i: usize) -> Result<Matrix<Half>, String> {
        self.model
            .forward_numeric(Method::Multigrain, &self.samples[i], self.token_seeds[i])
            .map_err(|e| e.to_string())
    }

    fn digest(&self, out: &Matrix<Half>) -> u64 {
        let mut h = Fnv::new();
        h.matrix(out);
        h.0
    }

    fn check(&mut self, i: usize, out: &Matrix<Half>) -> Result<(), String> {
        let cfg = self.model.config();
        if out.rows() != cfg.max_seq_len || out.cols() != cfg.hidden {
            return Err(format!("forward output is {}x{}", out.rows(), out.cols()));
        }
        for r in 0..out.rows() {
            let row: Vec<f32> = out.row(r).iter().map(|v| v.to_f32()).collect();
            if !row.iter().all(|v| v.is_finite()) {
                return Err(format!("forward row {r} is not finite"));
            }
            let n = row.len() as f32;
            let mean = row.iter().sum::<f32>() / n;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
            if mean.abs() > 0.1 || (var - 1.0).abs() > 0.2 {
                return Err(format!(
                    "forward row {r} not layer-normalised: mean {mean}, var {var}"
                ));
            }
        }
        let hc = &self.heads[i];
        let diff = hc
            .attn
            .execute_numeric(&hc.q, &hc.k, &hc.v)
            .max_abs_diff(&hc.reference);
        if diff.is_nan() || diff >= HEAD_TOLERANCE {
            return Err(format!("head differs from the reference by {diff}"));
        }
        if self.facts[i].is_none() {
            let mut full = self.model.config().clone();
            full.layers = ModelConfig::qds_base().layers;
            let report = SparseTransformer::new(full)
                .inference_report(
                    &mut Gpu::new(DeviceSpec::a100()),
                    Method::Multigrain,
                    &self.samples[i],
                    1,
                )
                .map_err(|e| e.to_string())?;
            self.facts[i] = Some(Facts {
                sim_ms: report.total() * 1e3,
                plan_bytes: hc.attn.plan_memory_bytes().total() as f64,
                nnz: hc.attn.problem().pattern().nnz(),
            });
        }
        Ok(())
    }

    fn traced(&mut self, i: usize, tr: &mut Tracer) -> Result<Option<u64>, String> {
        let cfg = self.model.config().clone();
        let (l, dm, hd) = (cfg.max_seq_len, cfg.hidden, cfg.head_dim);
        let sample = &self.samples[i];
        let (problem, planned) = tr.span("core.plan", |tr| {
            let problem = AttentionProblem::new(
                self.model.pattern_for(sample),
                hd,
                1,
                cfg.heads,
                cfg.block_size,
            );
            let planned = replay::plan(tr, Method::Multigrain, &problem);
            (problem, planned)
        });
        let planned = planned.map_err(|e| e.to_string())?;
        let nnz = self.facts[i].as_ref().map_or(0, |f| f.nnz);
        tr.count(
            "kernels.useful_ratio.multigrain",
            replay::useful_ratio(&planned, problem.pattern(), nnz),
        );

        // The body of `forward_numeric`, call for call.
        let mut hidden: Matrix<Half> = Matrix::random(l, dm, self.token_seeds[i]);
        let gamma = vec![1.0f32; dm];
        let beta = vec![0.0f32; dm];
        let ffn_gamma = vec![1.0f32; dm];
        for layer in 0..cfg.layers {
            let seed = 1000 + layer as u64 * 17;
            let [wq, wk, wv, wo, w1, w2] = tr.span("models.weights", |_| {
                [
                    Matrix::<Half>::random(dm, dm, seed),
                    Matrix::<Half>::random(dm, dm, seed + 1),
                    Matrix::<Half>::random(dm, dm, seed + 2),
                    Matrix::<Half>::random(dm, dm, seed + 3),
                    Matrix::<Half>::random(dm, cfg.ffn_hidden, seed + 4),
                    Matrix::<Half>::random(cfg.ffn_hidden, dm, seed + 5),
                ]
            });
            for w in [&wq, &wk, &wv] {
                count_gemm(
                    tr,
                    "tensor.gemm_qkv.flops",
                    "tensor.gemm_qkv.bytes_computed",
                    &hidden,
                    w,
                );
            }
            let (q, k, v): (Matrix<Half>, Matrix<Half>, Matrix<Half>) = tr
                .span("tensor.gemm_qkv", |_| {
                    (gemm(&hidden, &wq), gemm(&hidden, &wk), gemm(&hidden, &wv))
                });
            let mut context = tr.span("models.head_slice", |_| Matrix::<Half>::zeros(l, dm));
            for h in 0..cfg.heads {
                let lo = h * hd;
                let slice = |m: &Matrix<Half>| Matrix::from_fn(l, hd, |r, c| m.get(r, lo + c));
                let (qs, ks, vs) =
                    tr.span("models.head_slice", |_| (slice(&q), slice(&k), slice(&v)));
                let ch = tr.span("core.execute.multigrain", |tr| {
                    replay::execute(tr, &planned, &problem, nnz, &qs, &ks, &vs)
                });
                tr.span("models.head_slice", |_| {
                    for r in 0..l {
                        for c in 0..hd {
                            context.set(r, lo + c, ch.get(r, c));
                        }
                    }
                });
            }
            let attn_out = traced_gemm(
                tr,
                "tensor.gemm_out",
                ["tensor.gemm_out.flops", "tensor.gemm_out.bytes_computed"],
                &context,
                &wo,
            );
            let residual: Matrix<Half> =
                tr.span("tensor.add", |_| mg_tensor::add(&hidden, &attn_out));
            let normed: Matrix<Half> = tr.span("tensor.layer_norm", |_| {
                layer_norm(&residual, &gamma, &beta)
            });
            let up = traced_gemm(
                tr,
                "tensor.gemm_ffn_up",
                [
                    "tensor.gemm_ffn_up.flops",
                    "tensor.gemm_ffn_up.bytes_computed",
                ],
                &normed,
                &w1,
            );
            let act: Matrix<Half> = tr.span("tensor.gelu", |_| gelu(&up));
            let down = traced_gemm(
                tr,
                "tensor.gemm_ffn_down",
                [
                    "tensor.gemm_ffn_down.flops",
                    "tensor.gemm_ffn_down.bytes_computed",
                ],
                &act,
                &w2,
            );
            let residual2: Matrix<Half> = tr.span("tensor.add", |_| mg_tensor::add(&normed, &down));
            hidden = tr.span("tensor.layer_norm", |_| {
                layer_norm(&residual2, &ffn_gamma, &beta)
            });
        }
        Ok(Some(self.digest(&hidden)))
    }

    fn sim(&self) -> (f64, f64) {
        let sims: Vec<f64> = self.facts.iter().flatten().map(|f| f.sim_ms).collect();
        (median(&sims), percentile(&sims, 0.99))
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let bytes: Vec<f64> = self.facts.iter().flatten().map(|f| f.plan_bytes).collect();
        vec![("core.plan.bytes", median(&bytes))]
    }
}
