//! `longformer_attention`: Longformer-large attention at L = 4096 over
//! all four methods. One op is `Attention::plan` plus `execute_numeric`
//! on a fixed number of seeded heads, for one sample and one method.

use super::{quantile_samples, samples_digest, sub_seed, HEAD_TOLERANCE};
use crate::replay::{self, method_names};
use crate::stats::{median, percentile, Fnv};
use crate::trace::Tracer;
use crate::Workload;
use mg_gpusim::{DeviceSpec, Gpu};
use mg_models::{workload, ModelConfig, SparseTransformer, WorkloadSample};
use mg_tensor::{Half, Matrix};
use multigrain::{reference_attention, Attention, AttentionProblem, Method};

/// Distinct samples per run; every sample runs under every method.
const SAMPLES: usize = 2;
/// Heads each op executes.
const HEADS: usize = 2;

pub struct Out {
    attn: Attention,
    contexts: Vec<Matrix<Half>>,
}

struct Facts {
    sim_ms: f64,
    plan_bytes: f64,
}

pub struct LongformerAttention {
    model: SparseTransformer,
    samples: Vec<WorkloadSample>,
    /// `[q, k, v]` per sample and head.
    qkv: Vec<Vec<[Matrix<Half>; 3]>>,
    /// Head 0's dense reference per sample.
    reference: Vec<Matrix<Half>>,
    nnz: Vec<Option<usize>>,
    facts: Vec<Option<Facts>>,
}

impl LongformerAttention {
    fn input(&self, i: usize) -> (usize, Method) {
        (
            i / Method::EXTENDED.len(),
            Method::EXTENDED[i % Method::EXTENDED.len()],
        )
    }

    fn problem(&self, sample: usize) -> AttentionProblem {
        let cfg = self.model.config();
        AttentionProblem::new(
            self.model.pattern_for(&self.samples[sample]),
            cfg.head_dim,
            1,
            HEADS,
            cfg.block_size,
        )
    }
}

impl Workload for LongformerAttention {
    type Out = Out;

    fn setup(seed: u64) -> Result<Self, String> {
        let model = SparseTransformer::new(ModelConfig::longformer_large());
        let (l, d) = (model.config().max_seq_len, model.config().head_dim);
        let pool = workload::hotpotqa_like(l, 256, sub_seed(seed, 11, 0));
        let samples = quantile_samples(pool, SAMPLES);
        let qkv: Vec<Vec<[Matrix<Half>; 3]>> = (0..SAMPLES as u64)
            .map(|s| {
                (0..HEADS as u64)
                    .map(|h| {
                        let t = |x| sub_seed(seed, 12, 16 * s + 4 * h + x);
                        [
                            Matrix::random(l, d, t(0)),
                            Matrix::random(l, d, t(1)),
                            Matrix::random(l, d, t(2)),
                        ]
                    })
                    .collect()
            })
            .collect();
        let mut w = LongformerAttention {
            model,
            samples,
            qkv,
            reference: Vec::new(),
            nnz: vec![None; SAMPLES],
            facts: (0..SAMPLES * Method::EXTENDED.len())
                .map(|_| None)
                .collect(),
        };
        w.reference = (0..SAMPLES)
            .map(|s| {
                let problem = w.problem(s);
                let [q, k, v] = &w.qkv[s][0];
                reference_attention(q, k, v, problem.pattern(), problem.dims().scale())
            })
            .collect();
        Ok(w)
    }

    fn inputs(&self) -> usize {
        SAMPLES * Method::EXTENDED.len()
    }

    fn tokens(&self, i: usize) -> u64 {
        self.samples[self.input(i).0].valid_len as u64
    }

    fn input_digest(&self) -> u64 {
        let mut h = Fnv(samples_digest(&self.samples));
        self.qkv
            .iter()
            .flatten()
            .flatten()
            .for_each(|m| h.matrix(m));
        h.0
    }

    fn op(&mut self, i: usize) -> Result<Out, String> {
        let (s, method) = self.input(i);
        let attn = Attention::plan(method, self.problem(s)).map_err(|e| e.to_string())?;
        let contexts = self.qkv[s]
            .iter()
            .map(|[q, k, v]| attn.execute_numeric(q, k, v))
            .collect();
        Ok(Out { attn, contexts })
    }

    fn digest(&self, out: &Out) -> u64 {
        let mut h = Fnv::new();
        out.contexts.iter().for_each(|c| h.matrix(c));
        h.0
    }

    fn check(&mut self, i: usize, out: &Out) -> Result<(), String> {
        let (s, method) = self.input(i);
        if let Some(h) = out
            .contexts
            .iter()
            .position(|c| !c.as_slice().iter().all(|v| v.is_finite()))
        {
            return Err(format!("{} head {h} has non-finite outputs", method.name()));
        }
        let diff = out.contexts[0].max_abs_diff(&self.reference[s]);
        if diff.is_nan() || diff >= HEAD_TOLERANCE {
            return Err(format!(
                "{} differs from the reference by {diff}",
                method.name()
            ));
        }
        if self.nnz[s].is_none() {
            self.nnz[s] = Some(out.attn.problem().pattern().nnz());
        }
        if self.facts[i].is_none() {
            let report = out.attn.run_timed(&mut Gpu::new(DeviceSpec::a100()));
            self.facts[i] = Some(Facts {
                sim_ms: report.total() * 1e3,
                plan_bytes: out.attn.plan_memory_bytes().total() as f64,
            });
        }
        Ok(())
    }

    fn traced(&mut self, i: usize, tr: &mut Tracer) -> Result<Option<u64>, String> {
        let (s, method) = self.input(i);
        let (problem, planned) = tr.span("core.plan", |tr| {
            let problem = self.problem(s);
            let planned = replay::plan(tr, method, &problem);
            (problem, planned)
        });
        let planned = planned.map_err(|e| e.to_string())?;
        let nnz = self.nnz[s].unwrap_or(0);
        let (span, ratio) = method_names(method);
        tr.count(
            ratio,
            replay::useful_ratio(&planned, problem.pattern(), nnz),
        );
        let mut h = Fnv::new();
        for [q, k, v] in &self.qkv[s] {
            let c = tr.span(span, |tr| {
                replay::execute(tr, &planned, &problem, nnz, q, k, v)
            });
            h.matrix(&c);
        }
        Ok(Some(h.0))
    }

    /// Simulated time of one sample summed over the four methods: median
    /// and p99 over the samples.
    fn sim(&self) -> (f64, f64) {
        let per_sample: Vec<f64> = self
            .facts
            .chunks(Method::EXTENDED.len())
            .filter(|c| c.iter().all(Option::is_some))
            .map(|c| c.iter().flatten().map(|f| f.sim_ms).sum())
            .collect();
        (median(&per_sample), percentile(&per_sample, 0.99))
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let bytes: Vec<f64> = self.facts.iter().flatten().map(|f| f.plan_bytes).collect();
        vec![("core.plan.bytes", median(&bytes))]
    }
}
