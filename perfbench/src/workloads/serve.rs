//! `serve_poisson`: a timing-only `ServeSim` run of QDS-base on two
//! simulated A100s under open-loop Poisson traffic below saturation.
//!
//! Methods mix across the run's traces, one method per trace: a Triton
//! plan holds about 14 MB, a fused plan next to nothing, so a trace that
//! drew its methods per request would swing the process's memory with
//! the seed's method mix.

use super::sub_seed;
use crate::replay;
use crate::stats::{mean, median, percentile, Fnv};
use crate::trace::Tracer;
use crate::Workload;
use mg_gpusim::{DeviceSpec, Gpu};
use mg_models::{ModelConfig, SparseTransformer};
use mg_serve::{Batch, Batcher, PlanCache, ServeConfig, ServeReport, ServeSim, TrafficConfig};
use multigrain::{Attention, Method};
use std::sync::Arc;

/// Distinct traffic traces per run, one per method.
const TRACES: usize = Method::EXTENDED.len();
/// Requests per trace (one op simulates a whole trace).
const REQUESTS: usize = 100;
/// Offered load, requests per simulated second.
const RATE_RPS: f64 = 200.0;

struct Facts {
    latencies_s: Vec<f64>,
    queue_s: Vec<f64>,
    hits: u64,
    lookups: u64,
    batches: usize,
    busy_fraction: f64,
}

pub struct ServePoisson {
    config: ServeConfig,
    traffic: Vec<TrafficConfig>,
    tokens: Vec<u64>,
    facts: Vec<Option<Facts>>,
}

/// Digest over per-request `(queue, service)` in request-id order.
fn outcome_digest(outcomes: impl Iterator<Item = (usize, f64, f64)>) -> u64 {
    let mut h = Fnv::new();
    for (id, queue, service) in outcomes {
        h.word(id as u64);
        h.word(queue.to_bits());
        h.word(service.to_bits());
    }
    h.0
}

impl Workload for ServePoisson {
    type Out = ServeReport;

    fn setup(seed: u64) -> Result<Self, String> {
        let config = ServeConfig::new(ModelConfig::qds_base(), DeviceSpec::a100());
        let traffic: Vec<TrafficConfig> = Method::EXTENDED
            .iter()
            .enumerate()
            .map(|(i, &method)| {
                TrafficConfig::poisson(
                    RATE_RPS,
                    REQUESTS,
                    method,
                    0.5,
                    sub_seed(seed, 21, i as u64),
                )
            })
            .collect();
        let tokens = traffic
            .iter()
            .map(|t| {
                t.generate(config.model.max_seq_len)
                    .iter()
                    .map(|r| r.sample.valid_len as u64)
                    .sum()
            })
            .collect();
        Ok(ServePoisson {
            config,
            traffic,
            tokens,
            facts: (0..TRACES).map(|_| None).collect(),
        })
    }

    fn inputs(&self) -> usize {
        self.traffic.len()
    }

    fn tokens(&self, i: usize) -> u64 {
        self.tokens[i]
    }

    fn input_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for t in &self.traffic {
            for r in t.generate(self.config.model.max_seq_len) {
                h.word(r.arrival_s.to_bits());
                h.word(r.sample.valid_len as u64);
                h.word(r.method as u64);
            }
        }
        h.0
    }

    fn op(&mut self, i: usize) -> Result<ServeReport, String> {
        ServeSim::new(self.config.clone())
            .run(&self.traffic[i])
            .map_err(|e| e.to_string())
    }

    fn digest(&self, out: &ServeReport) -> u64 {
        outcome_digest(out.outcomes.iter().map(|o| (o.id, o.queue_s, o.service_s)))
    }

    fn check(&mut self, i: usize, out: &ServeReport) -> Result<(), String> {
        if out.outcomes.len() != REQUESTS {
            return Err(format!(
                "{} of {REQUESTS} requests completed",
                out.outcomes.len()
            ));
        }
        for (id, o) in out.outcomes.iter().enumerate() {
            let t = o.total_s();
            if o.id != id || !t.is_finite() || t < 0.0 || o.queue_s < 0.0 {
                return Err(format!("request {id}: bad outcome {o:?}"));
            }
        }
        if self.facts[i].is_none() {
            self.facts[i] = Some(Facts {
                latencies_s: out.outcomes.iter().map(|o| o.total_s()).collect(),
                queue_s: out.outcomes.iter().map(|o| o.queue_s).collect(),
                hits: out.cache.hits,
                lookups: out.cache.hits + out.cache.misses,
                batches: out.batches.len(),
                busy_fraction: out.busy_fraction(),
            });
        }
        Ok(())
    }

    /// Replays `ServeSim::run`: arrivals through the `Batcher`, each
    /// released batch planned through the `PlanCache` and stepped on the
    /// next worker's simulated GPU in round-robin order.
    fn traced(&mut self, i: usize, tr: &mut Tracer) -> Result<Option<u64>, String> {
        let cfg = &self.config;
        let requests = self.traffic[i].generate(cfg.model.max_seq_len);
        let mut batcher = Batcher::new(cfg.batch_policy);
        let mut cache = PlanCache::new(
            SparseTransformer::new(cfg.model.clone()),
            cfg.cache_capacity,
            cfg.cache_len_bucket,
        );
        let mut workers: Vec<(Gpu, f64)> = (0..cfg.workers.max(1))
            .map(|_| {
                let mut gpu = Gpu::new(cfg.device.clone());
                gpu.stream(2);
                (gpu, 0.0)
            })
            .collect();
        let mut next = 0;
        let mut outcomes: Vec<(usize, f64, f64)> = Vec::with_capacity(requests.len());
        let mut dispatch = |tr: &mut Tracer, due: Vec<Batch>| -> Result<(), String> {
            for batch in due {
                let plans: Vec<Arc<Attention>> = tr
                    .span("serve.plan_cache", |_| {
                        batch
                            .requests
                            .iter()
                            .map(|r| cache.get_or_plan(r))
                            .collect::<Result<_, _>>()
                    })
                    .map_err(|e| e.to_string())?;
                let (gpu, free_at) = &mut workers[next];
                next = (next + 1) % cfg.workers.max(1);
                let started = batch.admitted_s.max(*free_at);
                gpu.advance_to(started);
                let refs: Vec<&Attention> = plans.iter().map(Arc::as_ref).collect();
                replay::timed_batch(tr, &refs, gpu);
                let finished = gpu.elapsed();
                *free_at = finished;
                for r in &batch.requests {
                    outcomes.push((r.id, started - r.arrival_s, finished - started));
                }
            }
            Ok(())
        };
        for request in &requests {
            let now = request.arrival_s;
            let due = tr.span("serve.batcher", |_| {
                let mut due = batcher.poll(now);
                due.extend(batcher.push(request.clone(), now));
                due
            });
            dispatch(tr, due)?;
        }
        let end = requests.last().map_or(0.0, |r| r.arrival_s);
        while let Some(due) = tr.span("serve.batcher", |_| {
            batcher.next_deadline().map(|d| batcher.poll(d.max(end)))
        }) {
            dispatch(tr, due)?;
        }
        outcomes.sort_by_key(|o| o.0);
        Ok(Some(outcome_digest(outcomes.into_iter())))
    }

    /// Simulated request latency over the run's traces: mean and p99.
    fn sim(&self) -> (f64, f64) {
        let all: Vec<f64> = self
            .facts
            .iter()
            .flatten()
            .flat_map(|f| f.latencies_s.iter().map(|s| s * 1e3))
            .collect();
        (mean(&all), percentile(&all, 0.99))
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let facts: Vec<&Facts> = self.facts.iter().flatten().collect();
        let sum = |f: fn(&Facts) -> f64| facts.iter().map(|x| f(x)).sum::<f64>();
        let queue: Vec<f64> = facts
            .iter()
            .flat_map(|f| f.queue_s.iter().map(|s| s * 1e3))
            .collect();
        let busy: Vec<f64> = facts.iter().map(|f| f.busy_fraction).collect();
        vec![
            (
                "serve.plan_cache.hit_ratio",
                sum(|f| f.hits as f64) / sum(|f| f.lookups as f64).max(1.0),
            ),
            (
                "serve.batch_size.mean",
                sum(|f| f.latencies_s.len() as f64) / sum(|f| f.batches as f64).max(1.0),
            ),
            ("serve.queue_mean_ms", mean(&queue)),
            ("serve.busy_fraction", median(&busy)),
        ]
    }
}
