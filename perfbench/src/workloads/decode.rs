//! `chat_decode`: `DecodeSim` in `Mixed` mode over QDS-base chat
//! sessions arriving as a Poisson process; each session's turns form a
//! closed loop through the user think time.

use super::sub_seed;
use crate::replay;
use crate::stats::{mean, percentile, Fnv};
use crate::trace::Tracer;
use crate::Workload;
use mg_decode::{BatchingMode, DecodeConfig, DecodeReport, DecodeSim, DecodeTraffic};
use mg_gpusim::Gpu;
use mg_kernels::decode_step_profile;
use mg_models::{workload::ChatSession, ModelConfig, SparseTransformer, WorkloadSample};
use mg_patterns::DecodePatternState;
use mg_serve::{PlanCache, RequestClass};

/// Distinct session traces per run.
const TRACES: usize = 2;
/// Sessions per trace (one op simulates a whole trace).
const SESSIONS: usize = 100;

struct Facts {
    decode_latencies_s: Vec<f64>,
    hits: u64,
    lookups: u64,
    steps: usize,
    batches: u64,
    bytes_copied: u64,
    growth_events: u64,
}

pub struct ChatDecode {
    config: DecodeConfig,
    traffic: Vec<DecodeTraffic>,
    sessions: Vec<Vec<ChatSession>>,
    facts: Vec<Option<Facts>>,
}

impl Workload for ChatDecode {
    type Out = DecodeReport;

    fn setup(seed: u64) -> Result<Self, String> {
        let config = DecodeConfig::new(
            ModelConfig::qds_base(),
            mg_gpusim::DeviceSpec::a100(),
            BatchingMode::Mixed,
        );
        let traffic: Vec<DecodeTraffic> = (0..TRACES as u64)
            .map(|i| DecodeTraffic {
                class: RequestClass::MsMarco,
                sessions: SESSIONS,
                max_turns: 4,
                rate_rps: 500.0,
                mean_think_s: 0.002,
                seed: sub_seed(seed, 31, i),
            })
            .collect();
        let sessions = traffic
            .iter()
            .map(|t| t.sessions_for(config.model.max_seq_len))
            .collect();
        Ok(ChatDecode {
            config,
            traffic,
            sessions,
            facts: (0..TRACES).map(|_| None).collect(),
        })
    }

    fn inputs(&self) -> usize {
        self.traffic.len()
    }

    /// Prefill, user and decoded tokens of every session.
    fn tokens(&self, i: usize) -> u64 {
        self.sessions[i].iter().map(|s| s.final_len() as u64).sum()
    }

    fn input_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for s in self.sessions.iter().flatten() {
            h.word(s.arrival_s.to_bits());
            h.word(s.final_len() as u64);
            h.word(s.turns.len() as u64);
        }
        h.0
    }

    fn op(&mut self, i: usize) -> Result<DecodeReport, String> {
        DecodeSim::new(self.config.clone())
            .run(&self.traffic[i])
            .map_err(|e| e.to_string())
    }

    fn digest(&self, out: &DecodeReport) -> u64 {
        out.digest()
    }

    fn check(&mut self, i: usize, out: &DecodeReport) -> Result<(), String> {
        let sessions = &self.sessions[i];
        let turns: usize = sessions.iter().map(|s| s.turns.len()).sum();
        let steps: usize = sessions.iter().map(ChatSession::decode_steps).sum();
        if out.sessions != sessions.len() || out.turns != turns || out.decode_steps != steps {
            return Err(format!(
                "{} sessions / {} turns / {} steps completed, expected {} / {turns} / {steps}",
                out.sessions,
                out.turns,
                out.decode_steps,
                sessions.len()
            ));
        }
        let bad = |v: &[f64]| v.iter().any(|&l| !l.is_finite() || l < 0.0);
        if bad(&out.decode_latencies_s) || bad(&out.prefill_latencies_s) {
            return Err("a simulated latency is negative or not finite".into());
        }
        if self.facts[i].is_none() {
            self.facts[i] = Some(Facts {
                decode_latencies_s: out.decode_latencies_s.clone(),
                hits: out.cache.hits,
                lookups: out.cache.hits + out.cache.misses,
                steps: out.decode_latencies_s.len(),
                batches: out.decode_batches,
                bytes_copied: out.kv.bytes_copied,
                growth_events: out.kv.growth_events,
            });
        }
        Ok(())
    }

    /// The engine's internals are private, so its public calls are timed
    /// in isolation on this trace's sessions, one session after another:
    /// the prefill plan and its kernels, then per turn the incremental
    /// rows and per decoded token the decode plan lookup, the pattern
    /// row, the step's cost model and its launch.
    fn traced(&mut self, i: usize, tr: &mut Tracer) -> Result<Option<u64>, String> {
        let cfg = &self.config;
        let model = SparseTransformer::new(cfg.model.clone());
        let mut cache = PlanCache::new(
            SparseTransformer::new(cfg.model.clone()),
            cfg.cache_capacity,
            cfg.len_bucket,
        );
        let mut gpu = Gpu::new(cfg.device.clone());
        let (hd, heads) = (cfg.model.head_dim, cfg.model.heads);
        let step = |tr: &mut Tracer, gpu: &mut Gpu, nnzs: &[usize], name: &str| {
            let profile = tr.span("kernels.decode_profile", |_| {
                decode_step_profile(&cfg.device, hd, heads, nnzs, name)
            });
            tr.count("gpusim.kernels", 1.0);
            tr.span("gpusim.step", |_| {
                let stream = gpu.stream(0);
                gpu.launch(stream, profile);
                gpu.synchronize();
            });
        };
        for (sid, chat) in self.sessions[i].iter().enumerate() {
            let prefill = &chat.prefill;
            let plan = tr
                .span("decode.plan", |_| {
                    cache.get_or_plan_sample(cfg.method, prefill)
                })
                .map_err(|e| e.to_string())?;
            replay::timed_batch(tr, &[plan.as_ref()], &mut gpu);
            let mut pattern = DecodePatternState::from_prefill(model.pattern_for(prefill));
            let mut context = prefill.valid_len;
            for turn in &chat.turns {
                if turn.user_tokens > 0 {
                    let nnzs: Vec<usize> = tr.span("patterns.extend_row", |_| {
                        (0..turn.user_tokens)
                            .map(|_| pattern.extend_decode_row().len())
                            .collect()
                    });
                    step(tr, &mut gpu, &nnzs, "incr_prefill");
                    context += turn.user_tokens;
                }
                for _ in 0..turn.decode_tokens {
                    let sample = WorkloadSample {
                        valid_len: context + 1,
                        special_tokens: prefill.special_tokens.clone(),
                    };
                    tr.span("decode.plan", |_| {
                        cache.get_or_plan_decode(sid as u64, cfg.method, &sample)
                    })
                    .map_err(|e| e.to_string())?;
                    let nnz = tr.span("patterns.extend_row", |_| pattern.extend_decode_row().len());
                    step(tr, &mut gpu, &[nnz], "decode_step");
                    context += 1;
                }
            }
            cache.end_session(sid as u64);
        }
        Ok(None)
    }

    /// Simulated decode-token latency over the run's traces: mean and
    /// p99.
    fn sim(&self) -> (f64, f64) {
        let all: Vec<f64> = self
            .facts
            .iter()
            .flatten()
            .flat_map(|f| f.decode_latencies_s.iter().map(|s| s * 1e3))
            .collect();
        (mean(&all), percentile(&all, 0.99))
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let facts: Vec<&Facts> = self.facts.iter().flatten().collect();
        let n = facts.len().max(1) as f64;
        let sum = |f: fn(&Facts) -> f64| facts.iter().map(|x| f(x)).sum::<f64>();
        vec![
            (
                "decode.plan_cache.hit_ratio",
                sum(|f| f.hits as f64) / sum(|f| f.lookups as f64).max(1.0),
            ),
            (
                "decode.batch_size.mean",
                sum(|f| f.steps as f64) / sum(|f| f.batches as f64).max(1.0),
            ),
            ("decode.kv.bytes_copied", sum(|f| f.bytes_copied as f64) / n),
            (
                "decode.kv.growth_events",
                sum(|f| f.growth_events as f64) / n,
            ),
        ]
    }
}
