//! The benchmark's contract: workload names, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` is
//! generated from these tables (`--write-spec`), so the two cannot drift.

use std::fmt::Write as _;

/// A named workload and why it is in the benchmark.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// A metric: name, unit, direction and (end-to-end only) bound.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

pub const RUN_SECONDS: u64 = 20;

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "qds_forward",
        why: "whole QDS-Transformer-base layer forward at L=2048: dense GEMM/gelu/layer_norm dominate, sparse attention is about a tenth",
    },
    WorkloadSpec {
        name: "longformer_attention",
        why: "Longformer-large attention at L=4096 over all four methods: planning and sparse SDDMM/softmax/SpMM only, no large GEMM",
    },
    WorkloadSpec {
        name: "serve_poisson",
        why: "open-loop Poisson serving of QDS-base on two simulated A100s, one trace per method: plan cache, batcher, cost models and gpusim stepping, no numerics",
    },
    WorkloadSpec {
        name: "chat_decode",
        why: "multi-turn chat decode on QDS-base: thousands of tiny decode-step kernels, incremental pattern extension and KV growth",
    },
];

pub const END_TO_END: [MetricSpec; 6] = [
    e2e("tokens_per_s", "1/s", "higher", 0.25),
    e2e("op_p50_ms", "ms", "lower", 0.25),
    e2e("sim_gpu_ms", "ms", "lower", 0.10),
    e2e("sim_p99_ms", "ms", "lower", 0.10),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

pub const PER_LAYER: [MetricSpec; 80] = [
    // mg-models
    m("models.weights.self_ms", "ms", "lower"),
    m("models.head_slice.self_ms", "ms", "lower"),
    // mg-tensor
    m("tensor.gemm_qkv.self_ms", "ms", "lower"),
    m("tensor.gemm_out.self_ms", "ms", "lower"),
    m("tensor.gemm_ffn_up.self_ms", "ms", "lower"),
    m("tensor.gemm_ffn_down.self_ms", "ms", "lower"),
    m("tensor.gelu.self_ms", "ms", "lower"),
    m("tensor.add.self_ms", "ms", "lower"),
    m("tensor.layer_norm.self_ms", "ms", "lower"),
    m("tensor.gemm_qkv.flops", "flop", "lower"),
    m("tensor.gemm_qkv.bytes_computed", "B", "lower"),
    m("tensor.gemm_out.flops", "flop", "lower"),
    m("tensor.gemm_out.bytes_computed", "B", "lower"),
    m("tensor.gemm_ffn_up.flops", "flop", "lower"),
    m("tensor.gemm_ffn_up.bytes_computed", "B", "lower"),
    m("tensor.gemm_ffn_down.flops", "flop", "lower"),
    m("tensor.gemm_ffn_down.bytes_computed", "B", "lower"),
    m("tensor.gemm.flops", "flop", "lower"),
    m("tensor.gemm.bytes_computed", "B", "lower"),
    m("tensor.gemm.flops_per_byte", "flop/B", "higher"),
    m("tensor.gemm.gflops", "GFLOP/s", "higher"),
    // multigrain (core)
    m("core.plan.self_ms", "ms", "lower"),
    m("core.plan.bytes", "B", "lower"),
    m("core.execute.multigrain.self_ms", "ms", "lower"),
    m("core.execute.triton.self_ms", "ms", "lower"),
    m("core.execute.sputnik.self_ms", "ms", "lower"),
    m("core.execute.fused.self_ms", "ms", "lower"),
    // mg-patterns
    m("patterns.slice.self_ms", "ms", "lower"),
    m("patterns.extend_row.self_ms", "ms", "lower"),
    // mg-kernels: numeric kernels
    m("kernels.coarse_sddmm.self_ms", "ms", "lower"),
    m("kernels.fine_sddmm.self_ms", "ms", "lower"),
    m("kernels.softmax.self_ms", "ms", "lower"),
    m("kernels.coarse_spmm.self_ms", "ms", "lower"),
    m("kernels.fine_spmm.self_ms", "ms", "lower"),
    m("kernels.merge.self_ms", "ms", "lower"),
    m("kernels.global_rows.self_ms", "ms", "lower"),
    m("kernels.fused.self_ms", "ms", "lower"),
    m("kernels.coarse_sddmm.flops", "flop", "lower"),
    m("kernels.coarse_sddmm.bytes_computed", "B", "lower"),
    m("kernels.fine_sddmm.flops", "flop", "lower"),
    m("kernels.fine_sddmm.bytes_computed", "B", "lower"),
    m("kernels.softmax.flops", "flop", "lower"),
    m("kernels.softmax.bytes_computed", "B", "lower"),
    m("kernels.coarse_spmm.flops", "flop", "lower"),
    m("kernels.coarse_spmm.bytes_computed", "B", "lower"),
    m("kernels.fine_spmm.flops", "flop", "lower"),
    m("kernels.fine_spmm.bytes_computed", "B", "lower"),
    m("kernels.merge.flops", "flop", "lower"),
    m("kernels.merge.bytes_computed", "B", "lower"),
    m("kernels.global_rows.flops", "flop", "lower"),
    m("kernels.global_rows.bytes_computed", "B", "lower"),
    m("kernels.fused.flops", "flop", "lower"),
    m("kernels.fused.bytes_computed", "B", "lower"),
    m("kernels.attn.flops", "flop", "lower"),
    m("kernels.attn.bytes_computed", "B", "lower"),
    m("kernels.attn.flops_per_byte", "flop/B", "higher"),
    m("kernels.useful_ratio.multigrain", "ratio", "higher"),
    m("kernels.useful_ratio.triton", "ratio", "higher"),
    m("kernels.useful_ratio.sputnik", "ratio", "higher"),
    m("kernels.useful_ratio.fused", "ratio", "higher"),
    // mg-kernels: cost models
    m("kernels.profile.self_ms", "ms", "lower"),
    m("kernels.decode_profile.self_ms", "ms", "lower"),
    // mg-gpusim
    m("gpusim.step.self_ms", "ms", "lower"),
    m("gpusim.kernels", "count", "lower"),
    // mg-serve
    m("serve.batcher.self_ms", "ms", "lower"),
    m("serve.plan_cache.self_ms", "ms", "lower"),
    m("serve.plan_cache.hit_ratio", "ratio", "higher"),
    m("serve.batch_size.mean", "requests", "higher"),
    m("serve.queue_mean_ms", "ms", "lower"),
    m("serve.busy_fraction", "ratio", "lower"),
    // mg-decode
    m("decode.plan_cache.hit_ratio", "ratio", "higher"),
    m("decode.batch_size.mean", "steps", "higher"),
    m("decode.kv.bytes_copied", "B", "lower"),
    m("decode.kv.growth_events", "count", "lower"),
    m("decode.plan.self_ms", "ms", "lower"),
    // the rest of each op, and the trace itself
    m("other.self_ms", "ms", "lower"),
    m("trace.op_ms", "ms", "lower"),
    m("trace.overhead_ms", "ms", "lower"),
    m("trace.replay_match", "ratio", "higher"),
    m("trace.ops", "count", "higher"),
];

/// `BENCHMARK.json`, generated from the tables above.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, x) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            x.name, x.unit, x.better, x.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, x) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            x.name, x.unit, x.better
        );
    }
    s.push_str("  ]\n}\n");
    s
}
