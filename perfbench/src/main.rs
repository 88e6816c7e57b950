//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--threads <n>]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --selftest
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-spec
//! ```
//!
//! With `--trace 0` a run sets its workload up several times (reporting
//! the median set-up time), then times whole ops for `--seconds` and
//! prints every end-to-end metric. With `--trace 1` it alternates
//! untraced ops with traced replays and prints every per-layer metric.
//! Every op's output is checked; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod replay;
mod spec;
mod stats;
mod trace;
mod workloads;

use spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use stats::{median, peak_rss_mb};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::{OpProfile, Tracer};

/// One benchmark workload. Ops are indexed by a fixed set of inputs that
/// every run cycles through in whole rounds, so exact counters and
/// simulated metrics do not depend on how many rounds fit in a run.
pub trait Workload: Sized {
    type Out;
    /// Generates the inputs from `seed` and builds what the ops need.
    fn setup(seed: u64) -> Result<Self, String>;
    /// Number of distinct inputs (one round).
    fn inputs(&self) -> usize;
    /// Valid input tokens one op on input `i` completes.
    fn tokens(&self, i: usize) -> u64;
    /// Fingerprint of the generated inputs.
    fn input_digest(&self) -> u64;
    /// One untraced op: the timed call into the library.
    fn op(&mut self, i: usize) -> Result<Self::Out, String>;
    /// Bit-exact fingerprint of an op's output.
    fn digest(&self, out: &Self::Out) -> u64;
    /// Checks an op's output, recording input `i`'s simulated metrics
    /// and exact counters the first time it sees it.
    fn check(&mut self, i: usize, out: &Self::Out) -> Result<(), String>;
    /// One traced op; returns the replay's output digest when it is
    /// comparable with the untraced op's.
    fn traced(&mut self, i: usize, tr: &mut Tracer) -> Result<Option<u64>, String>;
    /// `(sim_gpu_ms, sim_p99_ms)` over the checked inputs.
    fn sim(&self) -> (f64, f64);
    /// Exact per-layer counters over the checked inputs.
    fn counters(&self) -> Vec<(&'static str, f64)>;
}

const SETUP_REPEATS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        threads: 2,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--threads" => {
                args.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?;
                if args.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.first().map(String::as_str) {
        Some("--write-spec") => std::fs::write("BENCHMARK.json", spec::benchmark_json())
            .map_err(|e| format!("writing BENCHMARK.json: {e}")),
        Some("--selftest") => selftest(),
        Some("--digest") => parse_args(&raw[1..]).and_then(|a| {
            mg_bench::threads::init_threads(Some(a.threads));
            dispatch(&a, true)
        }),
        _ => parse_args(&raw).and_then(|a| {
            if a.workload == "all" {
                run_all(&a)
            } else {
                mg_bench::threads::init_threads(Some(a.threads));
                dispatch(&a, false)
            }
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the named workload, or with `digest_only` just prints its
/// determinism fingerprint (`--digest`).
fn dispatch(a: &Args, digest_only: bool) -> Result<(), String> {
    use workloads::{ChatDecode, LongformerAttention, QdsForward, ServePoisson};
    fn go<W: Workload>(a: &Args, digest_only: bool) -> Result<(), String> {
        if digest_only {
            digest::<W>(a.seed)
        } else {
            run::<W>(a)
        }
    }
    match a.workload.as_str() {
        "qds_forward" => go::<QdsForward>(a, digest_only),
        "longformer_attention" => go::<LongformerAttention>(a, digest_only),
        "serve_poisson" => go::<ServePoisson>(a, digest_only),
        "chat_decode" => go::<ChatDecode>(a, digest_only),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Attempt/failure accounting and the first digest seen per input.
struct Tally {
    attempted: u64,
    failed: u64,
    first: Vec<Option<u64>>,
}

impl Tally {
    fn new(inputs: usize) -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            first: vec![None; inputs],
        }
    }

    /// Counts one op; it fails on an error, a failed check, or an output
    /// that differs from the first one seen for the same input.
    fn record<W: Workload>(&mut self, w: &mut W, i: usize, r: Result<W::Out, String>) -> bool {
        self.attempted += 1;
        let ok = match r {
            Ok(out) => {
                let d = w.digest(&out);
                let checked = w.check(i, &out);
                if let Err(e) = &checked {
                    eprintln!("perfbench: input {i}: {e}");
                }
                let same = *self.first[i].get_or_insert(d) == d;
                if !same {
                    eprintln!("perfbench: input {i}: output differs from an earlier op");
                }
                checked.is_ok() && same
            }
            Err(e) => {
                eprintln!("perfbench: input {i}: {e}");
                false
            }
        };
        if !ok {
            self.failed += 1;
        }
        ok
    }
}

/// Sets up and runs the warm-up op on input 0; returns the workload,
/// the set-up time and the warm-up output's digest.
fn setup<W: Workload>(seed: u64) -> Result<(W, f64, u64), String> {
    let t = Instant::now();
    let mut w = W::setup(seed)?;
    let out = w.op(0)?;
    w.check(0, &out)?;
    let d = w.digest(&out);
    drop(out);
    Ok((w, t.elapsed().as_secs_f64(), d))
}

fn run<W: Workload>(a: &Args) -> Result<(), String> {
    let budget = Duration::from_secs(a.seconds);
    if a.trace {
        run_traced::<W>(a, budget)
    } else {
        run_untraced::<W>(a, budget)
    }
}

/// End-to-end run: the median of several set-ups, then whole rounds of
/// timed ops until the budget is spent.
fn run_untraced<W: Workload>(a: &Args, budget: Duration) -> Result<(), String> {
    let (mut setups, mut first0) = (Vec::new(), None);
    let mut held: Option<W> = None;
    for _ in 0..SETUP_REPEATS {
        drop(held.take()); // free the previous set-up before building the next
        let (w, secs, d) = setup::<W>(a.seed)?;
        if *first0.get_or_insert(d) != d {
            return Err("warm-up output differs between set-ups".into());
        }
        setups.push(secs);
        held = Some(w);
    }
    let mut w = held.expect("at least one set-up");
    let mut tally = Tally::new(w.inputs());
    tally.first[0] = first0;
    let start = Instant::now();
    let mut op_ms = vec![Vec::new(); w.inputs()];
    let mut peak_mb = None;
    while start.elapsed() < budget {
        for (i, times) in op_ms.iter_mut().enumerate() {
            let t = Instant::now();
            let r = w.op(i);
            times.push(t.elapsed().as_secs_f64() * 1e3);
            tally.record(&mut w, i, r);
        }
        // Sampled after the first round: the same work in every run.
        // Sampled at the end, it would also carry the allocator's
        // fragmentation from however many rounds fit the budget.
        peak_mb.get_or_insert_with(peak_rss_mb);
    }
    let round_tokens: u64 = (0..w.inputs()).map(|i| w.tokens(i)).sum();
    let op_p50 = per_input_median_ms(&op_ms);
    let (sim_gpu, sim_p99) = w.sim();
    let metrics = BTreeMap::from([
        (
            "tokens_per_s",
            round_tokens as f64 / (op_p50 * w.inputs() as f64 / 1e3),
        ),
        ("op_p50_ms", op_p50),
        ("sim_gpu_ms", sim_gpu),
        ("sim_p99_ms", sim_p99),
        ("setup_s", median(&setups)),
        ("peak_rss_mb", peak_mb.unwrap_or_else(peak_rss_mb)),
    ]);
    let all: Vec<f64> = op_ms.concat();
    let lo = all.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = all.iter().copied().fold(0.0, f64::max);
    println!(
        "# {}: {} ops over {} inputs (op {lo:.1}..{hi:.1} ms), set-ups {setups:.3?} s, seed {}, {} threads",
        a.workload,
        all.len(),
        w.inputs(),
        a.seed,
        mg_bench::threads::effective_threads()
    );
    report(&END_TO_END, &metrics, &tally);
    Ok(())
}

/// Per-layer run: one set-up, then rounds in which every input runs
/// once untraced and once as a traced replay, until the budget is spent.
/// A traced op fails when its replay digest differs from the untraced
/// output or its layers' self times do not add up to its duration.
fn run_traced<W: Workload>(a: &Args, budget: Duration) -> Result<(), String> {
    let (mut w, _, first0) = setup::<W>(a.seed)?;
    let mut tally = Tally::new(w.inputs());
    tally.first[0] = Some(first0);
    let mut tr = Tracer::new();
    let mut profiles: Vec<OpProfile> = Vec::new();
    let mut untraced_ms = vec![Vec::new(); w.inputs()];
    let mut traced_ms = vec![Vec::new(); w.inputs()];
    let (mut compared, mut matched) = (0u64, 0u64);
    let start = Instant::now();
    while start.elapsed() < budget {
        for i in 0..w.inputs() {
            let t = Instant::now();
            let r = w.op(i);
            untraced_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
            tally.record(&mut w, i, r);

            let (r, prof) = tr.op(|tr| w.traced(i, tr));
            tally.attempted += 1;
            let ok = match r {
                Ok(Some(d)) => {
                    compared += 1;
                    let same = tally.first[i] == Some(d);
                    matched += u64::from(same);
                    if !same {
                        eprintln!("perfbench: input {i}: traced replay digest differs");
                    }
                    same
                }
                Ok(None) => true,
                Err(e) => {
                    eprintln!("perfbench: input {i}: traced op: {e}");
                    false
                }
            };
            let adds_up = prof.self_ns.values().sum::<u64>() == prof.op_ns;
            if !(ok && adds_up) {
                tally.failed += 1;
            }
            traced_ms[i].push(prof.op_ns as f64 / 1e6);
            profiles.push(prof);
        }
    }
    let mut metrics = layer_metrics(&profiles);
    metrics.extend(w.counters());
    let traced = per_input_median_ms(&traced_ms);
    metrics.insert("trace.op_ms", traced);
    metrics.insert(
        "trace.overhead_ms",
        traced - per_input_median_ms(&untraced_ms),
    );
    let match_ratio = if compared == 0 {
        0.0
    } else {
        matched as f64 / compared as f64
    };
    metrics.insert("trace.replay_match", match_ratio);
    metrics.insert("trace.ops", profiles.len() as f64);
    write_spans(&a.workload, &tr);
    println!(
        "# {}: {} traced ops, seed {}, {} threads",
        a.workload,
        profiles.len(),
        a.seed,
        mg_bench::threads::effective_threads()
    );
    report(&PER_LAYER, &metrics, &tally);
    Ok(())
}

/// The typical op time of a run: each input's median op time, averaged
/// over the inputs. One median over all ops would sit in the gap between
/// inputs of very different cost (the four methods of
/// `longformer_attention`) and jump with noise.
fn per_input_median_ms(times: &[Vec<f64>]) -> f64 {
    times.iter().map(|t| median(t)).sum::<f64>() / times.len().max(1) as f64
}

/// Per-layer metrics from the traced ops: for each layer, the median
/// over the ops that reached it of the op's summed self time; for each
/// computed count, the median over the ops that recorded it.
fn layer_metrics(profiles: &[OpProfile]) -> BTreeMap<&'static str, f64> {
    let mut metrics = BTreeMap::new();
    for spec in PER_LAYER.iter() {
        let values: Vec<f64> = match spec.name.strip_suffix(".self_ms") {
            Some(span) => profiles
                .iter()
                .filter_map(|p| p.self_ns.get(span).map(|&ns| ns as f64 / 1e6))
                .collect(),
            None => profiles
                .iter()
                .filter_map(|p| p.counts.get(spec.name).copied())
                .collect(),
        };
        metrics.insert(spec.name, median(&values));
    }
    let per_byte = |flops: f64, bytes: f64| if bytes > 0.0 { flops / bytes } else { 0.0 };
    metrics.insert(
        "tensor.gemm.flops_per_byte",
        per_byte(
            metrics["tensor.gemm.flops"],
            metrics["tensor.gemm.bytes_computed"],
        ),
    );
    metrics.insert(
        "kernels.attn.flops_per_byte",
        per_byte(
            metrics["kernels.attn.flops"],
            metrics["kernels.attn.bytes_computed"],
        ),
    );
    let gemm_spans = [
        "tensor.gemm_qkv",
        "tensor.gemm_out",
        "tensor.gemm_ffn_up",
        "tensor.gemm_ffn_down",
    ];
    let (mut flops, mut ns) = (0.0, 0u64);
    for p in profiles {
        flops += p.counts.get("tensor.gemm.flops").copied().unwrap_or(0.0);
        ns += gemm_spans
            .iter()
            .filter_map(|s| p.self_ns.get(s))
            .sum::<u64>();
    }
    metrics.insert(
        "tensor.gemm.gflops",
        if ns == 0 { 0.0 } else { flops / ns as f64 },
    );
    metrics
}

fn write_spans(workload: &str, tr: &Tracer) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/{workload}.spans.json");
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_json()));
    match written {
        Ok(()) => println!("# spans written to {path}"),
        Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
    }
}

/// Prints each metric as `metric <name> <value> <unit>`, then the JSON
/// result line.
fn report(specs: &[MetricSpec], metrics: &BTreeMap<&'static str, f64>, tally: &Tally) {
    let mut finite = true;
    let mut json = String::new();
    for (i, spec) in specs.iter().enumerate() {
        let mut v = metrics.get(spec.name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            eprintln!("perfbench: metric {} is not finite", spec.name);
            finite = false;
            v = 0.0;
        }
        println!("metric {} {} {}", spec.name, v, spec.unit);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            spec.name, spec.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        finite && tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
}

/// `--workload all`: runs each workload in its own process (so each
/// reports its own peak RSS) and prints one combined result line.
fn run_all(a: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut json = String::new();
    for w in WORKLOADS.iter() {
        let out = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .args(["--threads", &a.threads.to_string()])
            .output()
            .map_err(|e| format!("running {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "{} failed: {}",
                w.name,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let last = stdout.lines().last().unwrap_or_default();
        correct &= last.contains("\"correct\": true");
        attempted += field(last, "\"attempted\": ");
        failed += field(last, "\"failed\": ");
        for line in stdout.lines() {
            if let Some(rest) = line.strip_prefix("metric ") {
                let parts: Vec<&str> = rest.split(' ').collect();
                println!(
                    "{:<22} {:<36} {:>16} {}",
                    w.name, parts[0], parts[1], parts[2]
                );
                let sep = if json.is_empty() { "" } else { ", " };
                let _ = write!(
                    json,
                    "{sep}\"{}/{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    w.name, parts[0], parts[1], parts[2]
                );
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        attempted.max(1)
    );
    Ok(())
}

fn field(line: &str, key: &str) -> u64 {
    line.split(key)
        .nth(1)
        .and_then(|r| r.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// `--digest`: one untimed op per input; prints the input fingerprint,
/// every output digest, the simulated metrics and the exact counters.
fn digest<W: Workload>(seed: u64) -> Result<(), String> {
    let mut w = W::setup(seed)?;
    println!("inputs {:016x}", w.input_digest());
    for i in 0..w.inputs() {
        let out = w.op(i)?;
        w.check(i, &out)?;
        println!("digest {i} {:016x}", w.digest(&out));
    }
    let (g, p) = w.sim();
    println!("sim_gpu_ms {g}\nsim_p99_ms {p}");
    for (name, v) in w.counters() {
        println!("counter {name} {v}");
    }
    Ok(())
}

/// `--selftest`: per workload, the same seed gives identical digests,
/// simulated metrics and counters at 1 and 2 threads and with SIMD off,
/// and another seed changes the inputs.
fn selftest() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let run = |workload: &str, seed: u64, threads: &str, simd: Option<&str>| {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--digest",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
        ])
        .args(["--threads", threads]);
        if let Some(s) = simd {
            cmd.env("MG_SIMD", s);
        }
        let out = cmd
            .output()
            .map_err(|e| format!("running {workload}: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "{workload} --digest failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        Ok(String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let mut failures = 0;
    for w in WORKLOADS.iter() {
        let base = run(w.name, 7, "2", None)?;
        let cases = [
            ("1 thread", run(w.name, 7, "1", None)?),
            ("MG_SIMD=0", run(w.name, 7, "2", Some("0"))?),
            ("MG_SIMD=1", run(w.name, 7, "2", Some("1"))?),
        ];
        for (label, out) in &cases {
            let ok = *out == base;
            failures += usize::from(!ok);
            println!(
                "{:<22} {:<10} {}",
                w.name,
                label,
                if ok { "identical" } else { "DIFFERS" }
            );
        }
        let other = run(w.name, 8, "2", None)?;
        let inputs = |s: &str| s.lines().next().unwrap_or_default().to_owned();
        let ok = inputs(&other) != inputs(&base);
        failures += usize::from(!ok);
        println!(
            "{:<22} {:<10} {}",
            w.name,
            "seed 8",
            if ok {
                "inputs change"
            } else {
                "INPUTS UNCHANGED"
            }
        );
    }
    if failures == 0 {
        println!("selftest passed");
        Ok(())
    } else {
        Err(format!("selftest: {failures} check(s) failed"))
    }
}
