//! End-to-end and per-layer benchmark of `pcnn-serve` over
//! `pcnn-runtime`, driven only through their public functions.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tiny_open_f32 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of one untraced run;
//! `--trace 1` prints the per-layer breakdown of a separate traced run.
//! `--workload all` runs every workload, each in its own process. The
//! last line of standard output is the result as one JSON object. See
//! `perfbench/README.md` for the workloads and metric definitions.

mod check;
mod layers;
mod load;
mod stats;

use check::{max_rel_diff, References, Tally};
use load::PhaseResult;
use pcnn_core::pruner;
use pcnn_core::PrunePlan;
use pcnn_nn::models::{vgg16_proxy, VggProxyConfig};
use pcnn_runtime::compile::{compile, compile_quant, CompileOptions};
use pcnn_runtime::{Engine, ExecutableGraph, Precision, QuantOptions};
use pcnn_serve::{AttributionReport, ServeConfig, Server, ShutdownMode, TraceConfig};
use pcnn_tensor::Tensor;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use stats::{median_f64, nearest_rank, tail_quantile, Spans};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Workload {
    name: &'static str,
    cifar: bool,
    precision: Precision,
    /// Fixed-interval arrivals at this absolute rate (req/s).
    rate: f64,
}

/// The workloads: open loops at absolute rates, so a faster commit
/// faces the same offered load as a slower one. Each rate is well below
/// the server's capacity on a 2-vCPU host, so latency is set by the
/// coalescing window and the pass itself rather than by a backlog; a
/// saturating (closed) loop tracks the host's speed instead, which on a
/// shared host spreads from run to run past the bound (see
/// `perfbench/README.md`).
const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "tiny_open_f32",
        cifar: false,
        precision: Precision::F32,
        rate: 500.0,
    },
    Workload {
        name: "cifar_open_int8",
        cifar: true,
        precision: Precision::Int8,
        rate: 100.0,
    },
];

/// Seeded input pool size (`1×3×16×16` tensors).
const POOL: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Inputs of the pool checked against the reference datapath (the int8
/// reference is slow); every response is checked against its solo output.
const REF_INPUTS: usize = 4;
/// Load before each measured window, not measured.
const WARMUP: Duration = Duration::from_millis(500);
/// Budget of each engine-only and runtime-only sub-phase of a traced run.
const LAYER_BUDGET: Duration = Duration::from_millis(600);
/// Tolerance of the f32 pattern lowering against the dense-reference
/// lowering, relative to `max(1, |reference|)`.
const F32_REF_TOL: f64 = 1e-5;
/// Tolerance of each int8 op against its dequantise-then-f32 reference
/// datapath (the quant parity suite's).
const INT8_REF_TOL: f64 = 1e-5;

fn model_config(cifar: bool) -> VggProxyConfig {
    if cifar {
        VggProxyConfig {
            widths: [32, 32, 48, 48, 64, 64, 64, 96, 96, 96, 96, 96, 96],
            pools_after: vec![7, 10],
            input_hw: 16,
            num_classes: 10,
        }
    } else {
        VggProxyConfig::default()
    }
}

fn serve_config(w: &Workload) -> ServeConfig {
    ServeConfig {
        precision: w.precision,
        ..ServeConfig::default()
    }
}

/// The seeded input pool; the program under test sees only these.
fn input_pool(seed: u64) -> Vec<Tensor> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_1a7e_0000_0001);
    (0..POOL)
        .map(|_| {
            let data = (0..3 * 16 * 16)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect();
            Tensor::from_vec(data, &[1, 3, 16, 16])
        })
        .collect()
}

/// Per-stage wall times of one set-up, in seconds.
#[derive(Clone, Copy)]
struct SetupTimes {
    model: f64,
    prune: f64,
    compile: f64,
    start: f64,
    /// Model build through the first admitted request.
    total: f64,
}

struct Setup {
    server: Server,
    times: SetupTimes,
    /// The pruned model and its pattern sets, for the dense reference.
    model: pcnn_nn::Model,
    sets: Vec<pcnn_core::PatternSet>,
    first: pcnn_serve::Ticket,
}

/// Model build + prune + compile + `Server::start`, up to the first
/// admitted request (pool entry 0).
fn set_up(w: &Workload, seed: u64, pool: &[Tensor], spans: &mut Option<&mut Spans>) -> Setup {
    let t0 = Instant::now();
    let mut model = vgg16_proxy(&model_config(w.cifar), seed);
    let t1 = Instant::now();
    let outcome = pruner::prune_model(&mut model, &PrunePlan::uniform(13, 2, 32));
    let t2 = Instant::now();
    let graph = match w.precision {
        Precision::F32 => compile(&model, &outcome.sets, &CompileOptions::default()),
        Precision::Int8 => compile_quant(
            &model,
            &outcome.sets,
            &CompileOptions::default(),
            &QuantOptions::default(),
        ),
    }
    .expect("proxy lowers cleanly")
    .0;
    let t3 = Instant::now();
    let server = Server::start(Engine::with_default_threads(graph), serve_config(w));
    let t4 = Instant::now();
    let first = server
        .submit(pool[0].clone())
        .expect("first request admitted");
    let t5 = Instant::now();
    if let Some(spans) = spans {
        let root = spans.record("setup", t0, t5, None, first.request_id());
        spans.record("setup.model", t0, t1, Some(root), 0);
        spans.record("setup.prune", t1, t2, Some(root), 0);
        spans.record("setup.compile", t2, t3, Some(root), 0);
        spans.record("setup.start", t3, t4, Some(root), 0);
    }
    let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Setup {
        server,
        times: SetupTimes {
            model: s(t0, t1),
            prune: s(t1, t2),
            compile: s(t2, t3),
            start: s(t3, t4),
            total: s(t0, t5),
        },
        model,
        sets: outcome.sets,
        first,
    }
}

/// Checks the solo reference outputs once against the reference
/// datapath, returning the largest relative difference and whether it
/// is within tolerance. f32: the whole pass against the dense-reference
/// lowering of the same pruned model. int8: each op against its
/// dequantise-then-f32 reference (`Op::run_reference`) on the
/// activations the integer path itself produced; chained end to end, a
/// one-ulp difference can flip a later layer's requantisation rounding,
/// so the whole-pass difference against `run_int8_reference` is
/// recorded (second value) but not gated.
fn check_references(
    w: &Workload,
    s: &Setup,
    graph: &ExecutableGraph,
    pool: &[Tensor],
    refs: &References,
) -> (f64, f64, bool) {
    let checked = &pool[..REF_INPUTS];
    match w.precision {
        Precision::Int8 => {
            let ops = graph.int8_ops().expect("int8 lowering compiled");
            let mut per_op = 0.0f64;
            for x in checked {
                let mut cur = x.clone();
                for op in ops {
                    let y = op.run(&cur);
                    per_op = per_op.max(max_rel_diff(&y, &op.run_reference(&cur)));
                    cur = y;
                }
            }
            let whole = checked
                .iter()
                .zip(refs.outputs())
                .map(|(x, y)| max_rel_diff(y, &graph.run_int8_reference(x)))
                .fold(0.0, f64::max);
            (per_op, whole, per_op <= INT8_REF_TOL)
        }
        Precision::F32 => {
            let dense = compile(&s.model, &s.sets, &CompileOptions::dense_reference())
                .expect("dense reference lowers")
                .0;
            let worst = checked
                .iter()
                .zip(refs.outputs())
                .map(|(x, y)| max_rel_diff(y, &dense.run(x)))
                .fold(0.0, f64::max);
            (worst, worst, worst <= F32_REF_TOL)
        }
    }
}

fn run_load(
    w: &Workload,
    server: &Server,
    pool: &[Tensor],
    refs: &References,
    window: Duration,
    spans: Option<&mut Spans>,
) -> PhaseResult {
    let before = cpu_times();
    let mut phase = load::open_loop(server, pool, refs, w.rate, WARMUP, window, spans);
    if let (Some((total0, steal0)), Some((total1, steal1))) = (before, cpu_times()) {
        phase.host_steal_frac = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    }
    phase
}

/// `(total, steal)` CPU ticks of the whole machine from `/proc/stat`:
/// steal is the time the host ran something else while this machine's
/// vCPUs were runnable, the main source of run-to-run noise on a shared
/// host.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind the value.
    samples: usize,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The git revision of the checkout, read from `.git` without running
/// git; `"unknown"` outside a repository.
fn git_revision() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(r)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn environment(seed: u64, engine_threads: usize, shards: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1).map(|m| m.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\":{},\"cpu\":{},\"simd\":{},\"force_scalar\":{},\"git\":{},\"engine_threads\":{},\"shards\":{},\"seed\":{}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&cpu),
        json_str(pcnn_tensor::simd::active().label()),
        std::env::var_os("PCNN_FORCE_SCALAR").is_some(),
        json_str(&git_revision()),
        engine_threads,
        shards,
        seed,
    )
}

fn tally_json(t: &Tally) -> String {
    format!(
        "{{\"sent\":{},\"ok\":{},\"rejected\":{},\"failed\":{},\"expired\":{},\"mismatches\":{}}}",
        t.sent, t.ok, t.rejected, t.failed, t.expired, t.mismatches
    )
}

fn phase_json(p: &PhaseResult) -> String {
    let q = |v: &[u64], q: f64| nearest_rank(v, q).map_or("null".into(), |x| ms(x).to_string());
    let lat = p.latencies_ns();
    let opt_ms = |v: Option<u64>| v.map_or("null".into(), |x| ms(x).to_string());
    format!(
        "{{\"window_s\":{},\"throughput_rps\":{},\"latency_samples\":{},\"latency_ms\":{{\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}},\"gen_lag_samples\":{},\"gen_lag_ms_p50\":{},\"gen_lag_ms_p99\":{},\"host_steal_frac\":{},\"tally\":{}}}",
        p.window.as_secs_f64(),
        p.throughput_rps(),
        lat.len(),
        q(&lat, 0.0),
        q(&lat, 0.5),
        q(&lat, 0.9),
        opt_ms(tail_quantile(&lat, 0.99)),
        q(&lat, 1.0),
        p.gen_lag_ns.len(),
        q(&p.gen_lag_ns, 0.5),
        q(&p.gen_lag_ns, 0.99),
        p.host_steal_frac,
        tally_json(&p.tally),
    )
}

/// Everything one run produced, before it is printed.
struct Report {
    metrics: Vec<Metric>,
    tally: Tally,
    correct: bool,
    record: String,
}

/// The generator's p99 lateness in ms, or an error when the run is
/// invalid: a generator whose median request went out more than one
/// arrival period late did not offer its schedule. The p99 is reported,
/// not gated: on a shared host it mostly measures scheduler stalls,
/// which the latency figures already carry.
fn gen_lag_p99_ms(w: &Workload, p: &PhaseResult) -> Result<f64, String> {
    let (Some(p50), Some(p99)) = (
        nearest_rank(&p.gen_lag_ns, 0.5),
        nearest_rank(&p.gen_lag_ns, 0.99),
    ) else {
        return Err("the generator submitted nothing in the measured window".into());
    };
    let period_ms = 1e3 / w.rate;
    if ms(p50) > period_ms {
        return Err(format!(
            "invalid run: the generator's median request went out {:.3} ms late, more than one {period_ms} ms period",
            ms(p50)
        ));
    }
    Ok(ms(p99))
}

fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let pool = input_pool(seed);
    let mut span_store = Spans::new();
    let mut spans = trace.then_some(&mut span_store);

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut tally = Tally::default();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let s = set_up(w, seed, &pool, &mut spans);
        setups.push(s.times);
        if rep + 1 < SETUP_REPS {
            let graph = s.server.engine().shared_graph();
            let refs = References::compute(&graph, &pool[..1], w.precision);
            tally.wait(&refs, 0, s.first);
            s.server.shutdown(ShutdownMode::Drain);
        } else {
            kept = Some(s);
        }
    }
    let setup = kept.expect("at least one set-up");
    let graph = setup.server.engine().shared_graph();
    let engine_threads = setup.server.engine().threads();
    let refs = References::compute(&graph, &pool, w.precision);
    let (ref_diff, whole_diff, ref_ok) = check_references(w, &setup, &graph, &pool, &refs);
    tally.wait(&refs, 0, setup.first);
    let env = environment(seed, engine_threads, setup.server.shards());
    let med = |f: fn(&SetupTimes) -> f64| median_f64(&setups.iter().map(f).collect::<Vec<_>>());
    let setup_json = format!(
        "[{}]",
        setups
            .iter()
            .map(|t| format!(
                "{{\"model_s\":{},\"prune_s\":{},\"compile_s\":{},\"start_s\":{},\"setup_s\":{}}}",
                t.model, t.prune, t.compile, t.start, t.total
            ))
            .collect::<Vec<_>>()
            .join(",")
    );
    let window = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });

    if !trace {
        let server = setup.server;
        let phase = run_load(w, &server, &pool, &refs, window, None);
        let rss = peak_rss_mb();
        drop(server);
        gen_lag_p99_ms(w, &phase)?;
        tally.add(&phase.tally);
        let lat = phase.latencies_ns();
        let n = lat.len();
        let Some(p50) = nearest_rank(&lat, 0.5) else {
            return Err("no request completed in the measured window".into());
        };
        let metrics = vec![
            Metric::new("throughput_rps", phase.throughput_rps(), "1/s", n),
            Metric::new("latency_p50_ms", ms(p50), "ms", n),
            Metric::new(
                "ok_frac",
                1.0 - tally.errors() as f64 / tally.sent as f64,
                "frac",
                tally.sent as usize,
            ),
            Metric::new("setup_s", med(|t| t.total), "s", setups.len()),
            Metric::new("peak_rss_mb", rss, "MB", 1),
        ];
        let record = format!(
            "{{\"workload\":\"{}\",\"trace\":0,\"env\":{env},\"reference_max_rel_diff\":{ref_diff},\"whole_pass_max_rel_diff\":{whole_diff},\"setups\":{setup_json},\"phase\":{},\"error_frac\":{},\"tally\":{}}}",
            w.name,
            phase_json(&phase),
            tally.errors() as f64 / tally.sent as f64,
            tally_json(&tally),
        );
        return Ok(Report {
            metrics,
            tally,
            correct: ref_ok && tally.errors() == 0,
            record,
        });
    }

    // Traced run. Serve phase 1: the workload's own configuration,
    // untraced, for the program's counters and the overhead baseline.
    let server = setup.server;
    let untraced = run_load(w, &server, &pool, &refs, window, None);
    let snap = server.metrics().snapshot();
    drop(server);
    let gen_lag = gen_lag_p99_ms(w, &untraced)?;
    tally.add(&untraced.tally);

    // Serve phase 2: every request traced by the program's flight
    // recorder, every submit wrapped in a benchmark span.
    let traced_server = Server::start(
        Engine::from_shared(graph.clone(), engine_threads),
        ServeConfig {
            trace: TraceConfig {
                sample_every: 1,
                ring_capacity: 4096,
            },
            ..serve_config(w)
        },
    );
    let traced = run_load(
        w,
        &traced_server,
        &pool,
        &refs,
        window,
        spans.as_deref_mut(),
    );
    let flight = traced_server.flight_recorder().spans();
    drop(traced_server);
    gen_lag_p99_ms(w, &traced)?;
    tally.add(&traced.tally);
    let attribution = AttributionReport::analyze(&flight);
    let overall = attribution.windows.last().expect("overall window");
    let seg_ms = |name: &str| {
        overall
            .segments
            .iter()
            .find(|s| s.name == name)
            .map_or(f64::NAN, |s| ms(s.p50_ns))
    };

    // Engine-only phase: coalesced passes at batch 1 and 8.
    let span_store = spans.expect("traced run records spans");
    let engine = Engine::from_shared(graph.clone(), engine_threads);
    let b1 = layers::engine_passes(
        &engine,
        w.precision,
        &pool,
        &refs,
        1,
        LAYER_BUDGET,
        span_store,
        &mut tally,
    );
    let b8 = layers::engine_passes(
        &engine,
        w.precision,
        &pool,
        &refs,
        8,
        LAYER_BUDGET,
        span_store,
        &mut tally,
    );
    drop(engine);
    let conv = layers::conv_profile(
        graph.clone(),
        engine_threads,
        w.precision,
        &pool,
        LAYER_BUDGET,
    );
    let x8 = layers::stack(&pool, 8);
    let walk = layers::op_walk(&graph, w.precision, &x8, LAYER_BUDGET, span_store);
    let walk_gap = (walk.walk_ms - walk.pass_ms).abs() / walk.pass_ms;

    let submit_us = span_store.durations("serve.submit");
    let us = |q: f64| nearest_rank(&submit_us, q).map_or(f64::NAN, |v| v as f64 / 1e3);
    let n_submit = submit_us.len();
    let median_ms = |v: &[u64]| nearest_rank(v, 0.5).map_or(f64::NAN, ms);
    let client_lat = untraced.latencies_ns();
    let client_tail = |q: f64| tail_quantile(&client_lat, q).map_or(f64::NAN, ms);
    let spans_out = write_spans(w.name, span_store);
    let metrics = vec![
        Metric::new("setup.model_s", med(|t| t.model), "s", setups.len()),
        Metric::new("setup.prune_s", med(|t| t.prune), "s", setups.len()),
        Metric::new("setup.compile_s", med(|t| t.compile), "s", setups.len()),
        Metric::new("setup.start_s", med(|t| t.start), "s", setups.len()),
        Metric::new("serve.submit_us.p50", us(0.5), "us", n_submit),
        Metric::new(
            "serve.submit_us.p99",
            tail_quantile(&submit_us, 0.99).map_or(f64::NAN, |v| v as f64 / 1e3),
            "us",
            n_submit,
        ),
        Metric::new(
            "serve.mean_batch",
            snap.mean_batch,
            "count",
            snap.batches as usize,
        ),
        Metric::new("serve.batches", snap.batches as f64, "count", 1),
        Metric::new(
            "serve.queue_wait_ms.mean",
            snap.queue_wait_mean.as_secs_f64() * 1e3,
            "ms",
            snap.completed as usize,
        ),
        Metric::new(
            "serve.seg.queue_wait_ms",
            seg_ms("queue_wait"),
            "ms",
            overall.spans,
        ),
        Metric::new(
            "serve.seg.coalesce_ms",
            seg_ms("coalesce"),
            "ms",
            overall.spans,
        ),
        Metric::new(
            "serve.seg.dispatch_wait_ms",
            seg_ms("dispatch_wait"),
            "ms",
            overall.spans,
        ),
        Metric::new(
            "serve.seg.execute_ms",
            seg_ms("execute"),
            "ms",
            overall.spans,
        ),
        Metric::new(
            "serve.seg.completion_notify_ms",
            seg_ms("completion_notify"),
            "ms",
            overall.spans,
        ),
        Metric::new("serve.rejected", snap.rejected as f64, "count", 1),
        Metric::new("serve.failed", snap.failed as f64, "count", 1),
        Metric::new("serve.expired", snap.expired as f64, "count", 1),
        Metric::new("serve.retries", snap.retries as f64, "count", 1),
        Metric::new(
            "check.mismatches",
            tally.mismatches as f64,
            "count",
            tally.sent as usize,
        ),
        Metric::new("engine.pass_ms.b1", median_ms(&b1), "ms", b1.len()),
        Metric::new("engine.pass_ms.b8", median_ms(&b8), "ms", b8.len()),
        Metric::new("runtime.pattern_conv_ms", walk.kind_ms_per_img[0], "ms", 8),
        Metric::new("runtime.dense_ms", walk.kind_ms_per_img[1], "ms", 8),
        Metric::new("runtime.other_ms", walk.kind_ms_per_img[2], "ms", 8),
        Metric::new("runtime.walk_gap_frac", walk_gap, "frac", 1),
        Metric::new("runtime.macs_per_img", walk.macs_per_img, "count", 1),
        Metric::new("runtime.bytes_per_img", walk.bytes_per_img, "bytes", 1),
        Metric::new(
            "runtime.gmacs",
            walk.macs_per_img / (walk.kind_ms_per_img[0] * 1e-3) / 1e9,
            "GMAC/s",
            1,
        ),
        Metric::new("conv.pad_frac", conv.pad_frac, "frac", 1),
        Metric::new("conv.kernel_frac", conv.kernel_frac, "frac", 1),
        Metric::new("conv.epilogue_frac", conv.epilogue_frac, "frac", 1),
        Metric::new(
            "conv.padded_bytes_per_img",
            conv.padded_bytes_per_img,
            "bytes",
            1,
        ),
        Metric::new(
            "client.latency_p90_ms",
            client_tail(0.9),
            "ms",
            client_lat.len(),
        ),
        Metric::new(
            "client.latency_p99_ms",
            client_tail(0.99),
            "ms",
            client_lat.len(),
        ),
        Metric::new(
            "client.gen_lag_ms.p99",
            gen_lag,
            "ms",
            untraced.gen_lag_ns.len(),
        ),
        Metric::new(
            "trace.overhead_frac",
            median_ms(&traced.latencies_ns()) / median_ms(&client_lat) - 1.0,
            "frac",
            2,
        ),
    ];
    let record = format!(
        "{{\"workload\":\"{}\",\"trace\":1,\"env\":{env},\"reference_max_rel_diff\":{ref_diff},\"whole_pass_max_rel_diff\":{whole_diff},\"setups\":{setup_json},\"untraced\":{},\"traced\":{},\"walk_ms\":{},\"pass_ms\":{},\"serve_snapshot\":{},\"attribution\":{},\"spans_file\":{},\"tally\":{}}}",
        w.name,
        phase_json(&untraced),
        phase_json(&traced),
        walk.walk_ms,
        walk.pass_ms,
        snap.to_json(),
        attribution.to_json(),
        json_str(&spans_out),
        tally_json(&tally),
    );
    Ok(Report {
        metrics,
        tally,
        correct: ref_ok && tally.errors() == 0,
        record,
    })
}

/// Writes the traced run's spans to `perfbench/out/<workload>.spans.jsonl`
/// and returns the path (or the error, which does not fail the run).
fn write_spans(workload: &str, spans: &Spans) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{workload}.spans.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_jsonl())) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("not written: {e}"),
    }
}

fn print_report(r: &Report) {
    for m in &r.metrics {
        println!(
            "{:<32} {:>14.6} {:<7} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("record {}", r.record);
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_number(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.tally.sent.max(1),
        r.tally.errors(),
        metrics.join(", ")
    );
}

/// JSON has no NaN: a metric that could not be measured is `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Runs every workload in a child process of its own (so each reports
/// its own peak RSS) and prints their results, then one combined line.
fn run_all(seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut merged = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for w in &WORKLOADS {
        println!("== {} ==", w.name);
        let out = std::process::Command::new(&exe)
            .args([
                "--workload",
                w.name,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .output()
            .expect("child benchmark runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        if !out.status.success() {
            eprintln!("workload {} failed: {}", w.name, out.status);
            return ExitCode::FAILURE;
        }
        let last = stdout.lines().last().unwrap_or_default();
        correct &= last.contains("\"correct\": true");
        let field = |key: &str| -> u64 {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|r| r.split(',').next()?.trim().parse().ok())
                .unwrap_or(0)
        };
        attempted += field("attempted");
        failed += field("failed");
        let metrics = last
            .split("\"metrics\": {")
            .nth(1)
            .and_then(|m| m.strip_suffix("}}"))
            .unwrap_or_default();
        merged.extend(
            metrics
                .split(", ")
                .map(|entry| format!("\"{}.{}", w.name, &entry[1..])),
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        merged.join(", ")
    );
    ExitCode::SUCCESS
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |key: &str| {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        arg("--workload"),
        arg("--seed").and_then(|s| s.parse::<u64>().ok()),
        arg("--seconds")
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|s| *s > 0.0),
        arg("--trace").and_then(|t| match t.as_str() {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    if workload == "all" {
        return run_all(seed, seconds, trace);
    }
    let Some(w) = WORKLOADS.iter().find(|w| w.name == workload) else {
        eprintln!("unknown workload {workload}\n{}", usage());
        return ExitCode::from(2);
    };
    match run(w, seed, seconds, trace) {
        Ok(report) => {
            print_report(&report);
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{}: {msg}", w.name);
            ExitCode::from(3)
        }
    }
}
