//! The engine-only and runtime-only phases of a traced run: spans
//! around `Engine::infer_coalesced_at`, around each `Op::run` of a
//! walk over the lowered graph, and the engine's own phase profiler.

use crate::check::{References, Tally};
use crate::stats::{median_f64, self_times, Spans};
use pcnn_runtime::engine::BatchScratch;
use pcnn_runtime::ops::Op;
use pcnn_runtime::{Engine, ExecutableGraph, Precision};
use pcnn_tensor::Tensor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stacks the first `n` pool entries into one NCHW batch.
pub fn stack(pool: &[Tensor], n: usize) -> Tensor {
    let mut dims = pool[0].shape().to_vec();
    dims[0] = n;
    let data: Vec<f32> = pool[..n]
        .iter()
        .flat_map(|x| x.as_slice().to_vec())
        .collect();
    Tensor::from_vec(data, &dims)
}

/// Times `Engine::infer_coalesced_at` passes of `batch` pool requests
/// for `budget` (at least 3 passes), checking every output. Returns
/// each pass's duration in nanoseconds.
#[allow(clippy::too_many_arguments)]
pub fn engine_passes(
    engine: &Engine,
    precision: Precision,
    pool: &[Tensor],
    refs: &References,
    batch: usize,
    budget: Duration,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Vec<u64> {
    let name = if batch == 1 {
        "engine.pass.b1"
    } else {
        "engine.pass.b8"
    };
    let mut scratch = BatchScratch::new();
    let mut durations = Vec::new();
    let start = Instant::now();
    let mut next = 0usize;
    while durations.len() < 3 || start.elapsed() < budget {
        let idx: Vec<usize> = (next..next + batch).map(|i| i % pool.len()).collect();
        next += batch;
        let inputs: Vec<Tensor> = idx.iter().map(|&i| pool[i].clone()).collect();
        let t0 = Instant::now();
        let outputs = engine.infer_coalesced_at(precision, inputs, &mut scratch);
        let t1 = Instant::now();
        let s = spans.record(name, t0, t1, None, 0);
        durations.push(spans.spans[s].dur_ns());
        for (&i, y) in idx.iter().zip(outputs) {
            tally.resolve(refs, i, Ok(y));
        }
    }
    durations
}

/// The engine profiler's view of a run of batch-8 passes.
pub struct ConvProfile {
    pub pad_frac: f64,
    pub kernel_frac: f64,
    pub epilogue_frac: f64,
    pub padded_bytes_per_img: f64,
}

/// Runs batch-8 passes on a profiling engine for `budget` and reads
/// `exec_profile().phase_split` and the per-layer padded bytes.
pub fn conv_profile(
    graph: Arc<ExecutableGraph>,
    threads: usize,
    precision: Precision,
    pool: &[Tensor],
    budget: Duration,
) -> ConvProfile {
    let engine = Engine::from_shared(graph, threads);
    engine.enable_profiling();
    let mut scratch = BatchScratch::new();
    let start = Instant::now();
    let mut passes = 0usize;
    while passes < 3 || start.elapsed() < budget {
        let inputs: Vec<Tensor> = (0..8)
            .map(|i| pool[(passes * 8 + i) % pool.len()].clone())
            .collect();
        engine.infer_coalesced_at(precision, inputs, &mut scratch);
        passes += 1;
    }
    let profile = engine.exec_profile();
    let (pad_frac, kernel_frac, epilogue_frac) = profile
        .phase_split(precision)
        .map_or((0.0, 0.0, 0.0), |s| s.fractions());
    let padded_bytes_per_img = profile
        .precisions
        .iter()
        .filter(|p| p.precision == precision.label())
        .flat_map(|p| p.layers.iter())
        .filter(|l| l.images > 0)
        .map(|l| l.padded_bytes as f64 / l.images as f64)
        .sum();
    ConvProfile {
        pad_frac,
        kernel_frac,
        epilogue_frac,
        padded_bytes_per_img,
    }
}

/// Op kinds the runtime breakdown groups self time by.
const KINDS: [&str; 3] = ["runtime.pattern_conv", "runtime.dense", "runtime.other"];

fn kind_of(op: &Op) -> &'static str {
    match op {
        Op::PatternConv(_) | Op::QuantConv(_) => KINDS[0],
        Op::DenseConv { .. } | Op::Linear { .. } => KINDS[1],
        _ => KINDS[2],
    }
}

/// Result of walking the lowered graph op by op at batch 8.
pub struct OpWalk {
    /// Median per-image self time of each kind in [`KINDS`] order, ms.
    pub kind_ms_per_img: [f64; 3],
    /// Median whole `ExecutableGraph::run_with` pass on the same input
    /// and thread, ms (for the whole batch).
    pub pass_ms: f64,
    /// Median of the per-walk sum of op self times, ms (whole batch).
    pub walk_ms: f64,
    /// Computed pattern-conv multiply-accumulates per image.
    pub macs_per_img: f64,
    /// Computed pattern-conv bytes per image: f32 input and output
    /// activations, plus stored non-zero weights (4 bytes each at f32,
    /// 1 at int8) and one 2-byte pattern code per kept kernel, the
    /// weights shared by the batch.
    pub bytes_per_img: f64,
}

/// Walks `ops` on the calling thread like `run_ops`, one span per op.
fn walk(ops: &[Op], x: &Tensor, spans: &mut Spans, parent: usize) -> Tensor {
    let mut cur: Option<Tensor> = None;
    for op in ops {
        let input = cur.as_ref().unwrap_or(x);
        let s = spans.begin(kind_of(op), Some(parent), 0);
        let y = op.run(input);
        spans.end(s);
        cur = Some(y);
    }
    cur.unwrap_or_else(|| x.clone())
}

/// Computed work of the pattern convolutions for one batch pass:
/// `(macs_per_img, bytes_per_img)`.
fn pattern_work(ops: &[Op], x: &Tensor) -> (f64, f64) {
    let batch = x.shape()[0] as f64;
    let (mut macs, mut bytes) = (0.0, 0.0);
    let mut cur = x.clone();
    for op in ops {
        let y = op.run(&cur);
        let geometry = match op {
            Op::PatternConv(c) => Some((
                c.shape().in_c * c.shape().out_c - c.skipped_kernels(),
                c.spm().nonzeros_per_kernel(),
                4.0,
            )),
            Op::QuantConv(c) => Some((
                c.shape().in_c * c.shape().out_c - c.skipped_kernels(),
                c.nonzeros_per_kernel(),
                1.0,
            )),
            _ => None,
        };
        if let Some((kept, n, weight_bytes)) = geometry {
            let out_plane = (y.shape()[2] * y.shape()[3]) as f64;
            macs += (kept * n) as f64 * out_plane;
            let act = (cur.len() + y.len()) as f64 * 4.0 / batch;
            let weights = kept as f64 * (n as f64 * weight_bytes + 2.0) / batch;
            bytes += act + weights;
        }
        cur = y;
    }
    (macs, bytes)
}

/// Alternates whole `run_with` passes and op-by-op walks over the same
/// batch-8 input for `budget` (at least 5 of each).
pub fn op_walk(
    graph: &ExecutableGraph,
    precision: Precision,
    x8: &Tensor,
    budget: Duration,
    spans: &mut Spans,
) -> OpWalk {
    let ops = match precision {
        Precision::F32 => graph.ops(),
        Precision::Int8 => graph.int8_ops().expect("int8 lowering compiled"),
    };
    let batch = x8.shape()[0] as f64;
    let first = spans.spans.len();
    let mut walks = Vec::new();
    let mut passes = Vec::new();
    let start = Instant::now();
    while walks.len() < 5 || start.elapsed() < budget {
        let p = spans.begin("runtime.pass", None, 0);
        std::hint::black_box(graph.run_with(x8, precision));
        spans.end(p);
        passes.push(spans.spans[p].dur_ns() as f64 / 1e6);
        let w = spans.begin("runtime.walk", None, 0);
        std::hint::black_box(walk(ops, x8, spans, w));
        spans.end(w);
        walks.push(w);
    }
    let selfs = self_times(&spans.spans);
    let mut per_kind: [Vec<f64>; 3] = Default::default();
    let mut walk_sums = Vec::new();
    for &w in &walks {
        let mut sums = [0u64; 3];
        for (i, s) in spans.spans.iter().enumerate().skip(first) {
            if s.parent == Some(w) {
                let k = KINDS
                    .iter()
                    .position(|&n| n == s.name)
                    .expect("op span kind");
                sums[k] += selfs[i];
            }
        }
        for (k, v) in sums.iter().enumerate() {
            per_kind[k].push(*v as f64 / 1e6);
        }
        walk_sums.push(sums.iter().sum::<u64>() as f64 / 1e6);
    }
    let (macs_per_img, bytes_per_img) = pattern_work(ops, x8);
    OpWalk {
        kind_ms_per_img: [0, 1, 2].map(|k| median_f64(&per_kind[k]) / batch),
        pass_ms: median_f64(&passes),
        walk_ms: median_f64(&walk_sums),
        macs_per_img,
        bytes_per_img,
    }
}
