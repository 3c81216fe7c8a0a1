//! # `pcnn-serve` — async serving front-end for the sparse inference engine
//!
//! `pcnn_runtime::Engine` is a synchronous library call: hand it a
//! vector of tensors, get a vector of tensors back. Real traffic is not
//! shaped like that — requests arrive one at a time from many clients,
//! and what matters is tail latency under load, admission control when
//! the load exceeds capacity, and the throughput won by batching
//! requests that happen to arrive together. This crate is that layer:
//!
//! ```text
//!                                      ┌─► batcher 0 ──► Engine shard 0
//!  clients ── submit() ──► BoundedQueue┼─► batcher 1 ──► Engine shard 1
//!     ▲                    (capacity,  └─► batcher N ──► Engine shard N
//!     │                     backpressure)   (max_batch,    (coalesced
//!     │                                      max_wait)      batch pass)
//!     └────────── Ticket::wait() ◄── fulfil ◄──┘
//! ```
//!
//! * **Admission control** ([`queue`]): a bounded two-priority MPMC
//!   queue. A full queue rejects at submission ([`ServeError::QueueFull`])
//!   — latency stays bounded because the backlog is.
//! * **Sharded dispatch** ([`ServeConfig::shards`]): the engine's worker
//!   budget partitions into independent engine shards (one compiled
//!   graph, separate worker pools), each drained by its own batcher
//!   thread popping the **same** queue — admission, priorities, and
//!   backpressure are unchanged while dispatch parallelism multiplies.
//! * **Dynamic micro-batching** ([`batcher`]): while the shard's engine
//!   is busy, requests queued within a `max_wait` window of the batch's
//!   first admission coalesce, up to `max_batch`, into one stacked
//!   engine pass (an idle engine takes what is queued at once), which
//!   amortises padded-plane construction, offset tables, and per-op
//!   dispatch across the batch ([`pcnn_runtime::PatternConv::forward_batch`]).
//! * **Handle-based async API** ([`ticket`]): [`Server::submit`] returns
//!   a [`Ticket`] immediately; redeem with [`Ticket::wait`],
//!   [`Ticket::try_wait`], or [`Ticket::wait_timeout`]. Threads and
//!   condvars only — no async runtime, consistent with the
//!   dependency-free workspace.
//! * **Latency telemetry** ([`metrics`]): lock-free counters and
//!   log-bucketed histograms, kept per shard and merged on read
//!   ([`metrics::LogHistogram::merge_from`]), giving p50/p95/p99 of
//!   queue wait and end-to-end latency plus throughput — absorbing the
//!   engine's bulk `ServeStats` view.
//! * **Windowed health** ([`window`], [`health`], [`attribution`]):
//!   rolling 1 s / 10 s / 60 s rates and latency quantiles over the
//!   same wait-free primitives, an SLO burn-rate health engine
//!   ([`Server::health`], with opt-in low-priority shedding while
//!   `Overloaded`), and span-driven latency attribution that splits
//!   end-to-end time into queue / coalesce / dispatch / execute /
//!   notify segments.
//! * **Precision selection** ([`ServeConfig::precision`],
//!   [`Server::submit_with`]): when the engine's graph carries the int8
//!   lowering (`pcnn_runtime::compile::compile_quant`), the server
//!   routes traffic to either datapath — per server (the config
//!   default) or per request. Batches stay precision-uniform, and
//!   telemetry reports a per-precision breakdown
//!   ([`TelemetrySnapshot`]'s `precisions`).
//! * **Graceful shutdown** ([`shutdown`]): close admissions, drain the
//!   queue (or abort it), join every batcher, report.
//! * **Fault tolerance** ([`supervisor`], [`faults`]): per-request
//!   deadlines ([`ServeConfig::default_deadline`],
//!   [`Server::submit_with_deadline`]) and client-side cancellation
//!   ([`Ticket::cancel`]); transient engine faults retried on a
//!   different shard under a token-bucket budget ([`RetryPolicy`]); a
//!   supervisor thread that detects panicked or wedged batchers by
//!   heartbeat, fails their in-flight tickets with attribution
//!   ([`ServeError::ShardFailed`]), respawns the engine pool from the
//!   shared graph, and trips a per-shard circuit breaker on crash
//!   loops ([`SupervisorConfig`], [`BreakerState`]); plus a
//!   deterministic fault-injection plan ([`FaultPlan`]) that drives the
//!   chaos tests without any real nondeterminism.
//!
//! ## Quickstart
//!
//! ```
//! use pcnn_nn::models;
//! use pcnn_runtime::compile::compile_dense;
//! use pcnn_runtime::Engine;
//! use pcnn_serve::{ServeConfig, Server};
//! use pcnn_tensor::Tensor;
//!
//! let engine = Engine::new(compile_dense(&models::tiny_cnn(4, 4, 1)), 2);
//! let server = Server::start(engine, ServeConfig::default());
//! let ticket = server.submit(Tensor::ones(&[1, 3, 8, 8])).unwrap();
//! let out = ticket.wait().unwrap();
//! assert_eq!(out.shape(), &[1, 4]);
//! println!("{}", server.metrics().snapshot());
//! let report = server.shutdown(pcnn_serve::ShutdownMode::Drain);
//! assert_eq!(report.completed, 1);
//! ```

#![forbid(unsafe_code)]

pub mod attribution;
pub mod batcher;
pub mod events;
pub mod faults;
pub mod health;
pub mod incident;
pub mod metrics;
pub mod queue;
pub mod shutdown;
pub mod supervisor;
pub mod ticket;
pub mod trace;
pub mod window;

pub use attribution::AttributionReport;
pub use events::{EventCode, EventConfig, EventJournal, RecordedEvent, Severity};
pub use faults::FaultPlan;
pub use health::{HealthReport, HealthState, SloConfig};
pub use incident::{DiagnosticSnapshot, IncidentRecorder, IncidentTrigger};
pub use metrics::{PrecisionSnapshot, ServerMetrics, ShardSnapshot, TelemetrySnapshot};
pub use pcnn_runtime::Precision;
pub use queue::Priority;
pub use shutdown::{DrainPrecision, DrainReport, ShutdownMode};
pub use supervisor::{BreakerState, RetryPolicy, ShardStatus, SupervisorConfig};
pub use ticket::{ServeError, Ticket};
pub use trace::{FlightRecorder, RecordedSpan, SpanOutcome, TraceConfig};
pub use window::{WindowSnapshot, WindowStats, WINDOWS};

use batcher::{BatcherContext, Request, RetryCtx};
use pcnn_runtime::{Engine, ExecProfiler, ExecutableGraph};
use pcnn_sync::atomic::{AtomicBool, Ordering};
use pcnn_sync::{thread, Arc, Mutex};
use queue::{BoundedQueue, PushError};
use std::time::{Duration, Instant};
use supervisor::{ShardSlot, SpawnFn, Supervisor};
use ticket::TicketCell;
use trace::ActiveSpan;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission limit of the request queue. Requests beyond it are
    /// rejected with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Most requests coalesced into one engine pass.
    pub max_batch: usize,
    /// Longest a request's batch is held open for coalescing while the
    /// shard's engine is busy, measured from that request's
    /// **admission**. An idle engine (no other batch of the shard in
    /// flight) with an empty queue never waits: the batch dispatches at
    /// once. Zero means "dispatch whatever is queued".
    pub max_wait: Duration,
    /// When set, `submit` rejects inputs whose `C × H × W` differs
    /// (admission-time shape checking). When `None`, any single-image
    /// NCHW input is admitted and the batchers split batches on shape
    /// changes.
    pub input_chw: Option<[usize; 3]>,
    /// Engine shards. The engine's worker budget is partitioned into
    /// this many independent engines (shared compiled graph, separate
    /// worker pools), each driven by its own batcher thread popping the
    /// same queue. `1` (default) reproduces the single-dispatcher
    /// topology; `0` means auto — one shard per available core, capped
    /// at the engine's worker count so the budget truly partitions. An
    /// **explicit** count is honoured even past the engine's workers:
    /// every shard owns at least one worker, so `shards > threads`
    /// deliberately grows the total thread count (oversubscription —
    /// useful for I/O-heavy callbacks, a tail-latency hazard otherwise).
    pub shards: usize,
    /// The precision requests execute at when `submit` /
    /// `submit_with_priority` don't say otherwise (per-server
    /// selection). Per-request selection is [`Server::submit_with`];
    /// batches stay precision-uniform, and telemetry is labeled by
    /// precision ([`TelemetrySnapshot`]'s `precisions`).
    /// [`Precision::Int8`] requires an engine whose graph carries the
    /// quantised lowering (`pcnn_runtime::compile::compile_quant`).
    pub precision: Precision,
    /// Request-lifecycle tracing knobs: span sampling rate and the
    /// per-shard flight-recorder ring capacity ([`TraceConfig`]).
    /// Request IDs and trace counters are always on; only span capture
    /// is sampled.
    pub trace: TraceConfig,
    /// Rolling-window telemetry (1 s / 10 s / 60 s rates and latency
    /// quantiles, the `pcnn_window_*` series, and the health engine's
    /// input signal). On by default; turning it off removes the window
    /// rings entirely and the health engine reports `Healthy` with no
    /// signal.
    pub windowed: bool,
    /// The service-level objective the built-in health engine grades
    /// live traffic against ([`SloConfig`]) — latency target and
    /// percentile, availability target, burn-rate windows, and the
    /// opt-in low-priority shedding hook.
    pub slo: SloConfig,
    /// The structured event journal's knobs ([`EventConfig`]): ring
    /// retention and per-code rate limiting for the control-plane
    /// forensics feed (queue-full, shed, faults, health transitions,
    /// drains).
    pub events: EventConfig,
    /// Deadline stamped on every request that [`Server::submit`] /
    /// [`Server::submit_with`] admits (relative to admission). `None`
    /// (default) means no deadline unless the caller sets one via
    /// [`Server::submit_with_deadline`]. An expired request is dropped
    /// at dequeue — or after coalescing, the last gate before the
    /// engine — with [`ServeError::DeadlineExceeded`], counted in
    /// `pcnn_deadline_exceeded_total` and the windowed error rates.
    pub default_deadline: Option<Duration>,
    /// Retry policy for transient engine faults ([`RetryPolicy`]): a
    /// faulted request re-queues at high priority marked to avoid the
    /// shard that failed it, gated by the per-shard token-bucket
    /// budget and the health state (no retries while `Overloaded`).
    /// The default (`max_attempts: 1`) disables retries.
    pub retry: RetryPolicy,
    /// Shard supervision knobs ([`SupervisorConfig`]): heartbeat stall
    /// detection, restart-rate circuit breaking, half-open probing.
    /// Enabled by default.
    pub supervision: SupervisorConfig,
    /// The armed fault-injection plan ([`FaultPlan`]) — deterministic
    /// chaos for tests and drills. `None` (default) injects nothing
    /// and costs nothing on the hot path beyond one `Option` check.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    /// Capacity 256, batches of up to 8, 2 ms coalescing window while
    /// the engine is busy, no shape pinning, one shard, f32 execution.
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 256,
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            input_chw: None,
            shards: 1,
            precision: Precision::F32,
            trace: TraceConfig::default(),
            windowed: true,
            slo: SloConfig::default(),
            events: EventConfig::default(),
            default_deadline: None,
            retry: RetryPolicy::default(),
            supervision: SupervisorConfig::default(),
            faults: None,
        }
    }
}

impl ServeConfig {
    /// The effective configuration as one JSON object — embedded in
    /// every [`DiagnosticSnapshot`] so an incident records the exact
    /// knobs the server ran with.
    pub fn to_json(&self) -> String {
        let chw = match self.input_chw {
            Some([c, h, w]) => format!("[{c},{h},{w}]"),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"queue_capacity\":{},\"max_batch\":{},\"max_wait_ms\":{:.3},",
                "\"input_chw\":{},\"shards\":{},\"precision\":\"{}\",",
                "\"trace\":{{\"sample_every\":{},\"ring_capacity\":{}}},",
                "\"windowed\":{},",
                "\"slo\":{{\"latency_target_ms\":{:.3},\"latency_percentile\":{},",
                "\"availability_target\":{},\"fast_window_s\":{},\"slow_window_s\":{},",
                "\"degraded_burn\":{},\"overloaded_burn\":{},\"min_samples\":{},",
                "\"shed_low_priority\":{},\"eval_interval_ms\":{:.3}}},",
                "\"events\":{{\"enabled\":{},\"ring_capacity\":{},",
                "\"rate_window_ms\":{:.3},\"rate_burst\":{}}},",
                "\"default_deadline_ms\":{},",
                "\"retry\":{{\"max_attempts\":{},\"backoff_ms\":{:.3},",
                "\"budget_ratio\":{},\"budget_burst\":{}}},",
                "\"supervision\":{{\"enabled\":{},\"stall_timeout_ms\":{:.3},",
                "\"max_restarts\":{},\"restart_window_s\":{},",
                "\"open_duration_ms\":{:.3},\"probe_batches\":{}}},",
                "\"faults_armed\":{}}}"
            ),
            self.queue_capacity,
            self.max_batch,
            self.max_wait.as_secs_f64() * 1e3,
            chw,
            self.shards,
            self.precision.label(),
            self.trace.sample_every,
            self.trace.ring_capacity,
            self.windowed,
            self.slo.latency_target.as_secs_f64() * 1e3,
            self.slo.latency_percentile,
            self.slo.availability_target,
            self.slo.fast_window.as_secs_f64(),
            self.slo.slow_window.as_secs_f64(),
            self.slo.degraded_burn,
            self.slo.overloaded_burn,
            self.slo.min_samples,
            self.slo.shed_low_priority,
            self.slo.eval_interval.as_secs_f64() * 1e3,
            self.events.enabled,
            self.events.ring_capacity,
            self.events.rate_window.as_secs_f64() * 1e3,
            self.events.rate_burst,
            match self.default_deadline {
                Some(d) => format!("{:.3}", d.as_secs_f64() * 1e3),
                None => "null".to_string(),
            },
            self.retry.max_attempts,
            self.retry.backoff.as_secs_f64() * 1e3,
            self.retry.budget_ratio,
            self.retry.budget_burst,
            self.supervision.enabled,
            self.supervision.stall_timeout.as_secs_f64() * 1e3,
            self.supervision.max_restarts,
            self.supervision.restart_window.as_secs_f64(),
            self.supervision.open_duration.as_secs_f64() * 1e3,
            self.supervision.probe_batches,
            self.faults.is_some(),
        )
    }
}

/// Resolves `config.shards` against the engine: `0` (auto) becomes one
/// shard per available core, capped at the engine's worker count so a
/// shard never owns zero of the original budget.
fn resolve_shards(requested: usize, engine_threads: usize) -> usize {
    match requested {
        0 => thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(engine_threads)
            .max(1),
        n => n,
    }
}

/// The serving front-end: owns the engine shards, the bounded queue,
/// and one batcher thread per shard.
///
/// `Server` is `Sync` — clients on any number of threads call
/// [`Server::submit`] concurrently. Dropping the server performs a
/// drain shutdown.
pub struct Server {
    supervisor: Arc<Supervisor>,
    queue: Arc<BoundedQueue<Request>>,
    metrics: Arc<ServerMetrics>,
    recorder: Arc<FlightRecorder>,
    health: Arc<health::HealthEngine>,
    incidents: Arc<IncidentRecorder>,
    abort: Arc<AtomicBool>,
    /// The compiled graph shared by every shard (and every respawned
    /// engine) — the admission-time precision check reads this instead
    /// of locking a shard slot.
    graph: Arc<ExecutableGraph>,
    /// The execution profiler shared by every shard, held directly so
    /// rendering the exec profile never pins a (possibly dead) engine.
    profiler: Arc<ExecProfiler>,
    shards: usize,
    finished: bool,
    config: ServeConfig,
}

impl Server {
    /// Compiles the front-end around `engine` — partitioning it into
    /// `config.shards` engine shards when sharding is requested — and
    /// spawns one batcher thread per shard, all consuming the same
    /// queue.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_batch == 0`, or if `config.precision`
    /// requests a lowering the engine's graph does not carry.
    pub fn start(engine: Engine, config: ServeConfig) -> Self {
        assert!(config.max_batch > 0, "max_batch must be at least 1");
        assert!(
            engine.supports(config.precision),
            "engine graph lacks the {} lowering (compile with compile_quant)",
            config.precision
        );
        let shards = resolve_shards(config.shards, engine.threads());
        let graph = engine.shared_graph();
        let profiler = engine.profiler_handle();
        let engines: Vec<Arc<Engine>> = if shards == 1 {
            vec![Arc::new(engine)]
        } else {
            engine
                .into_shards(shards)
                .into_iter()
                .map(Arc::new)
                .collect()
        };
        let metrics = Arc::new(ServerMetrics::with_config(
            shards,
            config.windowed,
            config.events.clone(),
        ));
        let journal = metrics.events().clone();
        let mut queue = BoundedQueue::new(config.queue_capacity);
        queue.set_journal(journal.clone());
        let queue = Arc::new(queue);
        let mut recorder = FlightRecorder::new(&config.trace, shards);
        recorder.attach_journal(journal);
        let recorder = Arc::new(recorder);
        let incidents = Arc::new(IncidentRecorder::new(
            &config,
            profiler.clone(),
            shards,
            metrics.clone(),
            recorder.clone(),
        ));
        let health = Arc::new(
            health::HealthEngine::new(config.slo.clone()).with_incidents(incidents.clone()),
        );
        let abort = Arc::new(AtomicBool::new(false));
        let slots: Vec<Arc<ShardSlot>> = engines
            .into_iter()
            .enumerate()
            .map(|(i, engine)| ShardSlot::new(i, engine, &config.retry))
            .collect();
        let delayed = Arc::new(Mutex::new(Vec::new()));
        // The spawn hook: everything a batcher generation needs, bound
        // once here so the supervisor can respawn shards without ever
        // constructing a `BatcherContext` itself.
        let spawn: SpawnFn = {
            let queue = queue.clone();
            let metrics = metrics.clone();
            let recorder = recorder.clone();
            let incidents = incidents.clone();
            let abort = abort.clone();
            let health = health.clone();
            let faults = config.faults.clone();
            let retry = (config.retry.max_attempts > 1).then(|| RetryCtx {
                policy: config.retry.clone(),
                delayed: config.supervision.enabled.then(|| delayed.clone()),
            });
            let max_batch = config.max_batch;
            let max_wait = config.max_wait;
            Box::new(move |slot: Arc<ShardSlot>, generation: u64| {
                let engine = slot.engine.lock().expect("slot engine poisoned").clone();
                let index = slot.index;
                let ctx = BatcherContext {
                    engine,
                    queue: queue.clone(),
                    shard: metrics.shard(index).clone(),
                    shard_index: index,
                    metrics: metrics.clone(),
                    recorder: recorder.clone(),
                    incidents: incidents.clone(),
                    abort: abort.clone(),
                    slot: Arc::clone(&slot),
                    generation,
                    health: health.clone(),
                    faults: faults.clone(),
                    shards_total: shards,
                    retry: retry.clone(),
                    max_batch,
                    max_wait,
                };
                thread::Builder::new()
                    .name(format!("pcnn-serve-batcher-{index}"))
                    .spawn(move || batcher::run_batcher(ctx))
                    .expect("spawn batcher thread")
            })
        };
        for slot in &slots {
            let handle = spawn(Arc::clone(slot), 0);
            *slot.handle.lock().expect("slot handle poisoned") = Some(handle);
        }
        let supervisor = Supervisor::start(
            config.supervision.clone(),
            slots,
            delayed,
            queue.clone(),
            metrics.clone(),
            incidents.clone(),
            spawn,
        );
        Server {
            supervisor,
            queue,
            metrics,
            recorder,
            health,
            incidents,
            abort,
            graph,
            profiler,
            shards,
            finished: false,
            config,
        }
    }

    /// Shard 0's current engine (the only engine when `shards == 1`).
    /// An `Arc` clone rather than a borrow: the supervisor may replace
    /// a shard's engine at any time, and the clone stays valid across a
    /// restart (it just points at the retired pool).
    pub fn engine(&self) -> Arc<Engine> {
        self.engine_shard(0)
    }

    /// Number of engine shards serving the queue.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Shard `i`'s current engine (see [`Server::engine`] on why this
    /// is an `Arc` clone).
    pub fn engine_shard(&self, i: usize) -> Arc<Engine> {
        self.supervisor.slots()[i]
            .engine
            .lock()
            .expect("slot engine poisoned")
            .clone()
    }

    /// The supervision status of shard `i`: batcher generation, restart
    /// count, circuit-breaker state, registered in-flight requests, and
    /// available retry tokens.
    pub fn shard_status(&self, i: usize) -> ShardStatus {
        self.supervisor.status(i)
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Live telemetry (counters and histograms update as traffic flows).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The request-lifecycle flight recorder: per-shard rings of the
    /// last K sampled span timelines plus always-on trace counters.
    /// `flight_recorder().to_json()` is the postmortem dump.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Evaluates the SLO health engine against the current windows and
    /// returns the fresh [`HealthReport`] (state, per-window burn
    /// rates, transition and shed counts).
    pub fn health(&self) -> HealthReport {
        self.health
            .evaluate_at(&self.metrics, self.metrics.now_ns())
    }

    /// The health engine itself — for the cheap [`HealthState`] read
    /// ([`health::HealthEngine::state`]) or deterministic evaluation at
    /// an explicit timestamp in tests.
    pub fn health_engine(&self) -> &health::HealthEngine {
        &self.health
    }

    /// The black-box incident recorder: bounded ring of automatically
    /// captured [`DiagnosticSnapshot`]s (health deterioration, first
    /// engine fault, drain with failures), plus capture/suppression
    /// counters.
    pub fn incidents(&self) -> &IncidentRecorder {
        &self.incidents
    }

    /// One-call diagnostics: evaluates health now and captures a full
    /// [`DiagnosticSnapshot`] on demand — build info, effective config,
    /// telemetry, health, attribution, span and event tails, and the
    /// exec profile when enabled. Bypasses the incident ring and
    /// cooldown; it never counts as an incident.
    pub fn diagnostics(&self) -> DiagnosticSnapshot {
        // Evaluating refreshes the recorder's cached health report via
        // the health engine's incident hook.
        let _ = self.health();
        self.incidents.diagnostics()
    }

    /// Every counter, gauge, and histogram in Prometheus text
    /// exposition format — the serving telemetry, the trace counters,
    /// and (when profiling is enabled on the engine) the per-layer
    /// execution profile. Metric names are documented in the README's
    /// "Observability" section.
    pub fn render_prometheus(&self) -> String {
        let mut out = self.metrics.render_prometheus();
        out.push_str(
            "# HELP pcnn_build_info Deploy metadata carried as labels; the value is always 1.\n",
        );
        out.push_str("# TYPE pcnn_build_info gauge\n");
        out.push_str(&format!(
            "pcnn_build_info{{version=\"{}\",simd=\"{}\",shards=\"{}\",precision=\"{}\"}} 1\n",
            env!("CARGO_PKG_VERSION"),
            pcnn_tensor::simd::active().label(),
            self.shards,
            self.config.precision.label(),
        ));
        out.push_str("# HELP pcnn_uptime_seconds Seconds since the server started.\n");
        out.push_str("# TYPE pcnn_uptime_seconds gauge\n");
        out.push_str(&format!(
            "pcnn_uptime_seconds {:.3}\n",
            self.metrics.uptime().as_secs_f64()
        ));
        let report = self.health();
        out.push_str(
            "# HELP pcnn_health_state SLO health state: 0 healthy, 1 degraded, 2 overloaded.\n",
        );
        out.push_str("# TYPE pcnn_health_state gauge\n");
        out.push_str(&format!("pcnn_health_state {}\n", report.state.code()));
        out.push_str(
            "# HELP pcnn_health_burn_rate Error-budget burn rate per evaluation window.\n",
        );
        out.push_str("# TYPE pcnn_health_burn_rate gauge\n");
        out.push_str(&format!(
            "pcnn_health_burn_rate{{window=\"fast\"}} {:.4}\n",
            report.fast.burn
        ));
        out.push_str(&format!(
            "pcnn_health_burn_rate{{window=\"slow\"}} {:.4}\n",
            report.slow.burn
        ));
        out.push_str("# HELP pcnn_health_transitions_total Health state transitions.\n");
        out.push_str("# TYPE pcnn_health_transitions_total counter\n");
        out.push_str(&format!(
            "pcnn_health_transitions_total {}\n",
            report.transitions
        ));
        out.push_str("# HELP pcnn_trace_requests_total Requests assigned a trace ID.\n");
        out.push_str("# TYPE pcnn_trace_requests_total counter\n");
        out.push_str(&format!(
            "pcnn_trace_requests_total {}\n",
            self.recorder.requests()
        ));
        out.push_str("# HELP pcnn_trace_spans_recorded_total Sampled spans published to the flight recorder.\n");
        out.push_str("# TYPE pcnn_trace_spans_recorded_total counter\n");
        out.push_str(&format!(
            "pcnn_trace_spans_recorded_total {}\n",
            self.recorder.spans_recorded()
        ));
        out.push_str(
            "# HELP pcnn_trace_spans_dropped_total Sampled spans lost to ring-slot contention.\n",
        );
        out.push_str("# TYPE pcnn_trace_spans_dropped_total counter\n");
        out.push_str(&format!(
            "pcnn_trace_spans_dropped_total {}\n",
            self.recorder.spans_dropped()
        ));
        out.push_str(
            "# HELP pcnn_shard_breaker_state Circuit breaker: 0 closed, 1 open, 2 half-open.\n",
        );
        out.push_str("# TYPE pcnn_shard_breaker_state gauge\n");
        for i in 0..self.shards {
            let status = self.supervisor.status(i);
            out.push_str(&format!(
                "pcnn_shard_breaker_state{{shard=\"{i}\"}} {}\n",
                status.breaker.code()
            ));
        }
        if self.profiler.is_enabled() {
            out.push_str(&self.profiler.snapshot().render_prometheus());
        }
        out
    }

    /// Submits a `1 × C × H × W` request at [`Priority::Normal`] and
    /// the server's default precision ([`ServeConfig::precision`]).
    ///
    /// Returns a [`Ticket`] immediately; the inference happens on the
    /// batcher/engine threads. Errors are immediate and synchronous:
    /// shape rejection ([`ServeError::BadInput`]), backpressure
    /// ([`ServeError::QueueFull`]), or shutdown
    /// ([`ServeError::ShuttingDown`]).
    pub fn submit(&self, input: pcnn_tensor::Tensor) -> Result<Ticket, ServeError> {
        self.submit_with(input, Priority::Normal, self.config.precision)
    }

    /// [`Server::submit`] with an explicit scheduling class.
    pub fn submit_with_priority(
        &self,
        input: pcnn_tensor::Tensor,
        priority: Priority,
    ) -> Result<Ticket, ServeError> {
        self.submit_with(input, priority, self.config.precision)
    }

    /// [`Server::submit`] with an explicit scheduling class **and**
    /// execution precision — per-request precision selection. The
    /// batchers keep batches precision-uniform (a mismatching request
    /// seeds the next batch, like a shape change), so mixed traffic
    /// never mixes datapaths within one engine pass.
    ///
    /// Fails with [`ServeError::PrecisionUnavailable`] when the engine's
    /// graph lacks the requested lowering.
    pub fn submit_with(
        &self,
        input: pcnn_tensor::Tensor,
        priority: Priority,
        precision: Precision,
    ) -> Result<Ticket, ServeError> {
        self.submit_inner(input, priority, precision, self.config.default_deadline)
    }

    /// [`Server::submit_with`] with an explicit per-request deadline
    /// (relative to now), overriding [`ServeConfig::default_deadline`].
    /// A request whose deadline elapses before dispatch resolves with
    /// [`ServeError::DeadlineExceeded`] instead of occupying an engine
    /// pass its client stopped waiting for.
    pub fn submit_with_deadline(
        &self,
        input: pcnn_tensor::Tensor,
        priority: Priority,
        precision: Precision,
        deadline: Duration,
    ) -> Result<Ticket, ServeError> {
        self.submit_inner(input, priority, precision, Some(deadline))
    }

    fn submit_inner(
        &self,
        input: pcnn_tensor::Tensor,
        priority: Priority,
        precision: Precision,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        if !self.graph.supports(precision) {
            return Err(ServeError::PrecisionUnavailable);
        }
        let dims = input.shape();
        if dims.len() != 4 || dims[0] != 1 {
            return Err(ServeError::BadInput(format!(
                "expected 1 x C x H x W, got {dims:?}"
            )));
        }
        if let Some(chw) = self.config.input_chw {
            if dims[1..] != chw {
                return Err(ServeError::BadInput(format!(
                    "expected 1 x {} x {} x {}, got {dims:?}",
                    chw[0], chw[1], chw[2]
                )));
            }
        }
        // Health runs on the admission path so the state keeps up with
        // traffic without an external poller; `maybe_evaluate` is a
        // relaxed load unless `eval_interval` has elapsed. Shedding is
        // opt-in and never touches Priority::High.
        self.health.maybe_evaluate(&self.metrics);
        if self.config.slo.shed_low_priority
            && priority == Priority::Normal
            && self.health.state() == HealthState::Overloaded
        {
            self.metrics.shed.inc();
            self.metrics.events().emit(
                EventCode::Shed,
                Severity::Warn,
                self.metrics.shed.get(),
                self.health.state().code() as u64,
            );
            return Err(ServeError::Overloaded);
        }
        // Injected admission failure: the chaos plan's backpressure
        // knob, taken after the real gates so it cannot mask them.
        if self
            .config
            .faults
            .as_ref()
            .is_some_and(|f| f.take_queue_full())
        {
            self.metrics.rejected.inc();
            return Err(ServeError::QueueFull);
        }
        let cell = TicketCell::new();
        let id = self.recorder.begin();
        let span = self.recorder.is_sampled(id).then(|| {
            Box::new(ActiveSpan {
                id,
                admitted_ns: self.recorder.now_ns(),
                dequeued_ns: 0,
            })
        });
        let submitted = Instant::now();
        let request = Request {
            input,
            cell: cell.clone(),
            submitted,
            precision,
            span,
            id,
            deadline: deadline.map(|d| submitted + d),
            attempt: 0,
            avoid_shard: None,
            bounced: false,
        };
        match self.queue.try_push(request, priority) {
            Ok(()) => {
                self.metrics.submitted.inc();
                let depth = self.queue.len() as u64;
                self.metrics.queue_depth.set(depth);
                self.metrics.queue_depth_hwm.observe(depth);
                Ok(Ticket::new(cell, id))
            }
            Err(PushError::Full(_)) => {
                self.metrics.rejected.inc();
                Err(ServeError::QueueFull)
            }
            Err(PushError::Closed(_)) => {
                self.metrics.rejected_shutdown.inc();
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Stops the server: closes admissions, drains (or aborts) the
    /// queue, joins the batcher, and reports what happened.
    pub fn shutdown(mut self, mode: ShutdownMode) -> DrainReport {
        self.shutdown_inner(mode)
    }

    fn shutdown_inner(&mut self, mode: ShutdownMode) -> DrainReport {
        self.finished = true;
        let start = Instant::now();
        let mode_code = match mode {
            ShutdownMode::Drain => 0,
            ShutdownMode::Abort => 1,
        };
        self.metrics.events().emit(
            EventCode::DrainBegin,
            Severity::Info,
            mode_code,
            self.queue.len() as u64,
        );
        if mode == ShutdownMode::Abort {
            // ordering: Release pairs with the batchers' Acquire load
            // (downgraded from SeqCst: the flag is the only atomic in
            // the protocol, so Release/Acquire already gives the only
            // ordering that matters — and `queue.close()` below adds a
            // second happens-before edge through the queue mutex).
            self.abort.store(true, Ordering::Release);
        }
        self.queue.close();
        // Stop the monitor BEFORE joining batchers: a supervisor that
        // kept running could respawn a shard the drain is tearing down.
        self.supervisor.stop_and_join();
        self.supervisor.join_batchers();
        // Backoff-parked retries: the queue is closed, so each fails
        // with the engine fault that caused it — never silently lost.
        self.supervisor.final_flush();
        // Tickets a dead shard's registry still holds (breaker open, no
        // live generation to resolve them).
        self.supervisor.fail_orphans();
        // Requests still queued with no batcher left to pop them — only
        // possible when every shard died (breaker open on a one-shard
        // server). Fail them as aborted-by-shutdown, attributed to
        // shard 0 for lack of a better owner.
        while let Some(r) = self.queue.try_pop() {
            let shard = self.metrics.shard(0);
            shard.aborted.inc();
            shard.precision(r.precision).aborted.inc();
            shard.window_aborted(r.precision);
            r.cell.complete(Err(ServeError::Aborted));
        }
        let shards = self.shards;
        let precisions = Precision::ALL
            .iter()
            .map(|&p| {
                let mut dp = DrainPrecision {
                    precision: p.label(),
                    completed: 0,
                    failed: 0,
                    aborted: 0,
                    expired: 0,
                    cancelled: 0,
                };
                for i in 0..shards {
                    let pm = self.metrics.shard(i).precision(p);
                    dp.completed += pm.completed.get();
                    dp.failed += pm.failed.get();
                    dp.aborted += pm.aborted.get();
                    dp.expired += pm.expired.get();
                    dp.cancelled += pm.cancelled.get();
                }
                dp
            })
            .collect();
        let report = DrainReport {
            mode,
            completed: self.metrics.completed(),
            aborted: self.metrics.aborted(),
            failed: self.metrics.failed(),
            expired: self.metrics.expired(),
            cancelled: self.metrics.cancelled(),
            rejected_at_shutdown: self.metrics.rejected_shutdown.get(),
            precisions,
            spans: self.recorder.spans(),
            wall: start.elapsed(),
        };
        self.metrics.events().emit(
            EventCode::DrainEnd,
            if report.has_failures() {
                Severity::Warn
            } else {
                Severity::Info
            },
            mode_code,
            report.failed,
        );
        self.incidents.on_drain(&report);
        report
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.shutdown_inner(ShutdownMode::Drain);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnn_nn::models;
    use pcnn_runtime::compile::compile_dense;
    use pcnn_tensor::Tensor;

    fn tiny_server(config: ServeConfig) -> Server {
        let engine = Engine::new(compile_dense(&models::tiny_cnn(3, 4, 1)), 2);
        Server::start(engine, config)
    }

    #[test]
    fn submit_wait_roundtrip_matches_direct_inference() {
        let server = tiny_server(ServeConfig::default());
        let x = Tensor::ones(&[1, 3, 8, 8]);
        let want = server.engine().infer(&x);
        let got = server.submit(x).expect("admitted").wait().expect("served");
        pcnn_tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-6);
        let snap = server.metrics().snapshot();
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.submitted, 1);
        assert!(snap.latency_p50 > Duration::ZERO);
    }

    #[test]
    fn bad_shapes_are_rejected_at_admission() {
        let server = tiny_server(ServeConfig {
            input_chw: Some([3, 8, 8]),
            ..ServeConfig::default()
        });
        assert!(matches!(
            server.submit(Tensor::ones(&[2, 3, 8, 8])),
            Err(ServeError::BadInput(_))
        ));
        assert!(matches!(
            server.submit(Tensor::ones(&[1, 3, 4, 4])),
            Err(ServeError::BadInput(_))
        ));
        assert!(server.submit(Tensor::ones(&[1, 3, 8, 8])).is_ok());
    }

    #[test]
    fn mixed_shapes_without_pinning_are_served_correctly() {
        // No input_chw: the batcher must split batches on shape changes.
        let server = tiny_server(ServeConfig {
            max_wait: Duration::from_millis(20),
            ..ServeConfig::default()
        });
        let a = Tensor::ones(&[1, 3, 8, 8]);
        let b = Tensor::full(&[1, 3, 10, 10], 0.5);
        let want_a = server.engine().infer(&a);
        let want_b = server.engine().infer(&b);
        let tickets: Vec<Ticket> = vec![
            server.submit(a.clone()).unwrap(),
            server.submit(b.clone()).unwrap(),
            server.submit(a).unwrap(),
            server.submit(b).unwrap(),
        ];
        let outs: Vec<Tensor> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        pcnn_tensor::assert_slices_close(outs[0].as_slice(), want_a.as_slice(), 1e-6);
        pcnn_tensor::assert_slices_close(outs[1].as_slice(), want_b.as_slice(), 1e-6);
        pcnn_tensor::assert_slices_close(outs[2].as_slice(), want_a.as_slice(), 1e-6);
        pcnn_tensor::assert_slices_close(outs[3].as_slice(), want_b.as_slice(), 1e-6);
    }

    #[test]
    fn shutdown_drain_serves_everything_admitted() {
        let server = tiny_server(ServeConfig {
            max_wait: Duration::from_millis(50),
            max_batch: 64,
            ..ServeConfig::default()
        });
        let tickets: Vec<Ticket> = (0..10)
            .map(|_| server.submit(Tensor::ones(&[1, 3, 8, 8])).unwrap())
            .collect();
        let report = server.shutdown(ShutdownMode::Drain);
        assert_eq!(report.completed, 10);
        assert_eq!(report.aborted, 0);
        for t in tickets {
            assert!(t.wait().is_ok());
        }
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let server = tiny_server(ServeConfig::default());
        let engine_probe = server.submit(Tensor::ones(&[1, 3, 8, 8])).unwrap();
        engine_probe.wait().unwrap();
        // Drop performs a drain shutdown; a second server proves the
        // explicit path too.
        let server2 = tiny_server(ServeConfig::default());
        server2.queue.close();
        assert!(matches!(
            server2.submit(Tensor::ones(&[1, 3, 8, 8])),
            Err(ServeError::ShuttingDown)
        ));
        assert_eq!(server2.metrics().snapshot().rejected_shutdown, 1);
    }

    #[test]
    fn abort_shutdown_fails_queued_requests() {
        // Account for every admitted request: served or aborted, none
        // lost, regardless of how far the batcher got.
        let server = tiny_server(ServeConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            ..ServeConfig::default()
        });
        let tickets: Vec<Ticket> = (0..32)
            .map(|_| server.submit(Tensor::ones(&[1, 3, 8, 8])).unwrap())
            .collect();
        let report = server.shutdown(ShutdownMode::Abort);
        assert_eq!(report.completed + report.aborted, 32);
        let mut served = 0u64;
        let mut aborted = 0u64;
        for t in tickets {
            match t.wait() {
                Ok(_) => served += 1,
                Err(ServeError::Aborted) => aborted += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(served, report.completed);
        assert_eq!(aborted, report.aborted);
    }

    #[test]
    fn sharded_server_partitions_engine_and_serves_correctly() {
        let engine = Engine::new(compile_dense(&models::tiny_cnn(3, 4, 1)), 4);
        let server = Server::start(
            engine,
            ServeConfig {
                shards: 3,
                max_wait: Duration::from_millis(1),
                ..ServeConfig::default()
            },
        );
        assert_eq!(server.shards(), 3);
        let total_threads: usize = (0..3).map(|i| server.engine_shard(i).threads()).sum();
        assert_eq!(total_threads, 4, "worker budget partitions, not grows");
        let x = Tensor::ones(&[1, 3, 8, 8]);
        let want = server.engine().infer(&x);
        let tickets: Vec<Ticket> = (0..24)
            .map(|_| server.submit(x.clone()).expect("admitted"))
            .collect();
        for t in tickets {
            let got = t.wait().expect("served");
            pcnn_tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-6);
        }
        let snap = server.metrics().snapshot();
        assert_eq!(snap.completed, 24);
        assert_eq!(snap.shards.len(), 3);
        assert_eq!(
            snap.shards.iter().map(|s| s.completed).sum::<u64>(),
            24,
            "per-shard counts roll up to the merged view"
        );
        let report = server.shutdown(ShutdownMode::Drain);
        assert_eq!(report.completed, 24);
    }

    #[test]
    fn auto_shards_resolve_against_engine_and_parallelism() {
        assert_eq!(resolve_shards(1, 8), 1);
        assert_eq!(resolve_shards(5, 2), 5, "explicit counts are honoured");
        let auto = resolve_shards(0, 2);
        assert!((1..=2).contains(&auto), "auto is capped by engine workers");
        assert_eq!(resolve_shards(0, 1), 1);
        // Auto on a real server: it must start and serve.
        let engine = Engine::new(compile_dense(&models::tiny_cnn(3, 4, 1)), 2);
        let server = Server::start(
            engine,
            ServeConfig {
                shards: 0,
                ..ServeConfig::default()
            },
        );
        assert!(server.shards() >= 1);
        let out = server
            .submit(Tensor::ones(&[1, 3, 8, 8]))
            .expect("admitted")
            .wait()
            .expect("served");
        assert_eq!(out.shape(), &[1, 3]);
    }

    /// A server over a dual-precision graph: mixed f32/int8 submissions
    /// all complete, and the telemetry labels them by precision.
    #[test]
    fn per_request_precision_mixes_and_labels_telemetry() {
        use pcnn_runtime::QuantOptions;
        let graph = compile_dense(&models::tiny_cnn(3, 4, 1)).with_int8(&QuantOptions::default());
        let server = Server::start(
            Engine::new(graph, 2),
            ServeConfig {
                max_wait: Duration::from_millis(1),
                ..ServeConfig::default()
            },
        );
        let x = Tensor::ones(&[1, 3, 8, 8]);
        let mut tickets = Vec::new();
        for i in 0..12 {
            let p = if i % 3 == 0 {
                Precision::Int8
            } else {
                Precision::F32
            };
            tickets.push((
                p,
                server.submit_with(x.clone(), Priority::Normal, p).unwrap(),
            ));
        }
        for (_, t) in tickets {
            t.wait().expect("served");
        }
        let snap = server.metrics().snapshot();
        assert_eq!(snap.completed, 12);
        assert_eq!(snap.precisions.len(), 2);
        let f32s = &snap.precisions[Precision::F32.index()];
        let int8s = &snap.precisions[Precision::Int8.index()];
        assert_eq!(f32s.precision, "f32");
        assert_eq!(int8s.precision, "int8");
        assert_eq!(f32s.completed, 8);
        assert_eq!(int8s.completed, 4);
        assert!(int8s.batches > 0);
        let json = snap.to_json();
        assert!(json.contains("\"precision\":\"int8\""));
        assert!(json.contains("\"precision\":\"f32\""));
        let rendered = format!("{snap}");
        assert!(rendered.contains("[int8]"));
    }

    /// Requesting int8 on an engine compiled without the lowering fails
    /// synchronously — per request with `PrecisionUnavailable`, and at
    /// startup with a panic when it's the server default.
    #[test]
    fn unavailable_precision_is_rejected_at_submit() {
        let server = tiny_server(ServeConfig::default());
        assert!(matches!(
            server.submit_with(
                Tensor::ones(&[1, 3, 8, 8]),
                Priority::Normal,
                Precision::Int8
            ),
            Err(ServeError::PrecisionUnavailable)
        ));
        assert_eq!(server.metrics().snapshot().submitted, 0);
    }

    #[test]
    #[should_panic(expected = "lacks the int8 lowering")]
    fn int8_default_without_lowering_panics_at_start() {
        let engine = Engine::new(compile_dense(&models::tiny_cnn(3, 4, 1)), 2);
        let _ = Server::start(
            engine,
            ServeConfig {
                precision: Precision::Int8,
                ..ServeConfig::default()
            },
        );
    }

    #[test]
    fn high_priority_jumps_the_queue() {
        // With max_batch 1 the queue backs up behind the first few
        // dispatches; a High submission made after 16 Normal ones must
        // complete before the queued Normal tail. Completion order is
        // observed by polling every ticket and recording readiness.
        //
        // The High request can lose only to Normals already dispatched
        // or in flight when it was admitted (in-flight cap is
        // threads + 1, plus one batch being coalesced), never to the
        // whole Normal queue. How many Normals the batcher pops before
        // the High push lands is a race against the submit loop, and
        // under full-suite CPU contention the scheduler can stall the
        // submitting thread long enough to inflate it past the bound —
        // so retry the race a few times and require the strict bound
        // to hold at least once.
        let mut last = (0, Vec::new());
        for _ in 0..5 {
            let server = tiny_server(ServeConfig {
                max_batch: 1,
                max_wait: Duration::ZERO,
                queue_capacity: 64,
                ..ServeConfig::default()
            });
            let normals: Vec<Ticket> = (0..16)
                .map(|_| server.submit(Tensor::ones(&[1, 3, 8, 8])).unwrap())
                .collect();
            let high = server
                .submit_with_priority(Tensor::ones(&[1, 3, 8, 8]), Priority::High)
                .unwrap();
            // Index 16 is the High ticket.
            let mut pending: Vec<(usize, Ticket)> = normals.into_iter().enumerate().collect();
            pending.push((16, high));
            let mut completion_order = Vec::with_capacity(17);
            while !pending.is_empty() {
                pending.retain(|(idx, t)| match t.try_wait() {
                    Some(result) => {
                        result.expect("served");
                        completion_order.push(*idx);
                        false
                    }
                    None => true,
                });
                std::thread::sleep(Duration::from_micros(200));
            }
            let high_pos = completion_order
                .iter()
                .position(|&idx| idx == 16)
                .expect("high ticket completed");
            if high_pos < 8 {
                return;
            }
            last = (high_pos, completion_order);
        }
        panic!("High completed at position {} of {:?}", last.0, last.1);
    }
}
