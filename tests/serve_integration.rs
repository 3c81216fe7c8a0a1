//! End-to-end integration of the serving stack: pruned model → pattern
//! compiler → engine → `pcnn-serve` front-end, driven by real
//! concurrent clients.

use pcnn::core::PrunePlan;
use pcnn::nn::models::{self, vgg16_proxy, VggProxyConfig};
use pcnn::runtime::compile::{compile_dense, prune_and_compile, CompileOptions};
use pcnn::runtime::Engine;
use pcnn::serve::{
    EventCode, HealthState, IncidentTrigger, Priority, ServeConfig, ServeError, Server,
    ShutdownMode, SloConfig, SpanOutcome, TraceConfig,
};
use pcnn::tensor::Tensor;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn random_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = SmallRng::seed_from_u64(seed);
    let len = shape.iter().product();
    Tensor::from_vec(
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        shape,
    )
}

/// Four concurrent clients against a pruned VGG-16 proxy: every ticket
/// resolves, and every output matches the engine's direct answer for
/// the same input.
#[test]
fn concurrent_clients_get_correct_outputs() {
    let cfg = VggProxyConfig::default();
    let mut model = vgg16_proxy(&cfg, 11);
    let plan = PrunePlan::uniform(13, 2, 32);
    let (graph, _, _) =
        prune_and_compile(&mut model, &plan, &CompileOptions::default()).expect("proxy lowers");
    let server = Arc::new(Server::start(
        Engine::with_default_threads(graph),
        ServeConfig {
            max_batch: 4,
            input_chw: Some([3, cfg.input_hw, cfg.input_hw]),
            ..ServeConfig::default()
        },
    ));

    let clients: Vec<_> = (0..4u64)
        .map(|c| {
            let server = server.clone();
            let hw = cfg.input_hw;
            std::thread::spawn(move || {
                for i in 0..8u64 {
                    let x = random_tensor(&[1, 3, hw, hw], c * 1000 + i);
                    let want = server.engine().infer(&x);
                    let got = server.submit(x).expect("admitted").wait().expect("served");
                    assert_eq!(got.shape(), want.shape());
                    pcnn::tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-5);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    let snap = server.metrics().snapshot();
    assert_eq!(snap.completed, 32, "zero dropped tickets");
    assert_eq!(snap.rejected, 0);
    assert!(snap.latency_p99 >= snap.latency_p50);
    assert!(snap.throughput_rps > 0.0);

    let report = Arc::try_unwrap(server)
        .unwrap_or_else(|_| panic!("clients joined"))
        .shutdown(ShutdownMode::Drain);
    assert_eq!(report.completed, 32);
    assert_eq!(report.aborted, 0);
}

/// Backpressure end-to-end: a burst into a slow engine with a tiny
/// queue must shed load with `QueueFull`, and every accepted ticket
/// still resolves.
#[test]
fn burst_trips_admission_control() {
    // The VGG proxy is slow enough (hundreds of µs per request) that a
    // tight submission loop outruns it by orders of magnitude.
    let cfg = VggProxyConfig::default();
    let mut model = vgg16_proxy(&cfg, 13);
    let plan = PrunePlan::uniform(13, 2, 32);
    let (graph, _, _) =
        prune_and_compile(&mut model, &plan, &CompileOptions::default()).expect("proxy lowers");
    let server = Server::start(
        Engine::with_default_threads(graph),
        ServeConfig {
            queue_capacity: 2,
            max_batch: 2,
            max_wait: Duration::ZERO,
            ..ServeConfig::default()
        },
    );
    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for i in 0..200 {
        match server.submit(random_tensor(
            &[1, 3, cfg.input_hw, cfg.input_hw],
            400 + i as u64,
        )) {
            Ok(t) => accepted.push(t),
            Err(ServeError::QueueFull) => rejected += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(rejected > 0, "capacity 2 must shed a 200-burst");
    let accepted_count = accepted.len();
    for t in accepted {
        t.wait().expect("accepted requests complete");
    }
    let snap = server.metrics().snapshot();
    assert_eq!(snap.completed as usize, accepted_count);
    assert_eq!(snap.rejected as usize, rejected);
}

/// Shard parity: the same traffic through a single-shard and a
/// four-shard server produces per-ticket outputs identical to the
/// engine's direct answer — sharding changes dispatch parallelism, not
/// results, ordering guarantees, or accounting.
#[test]
fn shard_parity_outputs_match_direct_inference() {
    let cfg = VggProxyConfig::default();
    let inputs: Vec<Tensor> = (0..24)
        .map(|i| random_tensor(&[1, 3, cfg.input_hw, cfg.input_hw], 9000 + i))
        .collect();
    let mut by_shards: Vec<Vec<Tensor>> = Vec::new();
    for shards in [1usize, 4] {
        let mut model = vgg16_proxy(&cfg, 11);
        let plan = PrunePlan::uniform(13, 2, 32);
        let (graph, _, _) =
            prune_and_compile(&mut model, &plan, &CompileOptions::default()).expect("proxy lowers");
        let server = Server::start(
            Engine::new(graph, 4),
            ServeConfig {
                shards,
                max_batch: 4,
                max_wait: Duration::from_millis(1),
                ..ServeConfig::default()
            },
        );
        assert_eq!(server.shards(), shards);
        let want: Vec<Tensor> = inputs.iter().map(|x| server.engine().infer(x)).collect();
        let tickets: Vec<_> = inputs
            .iter()
            .map(|x| server.submit(x.clone()).expect("admitted"))
            .collect();
        let outs: Vec<Tensor> = tickets
            .into_iter()
            .map(|t| t.wait().expect("served"))
            .collect();
        for (got, want) in outs.iter().zip(&want) {
            pcnn::tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-6);
        }
        let snap = server.metrics().snapshot();
        assert_eq!(snap.completed, 24);
        assert_eq!(snap.shards.len(), shards);
        assert_eq!(
            snap.shards.iter().map(|s| s.completed).sum::<u64>(),
            24,
            "shard breakdown accounts for every request"
        );
        let report = server.shutdown(ShutdownMode::Drain);
        assert_eq!(report.completed, 24);
        assert_eq!(report.aborted + report.failed, 0);
        by_shards.push(outs);
    }
    // Both topologies run the same compiled graph: identical outputs.
    for (a, b) in by_shards[0].iter().zip(&by_shards[1]) {
        pcnn::tensor::assert_slices_close(a.as_slice(), b.as_slice(), 0.0);
    }
}

/// Abort shutdown with shards > 1: every admitted request resolves as
/// exactly one of completed or aborted — no ticket lost, none counted
/// twice, even with four batchers racing the abort flag.
#[test]
fn sharded_abort_shutdown_accounts_for_every_ticket() {
    let engine = Engine::new(compile_dense(&models::tiny_cnn(4, 4, 17)), 4);
    let server = Server::start(
        engine,
        ServeConfig {
            shards: 4,
            max_batch: 1,
            max_wait: Duration::ZERO,
            queue_capacity: 256,
            ..ServeConfig::default()
        },
    );
    let submitted = 96u64;
    let tickets: Vec<_> = (0..submitted)
        .map(|i| {
            server
                .submit(random_tensor(&[1, 3, 8, 8], 7000 + i))
                .expect("admitted")
        })
        .collect();
    let report = server.shutdown(ShutdownMode::Abort);
    assert_eq!(
        report.completed + report.aborted,
        submitted,
        "completed + aborted must equal submitted"
    );
    assert_eq!(report.failed, 0);
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

/// The flight recorder on an abort shutdown: with every request traced,
/// the drain report carries one span per admitted request, each span is
/// a complete monotone timeline, and the span outcomes agree with the
/// report's counters — including the aborted tail, whose unreached
/// events all collapse onto the abort instant.
#[test]
fn abort_drain_report_carries_complete_span_timelines() {
    let engine = Engine::new(compile_dense(&models::tiny_cnn(4, 4, 17)), 4);
    let server = Server::start(
        engine,
        ServeConfig {
            shards: 4,
            max_batch: 1,
            max_wait: Duration::ZERO,
            queue_capacity: 256,
            trace: TraceConfig {
                sample_every: 1,
                ring_capacity: 128,
            },
            ..ServeConfig::default()
        },
    );
    let submitted = 96u64;
    let tickets: Vec<_> = (0..submitted)
        .map(|i| {
            server
                .submit(random_tensor(&[1, 3, 8, 8], 7500 + i))
                .expect("admitted")
        })
        .collect();
    let ids: Vec<u64> = tickets.iter().map(|t| t.request_id()).collect();
    let report = server.shutdown(ShutdownMode::Abort);

    assert_eq!(report.completed + report.aborted, submitted);
    assert_eq!(report.failed, 0);
    assert_eq!(
        report.spans.len(),
        submitted as usize,
        "sample_every=1 must retire one span per admitted request"
    );
    let mut span_completed = 0u64;
    let mut span_aborted = 0u64;
    for span in &report.spans {
        assert!(ids.contains(&span.id), "span id from a real ticket");
        assert!(span.is_monotone(), "span {} is not monotone", span.id);
        match span.outcome {
            SpanOutcome::Completed => span_completed += 1,
            SpanOutcome::Aborted => {
                // An aborted request never reached the engine: its
                // unreached events all carry the abort instant.
                assert_eq!(span.coalesced_ns, span.completed_ns);
                assert_eq!(span.dispatched_ns, span.completed_ns);
                assert_eq!(span.executed_ns, span.completed_ns);
                span_aborted += 1;
            }
            SpanOutcome::Failed | SpanOutcome::Expired | SpanOutcome::Cancelled => {
                panic!("no request may fail, expire, or cancel here")
            }
        }
    }
    assert_eq!(span_completed, report.completed);
    assert_eq!(span_aborted, report.aborted);

    // Satellite: the per-precision drain breakdown must re-sum to the
    // report totals (all traffic here is f32).
    let f32_drain = report
        .precisions
        .iter()
        .find(|p| p.precision == "f32")
        .expect("f32 breakdown present");
    assert_eq!(f32_drain.completed, report.completed);
    assert_eq!(f32_drain.aborted, report.aborted);
    assert_eq!(f32_drain.failed, 0);

    // The tickets resolve to exactly the outcomes the spans recorded.
    let mut served = 0u64;
    for t in tickets {
        match t.wait() {
            Ok(_) => served += 1,
            Err(ServeError::Aborted) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(served, report.completed);
}

/// Deterministic overload and recovery: an SLO every real request
/// violates drives the health engine `Healthy → Degraded → Overloaded`
/// under explicit evaluations, the opt-in shedding hook rejects only
/// low-priority admissions while overloaded, and evaluating with the
/// clock advanced past both windows walks the state back to `Healthy`.
///
/// Determinism: `eval_interval` is huge, so the submit path can only
/// evaluate once (on the first submit, when the windows are still
/// empty); every state change below comes from an explicit
/// `evaluate_at` this test issues itself.
#[test]
fn overload_sheds_low_priority_and_recovers() {
    let engine = Engine::new(compile_dense(&models::tiny_cnn(4, 4, 17)), 2);
    let server = Server::start(
        engine,
        ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            slo: SloConfig {
                // 1 ns: every completion is an SLO violation.
                latency_target: Duration::from_nanos(1),
                // Wide windows so the whole traffic burst stays inside
                // both regardless of scheduling jitter.
                fast_window: Duration::from_secs(5),
                slow_window: Duration::from_secs(60),
                min_samples: 1,
                shed_low_priority: true,
                eval_interval: Duration::from_secs(3600),
                ..SloConfig::default()
            },
            ..ServeConfig::default()
        },
    );
    let health = server.health_engine();
    assert_eq!(health.state(), HealthState::Healthy);

    // Real traffic, all violating the 1 ns target.
    let tickets: Vec<_> = (0..20)
        .map(|i| {
            server
                .submit(random_tensor(&[1, 3, 8, 8], 8100 + i))
                .expect("healthy server admits everything")
        })
        .collect();
    for t in tickets {
        t.wait().expect("served");
    }

    // Hysteresis: one step per evaluation, through Degraded.
    let metrics = server.metrics();
    let now = metrics.now_ns();
    let r1 = health.evaluate_at(metrics, now);
    assert_eq!(r1.state, HealthState::Degraded);
    assert!(r1.slow.burn >= 2.0, "every request violated the target");
    let r2 = health.evaluate_at(metrics, now);
    assert_eq!(r2.state, HealthState::Overloaded);

    // Overloaded + shed_low_priority: Normal is shed, High passes.
    match server.submit(random_tensor(&[1, 3, 8, 8], 8200)) {
        Err(ServeError::Overloaded) => {}
        Err(e) => panic!("expected Overloaded shed, got error {e}"),
        Ok(_) => panic!("expected Overloaded shed, but the request was admitted"),
    }
    let high = server
        .submit_with_priority(random_tensor(&[1, 3, 8, 8], 8201), Priority::High)
        .expect("high priority is never shed");
    high.wait().expect("high priority request completes");
    let snap = metrics.snapshot();
    assert_eq!(snap.shed, 1, "exactly the one Normal admission was shed");

    // Recovery: far enough ahead that both windows have drained.
    let later = now + 600 * 1_000_000_000;
    let r3 = health.evaluate_at(metrics, later);
    assert_eq!(r3.state, HealthState::Degraded, "one step back per eval");
    assert_eq!(r3.fast.attempts, 0, "windows are empty at the future clock");
    let r4 = health.evaluate_at(metrics, later);
    assert_eq!(r4.state, HealthState::Healthy);
    assert_eq!(r4.transitions, 4);

    // Healthy again: Normal admissions flow.
    server
        .submit(random_tensor(&[1, 3, 8, 8], 8202))
        .expect("recovered server admits Normal traffic")
        .wait()
        .expect("served");

    // The windowed series and new gauge families made it to the
    // exporter, and the report serialises the shed count.
    let prom = server.render_prometheus();
    for family in [
        "pcnn_build_info{version=",
        "pcnn_uptime_seconds ",
        "pcnn_health_state ",
        "pcnn_health_burn_rate{window=\"fast\"}",
        "pcnn_health_transitions_total ",
        "pcnn_window_completed{window=\"10s\"}",
        "pcnn_requests_shed_total 1",
    ] {
        assert!(prom.contains(family), "missing {family}");
    }
    assert!(server.health().to_json().contains("\"shed\":1"));
}

/// The queue-depth high-watermark satellite end-to-end: a backlogged
/// burst leaves a watermark at least as deep as any sampled gauge
/// reading, observe-only snapshots never clobber it, and only the
/// explicit `snapshot_and_reset` drains it.
#[test]
fn queue_depth_watermark_catches_the_burst_and_resets() {
    let engine = Engine::new(compile_dense(&models::tiny_cnn(4, 4, 17)), 2);
    let server = Server::start(
        engine,
        ServeConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            queue_capacity: 256,
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<_> = (0..64)
        .map(|i| {
            server
                .submit(random_tensor(&[1, 3, 8, 8], 8300 + i))
                .expect("admitted")
        })
        .collect();
    let snap = server.metrics().snapshot();
    assert!(
        snap.queue_depth_hwm >= snap.queue_depth,
        "watermark {} never lags the sampled gauge {}",
        snap.queue_depth_hwm,
        snap.queue_depth
    );
    assert!(
        snap.queue_depth_hwm > 0,
        "a 64-burst must leave a watermark"
    );
    for t in tickets {
        t.wait().expect("served");
    }
    // Observe-only reads are non-destructive: a second snapshot (and
    // the Prometheus render in between) still sees the burst's mark.
    let _ = server.render_prometheus();
    let snap2 = server.metrics().snapshot();
    assert_eq!(
        snap2.queue_depth_hwm, snap.queue_depth_hwm,
        "snapshot must not clobber the watermark"
    );
    assert_eq!(snap2.completed, 64);
    // Only the explicit reset drains it; with no new submissions the
    // next interval's watermark is zero.
    let drained = server.metrics().snapshot_and_reset();
    assert!(drained.queue_depth_hwm >= snap.queue_depth_hwm);
    let snap3 = server.metrics().snapshot();
    assert_eq!(
        snap3.queue_depth_hwm, 0,
        "explicit reset starts a new interval"
    );
}

/// The black-box incident recorder end-to-end: deterministically drive
/// the server `Healthy → Degraded → Overloaded` and back, and assert
/// that exactly one well-formed incident was captured (the follow-up
/// deterioration lands inside the cooldown; recoveries never trigger),
/// with the event journal, health report, and attribution block riding
/// along.
#[test]
fn overload_captures_exactly_one_incident() {
    let engine = Engine::new(compile_dense(&models::tiny_cnn(4, 4, 17)), 2);
    let server = Server::start(
        engine,
        ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            trace: TraceConfig {
                sample_every: 1,
                ring_capacity: 128,
            },
            slo: SloConfig {
                // 1 ns: every completion is an SLO violation.
                latency_target: Duration::from_nanos(1),
                fast_window: Duration::from_secs(5),
                slow_window: Duration::from_secs(60),
                min_samples: 1,
                shed_low_priority: true,
                eval_interval: Duration::from_secs(3600),
                ..SloConfig::default()
            },
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<_> = (0..20)
        .map(|i| {
            server
                .submit(random_tensor(&[1, 3, 8, 8], 8400 + i))
                .expect("admitted")
        })
        .collect();
    for t in tickets {
        t.wait().expect("served");
    }

    // Deterministic deterioration: Degraded captures the incident,
    // Overloaded lands inside the capture cooldown, recovery steps are
    // journal events but never incidents.
    let health = server.health_engine();
    let metrics = server.metrics();
    let now = metrics.now_ns();
    assert_eq!(
        health.evaluate_at(metrics, now).state,
        HealthState::Degraded
    );
    assert_eq!(
        health.evaluate_at(metrics, now).state,
        HealthState::Overloaded
    );
    let later = now + 600 * 1_000_000_000;
    let _ = health.evaluate_at(metrics, later);
    assert_eq!(
        health.evaluate_at(metrics, later).state,
        HealthState::Healthy
    );

    let recorder = server.incidents();
    assert_eq!(recorder.captured(), 1, "exactly one incident");
    assert_eq!(recorder.suppressed(), 1, "the Overloaded step hit cooldown");
    let incidents = recorder.incidents();
    assert_eq!(incidents.len(), 1);
    let incident = &incidents[0];
    assert_eq!(incident.trigger, IncidentTrigger::HealthDegraded);
    assert_eq!(incident.health.state, HealthState::Degraded);
    assert!(
        !incident.events.is_empty(),
        "the health transition must be journaled into the tail"
    );
    assert!(incident
        .events
        .iter()
        .any(|e| e.code == EventCode::HealthTransition));

    // Well-formed snapshot: the documented blocks are present and the
    // JSON is brace-balanced.
    let json = incident.to_json();
    for key in [
        "\"trigger\":\"health_degraded\"",
        "\"build\":{\"version\":\"",
        "\"config\":{\"queue_capacity\":256",
        "\"telemetry\":{",
        "\"health\":{\"state\":\"degraded\"",
        "\"attribution\":{\"analyzed\":",
        "\"events\":[",
    ] {
        assert!(json.contains(key), "missing {key}");
    }
    let depth = json.chars().fold(0i32, |d, c| match c {
        '{' | '[' => d + 1,
        '}' | ']' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0, "incident JSON is balanced");
    assert!(incident.attribution.analyzed > 0, "spans were attributed");

    // All four transitions are in the journal and the telemetry
    // snapshot carries the event tail.
    let transitions = metrics
        .events()
        .events()
        .iter()
        .filter(|e| e.code == EventCode::HealthTransition)
        .count();
    assert_eq!(transitions, 4, "all four transitions journaled");
    let snap = metrics.snapshot();
    assert!(snap.events_emitted >= 4);
    assert!(!snap.event_tail.is_empty());

    // One-call diagnostics bypasses the incident ring. (It evaluates
    // health at the real clock — where the violating burst is still
    // in-window — so it may journal a fresh transition; that is fine.)
    let diag = server.diagnostics();
    assert_eq!(diag.trigger, IncidentTrigger::OnDemand);
    assert_eq!(recorder.captured(), 1, "diagnostics is not an incident");
}

/// Priorities, shutdown accounting, and post-shutdown rejection on a
/// small dense model.
#[test]
fn lifecycle_priorities_and_shutdown_accounting() {
    let engine = Engine::new(compile_dense(&models::tiny_cnn(4, 4, 17)), 2);
    let server = Server::start(
        engine,
        ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<_> = (0..10)
        .map(|i| {
            let pri = if i % 3 == 0 {
                Priority::High
            } else {
                Priority::Normal
            };
            server
                .submit_with_priority(random_tensor(&[1, 3, 8, 8], 600 + i), pri)
                .expect("admitted")
        })
        .collect();
    for t in tickets {
        t.wait().expect("served");
    }
    let report = server.shutdown(ShutdownMode::Drain);
    assert_eq!(report.completed, 10);
    assert_eq!(report.aborted, 0);
    assert_eq!(report.rejected_at_shutdown, 0);
}

/// Work-conserving coalescing end to end: a lone request to an idle
/// server dispatches at once instead of holding its batch open for
/// `max_wait`, and its span shows a coalesce segment far below the
/// window.
#[test]
fn idle_server_dispatches_a_lone_request_without_waiting_out_max_wait() {
    let max_wait = Duration::from_millis(500);
    let engine = Engine::new(compile_dense(&models::tiny_cnn(4, 4, 17)), 2);
    let server = Server::start(
        engine,
        ServeConfig {
            max_wait,
            trace: TraceConfig {
                sample_every: 1,
                ring_capacity: 16,
            },
            ..ServeConfig::default()
        },
    );
    let x = random_tensor(&[1, 3, 8, 8], 900);
    let want = server.engine().infer(&x);
    let t0 = Instant::now();
    let ticket = server.submit(x).expect("admitted");
    let id = ticket.request_id();
    let got = ticket.wait().expect("served");
    let elapsed = t0.elapsed();
    pcnn::tensor::assert_slices_close(got.as_slice(), want.as_slice(), 1e-5);
    assert!(
        elapsed < max_wait / 2,
        "an idle server must not hold a lone request for {max_wait:?} (took {elapsed:?})"
    );
    let span = server
        .flight_recorder()
        .spans()
        .into_iter()
        .find(|s| s.id == id)
        .expect("the request's span is recorded before its ticket resolves");
    assert_eq!(span.batch_len, 1);
    let coalesce = Duration::from_nanos(span.coalesced_ns - span.dequeued_ns);
    assert!(
        coalesce < max_wait / 10,
        "coalesce segment {coalesce:?} must be far below max_wait {max_wait:?}"
    );
    let report = server.shutdown(ShutdownMode::Drain);
    assert_eq!(report.completed, 1);
}
