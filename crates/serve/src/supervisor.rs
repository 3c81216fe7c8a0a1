//! Shard supervision: heartbeats, automatic batcher restarts, retry
//! budgets, and the per-shard circuit breaker.
//!
//! A served request's worst enemy is not a failed inference — the
//! engine already contains chunk panics and fails the affected tickets
//! — but a **dead batcher**: a panicked or wedged consumer thread whose
//! in-flight tickets would otherwise hang their waiters forever. The
//! [`Supervisor`] is the recovery layer above the batchers:
//!
//! * **Heartbeats.** Every batcher publishes a phase
//!   (idle / active / stopped / dead) and a beat timestamp on the
//!   server's epoch clock. Idle batchers (parked on an empty queue) are
//!   exempt from staleness; an *active* batcher whose beat goes stale
//!   past [`SupervisorConfig::stall_timeout`] is declared wedged. A
//!   panic is caught structurally: a drop guard flips the phase to
//!   `dead` during unwind, so crashes are detected on the next tick
//!   without waiting out the stall timeout.
//! * **In-flight registry.** Each popped request is registered
//!   (ticket cell + precision) until its completion callback claims it
//!   back. Claiming is a single `HashMap::remove` under a mutex, so
//!   when the supervisor tears a dead shard down it can *drain* the
//!   registry and fail every orphaned ticket with
//!   [`ServeError::ShardFailed`] — and a late engine callback that
//!   raced the drain finds its entry gone and skips, which is what
//!   makes "every submit resolves exactly once" hold through a crash.
//! * **Restarts.** A dead shard's engine pool is torn down and
//!   respawned from the shared compiled graph
//!   ([`Engine::respawn`] — graph and profiler are `Arc`-shared, only
//!   the worker pool is rebuilt), a fresh batcher generation is
//!   spawned, and the restart is journaled (`shard_restart`) and
//!   captured as an incident. Generations make stale threads inert: a
//!   wedged batcher that eventually wakes sees the bumped generation
//!   and exits without touching the queue.
//! * **Circuit breaker.** More than [`SupervisorConfig::max_restarts`]
//!   deaths inside [`SupervisorConfig::restart_window`] trip the
//!   shard's breaker to `Open`: no respawn, and (with a shared queue)
//!   surviving shards keep serving the backlog. After
//!   [`SupervisorConfig::open_duration`] the breaker half-opens with a
//!   probe batcher; [`SupervisorConfig::probe_batches`] completed
//!   batches close it again, another death reopens it.
//! * **Retry budget.** Transient engine faults are retried on a
//!   *different* shard under [`RetryPolicy`], metered by a per-shard
//!   token bucket ([`RetryBudget`]) refilled by completions — a
//!   persistent fault burns its budget and degrades to plain failures
//!   instead of amplifying load, and no retries are attempted while
//!   the health engine reports `Overloaded`.
//!
//! The supervisor thread is a cheap periodic tick (a fraction of the
//! stall timeout): per shard, two relaxed atomic loads in the common
//! healthy case. All coordination with batchers goes through the slot
//! structures in this module; the batcher's hot path pays one registry
//! insert/remove per request and one heartbeat store per loop.

use crate::batcher::Request;
use crate::events::{EventCode, Severity};
use crate::incident::IncidentRecorder;
use crate::metrics::ServerMetrics;
use crate::queue::{BoundedQueue, Priority};
use crate::ticket::{ServeError, TicketCell};
use pcnn_runtime::{Engine, Precision};
use pcnn_sync::atomic::{AtomicU64, Ordering};
use pcnn_sync::{thread, Arc, Condvar, Mutex};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Retry policy for transient engine faults, applied per failed
/// request in the dispatch completion callback.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts a request gets (first try included). `1` — the
    /// default — disables retries entirely, and the batchers then skip
    /// the input clone retries would need.
    pub max_attempts: u32,
    /// Delay before a retry re-enters the queue. Zero (default)
    /// re-queues immediately from the completion callback; non-zero
    /// delays are parked and flushed by the supervisor tick (so they
    /// require supervision to be enabled).
    pub backoff: Duration,
    /// Retry-budget tokens earned per completed request (token-bucket
    /// refill rate). `0.1` means one retry is earned per ten
    /// completions.
    pub budget_ratio: f64,
    /// Cap of the retry budget (burst size). The bucket starts full.
    pub budget_burst: u32,
}

impl Default for RetryPolicy {
    /// Retries off (`max_attempts: 1`); budget knobs at one retry per
    /// ten completions, burst of 16, for servers that turn them on.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
            budget_ratio: 0.1,
            budget_burst: 16,
        }
    }
}

/// Knobs of the shard supervisor.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Whether the supervisor thread runs at all. Off, batcher panics
    /// still fail fast (their tickets resolve at shutdown) but nothing
    /// restarts shards; the slot bookkeeping stays inert.
    pub enabled: bool,
    /// How long an **active** batcher's heartbeat may go stale before
    /// the shard is declared wedged. Must comfortably exceed
    /// `max_wait` plus the slowest expected batch service time —
    /// heartbeats advance on dispatch progress, not on a timer.
    pub stall_timeout: Duration,
    /// Deaths tolerated inside [`SupervisorConfig::restart_window`]
    /// before the shard's circuit breaker opens instead of respawning.
    pub max_restarts: u32,
    /// Trailing window the death count is evaluated over.
    pub restart_window: Duration,
    /// How long an open breaker waits before half-opening a probe.
    pub open_duration: Duration,
    /// Completed batches a half-open probe must serve before the
    /// breaker closes again.
    pub probe_batches: u64,
}

impl Default for SupervisorConfig {
    /// Supervision on: 1 s stall timeout, breaker at 3 deaths per
    /// 10 s, 2 s open, 4 probe batches.
    fn default() -> Self {
        SupervisorConfig {
            enabled: true,
            stall_timeout: Duration::from_secs(1),
            max_restarts: 3,
            restart_window: Duration::from_secs(10),
            open_duration: Duration::from_secs(2),
            probe_batches: 4,
        }
    }
}

/// Batcher lifecycle phase, published in the heartbeat. Idle batchers
/// (parked on an empty queue) are exempt from stall detection.
pub(crate) const PHASE_IDLE: u64 = 0;
/// The batcher holds work (popped, coalescing, or dispatching).
pub(crate) const PHASE_ACTIVE: u64 = 1;
/// The batcher exited cleanly (queue closed, or stale generation).
pub(crate) const PHASE_STOPPED: u64 = 2;
/// The batcher thread panicked (set by the unwind guard).
pub(crate) const PHASE_DEAD: u64 = 3;

/// One shard's liveness signal: a phase and a beat timestamp on the
/// server's epoch clock, both written by the batcher, read by the
/// supervisor tick.
#[derive(Debug)]
pub(crate) struct Heartbeat {
    phase: AtomicU64,
    beat_ns: AtomicU64,
}

impl Heartbeat {
    fn new() -> Self {
        Heartbeat {
            phase: AtomicU64::new(PHASE_IDLE),
            beat_ns: AtomicU64::new(0),
        }
    }

    /// Publishes liveness at `now_ns`.
    pub(crate) fn beat(&self, now_ns: u64) {
        // ordering: the beat is a freshness timestamp, not a
        // publication of other state; a supervisor read delayed by one
        // tick only delays detection, never corrupts it (teardown is
        // serialized by the registry mutex).
        self.beat_ns.store(now_ns, Ordering::Relaxed);
    }

    /// Publishes the lifecycle phase.
    pub(crate) fn set_phase(&self, phase: u64) {
        // ordering: see `beat` — detection tolerates one tick of lag,
        // and every correctness-bearing handoff rides the registry and
        // slot mutexes instead.
        self.phase.store(phase, Ordering::Relaxed);
    }

    pub(crate) fn phase(&self) -> u64 {
        // ordering: supervisor-side freshness read; see `beat`.
        self.phase.load(Ordering::Relaxed)
    }

    fn beat_ns(&self) -> u64 {
        // ordering: supervisor-side freshness read; see `beat`.
        self.beat_ns.load(Ordering::Relaxed)
    }
}

/// Unwind guard a batcher holds for its whole run: drop during a panic
/// publishes `dead` (crash detection without waiting out the stall
/// timeout), a clean drop publishes `stopped`. A stale generation —
/// the supervisor already moved on — never clobbers the phase of its
/// replacement.
pub(crate) struct HeartbeatGuard {
    slot: Arc<ShardSlot>,
    generation: u64,
}

impl HeartbeatGuard {
    pub(crate) fn new(slot: Arc<ShardSlot>, generation: u64) -> Self {
        HeartbeatGuard { slot, generation }
    }
}

impl Drop for HeartbeatGuard {
    fn drop(&mut self) {
        // ordering: generation gate only — a stale thread must not
        // write over the live generation's phase; the supervisor's
        // bump happened before this thread could observe it as stale.
        if self.slot.generation.load(Ordering::Relaxed) != self.generation {
            return;
        }
        self.slot.heartbeat.set_phase(if thread::panicking() {
            PHASE_DEAD
        } else {
            PHASE_STOPPED
        });
    }
}

/// What the registry remembers about an in-flight request: enough to
/// fail its ticket with attribution if the shard dies under it.
pub(crate) struct InflightEntry {
    pub(crate) cell: Arc<TicketCell>,
    pub(crate) precision: Precision,
}

/// The set of requests a shard has popped and not yet resolved.
/// Exactly-once resolution between the engine callback and the
/// supervisor's teardown is decided here: whoever removes an entry
/// owns completing (and accounting) its ticket.
#[derive(Default)]
pub(crate) struct InflightRegistry {
    map: Mutex<HashMap<u64, InflightEntry>>,
}

impl InflightRegistry {
    /// Registers a popped request under its trace ID.
    pub(crate) fn register(&self, id: u64, entry: InflightEntry) {
        self.map
            .lock()
            .expect("inflight registry poisoned")
            .insert(id, entry);
    }

    /// Claims a request back for resolution. `None` means someone else
    /// (the supervisor's drain, or a racing claim) already owns it —
    /// the caller must not touch the ticket.
    pub(crate) fn claim(&self, id: u64) -> Option<InflightEntry> {
        self.map
            .lock()
            .expect("inflight registry poisoned")
            .remove(&id)
    }

    /// Empties the registry, returning every orphaned entry. Called by
    /// the supervisor with the dead generation already bumped; tickets
    /// are completed *outside* the lock.
    pub(crate) fn drain(&self) -> Vec<InflightEntry> {
        let mut map = self.map.lock().expect("inflight registry poisoned");
        map.drain().map(|(_, e)| e).collect()
    }

    /// Requests currently registered (tests and introspection).
    pub(crate) fn len(&self) -> usize {
        self.map.lock().expect("inflight registry poisoned").len()
    }
}

/// Token bucket metering retries, in milli-tokens so fractional refill
/// ratios stay integer arithmetic. Starts full (burst capacity);
/// completions refill it, each retry spends one whole token.
pub(crate) struct RetryBudget {
    milli: AtomicU64,
    refill_milli: u64,
    cap_milli: u64,
}

impl RetryBudget {
    pub(crate) fn new(policy: &RetryPolicy) -> Self {
        let cap_milli = u64::from(policy.budget_burst) * 1000;
        RetryBudget {
            milli: AtomicU64::new(cap_milli),
            refill_milli: (policy.budget_ratio.max(0.0) * 1000.0) as u64,
            cap_milli,
        }
    }

    /// Credits one completion toward future retries.
    pub(crate) fn on_success(&self) {
        if self.refill_milli == 0 || self.cap_milli == 0 {
            return;
        }
        // ordering: budget accounting only; the CAS loop itself keeps
        // the balance consistent, and no other memory is published
        // through it.
        let mut cur = self.milli.load(Ordering::Relaxed);
        loop {
            let next = (cur + self.refill_milli).min(self.cap_milli);
            if next == cur {
                return;
            }
            // ordering: see the budget-accounting contract above.
            match self
                .milli
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Spends one token; `false` means the budget is exhausted and the
    /// fault must fail through instead of retrying.
    pub(crate) fn try_acquire(&self) -> bool {
        // ordering: see the budget-accounting contract in `on_success`
        // — the CAS guarantees each token is spent at most once.
        let mut cur = self.milli.load(Ordering::Relaxed);
        while cur >= 1000 {
            // ordering: see the budget-accounting contract above.
            match self.milli.compare_exchange_weak(
                cur,
                cur - 1000,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
        false
    }

    /// Whole tokens currently available (tests and introspection).
    pub(crate) fn tokens(&self) -> u64 {
        // ordering: statistics read; readers tolerate lag.
        self.milli.load(Ordering::Relaxed) / 1000
    }
}

/// Public circuit-breaker state of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; deaths respawn the shard.
    Closed,
    /// Too many deaths: the shard stays down (its backlog drains
    /// through the other shards of the shared queue).
    Open,
    /// A probe batcher is serving; enough completed batches close the
    /// breaker, another death reopens it.
    HalfOpen,
}

impl BreakerState {
    /// Stable snake_case label.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Stable numeric code (the `circuit_breaker` event's `b` field
    /// and the Prometheus gauge value): 0 closed, 1 open, 2 half-open.
    pub fn code(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What a death does to the breaker.
#[derive(Debug, PartialEq, Eq)]
enum DeathAction {
    /// Under the restart budget: respawn the shard.
    Respawn,
    /// Budget exceeded (or the probe died): stay down, breaker open.
    Open,
}

/// Mutex-guarded breaker bookkeeping of one shard. Pure state-machine
/// logic, separated from the supervisor's side effects so it unit-tests
/// without threads.
#[derive(Debug, Default)]
struct BreakerInner {
    state_code: u64,
    /// Epoch-ns instant an open breaker may half-open.
    open_until_ns: u64,
    /// `batches` counter reading when the probe started.
    probe_baseline: u64,
    /// Epoch-ns stamps of recent deaths, pruned to the restart window.
    death_stamps: Vec<u64>,
}

impl BreakerInner {
    fn state(&self) -> BreakerState {
        match self.state_code {
            1 => BreakerState::Open,
            2 => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Registers a death at `now_ns` and decides the shard's fate. A
    /// death during a half-open probe always reopens.
    fn on_death(&mut self, now_ns: u64, cfg: &SupervisorConfig) -> DeathAction {
        if self.state() == BreakerState::HalfOpen {
            self.state_code = BreakerState::Open.code();
            self.open_until_ns = now_ns.saturating_add(ns(cfg.open_duration));
            return DeathAction::Open;
        }
        let window = ns(cfg.restart_window);
        self.death_stamps
            .retain(|&t| now_ns.saturating_sub(t) < window);
        self.death_stamps.push(now_ns);
        if self.death_stamps.len() > cfg.max_restarts as usize {
            self.state_code = BreakerState::Open.code();
            self.open_until_ns = now_ns.saturating_add(ns(cfg.open_duration));
            DeathAction::Open
        } else {
            DeathAction::Respawn
        }
    }

    /// Whether an open breaker is due to half-open at `now_ns`; flips
    /// the state and records the probe baseline when it is.
    fn try_half_open(&mut self, now_ns: u64, batches_now: u64) -> bool {
        if self.state() == BreakerState::Open && now_ns >= self.open_until_ns {
            self.state_code = BreakerState::HalfOpen.code();
            self.probe_baseline = batches_now;
            true
        } else {
            false
        }
    }

    /// Whether a half-open probe has served enough batches to close;
    /// flips the state (and forgives past deaths) when it has.
    fn try_close(&mut self, batches_now: u64, cfg: &SupervisorConfig) -> bool {
        if self.state() == BreakerState::HalfOpen
            && batches_now.saturating_sub(self.probe_baseline) >= cfg.probe_batches
        {
            self.state_code = BreakerState::Closed.code();
            self.death_stamps.clear();
            true
        } else {
            false
        }
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Everything the supervisor tracks about one shard. The batcher holds
/// an `Arc` to its slot (heartbeat, generation, registry, budget); the
/// supervisor holds the same `Arc`s plus the engine and thread handle
/// it replaces on restart.
pub(crate) struct ShardSlot {
    pub(crate) index: usize,
    /// The shard's current engine. Replaced wholesale on restart —
    /// late callbacks of the previous engine keep their own `Arc` and
    /// find their registry entries already drained.
    pub(crate) engine: Mutex<Arc<Engine>>,
    pub(crate) heartbeat: Heartbeat,
    /// Bumped on every restart; a batcher observing a generation newer
    /// than its own exits without touching the queue.
    pub(crate) generation: AtomicU64,
    pub(crate) registry: InflightRegistry,
    pub(crate) budget: RetryBudget,
    pub(crate) handle: Mutex<Option<thread::JoinHandle<()>>>,
    breaker: Mutex<BreakerInner>,
    restarts: AtomicU64,
}

impl ShardSlot {
    pub(crate) fn new(index: usize, engine: Arc<Engine>, retry: &RetryPolicy) -> Arc<Self> {
        Arc::new(ShardSlot {
            index,
            engine: Mutex::new(engine),
            heartbeat: Heartbeat::new(),
            generation: AtomicU64::new(0),
            registry: InflightRegistry::default(),
            budget: RetryBudget::new(retry),
            handle: Mutex::new(None),
            breaker: Mutex::new(BreakerInner::default()),
            restarts: AtomicU64::new(0),
        })
    }

    /// This shard's current breaker state.
    pub(crate) fn breaker_state(&self) -> BreakerState {
        self.breaker.lock().expect("breaker poisoned").state()
    }

    /// Lifetime restarts of this shard.
    pub(crate) fn restart_count(&self) -> u64 {
        // ordering: Acquire pairs with the Release bump in `respawn`, so
        // a reader of the count also sees that restart's journal event
        // and incident capture.
        self.restarts.load(Ordering::Acquire)
    }

    /// The batcher generation currently authoritative for this shard.
    pub(crate) fn current_generation(&self) -> u64 {
        // ordering: a stale read only delays a retiring thread by one
        // loop iteration; the supervisor's teardown does not depend on
        // when the old thread notices.
        self.generation.load(Ordering::Relaxed)
    }
}

/// A shard's supervision status, for tests and operators
/// ([`crate::Server::shard_status`]).
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// Batcher generation currently serving (0 = the original).
    pub generation: u64,
    /// Times the supervisor restarted this shard.
    pub restarts: u64,
    /// Circuit-breaker state.
    pub breaker: BreakerState,
    /// Requests popped by this shard and not yet resolved.
    pub inflight_registered: usize,
    /// Whole retry tokens currently available.
    pub retry_tokens: u64,
}

/// A retry parked until its backoff elapses, flushed by the supervisor
/// tick (or failed at shutdown).
pub(crate) struct DelayedRetry {
    pub(crate) due: Instant,
    pub(crate) request: Request,
}

/// The spawn hook the server installs: given a slot and the generation
/// to run as, start a batcher thread for it. Lives in `lib.rs` so the
/// supervisor never constructs a `BatcherContext` itself.
pub(crate) type SpawnFn = Box<dyn Fn(Arc<ShardSlot>, u64) -> thread::JoinHandle<()> + Send + Sync>;

struct StopSignal {
    stop: Mutex<bool>,
    wake: Condvar,
}

/// The supervisor: owns the shard slots and (when enabled) a monitor
/// thread driving detection, teardown, respawn, the circuit breakers,
/// and delayed-retry flushing.
pub(crate) struct Supervisor {
    config: SupervisorConfig,
    slots: Vec<Arc<ShardSlot>>,
    delayed: Arc<Mutex<Vec<DelayedRetry>>>,
    queue: Arc<BoundedQueue<Request>>,
    metrics: Arc<ServerMetrics>,
    incidents: Arc<IncidentRecorder>,
    spawn: SpawnFn,
    stop: StopSignal,
    monitor: Mutex<Option<thread::JoinHandle<()>>>,
}

impl Supervisor {
    /// Builds the supervisor over already-spawned generation-0 batchers
    /// and starts the monitor thread when supervision is enabled.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start(
        config: SupervisorConfig,
        slots: Vec<Arc<ShardSlot>>,
        delayed: Arc<Mutex<Vec<DelayedRetry>>>,
        queue: Arc<BoundedQueue<Request>>,
        metrics: Arc<ServerMetrics>,
        incidents: Arc<IncidentRecorder>,
        spawn: SpawnFn,
    ) -> Arc<Supervisor> {
        let enabled = config.enabled;
        let sup = Arc::new(Supervisor {
            config,
            slots,
            delayed,
            queue,
            metrics,
            incidents,
            spawn,
            stop: StopSignal {
                stop: Mutex::new(false),
                wake: Condvar::new(),
            },
            monitor: Mutex::new(None),
        });
        if enabled {
            let me = Arc::clone(&sup);
            let handle = thread::Builder::new()
                .name("pcnn-serve-supervisor".to_string())
                .spawn(move || me.run())
                .expect("spawn supervisor thread");
            *sup.monitor.lock().expect("monitor handle poisoned") = Some(handle);
        }
        sup
    }

    /// The monitor loop: sleep a tick (interruptible by stop), flush
    /// due retries, evaluate every slot.
    fn run(&self) {
        let tick = self
            .config
            .stall_timeout
            .checked_div(4)
            .unwrap_or(Duration::from_millis(250))
            .clamp(Duration::from_millis(2), Duration::from_millis(250));
        loop {
            {
                let guard = self.stop.stop.lock().expect("stop flag poisoned");
                if *guard {
                    return;
                }
                let (guard, _) = self
                    .stop
                    .wake
                    .wait_timeout(guard, tick)
                    .expect("stop wait poisoned");
                if *guard {
                    return;
                }
            }
            self.flush_due_retries();
            let now_ns = self.metrics.now_ns();
            for slot in &self.slots {
                self.evaluate_slot(slot, now_ns);
            }
        }
    }

    /// One tick's worth of decisions for one shard.
    fn evaluate_slot(&self, slot: &Arc<ShardSlot>, now_ns: u64) {
        let state = slot.breaker_state();
        match state {
            BreakerState::Open => {
                let opened = {
                    let mut b = slot.breaker.lock().expect("breaker poisoned");
                    b.try_half_open(now_ns, self.batches_of(slot))
                };
                if opened {
                    self.emit_breaker(slot, BreakerState::HalfOpen);
                    self.respawn(slot, now_ns);
                }
            }
            BreakerState::Closed | BreakerState::HalfOpen => {
                let phase = slot.heartbeat.phase();
                if phase == PHASE_DEAD {
                    self.handle_death(slot, now_ns, true);
                } else if phase == PHASE_ACTIVE
                    && now_ns.saturating_sub(slot.heartbeat.beat_ns())
                        > ns(self.config.stall_timeout)
                {
                    self.handle_death(slot, now_ns, false);
                } else if state == BreakerState::HalfOpen {
                    let closed = {
                        let mut b = slot.breaker.lock().expect("breaker poisoned");
                        b.try_close(self.batches_of(slot), &self.config)
                    };
                    if closed {
                        self.emit_breaker(slot, BreakerState::Closed);
                    }
                }
            }
        }
    }

    fn batches_of(&self, slot: &ShardSlot) -> u64 {
        self.metrics.shard(slot.index).batches.get()
    }

    fn emit_breaker(&self, slot: &ShardSlot, state: BreakerState) {
        self.metrics.events().emit(
            EventCode::CircuitBreaker,
            if state == BreakerState::Open {
                Severity::Error
            } else {
                Severity::Warn
            },
            slot.index as u64,
            state.code(),
        );
    }

    /// Tears a dead shard down: retire the generation, fail every
    /// orphaned in-flight ticket with attribution, then either respawn
    /// or open the breaker.
    fn handle_death(&self, slot: &Arc<ShardSlot>, now_ns: u64, crashed: bool) {
        // Retire the generation FIRST: from here on the old thread (if
        // it is merely wedged and wakes later) is inert, and any late
        // engine callback resolves against the drained registry.
        // ordering: the registry mutex below is the real
        // synchronization point for ticket handoff; the bump only has
        // to be visible eventually to the retiring thread.
        slot.generation.fetch_add(1, Ordering::Relaxed);
        slot.heartbeat.set_phase(PHASE_STOPPED);
        self.fail_inflight(slot);
        let handle = slot.handle.lock().expect("slot handle poisoned").take();
        if crashed {
            // A panicked thread is already unwinding; join reaps it
            // (and waits out the old engine pool's teardown).
            if let Some(h) = handle {
                let _ = h.join();
            }
        }
        // A wedged thread is NOT joined — it may be blocked inside the
        // stalled engine for a long time; dropping the handle detaches
        // it, and the generation bump retires it whenever it wakes.
        let action = {
            let mut b = slot.breaker.lock().expect("breaker poisoned");
            b.on_death(now_ns, &self.config)
        };
        match action {
            DeathAction::Respawn => self.respawn(slot, now_ns),
            DeathAction::Open => self.emit_breaker(slot, BreakerState::Open),
        }
    }

    /// Fails every ticket the dead generation left in its registry.
    fn fail_inflight(&self, slot: &Arc<ShardSlot>) {
        let orphans = slot.registry.drain();
        if orphans.is_empty() {
            return;
        }
        let shard = self.metrics.shard(slot.index);
        for entry in orphans {
            shard.failed.inc();
            shard.precision(entry.precision).failed.inc();
            shard.window_failed(entry.precision);
            entry.cell.complete(Err(ServeError::ShardFailed));
        }
    }

    /// Rebuilds the shard's engine pool from the shared graph and
    /// spawns the next batcher generation.
    fn respawn(&self, slot: &Arc<ShardSlot>, _now_ns: u64) {
        let fresh = {
            let mut engine = slot.engine.lock().expect("slot engine poisoned");
            let fresh = Arc::new(engine.respawn());
            *engine = Arc::clone(&fresh);
            fresh
        };
        drop(fresh);
        let generation = slot.current_generation();
        slot.heartbeat.beat(self.metrics.now_ns());
        slot.heartbeat.set_phase(PHASE_IDLE);
        let handle = (self.spawn)(Arc::clone(slot), generation);
        *slot.handle.lock().expect("slot handle poisoned") = Some(handle);
        self.metrics.events().emit(
            EventCode::ShardRestart,
            Severity::Warn,
            slot.index as u64,
            generation,
        );
        self.incidents.on_shard_restart();
        // The counters go last: whoever observes the new restart count
        // also finds the journal event and the incident capture.
        self.metrics.shard_restarts.inc();
        // ordering: Release pairs with `restart_count`'s Acquire load,
        // publishing the event emit and incident capture above.
        slot.restarts.fetch_add(1, Ordering::Release);
    }

    /// Re-queues every delayed retry whose backoff has elapsed. A push
    /// that fails (queue full or closed) fails the ticket with the
    /// fault that caused the retry — never silently dropped.
    fn flush_due_retries(&self) {
        let now = Instant::now();
        let due: Vec<DelayedRetry> = {
            let mut delayed = self.delayed.lock().expect("delayed retries poisoned");
            let mut due = Vec::new();
            let mut i = 0;
            while i < delayed.len() {
                if delayed[i].due <= now {
                    due.push(delayed.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            due
        };
        for d in due {
            self.push_or_fail(d.request);
        }
    }

    fn push_or_fail(&self, request: Request) {
        let origin = request.avoid_shard.unwrap_or(0);
        let cell = request.cell.clone();
        let precision = request.precision;
        if self.queue.try_push(request, Priority::High).is_err() {
            // Charge the failure to the shard whose fault triggered
            // the retry — that is where the request actually died.
            let shard = self
                .metrics
                .shard(origin.min(self.metrics.shard_count() - 1));
            shard.failed.inc();
            shard.precision(precision).failed.inc();
            shard.window_failed(precision);
            cell.complete(Err(ServeError::EngineFault));
        }
    }

    /// Fails every still-parked retry (shutdown: the queue is closed,
    /// so re-queueing is pointless) — the last step that guarantees no
    /// parked ticket outlives the server unresolved.
    pub(crate) fn final_flush(&self) {
        let parked: Vec<DelayedRetry> = {
            let mut delayed = self.delayed.lock().expect("delayed retries poisoned");
            std::mem::take(&mut *delayed)
        };
        for d in parked {
            self.push_or_fail(d.request);
        }
    }

    /// Stops the monitor thread (idempotent).
    pub(crate) fn stop_and_join(&self) {
        {
            let mut stop = self.stop.stop.lock().expect("stop flag poisoned");
            *stop = true;
        }
        self.stop.wake.notify_all();
        let handle = self.monitor.lock().expect("monitor handle poisoned").take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    /// Joins every live batcher (shutdown path; dead shards have no
    /// handle and are skipped).
    pub(crate) fn join_batchers(&self) {
        for slot in &self.slots {
            let handle = slot.handle.lock().expect("slot handle poisoned").take();
            if let Some(h) = handle {
                let _ = h.join();
            }
        }
    }

    /// Fails whatever the dead shards' registries still hold (shutdown
    /// path, after the live batchers joined).
    pub(crate) fn fail_orphans(&self) {
        for slot in &self.slots {
            self.fail_inflight(slot);
        }
    }

    /// The supervision status of shard `i`.
    pub(crate) fn status(&self, i: usize) -> ShardStatus {
        let slot = &self.slots[i];
        ShardStatus {
            shard: i,
            generation: slot.current_generation(),
            restarts: slot.restart_count(),
            breaker: slot.breaker_state(),
            inflight_registered: slot.registry.len(),
            retry_tokens: slot.budget.tokens(),
        }
    }

    pub(crate) fn slots(&self) -> &[Arc<ShardSlot>] {
        &self.slots
    }
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("config", &self.config)
            .field("shards", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SupervisorConfig {
        SupervisorConfig {
            max_restarts: 2,
            restart_window: Duration::from_secs(10),
            open_duration: Duration::from_secs(1),
            probe_batches: 3,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn breaker_respawns_until_the_restart_budget_is_spent() {
        let mut b = BreakerInner::default();
        let c = cfg();
        assert_eq!(b.on_death(1_000, &c), DeathAction::Respawn);
        assert_eq!(b.on_death(2_000, &c), DeathAction::Respawn);
        assert_eq!(
            b.on_death(3_000, &c),
            DeathAction::Open,
            "third death in window trips"
        );
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn deaths_outside_the_window_are_forgiven() {
        let mut b = BreakerInner::default();
        let c = cfg();
        let window = ns(c.restart_window);
        assert_eq!(b.on_death(0, &c), DeathAction::Respawn);
        assert_eq!(b.on_death(1, &c), DeathAction::Respawn);
        // Both early stamps age out before the next death.
        assert_eq!(b.on_death(window + 10, &c), DeathAction::Respawn);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_half_opens_probes_and_closes() {
        let mut b = BreakerInner::default();
        let c = cfg();
        for t in [10, 20, 30] {
            let _ = b.on_death(t, &c);
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.try_half_open(40, 100), "open holds until open_duration");
        let reopen_at = 30 + ns(c.open_duration);
        assert!(b.try_half_open(reopen_at, 100));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(
            !b.try_close(102, &c),
            "probe needs probe_batches completions"
        );
        assert!(b.try_close(103, &c));
        assert_eq!(b.state(), BreakerState::Closed);
        // Closing forgives history: the next death respawns again.
        assert_eq!(b.on_death(reopen_at + 1, &c), DeathAction::Respawn);
    }

    #[test]
    fn probe_death_reopens_immediately() {
        let mut b = BreakerInner::default();
        let c = cfg();
        for t in [10, 20, 30] {
            let _ = b.on_death(t, &c);
        }
        let reopen_at = 30 + ns(c.open_duration);
        assert!(b.try_half_open(reopen_at, 0));
        assert_eq!(b.on_death(reopen_at + 5, &c), DeathAction::Open);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn retry_budget_starts_full_spends_whole_tokens_and_refills_capped() {
        let budget = RetryBudget::new(&RetryPolicy {
            budget_ratio: 0.5,
            budget_burst: 2,
            ..RetryPolicy::default()
        });
        assert_eq!(budget.tokens(), 2);
        assert!(budget.try_acquire());
        assert!(budget.try_acquire());
        assert!(!budget.try_acquire(), "burst spent");
        budget.on_success();
        assert!(!budget.try_acquire(), "half a token is not a retry");
        budget.on_success();
        assert!(budget.try_acquire(), "two completions earned one retry");
        for _ in 0..100 {
            budget.on_success();
        }
        assert_eq!(budget.tokens(), 2, "refill caps at the burst");
    }

    #[test]
    fn zero_ratio_budget_never_refills() {
        let budget = RetryBudget::new(&RetryPolicy {
            budget_ratio: 0.0,
            budget_burst: 1,
            ..RetryPolicy::default()
        });
        assert!(budget.try_acquire());
        budget.on_success();
        assert!(!budget.try_acquire());
    }

    #[test]
    fn registry_claim_and_drain_are_exclusive() {
        let reg = InflightRegistry::default();
        reg.register(
            7,
            InflightEntry {
                cell: TicketCell::new(),
                precision: Precision::F32,
            },
        );
        reg.register(
            8,
            InflightEntry {
                cell: TicketCell::new(),
                precision: Precision::F32,
            },
        );
        assert_eq!(reg.len(), 2);
        assert!(reg.claim(7).is_some());
        assert!(reg.claim(7).is_none(), "claims are consume-once");
        let orphans = reg.drain();
        assert_eq!(orphans.len(), 1);
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn heartbeat_guard_reports_panic_as_dead_and_exit_as_stopped() {
        let engine = Arc::new(Engine::new(
            pcnn_runtime::compile::compile_dense(&pcnn_nn::models::tiny_cnn(3, 4, 1)),
            1,
        ));
        let slot = ShardSlot::new(0, engine, &RetryPolicy::default());
        {
            let clean = HeartbeatGuard::new(Arc::clone(&slot), 0);
            drop(clean);
        }
        assert_eq!(slot.heartbeat.phase(), PHASE_STOPPED);
        let panicking = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                let _guard = HeartbeatGuard::new(slot, 0);
                panic!("injected");
            })
        };
        assert!(panicking.join().is_err());
        assert_eq!(slot.heartbeat.phase(), PHASE_DEAD);
        // A stale generation's guard must not clobber the live phase.
        slot.heartbeat.set_phase(PHASE_ACTIVE);
        // ordering: test-side setup store.
        slot.generation.store(3, Ordering::Relaxed);
        drop(HeartbeatGuard::new(Arc::clone(&slot), 2));
        assert_eq!(slot.heartbeat.phase(), PHASE_ACTIVE, "stale guard is inert");
    }
}

/// Interleaving tests for the exactly-once handoffs this module's
/// recovery paths rest on, under the deterministic model checker.
#[cfg(all(test, any(pcnn_model_check, feature = "model-check")))]
mod model_tests {
    use super::*;
    use crate::ticket::Ticket;
    use pcnn_sync::model::{check, CheckOptions};
    use pcnn_tensor::Tensor;

    fn opts() -> CheckOptions {
        CheckOptions {
            exhaustive_schedules: 2_000,
            random_schedules: 1_000,
            ..CheckOptions::default()
        }
    }

    /// The engine callback and the supervisor's teardown race for the
    /// same in-flight entry; exactly one side may own the ticket.
    #[test]
    fn claim_vs_drain_hands_each_entry_to_exactly_one_owner() {
        let report = check("supervisor-claim-vs-drain", opts(), || {
            let reg = Arc::new(InflightRegistry::default());
            reg.register(
                1,
                InflightEntry {
                    cell: TicketCell::new(),
                    precision: Precision::F32,
                },
            );
            let claimer = {
                let reg = Arc::clone(&reg);
                thread::spawn(move || reg.claim(1).is_some())
            };
            let drainer = {
                let reg = Arc::clone(&reg);
                thread::spawn(move || reg.drain().len())
            };
            let claimed = claimer.join().unwrap();
            let drained = drainer.join().unwrap();
            assert_eq!(
                usize::from(claimed) + drained,
                1,
                "entry owned by exactly one of claim/drain"
            );
        });
        assert!(report.schedules_run > 0);
    }

    /// Two faults race one remaining retry token: exactly one retries.
    #[test]
    fn single_retry_token_is_spent_exactly_once() {
        let report = check("supervisor-budget-race", opts(), || {
            let budget = Arc::new(RetryBudget::new(&RetryPolicy {
                budget_burst: 1,
                ..RetryPolicy::default()
            }));
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    let b = Arc::clone(&budget);
                    thread::spawn(move || b.try_acquire())
                })
                .collect();
            let wins: usize = racers
                .into_iter()
                .map(|h| usize::from(h.join().unwrap()))
                .sum();
            assert_eq!(wins, 1, "one token, one winner");
        });
        assert!(report.schedules_run > 0);
    }

    /// The supervisor failing an orphan races the callback completing
    /// it: the waiter observes exactly one outcome, served or
    /// `ShardFailed`, never both and never neither.
    #[test]
    fn supervisor_abort_vs_completion_resolves_once() {
        let report = check("supervisor-abort-vs-complete", opts(), || {
            let reg = Arc::new(InflightRegistry::default());
            let cell = TicketCell::new();
            let ticket = Ticket::new(cell.clone(), 9);
            reg.register(
                9,
                InflightEntry {
                    cell,
                    precision: Precision::F32,
                },
            );
            let callback = {
                let reg = Arc::clone(&reg);
                thread::spawn(move || {
                    if let Some(e) = reg.claim(9) {
                        e.cell.complete(Ok(Tensor::ones(&[1])));
                    }
                })
            };
            let teardown = {
                let reg = Arc::clone(&reg);
                thread::spawn(move || {
                    for e in reg.drain() {
                        e.cell.complete(Err(ServeError::ShardFailed));
                    }
                })
            };
            let out = ticket.wait();
            callback.join().unwrap();
            teardown.join().unwrap();
            assert!(
                matches!(out, Ok(_) | Err(ServeError::ShardFailed)),
                "exactly one owner resolved the ticket"
            );
        });
        assert!(report.schedules_run > 0);
    }
}
