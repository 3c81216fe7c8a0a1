//! The load generator: an open loop in which the calling thread submits
//! on a fixed schedule and one collector thread redeems tickets, timing
//! every request on the client side and checking every response.

use crate::check::{References, Tally};
use crate::stats::Spans;
use pcnn_serve::{Server, Ticket};
use pcnn_tensor::Tensor;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Raw result of one load phase.
pub struct PhaseResult {
    /// One `(completion, latency)` pair per request that completed with
    /// the reference output inside the measured window: completion time
    /// since the window opened in microseconds, and client-side latency
    /// in nanoseconds (saturating). Kept compact because the samples
    /// count towards the process's peak RSS.
    pub samples: Vec<(u32, u32)>,
    /// Length of the measured window.
    pub window: Duration,
    /// Open loop only: how late the generator submitted each request
    /// due in the window, against its schedule, in nanoseconds.
    pub gen_lag_ns: Vec<u64>,
    /// Accounting over every request of the phase, warm-up included.
    pub tally: Tally,
    /// Share of the machine's CPU time the host stole during the phase
    /// (0 where `/proc/stat` is unavailable).
    pub host_steal_frac: f64,
}

impl PhaseResult {
    /// Completion rate over the window: completions after the first,
    /// over the time from the first to the last completion. Unlike a
    /// count over a fixed window, it is not quantised to whole requests.
    pub fn throughput_rps(&self) -> f64 {
        let first = self.samples.iter().map(|&(t, _)| t).min();
        let last = self.samples.iter().map(|&(t, _)| t).max();
        match (first, last) {
            (Some(a), Some(b)) if b > a => {
                (self.samples.len() - 1) as f64 / (f64::from(b - a) / 1e6)
            }
            _ => 0.0,
        }
    }

    pub fn latencies_ns(&self) -> Vec<u64> {
        self.samples
            .iter()
            .map(|&(_, lat)| u64::from(lat))
            .collect()
    }
}

/// One sample: completion offset into the window (µs) and latency (ns).
fn sample(window_start: Instant, start: Instant, done: Instant) -> (u32, u32) {
    let offset = (done - window_start).as_micros().min(u128::from(u32::MAX)) as u32;
    let latency = (done - start).as_nanos().min(u128::from(u32::MAX)) as u32;
    (offset, latency)
}

/// `Server::submit`, wrapped in a `serve.submit` span when tracing.
fn submit_traced(
    server: &Server,
    input: Tensor,
    spans: &mut Option<&mut Spans>,
) -> Result<Ticket, pcnn_serve::ServeError> {
    match spans {
        None => server.submit(input),
        Some(spans) => {
            let t0 = Instant::now();
            let r = server.submit(input);
            let t1 = Instant::now();
            let req = r.as_ref().map_or(0, Ticket::request_id);
            spans.record("serve.submit", t0, t1, None, req);
            r
        }
    }
}

/// Open loop at a fixed `rate_rps`: the calling thread submits request
/// `i` at `start + i / rate` (sleeping, never skipping), and one
/// collector thread redeems tickets in order. Latency counts from each
/// request's due time, so a stalled submit shows in every request it
/// delays.
pub fn open_loop(
    server: &Server,
    pool: &[Tensor],
    refs: &References,
    rate_rps: f64,
    warmup: Duration,
    window: Duration,
    mut spans: Option<&mut Spans>,
) -> PhaseResult {
    let period = Duration::from_secs_f64(1.0 / rate_rps);
    let total = ((warmup + window).as_secs_f64() * rate_rps).round() as usize;
    let (tx, rx) = mpsc::channel::<(Ticket, usize, Instant)>();
    let start = Instant::now() + Duration::from_millis(1);
    let measure_from = start + warmup;
    let measure_to = measure_from + window;
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut tally = Tally::default();
            let mut samples = Vec::new();
            while let Ok((ticket, idx, due)) = rx.recv() {
                let ok = tally.wait(refs, idx, ticket);
                let done = Instant::now();
                if ok && done >= measure_from && done < measure_to {
                    samples.push(sample(measure_from, due, done));
                }
            }
            (tally, samples)
        });

        let mut gen_tally = Tally::default();
        let mut gen_lag_ns = Vec::new();
        for i in 0..total {
            let due = start + period * i as u32;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            if due >= measure_from && due < measure_to {
                gen_lag_ns.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
            }
            let idx = i % pool.len();
            match submit_traced(server, pool[idx].clone(), &mut spans) {
                Ok(t) => tx.send((t, idx, due)).expect("collector alive"),
                Err(e) => gen_tally.refused(&e),
            }
        }
        drop(tx);
        let (mut tally, samples) = collector.join().expect("collector thread");
        tally.add(&gen_tally);
        PhaseResult {
            samples,
            window,
            gen_lag_ns,
            tally,
            host_steal_frac: 0.0,
        }
    })
}
