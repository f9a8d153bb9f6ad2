//! The `serve_zipf_tcp` workload: open-loop serving over loopback TCP.
//!
//! The frontend (rank 0) and one expert worker per expert (ranks 1..=4)
//! run `janus_serve::engine::serve_on` over a liveness-monitored
//! `TcpTransport` mesh — the stack the repository's own real-TCP serving
//! run uses. Requests arrive on a fixed schedule regardless of progress
//! (open loop). Workers do real expert compute (no service floor).
//!
//! The untraced run alternates base-rate steps (latency) with saturation
//! steps (capacity). The traced run walks a ladder of rates from well
//! below the knee to past it for goodput, then traces base-rate steps.
//!
//! The engine times a request from its *admission*, not from when it was
//! due, so a stalled frontend hides the wait before admission
//! (coordinated omission). `drain` — the call's wall time minus the
//! schedule's last due time — is the outside check for a growing backlog.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use janus_comm::liveness::{monitor_mesh, LivenessConfig};
use janus_comm::tcp::tcp_mesh_localhost;
use janus_serve::engine::{plan_from_workload, serve_on, ServeOpts, ServeRun, ServeSpec};
use janus_serve::{ReplicaPlan, ServeConfig, ServeModel, ServeWorkload};
use janus_tensor::Matrix;

use crate::probe::{next_span_id, Counts, Layer, Probe, ProbeLog, Span};
use crate::report::{Ctx, Report};
use crate::stats::{median, peak_rss_mb, reset_peak_rss, tail};

/// The base rate, requests per second, at which latency is reported.
const BASE_RATE: f64 = 1000.0;
/// Requests of a base-rate step.
const BASE_REQUESTS: usize = 1000;
/// Arrival rates of the coarse ladder, requests per second, from well
/// below the knee to past it.
const LADDER: &[f64] = &[2000.0, 3000.0, 4000.0, 5000.0, 6000.0, 8000.0];
/// Bisection steps between the highest passing ladder rate and the next.
const REFINE: usize = 3;
/// How long the schedule of a ladder step lasts: long enough that a
/// backlog shows in the drain, short enough for several passes a run.
const STEP_SECONDS: f64 = 0.5;
/// The latency limit on the tail (the highest percentile with at least
/// [`BEYOND`] samples beyond it) that a rate must meet to count as goodput.
const TAIL_LIMIT_MS: f64 = 10.0;
/// A step whose last completion comes later than this after its last due
/// time has a growing backlog.
const DRAIN_LIMIT_MS: f64 = 10.0;
/// Samples a reported tail percentile must have beyond it.
const BEYOND: usize = 10;
/// A saturation step: this many requests, all due within a few
/// milliseconds, so the frontend always has a full batch waiting.
const SAT_REQUESTS: usize = 4000;
const SAT_RATE: f64 = 1e6;

/// Requests of a step at `rate`.
fn requests_at(rate: f64) -> usize {
    if rate == BASE_RATE {
        BASE_REQUESTS
    } else if rate == SAT_RATE {
        SAT_REQUESTS
    } else {
        (rate * STEP_SECONDS) as usize
    }
}

/// The serving scenario with `requests` requests. Generation is a prefix
/// of the same seeded stream for any request count.
fn config(seed: u64, requests: usize) -> ServeConfig {
    ServeConfig {
        experts: 4,
        // At H=64 expert compute is a few microseconds, so latency and
        // capacity are mostly thread wake-ups; on a 2-vCPU VM their
        // run-to-run spread was 25-30 %. At H=128 compute carries the
        // request and the spread was 5-9 %.
        hidden_dim: 128,
        top_k: 2,
        clients: 8,
        requests,
        tokens_per_request: 8,
        zipf: 1.1,
        arrivals_per_step: 1,
        max_batch_tokens: 64,
        seed,
    }
}

/// One ladder step: one `serve_on` call at one rate.
struct Step {
    rate: f64,
    setup: Duration,
    wall: Duration,
    call_start: Duration,
    latencies_ms: Vec<f64>,
    drain_ms: f64,
    batches: u64,
    dispatches: u64,
    redispatches: u64,
    counts: Vec<[Counts; 2]>,
    spans: Vec<Span>,
    dropped_spans: u64,
}

impl Step {
    fn tail_ms(&self) -> f64 {
        tail(&self.latencies_ms, BEYOND).map_or(f64::INFINITY, |(_, v)| v)
    }

    fn meets_limit(&self) -> bool {
        self.tail_ms() <= TAIL_LIMIT_MS && self.drain_ms <= DRAIN_LIMIT_MS
    }
}

/// Set up and run one step at `rate`, checking every response.
fn step(
    ctx: &Ctx,
    rate: f64,
    trace: bool,
    origin: Instant,
    reference: &[Matrix],
    report: &mut Report,
) -> Option<Step> {
    let t0 = Instant::now();
    let cfg = config(ctx.seed, requests_at(rate));
    let model = ServeModel::new(&cfg);
    let workload = ServeWorkload::generate(&cfg);
    let (_, plan): (_, ReplicaPlan) = plan_from_workload(&model, &workload, cfg.experts);
    let world = plan.world();
    let log = ProbeLog::new(world, trace, origin);
    let mesh = match tcp_mesh_localhost(world) {
        Ok(m) => m,
        Err(e) => {
            report.check(false, || format!("serve: loopback mesh: {e}"));
            return None;
        }
    };
    let probed = mesh
        .into_iter()
        .map(|t| Probe::tcp(t, log.clone()))
        .collect();
    let eps: Vec<_> = monitor_mesh(
        probed,
        LivenessConfig::heartbeats(8, Duration::from_secs(5)),
    )
    .into_iter()
    .map(|t| Probe::new(t, Layer::Outer, log.clone()))
    .collect();
    let pace = Duration::from_secs_f64(cfg.arrivals_per_step as f64 / rate);
    let spec = ServeSpec {
        model: &model,
        workload: &workload,
        plan: &plan,
        max_batch_tokens: cfg.max_batch_tokens,
        opts: ServeOpts {
            service_floor_us: 0,
            pacing_step: Some(pace),
        },
        crash: None,
    };
    let setup = t0.elapsed();
    let call_start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| serve_on(eps, &spec)));
    let wall = call_start.elapsed();
    report.attempted += cfg.requests as u64;
    let run: ServeRun = match result {
        Ok(run) => run,
        Err(_) => {
            report.failed += cfg.requests as u64;
            report.check(false, || {
                format!("serve at {rate} req/s: the frontend panicked")
            });
            return None;
        }
    };
    let f = &run.frontend;
    let wrong = reference[..cfg.requests]
        .iter()
        .enumerate()
        .filter(|(i, want)| {
            f.responses.get(*i).is_none_or(|got| {
                got.data()
                    .iter()
                    .map(|x| x.to_bits())
                    .ne(want.data().iter().map(|x| x.to_bits()))
            })
        })
        .count();
    report.failed += wrong as u64;
    report.check(wrong == 0, || {
        format!("serve at {rate} req/s: {wrong} responses differ from the reference")
    });
    let dead = run.workers.iter().filter(|w| w.is_err()).count();
    report.check(dead == 0 && f.redispatches == 0, || {
        format!(
            "serve at {rate} req/s: {dead} workers died, {} redispatches",
            f.redispatches
        )
    });
    let last_step = workload.requests.last().map_or(0, |r| r.arrival_step);
    let last_due = pace * (last_step as u32 + 1);
    let (spans, dropped_spans) = log.take_spans();
    Some(Step {
        rate,
        setup,
        wall,
        call_start: call_start - origin,
        latencies_ms: f.latencies_us.iter().map(|&us| us as f64 / 1e3).collect(),
        drain_ms: (wall.as_secs_f64() - last_due.as_secs_f64()) * 1e3,
        batches: f.batches,
        dispatches: f.dispatches,
        redispatches: f.redispatches,
        counts: (0..world)
            .map(|r| [log.counts(r, Layer::Outer), log.counts(r, Layer::Tcp)])
            .collect(),
        spans,
        dropped_spans,
    })
}

/// One pass: a base-rate step, then the coarse ladder, then bisection
/// between the highest rate that met the limit and the next ladder rate.
/// The coarse ladder stops after two consecutive rates leave a backlog:
/// past the knee it only grows. A rate that misses the limit on its tail
/// alone (a scheduling hiccup) does not stop it. Returns the steps and
/// the pass's goodput.
fn ladder_pass(
    ctx: &Ctx,
    origin: Instant,
    reference: &[Matrix],
    report: &mut Report,
) -> Option<(Vec<Step>, f64)> {
    let mut steps = vec![step(ctx, BASE_RATE, false, origin, reference, report)?];
    let mut backlogs = 0;
    let mut lo = 0.0f64;
    for &rate in LADDER {
        let s = step(ctx, rate, false, origin, reference, report)?;
        if s.meets_limit() {
            lo = rate;
        }
        backlogs = if s.drain_ms > DRAIN_LIMIT_MS {
            backlogs + 1
        } else {
            0
        };
        steps.push(s);
        if backlogs == 2 {
            break;
        }
    }
    if let Some(&hi) = LADDER.iter().find(|&&r| r > lo) {
        let mut hi = hi;
        for _ in 0..REFINE {
            let mid = ((lo + hi) / 2.0).round();
            let s = step(ctx, mid, false, origin, reference, report)?;
            if s.meets_limit() {
                lo = mid;
            } else {
                hi = mid;
            }
            steps.push(s);
        }
    }
    Some((steps, lo))
}

/// Run `serve_zipf_tcp`.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let origin = Instant::now();
    let most = LADDER
        .iter()
        .chain(&[BASE_RATE, SAT_RATE])
        .map(|&r| requests_at(r))
        .max()
        .unwrap();
    let cfg = config(ctx.seed, most);
    let model = ServeModel::new(&cfg);
    let workload = ServeWorkload::generate(&cfg);
    let reference: Vec<Matrix> = workload
        .requests
        .iter()
        .map(|r| model.forward_reference(&r.tokens))
        .collect();
    let world = cfg.experts + 1;
    report.env.push(("ranks", world.to_string()));
    // Rank threads plus one socket reader per peer; mostly blocked in recv.
    report.env.push(("threads", (world * world).to_string()));

    // Warm-up step at the base rate: checked, not timed.
    if step(ctx, BASE_RATE, false, origin, &reference, &mut report).is_none() {
        return report;
    }
    if !ctx.trace {
        end_to_end(ctx, origin, &reference, &mut report);
        return report;
    }

    // Traced run, first half: untraced ladder passes for goodput and the
    // base-rate tail.
    let end = Instant::now() + ctx.seconds / 2;
    let mut passes = Vec::new();
    let mut last = Duration::ZERO;
    // At least two passes; another only if it fits the time left.
    while passes.len() < 2 || Instant::now() + last <= end {
        let t = Instant::now();
        match ladder_pass(ctx, origin, &reference, &mut report) {
            Some(p) => passes.push(p),
            None => return report,
        }
        last = t.elapsed();
    }
    let base: Vec<&Step> = passes.iter().map(|(s, _)| &s[0]).collect();
    let base_lat: Vec<f64> = base
        .iter()
        .flat_map(|s| s.latencies_ms.iter().cloned())
        .collect();
    let goodputs: Vec<f64> = passes.iter().map(|(_, g)| *g).collect();
    let p50 = median(&base_lat);
    report.set("serve.goodput_rps", median(&goodputs));
    report.note(format!(
        "serve: {} ladder passes; goodput per pass {goodputs:?} req/s (tail <= {TAIL_LIMIT_MS} ms, \
         drain <= {DRAIN_LIMIT_MS} ms)",
        passes.len()
    ));
    for s in &passes[0].0 {
        let (pct, v) = tail(&s.latencies_ms, BEYOND).unwrap_or((f64::NAN, f64::NAN));
        report.note(format!(
            "serve: {:>6.0} req/s: p50 {:.3} ms, p{pct:.1} {v:.3} ms (n={}), drain {:.2} ms{}",
            s.rate,
            median(&s.latencies_ms),
            s.latencies_ms.len(),
            s.drain_ms,
            if s.meets_limit() {
                ""
            } else {
                "  [misses limit]"
            }
        ));
    }
    let (tail_pct, tail_ms) = tail(&base_lat, BEYOND).unwrap_or((f64::NAN, f64::NAN));
    report.note(format!(
        "serve: base rate {BASE_RATE} req/s: p50 {p50:.3} ms, p{tail_pct:.2} {tail_ms:.3} ms \
         over {} samples",
        base_lat.len()
    ));
    // Second half: base-rate steps with the probes recording.
    report.set("serve.tail_ms", tail_ms);
    report.set("serve.tail_pct", tail_pct);
    report.set("serve.tail_samples", base_lat.len() as f64);
    report.set(
        "serve.drain_ms",
        median(&base.iter().map(|s| s.drain_ms).collect::<Vec<_>>()),
    );
    let end = Instant::now() + ctx.seconds / 2;
    let mut traced = Vec::new();
    while traced.len() < 2 || Instant::now() < end {
        match step(ctx, BASE_RATE, true, origin, &reference, &mut report) {
            Some(s) => traced.push(s),
            None => return report,
        }
    }
    let traced_lat: Vec<f64> = traced
        .iter()
        .flat_map(|s| s.latencies_ms.iter().cloned())
        .collect();
    report.set("trace.untraced_ratio", p50 / median(&traced_lat));
    report.note(format!(
        "serve: base-rate p50 untraced {p50:.3} ms, traced {:.3} ms",
        median(&traced_lat)
    ));
    layer_metrics(&traced, world, &mut report);
    let mut spans = Vec::new();
    for s in &mut traced {
        spans.append(&mut s.spans);
        for rank in 0..world {
            spans.push(Span {
                id: next_span_id(),
                parent: 0,
                op: if rank == 0 { "frontend" } else { "worker" },
                layer: "serve",
                rank,
                start: s.call_start,
                end: s.call_start + s.wall,
            });
        }
    }
    report.set(
        "trace.dropped_spans",
        traced.iter().map(|s| s.dropped_spans).sum::<u64>() as f64,
    );
    crate::write_trace("serve_zipf_tcp", &spans, &mut report);
    report
}

/// The untraced run: rounds of one base-rate step (latency) and one
/// saturation step (capacity: requests completed per second of the call).
fn end_to_end(ctx: &Ctx, origin: Instant, reference: &[Matrix], report: &mut Report) {
    let end = Instant::now() + ctx.seconds;
    let (mut base, mut capacity, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = Duration::ZERO;
    while base.len() < 2 || Instant::now() + last <= end {
        let t = Instant::now();
        reset_peak_rss();
        let Some(b) = step(ctx, BASE_RATE, false, origin, reference, report) else {
            return;
        };
        let Some(s) = step(ctx, SAT_RATE, false, origin, reference, report) else {
            return;
        };
        peaks.push(peak_rss_mb());
        base.push(b);
        capacity.push(SAT_REQUESTS as f64 / s.wall.as_secs_f64());
        last = t.elapsed();
    }
    report.set("peak_rss_mb", median(&peaks));
    let lat: Vec<f64> = base
        .iter()
        .flat_map(|s| s.latencies_ms.iter().cloned())
        .collect();
    report.set("throughput", median(&capacity));
    report.set("latency_ms", median(&lat));
    report.set(
        "setup_s",
        median(
            &base
                .iter()
                .map(|s| s.setup.as_secs_f64())
                .collect::<Vec<_>>(),
        ),
    );
    let (pct, tail_ms) = tail(&lat, BEYOND).unwrap_or((f64::NAN, f64::NAN));
    report.note(format!(
        "serve: {} rounds; capacity {:.0} req/s (per round {:.0?}); base rate {BASE_RATE} req/s: \
         p50 {:.3} ms, p{pct:.2} {tail_ms:.3} ms over {} samples, drain median {:.2} ms",
        base.len(),
        median(&capacity),
        capacity,
        median(&lat),
        lat.len(),
        median(&base.iter().map(|s| s.drain_ms).collect::<Vec<_>>()),
    ));
}

/// Per-layer numbers of the traced steps, per request.
fn layer_metrics(traced: &[Step], world: usize, report: &mut Report) {
    let requests = (BASE_REQUESTS * traced.len()) as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut outer = vec![Counts::default(); world];
    let mut tcp = vec![Counts::default(); world];
    for s in traced {
        for r in 0..world {
            outer[r].add(&s.counts[r][0]);
            tcp[r].add(&s.counts[r][1]);
        }
    }
    let mean = |f: &dyn Fn(usize) -> f64| (0..world).map(f).sum::<f64>() / world as f64 / requests;
    report.set("comm.send_calls", mean(&|r| outer[r].send_calls as f64));
    report.set("comm.send_bytes", mean(&|r| outer[r].send_bytes as f64));
    report.set("comm.send_ms", mean(&|r| ms(outer[r].send)));
    report.set("comm.recv_calls", mean(&|r| outer[r].recv_calls as f64));
    report.set("comm.recv_wait_ms", mean(&|r| ms(outer[r].recv_wait)));
    report.set("comm.tcp.send_ms", mean(&|r| ms(tcp[r].send)));
    report.set("comm.tcp.recv_wait_ms", mean(&|r| ms(tcp[r].recv_wait)));
    report.set("comm.tcp.frames", mean(&|r| tcp[r].send_calls as f64));
    report.set(
        "comm.liveness.self_ms",
        mean(&|r| ms(outer[r].busy().saturating_sub(tcp[r].busy()))),
    );
    let wall: Duration = traced.iter().map(|s| s.wall).sum();
    report.set(
        "serve.frontend_self_ms",
        ms(wall.saturating_sub(outer[0].busy())) / requests,
    );
    let busy_share = (1..world)
        .map(|r| wall.saturating_sub(outer[r].busy()).as_secs_f64() / wall.as_secs_f64())
        .sum::<f64>()
        / (world - 1) as f64;
    report.set("serve.worker_busy_share", busy_share);
    let batches: u64 = traced.iter().map(|s| s.batches).sum();
    let tokens = requests * config(0, 0).tokens_per_request as f64;
    report.set("serve.batch_tokens_mean", tokens / batches.max(1) as f64);
    let dispatches: u64 = traced.iter().map(|s| s.dispatches).sum();
    report.set("serve.dispatches", dispatches as f64 / requests);
    report.set(
        "serve.redispatches",
        traced.iter().map(|s| s.redispatches).sum::<u64>() as f64,
    );
}
