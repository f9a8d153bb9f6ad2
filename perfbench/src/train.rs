//! The training workloads: `train_dc_tcp` and `train_ec_local`.
//!
//! One *chunk* is one call of `janus_core::exec::trainer::train_unified_on`
//! for a fixed number of iterations over a freshly built 2-rank mesh
//! (2 machines × 1 GPU). Every chunk repeats the same seeded run, so every
//! chunk is checked bitwise against one in-process `train_unified`
//! reference. A chunk is timed from the call to the moment the slowest
//! rank flushes its endpoint, i.e. after its last iteration and before
//! the reliability layer's teardown linger.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use janus_comm::local::local_mesh;
use janus_comm::tcp::tcp_mesh_localhost;
use janus_comm::{ReliableTransport, Transport};
use janus_core::exec::model::{CommSnapshot, ExecConfig};
use janus_core::exec::trainer::{train_unified, train_unified_on, TrainRun};
use janus_core::paradigm::Paradigm;
use janus_core::plan::PlanOpts;
use janus_moe::expert::{ExpertFfn, ExpertScratch};
use janus_moe::gate::TopKGate;
use janus_tensor::Matrix;
use rand::{rngs::StdRng, SeedableRng};

use crate::probe::{self, Counts, Layer, Probe, ProbeLog, Span};
use crate::report::{Ctx, Report};
use crate::stats::{median, peak_rss_mb, reset_peak_rss};

/// Which mesh a training workload runs over.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mesh {
    /// `ReliableTransport` over loopback `TcpTransport`.
    ReliableTcp,
    /// The in-process channel mesh.
    Local,
}

/// One training workload.
struct Spec {
    name: &'static str,
    mesh: Mesh,
    /// Every block of the compiled plan must use this paradigm.
    paradigm: Paradigm,
    /// Iterations per chunk.
    iters: u64,
    config: fn(u64) -> ExecConfig,
}

/// 2×1 cluster, H=32, 4 blocks of 2 experts, 512 tokens/rank, k=2: every
/// block's R > 1, so the plan is all data-centric.
fn dc_config(seed: u64) -> ExecConfig {
    ExecConfig {
        machines: 2,
        gpus_per_machine: 1,
        hidden_dim: 32,
        blocks: 4,
        experts: 2,
        experts_per_block: Vec::new(),
        top_k: 2,
        tokens: 512,
        seed,
        // 1e-3 diverges to NaN at this token count; 1e-5 trains.
        lr: 1e-5,
    }
}

/// 2×1 cluster, H=128, 2 blocks of 8 experts, 256 tokens/rank, k=2: every
/// block's R < 1, so the plan is all expert-centric.
fn ec_config(seed: u64) -> ExecConfig {
    ExecConfig {
        machines: 2,
        gpus_per_machine: 1,
        hidden_dim: 128,
        blocks: 2,
        experts: 8,
        experts_per_block: Vec::new(),
        top_k: 2,
        tokens: 256,
        seed,
        lr: 1e-5,
    }
}

const DC_TCP: Spec = Spec {
    name: "train_dc_tcp",
    mesh: Mesh::ReliableTcp,
    paradigm: Paradigm::DataCentric,
    iters: 24,
    config: dc_config,
};

const EC_LOCAL: Spec = Spec {
    name: "train_ec_local",
    mesh: Mesh::Local,
    paradigm: Paradigm::ExpertCentric,
    iters: 12,
    config: ec_config,
};

/// Run `train_dc_tcp`.
pub fn dc_tcp(ctx: &Ctx) -> Report {
    run(&DC_TCP, ctx)
}

/// Run `train_ec_local`.
pub fn ec_local(ctx: &Ctx) -> Report {
    run(&EC_LOCAL, ctx)
}

/// One timed chunk.
struct Chunk {
    /// Config + plan + mesh construction.
    setup: Duration,
    /// When the training call started, from the run origin.
    call_start: Duration,
    /// Per rank: from the call to the rank's flush.
    windows: Vec<Duration>,
    /// Per rank: the outer probe's counters, then the TCP probe's.
    counts: Vec<[Counts; 2]>,
    comm: Vec<CommSnapshot>,
    spans: Vec<Span>,
    dropped_spans: u64,
    /// Peak resident memory of the process during the chunk.
    peak_rss_mb: f64,
}

impl Chunk {
    fn iter_s(&self, iters: u64) -> f64 {
        self.windows.iter().max().unwrap().as_secs_f64() / iters as f64
    }
}

/// One config of a workload: what each of its chunks runs and is
/// checked against.
struct Job<'a> {
    spec: &'a Spec,
    cfg: ExecConfig,
    /// In-process `train_unified` of `cfg` (not timed).
    reference: TrainRun,
    /// Run origin of every span and chunk start.
    origin: Instant,
}

impl<'a> Job<'a> {
    /// Compute the reference for `cfg`, checking that it trains sanely:
    /// every loss finite, and the last below the first on every rank.
    fn new(spec: &'a Spec, cfg: ExecConfig, origin: Instant, report: &mut Report) -> Self {
        let reference = train_unified(&cfg, spec.iters);
        for (rank, losses) in reference.losses.iter().enumerate() {
            let finite = losses.iter().all(|l| l.is_finite());
            let falls = losses.last() < losses.first();
            report.check(finite && falls, || {
                format!(
                    "{}: rank {rank} loss not finite or not falling: {losses:?}",
                    spec.name
                )
            });
        }
        Job {
            spec,
            cfg,
            reference,
            origin,
        }
    }

    /// Chunks until `length` has elapsed (at least `min` of them).
    fn phase(&self, trace: bool, length: Duration, min: usize, report: &mut Report) -> Vec<Chunk> {
        let end = Instant::now() + length;
        let mut out = Vec::new();
        while out.len() < min || Instant::now() < end {
            match self.chunk(trace, report) {
                Some(c) => out.push(c),
                None => break,
            }
        }
        out
    }

    /// Set up and run one chunk, checking it against the reference.
    fn chunk(&self, trace: bool, report: &mut Report) -> Option<Chunk> {
        let (spec, origin) = (self.spec, self.origin);
        reset_peak_rss();
        let t0 = Instant::now();
        let cfg = self.cfg.clone();
        let plan = cfg.compile_plan(&PlanOpts::default());
        let world = cfg.world();
        let log = ProbeLog::new(world, trace, origin);
        // The mesh is built inside the match so each arm hands
        // `train_unified_on` its own concrete stack.
        let (setup, call_start, result) = match spec.mesh {
            Mesh::ReliableTcp if world > 1 => {
                let mesh = match tcp_mesh_localhost(world) {
                    Ok(m) => m,
                    Err(e) => {
                        report.check(false, || format!("{}: loopback mesh: {e}", spec.name));
                        return None;
                    }
                };
                let eps: Vec<_> = mesh
                    .into_iter()
                    .map(|t| {
                        let reliable = ReliableTransport::new(Probe::tcp(t, log.clone()));
                        Probe::new(reliable, Layer::Outer, log.clone())
                    })
                    .collect();
                timed_call(t0, eps, &cfg, spec.iters)
            }
            _ => {
                let eps: Vec<_> = local_mesh(world)
                    .into_iter()
                    .map(|t| Probe::new(t, Layer::Outer, log.clone()))
                    .collect();
                timed_call(t0, eps, &cfg, spec.iters)
            }
        };
        report.attempted += spec.iters;
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                report.failed += spec.iters;
                report.check(false, || format!("{}: chunk panicked: {e}", spec.name));
                return None;
            }
        };
        if world > 1 {
            let paradigms = plan.paradigms();
            report.check(paradigms.iter().all(|p| *p == spec.paradigm), || {
                format!(
                    "{}: plan is {paradigms:?}, not all {:?}",
                    spec.name, spec.paradigm
                )
            });
        }
        if !report.check(same_bits(&run, &self.reference), || {
            format!("{}: chunk differs from the in-process reference", spec.name)
        }) {
            report.failed += spec.iters;
        }
        let mut windows = Vec::with_capacity(world);
        for rank in 0..world {
            match log.flushed_at(rank) {
                Some(at) => windows.push(at - call_start),
                None => {
                    report.check(false, || {
                        format!("{}: rank {rank} never flushed", spec.name)
                    });
                    return None;
                }
            }
        }
        let (spans, dropped_spans) = log.take_spans();
        Some(Chunk {
            setup,
            call_start: call_start - origin,
            counts: (0..world)
                .map(|r| [log.counts(r, Layer::Outer), log.counts(r, Layer::Tcp)])
                .collect(),
            windows,
            comm: run.comm,
            spans,
            dropped_spans,
            peak_rss_mb: peak_rss_mb(),
        })
    }
}

/// Finish the set-up clock started at `t0`, then time the training call.
fn timed_call<T: Transport + 'static>(
    t0: Instant,
    eps: Vec<T>,
    cfg: &ExecConfig,
    iters: u64,
) -> (Duration, Instant, Result<TrainRun, String>) {
    let setup = t0.elapsed();
    let call_start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| train_unified_on(eps, cfg, iters)))
        .map_err(|p| panic_message(&p));
    (setup, call_start, result)
}

fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

/// Losses, outputs and final experts of two runs are bitwise equal.
fn same_bits(a: &TrainRun, b: &TrainRun) -> bool {
    fn bits(v: &[f32]) -> impl Iterator<Item = u32> + '_ {
        v.iter().map(|x| x.to_bits())
    }
    fn expert_eq(x: &ExpertFfn, y: &ExpertFfn) -> bool {
        bits(x.w1.data()).eq(bits(y.w1.data()))
            && bits(&x.b1).eq(bits(&y.b1))
            && bits(x.w2.data()).eq(bits(y.w2.data()))
            && bits(&x.b2).eq(bits(&y.b2))
    }
    a.losses.len() == b.losses.len()
        && a.losses
            .iter()
            .zip(&b.losses)
            .all(|(x, y)| bits(x).eq(bits(y)))
        && a.outputs
            .iter()
            .zip(&b.outputs)
            .all(|(x, y)| bits(x.data()).eq(bits(y.data())))
        && a.experts.len() == b.experts.len()
        && a.experts.iter().zip(&b.experts).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(ba, bb)| {
                    ba.len() == bb.len() && ba.iter().zip(bb).all(|(x, y)| expert_eq(x, y))
                })
        })
}

fn run(spec: &Spec, ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let origin = Instant::now();
    let cfg = (spec.config)(ctx.seed);
    let world = cfg.world();
    let world_tokens = (cfg.tokens * world) as f64;
    report.env.push(("ranks", world.to_string()));
    let threads = match spec.mesh {
        // One rank thread plus one socket reader per peer, per rank.
        Mesh::ReliableTcp => world * world,
        Mesh::Local => world,
    };
    report.env.push(("threads", threads.to_string()));
    report.env.push(("iters_per_chunk", spec.iters.to_string()));

    let job = Job::new(spec, cfg.clone(), origin, &mut report);
    // Warm-up chunk: first-touch and socket buffers settle; checked, not timed.
    job.phase(false, Duration::ZERO, 1, &mut report);

    let tokens_per_s = |chunks: &[Chunk], tokens: f64| {
        median(
            &chunks
                .iter()
                .map(|c| tokens / c.iter_s(spec.iters))
                .collect::<Vec<_>>(),
        )
    };
    if !ctx.trace {
        let chunks = job.phase(false, ctx.seconds, 3, &mut report);
        report.set("throughput", tokens_per_s(&chunks, world_tokens));
        report.set(
            "latency_ms",
            1e3 * median(
                &chunks
                    .iter()
                    .map(|c| c.iter_s(spec.iters))
                    .collect::<Vec<_>>(),
            ),
        );
        report.set(
            "setup_s",
            median(
                &chunks
                    .iter()
                    .map(|c| c.setup.as_secs_f64())
                    .collect::<Vec<_>>(),
            ),
        );
        report.set(
            "peak_rss_mb",
            median(&chunks.iter().map(|c| c.peak_rss_mb).collect::<Vec<_>>()),
        );
        let ms: Vec<f64> = chunks.iter().map(|c| 1e3 * c.iter_s(spec.iters)).collect();
        report.note(format!(
            "{}: {} timed chunks of {} iterations; {:.0} tokens/s; ms/iter min {:.3} \
             median {:.3} max {:.3}",
            spec.name,
            chunks.len(),
            spec.iters,
            report.metrics["throughput"],
            ms.iter().cloned().fold(f64::INFINITY, f64::min),
            median(&ms),
            ms.iter().cloned().fold(0.0, f64::max),
        ));
        return report;
    }

    // Traced run: untraced, traced and single-rank phases share the time.
    let third = ctx.seconds / 3;
    let plain = job.phase(false, third, 3, &mut report);
    let traced = job.phase(true, third, 3, &mut report);
    // The same per-rank task on a 1-rank world: the compute floor.
    let single_cfg = ExecConfig {
        machines: 1,
        gpus_per_machine: 1,
        ..cfg.clone()
    };
    let single =
        Job::new(spec, single_cfg, origin, &mut report).phase(false, third, 3, &mut report);
    if plain.is_empty() || traced.is_empty() || single.is_empty() {
        return report;
    }

    let plain_tps = tokens_per_s(&plain, world_tokens);
    let traced_tps = tokens_per_s(&traced, world_tokens);
    let single_tps = tokens_per_s(&single, cfg.tokens as f64);
    let single_iter_ms = 1e3
        * median(
            &single
                .iter()
                .map(|c| c.iter_s(spec.iters))
                .collect::<Vec<_>>(),
        );
    report.set("exec.single_rank_iter_ms", single_iter_ms);
    report.set("exec.scaling_eff", plain_tps / (world as f64 * single_tps));
    report.set("trace.untraced_ratio", traced_tps / plain_tps);
    report.note(format!(
        "{}: tokens/s untraced {plain_tps:.0}, traced {traced_tps:.0}, one rank {single_tps:.0} \
         ({single_iter_ms:.3} ms/iter)",
        spec.name
    ));

    layer_metrics(spec, &cfg, &traced, &mut report);
    expert_probes(spec, &cfg, &mut report);

    let mut spans: Vec<Span> = Vec::new();
    for c in &traced {
        spans.extend(c.spans.iter().cloned());
        // Each rank's share of the training call, the lane its comm calls nest in.
        for (rank, w) in c.windows.iter().enumerate() {
            spans.push(Span {
                id: probe::next_span_id(),
                parent: 0,
                op: "train_unified_on",
                layer: "exec",
                rank,
                start: c.call_start,
                end: c.call_start + *w,
            });
        }
    }
    report.set(
        "trace.dropped_spans",
        traced.iter().map(|c| c.dropped_spans).sum::<u64>() as f64,
    );
    crate::write_trace(spec.name, &spans, &mut report);
    report
}

/// Per-layer numbers of the traced chunks.
fn layer_metrics(spec: &Spec, cfg: &ExecConfig, traced: &[Chunk], report: &mut Report) {
    let world = cfg.world();
    let iters = (spec.iters * traced.len() as u64) as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut outer = vec![Counts::default(); world];
    let mut tcp = vec![Counts::default(); world];
    let mut wall = vec![Duration::ZERO; world];
    let mut totals = CommSnapshot::default();
    for c in traced {
        for r in 0..world {
            outer[r].add(&c.counts[r][0]);
            tcp[r].add(&c.counts[r][1]);
            wall[r] += c.windows[r];
        }
        for snap in &c.comm {
            totals.accumulate(snap);
        }
        check_accounting(spec, c, report);
    }
    let mean = |f: &dyn Fn(usize) -> f64| (0..world).map(f).sum::<f64>() / world as f64 / iters;
    report.set("comm.send_calls", mean(&|r| outer[r].send_calls as f64));
    report.set("comm.send_bytes", mean(&|r| outer[r].send_bytes as f64));
    report.set("comm.send_ms", mean(&|r| ms(outer[r].send)));
    report.set("comm.recv_calls", mean(&|r| outer[r].recv_calls as f64));
    report.set("comm.recv_wait_ms", mean(&|r| ms(outer[r].recv_wait)));
    if spec.mesh == Mesh::ReliableTcp {
        report.set("comm.tcp.send_ms", mean(&|r| ms(tcp[r].send)));
        report.set("comm.tcp.recv_wait_ms", mean(&|r| ms(tcp[r].recv_wait)));
        report.set("comm.tcp.frames", mean(&|r| tcp[r].send_calls as f64));
        report.set(
            "comm.reliable.self_ms",
            mean(&|r| ms(outer[r].busy().saturating_sub(tcp[r].busy()))),
        );
        let outer_sends: u64 = outer.iter().map(|c| c.send_calls).sum();
        let frames: u64 = tcp.iter().map(|c| c.send_calls).sum();
        report.set(
            "comm.reliable.frames_per_msg",
            frames as f64 / outer_sends.max(1) as f64,
        );
        report.set(
            "comm.reliable.acks",
            totals.acks_sent as f64 / world as f64 / iters,
        );
        report.set(
            "comm.reliable.retransmits",
            totals.retransmits as f64 / world as f64 / iters,
        );
    }
    let self_ms: Vec<f64> = (0..world)
        .map(|r| ms(wall[r].saturating_sub(outer[r].busy())))
        .collect();
    report.set("exec.wall_ms", mean(&|r| ms(wall[r])));
    report.set("exec.self_ms", mean(&|r| self_ms[r]));
    let busy: Duration = outer.iter().map(Counts::busy).sum();
    report.set(
        "exec.comm_share",
        busy.as_secs_f64() / wall.iter().sum::<Duration>().as_secs_f64(),
    );
    let self_mean = self_ms.iter().sum::<f64>() / world as f64;
    report.set(
        "exec.rank_skew",
        self_ms.iter().cloned().fold(0.0, f64::max) / self_mean,
    );
    let per_rank_iter = world as f64 * iters;
    report.set(
        "exec.remote_bytes",
        totals.remote_bytes as f64 / per_rank_iter,
    );
    report.set(
        "exec.pull_retries",
        totals.pull_retries as f64 / per_rank_iter,
    );
    report.set(
        "queue.cache_fetches",
        totals.cache_fetches as f64 / per_rank_iter,
    );
    let lookups = totals.cache_hits + totals.cache_misses;
    report.set("queue.cache_lookups", lookups as f64 / per_rank_iter);
    report.set(
        "queue.cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            totals.cache_hits as f64 / lookups as f64
        },
    );
    report.set(
        "queue.grad_prefolds",
        totals.grad_prefolds as f64 / per_rank_iter,
    );
    for r in 0..world {
        report.note(format!(
            "{}: rank {r}: wall {:.3} ms/iter = self {:.3} + send {:.3} + recv wait {:.3}",
            spec.name,
            ms(wall[r]) / iters,
            self_ms[r] / iters,
            ms(outer[r].send) / iters,
            ms(outer[r].recv_wait) / iters,
        ));
    }
}

/// Each rank's outer transport calls are disjoint and lie inside its
/// window, so self time + send time + receive wait tile the wall time.
fn check_accounting(spec: &Spec, c: &Chunk, report: &mut Report) {
    for (rank, w) in c.windows.iter().enumerate() {
        let end = c.call_start + *w;
        let mut calls: Vec<&Span> = c
            .spans
            .iter()
            .filter(|s| s.rank == rank && s.layer == Layer::Outer.name())
            .collect();
        calls.sort_by_key(|s| s.start);
        let mut at = c.call_start;
        for s in calls {
            if !report.check(s.start >= at && s.end <= end, || {
                format!(
                    "{}: rank {rank}: {} call {:?}..{:?} overlaps another or leaves the \
                     rank's window {:?}..{end:?}",
                    spec.name, s.op, s.start, s.end, c.call_start
                )
            }) {
                return;
            }
            at = s.end;
        }
    }
}

/// Time the expert FFN (forward + backward) and the gate at the
/// workload's own shapes: the rows one expert computes per iteration on
/// the rank that computes it, and one rank's tokens.
fn expert_probes(spec: &Spec, cfg: &ExecConfig, report: &mut Report) {
    const REPS: usize = 30;
    let h = cfg.hidden_dim;
    let routed = cfg.tokens * cfg.top_k / cfg.experts;
    let rows = match spec.paradigm {
        // Data-centric: each rank runs every expert on its own tokens.
        Paradigm::DataCentric => routed,
        // Expert-centric: an expert's owner runs it on every rank's tokens.
        Paradigm::ExpertCentric => routed * cfg.world(),
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9);
    let expert = ExpertFfn::new(h, &mut rng);
    let mut scratch = ExpertScratch::new();
    scratch.set_input(&Matrix::uniform(rows, h, 1.0, &mut rng));
    let dy = Matrix::uniform(rows, h, 1.0, &mut rng);
    let expert_ms = timed_median(REPS, || {
        expert.forward_scratch(&mut scratch);
        expert.backward_scratch(&dy, &mut scratch);
    });
    let gate = TopKGate::new(h, cfg.experts, cfg.top_k, &mut rng);
    let x = Matrix::uniform(cfg.tokens, h, 1.0, &mut rng);
    let gate_ms = timed_median(REPS, || {
        std::hint::black_box(gate.route(&x));
    });
    report.set("moe.expert_rows", rows as f64);
    report.set("moe.expert_fwd_bwd_ms", expert_ms);
    report.set("moe.gate_tokens", cfg.tokens as f64);
    report.set("moe.gate_route_ms", gate_ms);
}

/// Median wall time of `reps` calls of `f`, milliseconds.
fn timed_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}
