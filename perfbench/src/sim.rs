//! The `sim_paper_32gpu` workload: price MoE-BERT, MoE-GPT and
//! MoE-Transformer-xl, each under the unified and the expert-centric
//! policy, on the paper's 4 × 8 A100 cluster. Every plan goes through
//! `janus_core::sim::engine::{compile_plan, build_graph_from_plan}` and
//! `janus_netsim::simulate`, single-threaded, each call timed on its own.
//!
//! The expert-centric Transformer-xl plan takes more than half of a full
//! sweep (~3.5 s of ~6 s on a 2-vCPU VM), so a run would time only two or
//! three sweeps, and the simulator's speed there swings ±15 % from one
//! sweep to the next. It is priced once per run, before the timed passes,
//! for the correctness check and the per-layer numbers; the timed passes
//! price the other five plans, about nine passes a run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use janus_core::sim::engine::{build_graph_from_plan, compile_plan, EngineOpts, ParadigmPolicy};
use janus_core::sim::setup::SimSetup;
use janus_moe::config::ModelPreset;
use janus_moe::workload::Imbalance;
use janus_netsim::simulate;
use janus_topology::ClusterSpec;

use crate::probe::{next_span_id, Span};
use crate::report::{Ctx, Report};
use crate::stats::{median, peak_rss_mb, reset_peak_rss};

/// Machines × GPUs per machine of the paper's evaluation cluster.
const MACHINES: usize = 4;
const GPUS: usize = 8;

const POLICIES: [(ParadigmPolicy, &str); 2] = [
    (ParadigmPolicy::Unified, "unified"),
    (ParadigmPolicy::ExpertCentric, "ec"),
];

/// The plan priced once per run instead of every timed pass.
const ONCE: (ModelPreset, &str) = (ModelPreset::MoeTransformerXl, "ec");

/// One priced plan.
struct Priced {
    preset: ModelPreset,
    policy: &'static str,
    compile: Duration,
    build: Duration,
    simulate: Duration,
    tasks: usize,
    makespan: f64,
}

impl Priced {
    fn total(&self) -> Duration {
        self.compile + self.build + self.simulate
    }
}

/// Prices plans, timing each of the three calls (and keeping them as
/// spans when tracing).
struct Pricer {
    seed: u64,
    trace: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Pricer {
    /// The seeded routing draw of `preset` on the paper's cluster.
    fn setup(&self, preset: ModelPreset) -> SimSetup {
        SimSetup::new(
            ClusterSpec::a100(MACHINES, GPUS).build(),
            preset.config(MACHINES * GPUS),
            Imbalance::Zipf(0.3),
            self.seed,
        )
    }

    fn price(
        &mut self,
        setup: &SimSetup,
        preset: ModelPreset,
        (policy, label): (ParadigmPolicy, &'static str),
        report: &mut Report,
    ) -> Option<Priced> {
        let opts = EngineOpts {
            policy,
            seed: self.seed,
            ..EngineOpts::default()
        };
        let t = Instant::now();
        let plan = compile_plan(setup, &opts);
        let compile = self.timed("plan", "compile_plan", t);
        let t = Instant::now();
        let (graph, _) = build_graph_from_plan(setup, &opts, &plan);
        let build = self.timed("sim", "build_graph", t);
        let t = Instant::now();
        let result = simulate(&graph, &setup.cluster.capacities());
        let simulate = self.timed("netsim", "simulate", t);
        report.attempted += 1;
        match result {
            Ok(r) => Some(Priced {
                preset,
                policy: label,
                compile,
                build,
                simulate,
                tasks: graph.len(),
                makespan: r.makespan,
            }),
            Err(e) => {
                report.failed += 1;
                report.check(false, || format!("{} {label}: {e:?}", preset.name()));
                None
            }
        }
    }

    /// Time since `t`, kept as a span when tracing.
    fn timed(&mut self, layer: &'static str, op: &'static str, t: Instant) -> Duration {
        let now = Instant::now();
        if self.trace {
            self.spans.push(Span {
                id: next_span_id(),
                parent: 0,
                op,
                layer,
                rank: 0,
                start: t - self.origin,
                end: now - self.origin,
            });
        }
        now - t
    }
}

/// Run `sim_paper_32gpu`.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    report.env.push(("ranks", "1".into()));
    report.env.push(("threads", "1".into()));
    let mut pricer = Pricer {
        seed: ctx.seed,
        trace: ctx.trace,
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let once_setup = pricer.setup(ONCE.0);
    let once = pricer.price(&once_setup, ONCE.0, POLICIES[1], &mut report);
    drop(once_setup);

    let end = Instant::now() + ctx.seconds;
    let (mut setups, mut peaks) = (Vec::new(), Vec::new());
    let mut passes: Vec<Vec<Priced>> = Vec::new();
    let mut last = Duration::ZERO;
    // At least two passes, so every makespan is seen to repeat; another
    // only if it fits the time left.
    while passes.len() < 2 || Instant::now() + last <= end {
        let pass_start = Instant::now();
        reset_peak_rss();
        let mut pass = Vec::new();
        for preset in ModelPreset::all() {
            let t = Instant::now();
            let setup = pricer.setup(preset);
            setups.push(t.elapsed().as_secs_f64());
            for policy in POLICIES {
                if (preset, policy.1) != ONCE {
                    pass.extend(pricer.price(&setup, preset, policy, &mut report));
                }
            }
        }
        check_pass(&pass, &passes, once.as_ref(), &mut report);
        passes.push(pass);
        peaks.push(peak_rss_mb());
        last = pass_start.elapsed();
    }

    // Per plan, its median pricing time over the passes.
    let mut by_plan: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for p in passes.iter().flatten() {
        by_plan
            .entry((p.preset.name(), p.policy))
            .or_default()
            .push(p.total().as_secs_f64());
    }
    let plan_s: Vec<f64> = by_plan.values().map(|v| median(v)).collect();
    // The mean over plans, not a geometric mean: the small plans' times
    // are the noisiest and would dominate it.
    let mean_s = plan_s.iter().sum::<f64>() / plan_s.len() as f64;
    report.set("throughput", 1.0 / mean_s);
    report.set("latency_ms", 1e3 * mean_s);
    report.set("setup_s", median(&setups));
    report.set("peak_rss_mb", median(&peaks));
    for p in passes[0].iter().chain(&once) {
        report.note(format!(
            "{} {}: {} tasks, makespan {:.6} s, priced in {:.3} s",
            p.preset.name(),
            p.policy,
            p.tasks,
            p.makespan,
            p.total().as_secs_f64()
        ));
    }
    report.note(format!(
        "{} timed passes of {} plans",
        passes.len(),
        passes[0].len()
    ));

    if ctx.trace {
        let all: Vec<&Priced> = passes.iter().flatten().chain(&once).collect();
        let mean_ms = |f: &dyn Fn(&Priced) -> Option<Duration>| {
            let v: Vec<f64> = all
                .iter()
                .filter_map(|p| f(p))
                .map(|d| d.as_secs_f64())
                .collect();
            1e3 * v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        report.set("plan.compile_ms", mean_ms(&|p| Some(p.compile)));
        report.set("sim.build_graph_ms", mean_ms(&|p| Some(p.build)));
        let tasks: usize = all.iter().map(|p| p.tasks).sum();
        report.set("sim.tasks", tasks as f64 / all.len() as f64);
        for (name, label) in [
            ("netsim.simulate_ms.ec", "ec"),
            ("netsim.simulate_ms.unified", "unified"),
        ] {
            report.set(
                name,
                mean_ms(&|p| (p.policy == label).then_some(p.simulate)),
            );
        }
        let sim_s: f64 = all.iter().map(|p| p.simulate.as_secs_f64()).sum();
        report.set("netsim.us_per_task", 1e6 * sim_s / tasks as f64);
        crate::write_trace("sim_paper_32gpu", &pricer.spans, &mut report);
    }
    report
}

/// Makespans repeat bitwise across passes, and the unified plan is never
/// slower than the expert-centric one (`once` stands in for the plan the
/// passes skip).
fn check_pass(
    pass: &[Priced],
    earlier: &[Vec<Priced>],
    once: Option<&Priced>,
    report: &mut Report,
) {
    for p in pass {
        if let Some(first) = earlier.first() {
            let same = first
                .iter()
                .find(|q| q.preset == p.preset && q.policy == p.policy)
                .is_some_and(|q| q.makespan.to_bits() == p.makespan.to_bits());
            if !report.check(same, || {
                format!("{} {}: makespan does not repeat", p.preset.name(), p.policy)
            }) {
                report.failed += 1;
            }
        }
    }
    for preset in ModelPreset::all() {
        let of = |label| {
            pass.iter()
                .chain(once)
                .find(|p| p.preset == preset && p.policy == label)
                .map(|p| p.makespan)
        };
        let (u, ec) = (of("unified"), of("ec"));
        report.check(matches!((u, ec), (Some(u), Some(ec)) if u <= ec), || {
            format!(
                "{}: unified makespan {u:?} is not at most expert-centric {ec:?}",
                preset.name()
            )
        });
    }
}
