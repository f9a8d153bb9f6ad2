//! Multi-iteration training drivers and the paradigm-equivalence harness.
//!
//! The paper's correctness claim (§3.2): "the computation result in
//! expert-centric paradigm is strictly equivalent to the results in
//! data-centric paradigm … data-centric paradigm does not affect the
//! convergence of training and model accuracy." [`compare_paradigms`]
//! runs the same model, same tokens, same seeds through both numerical
//! engines and reports the differences — which tests assert to be
//! exactly zero: both engines compute per-source-worker gradients and
//! fold them in the same order, so the equivalence is bitwise, not
//! merely statistical. [`train_unified`] drives the per-block
//! mixed-paradigm engine off a compiled [`IterationPlan`] and is held to
//! the same bitwise standard against both pure engines.

use crate::exec::data_centric::{self, MachineShared};
use crate::exec::expert_centric::{self, IterOutput};
use crate::exec::model::{CommSnapshot, ExecConfig, WorkerState};
use crate::exec::unified;
use crate::plan::{IterationPlan, PlanOpts};
use janus_comm::liveness::monitored_mesh;
use janus_comm::local::LocalTransport;
use janus_comm::runtime::run_on;
use janus_comm::{Comm, CommError, LivenessConfig, LivenessMonitor, Transport};
use janus_moe::expert::ExpertFfn;
use janus_obs::{OverlapReport, TraceEvent};
use janus_tensor::Matrix;
use std::ops::Range;

/// Result of one multi-iteration training run.
pub struct TrainRun {
    /// Per-worker loss history.
    pub losses: Vec<Vec<f32>>,
    /// Per-worker final outputs.
    pub outputs: Vec<Matrix>,
    /// Per-worker final expert weights (`[rank][block][local]`).
    pub experts: Vec<Vec<Vec<ExpertFfn>>>,
    /// Per-worker communication reliability counters (all zero on a
    /// fault-free plain-transport run).
    pub comm: Vec<CommSnapshot>,
    /// Span events drained from the global recorder, empty unless
    /// recording was enabled (`janus_obs::global().enable*()`) before the
    /// run. Events carry the worker rank as `pid`.
    pub trace: Vec<TraceEvent>,
}

impl TrainRun {
    /// Sum of every worker's communication counters — the cluster-wide
    /// totals the `repro` tables print.
    pub fn comm_totals(&self) -> CommSnapshot {
        let mut total = CommSnapshot::default();
        for snap in &self.comm {
            total.accumulate(snap);
        }
        total
    }

    /// Compute/communication overlap, per-link utilization, and pull
    /// latency percentiles derived from the run's trace. Empty (all
    /// zeros) unless recording was enabled for the run.
    pub fn overlap_report(&self) -> OverlapReport {
        OverlapReport::from_events(&self.trace)
    }

    /// The run's trace as Chrome trace-event JSON (load in Perfetto or
    /// `chrome://tracing`).
    pub fn chrome_trace(&self) -> String {
        janus_obs::chrome_trace(&self.trace)
    }

    /// The slice of the run's trace belonging to worker `rank`.
    pub fn trace_for_rank(&self, rank: usize) -> Vec<TraceEvent> {
        self.trace
            .iter()
            .filter(|e| e.pid == rank as u32)
            .cloned()
            .collect()
    }
}

/// Train `iters` iterations with the expert-centric engine over an
/// in-process mesh.
pub fn train_expert_centric(cfg: &ExecConfig, iters: u64) -> TrainRun {
    train_on(local_endpoints(cfg), cfg, iters, |comm, state, _, i| {
        expert_centric::run_iteration(comm, state, i)
    })
}

/// Train `iters` iterations with the data-centric engine over an
/// in-process mesh.
pub fn train_data_centric(cfg: &ExecConfig, iters: u64) -> TrainRun {
    train_on(
        local_endpoints(cfg),
        cfg,
        iters,
        data_centric::run_iteration,
    )
}

/// Train `iters` iterations with the unified engine over an in-process
/// mesh, following the default-compiled [`IterationPlan`] (the R-rule
/// picks each block's paradigm).
pub fn train_unified(cfg: &ExecConfig, iters: u64) -> TrainRun {
    train_unified_with(cfg, &PlanOpts::default(), iters).1
}

/// [`train_unified`] with explicit plan options; also returns the
/// compiled plan so callers can inspect paradigms or the digest.
pub fn train_unified_with(
    cfg: &ExecConfig,
    opts: &PlanOpts,
    iters: u64,
) -> (IterationPlan, TrainRun) {
    let plan = cfg.compile_plan(opts);
    let run = train_on(local_endpoints(cfg), cfg, iters, |comm, state, sh, i| {
        unified::run_iteration(comm, state, sh, &plan, i)
    });
    (plan, run)
}

/// [`train_unified`] over caller-supplied transport endpoints (one per
/// rank), e.g. a `ReliableTransport<FaultyTransport<LocalTransport>>`
/// stack from a chaos test. Endpoints are flushed before teardown so
/// in-flight reliability traffic (retransmits awaiting their final acks)
/// is not lost with the mesh; the plan is compiled with default options.
pub fn train_unified_on<T: Transport + 'static>(
    endpoints: Vec<T>,
    cfg: &ExecConfig,
    iters: u64,
) -> TrainRun {
    assert_eq!(endpoints.len(), cfg.world(), "one endpoint per rank");
    let plan = cfg.compile_plan(&PlanOpts::default());
    train_on(endpoints, cfg, iters, |comm, state, sh, i| {
        unified::run_iteration(comm, state, sh, &plan, i)
    })
}

/// The in-process mesh the local trainers run on: liveness-monitored with
/// heartbeats off, so a panicking rank surfaces to its peers as
/// `PeerDead` instead of a hang (the mesh `run_workers` builds).
fn local_endpoints(cfg: &ExecConfig) -> Vec<LivenessMonitor<LocalTransport>> {
    monitored_mesh(cfg.world(), LivenessConfig::default())
}

/// Train every rank from initialization for `iters` iterations of `step`.
fn train_on<T: Transport + 'static>(
    endpoints: Vec<T>,
    cfg: &ExecConfig,
    iters: u64,
    step: impl Fn(&Comm<T>, &mut WorkerState, &MachineShared, u64) -> Result<IterOutput, CommError>
        + Sync,
) -> TrainRun {
    let shared = MachineShared::for_cluster(cfg);
    let results = run_on(endpoints, |comm| {
        let mut state = WorkerState::init(cfg, comm.rank());
        let sh = &shared[cfg.machine_of(comm.rank())];
        let (losses, output, flushed) = train_rank(&comm, &mut state, 0..iters, |state, i| {
            step(&comm, state, sh, i)
        });
        flushed.expect("flushing the transport");
        (losses, output, state.experts, state.comm.snapshot())
    });
    collect(results)
}

/// The per-rank training loop every driver shares: run iterations
/// `iters` through `step`, then drain the transport and record its
/// counters. Returns the loss history, the last output, and the drain's
/// outcome (callers decide whether a failed drain is fatal). A failed
/// iteration panics, naming the rank and iteration.
pub(crate) fn train_rank<T: Transport>(
    comm: &Comm<T>,
    state: &mut WorkerState,
    iters: Range<u64>,
    mut step: impl FnMut(&mut WorkerState, u64) -> Result<IterOutput, CommError>,
) -> (Vec<f32>, Matrix, Result<(), CommError>) {
    let rank = comm.rank();
    let mut losses = Vec::new();
    let mut output = None;
    for i in iters {
        let out = step(state, i).unwrap_or_else(|e| panic!("rank {rank} at iteration {i}: {e}"));
        losses.push(out.loss);
        output = Some(out.output);
    }
    let flushed = comm.transport().flush();
    state.comm.record_transport(comm.transport().stats());
    (losses, output.expect("at least one iteration"), flushed)
}

pub(crate) type WorkerResult = (Vec<f32>, Matrix, Vec<Vec<ExpertFfn>>, CommSnapshot);

pub(crate) fn collect(results: Vec<WorkerResult>) -> TrainRun {
    let mut run = TrainRun {
        losses: Vec::new(),
        outputs: Vec::new(),
        experts: Vec::new(),
        comm: Vec::new(),
        trace: Vec::new(),
    };
    for (losses, output, experts, comm) in results {
        run.losses.push(losses);
        run.outputs.push(output);
        run.experts.push(experts);
        run.comm.push(comm);
    }
    // Claim whatever the run recorded (nothing unless the caller enabled
    // recording). Drained here so back-to-back runs don't bleed spans
    // into each other's traces.
    if janus_obs::global().enabled() {
        run.trace = janus_obs::global().drain_events();
    }
    run
}

/// Divergence between the two paradigms after identical training runs.
#[derive(Debug, Clone)]
pub struct ParadigmDiff {
    /// Largest |Δ| across all workers' final outputs.
    pub max_output_diff: f32,
    /// Largest |Δ| across all final expert weights.
    pub max_weight_diff: f32,
    /// Largest |Δ| across the loss histories.
    pub max_loss_diff: f32,
}

/// Run both pure engines on identical inputs and measure their
/// divergence.
pub fn compare_paradigms(cfg: &ExecConfig, iters: u64) -> ParadigmDiff {
    let ec = train_expert_centric(cfg, iters);
    let dc = train_data_centric(cfg, iters);
    diff_runs(&ec, &dc)
}

/// Largest divergence between two training runs across outputs, weights,
/// and loss histories.
pub fn diff_runs(a: &TrainRun, b: &TrainRun) -> ParadigmDiff {
    let mut max_output_diff = 0.0f32;
    let mut max_weight_diff = 0.0f32;
    let mut max_loss_diff = 0.0f32;
    for (oa, ob) in a.outputs.iter().zip(&b.outputs) {
        max_output_diff = max_output_diff.max(oa.max_abs_diff(ob));
    }
    for (wa, wb) in a.experts.iter().zip(&b.experts) {
        for (ba, bb) in wa.iter().zip(wb) {
            for (ea, eb) in ba.iter().zip(bb) {
                max_weight_diff = max_weight_diff
                    .max(ea.w1.max_abs_diff(&eb.w1))
                    .max(ea.w2.max_abs_diff(&eb.w2));
            }
        }
    }
    for (la, lb) in a.losses.iter().zip(&b.losses) {
        for (x, y) in la.iter().zip(lb) {
            max_loss_diff = max_loss_diff.max((x - y).abs());
        }
    }
    ParadigmDiff {
        max_output_diff,
        max_weight_diff,
        max_loss_diff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Within one iteration (before any weight update) the two paradigms
    /// produce bitwise-identical forward outputs: every token's expert
    /// computation and combine happen in the same order on the same bits.
    #[test]
    fn single_iteration_outputs_are_bitwise_identical() {
        let cfg = ExecConfig::small();
        let diff = compare_paradigms(&cfg, 1);
        assert_eq!(diff.max_output_diff, 0.0, "{diff:?}");
        assert_eq!(diff.max_loss_diff, 0.0, "{diff:?}");
    }

    /// The headline equivalence result over multiple updates: both
    /// engines compute per-source-worker gradients and fold them in the
    /// same pre-reduction order, so trained weights — and therefore all
    /// subsequent outputs and losses — are bitwise identical.
    #[test]
    fn paradigms_are_bitwise_equivalent_over_updates() {
        let cfg = ExecConfig::small();
        let diff = compare_paradigms(&cfg, 3);
        assert_eq!(diff.max_output_diff, 0.0, "{diff:?}");
        assert_eq!(diff.max_weight_diff, 0.0, "{diff:?}");
        assert_eq!(diff.max_loss_diff, 0.0, "{diff:?}");
    }

    #[test]
    fn equivalence_holds_for_top1_gate() {
        let cfg = ExecConfig {
            top_k: 1,
            ..ExecConfig::small()
        };
        let diff = compare_paradigms(&cfg, 2);
        assert_eq!(diff.max_output_diff, 0.0, "{diff:?}");
        assert_eq!(diff.max_weight_diff, 0.0, "{diff:?}");
    }

    #[test]
    fn equivalence_holds_for_multi_expert_shards() {
        // 16 experts over 4 workers → 4 experts per worker.
        let cfg = ExecConfig {
            experts: 16,
            ..ExecConfig::small()
        };
        let diff = compare_paradigms(&cfg, 2);
        assert_eq!(diff.max_output_diff, 0.0, "{diff:?}");
        assert_eq!(diff.max_weight_diff, 0.0, "{diff:?}");
    }

    /// The acceptance bar for the unified engine: on a config whose
    /// compiled plan mixes paradigms across blocks, `train_unified`
    /// produces bitwise the outputs, losses, and final weights of both
    /// pure engines on identical inputs.
    #[test]
    fn unified_matches_both_pure_engines_bitwise_on_mixed_plan() {
        let cfg = ExecConfig::mixed_paradigms();
        let (plan, un) = train_unified_with(&cfg, &PlanOpts::default(), 2);
        let paradigms = plan.paradigms();
        assert!(
            paradigms.contains(&crate::paradigm::Paradigm::ExpertCentric)
                && paradigms.contains(&crate::paradigm::Paradigm::DataCentric),
            "plan must mix paradigms, got {paradigms:?}"
        );
        let ec = train_expert_centric(&cfg, 2);
        let dc = train_data_centric(&cfg, 2);
        for (name, pure) in [("expert-centric", &ec), ("data-centric", &dc)] {
            let diff = diff_runs(&un, pure);
            assert_eq!(diff.max_output_diff, 0.0, "vs {name}: {diff:?}");
            assert_eq!(diff.max_weight_diff, 0.0, "vs {name}: {diff:?}");
            assert_eq!(diff.max_loss_diff, 0.0, "vs {name}: {diff:?}");
        }
    }

    #[test]
    fn all_engines_converge() {
        let cfg = ExecConfig::small();
        let ec = train_expert_centric(&cfg, 5);
        let dc = train_data_centric(&cfg, 5);
        let un = train_unified(&cfg, 5);
        for run in [&ec, &dc, &un] {
            for losses in &run.losses {
                assert!(
                    losses.last().unwrap() < losses.first().unwrap(),
                    "{losses:?}"
                );
            }
        }
    }
}
