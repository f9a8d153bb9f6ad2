//! The round driver: checkpointed training that survives crashed ranks,
//! with live expert re-placement as a policy at round boundaries.
//!
//! [`train_elastic`] slices training into *rounds* of `ckpt_every`
//! iterations. Each round runs on a fresh transport mesh
//! (`Reliable<Faulty<Monitor<Local>>>` — fault injection above the
//! liveness monitor, so heartbeats neither perturb the fault schedule
//! nor are themselves dropped before the board sees silence). Workers
//! restore from the round's starting checkpoint cut (or initialize fresh
//! at iteration 0), run the round's iterations, and return their
//! end-of-round checkpoint bytes *in their result* — the driver commits
//! a cut to the [`CkptStore`] only when **every** live rank finished the
//! round, so a crash can never leave a torn, partially-written cut
//! behind.
//!
//! When a rank dies (an injected [`CrashPoint`](janus_comm::CrashPoint)
//! or any other panic), the runtime marks it dead on the mesh health
//! board; peers blocked on it fail fast with
//! [`janus_comm::CommError::PeerDead`] instead of hanging. The driver
//! disarms the crash points that fired, counts a recovery, and replays
//! the round from the last committed cut. With [`ElasticOpts::default`]
//! the placement never changes and this is plain supervised training.
//!
//! At a round boundary the driver may also install a new [`Placement`]
//! epoch:
//!
//! * **Skew migration.** A deterministic routing probe ([`expert_loads`])
//!   prices every expert's load offline; when the max/mean live-rank
//!   load ratio crosses `skew_ratio`, the round starts with
//!   [`Placement::rebalance`] and the affected experts are shipped live
//!   — bitwise, via the checkpoint wire encoding of expert state
//!   ([`expert_to_bytes`]) — over the reliable transport to their new
//!   owners.
//! * **Graceful degradation.** When a rank dies permanently (a
//!   [`PermanentDeath`] in the schedule, standing in for the liveness
//!   monitor's unrecoverable-death verdict), the failed round is
//!   replayed from the last committed cut under [`Placement::drain`]:
//!   the dead rank's experts are re-apportioned across survivors, their
//!   weights recovered from the dead rank's last committed checkpoint
//!   (or the deterministic init at iteration 0), and training completes
//!   without the dead rank's tokens.
//!
//! Every placement change commits through a barrier tagged with the new
//! epoch before any iteration runs under it, and a round's results are
//! only committed when **all** live ranks finish — so a death during
//! the migration exchange tears down the attempt with the mesh, the
//! placement is *not* installed, and the retry at the same boundary
//! (now draining the new corpse) starts again from the committed cut.
//! Routing can therefore never observe a torn placement.
//!
//! **Why a recovered run is bitwise identical to a fault-free run:** a
//! committed cut is a bitwise snapshot of every rank's state at an
//! iteration boundary, where the end-of-iteration double barrier plus
//! transport flush guarantee no in-flight protocol state survives.
//! Replaying a round from such a cut is therefore the same deterministic
//! computation the fault-free run performs — crashed attempts mutate
//! only state that is thrown away with their mesh. Likewise placements
//! are pure functions of (config, death/skew evidence), expert blobs are
//! bitwise snapshots, and the post-migration cut each rank captures
//! right after the commit barrier is returned to the caller — the chaos
//! tests restart reference runs from those cuts and assert the
//! continuation is bitwise identical.

use crate::ckpt::{Checkpoint, CkptStore};
use crate::exec::data_centric::MachineShared;
use crate::exec::model::{CommSnapshot, ExecConfig, WorkerState};
use crate::exec::trainer::{collect, train_rank, TrainRun};
use crate::exec::unified;
use crate::exec::weights::{expert_from_bytes, expert_to_bytes};
use crate::placement::{Move, Placement};
use crate::plan::{IterationPlan, PlanOpts};
use bytes::Bytes;
use janus_comm::collectives::barrier_among;
use janus_comm::liveness::monitor_mesh;
use janus_comm::local::local_mesh;
use janus_comm::runtime::{run_on, run_on_result};
use janus_comm::{
    Comm, CrashAt, FaultPlan, FaultyTransport, LivenessConfig, Message, ReliableTransport,
    RetransmitPolicy, Transport,
};
use janus_moe::expert::ExpertFfn;
use janus_tensor::Matrix;
use std::collections::HashMap;
use std::time::Instant;

/// The marker every injected crash panics with; the driver uses it to
/// tell scheduled faults from genuine worker bugs.
pub const INJECTED_CRASH_MARKER: &str = "injected crash";

/// Deterministic gate bias: adds `boost` to the gate weight column of
/// one expert on every rank, making it run hot. The skew chaos tests use
/// this to provoke a rebalance without touching the token stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateSkew {
    /// Block whose gate is biased.
    pub block: usize,
    /// Expert to overload.
    pub expert: usize,
    /// Added to every row of the expert's gate column.
    pub boost: f32,
}

/// One scheduled unrecoverable rank death.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PermanentDeath {
    /// Rank that dies.
    pub rank: usize,
    /// Iteration whose round the death lands in; the rank panics before
    /// executing this iteration.
    pub at_iter: u64,
    /// Die *inside the migration exchange* of the round instead of at
    /// the iteration — exercises the abort-and-retry path.
    pub during_migration: bool,
}

/// Round driver knobs. The default is plain supervised training: no
/// skew trigger, no scheduled deaths, so the placement never changes.
#[derive(Debug, Clone)]
pub struct ElasticOpts {
    /// Round length: placement changes and checkpoint cuts happen every
    /// `ckpt_every` completed iterations.
    pub ckpt_every: u64,
    /// How many failed rounds the driver will recover from before
    /// giving up and surfacing the failure.
    pub max_recoveries: u32,
    /// Reliability policy for the per-round transport stack.
    pub retransmit: RetransmitPolicy,
    /// Liveness policy for the per-round transport stack. The default
    /// (heartbeats off) still detects panics — the runtime marks dead
    /// ranks on the health board directly; enable heartbeats to also
    /// suspect silently wedged peers.
    pub liveness: LivenessConfig,
    /// Skew trigger: rebalance when max/mean live-rank probe load
    /// exceeds this ratio. `INFINITY` disables skew migration.
    pub skew_ratio: f64,
    /// Cap on experts moved by one rebalance.
    pub max_moves: usize,
    /// Optional deterministic gate bias (applied on every rank after
    /// every init/restore, so it is part of the run's definition).
    pub skew: Option<GateSkew>,
    /// Scheduled permanent deaths.
    pub deaths: Vec<PermanentDeath>,
}

impl Default for ElasticOpts {
    fn default() -> Self {
        ElasticOpts {
            ckpt_every: 1,
            max_recoveries: 8,
            retransmit: RetransmitPolicy::default(),
            liveness: LivenessConfig::default(),
            skew_ratio: f64::INFINITY,
            max_moves: 4,
            skew: None,
            deaths: Vec::new(),
        }
    }
}

/// One committed placement epoch.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct EpochCommit {
    /// The epoch installed.
    pub epoch: u64,
    /// Iteration boundary it was installed at.
    pub at_iter: u64,
    /// Digest of the placement table.
    pub placement_digest: u64,
    /// Digest of the iteration plan carrying this placement.
    pub plan_digest: u64,
    /// Experts that changed owner.
    pub moves: usize,
    /// Why: `"skew rebalance …"` or `"drain rank N"`.
    pub reason: String,
}

/// One rank's recovery bookkeeping.
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct RankRecovery {
    /// Times this rank died (injected or not).
    pub crashes: u64,
    /// Checkpoints of this rank committed to the store.
    pub ckpts_written: u64,
    /// Times this rank was restored from a committed cut.
    pub ckpts_restored: u64,
}

/// What fault tolerance and elasticity cost (and saved) a run.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct ElasticReport {
    /// Placement epochs committed, in order.
    pub epochs: Vec<EpochCommit>,
    /// Ranks declared permanently dead.
    pub dead_ranks: Vec<usize>,
    /// True when the run finished without its full world.
    pub degraded: bool,
    /// Expert blobs that changed owner (cluster-wide).
    pub migrations: u64,
    /// Bytes of expert state shipped by migrations.
    pub migration_bytes: u64,
    /// Worker deaths observed (injected crashes, permanent deaths, and
    /// collateral panics).
    pub crashes: u64,
    /// Failed rounds replayed.
    pub recoveries: u64,
    /// Iterations re-executed because a round failed (round length ×
    /// failed attempts).
    pub replayed_iterations: u64,
    /// Checkpoints committed to the store (live ranks × cuts).
    pub ckpts_written: u64,
    /// Checkpoints restored from the store (live ranks × replays that
    /// started from a committed cut).
    pub ckpts_restored: u64,
    /// Bytes of committed checkpoints.
    pub ckpt_bytes_written: u64,
    /// Bytes read back while restoring.
    pub ckpt_bytes_restored: u64,
    /// Wall-clock time of each recovery (restore + replay of the failed
    /// round), in microseconds.
    pub recover_us: Vec<u64>,
    /// Per-rank breakdown.
    pub per_rank: Vec<RankRecovery>,
    /// Migration exchanges torn down by a death mid-exchange (the
    /// placement was not installed; the retry re-planned it).
    pub aborted_migrations: u64,
    /// Digest of the placement the run finished under.
    pub final_placement_digest: u64,
}

impl ElasticReport {
    /// The `p`-th percentile (0–100) of recovery times, in microseconds.
    pub fn recover_us_percentile(&self, p: f64) -> u64 {
        if self.recover_us.is_empty() {
            return 0;
        }
        let mut sorted = self.recover_us.clone();
        sorted.sort_unstable();
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }
}

/// A committed post-migration checkpoint cut: every live rank's state at
/// `at_iter`, captured immediately after the epoch's commit barrier.
/// Reference runs restart from here via [`resume_from_cut`].
pub struct MigratedCut {
    /// Iteration boundary the placement was installed at.
    pub at_iter: u64,
    /// The installed placement.
    pub placement: Placement,
    /// Per-rank checkpoint bytes (`None` for dead ranks).
    pub ckpts: Vec<Option<Bytes>>,
}

/// Everything an elastic run produces.
pub struct ElasticOutcome {
    /// The compiled plan (placement-free base; per-epoch plan digests
    /// are in the report).
    pub plan: IterationPlan,
    /// The finished training run (dead ranks contribute their committed
    /// prefix and empty final output/experts).
    pub run: TrainRun,
    /// The migration ledger.
    pub report: ElasticReport,
    /// Post-migration cuts, one per committed epoch.
    pub cuts: Vec<MigratedCut>,
}

/// Deterministic offline load probe: `loads[b][e]` is the number of
/// token slots block `b`'s gate routes to expert `e` across every
/// rank's iteration-0 token embeddings (with `skew` applied). Gates and
/// inputs are pure functions of the config, so every rank — and the
/// driver — computes the identical histogram without touching the mesh.
/// (Deeper blocks route transformed activations at run time; the probe
/// is an estimate there, which is all a load balancer needs.)
pub fn expert_loads(cfg: &ExecConfig, skew: Option<&GateSkew>) -> Vec<Vec<f64>> {
    let mut loads: Vec<Vec<f64>> = (0..cfg.blocks)
        .map(|b| vec![0.0; cfg.experts_in(b)])
        .collect();
    for rank in 0..cfg.world() {
        let mut state = WorkerState::init(cfg, rank);
        if let Some(s) = skew {
            apply_gate_skew(&mut state, s);
        }
        for (b, row) in loads.iter_mut().enumerate() {
            let hist = state.gates[b].route(&state.inputs).histogram();
            for (l, h) in row.iter_mut().zip(hist) {
                *l += h as f64;
            }
        }
    }
    loads
}

/// Max/mean live-rank load under `p` — the skew trigger's input.
pub fn skew_ratio(p: &Placement, loads: &[Vec<f64>]) -> f64 {
    let per_rank: Vec<f64> = (0..p.world())
        .filter(|&r| p.is_live(r))
        .map(|r| {
            loads
                .iter()
                .enumerate()
                .map(|(b, row)| p.owned_in(b, r).iter().map(|&e| row[e]).sum::<f64>())
                .sum()
        })
        .collect();
    let max = per_rank.iter().cloned().fold(0.0, f64::max);
    let mean = per_rank.iter().sum::<f64>() / per_rank.len().max(1) as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

/// Bias one expert's gate column on every replica of its block gate.
pub fn apply_gate_skew(state: &mut WorkerState, skew: &GateSkew) {
    let w = &mut state.gates[skew.block].weight;
    for r in 0..w.rows() {
        w[(r, skew.expert)] += skew.boost;
    }
}

/// The owner changes between two placements, ascending by `(block,
/// expert)` — the migration exchange's deterministic shipping list.
pub fn placement_moves(prev: &Placement, next: &Placement) -> Vec<Move> {
    let mut moves = Vec::new();
    for (b, (po, no)) in prev.owners.iter().zip(&next.owners).enumerate() {
        for (e, (&pf, &nt)) in po.iter().zip(no).enumerate() {
            if pf != nt {
                moves.push(Move {
                    block: b,
                    expert: e,
                    from: pf as usize,
                    to: nt as usize,
                });
            }
        }
    }
    moves
}

/// Collective sequence tag of one migrating expert blob. Bit 63 keeps
/// the tag clear of every training-collective sequence.
fn mig_seq(b: usize, e: usize) -> u64 {
    (1u64 << 63) | ((b as u64) << 32) | e as u64
}

/// Train `iters` iterations of the unified engine in checkpointed
/// rounds, injecting `faults` (including [`janus_comm::CrashPoint`]s).
/// Transient crashes replay the failed round from the last committed
/// cut; permanent deaths and skew rebalances re-place experts at round
/// boundaries. Returns the outcome — with the post-migration cuts for
/// bitwise reference runs — or an error once `max_recoveries` failed
/// rounds have been spent.
///
/// The headline property (asserted by the chaos tests): when the
/// placement never changes, the returned run's losses, outputs, and
/// final weights are **bitwise identical** to a fault-free
/// [`crate::exec::trainer::train_unified`] of the same config,
/// regardless of where the crashes struck.
pub fn train_elastic(
    cfg: &ExecConfig,
    opts: &PlanOpts,
    el: &ElasticOpts,
    iters: u64,
    faults: FaultPlan,
) -> Result<ElasticOutcome, String> {
    assert!(iters > 0, "training needs at least one iteration");
    let plan = cfg.compile_plan(opts);
    let digest = plan.digest();
    let world = cfg.world();
    let round_len = el.ckpt_every.max(1);
    let loads = expert_loads(cfg, el.skew.as_ref());

    let store = CkptStore::new();
    let mut pending_faults = faults;
    let mut deaths = el.deaths.clone();
    let mut placement = WorkerState::balanced_placement(cfg);
    // (table, reason, moves) of a placement change waiting to commit;
    // survives failed attempts so a drain is never lost.
    let mut pending_target: Option<(Placement, String, usize)> = None;
    let mut report = ElasticReport {
        per_rank: vec![RankRecovery::default(); world],
        ..ElasticReport::default()
    };
    let mut cuts: Vec<MigratedCut> = Vec::new();
    let mut losses: Vec<Vec<f32>> = vec![Vec::new(); world];
    let mut comm_totals: Vec<CommSnapshot> = vec![CommSnapshot::default(); world];
    let mut last_round: Vec<Option<(Matrix, Vec<Vec<ExpertFfn>>)>> =
        (0..world).map(|_| None).collect();
    let mut recoveries_left = el.max_recoveries;
    let mut start: u64 = 0;
    // Set after a failed attempt so the next (replaying) attempt is
    // timed as the recovery.
    let mut recovering_since: Option<Instant> = None;

    while start < iters {
        let end = (start + round_len).min(iters);
        // Plan this round's placement: a pending drain (from a death in
        // the previous attempt) wins; otherwise consult the skew trigger.
        if pending_target.is_none() && el.skew_ratio.is_finite() {
            let ratio = skew_ratio(&placement, &loads);
            if ratio > el.skew_ratio {
                let (next, moves) = placement.rebalance(&loads, el.max_moves);
                if !moves.is_empty() {
                    pending_target = Some((
                        next,
                        format!("skew rebalance (load ratio {ratio:.2})"),
                        moves.len(),
                    ));
                }
            }
        }
        let (target, reason, n_moves) = match &pending_target {
            Some((t, r, m)) => (t.clone(), r.clone(), *m),
            None => (placement.clone(), String::new(), 0),
        };

        // Orphan blobs: experts whose previous owner is dead in the
        // target. Recovered from the corpse's last committed checkpoint,
        // or from the deterministic init when nothing was committed yet.
        let moves = placement_moves(&placement, &target);
        let mut orphans: HashMap<(usize, usize), Bytes> = HashMap::new();
        for mv in moves.iter().filter(|m| !target.is_live(m.from)) {
            let expert = if start == 0 {
                WorkerState::reference_expert(cfg, mv.block, mv.expert)
            } else {
                let bytes = store
                    .get(mv.from, start)
                    .expect("dead rank's cut was committed before it died");
                let ckpt = Checkpoint::from_bytes(&bytes)
                    .map_err(|e| format!("recovering rank {} cut {start}: {e}", mv.from))?;
                let local = ckpt.effective_placement().local_index(mv.block, mv.expert);
                ckpt.experts[mv.block][local].clone()
            };
            orphans.insert((mv.block, mv.expert), expert_to_bytes(&expert));
        }

        let round_deaths: Vec<PermanentDeath> = deaths
            .iter()
            .filter(|d| target.is_live(d.rank) && d.at_iter >= start && d.at_iter < end)
            .copied()
            .collect();
        let migrating = target != placement;
        // A replay of a later round restores every live rank from the
        // committed cut at `start`; round 0 re-initializes instead.
        let restoring = recovering_since.is_some() && start > 0;
        if restoring {
            report.ckpt_bytes_restored += (0..world)
                .filter(|&r| target.is_live(r))
                .map(|r| store.get(r, start).map_or(0, |b| b.len() as u64))
                .sum::<u64>();
        }
        let results = run_elastic_round(RoundSpec {
            cfg,
            plan: &plan,
            el,
            store: &store,
            faults: &pending_faults,
            digest,
            start,
            end,
            prev: &placement,
            target: &target,
            orphans: &orphans,
            deaths: &round_deaths,
        });

        let failed: Vec<(usize, String)> = results
            .iter()
            .enumerate()
            .filter_map(|(rank, r)| r.as_ref().err().map(|msg| (rank, msg.clone())))
            .collect();

        if failed.is_empty() {
            // Commit: every live rank finished the round, so the cut at
            // `end` is complete and becomes the new restore point.
            let mut cut_ckpts: Vec<Option<Bytes>> = vec![None; world];
            for (rank, r) in results.into_iter().enumerate() {
                let Ok(Some(out)) = r else { continue };
                losses[rank].extend(out.losses);
                comm_totals[rank].accumulate(&out.comm);
                report.ckpts_written += 1;
                report.ckpt_bytes_written += out.ckpt.len() as u64;
                report.per_rank[rank].ckpts_written += 1;
                if restoring {
                    report.ckpts_restored += 1;
                    report.per_rank[rank].ckpts_restored += 1;
                }
                store.put(rank, end, out.ckpt);
                last_round[rank] = Some((out.output, out.experts));
                cut_ckpts[rank] = out.migrated_cut;
            }
            if let Some(since) = recovering_since.take() {
                let us = since.elapsed().as_micros() as u64;
                report.recover_us.push(us);
                janus_obs::global().observe("janus_time_to_recover_us", us);
            }
            if migrating {
                report.epochs.push(EpochCommit {
                    epoch: target.epoch,
                    at_iter: start,
                    placement_digest: target.digest(),
                    plan_digest: plan.clone().with_placement(target.clone()).digest(),
                    moves: n_moves,
                    reason,
                });
                cuts.push(MigratedCut {
                    at_iter: start,
                    placement: target.clone(),
                    ckpts: cut_ckpts,
                });
                placement = target;
                pending_target = None;
            }
            start = end;
            continue;
        }

        // A rank died. Permanent deaths drain the corpse from the
        // *committed* placement (a torn migration was never installed);
        // transient injected crashes are disarmed; either way the round
        // replays from the committed cut and the retry re-plans the
        // placement change. A panic without the marker (a genuine bug,
        // or collateral damage from a peer's death) is replayed on the
        // same budget: if it is deterministic it will exhaust
        // `max_recoveries` and surface.
        if migrating {
            report.aborted_migrations += 1;
        }
        let mut drained = placement.clone();
        let mut drain_reasons = Vec::new();
        for (rank, msg) in &failed {
            report.crashes += 1;
            report.per_rank[*rank].crashes += 1;
            if round_deaths.iter().any(|d| d.rank == *rank) {
                deaths.retain(|d| d.rank != *rank);
                report.dead_ranks.push(*rank);
                drained = drained.drain(*rank);
                drain_reasons.push(format!("drain rank {rank}"));
            } else if msg.contains(INJECTED_CRASH_MARKER) {
                disarm(&mut pending_faults, *rank, msg);
            }
        }
        if !drain_reasons.is_empty() {
            let n = placement_moves(&placement, &drained).len();
            pending_target = Some((drained, drain_reasons.join(", "), n));
        }
        // else: keep any pending skew migration — the crash was
        // transient and the retry installs the same table.
        if recoveries_left == 0 {
            let detail: Vec<String> = failed
                .iter()
                .map(|(rank, msg)| format!("rank {rank}: {msg}"))
                .collect();
            return Err(format!(
                "round driver gave up after {} recoveries; last failures: {}",
                el.max_recoveries,
                detail.join("; ")
            ));
        }
        recoveries_left -= 1;
        report.recoveries += 1;
        report.replayed_iterations += end - start;
        janus_obs::global().count("janus_recoveries_total", 1);
        janus_obs::global().count("janus_migration_aborts_total", u64::from(migrating));
        // Keep an already-running recovery timer: back-to-back failures
        // are one outage from the run's point of view.
        recovering_since.get_or_insert_with(Instant::now);
    }

    report.degraded = placement.live_count() < world;
    report.final_placement_digest = placement.digest();
    let totals = comm_totals
        .iter()
        .fold(CommSnapshot::default(), |mut t, c| {
            t.accumulate(c);
            t
        });
    report.migrations = totals.migrations;
    report.migration_bytes = totals.migration_bytes;
    report.dead_ranks.sort_unstable();
    let results = last_round
        .into_iter()
        .zip(losses)
        .zip(comm_totals)
        .map(|((round, l), comm)| {
            let (output, experts) = round.unwrap_or((Matrix::zeros(0, 0), Vec::new()));
            (l, output, experts, comm)
        })
        .collect();
    Ok(ElasticOutcome {
        plan,
        run: collect(results),
        report,
        cuts,
    })
}

/// Restart training from a committed post-migration cut on a fresh,
/// fault-free mesh and run it to `iters`. The chaos tests assert this
/// reference continuation is bitwise identical to the elastic run past
/// the cut: a run *started from* the migrated placement and a run
/// *migrated onto* it are the same computation.
pub fn resume_from_cut(
    cfg: &ExecConfig,
    opts: &PlanOpts,
    skew: Option<&GateSkew>,
    cut: &MigratedCut,
    iters: u64,
) -> TrainRun {
    let plan = cfg.compile_plan(opts);
    let shared = MachineShared::for_cluster_placed(cfg, &cut.placement);
    let results = run_on(local_mesh(cfg.world()), |comm| {
        let rank = comm.rank();
        if !cut.placement.is_live(rank) {
            return (
                Vec::new(),
                Matrix::zeros(0, 0),
                Vec::new(),
                CommSnapshot::default(),
            );
        }
        let mut state = WorkerState::init_placed(cfg, rank, cut.placement.clone());
        if let Some(s) = skew {
            apply_gate_skew(&mut state, s);
        }
        let bytes = cut.ckpts[rank].as_ref().expect("live ranks have cut bytes");
        let ckpt = Checkpoint::from_bytes(bytes)
            .unwrap_or_else(|e| panic!("rank {rank} reading cut {}: {e}", cut.at_iter));
        ckpt.restore(&mut state)
            .unwrap_or_else(|e| panic!("rank {rank} restoring cut {}: {e}", cut.at_iter));
        let sh = &shared[cfg.machine_of(rank)];
        let mut losses = Vec::new();
        let mut output = None;
        for i in cut.at_iter..iters {
            let out = unified::run_iteration(&comm, &mut state, sh, &plan, i)
                .unwrap_or_else(|e| panic!("rank {rank} at iteration {i}: {e}"));
            losses.push(out.loss);
            output = Some(out.output);
        }
        (
            losses,
            output.expect("reference runs are non-empty"),
            state.experts,
            state.comm.snapshot(),
        )
    });
    collect(results)
}

/// One live rank's take from one elastic round (`None`: the rank is
/// dead in the round's target placement and did not participate).
struct ElasticRoundOut {
    losses: Vec<f32>,
    output: Matrix,
    experts: Vec<Vec<ExpertFfn>>,
    comm: CommSnapshot,
    ckpt: Bytes,
    /// Post-migration checkpoint at the round's start iteration,
    /// captured right after the epoch commit barrier (only when this
    /// round installed a new placement).
    migrated_cut: Option<Bytes>,
}

struct RoundSpec<'a> {
    cfg: &'a ExecConfig,
    plan: &'a IterationPlan,
    el: &'a ElasticOpts,
    store: &'a CkptStore,
    faults: &'a FaultPlan,
    digest: u64,
    start: u64,
    end: u64,
    prev: &'a Placement,
    target: &'a Placement,
    orphans: &'a HashMap<(usize, usize), Bytes>,
    deaths: &'a [PermanentDeath],
}

/// Run one `[start, end)` round on a fresh fault-injected mesh. Per
/// rank: `Ok(Some(_))` when it finished, `Ok(None)` when it is dead in
/// the target placement and sat the round out, `Err(panic message)` when
/// it died. A rank that *observes* a death (e.g. `PeerDead` out of an
/// iteration) converts it into a panic too, so every outcome is uniform.
fn run_elastic_round(spec: RoundSpec<'_>) -> Vec<Result<Option<ElasticRoundOut>, String>> {
    let RoundSpec {
        cfg,
        plan,
        el,
        store,
        faults,
        digest,
        start,
        end,
        prev,
        target,
        orphans,
        deaths,
    } = spec;
    let world = cfg.world();
    let mesh: Vec<_> = monitor_mesh(local_mesh(world), el.liveness)
        .into_iter()
        .map(|t| {
            ReliableTransport::with_policy(FaultyTransport::new(t, faults.clone()), el.retransmit)
        })
        .collect();
    let shared = MachineShared::for_cluster_placed(cfg, target);
    run_on_result(mesh, |comm| -> Option<ElasticRoundOut> {
        let rank = comm.rank();
        if !target.is_live(rank) {
            // Permanently dead: contribute nothing. Live peers never
            // address dead ranks, so the early exit is silent.
            return None;
        }
        let mut state = WorkerState::init_placed(cfg, rank, prev.clone());
        if let Some(s) = &el.skew {
            apply_gate_skew(&mut state, s);
        }
        if start > 0 {
            let bytes = store
                .get(rank, start)
                .expect("restore point was committed by the driver");
            let ckpt = Checkpoint::from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("rank {rank} restoring cut {start}: {e}"));
            assert_eq!(
                ckpt.plan_digest, digest,
                "rank {rank}: checkpoint belongs to a different plan"
            );
            assert_eq!(ckpt.iter, start, "rank {rank}: wrong cut");
            ckpt.restore(&mut state)
                .unwrap_or_else(|e| panic!("rank {rank} restoring cut {start}: {e}"));
        }
        let my_death = deaths.iter().find(|d| d.rank == rank).copied();
        let migrated_cut = if target != prev {
            let die_mid = my_death.is_some_and(|d| d.during_migration);
            migrate(&comm, &mut state, prev, target, orphans, die_mid, start);
            state.comm.record_epoch_bump();
            janus_obs::global().count("janus_migration_epochs_total", 1);
            Some(Checkpoint::capture(&state, start, digest).to_bytes())
        } else {
            None
        };
        if target.live_count() < world {
            state.comm.set_degraded();
        }
        let my_iter_crashes: Vec<u64> = faults
            .crashes
            .iter()
            .filter(|c| c.rank == rank)
            .filter_map(|c| match c.at {
                CrashAt::Iteration(i) => Some(i),
                CrashAt::SendOp(_) => None,
            })
            .collect();
        let sh = &shared[cfg.machine_of(rank)];
        // A comm error inside the round means a peer died; the whole
        // round is replayed, so this rank's partial work is discarded
        // along with it. Flush failures at teardown are not fatal to the
        // round: every iteration already completed its barriers.
        let (losses, output, _flushed) = train_rank(&comm, &mut state, start..end, |state, i| {
            if my_iter_crashes.contains(&i) {
                janus_obs::global().count("janus_crashes_injected_total", 1);
                panic!("{INJECTED_CRASH_MARKER}: rank {rank} at iteration {i}");
            }
            if my_death.is_some_and(|d| !d.during_migration && d.at_iter == i) {
                janus_obs::global().count("janus_permanent_deaths_total", 1);
                panic!("{INJECTED_CRASH_MARKER}: rank {rank} permanently dead at iteration {i}");
            }
            unified::run_iteration(&comm, state, sh, plan, i)
        });
        let ckpt = Checkpoint::capture(&state, end, digest).to_bytes();
        Some(ElasticRoundOut {
            losses,
            output,
            experts: state.experts,
            comm: state.comm.snapshot(),
            ckpt,
            migrated_cut,
        })
    })
}

/// Remove the crash point that produced `msg` from the plan so the
/// replay does not immediately die again. Injected panics name their
/// trigger (`… at iteration N` / `… at send op N`), which is parsed back
/// here rather than threading shared mutable state through the mesh.
fn disarm(plan: &mut FaultPlan, rank: usize, msg: &str) {
    let parse_after = |needle: &str| -> Option<u64> {
        let at = msg.find(needle)? + needle.len();
        let rest = &msg[at..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        digits.parse().ok()
    };
    let fired = if let Some(i) = parse_after("at iteration ") {
        Some(CrashAt::Iteration(i))
    } else {
        parse_after("at send op ").map(CrashAt::SendOp)
    };
    plan.crashes
        .retain(|c| !(c.rank == rank && Some(c.at) == fired));
}

/// The live migration exchange, run by every rank live in `target`:
/// ship departing experts bitwise (checkpoint wire encoding) over the
/// reliable transport, collect arriving ones (from the wire, or from
/// `orphans` when the previous owner is dead), re-shard the local state
/// onto `target`, and commit the epoch through a barrier so no rank can
/// start an iteration under the new table before every rank holds it.
fn migrate<T: Transport>(
    comm: &Comm<T>,
    state: &mut WorkerState,
    prev: &Placement,
    target: &Placement,
    orphans: &HashMap<(usize, usize), Bytes>,
    die_mid: bool,
    iter: u64,
) {
    let rank = comm.rank();
    let moves = placement_moves(prev, target);
    let mut sent = 0u64;
    for mv in moves.iter().filter(|m| m.from == rank) {
        let local = state.local_index(mv.block, mv.expert);
        let blob = expert_to_bytes(&state.experts[mv.block][local]);
        comm.send(
            mv.to,
            Message::Collective {
                seq: mig_seq(mv.block, mv.expert),
                data: blob,
            },
        )
        .unwrap_or_else(|e| panic!("rank {rank} shipping expert {mv:?}: {e}"));
        sent += 1;
        if die_mid {
            janus_obs::global().count("janus_permanent_deaths_total", 1);
            panic!(
                "{INJECTED_CRASH_MARKER}: rank {rank} permanently dead during migration at iteration {iter}"
            );
        }
    }
    if die_mid && sent == 0 {
        janus_obs::global().count("janus_permanent_deaths_total", 1);
        panic!(
            "{INJECTED_CRASH_MARKER}: rank {rank} permanently dead during migration at iteration {iter}"
        );
    }
    let mut blobs: HashMap<(usize, usize), Bytes> = HashMap::new();
    for mv in moves.iter().filter(|m| m.to == rank) {
        let key = (mv.block, mv.expert);
        let data = if target.is_live(mv.from) {
            let seq = mig_seq(mv.block, mv.expert);
            let (_, msg) = comm
                .recv_match(|from, m| {
                    from == mv.from && matches!(m, Message::Collective { seq: s, .. } if *s == seq)
                })
                .unwrap_or_else(|e| panic!("rank {rank} awaiting expert {mv:?}: {e}"));
            match msg {
                Message::Collective { data, .. } => data,
                _ => unreachable!("predicate admits only Collective"),
            }
        } else {
            orphans
                .get(&key)
                .unwrap_or_else(|| panic!("rank {rank}: no orphan blob for {mv:?}"))
                .clone()
        };
        state.comm.record_migration(data.len() as u64);
        janus_obs::global().count("janus_migration_bytes_total", data.len() as u64);
        blobs.insert(key, data);
    }
    state.remap_experts(target.clone(), |b, e| {
        let blob = blobs
            .remove(&(b, e))
            .unwrap_or_else(|| panic!("rank {rank}: gained expert ({b},{e}) without a blob"));
        expert_from_bytes(blob).unwrap_or_else(|e| panic!("rank {rank}: corrupt expert blob: {e}"))
    });
    // The commit barrier: after it, every live rank holds the new table,
    // so the first iteration under the epoch can never race a straggler
    // still executing the old one (a torn placement).
    barrier_among(comm, (1 << 62) | target.epoch, &target.live)
        .unwrap_or_else(|e| panic!("rank {rank} committing epoch {}: {e}", target.epoch));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::trainer::{diff_runs, train_unified};
    use janus_comm::CrashPoint;

    fn small() -> ExecConfig {
        ExecConfig {
            tokens: 8,
            ..ExecConfig::small()
        }
    }

    #[test]
    fn fault_free_elastic_run_matches_train_unified_bitwise() {
        let cfg = small();
        let out = train_elastic(
            &cfg,
            &PlanOpts::default(),
            &ElasticOpts::default(),
            3,
            FaultPlan::default(),
        )
        .unwrap();
        let baseline = train_unified(&cfg, 3);
        let diff = diff_runs(&out.run, &baseline);
        assert_eq!(diff.max_output_diff, 0.0, "{diff:?}");
        assert_eq!(diff.max_weight_diff, 0.0, "{diff:?}");
        assert_eq!(diff.max_loss_diff, 0.0, "{diff:?}");
        assert!(out.report.epochs.is_empty());
        assert!(!out.report.degraded);
        assert_eq!(out.report.migrations, 0);
        assert_eq!(out.report.crashes, 0);
        assert_eq!(out.report.recoveries, 0);
        assert_eq!(out.report.ckpts_written, 3 * cfg.world() as u64);
    }

    #[test]
    fn iteration_crash_is_recovered_bitwise() {
        let cfg = small();
        let faults = FaultPlan {
            crashes: vec![CrashPoint {
                rank: 2,
                at: CrashAt::Iteration(1),
            }],
            ..FaultPlan::default()
        };
        let out = train_elastic(
            &cfg,
            &PlanOpts::default(),
            &ElasticOpts::default(),
            3,
            faults,
        )
        .unwrap();
        let report = &out.report;
        assert!(report.crashes >= 1, "{report:?}");
        assert_eq!(report.recoveries, 1, "{report:?}");
        assert_eq!(report.ckpts_restored, cfg.world() as u64, "{report:?}");
        assert_eq!(report.recover_us.len(), 1);
        let baseline = train_unified(&cfg, 3);
        let diff = diff_runs(&out.run, &baseline);
        assert_eq!(diff.max_output_diff, 0.0, "{diff:?}");
        assert_eq!(diff.max_weight_diff, 0.0, "{diff:?}");
        assert_eq!(diff.max_loss_diff, 0.0, "{diff:?}");
    }

    #[test]
    fn send_op_crash_is_recovered_bitwise() {
        let cfg = small();
        let faults = FaultPlan {
            crashes: vec![CrashPoint {
                rank: 1,
                at: CrashAt::SendOp(7),
            }],
            ..FaultPlan::default()
        };
        let out = train_elastic(
            &cfg,
            &PlanOpts::default(),
            &ElasticOpts::default(),
            2,
            faults,
        )
        .unwrap();
        let report = &out.report;
        assert!(report.crashes >= 1, "{report:?}");
        assert!(report.recoveries >= 1, "{report:?}");
        let baseline = train_unified(&cfg, 2);
        let diff = diff_runs(&out.run, &baseline);
        assert_eq!(diff.max_weight_diff, 0.0, "{diff:?}");
        assert_eq!(diff.max_loss_diff, 0.0, "{diff:?}");
    }

    #[test]
    fn crash_in_a_later_round_restores_from_the_committed_cut() {
        let cfg = small();
        let faults = FaultPlan {
            crashes: vec![CrashPoint {
                rank: 0,
                at: CrashAt::Iteration(2),
            }],
            ..FaultPlan::default()
        };
        let el = ElasticOpts {
            ckpt_every: 2,
            ..ElasticOpts::default()
        };
        let out = train_elastic(&cfg, &PlanOpts::default(), &el, 4, faults).unwrap();
        let report = &out.report;
        // The crash hits round [2,4), which replays from the cut at 2.
        assert_eq!(report.recoveries, 1, "{report:?}");
        assert_eq!(report.ckpts_restored, cfg.world() as u64, "{report:?}");
        assert_eq!(report.replayed_iterations, 2, "{report:?}");
        let baseline = train_unified(&cfg, 4);
        let diff = diff_runs(&out.run, &baseline);
        assert_eq!(diff.max_weight_diff, 0.0, "{diff:?}");
        assert_eq!(diff.max_loss_diff, 0.0, "{diff:?}");
    }

    #[test]
    fn exhausted_recovery_budget_surfaces_the_failure() {
        let cfg = small();
        // Crash every rank at iteration 0 but allow zero recoveries.
        let faults = FaultPlan {
            crashes: vec![CrashPoint {
                rank: 0,
                at: CrashAt::Iteration(0),
            }],
            ..FaultPlan::default()
        };
        let el = ElasticOpts {
            max_recoveries: 0,
            ..ElasticOpts::default()
        };
        let err = match train_elastic(&cfg, &PlanOpts::default(), &el, 2, faults) {
            Err(e) => e,
            Ok(_) => panic!("a crash with zero recoveries must fail"),
        };
        assert!(err.contains("gave up"), "{err}");
        assert!(err.contains(INJECTED_CRASH_MARKER), "{err}");
    }

    /// A transient crash kills every rank in its round (peers observe
    /// `PeerDead`), including one scheduled to die permanently in a
    /// later round; only the scheduled death may drain it.
    #[test]
    fn transient_crash_does_not_drain_a_rank_scheduled_to_die_later() {
        let cfg = small();
        let el = ElasticOpts {
            ckpt_every: 2,
            deaths: vec![PermanentDeath {
                rank: 3,
                at_iter: 3,
                during_migration: false,
            }],
            ..ElasticOpts::default()
        };
        let faults = FaultPlan {
            crashes: vec![CrashPoint {
                rank: 0,
                at: CrashAt::Iteration(1),
            }],
            ..FaultPlan::default()
        };
        let out = train_elastic(&cfg, &PlanOpts::default(), &el, 4, faults).unwrap();
        assert_eq!(out.report.dead_ranks, vec![3]);
        assert_eq!(out.report.epochs.len(), 1, "{:?}", out.report.epochs);
        assert_eq!(out.report.epochs[0].at_iter, 2, "drained before its death");
        assert_eq!(out.run.losses[3].len(), 2);
        assert_eq!(out.report.recoveries, 2, "{:?}", out.report);
    }

    #[test]
    fn disarm_removes_only_the_fired_point() {
        let mut plan = FaultPlan {
            crashes: vec![
                CrashPoint {
                    rank: 1,
                    at: CrashAt::Iteration(0),
                },
                CrashPoint {
                    rank: 1,
                    at: CrashAt::Iteration(2),
                },
                CrashPoint {
                    rank: 2,
                    at: CrashAt::SendOp(5),
                },
            ],
            ..FaultPlan::default()
        };
        disarm(&mut plan, 1, "injected crash: rank 1 at iteration 0");
        assert_eq!(plan.crashes.len(), 2);
        assert!(plan.crashes.contains(&CrashPoint {
            rank: 1,
            at: CrashAt::Iteration(2)
        }));
        disarm(&mut plan, 2, "injected crash: rank 2 at send op 5");
        assert_eq!(plan.crashes.len(), 1);
    }

    #[test]
    fn permanent_death_drains_and_completes_degraded() {
        let cfg = small();
        let el = ElasticOpts {
            ckpt_every: 2,
            deaths: vec![PermanentDeath {
                rank: 3,
                at_iter: 2,
                during_migration: false,
            }],
            ..ElasticOpts::default()
        };
        let out = train_elastic(&cfg, &PlanOpts::default(), &el, 4, FaultPlan::default()).unwrap();
        assert!(out.report.degraded);
        assert_eq!(out.report.dead_ranks, vec![3]);
        assert_eq!(out.report.epochs.len(), 1, "{:?}", out.report.epochs);
        assert_eq!(out.report.epochs[0].at_iter, 2);
        assert!(out.report.epochs[0].reason.contains("drain rank 3"));
        assert!(out.report.migrations > 0, "{:?}", out.report);
        assert!(out.report.migration_bytes > 0);
        // The dead rank's loss history stops at the committed cut; the
        // survivors trained to the end.
        assert_eq!(out.run.losses[3].len(), 2);
        for r in 0..3 {
            assert_eq!(out.run.losses[r].len(), 4, "rank {r}");
        }
        // Orphans landed on survivors: every expert live-owned.
        assert_eq!(out.cuts.len(), 1);
        out.cuts[0].placement.assert_valid();
        assert!(!out.cuts[0].placement.is_live(3));
        let totals = out.run.comm_totals();
        assert_eq!(totals.degraded, 1);
        assert!(totals.epoch_bumps > 0);
    }

    #[test]
    fn degraded_run_is_bitwise_identical_to_resume_from_the_migrated_cut() {
        let cfg = small();
        let el = ElasticOpts {
            ckpt_every: 2,
            deaths: vec![PermanentDeath {
                rank: 1,
                at_iter: 3,
                during_migration: false,
            }],
            ..ElasticOpts::default()
        };
        let out = train_elastic(&cfg, &PlanOpts::default(), &el, 6, FaultPlan::default()).unwrap();
        assert!(out.report.degraded);
        let cut = &out.cuts[0];
        let reference = resume_from_cut(&cfg, &PlanOpts::default(), None, cut, 6);
        for rank in 0..cfg.world() {
            if !cut.placement.is_live(rank) {
                continue;
            }
            let since_cut = &out.run.losses[rank][cut.at_iter as usize..];
            assert_eq!(
                since_cut,
                &reference.losses[rank][..],
                "rank {rank} losses diverged from the reference continuation"
            );
            assert_eq!(
                out.run.outputs[rank].data(),
                reference.outputs[rank].data(),
                "rank {rank} final output not bitwise identical"
            );
            for (a, b) in out.run.experts[rank].iter().zip(&reference.experts[rank]) {
                for (ea, eb) in a.iter().zip(b) {
                    assert_eq!(ea.w1.data(), eb.w1.data(), "rank {rank} weights diverged");
                    assert_eq!(ea.w2.data(), eb.w2.data(), "rank {rank} weights diverged");
                }
            }
        }
    }

    #[test]
    fn gate_skew_triggers_a_rebalance_that_commits_bitwise() {
        let cfg = small();
        let skew = GateSkew {
            block: 0,
            expert: 0,
            boost: 8.0,
        };
        let loads = expert_loads(&cfg, Some(&skew));
        let balanced = WorkerState::balanced_placement(&cfg);
        let ratio = skew_ratio(&balanced, &loads);
        assert!(
            ratio > 1.2,
            "the bias must actually skew the probe: {ratio}"
        );
        let el = ElasticOpts {
            ckpt_every: 2,
            skew_ratio: 1.2,
            skew: Some(skew),
            ..ElasticOpts::default()
        };
        let out = train_elastic(&cfg, &PlanOpts::default(), &el, 4, FaultPlan::default()).unwrap();
        assert!(!out.report.degraded);
        assert!(!out.report.epochs.is_empty(), "skew never triggered");
        assert!(out.report.epochs[0].reason.contains("skew rebalance"));
        assert!(out.report.migrations > 0);
        // The rebalance spreads the probe load strictly better.
        let after = &out.cuts[0].placement;
        assert!(skew_ratio(after, &loads) < ratio, "rebalance did not help");
        // And the migrated run continues bitwise from its own cut.
        let cut = &out.cuts[0];
        let reference = resume_from_cut(&cfg, &PlanOpts::default(), Some(&skew), cut, 4);
        for rank in 0..cfg.world() {
            let since_cut = &out.run.losses[rank][cut.at_iter as usize..];
            assert_eq!(since_cut, &reference.losses[rank][..], "rank {rank}");
            assert_eq!(
                out.run.outputs[rank].data(),
                reference.outputs[rank].data(),
                "rank {rank}"
            );
        }
    }

    #[test]
    fn death_during_migration_aborts_cleanly_and_retries() {
        let cfg = small();
        let skew = GateSkew {
            block: 0,
            expert: 0,
            boost: 8.0,
        };
        // Rank 0 owns the skew-shedding experts of block 0 under the
        // balanced table, so it has blobs to ship — and dies mid-ship.
        let el = ElasticOpts {
            ckpt_every: 2,
            skew_ratio: 1.2,
            skew: Some(skew),
            deaths: vec![PermanentDeath {
                rank: 0,
                at_iter: 0,
                during_migration: true,
            }],
            ..ElasticOpts::default()
        };
        let out = train_elastic(&cfg, &PlanOpts::default(), &el, 4, FaultPlan::default()).unwrap();
        assert!(out.report.aborted_migrations >= 1, "{:?}", out.report);
        assert!(out.report.degraded);
        assert_eq!(out.report.dead_ranks, vec![0]);
        // The torn attempt was never installed: every committed epoch is
        // valid and the final placement excludes the corpse.
        for cut in &out.cuts {
            cut.placement.assert_valid();
        }
        let last = out.cuts.last().unwrap();
        assert!(!last.placement.is_live(0));
        // Survivors trained every iteration.
        for r in 1..cfg.world() {
            assert_eq!(out.run.losses[r].len(), 4, "rank {r}");
        }
    }

    #[test]
    fn placement_moves_lists_exactly_the_owner_changes() {
        let p = Placement::balanced(&[8], 4);
        let d = p.drain(2);
        let moves = placement_moves(&p, &d);
        assert_eq!(moves.len(), 2);
        assert!(moves.iter().all(|m| m.from == 2));
        assert!(moves.iter().all(|m| d.owner_of(m.block, m.expert) == m.to));
        assert!(placement_moves(&p, &p).is_empty());
    }
}
