//! Janus: a unified expert-centric / data-centric MoE training framework.
//!
//! This crate implements the paper's contribution on top of the workspace
//! substrates:
//!
//! * [`paradigm`] — the `R = BSk/(4nHE)` gain metric and the per-block
//!   paradigm choice that makes Janus "unified" (§5.1.3, §7.5).
//! * [`priority`] — the topology-aware priority strategies: Algorithm 1's
//!   staggered ring for intra-node pulls and the PCIe-switch-aware split
//!   for draining the CPU cache (§5.2).
//! * [`queue`] — the Janus Task Queue components: the credit-based buffer
//!   of the Intra-Node Scheduler (§5.1.1) and the Cache Manager plus
//!   gradient pre-reduction of the Inter-Node Scheduler (§5.1.2).
//! * [`plan`] — compiles a cluster + model + paradigm choice into each
//!   worker's ordered fetch plan.
//! * [`sim`] — discrete-event engines that execute one training iteration
//!   of either paradigm on the [`janus_netsim`] simulator and report
//!   iteration time, traffic, timelines, and memory (every figure of the
//!   paper's evaluation is a view over these reports).
//! * [`exec`] — numerical engines that run real MoE training over
//!   [`janus_comm`] transports in both paradigms, demonstrating the
//!   paper's equivalence claim (§3.2) end to end.
//! * [`ckpt`] — versioned, checksummed per-rank checkpoints with a
//!   bitwise `save(load(x)) == x` guarantee, plus the store the round
//!   driver commits cuts to.
//! * [`exec::elastic`] — the round driver: training in checkpointed
//!   rounds that survives crashed ranks bitwise, with live expert
//!   re-placement (skew rebalance, dead-rank drain) as a policy at
//!   round boundaries.

pub mod ckpt;
pub mod paradigm;
pub mod placement;
pub mod plan;
pub mod priority;
pub mod queue;

pub mod sim {
    //! Discrete-event iteration engines (one per paradigm) and reports.
    pub mod collectives;
    pub mod common;
    pub mod data_centric;
    pub mod drift;
    pub mod engine;
    pub mod expert_centric;
    pub mod memory;
    pub mod report;
    pub mod setup;

    pub use engine::{simulate_iteration, EngineOpts, ParadigmPolicy};
    pub use report::IterationReport;
    pub use setup::SimSetup;
}

pub mod exec {
    //! Numerical training engines over real message transports.
    pub mod data_centric;
    pub mod elastic;
    pub mod expert_centric;
    pub mod model;
    pub(crate) mod obs;
    pub mod trainer;
    pub mod unified;
    pub mod weights;
}

pub use paradigm::{choose_paradigm, Paradigm, ParadigmPolicy};
pub use placement::{Move, Placement};
pub use plan::{Fnv64, IterationPlan, PlanOpts};
