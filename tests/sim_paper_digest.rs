//! Bitwise pin of the fluid simulator at the paper's scale: MoE-GPT under
//! the unified and the expert-centric policy on the 4 × 8 A100 cluster,
//! priced through `compile_plan → build_graph_from_plan → simulate`.
//!
//! The expert-centric plan keeps close to a thousand flows in flight, so
//! these pins cover the max-min fair allocator where the simulator spends
//! its time. Both pins were captured before the allocator was rewritten
//! as a reusable per-link solver, from the simple scan-every-flow
//! water-filler it replaced; any change to the event loop or the
//! allocator must reproduce them bit for bit.

use janus::core::sim::engine::{build_graph_from_plan, compile_plan, EngineOpts, ParadigmPolicy};
use janus::core::sim::setup::SimSetup;
use janus::core::Fnv64;
use janus::moe::config::ModelPreset;
use janus::moe::workload::Imbalance;
use janus::netsim::{simulate, SimResult};
use janus::topology::ClusterSpec;

const SEED: u64 = 1;

fn price(policy: ParadigmPolicy) -> SimResult {
    let setup = SimSetup::new(
        ClusterSpec::a100(4, 8).build(),
        ModelPreset::MoeGpt.config(32),
        Imbalance::Zipf(0.3),
        SEED,
    );
    let opts = EngineOpts {
        policy,
        seed: SEED,
        ..EngineOpts::default()
    };
    let plan = compile_plan(&setup, &opts);
    let (graph, _) = build_graph_from_plan(&setup, &opts, &plan);
    simulate(&graph, &setup.cluster.capacities()).expect("paper-scale plan simulates")
}

/// FNV-1a over every task's ready/start/finish bits, then the per-link
/// byte and busy counters and the per-domain memory peaks.
fn digest(r: &SimResult) -> u64 {
    let mut h = Fnv64::new();
    for rec in &r.records {
        for t in [rec.ready, rec.start, rec.finish] {
            h.word(t.to_bits());
        }
    }
    for v in r.link_bytes.iter().chain(&r.link_busy).chain(&r.mem_peak) {
        h.word(v.to_bits());
    }
    h.finish()
}

#[test]
fn paper_scale_simulation_is_bitwise_pinned() {
    for (policy, makespan_bits, digest_pin) in [
        (
            ParadigmPolicy::Unified,
            0x3fd9_3d6f_1b6d_5312,
            0xd802_95d0_55dd_4c89,
        ),
        (
            ParadigmPolicy::ExpertCentric,
            0x3fe1_7723_b412_6074,
            0xe679_9cc9_95ab_e0f2,
        ),
    ] {
        let r = price(policy);
        let got = (r.makespan.to_bits(), digest(&r));
        assert_eq!(
            got,
            (makespan_bits, digest_pin),
            "{policy:?}: (makespan bits, digest) = ({:#018x}, {:#018x}), makespan {} s",
            got.0,
            got.1,
            r.makespan
        );
    }
}
