//! What a workload run hands back to `main`, and the metric registry.
//!
//! Every workload reports every end-to-end metric (each is defined per
//! workload in `perfbench/README.md`). Every workload also reports every
//! per-layer metric in a traced run; a layer the workload does not reach
//! reads 0, which is what was measured there.

use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics: `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput", "1/s"),
    ("latency_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, in `BENCHMARK.json` order. `/op`
/// is per operation — a training iteration or a served request — and,
/// for rank-local quantities, per rank.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("comm.send_calls", "count/op"),
    ("comm.send_bytes", "B/op"),
    ("comm.send_ms", "ms/op"),
    ("comm.recv_calls", "count/op"),
    ("comm.recv_wait_ms", "ms/op"),
    ("comm.tcp.send_ms", "ms/op"),
    ("comm.tcp.recv_wait_ms", "ms/op"),
    ("comm.tcp.frames", "count/op"),
    ("comm.reliable.self_ms", "ms/op"),
    ("comm.reliable.frames_per_msg", "ratio"),
    ("comm.reliable.acks", "count/op"),
    ("comm.reliable.retransmits", "count/op"),
    ("comm.liveness.self_ms", "ms/op"),
    ("exec.wall_ms", "ms/op"),
    ("exec.self_ms", "ms/op"),
    ("exec.comm_share", "ratio"),
    ("exec.rank_skew", "ratio"),
    ("exec.single_rank_iter_ms", "ms"),
    ("exec.scaling_eff", "ratio"),
    ("exec.remote_bytes", "B/op"),
    ("exec.pull_retries", "count/op"),
    ("queue.cache_fetches", "count/op"),
    ("queue.cache_lookups", "count/op"),
    ("queue.cache_hit_ratio", "ratio"),
    ("queue.grad_prefolds", "count/op"),
    ("moe.expert_rows", "count"),
    ("moe.expert_fwd_bwd_ms", "ms"),
    ("moe.gate_tokens", "count"),
    ("moe.gate_route_ms", "ms"),
    ("serve.frontend_self_ms", "ms/op"),
    ("serve.worker_busy_share", "ratio"),
    ("serve.batch_tokens_mean", "count"),
    ("serve.dispatches", "count/op"),
    ("serve.redispatches", "count"),
    ("serve.goodput_rps", "1/s"),
    ("serve.drain_ms", "ms"),
    ("serve.tail_ms", "ms"),
    ("serve.tail_pct", "%"),
    ("serve.tail_samples", "count"),
    ("plan.compile_ms", "ms"),
    ("sim.build_graph_ms", "ms"),
    ("sim.tasks", "count"),
    ("netsim.simulate_ms.ec", "ms"),
    ("netsim.simulate_ms.unified", "ms"),
    ("netsim.us_per_task", "us"),
    ("trace.untraced_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.dropped_spans", "count"),
];

/// How a workload is to be run.
pub struct Ctx {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// How long the timed phase runs.
    pub seconds: Duration,
    /// Run the traced (per-layer) variant.
    pub trace: bool,
}

/// A finished workload run.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: iterations, requests, or plans.
    pub attempted: u64,
    /// Operations that failed or produced a wrong result.
    pub failed: u64,
    /// Every correctness check that did not hold.
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run environment, printed with the result.
    pub env: Vec<(&'static str, String)>,
    /// Human-readable detail lines, printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Record a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failures.push(what());
        }
        ok
    }

    /// Set metric `name` (must be registered).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unregistered metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Add a detail line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed`, and the end-to-end (untraced) or per-layer (traced)
    /// metrics. A registered metric the run did not set is an error for
    /// end-to-end metrics and a measured 0 for per-layer ones.
    pub fn result_line(&mut self, trace: bool) -> String {
        let registry = if trace { PER_LAYER } else { END_TO_END };
        let mut parts = Vec::new();
        for &(name, unit) in registry {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.failures
                        .push(format!("metric {name} is not finite: {v}"));
                    0.0
                }
                None if trace => 0.0,
                None => {
                    self.failures
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            parts.join(", ")
        )
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registries here and the metric lists of `BENCHMARK.json` name
    /// the same metrics with the same units, in the same order.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let mut at = 0;
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let found = json[at..]
                .find(&needle)
                .unwrap_or_else(|| panic!("{needle} missing or out of order"));
            at += found + needle.len();
        }
        assert_eq!(
            json.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + json.matches("\"why\": ").count(),
            "BENCHMARK.json lists a metric the benchmark does not report"
        );
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.1234567), "0.1234567");
        assert_eq!(json_number(1e-7), "1e-7");
    }
}
