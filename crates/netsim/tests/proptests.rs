//! Property-based tests for the fair allocator and the simulator.

use janus_netsim::fair::{max_min_rates, FairShare};
use janus_netsim::{simulate, GraphBuilder, Work};
use janus_topology::LinkId;
use proptest::prelude::*;

/// The straightforward water-filler the per-link solver must match bit
/// for bit: each round scans every link for the bottleneck and every flow
/// for membership in it.
fn reference_max_min_rates(flows: &[Vec<LinkId>], capacities: &[f64]) -> Vec<f64> {
    let n = flows.len();
    let mut rates = vec![f64::INFINITY; n];
    if n == 0 {
        return rates;
    }

    // Deduplicated routes so repeated links don't double-count.
    let dedup: Vec<Vec<usize>> = flows
        .iter()
        .map(|route| {
            let mut ls: Vec<usize> = route.iter().map(|l| l.index()).collect();
            ls.sort_unstable();
            ls.dedup();
            ls
        })
        .collect();

    let mut remaining = capacities.to_vec();
    let mut flows_on_link = vec![0usize; capacities.len()];
    for ls in &dedup {
        for &l in ls {
            flows_on_link[l] += 1;
        }
    }
    let mut frozen = vec![false; n];
    // Flows with empty routes are frozen at infinity from the start.
    let mut unfrozen = 0usize;
    for (i, ls) in dedup.iter().enumerate() {
        if ls.is_empty() {
            frozen[i] = true;
        } else {
            unfrozen += 1;
        }
    }

    while unfrozen > 0 {
        // Bottleneck link: smallest fair share among links with unfrozen flows.
        let mut best_share = f64::INFINITY;
        let mut best_link = usize::MAX;
        for (l, &cnt) in flows_on_link.iter().enumerate() {
            if cnt > 0 {
                let share = (remaining[l] / cnt as f64).max(0.0);
                if share < best_share {
                    best_share = share;
                    best_link = l;
                }
            }
        }
        if best_link == usize::MAX {
            // No contended links left; remaining flows are unconstrained.
            break;
        }
        // Freeze every unfrozen flow crossing the bottleneck.
        for i in 0..n {
            if frozen[i] || !dedup[i].contains(&best_link) {
                continue;
            }
            frozen[i] = true;
            unfrozen -= 1;
            rates[i] = best_share;
            for &l in &dedup[i] {
                remaining[l] = (remaining[l] - best_share).max(0.0);
                flows_on_link[l] -= 1;
            }
        }
    }
    rates
}

/// Random flow routes over `n_links` links.
fn flows_strategy(n_links: usize) -> impl Strategy<Value = Vec<Vec<LinkId>>> {
    prop::collection::vec(prop::collection::vec(0..n_links, 1..=n_links.min(4)), 1..12).prop_map(
        |flows| {
            flows
                .into_iter()
                .map(|f| f.into_iter().map(LinkId).collect())
                .collect()
        },
    )
}

/// Routes that may be empty or repeat a link, over `n_links` links.
fn rough_routes(n_links: usize) -> impl Strategy<Value = Vec<Vec<LinkId>>> {
    prop::collection::vec(prop::collection::vec(0..n_links, 0..=5), 0..16).prop_map(|flows| {
        flows
            .into_iter()
            .map(|f| f.into_iter().map(LinkId).collect())
            .collect()
    })
}

/// Capacities mixing dead links, small integers (so shares tie across
/// links and the lowest-index tie-break decides), arbitrary values and
/// unbounded links.
fn rough_caps(n_links: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            Just(0.0),
            (1u32..4).prop_map(f64::from),
            0.1f64..100.0,
            Just(f64::INFINITY),
        ],
        n_links,
    )
}

fn bits(rates: &[f64]) -> Vec<u64> {
    rates.iter().map(|r| r.to_bits()).collect()
}

/// Sorted, deduplicated link indices of each route.
fn dedup_routes(flows: &[Vec<LinkId>]) -> Vec<Vec<usize>> {
    flows
        .iter()
        .map(|f| {
            let mut ls: Vec<usize> = f.iter().map(|l| l.index()).collect();
            ls.sort_unstable();
            ls.dedup();
            ls
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The per-link solver reproduces the reference water-filler bit for
    /// bit, ties, dead links and unbounded links included.
    #[test]
    fn fair_solver_matches_reference_bitwise(
        flows in rough_routes(6),
        caps in rough_caps(6),
    ) {
        prop_assert_eq!(
            bits(&max_min_rates(&flows, &caps)),
            bits(&reference_max_min_rates(&flows, &caps))
        );
    }

    /// Permuting the flows permutes their rates, bit for bit: the rates
    /// depend on the multiset of routes, not on the order flows are
    /// listed or frozen in.
    #[test]
    fn fair_rates_are_permutation_invariant(
        flows in rough_routes(6),
        caps in rough_caps(6),
        keys in prop::collection::vec(any::<u64>(), 16),
    ) {
        let mut perm: Vec<usize> = (0..flows.len()).collect();
        perm.sort_by_key(|&i| keys[i]);
        let permuted: Vec<Vec<LinkId>> = perm.iter().map(|&i| flows[i].clone()).collect();
        let rates = max_min_rates(&flows, &caps);
        let expected: Vec<f64> = perm.iter().map(|&i| rates[i]).collect();
        prop_assert_eq!(bits(&max_min_rates(&permuted, &caps)), bits(&expected));
    }

    /// One solver reused across problems of different sizes answers each
    /// exactly as a fresh one does: no scratch state leaks between calls.
    #[test]
    fn reused_fair_solver_matches_reference(
        a in rough_routes(6),
        caps_a in rough_caps(6),
        b in rough_routes(3),
        caps_b in rough_caps(3),
    ) {
        let mut solver = FairShare::default();
        for (flows, caps) in [(&a, &caps_a), (&b, &caps_b), (&a, &caps_a)] {
            let got = bits(solver.solve(&dedup_routes(flows), caps));
            prop_assert_eq!(got, bits(&reference_max_min_rates(flows, caps)));
        }
    }
}

proptest! {
    /// No link ever exceeds its capacity under max-min allocation.
    #[test]
    fn fair_allocation_respects_capacities(
        flows in flows_strategy(5),
        caps in prop::collection::vec(0.1f64..100.0, 5),
    ) {
        let rates = max_min_rates(&flows, &caps);
        let mut used = vec![0.0f64; caps.len()];
        for (flow, rate) in flows.iter().zip(&rates) {
            let mut links: Vec<usize> = flow.iter().map(|l| l.index()).collect();
            links.sort_unstable();
            links.dedup();
            for l in links {
                used[l] += rate;
            }
        }
        for (u, c) in used.iter().zip(&caps) {
            prop_assert!(*u <= c * (1.0 + 1e-9), "link over capacity: {u} > {c}");
        }
    }

    /// Max-min optimality: every flow has a bottleneck link — a saturated
    /// link on its route where no other flow gets a strictly higher rate.
    #[test]
    fn fair_allocation_is_max_min(
        flows in flows_strategy(4),
        caps in prop::collection::vec(0.5f64..50.0, 4),
    ) {
        let rates = max_min_rates(&flows, &caps);
        let dedup: Vec<Vec<usize>> = flows
            .iter()
            .map(|f| {
                let mut ls: Vec<usize> = f.iter().map(|l| l.index()).collect();
                ls.sort_unstable();
                ls.dedup();
                ls
            })
            .collect();
        let mut used = vec![0.0f64; caps.len()];
        for (links, rate) in dedup.iter().zip(&rates) {
            for &l in links {
                used[l] += rate;
            }
        }
        for (i, links) in dedup.iter().enumerate() {
            let has_bottleneck = links.iter().any(|&l| {
                let saturated = used[l] >= caps[l] * (1.0 - 1e-9);
                let i_is_max = dedup
                    .iter()
                    .enumerate()
                    .filter(|(_, other)| other.contains(&l))
                    .all(|(j, _)| rates[j] <= rates[i] * (1.0 + 1e-9));
                saturated && i_is_max
            });
            prop_assert!(has_bottleneck, "flow {i} (rate {}) has no bottleneck", rates[i]);
        }
    }

    /// The simulated makespan of a set of laneless transfers is never less
    /// than the most loaded link's serial time, and link byte counters
    /// conserve the offered load.
    #[test]
    fn sim_makespan_and_byte_conservation(
        transfers in prop::collection::vec(
            (prop::collection::vec(0..4usize, 1..=3), 1.0f64..1000.0),
            1..10,
        ),
        caps in prop::collection::vec(1.0f64..50.0, 4),
    ) {
        let mut g = GraphBuilder::new(4, 0);
        let mut offered = [0.0f64; 4];
        for (route, bytes) in &transfers {
            let mut links: Vec<usize> = route.clone();
            links.sort_unstable();
            links.dedup();
            for &l in &links {
                offered[l] += bytes;
            }
            g.task(
                Work::Transfer {
                    route: links.into_iter().map(LinkId).collect(),
                    bytes: *bytes,
                    lane: None,
                    latency: 0.0,
                },
                &[],
            );
        }
        let result = simulate(&g.build(), &caps).unwrap();
        for l in 0..4 {
            prop_assert!((result.link_bytes[l] - offered[l]).abs() < 1e-3,
                "link {l}: carried {} vs offered {}", result.link_bytes[l], offered[l]);
            let serial = offered[l] / caps[l];
            prop_assert!(result.makespan >= serial - 1e-6,
                "makespan {} below serial bound {serial}", result.makespan);
        }
        // And never worse than fully serializing everything on the
        // slowest link of each transfer.
        let serial_total: f64 = transfers
            .iter()
            .map(|(route, bytes)| {
                let min_cap = route.iter().map(|&l| caps[l]).fold(f64::INFINITY, f64::min);
                bytes / min_cap
            })
            .sum();
        prop_assert!(result.makespan <= serial_total + 1e-6);
    }

    /// Credit pools never admit more concurrent holders than their
    /// capacity: with a pool of size c and per-holder duration d, the
    /// makespan of k holders is at least ceil(k/c)*d.
    #[test]
    fn credit_pool_limits_concurrency(
        holders in 1usize..12,
        capacity in 1u32..4,
    ) {
        let d = 1.0;
        let mut g = GraphBuilder::new(0, 0);
        let pool = g.pool(capacity);
        for i in 0..holders {
            let lane = g.lane(); // independent lanes: only the pool constrains concurrency
            let a = g.task(Work::AcquireCredits { pool, amount: 1 }, &[]);
            let c = g.task(Work::Compute { lane, duration: d }, &[a]);
            g.task(Work::ReleaseCredits { pool, amount: 1 }, &[c]);
            let _ = i;
        }
        let result = simulate(&g.build(), &[]).unwrap();
        let rounds = holders.div_ceil(capacity as usize) as f64;
        prop_assert!((result.makespan - rounds * d).abs() < 1e-9,
            "makespan {} != expected {}", result.makespan, rounds * d);
    }

    /// Simulation is deterministic: running the same graph twice gives
    /// identical timings.
    #[test]
    fn sim_is_deterministic(
        transfers in prop::collection::vec(
            (prop::collection::vec(0..3usize, 1..=2), 1.0f64..100.0),
            1..8,
        ),
    ) {
        let build = || {
            let mut g = GraphBuilder::new(3, 0);
            let lane = g.lane();
            for (route, bytes) in &transfers {
                let mut links: Vec<usize> = route.clone();
                links.sort_unstable();
                links.dedup();
                let t = g.task(
                    Work::Transfer {
                        route: links.into_iter().map(LinkId).collect(),
                        bytes: *bytes,
                        lane: None,
                        latency: 0.0,
                    },
                    &[],
                );
                g.task(Work::Compute { lane, duration: 0.1 }, &[t]);
            }
            g.build()
        };
        let caps = [7.0, 11.0, 13.0];
        let r1 = simulate(&build(), &caps).unwrap();
        let r2 = simulate(&build(), &caps).unwrap();
        prop_assert_eq!(r1.makespan, r2.makespan);
        for (a, b) in r1.records.iter().zip(&r2.records) {
            prop_assert_eq!(a.start, b.start);
            prop_assert_eq!(a.finish, b.finish);
        }
    }
}
