//! Max-min fair bandwidth allocation (progressive filling).
//!
//! Given a set of flows, each traversing a list of links, and per-link
//! capacities, compute the max-min fair rate vector: repeatedly find the
//! most contended link (smallest equal share among its unfrozen flows),
//! freeze every unfrozen flow crossing it at that share, subtract the
//! frozen bandwidth, and continue until every flow is frozen.
//!
//! This is the classic water-filling algorithm; it terminates in at most
//! `min(#flows, #links)` rounds and produces the unique max-min fair
//! allocation.
//!
//! [`FairShare`] is the one implementation. It keeps, per link, the list
//! of flows crossing it, so a round costs a scan of the links that still
//! carry unfrozen flows plus the routes of the flows it freezes, rather
//! than a scan of every flow. Its buffers are reused across calls, so
//! the simulator, which re-solves at every flow arrival and departure,
//! allocates nothing per event once they have grown.

use janus_topology::LinkId;

/// Reusable max-min fair solver.
///
/// The result depends only on the multiset of routes, never on the order
/// in which a round freezes its flows: every flow frozen in a round
/// subtracts the same share from each of its links, so each link's
/// remaining capacity goes through the same sequence of values whichever
/// flow subtracts first. The bottleneck of a round is the link with the
/// strictly smallest share, ties going to the lowest link index.
#[derive(Debug, Default)]
pub struct FairShare {
    frozen: Vec<bool>,
    rates: Vec<f64>,
    /// Per link: capacity not yet handed to frozen flows.
    remaining: Vec<f64>,
    /// Per link: unfrozen flows crossing it.
    unfrozen_on: Vec<usize>,
    /// Per link: every flow crossing it, in flow-index order.
    members: Vec<Vec<usize>>,
    /// Links that carried unfrozen flows at the end of the last round,
    /// in increasing index order.
    active: Vec<usize>,
}

impl FairShare {
    /// Max-min fair rates of `routes` over links with `capacities`, one
    /// rate per route, in route order.
    ///
    /// Each route must list a link at most once. An empty route is
    /// unconstrained and gets `f64::INFINITY`; so does every flow whose
    /// links all have infinite capacity.
    pub fn solve<R: AsRef<[usize]>>(&mut self, routes: &[R], capacities: &[f64]) -> &[f64] {
        self.load(routes, capacities);
        let mut unfrozen = self.frozen.iter().filter(|f| !**f).count();
        while unfrozen > 0 {
            let Some((link, share)) = self.bottleneck() else {
                break;
            };
            for &i in &self.members[link] {
                if self.frozen[i] {
                    continue;
                }
                self.frozen[i] = true;
                unfrozen -= 1;
                self.rates[i] = share;
                for &l in routes[i].as_ref() {
                    self.remaining[l] = (self.remaining[l] - share).max(0.0);
                    self.unfrozen_on[l] -= 1;
                }
            }
        }
        &self.rates
    }

    /// Reset the buffers for a new problem: index the routes by link and
    /// start every non-empty route unfrozen.
    fn load<R: AsRef<[usize]>>(&mut self, routes: &[R], capacities: &[f64]) {
        let n_links = capacities.len();
        self.remaining.clear();
        self.remaining.extend_from_slice(capacities);
        self.unfrozen_on.clear();
        self.unfrozen_on.resize(n_links, 0);
        self.members.resize_with(n_links, Vec::new);
        for m in &mut self.members {
            m.clear();
        }
        self.frozen.clear();
        for (i, route) in routes.iter().enumerate() {
            let route = route.as_ref();
            for &l in route {
                debug_assert!(
                    self.members[l].last() != Some(&i),
                    "flow {i} lists link {l} twice"
                );
                self.members[l].push(i);
                self.unfrozen_on[l] += 1;
            }
            self.frozen.push(route.is_empty());
        }
        self.rates.clear();
        self.rates.resize(self.frozen.len(), f64::INFINITY);
        self.active.clear();
        self.active
            .extend((0..n_links).filter(|&l| self.unfrozen_on[l] > 0));
    }

    /// The link with the smallest fair share among those still carrying
    /// unfrozen flows, dropping links whose flows are all frozen from the
    /// active list on the way. `None` when no finite share remains.
    fn bottleneck(&mut self) -> Option<(usize, f64)> {
        let mut best = None;
        let mut best_share = f64::INFINITY;
        let mut kept = 0;
        for k in 0..self.active.len() {
            let l = self.active[k];
            let cnt = self.unfrozen_on[l];
            if cnt == 0 {
                continue;
            }
            self.active[kept] = l;
            kept += 1;
            let share = (self.remaining[l] / cnt as f64).max(0.0);
            if share < best_share {
                best_share = share;
                best = Some(l);
            }
        }
        self.active.truncate(kept);
        best.map(|l| (l, best_share))
    }
}

/// Compute max-min fair rates for `flows` over links with `capacities`.
///
/// Each entry of `flows` is the route (link list) of one flow. A flow with
/// an empty route is unconstrained and gets `f64::INFINITY` — callers
/// treat such transfers as instantaneous (both endpoints in the same
/// memory domain).
///
/// Links that appear multiple times in one route are counted once (a flow
/// cannot consume the same link twice in the fluid model).
pub fn max_min_rates(flows: &[Vec<LinkId>], capacities: &[f64]) -> Vec<f64> {
    let routes: Vec<Vec<usize>> = flows
        .iter()
        .map(|route| {
            let mut ls: Vec<usize> = route.iter().map(|l| l.index()).collect();
            ls.sort_unstable();
            ls.dedup();
            ls
        })
        .collect();
    FairShare::default().solve(&routes, capacities).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn links(ids: &[usize]) -> Vec<LinkId> {
        ids.iter().copied().map(LinkId).collect()
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let rates = max_min_rates(&[links(&[0])], &[10.0]);
        assert_eq!(rates, vec![10.0]);
    }

    #[test]
    fn equal_flows_split_evenly() {
        let rates = max_min_rates(&[links(&[0]), links(&[0]), links(&[0])], &[9.0]);
        assert_eq!(rates, vec![3.0, 3.0, 3.0]);
    }

    #[test]
    fn bottleneck_releases_bandwidth_elsewhere() {
        // Flow 0: links 0,1. Flow 1: link 0. Flow 2: link 1.
        // Capacities: link0 = 10, link1 = 4.
        // Link 1 is the first bottleneck: flows 0 and 2 get 2 each.
        // Flow 1 then gets the rest of link 0: 10 - 2 = 8.
        let rates = max_min_rates(&[links(&[0, 1]), links(&[0]), links(&[1])], &[10.0, 4.0]);
        assert_eq!(rates, vec![2.0, 8.0, 2.0]);
    }

    #[test]
    fn empty_route_is_unconstrained() {
        let rates = max_min_rates(&[links(&[]), links(&[0])], &[5.0]);
        assert_eq!(rates[0], f64::INFINITY);
        assert_eq!(rates[1], 5.0);
    }

    #[test]
    fn duplicate_links_counted_once() {
        let rates = max_min_rates(&[links(&[0, 0])], &[6.0]);
        assert_eq!(rates, vec![6.0]);
    }

    #[test]
    fn no_flows() {
        assert!(max_min_rates(&[], &[1.0]).is_empty());
    }

    #[test]
    fn zero_capacity_link_gives_zero_rate() {
        let rates = max_min_rates(&[links(&[0])], &[0.0]);
        assert_eq!(rates, vec![0.0]);
    }

    #[test]
    fn classic_water_filling_example() {
        // Three links in a line (cap 1 each); flows: A over all three,
        // B over link 0, C over link 1, D over link 2.
        // A is bottlenecked at 1/2 on every link; B, C, D get 1/2 too.
        let flows = vec![links(&[0, 1, 2]), links(&[0]), links(&[1]), links(&[2])];
        let rates = max_min_rates(&flows, &[1.0, 1.0, 1.0]);
        for r in rates {
            assert!((r - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn allocation_respects_capacities() {
        // Random-ish structured case, verified against link budgets.
        let flows = vec![
            links(&[0, 2]),
            links(&[1, 2]),
            links(&[0, 1]),
            links(&[2]),
            links(&[0]),
        ];
        let caps = [7.0, 5.0, 3.0];
        let rates = max_min_rates(&flows, &caps);
        let mut used = [0.0f64; 3];
        for (f, rate) in flows.iter().zip(&rates) {
            for l in f {
                used[l.index()] += rate;
            }
        }
        for (u, c) in used.iter().zip(&caps) {
            assert!(*u <= c + 1e-9, "link over capacity: {u} > {c}");
        }
    }
}
