//! Unconstrained shortest-path routing.
//!
//! The baseline router: every topological shortest path is a legal route.
//! Used (a) to contrast the equivalent-distance tables with and without the
//! up*/down* constraint, and (b) for regular topologies where unconstrained
//! minimal routing is the natural choice.

use crate::row::{link_costs, StateGraph};
use crate::{RouteRow, RouteState, Routing, RoutingError};
use commsched_topology::{LinkId, SwitchId, Topology};

/// Shortest-path router with precomputed all-pairs hop distances.
#[derive(Debug, Clone)]
pub struct ShortestPathRouting {
    num_switches: usize,
    /// `dist[src][dst]` hop distance.
    dist: Vec<Vec<u32>>,
    /// Adjacency copied from the topology: `(neighbour, link id)`.
    adj: Vec<Vec<(SwitchId, LinkId)>>,
    /// Slowdown of each link of the routed topology.
    link_cost: Vec<u32>,
}

impl ShortestPathRouting {
    /// Build the router for `topo`.
    ///
    /// # Errors
    /// Fails with [`RoutingError::Disconnected`] if any pair is unreachable.
    pub fn new(topo: &Topology) -> Result<Self, RoutingError> {
        let n = topo.num_switches();
        let mut dist = Vec::with_capacity(n);
        for s in 0..n {
            let d = topo.bfs_distances(s);
            if d.contains(&u32::MAX) {
                return Err(RoutingError::Disconnected);
            }
            dist.push(d);
        }
        let adj = (0..n).map(|s| topo.neighbors(s).to_vec()).collect();
        Ok(Self {
            num_switches: n,
            dist,
            adj,
            link_cost: link_costs(topo),
        })
    }

    /// One state per switch; every move is legal both ways, so the
    /// adjacency is its own reverse.
    fn state_graph(&self) -> StateGraph<'_> {
        StateGraph {
            per_switch: 1,
            fwd: &self.adj,
            rev: &self.adj,
            link_cost: &self.link_cost,
        }
    }
}

impl Routing for ShortestPathRouting {
    fn num_switches(&self) -> usize {
        self.num_switches
    }

    fn route_distance(&self, src: SwitchId, dst: SwitchId) -> u32 {
        self.dist[src][dst]
    }

    fn minimal_route_links(&self, src: SwitchId, dst: SwitchId) -> Vec<LinkId> {
        if src == dst {
            return Vec::new();
        }
        let total = self.dist[src][dst];
        let mut links = Vec::new();
        // A directed move u -> v lies on a shortest path iff
        // d(src, u) + 1 + d(v, dst) == d(src, dst).
        for u in 0..self.num_switches {
            let du = self.dist[src][u];
            if du >= total {
                continue;
            }
            for &(v, link) in &self.adj[u] {
                if du + 1 + self.dist[v][dst] == total {
                    links.push(link);
                }
            }
        }
        links.sort_unstable();
        links.dedup();
        links
    }

    fn scan_row(&self, src: SwitchId, row: &mut RouteRow) {
        row.scan(&self.state_graph(), src);
    }

    fn row_links(&self, dst: SwitchId, row: &mut RouteRow, out: &mut Vec<LinkId>) {
        row.walk_back(&self.state_graph(), dst, out);
    }

    fn next_hops(&self, state: RouteState, dst: SwitchId) -> Vec<RouteState> {
        if state.node == dst {
            return Vec::new();
        }
        let d = self.dist[state.node][dst];
        self.adj[state.node]
            .iter()
            .filter(|&&(v, _)| self.dist[v][dst] + 1 == d)
            .map(|&(v, _)| RouteState {
                node: v,
                descended: state.descended,
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "shortest-path"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsched_topology::{designed, TopologyBuilder};

    #[test]
    fn distances_match_bfs() {
        let t = designed::mesh(3, 3, 1);
        let r = ShortestPathRouting::new(&t).unwrap();
        for s in 0..9 {
            assert_eq!(
                (0..9).map(|d| r.route_distance(s, d)).collect::<Vec<_>>(),
                t.bfs_distances(s)
            );
        }
    }

    #[test]
    fn ring_uses_both_arcs_when_tied() {
        // In an even ring, antipodal pairs have two shortest arcs; all ring
        // links should appear in the minimal link set.
        let t = designed::ring(6, 1);
        let r = ShortestPathRouting::new(&t).unwrap();
        let links = r.minimal_route_links(0, 3);
        assert_eq!(links.len(), 6);
    }

    #[test]
    fn ring_single_arc_when_strictly_shorter() {
        let t = designed::ring(6, 1);
        let r = ShortestPathRouting::new(&t).unwrap();
        // 0 -> 2 only via 0-1-2.
        let links = r.minimal_route_links(0, 2);
        let expect = {
            let mut v = vec![t.link_between(0, 1).unwrap(), t.link_between(1, 2).unwrap()];
            v.sort_unstable();
            v
        };
        assert_eq!(links, expect);
    }

    #[test]
    fn next_hops_all_decrease_distance() {
        let t = designed::torus(3, 3, 1);
        let r = ShortestPathRouting::new(&t).unwrap();
        for src in 0..9 {
            for dst in 0..9 {
                for h in r.next_hops(RouteState::start(src), dst) {
                    assert_eq!(
                        r.route_distance(h.node, dst) + 1,
                        r.route_distance(src, dst)
                    );
                }
            }
        }
    }

    #[test]
    fn disconnected_rejected() {
        let t = TopologyBuilder::new(4, 1)
            .links([(0, 1), (2, 3)])
            .allow_disconnected()
            .build()
            .unwrap();
        assert_eq!(
            ShortestPathRouting::new(&t).unwrap_err(),
            RoutingError::Disconnected
        );
    }

    #[test]
    fn shortest_never_longer_than_updown() {
        use crate::UpDownRouting;
        let t = designed::ring(8, 1);
        let sp = ShortestPathRouting::new(&t).unwrap();
        let ud = UpDownRouting::new(&t, 0).unwrap();
        for a in 0..8 {
            for b in 0..8 {
                assert!(sp.route_distance(a, b) <= ud.route_distance(a, b));
            }
        }
    }
}
