//! The certified resistance interval of the approximate solver: route
//! stripping from above (Rayleigh), BFS level cuts from below
//! (Nash–Williams).

use commsched_topology::{LinkId, SwitchId, Topology};

/// Reusable scratch for the certified resistance interval of
/// [`SolverKind::Approximate`](crate::SolverKind::Approximate): stamped global→compact node maps plus
/// BFS/Dijkstra buffers, all reused across pairs so the hot loop never
/// allocates per pair.
#[derive(Default)]
pub(super) struct ApproxScratch {
    /// Global switch id → stamp of the pair that last touched it.
    stamp: Vec<u32>,
    /// Global switch id → compact index (valid when stamped).
    index: Vec<usize>,
    mark: u32,
    /// Compact adjacency: `adj[u] = (v, resistance, edge index)`. Only
    /// the first `nodes` rows are live for the current pair.
    adj: Vec<Vec<(usize, f64, u32)>>,
    /// Edges consumed by an already-extracted route (route stripping).
    eused: Vec<bool>,
    /// Dijkstra predecessor: `(node, edge index)` on the cheapest route.
    prev: Vec<(usize, u32)>,
    /// BFS level per compact node.
    level: Vec<u32>,
    queue: Vec<usize>,
    /// Dijkstra tentative distances and settled flags.
    dist: Vec<f64>,
    done: Vec<bool>,
    /// Dijkstra frontier, reused across routes and pairs.
    heap: std::collections::BinaryHeap<Frontier>,
    /// Conductance (Σ 1/r) of the BFS cut between levels `d` and `d+1`.
    cut_cond: Vec<f64>,
}

/// Route-stripping cap for the upper bound: paper-style networks are
/// 3-regular, so a terminal has at most 3 edge-disjoint routes; a
/// couple extra passes cover heterogeneous cases without letting a
/// pathological pair spin.
const APPROX_MAX_ROUTES: usize = 6;

/// Dijkstra frontier entry ordered as a min-heap by tentative distance.
#[derive(PartialEq)]
struct Frontier(f64, usize);
impl Eq for Frontier {}
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop the nearest node.
        other.0.total_cmp(&self.0)
    }
}
impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl ApproxScratch {
    /// Certified interval `[lo, hi]` bracketing the effective resistance
    /// between `a` and `b` on the sub-network `links`, in
    /// `O(k · E log V)` for `k ≤ APPROX_MAX_ROUTES` routes:
    ///
    /// * `hi` — Rayleigh monotonicity plus node splitting: keep only a
    ///   set of *edge-disjoint* `a`→`b` routes (dropping edges raises
    ///   resistance), then split any shared internal nodes (un-shorting
    ///   also raises it); what is left is `k` parallel resistors, so
    ///   `R ≤ 1 / Σ_i (1 / route_res_i)`. Routes are stripped cheapest
    ///   first (Dijkstra over link resistances, previously used edges
    ///   removed), and stripping stops as soon as the interval already
    ///   satisfies `eps` — the common case pays one Dijkstra.
    /// * `lo` — Nash–Williams: the BFS level cuts `δ(level d → d+1)` are
    ///   edge-disjoint separators of `a` from `b` (an edge never spans
    ///   two BFS levels; same-level edges sit in no cut), so
    ///   `R ≥ Σ_d 1/(Σ_{e ∈ cut_d} 1/r_e)`. Both endpoints' BFS trees
    ///   give valid cuts; the larger bound wins.
    ///
    /// Returns `None` when a terminal is missing or unreachable (the
    /// caller escalates to the exact solver, which reports the error).
    pub(super) fn pair_bounds(
        &mut self,
        topo: &Topology,
        links: &[LinkId],
        a: SwitchId,
        b: SwitchId,
        eps: f64,
    ) -> Option<(f64, f64)> {
        if links.is_empty() {
            return None;
        }
        let n = topo.num_switches();
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.index.resize(n, 0);
        }
        if self.mark == u32::MAX {
            self.stamp[..n].fill(0);
            self.mark = 0;
        }
        self.mark += 1;
        let mark = self.mark;
        let mut nodes = 0usize;
        let mut touch = |scratch: &mut Self, s: SwitchId| -> usize {
            if scratch.stamp[s] == mark {
                scratch.index[s]
            } else {
                scratch.stamp[s] = mark;
                scratch.index[s] = nodes;
                if scratch.adj.len() <= nodes {
                    scratch.adj.push(Vec::new());
                } else {
                    scratch.adj[nodes].clear();
                }
                nodes += 1;
                nodes - 1
            }
        };
        let mut r_min = f64::INFINITY;
        for (e, &l) in links.iter().enumerate() {
            let link = topo.link(l);
            let u = touch(self, link.a);
            let v = touch(self, link.b);
            // Heterogeneous link speeds: a slower link resists more.
            let r = f64::from(topo.link_slowdown(l));
            r_min = r_min.min(r);
            let e = u32::try_from(e).expect("sub-network link count fits u32");
            self.adj[u].push((v, r, e));
            self.adj[v].push((u, r, e));
        }
        if self.stamp[a] != mark || self.stamp[b] != mark {
            return None;
        }
        let (ca, cb) = (self.index[a], self.index[b]);

        // Lower bound: series-compose the BFS level-cut conductances
        // from `a`; the second BFS (from `b`) is deferred until the
        // first route needs it — most pairs bail before then.
        let mut lo = self.level_cut_bound(nodes, ca, cb)?;
        let hops = f64::from(self.level[cb]);
        let max_routes = APPROX_MAX_ROUTES.min(self.adj[ca].len().min(self.adj[cb].len()));

        // Heuristic pre-filter (spends accuracy never, only time): the
        // final upper bound cannot drop below `hops · r_min / max_routes`
        // (every route costs at least the hop distance times the
        // cheapest link, and at most `max_routes` compose in parallel).
        // When even that optimistic interval misses `eps` against this
        // side's cut bound, skip route stripping — the exact solver is
        // barely more expensive than the Dijkstras we avoid. A rare pair
        // the other side's cut bound would have certified escalates too:
        // that costs speed only, never the certificate's honesty.
        let optimistic = (hops * r_min / max_routes as f64).max(lo);
        if (optimistic - lo) / (2.0 * lo) > eps {
            return None;
        }

        // Upper bound: parallel-compose edge-disjoint cheapest routes,
        // stripped one at a time, stopping once `eps` is satisfied.
        self.eused.clear();
        self.eused.resize(links.len(), false);
        let mut cond = 0.0f64;
        let mut hi = f64::INFINITY;
        for route in 0..max_routes {
            let Some(res) = self.strip_cheapest_route(nodes, ca, cb) else {
                break;
            };
            cond += 1.0 / res;
            hi = (1.0 / cond).max(lo);
            if (hi - lo) / (2.0 * lo) <= eps {
                break;
            }
            if route == 0 {
                // Feasibility bail. Later routes are never cheaper than
                // the first (Dijkstra over a shrinking edge set), and at
                // most `min degree` edge-disjoint routes exist, so the
                // final upper bound cannot drop below `res / max_routes`.
                // If even that cannot close the interval to `eps` —
                // with the stronger of both terminals' cut bounds — the
                // certificate is unreachable: escalate without paying
                // for more route stripping.
                let second = self.level_cut_bound(nodes, cb, ca)?;
                lo = lo.max(second);
                hi = hi.max(lo);
                if (hi - lo) / (2.0 * lo) <= eps {
                    break;
                }
                let best = (res / max_routes as f64).max(lo);
                if (best - lo) / (2.0 * lo) > eps {
                    break;
                }
            }
        }
        if !hi.is_finite() {
            return None;
        }
        Some((lo, hi))
    }

    /// Nash–Williams bound from one BFS tree: `Σ_d 1/(Σ_{cut_d} 1/r)`.
    /// `None` when the terminals are disconnected or coincide.
    fn level_cut_bound(&mut self, nodes: usize, from: usize, to: usize) -> Option<f64> {
        const UNSEEN: u32 = u32::MAX;
        self.level.clear();
        self.level.resize(nodes, UNSEEN);
        self.queue.clear();
        self.level[from] = 0;
        self.queue.push(from);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            for &(v, _, _) in &self.adj[u] {
                if self.level[v] == UNSEEN {
                    self.level[v] = self.level[u] + 1;
                    self.queue.push(v);
                }
            }
        }
        let lb = self.level[to];
        if lb == UNSEEN || lb == 0 {
            return None;
        }
        self.cut_cond.clear();
        self.cut_cond.resize(lb as usize, 0.0);
        for u in 0..nodes {
            for &(v, r, _) in &self.adj[u] {
                if u < v && self.level[u].abs_diff(self.level[v]) == 1 {
                    let d = self.level[u].min(self.level[v]);
                    if d < lb {
                        self.cut_cond[d as usize] += 1.0 / r;
                    }
                }
            }
        }
        Some(self.cut_cond.iter().map(|&c| 1.0 / c).sum())
    }

    /// Dijkstra over the not-yet-used edges; on success marks the
    /// cheapest route's edges used and returns its summed resistance.
    fn strip_cheapest_route(&mut self, nodes: usize, from: usize, to: usize) -> Option<f64> {
        self.dist.clear();
        self.dist.resize(nodes, f64::INFINITY);
        self.done.clear();
        self.done.resize(nodes, false);
        self.prev.clear();
        self.prev.resize(nodes, (usize::MAX, 0));
        let mut heap = std::mem::take(&mut self.heap);
        heap.clear();
        self.dist[from] = 0.0;
        heap.push(Frontier(0.0, from));
        while let Some(Frontier(d, u)) = heap.pop() {
            if self.done[u] {
                continue;
            }
            self.done[u] = true;
            if u == to {
                break;
            }
            for &(v, r, e) in &self.adj[u] {
                if self.eused[e as usize] {
                    continue;
                }
                let nd = d + r;
                if nd < self.dist[v] {
                    self.dist[v] = nd;
                    self.prev[v] = (u, e);
                    heap.push(Frontier(nd, v));
                }
            }
        }
        self.heap = heap;
        let res = self.dist[to];
        if !res.is_finite() {
            return None;
        }
        let mut u = to;
        while u != from {
            let (p, e) = self.prev[u];
            self.eused[e as usize] = true;
            u = p;
        }
        Some(res)
    }
}

#[cfg(test)]
mod tests {
    use crate::table::tests::assert_close;
    use crate::table::{
        equivalent_distance_table, equivalent_distance_table_with_report, TableOptions,
    };
    use commsched_routing::{ShortestPathRouting, UpDownRouting};
    use commsched_topology::designed;

    #[test]
    fn approximate_solver_respects_its_certificate() {
        let t = designed::paper_24_switch();
        let r = UpDownRouting::new(&t, 0).unwrap();
        let exact = equivalent_distance_table(&t, &r).unwrap();
        for eps in [0.0, 0.05, 0.25, 1.0] {
            let (approx, report) =
                equivalent_distance_table_with_report(&t, &r, TableOptions::approximate(eps))
                    .unwrap();
            let report = report.expect("approximate build reports");
            assert!(report.err_max <= eps + 1e-15, "eps {eps}: {report:?}");
            let mut measured = 0.0f64;
            for i in 0..24 {
                for j in (i + 1)..24 {
                    let rel = (approx.get(i, j) - exact.get(i, j)).abs() / exact.get(i, j);
                    measured = measured.max(rel);
                }
            }
            assert!(
                measured <= report.err_max + 1e-12,
                "eps {eps}: measured {measured} > reported {}",
                report.err_max
            );
            assert!(
                report.pairs_approximated + report.pairs_escalated > 0,
                "non-path pairs exist on the paper network"
            );
        }
        // eps = 0 escalates everything: bit-identical to the exact build.
        let (tight, _) =
            equivalent_distance_table_with_report(&t, &r, TableOptions::approximate(0.0)).unwrap();
        assert_eq!(tight, exact);
    }

    #[test]
    fn approximate_bounds_bracket_parallel_arcs() {
        // Even ring antipodes: two 2-hop arcs in parallel, true R = 1.
        // A loose budget is satisfied by the first stripped route alone
        // (interval [1, 2], midpoint 1.5); a tighter one forces the
        // second route, which closes the interval to [1, 1] — the
        // midpoint *is* the exact value, and nothing escalates.
        let t = designed::ring(4, 1);
        let r = ShortestPathRouting::new(&t).unwrap();
        let (coarse, rep) =
            equivalent_distance_table_with_report(&t, &r, TableOptions::approximate(0.5)).unwrap();
        assert_close(coarse.get(0, 2), 1.5);
        assert!(rep.unwrap().pairs_approximated >= 2, "both antipode pairs");
        let (fine, rep) =
            equivalent_distance_table_with_report(&t, &r, TableOptions::approximate(0.25)).unwrap();
        assert_close(fine.get(0, 2), 1.0);
        let rep = rep.unwrap();
        assert!(rep.pairs_approximated >= 2, "route stripping tightens");
        assert_eq!(rep.pairs_escalated, 0, "no pair needs the exact solver");
    }
}
