//! One source row of minimal routes, in two steps over one scratch.
//!
//! [`Routing::scan_row`](crate::Routing::scan_row) runs the row's one
//! forward BFS over the router's state graph; besides the distance it
//! carries, per state, how many minimal routes reach it (saturated at 2)
//! and the summed link cost along the route while it is the only one.
//! A destination with one minimal route is then answered from the scan
//! ([`RouteRow::unique_route_cost`]); only the others pay for
//! [`Routing::row_links`](crate::Routing::row_links), the backward walk
//! over the minimal-route DAG that collects a link list, ascending by id.

use commsched_topology::{LinkId, SwitchId, Topology};

/// A router's state graph as the row steps see it: `per_switch`
/// consecutive states per switch, `fwd[s]` / `rev[s]` the transitions
/// out of / into state `s` with the link each crosses, `link_cost[l]`
/// the slowdown of link `l`.
pub(crate) struct StateGraph<'a> {
    pub(crate) per_switch: usize,
    pub(crate) fwd: &'a [Vec<(usize, LinkId)>],
    pub(crate) rev: &'a [Vec<(usize, LinkId)>],
    pub(crate) link_cost: &'a [u32],
}

/// The slowdown of every link of `topo`, by link id.
pub(crate) fn link_costs(topo: &Topology) -> Vec<u32> {
    (0..topo.num_links())
        .map(|l| topo.link_slowdown(l))
        .collect()
}

/// Reusable scratch of the two row steps. One value serves every row of
/// every router it is handed to, of any size: a scan overwrites what the
/// last one left, stamps only grow, and a walk clears its link bits.
#[derive(Debug, Default)]
pub struct RouteRow {
    per_switch: usize,
    /// Hops from the row's start state; `u32::MAX` if unreached.
    dist_from: Vec<u32>,
    /// Minimal routes from the start state to each state, saturated at 2.
    routes: Vec<u8>,
    /// Summed link cost along the route to a state with `routes == 1`.
    cost: Vec<u64>,
    /// BFS queue (never popped, read through a cursor).
    queue: Vec<usize>,
    /// Walk stamps per state, and the last stamp handed out.
    state_seen: Vec<u32>,
    mark: u32,
    /// One bit per link crossed by the current walk, 64 links a word.
    link_bits: Vec<u64>,
    stack: Vec<usize>,
}

impl RouteRow {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The summed link slowdown along the minimal route from the row's
    /// source to `dst`, if there is exactly one. `None` when several
    /// minimal routes exist — their link union is then no simple path.
    pub fn unique_route_cost(&self, dst: SwitchId) -> Option<u64> {
        let (states, total) = self.ends(dst);
        let mut at_total = states.filter(|&t| self.dist_from[t] == total);
        match (at_total.next(), at_total.next()) {
            // CORRECTNESS: a minimal route is simple — cutting a revisit
            // of a switch leaves a legal, shorter route, because whatever
            // continues legally from the descended state also does from
            // the ascending one. So one route means the link union is a
            // simple path with the terminals at its ends, and two mean
            // two distinct equal-length simple routes between the same
            // ends, whose union holds a cycle: the series-path test over
            // the union's links answers exactly as this count does.
            (Some(t), None) if self.routes[t] == 1 => Some(self.cost[t]),
            _ => None,
        }
    }

    /// The states of `dst` and the least distance among them.
    fn ends(&self, dst: SwitchId) -> (std::ops::Range<usize>, u32) {
        let states = dst * self.per_switch..(dst + 1) * self.per_switch;
        let total = self.dist_from[states.clone()].iter().min();
        let total = total.copied().unwrap_or(u32::MAX);
        debug_assert_ne!(total, u32::MAX, "row scanned, topology connected");
        (states, total)
    }

    /// The forward BFS from `start`, counting routes and summing costs.
    pub(crate) fn scan(&mut self, g: &StateGraph<'_>, start: usize) {
        let states = g.fwd.len();
        self.per_switch = g.per_switch;
        self.dist_from.clear();
        self.dist_from.resize(states, u32::MAX);
        self.routes.resize(states, 0);
        self.cost.resize(states, 0);
        // Stamps are never cleared: a walk's mark is one no walk had.
        self.state_seen.resize(states, 0);
        self.link_bits.resize(g.link_cost.len().div_ceil(64), 0);
        self.queue.clear();
        self.dist_from[start] = 0;
        self.routes[start] = 1;
        self.cost[start] = 0;
        self.queue.push(start);
        let mut head = 0;
        while let Some(&s) = self.queue.get(head) {
            head += 1;
            let next = self.dist_from[s] + 1;
            for &(t, link) in &g.fwd[s] {
                if self.dist_from[t] == u32::MAX {
                    self.dist_from[t] = next;
                    self.routes[t] = self.routes[s];
                    // At most 2N slowdowns of 32 bits: never wraps.
                    self.cost[t] = self.cost[s] + u64::from(g.link_cost[link]);
                    self.queue.push(t);
                } else if self.dist_from[t] == next {
                    // CORRECTNESS: a legal switch route fixes its phase
                    // sequence (a move is up or down by the levels of its
                    // ends), so paths of the state graph from the start
                    // state and legal routes are in bijection: counting
                    // shortest paths here counts minimal routes. Every
                    // predecessor of `t` sits one level up and leaves the
                    // queue before `t` does, so the count is final when
                    // `t` is expanded.
                    self.routes[t] = (self.routes[t] + self.routes[s]).min(2);
                }
            }
        }
    }

    /// The links on minimal routes from the scanned start state to `dst`,
    /// ascending by id, into `out`: a walk backward from `dst`'s terminal
    /// states over the transitions `p -> s` with `dist_from[p] + 1 ==
    /// dist_from[s]`, which touches only states on minimal routes. A
    /// crossed link sets its bit (a link can be crossed from both phases
    /// of a state), and the bits are read out once the walk is done.
    pub(crate) fn walk_back(&mut self, g: &StateGraph<'_>, dst: SwitchId, out: &mut Vec<LinkId>) {
        debug_assert_eq!(
            self.dist_from.len(),
            g.rev.len(),
            "row scanned by this router"
        );
        out.clear();
        if self.mark == u32::MAX {
            self.state_seen.fill(0);
            self.mark = 0;
        }
        self.mark += 1;
        let mark = self.mark;
        self.stack.clear();
        let (states, total) = self.ends(dst);
        for t in states {
            if self.dist_from[t] == total {
                self.state_seen[t] = mark;
                self.stack.push(t);
            }
        }
        while let Some(s) = self.stack.pop() {
            let ds = self.dist_from[s];
            for &(p, link) in &g.rev[s] {
                if self.dist_from[p] != u32::MAX && self.dist_from[p] + 1 == ds {
                    self.link_bits[link / 64] |= 1 << (link % 64);
                    if self.state_seen[p] != mark {
                        self.state_seen[p] = mark;
                        self.stack.push(p);
                    }
                }
            }
        }
        // CORRECTNESS: words in order, each low bit first, list every
        // crossed link once in ascending id, as a sort always did: a pair
        // that goes on to the solver hands it the link-id order every
        // recorded table bit was produced with.
        for (w, word) in self.link_bits.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}
