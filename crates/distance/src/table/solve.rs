//! Resolving one pair: the single place an equivalent distance is
//! computed, under the full build and under the incremental repair.

use super::spec::{TableError, TableOptions};
use crate::resistance::{effective_resistance_weighted, SolverKind, Workspace};
use commsched_routing::{RouteRow, Routing};
use commsched_topology::{LinkId, SwitchId, Topology};

/// Per-worker resolution tallies, merged after the fan-out and flushed
/// to the `distance_*_total` cells once (not per pair), so the per-pair
/// hot path never touches an atomic.
#[derive(Default)]
pub(crate) struct PairTally {
    pub(crate) rows: u64,
    pub(crate) pairs: u64,
    pub(crate) series_path: u64,
    pub(crate) route_walks: u64,
    pub(crate) dense_solves: u64,
}

impl PairTally {
    pub(crate) fn merge(&mut self, other: &PairTally) {
        self.rows += other.rows;
        self.pairs += other.pairs;
        self.series_path += other.series_path;
        self.route_walks += other.route_walks;
        self.dense_solves += other.dense_solves;
    }
}

/// Link `l` as a resistor between its end switches. Heterogeneous link
/// speeds: a slower link resists more.
fn link_resistor(topo: &Topology, l: LinkId) -> (SwitchId, SwitchId, f64) {
    let link = topo.link(l);
    (link.a, link.b, f64::from(topo.link_slowdown(l)))
}

/// One worker's solver state: every link as a resistor, scratch, the
/// scan of the current source row and the link set of the current pair.
pub(crate) struct PairSolver<'a> {
    topo: &'a Topology,
    routing: &'a dyn Routing,
    options: TableOptions,
    resistors: Vec<(SwitchId, SwitchId, f64)>,
    ws: Workspace,
    row: RouteRow,
    links: Vec<LinkId>,
    edges: Vec<(SwitchId, SwitchId, f64)>,
    #[cfg(debug_assertions)]
    reference: super::reference::SeriesPathReference,
    pub(crate) tally: PairTally,
}

impl<'a> PairSolver<'a> {
    pub(crate) fn new(topo: &'a Topology, routing: &'a dyn Routing, options: TableOptions) -> Self {
        Self {
            topo,
            routing,
            options,
            resistors: (0..topo.num_links())
                .map(|l| link_resistor(topo, l))
                .collect(),
            ws: Workspace::new(),
            row: RouteRow::new(),
            links: Vec::new(),
            edges: Vec::new(),
            #[cfg(debug_assertions)]
            reference: Default::default(),
            tally: PairTally::default(),
        }
    }

    /// Called once per claimed source row. The sparse path scans the row
    /// (the one forward BFS that serves every destination, into reused
    /// buffers); the dense baseline keeps its own per-pair extraction.
    pub(crate) fn begin_row(&mut self, i: SwitchId) {
        if self.options.solver != SolverKind::DenseGaussian {
            self.routing.scan_row(i, &mut self.row);
            self.tally.rows += 1;
        }
    }

    /// The equivalent distance of `(i, j)`, `j > i`, in the row begun
    /// last.
    pub(crate) fn solve(&mut self, i: SwitchId, j: SwitchId) -> Result<f64, TableError> {
        self.tally.pairs += 1;
        if self.options.solver == SolverKind::DenseGaussian {
            self.tally.dense_solves += 1;
            self.tally.route_walks += 1;
            return pair_resistance(self.topo, self.routing, i, j);
        }
        // A pair with one minimal route (the common case) has a simple
        // path for a sub-network, whose resistance is the series sum the
        // row scan carried: no link list, no circuit.
        let unique = self.row.unique_route_cost(j);
        #[cfg(debug_assertions)]
        self.reference
            .check(self.topo, self.routing, &mut self.row, (i, j), unique);
        if let Some(cost) = unique {
            self.tally.series_path += 1;
            // CORRECTNESS: `cost` sums at most `2N` slowdowns of 32 bits,
            // far below 2^53, and so does every partial sum of the same
            // integers as `f64`s in any order: this conversion is exact
            // and has the bits the link-id-order `f64` sum always had.
            return Ok(cost as f64);
        }
        self.routing.row_links(j, &mut self.row, &mut self.links);
        self.tally.route_walks += 1;
        // CORRECTNESS: edges enter `compact` in link-id order (the order
        // the router lists them in). `solve_compacted` eliminates nodes in
        // adjacency order, which follows edge order, so another order
        // moves low bits — and every recorded table bit (tests/golden.rs,
        // every `fg_mean` of the benchmark) was produced with this one. A
        // repair solves its pairs here too, which is what makes a repaired
        // table a rebuild's bits.
        self.edges.clear();
        self.edges
            .extend(self.links.iter().map(|&l| self.resistors[l]));
        self.ws.compact(&self.edges);
        // CORRECTNESS: no connectivity check: every link of the union lies
        // on a minimal route from `i` to `j`, so no node floats (debug
        // builds run the check inside the solve and assert it passes).
        self.ws
            .solve_compacted(i, j)
            .map_err(|error| TableError::Resistance {
                src: i,
                dst: j,
                error,
            })
    }
}

/// The dense oracle's pair: its own route extraction, the dense solve.
fn pair_resistance(
    topo: &Topology,
    routing: &dyn Routing,
    i: SwitchId,
    j: SwitchId,
) -> Result<f64, TableError> {
    let edges: Vec<(SwitchId, SwitchId, f64)> = routing
        .minimal_route_links(i, j)
        .iter()
        .map(|&l| link_resistor(topo, l))
        .collect();
    effective_resistance_weighted(&edges, i, j).map_err(|error| TableError::Resistance {
        src: i,
        dst: j,
        error,
    })
}

#[cfg(test)]
mod tests {
    use crate::table::tests::assert_close;
    use crate::table::{equivalent_distance_table, equivalent_distance_table_with, TableOptions};
    use crate::SolverKind;
    use commsched_routing::{Routing, ShortestPathRouting, UpDownRouting};
    use commsched_topology::designed;

    #[test]
    fn line_distances_are_hop_counts() {
        // A line has unique paths: equivalent distance == hop distance.
        let t = designed::line(5, 1);
        let r = ShortestPathRouting::new(&t).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                assert_close(table.get(i, j), (i as f64 - j as f64).abs());
            }
        }
    }

    #[test]
    fn parallel_paths_reduce_distance() {
        // Even ring antipodes: two parallel arcs halve the resistance.
        let t = designed::ring(4, 1);
        let r = ShortestPathRouting::new(&t).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        // 0 <-> 2: two 2-hop arcs in parallel -> 1.
        assert_close(table.get(0, 2), 1.0);
        // Adjacent: single minimal path (the direct link) -> 1.
        assert_close(table.get(0, 1), 1.0);
    }

    #[test]
    fn updown_detour_is_costlier() {
        let t = designed::ring(6, 1);
        let ud = UpDownRouting::new(&t, 0).unwrap();
        let sp = ShortestPathRouting::new(&t).unwrap();
        let t_ud = equivalent_distance_table(&t, &ud).unwrap();
        let t_sp = equivalent_distance_table(&t, &sp).unwrap();
        // The forbidden turn forces 2->4 over the root: 4 series links.
        assert_close(t_ud.get(2, 4), 4.0);
        assert_close(t_sp.get(2, 4), 2.0);
        // Routing constraints can only remove links, never add shorter ones.
        for i in 0..6 {
            for j in 0..6 {
                assert!(t_ud.get(i, j) >= t_sp.get(i, j) - 1e-9);
            }
        }
    }

    #[test]
    fn resistance_bounded_by_route_distance() {
        let t = designed::mesh(3, 3, 1);
        let r = UpDownRouting::new(&t, 0).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        for i in 0..9 {
            for j in 0..9 {
                if i != j {
                    let d = f64::from(r.route_distance(i, j));
                    assert!(table.get(i, j) <= d + 1e-9);
                    assert!(table.get(i, j) > 0.0);
                }
            }
        }
    }

    #[test]
    fn solver_variants_agree() {
        let t = designed::paper_24_switch();
        let r = UpDownRouting::new(&t, 0).unwrap();
        let default = equivalent_distance_table(&t, &r).unwrap();
        let dense = equivalent_distance_table_with(
            &t,
            &r,
            TableOptions {
                solver: SolverKind::DenseGaussian,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..24 {
            for j in 0..24 {
                assert_close(default.get(i, j), dense.get(i, j));
            }
        }
    }
}
