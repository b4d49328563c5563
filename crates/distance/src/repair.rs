//! Incremental repair of a table of equivalent distances after a
//! topology change.
//!
//! A pair's resistance depends *only* on its own route sub-network, so
//! after a link fails (or is restored) only the pairs whose minimal-route
//! wires changed get new distances. [`repair_distance_table`] re-solves
//! the pairs the caller names through the build's own per-pair solver and
//! row fan-out and copies every other entry forward, which makes an exact
//! repair **bit-identical to a rebuild** of the new topology (the
//! `CORRECTNESS:` note at the copy says why). Wires, not `LinkId`s, are
//! what is stable across epochs: link ids are renumbered compactly when a
//! topology is rebuilt without a link.
//!
//! [`repair_table`] is the post-fault entry point: it names the pairs
//! from the up*/down* transition diff, or rebuilds when the diff cannot
//! name them, so a repair never costs more than a build.

use crate::table::{
    check_sizes, equivalent_distance_table_with, fan_out, DistanceTable, FirstFailure, PairSolver,
    PairTally, TableError, TableOptions,
};
use commsched_routing::Routing;
use commsched_telemetry as telemetry;
use commsched_topology::{SwitchId, Topology};
use std::time::Instant;

/// What one incremental repair did.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// The repaired table (recomputed pairs patched over a copy of the
    /// previous table).
    pub table: DistanceTable,
    /// Unordered pairs in the table, `n(n-1)/2`.
    pub pairs_total: usize,
    /// Pairs actually re-solved (after normalization and dedup).
    pub pairs_recomputed: usize,
    /// Largest `|new - old|` over the recomputed pairs.
    pub max_delta: f64,
}

/// Normalize `(i, j)` pairs to `i < j`, drop diagonals and duplicates,
/// and group by source row (the row batch is what amortizes the per-row
/// BFS of `Routing::scan_row`).
fn group_rows(
    affected: &[(SwitchId, SwitchId)],
    n: usize,
) -> Result<Vec<(SwitchId, Vec<SwitchId>)>, TableError> {
    let mut by_row: Vec<Vec<SwitchId>> = vec![Vec::new(); n];
    for &(a, b) in affected {
        if a >= n || b >= n {
            return Err(TableError::BadRepairPair { src: a, dst: b, n });
        }
        if a == b {
            continue;
        }
        let (i, j) = if a < b { (a, b) } else { (b, a) };
        by_row[i].push(j);
    }
    let mut rows = Vec::new();
    for (i, mut js) in by_row.into_iter().enumerate() {
        if js.is_empty() {
            continue;
        }
        js.sort_unstable();
        js.dedup();
        rows.push((i, js));
    }
    Ok(rows)
}

/// Repair `prev` into the table of the post-fault `topo`/`routing` by
/// re-solving only `affected` pairs and copying every other entry.
///
/// The caller guarantees that every pair whose minimal-route link set
/// changed (as physical wires, see the module doc) is listed in
/// `affected`; extra pairs are harmless (their recomputation returns the
/// old value). When `prev` is a build (or such a repair) of the previous
/// topology with the same exact solver, and `topo` lists the surviving
/// links in their previous relative order, the result is bit-identical to
/// a build of `topo`, for every `options.threads`.
///
/// # Errors
/// See [`TableError`]; size mismatches between `prev`, `topo` and
/// `routing` and out-of-range pairs are rejected up front.
pub fn repair_distance_table(
    prev: &DistanceTable,
    topo: &Topology,
    routing: &dyn Routing,
    affected: &[(SwitchId, SwitchId)],
    options: TableOptions,
) -> Result<RepairOutcome, TableError> {
    check_sizes(topo, routing)?;
    let n = topo.num_switches();
    if prev.n() != n {
        return Err(TableError::RepairSize {
            prev: prev.n(),
            topology: n,
        });
    }
    let rows = group_rows(affected, n)?;
    let pairs_recomputed: usize = rows.iter().map(|(_, js)| js.len()).sum();

    let workers = fan_out(
        rows.len(),
        options.threads,
        || {
            let solver = PairSolver::new(topo, routing, options);
            (solver, Vec::new(), FirstFailure::default())
        },
        |(solver, solved, failure), k| {
            let (i, ref js) = rows[k];
            solver.begin_row(i);
            for &j in js {
                match solver.solve(i, j) {
                    Ok(d) => solved.push((i, j, d)),
                    Err(e) => failure.note((i, j), e),
                }
            }
        },
    );

    // CORRECTNESS: a pair not in `affected` has the same route wires in
    // both epochs, and `TopologyEpoch::apply` and `Topology::without_link`
    // (both through `Topology::rebuild`) keep the surviving links in
    // their relative id order, so its sorted link list names the same
    // wires in the same order in both. Its old value was therefore
    // solved from the very edge list a rebuild of `topo` would solve,
    // and copying it is the rebuild's bits. A topology rebuilt with its
    // surviving links reordered would break this.
    let mut table = prev.clone();
    let mut failure = FirstFailure::default();
    let mut tally = PairTally::default();
    let mut max_delta = 0.0f64;
    for (solver, solved, worker_failure) in workers {
        failure.merge(worker_failure);
        tally.merge(&solver.tally);
        for (i, j, d) in solved {
            max_delta = max_delta.max((d - prev.get(i, j)).abs());
            table.set_pair(i, j, d);
        }
    }
    tally.flush();
    failure.into_result()?;
    Ok(RepairOutcome {
        table,
        pairs_total: n * (n.saturating_sub(1)) / 2,
        pairs_recomputed,
        max_delta,
    })
}

/// The pairs whose minimal-route link sets can differ between two epochs,
/// from the up*/down* transition diff
/// ([`UpDownRouting::changed_route_pairs`](commsched_routing::UpDownRouting::changed_route_pairs)).
/// It may over-approximate but never misses a changed pair; a pair not
/// returned keeps its route sub-network, hence its distance, bit for bit.
///
/// `None` when the diff cannot name them: a router is not up*/down*, a
/// wire common to both epochs changed its slowdown (transitions do not
/// see slowdowns), or the diff passed its cap. The caller then rebuilds.
fn affected_pairs(
    old_topo: &Topology,
    old_routing: &dyn Routing,
    new_topo: &Topology,
    new_routing: &dyn Routing,
) -> Option<Vec<(SwitchId, SwitchId)>> {
    if !common_wires_keep_slowdowns(old_topo, new_topo) {
        return None;
    }
    let (old, new) = old_routing.as_updown().zip(new_routing.as_updown())?;
    old.changed_route_pairs(new)
}

/// Whether every wire present in both topologies carries the same
/// slowdown — the precondition under which route-set equality can be
/// decided from wires alone.
fn common_wires_keep_slowdowns(old: &Topology, new: &Topology) -> bool {
    old.links().iter().enumerate().all(|(l, link)| {
        new.link_between(link.a, link.b)
            .is_none_or(|nl| new.link_slowdown(nl) == old.link_slowdown(l))
    })
}

/// Repair `prev` into the post-fault table: detect the affected pairs,
/// re-solve exactly those through the build's solver, and copy everything
/// else forward. When `prev` is a build (or such a repair) of `old_topo`
/// with the same exact solver and `new_topo` comes from
/// [`TopologyEpoch::apply`](commsched_topology::TopologyEpoch::apply), the
/// result is bit-identical to a build of `new_topo`.
///
/// When the up*/down* transition diff cannot name the affected pairs,
/// the repair *is* a build of `new_topo`, reported with
/// `pairs_recomputed == pairs_total`: a repair exists only to be faster
/// than that build, so it never costs more.
///
/// # Errors
/// See [`TableError`].
pub fn repair_table(
    prev: &DistanceTable,
    old_topo: &Topology,
    old_routing: &dyn Routing,
    new_topo: &Topology,
    new_routing: &dyn Routing,
    options: TableOptions,
) -> Result<RepairOutcome, TableError> {
    let t0 = Instant::now();
    let n = new_topo.num_switches();
    let out = match affected_pairs(old_topo, old_routing, new_topo, new_routing) {
        Some(affected) => repair_distance_table(prev, new_topo, new_routing, &affected, options)?,
        None if prev.n() != n => {
            return Err(TableError::RepairSize {
                prev: prev.n(),
                topology: n,
            })
        }
        None => {
            let table = equivalent_distance_table_with(new_topo, new_routing, options)?;
            let pairs = n * n.saturating_sub(1) / 2;
            let max_delta = (0..n)
                .flat_map(|i| table.row(i).iter().zip(prev.row(i)))
                .fold(0.0, |m: f64, (a, b)| m.max((a - b).abs()));
            RepairOutcome {
                table,
                pairs_total: pairs,
                pairs_recomputed: pairs,
                max_delta,
            }
        }
    };
    let r = telemetry::global();
    r.counter(
        "dynamics_pairs_recomputed_total",
        "Switch pairs re-solved by incremental table repair",
    )
    .add(out.pairs_recomputed as u64);
    r.histogram(
        "dynamics_repair_ms",
        "Wall time of one incremental table repair, milliseconds",
    )
    .record((t0.elapsed().as_secs_f64() * 1e3) as u64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resistance::SolverKind;
    use crate::table::{equivalent_distance_table, equivalent_distance_table_with};
    use commsched_routing::{RouteRow, RouteState, ShortestPathRouting, UpDownRouting};
    use commsched_topology::{
        designed, random_regular, FaultEvent, LinkId, RandomTopologyConfig, Topology, TopologyEpoch,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A route link set as sorted `(a, b, slowdown)` wires: equal across
    /// epochs exactly when the same physical wires are used, however the
    /// link ids were renumbered in between.
    fn route_key(topo: &Topology, links: &[LinkId]) -> Vec<(SwitchId, SwitchId, u32)> {
        let mut key: Vec<_> = links
            .iter()
            .map(|&l| {
                let link = topo.link(l);
                (link.a, link.b, topo.link_slowdown(l))
            })
            .collect();
        key.sort_unstable();
        key
    }

    /// Pairs whose canonical route link sets differ between routings.
    fn changed_pairs(
        old_topo: &Topology,
        old_r: &dyn Routing,
        new_topo: &Topology,
        new_r: &dyn Routing,
    ) -> Vec<(SwitchId, SwitchId)> {
        let n = old_topo.num_switches();
        let mut out = Vec::new();
        let (mut old_row, mut new_row) = (Vec::new(), Vec::new());
        for i in 0..n {
            old_r.minimal_route_links_row(i, &mut old_row);
            new_r.minimal_route_links_row(i, &mut new_row);
            for j in (i + 1)..n {
                if route_key(old_topo, &old_row[j]) != route_key(new_topo, &new_row[j]) {
                    out.push((i, j));
                }
            }
        }
        out
    }

    #[test]
    fn no_affected_pairs_copies_the_table() {
        let t = designed::ring(8, 1);
        let r = UpDownRouting::new(&t, 0).unwrap();
        let prev = equivalent_distance_table(&t, &r).unwrap();
        let out = repair_distance_table(&prev, &t, &r, &[], TableOptions::default()).unwrap();
        assert_eq!(out.table, prev);
        assert_eq!(out.pairs_recomputed, 0);
        assert_eq!(out.max_delta, 0.0);
        assert_eq!(out.pairs_total, 28);
    }

    #[test]
    fn repair_matches_rebuild_after_link_failure() {
        let t = designed::paper_24_switch();
        let r = UpDownRouting::new(&t, 0).unwrap();
        let prev = equivalent_distance_table(&t, &r).unwrap();
        // Kill one ring link; up*/down* re-roots routes around it.
        let t2 = t.without_link(0).unwrap();
        let r2 = UpDownRouting::new(&t2, 0).unwrap();
        let affected = changed_pairs(&t, &r, &t2, &r2);
        assert!(!affected.is_empty());
        let out =
            repair_distance_table(&prev, &t2, &r2, &affected, TableOptions::default()).unwrap();
        let rebuilt = equivalent_distance_table(&t2, &r2).unwrap();
        assert_eq!(out.table, rebuilt);
        assert_eq!(out.pairs_recomputed, affected.len());
        assert!(out.max_delta > 0.0, "a failed link must move some distance");
    }

    #[test]
    fn repair_is_bit_identical_across_threads() {
        let t = designed::paper_24_switch();
        let r = UpDownRouting::new(&t, 0).unwrap();
        let prev = equivalent_distance_table(&t, &r).unwrap();
        let t2 = t.without_link(5).unwrap();
        let r2 = UpDownRouting::new(&t2, 0).unwrap();
        let affected = changed_pairs(&t, &r, &t2, &r2);
        let repair = |threads| {
            let options = TableOptions {
                threads,
                ..Default::default()
            };
            repair_distance_table(&prev, &t2, &r2, &affected, options).unwrap()
        };
        let serial = repair(1);
        for threads in [2usize, 7] {
            assert_eq!(repair(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn dense_solver_repair_agrees() {
        let t = designed::ring(8, 1);
        let r = UpDownRouting::new(&t, 0).unwrap();
        let dense = TableOptions {
            solver: SolverKind::DenseGaussian,
            ..Default::default()
        };
        let prev = equivalent_distance_table_with(&t, &r, dense).unwrap();
        let t2 = t.without_link(2).unwrap();
        let r2 = UpDownRouting::new(&t2, 0).unwrap();
        let affected = changed_pairs(&t, &r, &t2, &r2);
        let repaired = repair_distance_table(&prev, &t2, &r2, &affected, dense).unwrap();
        let rebuilt = equivalent_distance_table_with(&t2, &r2, dense).unwrap();
        assert_eq!(repaired.table, rebuilt);
    }

    #[test]
    fn bad_pairs_and_sizes_rejected() {
        let t = designed::ring(6, 1);
        let r = UpDownRouting::new(&t, 0).unwrap();
        let prev = equivalent_distance_table(&t, &r).unwrap();
        assert!(matches!(
            repair_distance_table(&prev, &t, &r, &[(0, 9)], TableOptions::default()),
            Err(TableError::BadRepairPair { dst: 9, .. })
        ));
        let smaller = designed::ring(5, 1);
        let r5 = UpDownRouting::new(&smaller, 0).unwrap();
        assert!(matches!(
            repair_distance_table(&prev, &smaller, &r5, &[], TableOptions::default()),
            Err(TableError::RepairSize {
                prev: 6,
                topology: 5
            })
        ));
    }

    #[test]
    fn duplicate_and_reversed_pairs_are_normalized() {
        let t = designed::ring(6, 1);
        let r = UpDownRouting::new(&t, 0).unwrap();
        let prev = equivalent_distance_table(&t, &r).unwrap();
        let out = repair_distance_table(
            &prev,
            &t,
            &r,
            &[(2, 4), (4, 2), (2, 4), (3, 3)],
            TableOptions::default(),
        )
        .unwrap();
        assert_eq!(out.pairs_recomputed, 1);
        // Same epoch, so recomputation returns the old value.
        assert_eq!(out.table, prev);
    }

    /// A router that forwards to `inner` and counts the route queries a
    /// detector or a table build makes of it.
    struct Counted<'a> {
        inner: &'a dyn Routing,
        calls: AtomicUsize,
    }

    impl Counted<'_> {
        fn count(&self) {
            self.calls.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl Routing for Counted<'_> {
        fn num_switches(&self) -> usize {
            self.inner.num_switches()
        }
        fn route_distance(&self, src: SwitchId, dst: SwitchId) -> u32 {
            self.inner.route_distance(src, dst)
        }
        fn minimal_route_links(&self, src: SwitchId, dst: SwitchId) -> Vec<LinkId> {
            self.count();
            self.inner.minimal_route_links(src, dst)
        }
        fn scan_row(&self, src: SwitchId, row: &mut RouteRow) {
            self.count();
            self.inner.scan_row(src, row)
        }
        fn row_links(&self, dst: SwitchId, row: &mut RouteRow, out: &mut Vec<LinkId>) {
            self.count();
            self.inner.row_links(dst, row, out)
        }
        fn minimal_route_links_row(&self, src: SwitchId, out: &mut Vec<Vec<LinkId>>) {
            self.count();
            self.inner.minimal_route_links_row(src, out)
        }
        fn next_hops(&self, state: RouteState, dst: SwitchId) -> Vec<RouteState> {
            self.inner.next_hops(state, dst)
        }
        fn as_updown(&self) -> Option<&UpDownRouting> {
            self.inner.as_updown()
        }
        fn name(&self) -> &'static str {
            self.inner.name()
        }
    }

    /// Repair across a fault the transition diff cannot name: the old
    /// router is never asked for a route, and the result is the rebuild,
    /// reported as every pair re-solved.
    fn assert_rebuilds_without_the_old_router(
        epoch0: &TopologyEpoch,
        r0: &dyn Routing,
        epoch1: &TopologyEpoch,
        r1: &dyn Routing,
    ) {
        let prev = equivalent_distance_table(&epoch0.topology, r0).unwrap();
        let old = Counted {
            inner: r0,
            calls: AtomicUsize::new(0),
        };
        let report = repair_table(
            &prev,
            &epoch0.topology,
            &old,
            &epoch1.topology,
            r1,
            TableOptions::default(),
        )
        .unwrap();
        assert_eq!(old.calls.into_inner(), 0, "the old router was asked");
        assert!(report.table == equivalent_distance_table(&epoch1.topology, r1).unwrap());
        assert_eq!(report.pairs_recomputed, report.pairs_total);
    }

    #[test]
    fn repair_after_ring_link_failure_matches_rebuild() {
        let epoch0 = TopologyEpoch::initial(Arc::new(designed::paper_24_switch()));
        let r0 = UpDownRouting::new(&epoch0.topology, 0).unwrap();
        let prev = equivalent_distance_table(&epoch0.topology, &r0).unwrap();
        let epoch1 = epoch0.apply(&FaultEvent::LinkDown { a: 0, b: 1 }).unwrap();
        assert!(epoch1.connected);
        let r1 = UpDownRouting::new(&epoch1.topology, 0).unwrap();
        let report = repair_table(
            &prev,
            &epoch0.topology,
            &r0,
            &epoch1.topology,
            &r1,
            TableOptions::default(),
        )
        .unwrap();
        let rebuilt = equivalent_distance_table(&epoch1.topology, &r1).unwrap();
        assert_eq!(report.table, rebuilt);
        assert!(report.pairs_recomputed > 0);
        assert!(report.pairs_recomputed < report.pairs_total);
        assert_eq!(report.pairs_total, 276);
        assert!(report.max_delta > 0.0);
    }

    #[test]
    fn unchanged_epoch_has_no_affected_pairs() {
        let topo = designed::ring(8, 1);
        let r = UpDownRouting::new(&topo, 0).unwrap();
        assert_eq!(affected_pairs(&topo, &r, &topo, &r), Some(Vec::new()));
    }

    #[test]
    fn a_capped_updown_fault_is_a_rebuild() {
        let mut rng = StdRng::seed_from_u64(9_064);
        let topo = random_regular(RandomTopologyConfig::paper(64), &mut rng).unwrap();
        let epoch0 = TopologyEpoch::initial(Arc::new(topo));
        let r0 = UpDownRouting::new(&epoch0.topology, 0).unwrap();
        let (epoch1, r1) = epoch0
            .topology
            .links()
            .iter()
            .filter_map(|l| epoch0.apply(&FaultEvent::LinkDown { a: l.a, b: l.b }).ok())
            .filter(|e| e.connected)
            .map(|e| {
                let r = UpDownRouting::new(&e.topology, 0).unwrap();
                (e, r)
            })
            .find(|(_, r1)| r0.changed_route_pairs(r1).is_none())
            .expect("a fault past the transition cap");
        assert_rebuilds_without_the_old_router(&epoch0, &r0, &epoch1, &r1);
    }

    #[test]
    fn a_shortest_path_fault_is_a_rebuild() {
        let epoch0 = TopologyEpoch::initial(Arc::new(designed::paper_24_switch()));
        let epoch1 = epoch0.apply(&FaultEvent::LinkDown { a: 0, b: 1 }).unwrap();
        let r0 = ShortestPathRouting::new(&epoch0.topology).unwrap();
        let r1 = ShortestPathRouting::new(&epoch1.topology).unwrap();
        assert_rebuilds_without_the_old_router(&epoch0, &r0, &epoch1, &r1);
    }

    #[test]
    fn a_rebuild_refuses_a_previous_table_of_another_size() {
        let epoch0 = TopologyEpoch::initial(Arc::new(designed::paper_24_switch()));
        let epoch1 = epoch0.apply(&FaultEvent::LinkDown { a: 0, b: 1 }).unwrap();
        let r0 = ShortestPathRouting::new(&epoch0.topology).unwrap();
        let r1 = ShortestPathRouting::new(&epoch1.topology).unwrap();
        let ring = designed::ring(5, 1);
        let prev = equivalent_distance_table(&ring, &ShortestPathRouting::new(&ring).unwrap());
        let err = repair_table(
            &prev.unwrap(),
            &epoch0.topology,
            &r0,
            &epoch1.topology,
            &r1,
            TableOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            TableError::RepairSize {
                prev: 5,
                topology: 24
            }
        ));
    }
}
