//! Affected-pair detection and the post-fault table repair wrapper.

use commsched_distance::{
    equivalent_distance_table_with, repair_distance_table, DistanceTable, RepairOutcome,
    TableError, TableOptions,
};
use commsched_routing::Routing;
use commsched_topology::{SwitchId, Topology};
use std::time::Instant;

/// What one incremental repair cost and changed.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairReport {
    /// Unordered pairs in the table.
    pub pairs_total: usize,
    /// Pairs re-solved: those whose minimal-route link set may have
    /// changed, or every pair when the repair was a rebuild.
    pub pairs_recomputed: usize,
    /// Wall time of detection + repair, milliseconds.
    pub wall_ms: f64,
    /// Largest `|ΔT|` over the recomputed pairs.
    pub max_delta: f64,
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
/// [`TopologyEpoch::apply`](crate::TopologyEpoch::apply), the result is
/// bit-identical to a build of `new_topo`.
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
) -> Result<(DistanceTable, RepairReport), TableError> {
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
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let m = crate::metrics();
    m.pairs_recomputed.add(out.pairs_recomputed as u64);
    m.repair_ms.record(wall_ms as u64);
    Ok((
        out.table,
        RepairReport {
            pairs_total: out.pairs_total,
            pairs_recomputed: out.pairs_recomputed,
            wall_ms,
            max_delta: out.max_delta,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, TopologyEpoch};
    use commsched_distance::equivalent_distance_table;
    use commsched_routing::{RouteRow, RouteState, ShortestPathRouting, UpDownRouting};
    use commsched_topology::{designed, random_regular, LinkId, RandomTopologyConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

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
        let (table, report) = repair_table(
            &prev,
            &epoch0.topology,
            &old,
            &epoch1.topology,
            r1,
            TableOptions::default(),
        )
        .unwrap();
        assert_eq!(old.calls.into_inner(), 0, "the old router was asked");
        assert!(table == equivalent_distance_table(&epoch1.topology, r1).unwrap());
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
        let (table, report) = repair_table(
            &prev,
            &epoch0.topology,
            &r0,
            &epoch1.topology,
            &r1,
            TableOptions::default(),
        )
        .unwrap();
        let rebuilt = equivalent_distance_table(&epoch1.topology, &r1).unwrap();
        assert_eq!(table, rebuilt);
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
