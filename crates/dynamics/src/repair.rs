//! Affected-pair detection and the post-fault table repair wrapper.

use commsched_distance::{
    repair_distance_table, route_key, DistanceTable, TableError, TableOptions,
};
use commsched_routing::Routing;
use commsched_topology::{SwitchId, Topology};
use std::time::Instant;

/// What one incremental repair cost and changed.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairReport {
    /// Unordered pairs in the table.
    pub pairs_total: usize,
    /// Pairs whose minimal-route link set changed and were re-solved.
    pub pairs_recomputed: usize,
    /// Wall time of detection + repair, milliseconds.
    pub wall_ms: f64,
    /// Largest `|ΔT|` over the recomputed pairs.
    pub max_delta: f64,
}

/// The pairs whose minimal-route link sets differ between two epochs'
/// routings, compared as **physical wires** (sorted endpoint/slowdown
/// triples, [`route_key`]) so link-id renumbering between epochs cannot
/// fake a change.
///
/// This is the exactness argument of the repair: a pair *not* returned
/// here has the identical route sub-network in both epochs, so its
/// equivalent distance — a function of that sub-network alone — is
/// unchanged, and copying the old value is bit-exact.
///
/// # Panics
/// Panics if the two routings disagree on the switch count (epochs never
/// change it).
pub fn affected_pairs(
    old_topo: &Topology,
    old_routing: &dyn Routing,
    new_topo: &Topology,
    new_routing: &dyn Routing,
) -> Vec<(SwitchId, SwitchId)> {
    let n = old_routing.num_switches();
    assert_eq!(
        n,
        new_routing.num_switches(),
        "epochs must preserve the switch count"
    );
    // Fast path: an up*/down* pair of epochs can name the changed pairs
    // from the state-graph transition diff alone — no route enumeration.
    // That analysis sees wires, not slowdowns, so it applies only when
    // every wire common to both epochs kept its slowdown (single fault
    // events never touch surviving wires). It may over-approximate —
    // extra pairs are re-solved to the same values — but never misses a
    // changed pair, so the exactness argument below is preserved.
    if common_wires_keep_slowdowns(old_topo, new_topo) {
        if let Some(pairs) = old_routing
            .as_updown()
            .zip(new_routing.as_updown())
            .and_then(|(o, nw)| o.changed_route_pairs(nw))
        {
            return pairs;
        }
    }
    let mut out = Vec::new();
    let (mut old_row, mut new_row) = (Vec::new(), Vec::new());
    for i in 0..n.saturating_sub(1) {
        old_routing.minimal_route_links_row(i, &mut old_row);
        new_routing.minimal_route_links_row(i, &mut new_row);
        for j in (i + 1)..n {
            if route_key(old_topo, &old_row[j]) != route_key(new_topo, &new_row[j]) {
                out.push((i, j));
            }
        }
    }
    out
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
    let affected = affected_pairs(old_topo, old_routing, new_topo, new_routing);
    let out = repair_distance_table(prev, new_topo, new_routing, &affected, options)?;
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
    use commsched_routing::UpDownRouting;
    use commsched_topology::designed;
    use std::sync::Arc;

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
        assert!(affected_pairs(&topo, &r, &topo, &r).is_empty());
    }
}
