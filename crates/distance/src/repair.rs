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

use crate::table::{
    check_sizes, fan_out, DistanceTable, FirstFailure, PairSolver, PairTally, TableError,
    TableOptions,
};
use commsched_routing::Routing;
use commsched_topology::{SwitchId, Topology};

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
    // keep the surviving links in their relative id order, so its sorted
    // link list names the same wires in the same order in both. Its old
    // value was therefore solved from the very edge list a rebuild of
    // `topo` would solve, and copying it is the rebuild's bits. A topology
    // rebuilt with its surviving links reordered would break this.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resistance::SolverKind;
    use crate::table::{equivalent_distance_table, equivalent_distance_table_with};
    use commsched_routing::UpDownRouting;
    use commsched_topology::{designed, LinkId, Topology, TopologyBuilder};

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

    /// Rebuild `topo` without the link between `a` and `b`, keeping the
    /// switch count (unlike `Topology::without_link`, disconnection is
    /// allowed — the repair layer itself must not care).
    fn drop_link(topo: &Topology, a: SwitchId, b: SwitchId) -> Topology {
        let mut builder =
            TopologyBuilder::new(topo.num_switches(), topo.hosts_per_switch()).allow_disconnected();
        for (l, link) in topo.links().iter().enumerate() {
            if (link.a, link.b) == (a.min(b), a.max(b)) {
                continue;
            }
            builder = builder.link_with_slowdown(link.a, link.b, topo.link_slowdown(l));
        }
        builder.build().expect("rebuilt topology")
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
        let link0 = t.link(0);
        let t2 = drop_link(&t, link0.a, link0.b);
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
        let link0 = t.link(5);
        let t2 = drop_link(&t, link0.a, link0.b);
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
        let link0 = t.link(2);
        let t2 = drop_link(&t, link0.a, link0.b);
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
}
