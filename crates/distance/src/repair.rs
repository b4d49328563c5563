//! Incremental repair of a table of equivalent distances after a
//! topology change.
//!
//! When a link fails (or is restored) only the pairs whose minimal-route
//! link sets touch the changed region get new equivalent distances —
//! everything else is unchanged, because each pair's resistance depends
//! *only* on its own route sub-network. [`repair_distance_table`] exploits
//! that: the caller supplies the affected pairs (computed by comparing
//! route link sets across epochs, see `commsched-dynamics`), the repair
//! re-solves exactly those pairs — through the build's own per-pair
//! solver and row fan-out, with one step of its own: where the compacted
//! circuit comes from (`WireCircuits`) — and copies every other entry
//! forward from the previous table.
//!
//! Two properties make the result trustworthy:
//!
//! * **Copied pairs are bit-identical to a full rebuild.** A pair whose
//!   route link set is the same set of physical links (endpoints +
//!   slowdowns) in both epochs would be recomputed from the identical
//!   edge list, so copying the old value *is* the rebuild value.
//! * **Recomputed pairs are thread-count and memo independent.** The
//!   repair path canonicalizes each route link set into a sorted
//!   endpoint list ([`route_key`]) before circuit compaction, so the
//!   compacted circuit is a pure function of the key: a [`RepairMemo`]
//!   hit restores byte-for-byte what a miss would build, on any worker.
//!
//! The memo is keyed by endpoint pairs, **never** by `LinkId` — link ids
//! are renumbered compactly when a topology is rebuilt without a link,
//! so only endpoints are stable across epochs. Callers keep one
//! [`RepairMemo`] alive across faults to amortize compaction over a
//! whole fault schedule.

use crate::resistance::{SolverKind, Workspace};
use crate::table::{
    check_sizes, fan_out, CircuitSource, CompactCircuit, DistanceTable, FirstFailure, PairSolver,
    PairTally, TableError, TableOptions,
};
use commsched_routing::Routing;
use commsched_topology::{LinkId, SwitchId, Topology};
use std::collections::HashMap;

/// A route link set canonicalized to survive link-id renumbering:
/// `(a, b, slowdown)` triples with `a < b`, sorted lexicographically.
pub type RouteKey = Vec<(SwitchId, SwitchId, u32)>;

/// Canonical cross-epoch key of a minimal-route link set: the links as
/// sorted endpoint/slowdown triples. Two epochs' route sets compare equal
/// under this key exactly when they use the same physical wires, however
/// the link ids were renumbered in between.
pub fn route_key(topo: &Topology, links: &[LinkId]) -> RouteKey {
    let mut key: RouteKey = links
        .iter()
        .map(|&l| {
            let link = topo.link(l);
            (link.a, link.b, topo.link_slowdown(l))
        })
        .collect();
    key.sort_unstable();
    key
}

/// Cap on retained compacted circuits — the same memory bound as the
/// per-build memo, but sized for a long-lived cache that persists across
/// fault epochs.
const REPAIR_MEMO_CAP: usize = 4096;

/// A cross-epoch memo of compacted circuits keyed by [`RouteKey`].
///
/// Hits skip the node/edge compaction of the sparse solve; they never
/// change computed values (the circuit is a pure function of the key).
/// Keep one alive across successive repairs so route sub-networks that
/// survive a fault are compacted once per schedule, not once per epoch.
#[derive(Default)]
pub struct RepairMemo {
    map: HashMap<RouteKey, CompactCircuit>,
    hits: u64,
    misses: u64,
}

impl RepairMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of retained circuits.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the memo holds no circuits.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lifetime hit count (solver-path pairs answered from the memo).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count (solver-path pairs that ran compaction).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// The repair's circuits: looked up in the cross-epoch memo, then among
/// the ones this worker compacted during the current repair.
struct WireCircuits<'m> {
    shared: &'m HashMap<RouteKey, CompactCircuit>,
    fresh: HashMap<RouteKey, CompactCircuit>,
}

impl CircuitSource for WireCircuits<'_> {
    // CORRECTNESS: the circuit is compacted from the canonical sorted
    // wire list, never from route order, so it is a pure function of the
    // key: a hit restores byte for byte what a miss would build, on any
    // worker and in any epoch. The key must be wires because the memo
    // outlives the topology — removing a link renumbers link ids, so the
    // build's link-id key would alias different wires across epochs.
    // This may not be merged into the build's `LinkOrderCircuits`: its
    // edge order is what every recorded table bit was produced with.
    fn load(
        &mut self,
        topo: &Topology,
        links: &[LinkId],
        memoize: bool,
        ws: &mut Workspace,
    ) -> bool {
        let key = route_key(topo, links);
        let kept = memoize.then(|| self.shared.get(&key).or_else(|| self.fresh.get(&key)));
        if let Some(c) = kept.flatten() {
            c.restore(ws);
            return true;
        }
        let edges: Vec<(SwitchId, SwitchId, f64)> =
            key.iter().map(|&(a, b, s)| (a, b, f64::from(s))).collect();
        ws.compact(&edges);
        if memoize {
            self.fresh.insert(key, CompactCircuit::capture(ws));
        }
        false
    }
}

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
/// changed (as physical wires — see [`route_key`]) is listed in
/// `affected`; extra pairs are harmless (their recomputation returns the
/// old value). Results are bit-identical across `options.threads` values
/// and across memo states, and agree with a from-scratch rebuild to
/// solver precision (copied pairs exactly, recomputed pairs to ~1e-12).
/// `options.memoize` gates both reading and feeding `memo`. Under
/// [`SolverKind::Approximate`] options a repaired pair is solved exactly.
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
    memo: &mut RepairMemo,
) -> Result<RepairOutcome, TableError> {
    check_sizes(topo, routing)?;
    let n = topo.num_switches();
    if prev.n() != n {
        return Err(TableError::RepairSize {
            prev: prev.n(),
            topology: n,
        });
    }
    // A repaired pair is exact: the approximate report covers whole
    // builds, and a handful of patched pairs has none to carry it.
    let options = match options.solver {
        SolverKind::Approximate => TableOptions {
            solver: SolverKind::SparseCholesky,
            ..options
        },
        _ => options,
    };
    let rows = group_rows(affected, n)?;
    let pairs_recomputed: usize = rows.iter().map(|(_, js)| js.len()).sum();

    let shared = &memo.map;
    let workers = fan_out(
        rows.len(),
        options.threads,
        || {
            let circuits = WireCircuits {
                shared,
                fresh: HashMap::new(),
            };
            let solver = PairSolver::new(topo, routing, options, circuits);
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

    let mut table = prev.clone();
    let mut failure = FirstFailure::default();
    let mut tally = PairTally::default();
    let mut max_delta = 0.0f64;
    let mut inserts = Vec::new();
    for (solver, solved, worker_failure) in workers {
        failure.merge(worker_failure);
        tally.merge(&solver.tally);
        inserts.push(solver.circuits.fresh);
        for (i, j, d) in solved {
            max_delta = max_delta.max((d - prev.get(i, j)).abs());
            table.set_pair(i, j, d);
        }
    }
    memo.hits += tally.memo_hits;
    memo.misses += tally.memo_misses;
    tally.flush();
    failure.into_result()?;
    // Merge fresh circuits under the cap. Which entries survive when the
    // cap bites is load-order dependent, but a memo entry never changes a
    // value, so this cannot affect results.
    for (key, circuit) in inserts.into_iter().flatten() {
        if memo.map.len() >= REPAIR_MEMO_CAP {
            break;
        }
        memo.map.entry(key).or_insert(circuit);
    }
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
    use crate::table::{equivalent_distance_table, equivalent_distance_table_with};
    use commsched_routing::UpDownRouting;
    use commsched_topology::{designed, Topology, TopologyBuilder};

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

    fn assert_tables_close(a: &DistanceTable, b: &DistanceTable, tol: f64) {
        assert_eq!(a.n(), b.n());
        for i in 0..a.n() {
            for j in 0..a.n() {
                assert!(
                    (a.get(i, j) - b.get(i, j)).abs() < tol,
                    "({i}, {j}): {} != {}",
                    a.get(i, j),
                    b.get(i, j)
                );
            }
        }
    }

    #[test]
    fn no_affected_pairs_copies_the_table() {
        let t = designed::ring(8, 1);
        let r = UpDownRouting::new(&t, 0).unwrap();
        let prev = equivalent_distance_table(&t, &r).unwrap();
        let mut memo = RepairMemo::new();
        let out =
            repair_distance_table(&prev, &t, &r, &[], TableOptions::default(), &mut memo).unwrap();
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
        let mut memo = RepairMemo::new();
        let out = repair_distance_table(
            &prev,
            &t2,
            &r2,
            &affected,
            TableOptions::default(),
            &mut memo,
        )
        .unwrap();
        let rebuilt = equivalent_distance_table(&t2, &r2).unwrap();
        assert_tables_close(&out.table, &rebuilt, 1e-9);
        assert_eq!(out.pairs_recomputed, affected.len());
        assert!(out.max_delta > 0.0, "a failed link must move some distance");
    }

    #[test]
    fn repair_is_bit_identical_across_threads_and_memo_state() {
        let t = designed::paper_24_switch();
        let r = UpDownRouting::new(&t, 0).unwrap();
        let prev = equivalent_distance_table(&t, &r).unwrap();
        let link0 = t.link(5);
        let t2 = drop_link(&t, link0.a, link0.b);
        let r2 = UpDownRouting::new(&t2, 0).unwrap();
        let affected = changed_pairs(&t, &r, &t2, &r2);
        let mut baseline_memo = RepairMemo::new();
        let baseline = repair_distance_table(
            &prev,
            &t2,
            &r2,
            &affected,
            TableOptions::default(),
            &mut baseline_memo,
        )
        .unwrap();
        for threads in [1usize, 2, 7] {
            // A fresh memo and the already-warm one must agree bitwise.
            for memo in [&mut RepairMemo::new(), &mut baseline_memo] {
                let out = repair_distance_table(
                    &prev,
                    &t2,
                    &r2,
                    &affected,
                    TableOptions {
                        threads,
                        ..Default::default()
                    },
                    memo,
                )
                .unwrap();
                assert_eq!(out.table, baseline.table, "threads = {threads}");
            }
        }
        assert!(baseline_memo.hits() > 0, "warm memo should have hit");
    }

    #[test]
    fn memoize_off_neither_reads_nor_feeds_the_memo() {
        let t = designed::paper_24_switch();
        let r = UpDownRouting::new(&t, 0).unwrap();
        let prev = equivalent_distance_table(&t, &r).unwrap();
        let link0 = t.link(0);
        let t2 = drop_link(&t, link0.a, link0.b);
        let r2 = UpDownRouting::new(&t2, 0).unwrap();
        let affected = changed_pairs(&t, &r, &t2, &r2);
        let mut memo = RepairMemo::new();
        let mut repair = |memoize| {
            let options = TableOptions {
                memoize,
                ..Default::default()
            };
            repair_distance_table(&prev, &t2, &r2, &affected, options, &mut memo).unwrap();
            (memo.hits(), memo.misses(), memo.len())
        };
        let (hits, misses, kept) = repair(true);
        assert!(kept > 0, "the fault leaves non-series pairs to memoize");
        let solved = hits + misses;
        // The build's rule: `memoize` gates the lookup and the insert.
        assert_eq!(repair(false), (hits, misses + solved, kept));
        assert_eq!(repair(true), (hits + solved, misses + solved, kept));
    }

    #[test]
    fn dense_solver_repair_agrees() {
        let t = designed::ring(8, 1);
        let r = UpDownRouting::new(&t, 0).unwrap();
        let prev = equivalent_distance_table(&t, &r).unwrap();
        let link0 = t.link(2);
        let t2 = drop_link(&t, link0.a, link0.b);
        let r2 = UpDownRouting::new(&t2, 0).unwrap();
        let affected = changed_pairs(&t, &r, &t2, &r2);
        let mut memo = RepairMemo::new();
        let dense = repair_distance_table(
            &prev,
            &t2,
            &r2,
            &affected,
            TableOptions {
                solver: SolverKind::DenseGaussian,
                ..Default::default()
            },
            &mut memo,
        )
        .unwrap();
        let rebuilt = equivalent_distance_table_with(
            &t2,
            &r2,
            TableOptions {
                solver: SolverKind::DenseGaussian,
                ..Default::default()
            },
        )
        .unwrap();
        assert_tables_close(&dense.table, &rebuilt, 1e-9);
    }

    #[test]
    fn bad_pairs_and_sizes_rejected() {
        let t = designed::ring(6, 1);
        let r = UpDownRouting::new(&t, 0).unwrap();
        let prev = equivalent_distance_table(&t, &r).unwrap();
        let mut memo = RepairMemo::new();
        assert!(matches!(
            repair_distance_table(&prev, &t, &r, &[(0, 9)], TableOptions::default(), &mut memo),
            Err(TableError::BadRepairPair { dst: 9, .. })
        ));
        let smaller = designed::ring(5, 1);
        let r5 = UpDownRouting::new(&smaller, 0).unwrap();
        assert!(matches!(
            repair_distance_table(
                &prev,
                &smaller,
                &r5,
                &[],
                TableOptions::default(),
                &mut memo
            ),
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
        let mut memo = RepairMemo::new();
        let out = repair_distance_table(
            &prev,
            &t,
            &r,
            &[(2, 4), (4, 2), (2, 4), (3, 3)],
            TableOptions::default(),
            &mut memo,
        )
        .unwrap();
        assert_eq!(out.pairs_recomputed, 1);
        // Same epoch, so recomputation returns the old value.
        assert_eq!(out.table, prev);
    }
}
