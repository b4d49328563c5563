//! Which path answered each pair: what a build and a repair add to the
//! `distance_*_total` cells. The registry is process-global, so this
//! file holds exactly one test: alone in its process it can assert exact
//! deltas where the unit tests, which share theirs with every concurrent
//! build, can only assert floors.
//!
//! `golden.rs` pins the bits of the table; `BUILD_TALLIES` pins, for the
//! same 26 build cases at `threads = 1`, how each pair came by its bits:
//! `[pairs, series_path, sparse solves]`, where the sparse solves are
//! `route_walks − dense_solves` (every walked pair is solved dense or
//! solved sparse). A change to how the builder learns that a pair's route
//! network is a series path must leave every row equal. Recorded on the
//! commit before the row scan answered a pair with one minimal route
//! (EXPERIMENTS.md names it), where the third column was read off the
//! circuit memo's hit and miss cells; a mismatch prints the
//! ready-to-paste rows.

use commsched_distance::{
    equivalent_distance_table, equivalent_distance_table_with, repair_distance_table, SolverKind,
    TableOptions,
};
use commsched_routing::{RouteRow, Routing, UpDownRouting};
use commsched_telemetry as telemetry;
use commsched_topology::{designed, Topology};
use std::fmt::Write;

mod nets;

/// `(case, [pairs, series_path, sparse solves])`.
const BUILD_TALLIES: [(&str, [u64; 3]); 26] = [
    ("paper24/updown/sparse", [276, 136, 140]),
    ("paper24/updown/dense", [276, 0, 0]),
    ("paper24/shortest/sparse", [276, 148, 128]),
    ("paper24/shortest/dense", [276, 0, 0]),
    ("ring8/updown/sparse", [28, 27, 1]),
    ("ring8/updown/dense", [28, 0, 0]),
    ("ring8/shortest/sparse", [28, 24, 4]),
    ("ring8/shortest/dense", [28, 0, 0]),
    ("slowdowns12/updown/sparse", [66, 57, 9]),
    ("slowdowns12/updown/dense", [66, 0, 0]),
    ("slowdowns12/shortest/sparse", [66, 39, 27]),
    ("slowdowns12/shortest/dense", [66, 0, 0]),
    ("random16/updown/sparse", [120, 106, 14]),
    ("random16/updown/dense", [120, 0, 0]),
    ("random16/shortest/sparse", [120, 90, 30]),
    ("random16/shortest/dense", [120, 0, 0]),
    ("random64/updown/sparse", [2016, 1632, 384]),
    ("random64/updown/dense", [2016, 0, 0]),
    ("random64/shortest/sparse", [2016, 1478, 538]),
    ("random64/shortest/dense", [2016, 0, 0]),
    ("random96/updown/sparse", [4560, 4044, 516]),
    ("random96/updown/dense", [4560, 0, 0]),
    ("random96/shortest/sparse", [4560, 3352, 1208]),
    ("random96/shortest/dense", [4560, 0, 0]),
    ("random320/updown/sparse", [51040, 43279, 7761]),
    ("random320/shortest/sparse", [51040, 37208, 13832]),
];

fn cell(name: &str) -> u64 {
    telemetry::global().counter(name, "").get()
}

/// What running `f` added to each of `names`' cells.
fn deltas<const K: usize>(names: [&str; K], f: impl FnOnce()) -> [u64; K] {
    let before = names.map(cell);
    f();
    let after = names.map(cell);
    std::array::from_fn(|k| after[k] - before[k])
}

/// The tally row of every golden build case, in `golden.rs` order.
fn build_tallies() -> Vec<(String, [u64; 3])> {
    let mut rows = Vec::new();
    for (net, topo) in nets::all() {
        for (routing_name, routing) in &nets::routed(&topo) {
            for (solver_name, solver) in nets::SOLVERS {
                if solver == SolverKind::DenseGaussian
                    && topo.num_switches() > nets::DENSE_AND_REPAIR_MAX_N
                {
                    continue;
                }
                let options = TableOptions { solver, threads: 1 };
                let [pairs, series, walks, dense] = deltas(
                    [
                        "distance_pairs_total",
                        "distance_series_path_total",
                        "distance_route_walks_total",
                        "distance_dense_solves_total",
                    ],
                    || {
                        equivalent_distance_table_with(&topo, &**routing, options).unwrap();
                    },
                );
                let name = format!("{net}/{routing_name}/{solver_name}");
                // Counted work: a link set is extracted for the pairs the
                // row scan could not answer and for no other (with the
                // recorded rows: 7 761 walks for the 51 040 pairs of
                // random320/updown, 128 for the 276 of paper24/shortest).
                assert_eq!(walks, pairs - series, "{name}: walks");
                let solves = walks - dense;
                rows.push((name, [pairs, series, solves]));
            }
        }
    }
    rows
}

fn repair_tallies_its_pairs_and_is_not_a_build(topo: &Topology) {
    let routing = UpDownRouting::new(topo, 0).unwrap();
    let prev = equivalent_distance_table(topo, &routing).unwrap();
    assert_eq!(cell("distance_builds_total"), 1);
    assert_eq!(cell("distance_pairs_total"), 276);

    // Rows 0, 3 and 5; (3, 9) twice and once mirrored; one diagonal.
    let affected = [(0, 7), (3, 9), (9, 3), (3, 9), (3, 20), (5, 5), (5, 6)];
    let [pairs, rows, series, walks] = deltas(
        [
            "distance_pairs_total",
            "distance_rows_total",
            "distance_series_path_total",
            "distance_route_walks_total",
        ],
        || {
            let out =
                repair_distance_table(&prev, topo, &routing, &affected, TableOptions::default())
                    .unwrap();
            assert_eq!(out.pairs_recomputed, 4);
        },
    );
    assert_eq!(pairs, 4, "every recomputed pair is tallied");
    assert_eq!(rows, 3, "one scan per source row");
    // An exact repair solves every pair it walks.
    assert_eq!(series + walks, 4, "each pair took exactly one path");
    // A repair is not a build.
    assert_eq!(cell("distance_builds_total"), 1);
    let build_ms = telemetry::global().histogram("distance_build_ms", "");
    assert_eq!(build_ms.count(), 1);
}

/// The repair of one removed link scans the rows of its flagged pairs
/// and walks back only for those of them with several minimal routes.
fn fault_repair_walks_only_its_flagged_non_unique_pairs(topo: &Topology) {
    let faulted = nets::first_survivable_fault(topo);
    let routing = UpDownRouting::new(topo, 0).unwrap();
    let faulted_routing = UpDownRouting::new(&faulted, 0).unwrap();
    let prev = equivalent_distance_table(topo, &routing).unwrap();
    let affected = nets::changed_pairs(topo, &routing, &faulted, &faulted_routing);
    let mut row = RouteRow::new();
    let mut flagged_rows = 0;
    let mut non_unique = 0;
    for (k, &(i, j)) in affected.iter().enumerate() {
        if k == 0 || affected[k - 1].0 != i {
            faulted_routing.scan_row(i, &mut row);
            flagged_rows += 1;
        }
        non_unique += u64::from(row.unique_route_cost(j).is_none());
    }
    assert!(0 < non_unique && non_unique < affected.len() as u64);
    let [pairs, rows, series, walks] = deltas(
        [
            "distance_pairs_total",
            "distance_rows_total",
            "distance_series_path_total",
            "distance_route_walks_total",
        ],
        || {
            repair_distance_table(
                &prev,
                &faulted,
                &faulted_routing,
                &affected,
                TableOptions::default(),
            )
            .unwrap();
        },
    );
    assert_eq!((pairs, rows), (affected.len() as u64, flagged_rows));
    assert_eq!((walks, series), (non_unique, pairs - non_unique));
}

#[test]
fn builds_and_repairs_tally_which_path_answered_each_pair() {
    // First, while the process has built nothing: the cells of one build
    // and one repair are exactly theirs.
    repair_tallies_its_pairs_and_is_not_a_build(&designed::paper_24_switch());
    fault_repair_walks_only_its_flagged_non_unique_pairs(&designed::paper_24_switch());

    let mut moved = String::new();
    let got = build_tallies();
    for (name, row) in &got {
        let want = BUILD_TALLIES.iter().find(|(n, _)| n == name);
        if want.map(|(_, r)| r) != Some(row) {
            writeln!(moved, "(\"{name}\", {row:?}), // recorded {want:?}").unwrap();
        }
    }
    assert!(moved.is_empty(), "build tallies moved:\n{moved}");
    assert_eq!(got.len(), BUILD_TALLIES.len());
}
