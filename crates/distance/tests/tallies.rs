//! What a repair adds to the `distance_*_total` cells. The registry is
//! process-global, so this file holds exactly one test: alone in its
//! process it can assert exact deltas where the unit tests, which share
//! theirs with every concurrent build, can only assert floors.

use commsched_distance::{
    equivalent_distance_table, repair_distance_table, RepairMemo, TableOptions,
};
use commsched_routing::UpDownRouting;
use commsched_telemetry as telemetry;
use commsched_topology::designed;

#[test]
fn a_repair_tallies_its_pairs_and_is_not_a_build() {
    let r = telemetry::global();
    let cell = |name: &str| r.counter(name, "").get();
    let cells = || {
        [
            "distance_pairs_total",
            "distance_rows_total",
            "distance_series_path_total",
            "distance_memo_hits_total",
            "distance_memo_misses_total",
        ]
        .map(cell)
    };

    let topo = designed::paper_24_switch();
    let routing = UpDownRouting::new(&topo, 0).unwrap();
    let prev = equivalent_distance_table(&topo, &routing).unwrap();
    assert_eq!(cell("distance_builds_total"), 1);
    assert_eq!(cell("distance_pairs_total"), 276);

    // Rows 0, 3 and 5; (3, 9) twice and once mirrored; one diagonal.
    let affected = [(0, 7), (3, 9), (9, 3), (3, 9), (3, 20), (5, 5), (5, 6)];
    let before = cells();
    let mut memo = RepairMemo::new();
    let out = repair_distance_table(
        &prev,
        &topo,
        &routing,
        &affected,
        TableOptions::default(),
        &mut memo,
    )
    .unwrap();
    assert_eq!(out.pairs_recomputed, 4);
    let after = cells();
    let [pairs, rows, series, hits, misses] = std::array::from_fn(|k| after[k] - before[k]);
    assert_eq!(pairs, 4, "every recomputed pair is tallied");
    assert_eq!(rows, 3, "one batched extraction per source row");
    assert_eq!(series + hits + misses, 4, "each pair took exactly one path");
    assert_eq!((hits, misses), (memo.hits(), memo.misses()));
    // A repair is not a build.
    assert_eq!(cell("distance_builds_total"), 1);
    assert_eq!(r.histogram("distance_build_ms", "").count(), 1);
}
