//! A one-link fault at N = 128, end to end: the repair re-solves a
//! fraction of the pairs and the warm remap recovers the cold search's
//! quality in a fraction of its iterations — counted, not timed.

use commsched_distance::{equivalent_distance_table, repair_table, TableOptions};
use commsched_routing::UpDownRouting;
use commsched_search::{warm_remap, TabuParams, TabuSearch};
use commsched_topology::{
    random_regular, FaultEvent, RandomTopologyConfig, Topology, TopologyEpoch,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn random_topology(switches: usize, seed: u64) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    random_regular(RandomTopologyConfig::paper(switches), &mut rng).unwrap()
}

/// The fault path's work is proportional to the fault, counted — not
/// timed. On the N=128 random irregular network (seed 9128), killing
/// the first non-bridge link re-solves well under 60% of the pairs (a
/// rebuild re-solves all of them) and yields the rebuild's bits, and
/// warm-starting the remap from the
/// pre-fault mapping reaches the cold 10-seed `F_G` (within 1%) in at
/// most half the cold search's tabu iterations.
#[test]
fn one_link_fault_at_n128_repairs_locally_and_remaps_warm() {
    let switches = 128;
    let epoch0 = TopologyEpoch::initial(Arc::new(random_topology(switches, 9_128)));
    let r0 = UpDownRouting::new(&epoch0.topology, 0).unwrap();
    let table0 = equivalent_distance_table(&epoch0.topology, &r0).unwrap();
    let epoch1 = epoch0
        .topology
        .links()
        .iter()
        .filter_map(|l| epoch0.apply(&FaultEvent::LinkDown { a: l.a, b: l.b }).ok())
        .find(|e| e.connected)
        .expect("a non-bridge link");
    let r1 = UpDownRouting::new(&epoch1.topology, 0).unwrap();
    let report = repair_table(
        &table0,
        &epoch0.topology,
        &r0,
        &epoch1.topology,
        &r1,
        TableOptions::default(),
    )
    .unwrap();
    let rebuilt = equivalent_distance_table(&epoch1.topology, &r1).unwrap();
    assert!(report.table == rebuilt, "the repair is not a rebuild");
    assert_eq!(report.pairs_total, switches * (switches - 1) / 2);
    assert!(
        report.pairs_recomputed * 10 < report.pairs_total * 6,
        "one link failure re-solved {}/{} pairs (>= 60%)",
        report.pairs_recomputed,
        report.pairs_total
    );

    let sizes = vec![switches / 4; 4];
    let cold_params = TabuParams {
        threads: 1,
        ..TabuParams::scaled(switches)
    };
    let search = |table| {
        let mut rng = StdRng::seed_from_u64(42);
        TabuSearch::new(cold_params.clone()).search_traced(table, &sizes, &mut rng)
    };
    let (pre, _) = search(&table0);
    let (cold, cold_trace) = search(&report.table);
    let cold_iterations = cold_trace.events.iter().map(|e| e.iteration).max().unwrap();
    let warm_params = TabuParams {
        seeds: 2,
        ..cold_params.clone()
    };
    let warm = warm_remap(&report.table, &sizes, &pre.partition, warm_params, 42);
    eprintln!(
        "pairs {}/{}  warm {} it (F_G {:.6})  cold {} it (F_G {:.6})",
        report.pairs_recomputed,
        report.pairs_total,
        warm.iterations,
        warm.fg_after,
        cold_iterations,
        cold.fg
    );
    assert!(
        warm.fg_after <= cold.fg * 1.01,
        "warm remap missed the cold F_G by > 1%: {} vs {}",
        warm.fg_after,
        cold.fg
    );
    assert!(
        2 * warm.iterations <= cold_iterations,
        "warm remap took {} iterations, cold took {cold_iterations}",
        warm.iterations
    );
}
