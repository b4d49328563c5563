//! A one-link fault at N = 128, end to end: the repair re-solves a
//! fraction of the pairs and yields a rebuild's bits — counted, not
//! timed.

use commsched_distance::{equivalent_distance_table, repair_table, TableOptions};
use commsched_routing::UpDownRouting;
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
/// rebuild re-solves all of them) and yields the rebuild's bits.
#[test]
fn one_link_fault_at_n128_repairs_locally() {
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
}
