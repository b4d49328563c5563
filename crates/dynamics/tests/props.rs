//! Property tests: incremental repair is a from-scratch rebuild, bit for
//! bit, across random topologies, fault schedules and thread counts.

use commsched_distance::{equivalent_distance_table, equivalent_distance_table_with, TableOptions};
use commsched_dynamics::{repair_table, warm_remap, FaultEvent, FaultSchedule, TopologyEpoch};
use commsched_routing::{Routing, RoutingError, ShortestPathRouting, UpDownRouting};
use commsched_search::{TabuParams, TabuSearch};
use commsched_topology::{random_regular, RandomTopologyConfig, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn random_topology(switches: usize, seed: u64) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    random_regular(RandomTopologyConfig::paper(switches), &mut rng).unwrap()
}

/// Up*/down* rooted at switch 0, or unconstrained shortest-path routing.
fn route(topo: &Topology, updown: bool) -> Result<Box<dyn Routing>, RoutingError> {
    Ok(if updown {
        Box::new(UpDownRouting::new(topo, 0)?)
    } else {
        Box::new(ShortestPathRouting::new(topo)?)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random topologies, random 1–3-event fault schedules and both
    /// routers (up*/down* rooted at 0, shortest-path), every repair of the
    /// chain is bit-identical to a from-scratch rebuild of its epoch, and
    /// across thread counts {1, 2, 7}.
    #[test]
    fn repair_chain_equals_rebuild(
        topo_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        sw_idx in 0usize..3,
        count in 1usize..=3,
        updown in any::<bool>(),
    ) {
        let switches = [12usize, 16, 20][sw_idx];
        let topo = random_topology(switches, topo_seed);
        let schedule = FaultSchedule::random(&topo, fault_seed, count, 1_000);
        let mut epoch = TopologyEpoch::initial(Arc::new(topo));
        let mut routing = route(&epoch.topology, updown).unwrap();
        let mut table = equivalent_distance_table(&epoch.topology, &*routing).unwrap();
        for tf in &schedule.events {
            let next = epoch.apply(&tf.event).unwrap();
            if !next.connected {
                // A partitioned epoch is reported, not repaired: either
                // router (and hence the table) needs a connected network.
                prop_assert!(route(&next.topology, updown).is_err());
                break;
            }
            let next_routing = route(&next.topology, updown).unwrap();
            let (repaired, report) = repair_table(
                &table,
                &epoch.topology,
                &*routing,
                &next.topology,
                &*next_routing,
                TableOptions::default(),
            )
            .unwrap();
            // Thread-count bit-identity.
            for threads in [2usize, 7] {
                let (again, _) = repair_table(
                    &table,
                    &epoch.topology,
                    &*routing,
                    &next.topology,
                    &*next_routing,
                    TableOptions { threads, ..Default::default() },
                )
                .unwrap();
                prop_assert_eq!(&again, &repaired, "threads = {}", threads);
            }
            // Exactness against a from-scratch rebuild of this epoch.
            let rebuilt = equivalent_distance_table(&next.topology, &*next_routing).unwrap();
            prop_assert_eq!(&repaired, &rebuilt, "epoch {}", next.index);
            prop_assert!(report.pairs_recomputed <= report.pairs_total);
            epoch = next;
            routing = next_routing;
            table = repaired;
        }
    }

    /// Repair agrees with the dense-oracle rebuild too, closing the loop
    /// against the original solver.
    #[test]
    fn repair_agrees_with_dense_oracle(topo_seed in any::<u64>()) {
        use commsched_distance::SolverKind;
        let topo = random_topology(12, topo_seed);
        let schedule = FaultSchedule::random(&topo, topo_seed ^ 0x5eed, 1, 100);
        prop_assume!(!schedule.is_empty());
        let epoch0 = TopologyEpoch::initial(Arc::new(topo));
        let epoch1 = epoch0.apply(&schedule.events[0].event).unwrap();
        prop_assume!(epoch1.connected);
        let r0 = UpDownRouting::new(&epoch0.topology, 0).unwrap();
        let r1 = UpDownRouting::new(&epoch1.topology, 0).unwrap();
        let prev = equivalent_distance_table(&epoch0.topology, &r0).unwrap();
        let (repaired, _) = repair_table(
            &prev,
            &epoch0.topology,
            &r0,
            &epoch1.topology,
            &r1,
            TableOptions::default(),
        )
        .unwrap();
        let dense = equivalent_distance_table_with(
            &epoch1.topology,
            &r1,
            TableOptions { solver: SolverKind::DenseGaussian, ..Default::default() },
        )
        .unwrap();
        for i in 0..12 {
            for j in 0..12 {
                prop_assert!((repaired.get(i, j) - dense.get(i, j)).abs() < 1e-9);
            }
        }
    }
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
    let (repaired, report) = repair_table(
        &table0,
        &epoch0.topology,
        &r0,
        &epoch1.topology,
        &r1,
        TableOptions::default(),
    )
    .unwrap();
    let rebuilt = equivalent_distance_table(&epoch1.topology, &r1).unwrap();
    assert!(repaired == rebuilt, "the repair is not a rebuild");
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
    let (cold, cold_trace) = search(&repaired);
    let cold_iterations = cold_trace.events.iter().map(|e| e.iteration).max().unwrap();
    let warm_params = TabuParams {
        seeds: 2,
        ..cold_params.clone()
    };
    let warm = warm_remap(&repaired, &sizes, &pre.partition, warm_params, 42);
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
