//! Integration tests of the full evaluation loop: scheduler output fed to
//! the flit-level simulator, reproducing the paper's qualitative results at
//! a reduced (debug-friendly) simulation budget.

use commsched::core::Workload;
use commsched::netsim::{simulate, sweep, SimConfig};
use commsched::topology::designed;
use commsched::{RoutingKind, Scheduler};

fn quick_cfg() -> SimConfig {
    SimConfig {
        warmup_cycles: 500,
        measure_cycles: 2_500,
        seed: 77,
        ..Default::default()
    }
}

/// The Figure-5 shape at integration-test scale: on the designed network
/// the scheduled mapping accepts clearly more traffic than a random one.
#[test]
fn scheduled_mapping_outperforms_random_in_simulation() {
    let topo = designed::ring_of_rings(4, 4, 4); // 16 switches, 64 hosts
    let sched = Scheduler::new(topo, RoutingKind::UpDown { root: 0 }).unwrap();
    let wl = Workload::balanced(sched.topology(), 4).unwrap();
    let op = sched.schedule(&wl, 5).unwrap();
    let random = sched.random_mapping(&wl, 8).unwrap();

    // Drive both well past the random mapping's saturation.
    let rates = [0.05, 0.15, 0.3];
    let op_sweep = sweep(
        sched.topology(),
        sched.routing(),
        op.mapping.host_clusters(),
        quick_cfg(),
        &rates,
        1,
    )
    .unwrap();
    let rnd_sweep = sweep(
        sched.topology(),
        sched.routing(),
        random.mapping.host_clusters(),
        quick_cfg(),
        &rates,
        1,
    )
    .unwrap();

    assert!(
        op_sweep.throughput() > 1.2 * rnd_sweep.throughput(),
        "scheduled {} vs random {}",
        op_sweep.throughput(),
        rnd_sweep.throughput()
    );
}

/// Latency grows with offered load and the network never deadlocks under
/// up*/down* routing.
#[test]
fn latency_monotone_and_deadlock_free() {
    let topo = designed::ring_of_rings(2, 4, 4);
    let sched = Scheduler::new(topo, RoutingKind::UpDown { root: 0 }).unwrap();
    let wl = Workload::balanced(sched.topology(), 2).unwrap();
    let op = sched.schedule(&wl, 1).unwrap();
    let rates = [0.02, 0.08, 0.2];
    let s = sweep(
        sched.topology(),
        sched.routing(),
        op.mapping.host_clusters(),
        quick_cfg(),
        &rates,
        1,
    )
    .unwrap();
    for p in &s.points {
        assert!(!p.stats.deadlocked);
    }
    let latencies: Vec<f64> = s
        .points
        .iter()
        .map(|p| p.stats.avg_network_latency)
        .collect();
    assert!(
        latencies.windows(2).all(|w| w[1] >= w[0] * 0.95),
        "latency not (weakly) increasing: {latencies:?}"
    );
}

/// Cross-check of the quality criterion against the simulator: a
/// deliberately bad mapping (each application scattered across rings) must
/// show both a lower Cc and a lower measured throughput than the aligned
/// mapping.
#[test]
fn cc_ordering_matches_measured_ordering() {
    use commsched::core::Partition;
    let topo = designed::ring_of_rings(2, 4, 4); // 8 switches, rings {0..3},{4..7}
    let sched = Scheduler::new(topo, RoutingKind::UpDown { root: 0 }).unwrap();
    let _wl = Workload::balanced(sched.topology(), 2).unwrap();

    let aligned = Partition::new(vec![0, 0, 0, 0, 1, 1, 1, 1], 2).unwrap();
    let scattered = Partition::new(vec![0, 1, 0, 1, 0, 1, 0, 1], 2).unwrap();
    let q_aligned = sched.evaluate(&aligned);
    let q_scattered = sched.evaluate(&scattered);
    assert!(q_aligned.cc > q_scattered.cc);

    let mk_clusters =
        |p: &Partition| -> Vec<usize> { (0..32).map(|h| p.cluster_of(h / 4)).collect() };
    let rate = 0.25; // past the scattered mapping's saturation
    let a = simulate(
        sched.topology(),
        sched.routing(),
        &mk_clusters(&aligned),
        quick_cfg().with_rate(rate),
    )
    .unwrap();
    let b = simulate(
        sched.topology(),
        sched.routing(),
        &mk_clusters(&scattered),
        quick_cfg().with_rate(rate),
    )
    .unwrap();
    assert!(
        a.accepted_flits_per_switch_cycle > b.accepted_flits_per_switch_cycle,
        "aligned {} vs scattered {}",
        a.accepted_flits_per_switch_cycle,
        b.accepted_flits_per_switch_cycle
    );
}
