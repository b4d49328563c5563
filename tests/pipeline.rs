//! End-to-end pipeline tests: topology → routing → distance table → tabu
//! search → quality, across topology families.

use commsched::core::{quality, Partition, Workload};
use commsched::search::MapStrategy;
use commsched::service::{JobKind, JobSpec, ServiceCore, ServiceCoreConfig, TopoRef};
use commsched::topology::{designed, random_regular, RandomTopologyConfig};
use commsched::{RoutingKind, Scheduler, SchedulerOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn scheduler_pipeline_on_random_networks() {
    for seed in [1u64, 2, 3] {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = random_regular(RandomTopologyConfig::paper(16), &mut rng).unwrap();
        let sched = Scheduler::new(topo, RoutingKind::UpDown { root: 0 }).unwrap();
        let wl = Workload::balanced(sched.topology(), 4).unwrap();
        let outcome = sched.schedule(&wl, 10).unwrap();
        assert_eq!(outcome.partition.sizes(), vec![4, 4, 4, 4]);
        assert!(
            outcome.quality.fg > 0.0 && outcome.quality.fg < 1.0,
            "scheduled F_G should beat the random expectation of 1: {}",
            outcome.quality.fg
        );
        assert!(outcome.quality.cc > 1.0);
        // Beats the mean of random placements.
        let mut random_ccs = Vec::new();
        for s in 0..5 {
            random_ccs.push(sched.random_mapping(&wl, s).unwrap().quality.cc);
        }
        let mean: f64 = random_ccs.iter().sum::<f64>() / random_ccs.len() as f64;
        assert!(outcome.quality.cc > mean);
    }
}

#[test]
fn scheduler_works_across_topology_families() {
    for (name, topo, clusters) in [
        ("ring", designed::ring(8, 4), 4),
        ("mesh", designed::mesh(4, 4, 4), 4),
        ("torus", designed::torus(4, 4, 4), 4),
        ("hypercube", designed::hypercube(4, 4), 4),
        ("rings", designed::ring_of_rings(2, 4, 4), 2),
    ] {
        let sched = Scheduler::new(topo, RoutingKind::UpDown { root: 0 })
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let wl = Workload::balanced(sched.topology(), clusters).unwrap();
        let outcome = sched.schedule(&wl, 3).unwrap();
        assert!(
            outcome.quality.fg.is_finite() && outcome.quality.fg > 0.0,
            "{name}: F_G = {}",
            outcome.quality.fg
        );
    }
}

#[test]
fn two_rings_identified_exactly() {
    let topo = designed::ring_of_rings(2, 4, 4);
    let sched = Scheduler::new(topo, RoutingKind::UpDown { root: 0 }).unwrap();
    let wl = Workload::balanced(sched.topology(), 2).unwrap();
    let outcome = sched.schedule(&wl, 0).unwrap();
    let truth = Partition::from_clusters(&designed::ring_of_rings_clusters(2, 4)).unwrap();
    assert!(outcome.partition.same_grouping(&truth));
}

#[test]
fn quality_is_routing_sensitive() {
    // The same topology under different routings gives different tables;
    // an up*/down* root near one cluster skews the distances.
    let topo = designed::ring(8, 4);
    let ud = Scheduler::new(topo.clone(), RoutingKind::UpDown { root: 0 }).unwrap();
    let sp = Scheduler::new(topo, RoutingKind::ShortestPath).unwrap();
    let p = Partition::new(vec![0, 0, 1, 1, 2, 2, 3, 3], 4).unwrap();
    let q_ud = quality(&p, ud.table());
    let q_sp = quality(&p, sp.table());
    // Up*/down* forbids some minimal paths: distances (and thus the
    // absolute F values) must differ.
    assert_ne!(q_ud.fg, q_sp.fg);
}

#[test]
fn workload_validation_round_trip() {
    let topo = designed::ring(8, 4);
    let sched = Scheduler::new(topo, RoutingKind::default()).unwrap();
    // 3 clusters cannot split 32 hosts into switch-aligned groups evenly.
    assert!(Workload::balanced(sched.topology(), 3).is_err());
    let wl = Workload::balanced(sched.topology(), 2).unwrap();
    let outcome = sched.schedule(&wl, 0).unwrap();
    assert_eq!(outcome.mapping.num_hosts(), 32);
    // Every host's cluster matches its switch's cluster.
    for h in 0..32 {
        assert_eq!(
            outcome.mapping.cluster_of_host(h),
            outcome.partition.cluster_of(h / 4)
        );
    }
}

/// The facade and the daemon are two callers of one pipeline: the same
/// `(topology, routing, clusters, seed, strategy)` must produce the same
/// partition and the same `fg` (to the 9 digits a `RESULT` prints)
/// through `Scheduler` and through an in-process `ServiceCore` job.
#[test]
fn facade_and_daemon_map_identically() {
    let core = Arc::new(ServiceCore::new(ServiceCoreConfig {
        search_seeds: 3,
        ..ServiceCoreConfig::default()
    }));
    let (clusters, seed) = (4, 11);
    // 264 switches is past the multilevel default `max_coarse_n`, so that
    // case really coarsens (the daemon has no knob to lower the bound).
    let cases = [
        (32, RoutingKind::UpDown { root: 0 }, MapStrategy::Flat),
        (32, RoutingKind::ShortestPath, MapStrategy::Flat),
        (
            264,
            RoutingKind::UpDown { root: 3 },
            MapStrategy::Multilevel,
        ),
    ]
    .map(|(n, routing, strategy)| {
        let mut rng = StdRng::seed_from_u64(5);
        let topo = random_regular(RandomTopologyConfig::paper(n), &mut rng).unwrap();
        let spec = JobSpec {
            topo: TopoRef::Registered(core.register_topology(topo.clone()).0),
            routing,
            strategy,
            kind: JobKind::Schedule { clusters, seed },
        };
        (topo, routing, strategy, core.submit(spec).unwrap())
    });
    let worker = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || core.worker_loop())
    };
    core.drain();
    worker.join().unwrap();
    for (topo, routing, strategy, id) in cases {
        let options = SchedulerOptions {
            strategy,
            ..SchedulerOptions::default()
        };
        let sched = Scheduler::with_options(topo, routing, options)
            .unwrap()
            .with_search_seeds(3);
        let wl = Workload::balanced(sched.topology(), clusters).unwrap();
        let local = sched.schedule(&wl, seed).unwrap();
        let assignment = local.partition.assignment();
        let assignment: Vec<String> = assignment.iter().map(ToString::to_string).collect();
        let lines = core.result_lines(id).unwrap();
        let mut want = vec![
            format!("partition {}", assignment.join(" ")),
            format!("fg {:.9}", local.quality.fg),
            format!("winning_seed {}", local.winning_seed),
        ];
        if let Some(ml) = local.ml {
            assert!(ml.levels > 0, "the multilevel case must coarsen");
            want.push(format!("ml_refine_moves {}", ml.refine_moves));
        }
        for line in &want {
            assert!(lines.contains(line), "{strategy}: no '{line}' in {lines:?}");
        }
    }
}
