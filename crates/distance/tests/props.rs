//! Property tests for the resistance model and the linear solver, and
//! for incremental repair: a repair is a from-scratch rebuild, bit for
//! bit, across random topologies, fault schedules and thread counts.

use commsched_distance::{
    effective_resistance, equivalent_distance_table, equivalent_distance_table_with, repair_table,
    solve, Matrix, SolverKind, TableOptions,
};
use commsched_routing::{Routing, RoutingError, ShortestPathRouting, UpDownRouting};
use commsched_topology::{
    designed, random_regular, FaultEvent, RandomTopologyConfig, SwitchId, Topology,
    TopologyBuilder, TopologyEpoch,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Random labelled tree on `n` nodes via a random attachment sequence.
fn random_tree(n: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (1..n).map(|v| (v, rng.gen_range(0..v))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On a tree, every pair has a unique path, so the effective
    /// resistance equals the hop distance exactly.
    #[test]
    fn tree_resistance_equals_path_length(
        seed in any::<u64>(),
        n in 2usize..12,
    ) {
        let edges = random_tree(n, seed);
        let topo = TopologyBuilder::new(n, 1)
            .links(edges.iter().copied())
            .build()
            .unwrap();
        let routing = ShortestPathRouting::new(&topo).unwrap();
        let table = equivalent_distance_table(&topo, &routing).unwrap();
        for i in 0..n {
            let hops = topo.bfs_distances(i);
            for (j, &h) in hops.iter().enumerate() {
                prop_assert!((table.get(i, j) - f64::from(h)).abs() < 1e-9);
            }
        }
    }

    /// Effective resistance is symmetric and satisfies the triangle
    /// inequality *on a fixed network* (it is a metric there; the paper's
    /// point is that the per-pair sub-network construction breaks it).
    #[test]
    fn resistance_on_fixed_network_is_metric(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Random connected graph: tree plus a few extra edges.
        let n = 8;
        let mut edges = random_tree(n, seed);
        for _ in 0..4 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b && !edges.contains(&(a.max(b), a.min(b))) && !edges.contains(&(a.min(b), a.max(b))) {
                edges.push((a, b));
            }
        }
        edges.sort_unstable_by_key(|&(a, b)| (a.min(b), a.max(b)));
        edges.dedup_by_key(|&mut (a, b)| (a.min(b), a.max(b)));
        let r = |i: usize, j: usize| effective_resistance(&edges, i, j).unwrap();
        for i in 0..n {
            for j in 0..n {
                prop_assert!((r(i, j) - r(j, i)).abs() < 1e-9);
                for k in 0..n {
                    prop_assert!(r(i, k) <= r(i, j) + r(j, k) + 1e-9);
                }
            }
        }
    }

    /// Adding an edge to the network can only lower (or keep) the
    /// effective resistance between any pair — Rayleigh monotonicity.
    #[test]
    fn rayleigh_monotonicity(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 7;
        let base = random_tree(n, seed);
        let a = rng.gen_range(0..n);
        let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
        let mut extended = base.clone();
        extended.push((a, b));
        for i in 0..n {
            for j in 0..n {
                let before = effective_resistance(&base, i, j).unwrap();
                let after = effective_resistance(&extended, i, j).unwrap();
                prop_assert!(after <= before + 1e-9);
            }
        }
    }

    /// The solver really solves: random diagonally dominant systems
    /// verify `A x = b`.
    #[test]
    fn solver_satisfies_system(
        seed in any::<u64>(),
        n in 1usize..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                let v = rng.gen_range(-1.0..1.0);
                *a.get_mut(i, j) = v;
                row_sum += v.abs();
            }
            *a.get_mut(i, i) += row_sum + 1.0; // strict dominance
        }
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let x = solve(a.clone(), b.clone()).unwrap();
        let back = a.mul_vec(&x);
        for (u, v) in back.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-8);
        }
    }
}

/// Draw a random paper-style topology (3-regular, 4 hosts/switch).
fn random_topology(switches: usize, seed: u64) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    random_regular(RandomTopologyConfig::paper(switches), &mut rng).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The sparse Cholesky fast path agrees with the dense Gaussian
    /// oracle to 1e-9 on every pair of a random topology.
    #[test]
    fn sparse_matches_dense_oracle_on_random_topologies(
        seed in any::<u64>(),
        switches in prop_oneof![Just(8usize), Just(12), Just(16)],
    ) {
        let topo = random_topology(switches, seed);
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let sparse = equivalent_distance_table_with(
            &topo,
            &routing,
            TableOptions { solver: SolverKind::SparseCholesky, ..Default::default() },
        )
        .unwrap();
        let dense = equivalent_distance_table_with(
            &topo,
            &routing,
            TableOptions { solver: SolverKind::DenseGaussian, ..Default::default() },
        )
        .unwrap();
        for i in 0..switches {
            for j in 0..switches {
                let (s, d) = (sparse.get(i, j), dense.get(i, j));
                prop_assert!((s - d).abs() < 1e-9, "({i},{j}): sparse {s} vs dense {d}");
            }
        }
    }

    /// The work-stealing parallel build is bit-identical to the serial
    /// build for every thread count, including more threads than pairs.
    #[test]
    fn parallel_build_bit_identical_to_serial(
        seed in any::<u64>(),
        switches in prop_oneof![Just(8usize), Just(12), Just(16)],
    ) {
        let topo = random_topology(switches, seed);
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let serial = equivalent_distance_table(&topo, &routing).unwrap();
        for threads in [1usize, 2, 7, 64] {
            let options = TableOptions { threads, ..Default::default() };
            let par = equivalent_distance_table_with(&topo, &routing, options).unwrap();
            prop_assert_eq!(&serial, &par, "threads = {}", threads);
        }
    }
}

#[test]
fn parallel_resistor_law() {
    // k parallel 2-hop paths between 0 and 1: R = 2/k.
    for k in 1..=6usize {
        let mut edges = Vec::new();
        for p in 0..k {
            let mid = 2 + p;
            edges.push((0, mid));
            edges.push((mid, 1));
        }
        let r = effective_resistance(&edges, 0, 1).unwrap();
        assert!((r - 2.0 / k as f64).abs() < 1e-9, "k={k}: {r}");
    }
}

/// A fault event scheduled at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TimedFault {
    /// When the event fires.
    at: u64,
    /// What happens.
    event: FaultEvent,
}

/// A deterministic, seed-driven sequence of timed faults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct FaultSchedule {
    /// Events sorted by firing time.
    events: Vec<TimedFault>,
}

impl FaultSchedule {
    /// Draw `count` events over `[0, horizon)` for `topo`, deterministic
    /// in `seed`.
    ///
    /// The generator tracks the link population as it goes: a `LinkDown`
    /// always names a currently-present link, a `LinkUp` restores a
    /// previously failed one (with its original slowdown), and a
    /// `SwitchDown` targets a switch that still has links. Disconnecting
    /// the network is allowed — downstream layers report partitions, they
    /// do not assert on them.
    fn random(topo: &Topology, seed: u64, count: usize, horizon: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Live wires as canonical endpoint triples, plus the graveyard of
        // failed wires a LinkUp can resurrect.
        let mut up: Vec<(SwitchId, SwitchId, u32)> = topo
            .links()
            .iter()
            .enumerate()
            .map(|(l, link)| (link.a, link.b, topo.link_slowdown(l)))
            .collect();
        let mut down: Vec<(SwitchId, SwitchId, u32)> = Vec::new();
        let mut times: Vec<u64> = (0..count)
            .map(|_| rng.gen_range(0..horizon.max(1)))
            .collect();
        times.sort_unstable();
        let mut events = Vec::with_capacity(count);
        for at in times {
            let roll: f64 = rng.gen_range(0.0..1.0);
            let event = if roll < 0.25 && !down.is_empty() {
                let k = rng.gen_range(0..down.len());
                let (a, b, slowdown) = down.swap_remove(k);
                up.push((a, b, slowdown));
                FaultEvent::LinkUp { a, b, slowdown }
            } else if roll < 0.85 || up.len() <= 1 {
                if up.is_empty() {
                    continue;
                }
                let k = rng.gen_range(0..up.len());
                let (a, b, slowdown) = up.swap_remove(k);
                down.push((a, b, slowdown));
                FaultEvent::LinkDown { a, b }
            } else {
                let switches: Vec<SwitchId> = (0..topo.num_switches())
                    .filter(|&s| up.iter().any(|&(a, b, _)| a == s || b == s))
                    .collect();
                if switches.is_empty() {
                    continue;
                }
                let s = switches[rng.gen_range(0..switches.len())];
                let (lost, kept): (Vec<_>, Vec<_>) =
                    up.iter().partition(|&&(a, b, _)| a == s || b == s);
                up = kept;
                down.extend(lost);
                FaultEvent::SwitchDown { switch: s }
            };
            events.push(TimedFault { at, event });
        }
        Self { events }
    }

    fn len(&self) -> usize {
        self.events.len()
    }

    fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
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
            let report = repair_table(
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
                let again = repair_table(
                    &table,
                    &epoch.topology,
                    &*routing,
                    &next.topology,
                    &*next_routing,
                    TableOptions { threads, ..Default::default() },
                )
                .unwrap();
                prop_assert_eq!(&again.table, &report.table, "threads = {}", threads);
            }
            // Exactness against a from-scratch rebuild of this epoch.
            let rebuilt = equivalent_distance_table(&next.topology, &*next_routing).unwrap();
            prop_assert_eq!(&report.table, &rebuilt, "epoch {}", next.index);
            prop_assert!(report.pairs_recomputed <= report.pairs_total);
            epoch = next;
            routing = next_routing;
            table = report.table;
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
        let repaired = repair_table(
            &prev,
            &epoch0.topology,
            &r0,
            &epoch1.topology,
            &r1,
            TableOptions::default(),
        )
        .unwrap()
        .table;
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

#[test]
fn random_schedules_are_deterministic_and_applicable() {
    let topo = designed::paper_24_switch();
    let s1 = FaultSchedule::random(&topo, 7, 5, 1000);
    let s2 = FaultSchedule::random(&topo, 7, 5, 1000);
    assert_eq!(s1, s2, "same seed, same schedule");
    let s3 = FaultSchedule::random(&topo, 8, 5, 1000);
    assert_ne!(s1, s3, "different seed, different schedule");
    assert!(s1.len() <= 5);
    // Times are sorted and the whole schedule applies cleanly.
    let mut last = 0;
    let mut epoch = TopologyEpoch::initial(Arc::new(topo));
    for tf in &s1.events {
        assert!(tf.at >= last);
        last = tf.at;
        epoch = epoch.apply(&tf.event).unwrap();
    }
    assert_eq!(epoch.index, s1.len() as u64);
}
