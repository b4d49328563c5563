//! Property tests for the resistance model and the linear solver.

use commsched_distance::{
    effective_resistance, equivalent_distance_table, equivalent_distance_table_with, solve, Matrix,
    SolverKind, TableOptions,
};
use commsched_routing::{ShortestPathRouting, UpDownRouting};
use commsched_topology::{random_regular, RandomTopologyConfig, Topology, TopologyBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
