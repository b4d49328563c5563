//! Property tests for the search heuristics: every mapper returns a valid
//! partition of the requested shape with an exactly consistent objective
//! value, and exact methods agree with each other. Also the figures'
//! statistics: Pearson's bounds and affine invariance, mean and stddev.

use commsched_bench::stats::{mean, pearson, stddev};
use commsched_bench::{
    AStarSearch, AgglomerativeClustering, GeneticSearch, GeneticSimulatedAnnealing, KernighanLin,
    RandomSampling, SimulatedAnnealing, SteepestDescent,
};
use commsched_core::similarity_fg;
use commsched_distance::{equivalent_distance_table, DistanceTable};
use commsched_routing::UpDownRouting;
use commsched_search::{ExhaustiveSearch, Mapper, TabuSearch};
use commsched_topology::{random_regular, RandomTopologyConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn table_for(seed: u64, n: usize) -> DistanceTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = random_regular(RandomTopologyConfig::paper(n), &mut rng).unwrap();
    let routing = UpDownRouting::new(&topo, 0).unwrap();
    equivalent_distance_table(&topo, &routing).unwrap()
}

fn all_mappers() -> Vec<Box<dyn Mapper>> {
    vec![
        Box::new(TabuSearch::default()),
        Box::new(SteepestDescent { seeds: 2 }),
        Box::new(SimulatedAnnealing::default()),
        Box::new(GeneticSearch::default()),
        Box::new(GeneticSimulatedAnnealing::default()),
        Box::new(RandomSampling { samples: 50 }),
        Box::new(AStarSearch::default()),
        Box::new(ExhaustiveSearch),
        Box::new(AgglomerativeClustering),
        Box::new(KernighanLin::default()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every mapper returns a partition with the requested sizes and an
    /// `fg` that matches the direct formula.
    #[test]
    fn mappers_return_valid_consistent_results(
        topo_seed in any::<u64>(),
        search_seed in any::<u64>(),
    ) {
        let table = table_for(topo_seed, 8);
        let sizes = vec![2usize, 2, 2, 2];
        for mapper in all_mappers() {
            let mut rng = StdRng::seed_from_u64(search_seed);
            let res = mapper.search(&table, &sizes, &mut rng);
            prop_assert_eq!(res.partition.sizes(), sizes.clone(), "{}", mapper.name());
            let direct = similarity_fg(&res.partition, &table);
            prop_assert!(
                (res.fg - direct).abs() < 1e-9,
                "{}: reported {} direct {}",
                mapper.name(),
                res.fg,
                direct
            );
        }
    }

    /// The two exact methods always agree, and no heuristic beats them.
    #[test]
    fn exact_methods_agree_and_lower_bound(topo_seed in any::<u64>()) {
        let table = table_for(topo_seed, 8);
        let sizes = vec![2usize, 2, 2, 2];
        let mut rng = StdRng::seed_from_u64(0);
        let exact = ExhaustiveSearch.search(&table, &sizes, &mut rng);
        let astar = AStarSearch::default().search(&table, &sizes, &mut rng);
        prop_assert!((exact.fg - astar.fg).abs() < 1e-9);
        for mapper in all_mappers() {
            let mut rng = StdRng::seed_from_u64(1);
            let res = mapper.search(&table, &sizes, &mut rng);
            prop_assert!(
                res.fg >= exact.fg - 1e-9,
                "{} reported {} below optimum {}",
                mapper.name(),
                res.fg,
                exact.fg
            );
        }
    }

    /// Unequal cluster sizes are honoured by every mapper.
    #[test]
    fn uneven_sizes_honoured(
        topo_seed in any::<u64>(),
        search_seed in any::<u64>(),
    ) {
        let table = table_for(topo_seed, 8);
        let sizes = vec![4usize, 3, 1];
        for mapper in all_mappers() {
            let mut rng = StdRng::seed_from_u64(search_seed);
            let res = mapper.search(&table, &sizes, &mut rng);
            prop_assert_eq!(res.partition.sizes(), sizes.clone(), "{}", mapper.name());
        }
    }
}

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The correlation coefficient lives in [-1, 1].
    #[test]
    fn pearson_bounded(
        xs in finite_vec(2..40),
        ys in finite_vec(2..40),
    ) {
        let n = xs.len().min(ys.len());
        if let Some(r) = pearson(&xs[..n], &ys[..n]) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {r}");
        }
    }

    /// Pearson is invariant under positive affine transforms and flips
    /// sign under negation.
    #[test]
    fn pearson_affine_invariance(
        xs in finite_vec(3..30),
        ys in finite_vec(3..30),
        a in 0.1f64..10.0,
        b in -100.0f64..100.0,
    ) {
        let n = xs.len().min(ys.len());
        let (xs, ys) = (&xs[..n], &ys[..n]);
        if let Some(r) = pearson(xs, ys) {
            let xs2: Vec<f64> = xs.iter().map(|x| a * x + b).collect();
            let r2 = pearson(&xs2, ys).unwrap();
            prop_assert!((r - r2).abs() < 1e-6);
            let xs3: Vec<f64> = xs.iter().map(|x| -x).collect();
            let r3 = pearson(&xs3, ys).unwrap();
            prop_assert!((r + r3).abs() < 1e-6);
        }
    }

    /// The mean lies between min and max; stddev is non-negative.
    #[test]
    fn mean_and_stddev_sanity(xs in finite_vec(1..50)) {
        let m = mean(&xs).unwrap();
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        prop_assert!(stddev(&xs).unwrap() >= 0.0);
    }
}
