#![warn(missing_docs)]

//! The mapping search of the serving path (§4.2).
//!
//! The mapping of processes to processors is NP-complete; the paper
//! minimizes the global similarity function `F_G` with a **tabu search**
//! variant ([`tabu::TabuSearch`]). This crate is what the `Scheduler`
//! facade and the daemon run — both through the one entry point
//! [`map_partition`]:
//!
//! * [`tabu`] — the paper's method: best-improving cross-cluster swap;
//!   at a local minimum take the least-worsening swap and forbid the
//!   inverse for `h` iterations; stop a seed when the same local minimum is
//!   reached three times or the iteration budget is spent; restart from
//!   multiple random seeds (10 in the paper);
//! * [`multilevel`] / [`coarsen`] — coarsen → map → refine, for networks
//!   too large for the flat search;
//! * [`parallel`] — a deterministic multi-threaded multi-seed driver;
//! * [`pool`] — the scoped work-stealing pool behind every parallel
//!   driver (tabu restarts, multi-seed runs, refinement scans),
//!   re-exported from `commsched-telemetry`, where the simulator's load
//!   sweeps share it;
//! * [`exhaustive`] — exact enumeration of balanced partitions (feasible up
//!   to 16 switches), the optimality oracle the tests compare against.
//!
//! The comparators the paper measures tabu against (A*, annealing,
//! genetic, Kernighan–Lin, clustering, descent) live in `commsched-bench`,
//! next to the figures that use them. All methods implement the
//! [`Mapper`] trait: given a distance table and cluster sizes, produce the
//! lowest-`F_G` partition they can find.

pub mod coarsen;
pub mod exhaustive;
pub mod multilevel;
pub mod parallel;
pub mod tabu;

pub use coarsen::{build_hierarchy, can_coarsen, coarsen_level, CoarseLevel, Hierarchy};
pub use commsched_telemetry::pool;
pub use exhaustive::{enumerate_partitions, ExhaustiveSearch};
pub use multilevel::{multilevel_map, MapStrategy, MultilevelParams, MultilevelStats};
pub use parallel::parallel_multi_seed;
pub use pool::{resolve_threads, run_indexed};
pub use tabu::{TabuParams, TabuSearch, TabuTrace, TraceEvent};

use commsched_core::Partition;
use commsched_distance::DistanceTable;
use rand::RngCore;

/// Result of one mapping search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Best partition found.
    pub partition: Partition,
    /// Its `F_G` value (the minimized target function).
    pub fg: f64,
    /// Work spent, in the method's own unit (cost proxy for the
    /// heuristic-comparison ablation): for the tabu search, candidate swaps
    /// scored — a cluster pair whose bests are still known is not rescanned,
    /// a dropped pair whose bound cannot beat the allowed best already
    /// known is not scanned, and a row of a scanned pair that cannot hold
    /// its best is skipped. A bound pass scores no candidate.
    pub evaluations: u64,
}

/// A mapping search method: minimize `F_G` over partitions of
/// `table.n()` switches with the given cluster sizes.
pub trait Mapper: Send + Sync {
    /// Method name for reports.
    fn name(&self) -> &'static str;

    /// Run the search. Deterministic given the `rng` state.
    ///
    /// # Panics
    /// Implementations may panic if `sizes` does not sum to `table.n()` or
    /// contains zeros; validate with [`check_sizes`] first when unsure.
    fn search(&self, table: &DistanceTable, sizes: &[usize], rng: &mut dyn RngCore)
        -> SearchResult;
}

/// Everything besides the table, the cluster sizes and the seed that
/// decides how a mapping is searched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapPlan {
    /// The paper's flat tabu search or the multilevel pipeline.
    pub strategy: MapStrategy,
    /// Flat only: parameters of each tabu run; `threads` is overridden
    /// by [`MapPlan::threads`].
    pub tabu: TabuParams,
    /// Flat only: independent tabu runs (RNG seeds `seed..seed + seeds`),
    /// one after another; the best one wins.
    pub seeds: usize,
    /// The search's thread budget (0 = one per available CPU), spent at
    /// one pool level: each flat run's restarts, or the multilevel coarse
    /// restarts and refinement scans. Results do not depend on it.
    pub threads: usize,
    /// Multilevel only: coarsen until the graph fits this many nodes.
    pub max_coarse_n: usize,
}

/// The one place a `(table, sizes, seed, plan)` becomes a partition: the
/// `Scheduler` facade and the daemon's job body both call this, so the
/// same request maps the same way through either. Returns the winning
/// RNG seed, the result, and the multilevel statistics when that
/// pipeline ran.
///
/// # Panics
/// Panics if `sizes` is not a valid cluster-size vector for `table.n()`
/// or `plan.seeds == 0` under the flat strategy.
pub fn map_partition(
    table: &DistanceTable,
    sizes: &[usize],
    seed: u64,
    plan: &MapPlan,
) -> (u64, SearchResult, Option<MultilevelStats>) {
    match plan.strategy {
        MapStrategy::Flat => {
            let mapper = TabuSearch::new(TabuParams {
                threads: plan.threads,
                ..plan.tabu.clone()
            });
            let (winning_seed, result) =
                parallel_multi_seed(&mapper, table, sizes, seed, plan.seeds, 1);
            (winning_seed, result, None)
        }
        MapStrategy::Multilevel => {
            let params = MultilevelParams {
                max_coarse_n: plan.max_coarse_n,
                threads: plan.threads,
                ..MultilevelParams::default()
            };
            let (result, stats) = multilevel_map(table, sizes, seed, &params);
            (seed, result, Some(stats))
        }
    }
}

/// Validate that `sizes` is a plausible cluster-size vector for `n`
/// switches. Returns `false` on empty sizes, zero entries, or wrong total.
pub fn check_sizes(n: usize, sizes: &[usize]) -> bool {
    !sizes.is_empty() && sizes.iter().all(|&s| s > 0) && sizes.iter().sum::<usize>() == n
}

/// Shared test helpers for the search implementations.
#[cfg(test)]
pub(crate) mod testutil {
    use commsched_distance::{equivalent_distance_table, DistanceTable};
    use commsched_routing::ShortestPathRouting;
    use commsched_topology::designed;

    /// Distance table of a "two obvious clusters" dumbbell: two 4-cycles
    /// joined by one link. Optimal 2×4 partition = the two squares.
    pub fn dumbbell_table() -> DistanceTable {
        let topo = commsched_topology::TopologyBuilder::new(8, 1)
            .links([
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
                (3, 4),
            ])
            .build()
            .unwrap();
        let routing = ShortestPathRouting::new(&topo).unwrap();
        equivalent_distance_table(&topo, &routing).unwrap()
    }

    /// Table for the paper's designed 24-switch network.
    pub fn rings_table() -> DistanceTable {
        let topo = designed::paper_24_switch();
        let routing = commsched_routing::UpDownRouting::new(&topo, 0).unwrap();
        equivalent_distance_table(&topo, &routing).unwrap()
    }

    /// `n` switches of degree three under up*/down* routing (the §5.1
    /// class; the network `tests/golden.rs` uses for the same `n`).
    pub fn random_table(n: usize) -> DistanceTable {
        use commsched_topology::{random_regular, RandomTopologyConfig};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9_000 + n as u64);
        let topo = random_regular(RandomTopologyConfig::paper(n), &mut rng).unwrap();
        let routing = commsched_routing::UpDownRouting::new(&topo, 0).unwrap();
        equivalent_distance_table(&topo, &routing).unwrap()
    }

    /// The optimal dumbbell grouping.
    pub fn dumbbell_truth() -> commsched_core::Partition {
        commsched_core::Partition::new(vec![0, 0, 0, 0, 1, 1, 1, 1], 2).unwrap()
    }
}

/// Debug builds only: the pool's start log is compiled out of release.
#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use crate::testutil::random_table;

    #[test]
    fn a_plan_spends_its_thread_budget_at_one_pool_level() {
        // 40 switches coarsen under `max_coarse_n = 16`, so the multilevel
        // plan runs refinement scans as well as coarse restarts.
        let table = random_table(40);
        for strategy in [MapStrategy::Flat, MapStrategy::Multilevel] {
            let plan = |threads| MapPlan {
                strategy,
                tabu: TabuParams::scaled(40),
                seeds: 3,
                threads,
                max_coarse_n: 16,
            };
            let (serial, starts) = pool::logged(|| map_partition(&table, &[8; 5], 7, &plan(1)));
            assert!(
                !starts.is_empty() && starts.iter().all(|s| s.width == 1),
                "{strategy} at one thread: {starts:?}"
            );
            let (wide, starts) = pool::logged(|| map_partition(&table, &[8; 5], 7, &plan(2)));
            assert!(
                starts.iter().all(|s| !s.on_worker) && starts.iter().any(|s| s.width == 2),
                "{strategy} at two threads: {starts:?}"
            );
            assert_eq!(serial, wide, "{strategy}");
        }
    }
}
