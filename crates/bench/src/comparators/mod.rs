//! The mapping heuristics the paper compares its tabu search against
//! (§2, §4.2). They exist only for the ablation and optimality figures,
//! so they live here, next to their only callers, and not in the
//! serving crate `commsched-search`:
//!
//! * [`astar`] — A* tree search with an admissible completion bound (§2);
//! * [`clustering`] — classical agglomerative clustering, the baseline §3
//!   argues cannot work on the non-metric table;
//! * [`anneal`] — simulated annealing (§2);
//! * [`genetic`] — a genetic algorithm and genetic simulated annealing
//!   (§2);
//! * [`kernighan_lin`] — Kernighan–Lin pass-based refinement, the classic
//!   graph-partitioning comparator;
//! * [`descent`] — steepest descent and random sampling baselines.
//!
//! All of the above implement [`commsched_search::Mapper`]. [`compute`] is
//! the other half of §1's "ideal scheduler": the computation-aware
//! baselines the paper cites (OLB, UDA, min-min, max-min over an ETC
//! matrix) and the blended objective of the future-work experiments.

pub mod anneal;
pub mod astar;
pub mod clustering;
pub mod compute;
pub mod descent;
pub mod genetic;
pub mod kernighan_lin;

pub use anneal::{SimulatedAnnealing, SimulatedAnnealingParams};
pub use astar::AStarSearch;
pub use clustering::AgglomerativeClustering;
pub use descent::{RandomSampling, SteepestDescent};
pub use genetic::{GeneticParams, GeneticSearch, GeneticSimulatedAnnealing};
pub use kernighan_lin::KernighanLin;

/// Shared test fixtures for the comparator unit tests.
#[cfg(test)]
mod testutil {
    use commsched_core::Partition;
    use commsched_distance::{equivalent_distance_table, DistanceTable};
    use commsched_routing::{ShortestPathRouting, UpDownRouting};
    use commsched_topology::{designed, TopologyBuilder};

    /// Distance table of a "two obvious clusters" dumbbell: two 4-cycles
    /// joined by one link. Optimal 2×4 partition = the two squares.
    pub fn dumbbell_table() -> DistanceTable {
        let topo = TopologyBuilder::new(8, 1)
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
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        equivalent_distance_table(&topo, &routing).unwrap()
    }

    /// The optimal dumbbell grouping.
    pub fn dumbbell_truth() -> Partition {
        Partition::new(vec![0, 0, 0, 0, 1, 1, 1, 1], 2).unwrap()
    }
}
