//! High-level communication-aware scheduler: the end-to-end pipeline of the
//! paper in one object.
//!
//! [`Scheduler`] owns a topology, builds the routing and the table of
//! equivalent distances once, and then maps workloads: given a set of
//! logical clusters, it runs the tabu search to find a near-optimal network
//! partition and realizes it as a process-to-processor mapping.

use commsched_core::{quality, Partition, ProcessMapping, Quality, Workload, WorkloadError};
use commsched_distance::{equivalent_distance_table_with, DistanceTable, TableError, TableSpec};
use commsched_routing::{Routing, RoutingError};
use commsched_search::{
    map_partition, resolve_threads, MapPlan, MapStrategy, MultilevelParams, MultilevelStats,
    TabuParams,
};
use commsched_topology::Topology;

/// Which routing algorithm the scheduler models (default: up*/down*
/// rooted at switch 0, the paper's setting). The same enum the daemon's
/// job specs carry.
pub use commsched_routing::RoutingSpec as RoutingKind;

/// Scale knobs: which mapping strategy runs, and how far the multilevel
/// one coarsens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerOptions {
    /// Flat tabu (the paper's method) or the coarsen→map→refine
    /// multilevel pipeline for large instances.
    pub strategy: MapStrategy,
    /// Multilevel only: coarsen until the graph fits this many nodes.
    pub max_coarse_n: usize,
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        Self {
            strategy: MapStrategy::Flat,
            max_coarse_n: MultilevelParams::default().max_coarse_n,
        }
    }
}

/// Errors from scheduler construction or scheduling.
#[derive(Debug)]
pub enum ScheduleError {
    /// Router construction failed.
    Routing(RoutingError),
    /// Distance-table construction failed.
    Table(TableError),
    /// The workload does not fit the topology.
    Workload(WorkloadError),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Routing(e) => write!(f, "routing: {e}"),
            ScheduleError::Table(e) => write!(f, "distance table: {e}"),
            ScheduleError::Workload(e) => write!(f, "workload: {e}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<RoutingError> for ScheduleError {
    fn from(e: RoutingError) -> Self {
        ScheduleError::Routing(e)
    }
}

impl From<TableError> for ScheduleError {
    fn from(e: TableError) -> Self {
        ScheduleError::Table(e)
    }
}

impl From<WorkloadError> for ScheduleError {
    fn from(e: WorkloadError) -> Self {
        ScheduleError::Workload(e)
    }
}

/// Result of scheduling one workload.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// The network partition found by the search.
    pub partition: Partition,
    /// Its quality figures (`F_G`, `D_G`, `Cc`).
    pub quality: Quality,
    /// The realized process-to-processor mapping.
    pub mapping: ProcessMapping,
    /// RNG seed of the winning search restart.
    pub winning_seed: u64,
    /// Multilevel pipeline statistics (multilevel strategy only).
    pub ml: Option<MultilevelStats>,
}

/// The communication-aware scheduler.
pub struct Scheduler {
    topology: Topology,
    routing: Box<dyn Routing>,
    table: DistanceTable,
    options: SchedulerOptions,
    plan: MapPlan,
}

impl Scheduler {
    /// Build the scheduler: constructs the router and the exact table of
    /// equivalent distances for `topology`, flat tabu strategy.
    ///
    /// # Errors
    /// See [`ScheduleError`].
    pub fn new(topology: Topology, routing_kind: RoutingKind) -> Result<Self, ScheduleError> {
        Self::with_options(topology, routing_kind, SchedulerOptions::default())
    }

    /// Build the scheduler with explicit scale knobs: the mapping
    /// strategy and its coarsening limit.
    ///
    /// # Errors
    /// See [`ScheduleError`].
    pub fn with_options(
        topology: Topology,
        routing_kind: RoutingKind,
        options: SchedulerOptions,
    ) -> Result<Self, ScheduleError> {
        let routing = routing_kind.build(&topology)?;
        let threads = resolve_threads(0);
        let table = equivalent_distance_table_with(
            &topology,
            routing.as_ref(),
            TableSpec::Exact.options(threads),
        )?;
        let plan = MapPlan {
            strategy: options.strategy,
            tabu: TabuParams::scaled(topology.num_switches()),
            seeds: 10,
            threads,
            max_coarse_n: options.max_coarse_n,
        };
        Ok(Self {
            topology,
            routing,
            table,
            options,
            plan,
        })
    }

    /// Set the number of independent search restarts run in parallel.
    pub fn with_search_seeds(mut self, seeds: usize) -> Self {
        self.plan.seeds = seeds.max(1);
        self
    }

    /// The scheduled topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The routing model.
    pub fn routing(&self) -> &dyn Routing {
        self.routing.as_ref()
    }

    /// The table of equivalent distances.
    pub fn table(&self) -> &DistanceTable {
        &self.table
    }

    /// The scale knobs this scheduler was built with.
    pub fn options(&self) -> &SchedulerOptions {
        &self.options
    }

    /// Quality figures of an arbitrary partition under this scheduler's
    /// distance table.
    pub fn evaluate(&self, partition: &Partition) -> Quality {
        quality(partition, &self.table)
    }

    /// Schedule `workload`: find a near-optimal partition with the tabu
    /// search (multi-seeded, deterministic given `seed`) and place the
    /// processes.
    ///
    /// # Errors
    /// See [`ScheduleError`].
    pub fn schedule(
        &self,
        workload: &Workload,
        seed: u64,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        workload.validate(&self.topology)?;
        let sizes = workload.switch_demands(self.topology.hosts_per_switch());
        let (winning_seed, result, ml) = map_partition(&self.table, &sizes, seed, &self.plan);
        self.outcome(workload, result.partition, winning_seed, ml)
    }

    /// Realize `partition` as a process mapping and report its quality.
    fn outcome(
        &self,
        workload: &Workload,
        partition: Partition,
        winning_seed: u64,
        ml: Option<MultilevelStats>,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        let mapping = ProcessMapping::place(&self.topology, workload, &partition)?;
        Ok(ScheduleOutcome {
            quality: self.evaluate(&partition),
            partition,
            mapping,
            winning_seed,
            ml,
        })
    }

    /// The paper's baseline: place `workload` on a uniformly random
    /// partition (the `R_i` mappings of Figures 3 and 5).
    ///
    /// # Errors
    /// See [`ScheduleError`].
    pub fn random_mapping(
        &self,
        workload: &Workload,
        seed: u64,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        workload.validate(&self.topology)?;
        let sizes = workload.switch_demands(self.topology.hosts_per_switch());
        let mut rng = StdRng::seed_from_u64(seed);
        let partition = Partition::random(self.topology.num_switches(), &sizes, &mut rng)
            .expect("validated workload sizes");
        self.outcome(workload, partition, seed, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsched_topology::designed;

    #[test]
    fn schedules_the_designed_network() {
        let topo = designed::paper_24_switch();
        let sched = Scheduler::new(topo, RoutingKind::UpDown { root: 0 }).unwrap();
        let workload = Workload::balanced(sched.topology(), 4).unwrap();
        let outcome = sched.schedule(&workload, 1).unwrap();
        let truth = Partition::from_clusters(&designed::ring_of_rings_clusters(4, 6)).unwrap();
        assert!(outcome.partition.same_grouping(&truth));
        assert!(outcome.quality.cc > 1.0);
        // Mapping covers all 96 hosts.
        assert_eq!(outcome.mapping.num_hosts(), 96);
    }

    #[test]
    fn scheduled_beats_random() {
        let topo = designed::paper_24_switch();
        let sched = Scheduler::new(topo, RoutingKind::UpDown { root: 0 }).unwrap();
        let workload = Workload::balanced(sched.topology(), 4).unwrap();
        let op = sched.schedule(&workload, 1).unwrap();
        for seed in 0..5 {
            let r = sched.random_mapping(&workload, seed).unwrap();
            if r.partition.same_grouping(&op.partition) {
                continue;
            }
            assert!(op.quality.cc > r.quality.cc);
            assert!(op.quality.fg < r.quality.fg);
        }
    }

    #[test]
    fn shortest_path_variant_works() {
        let topo = designed::ring(8, 4);
        let sched = Scheduler::new(topo, RoutingKind::ShortestPath).unwrap();
        let workload = Workload::balanced(sched.topology(), 4).unwrap();
        let outcome = sched.schedule(&workload, 2).unwrap();
        // Ring of 8 into 4 clusters of 2: optimal clusters are adjacent
        // pairs; every cluster's two switches must be neighbours.
        for members in outcome.partition.clusters() {
            assert_eq!(members.len(), 2);
            assert!(sched.topology().has_link(members[0], members[1]));
        }
    }

    #[test]
    fn workload_mismatch_reported() {
        let topo = designed::ring(6, 4);
        let sched = Scheduler::new(topo, RoutingKind::default()).unwrap();
        let bad = Workload::balanced(&designed::ring(8, 4), 4).unwrap();
        assert!(matches!(
            sched.schedule(&bad, 0),
            Err(ScheduleError::Workload(_))
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let topo = designed::ring(8, 4);
        let sched = Scheduler::new(topo, RoutingKind::default()).unwrap();
        let workload = Workload::balanced(sched.topology(), 2).unwrap();
        let a = sched.schedule(&workload, 5).unwrap();
        let b = sched.schedule(&workload, 5).unwrap();
        assert_eq!(a.partition, b.partition);
        assert_eq!(a.winning_seed, b.winning_seed);
    }

    #[test]
    fn multilevel_strategy_schedules_the_dumbbell_sized_ring() {
        // Force real coarsening on a small instance (8 → 4 nodes) and
        // check the pipeline still finds the adjacent-pairs optimum.
        let topo = designed::ring(8, 4);
        let options = SchedulerOptions {
            strategy: MapStrategy::Multilevel,
            max_coarse_n: 4,
        };
        let sched = Scheduler::with_options(topo, RoutingKind::ShortestPath, options).unwrap();
        let workload = Workload::balanced(sched.topology(), 4).unwrap();
        let a = sched.schedule(&workload, 2).unwrap();
        let stats = a.ml.expect("multilevel stats present");
        assert_eq!(stats.levels, 1);
        assert_eq!(stats.coarse_n, 4);
        for members in a.partition.clusters() {
            assert!(sched.topology().has_link(members[0], members[1]));
        }
        // Deterministic given the seed.
        let b = sched.schedule(&workload, 2).unwrap();
        assert_eq!(a.partition, b.partition);
        assert_eq!(a.quality.fg.to_bits(), b.quality.fg.to_bits());
    }
}
