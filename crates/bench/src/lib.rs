#![warn(missing_docs)]

//! Shared harness for the figure-reproduction binaries and benches.
//!
//! Each binary `fig1`..`fig6` regenerates one figure of the paper's
//! evaluation (§5); `verify_optimality` reproduces the §4.2 claim that the
//! tabu minimum matches the exhaustive optimum on small networks, and
//! `ablations` sweeps the design choices the paper leaves open. This
//! library holds the experiment fixtures (the paper-scale networks), the
//! common measurement plumbing so binaries and criterion benches agree on
//! the setup, the [`comparators`] the tabu search is measured against, and
//! the [`stats`] the figures report.

pub mod comparators;
pub mod stats;

pub use comparators::{
    AStarSearch, AgglomerativeClustering, GeneticParams, GeneticSearch, GeneticSimulatedAnnealing,
    KernighanLin, RandomSampling, SimulatedAnnealing, SimulatedAnnealingParams, SteepestDescent,
};

use commsched_core::{quality, Partition, ProcessMapping, Quality, Workload};
use commsched_distance::{equivalent_distance_table_with, DistanceTable, TableOptions};
use commsched_netsim::{paper_sweep, sweep, LoadSweep, SimConfig, SweepConfig};
use commsched_routing::UpDownRouting;
use commsched_search::{TabuParams, TabuSearch, TabuTrace};
use commsched_topology::{designed, random_regular, RandomTopologyConfig, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed of the canonical 16-switch random topology used across
/// experiments. Fixed so every run regenerates identical networks.
pub const PAPER_16_SEED: u64 = 2000;

/// Seed stream base for the random mappings (`R1..R9`).
pub const RANDOM_MAPPING_SEED: u64 = 7_000;

/// Seed for the tabu searches.
pub const SEARCH_SEED: u64 = 42;

/// One experiment's network, routing and distance table.
pub struct Testbed {
    /// Human-readable network name.
    pub name: &'static str,
    /// The switch graph.
    pub topology: Topology,
    /// Up*/down* router (root 0, as in Autonet-style networks).
    pub routing: UpDownRouting,
    /// Table of equivalent distances.
    pub table: DistanceTable,
    /// Logical clusters: 4 equal applications.
    pub workload: Workload,
}

impl Testbed {
    fn build(name: &'static str, topology: Topology) -> Self {
        let routing = UpDownRouting::new(&topology, 0).expect("connected testbed network");
        let threads = std::thread::available_parallelism().map_or(4, usize::from);
        let options = TableOptions {
            threads,
            ..Default::default()
        };
        let table = equivalent_distance_table_with(&topology, &routing, options)
            .expect("routable testbed network");
        let workload = Workload::balanced(&topology, 4).expect("4 clusters fit the testbeds");
        Self {
            name,
            topology,
            routing,
            table,
            workload,
        }
    }

    /// The paper's random irregular 16-switch network (64 workstations,
    /// 3-regular, Figures 1–3 and 6).
    pub fn paper_16() -> Self {
        let mut rng = StdRng::seed_from_u64(PAPER_16_SEED);
        let topology = random_regular(RandomTopologyConfig::paper(16), &mut rng)
            .expect("16-switch 3-regular network exists");
        Self::build("random-16", topology)
    }

    /// The paper's specially designed 24-switch network (four rings of
    /// six, Figures 4 and 5).
    pub fn paper_24() -> Self {
        Self::build("designed-24", designed::paper_24_switch())
    }

    /// An extra random network for the §5.2 "other network examples"
    /// claim.
    pub fn extra_random(switches: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let topology = random_regular(RandomTopologyConfig::paper(switches), &mut rng)
            .expect("extra random network exists");
        Self::build("random-extra", topology)
    }

    /// Cluster sizes of the balanced 4-application workload.
    pub fn sizes(&self) -> Vec<usize> {
        self.workload
            .switch_demands(self.topology.hosts_per_switch())
    }

    /// Run the paper's tabu search (traced) and return the best partition.
    pub fn tabu_mapping(&self) -> (Partition, Quality, TabuTrace) {
        let params = TabuParams::scaled(self.topology.num_switches());
        let mut rng = StdRng::seed_from_u64(SEARCH_SEED);
        let (result, trace) =
            TabuSearch::new(params).search_traced(&self.table, &self.sizes(), &mut rng);
        let q = quality(&result.partition, &self.table);
        (result.partition, q, trace)
    }

    /// The i-th random mapping baseline.
    pub fn random_mapping(&self, i: u64) -> (Partition, Quality) {
        let mut rng = StdRng::seed_from_u64(RANDOM_MAPPING_SEED + i);
        let p = Partition::random(self.topology.num_switches(), &self.sizes(), &mut rng)
            .expect("balanced sizes fit");
        let q = quality(&p, &self.table);
        (p, q)
    }

    /// Per-host cluster labels for a partition (the simulator input).
    pub fn host_clusters(&self, partition: &Partition) -> Vec<usize> {
        ProcessMapping::place(&self.topology, &self.workload, partition)
            .expect("partition sizes match workload")
            .host_clusters()
            .to_vec()
    }

    /// Simulator defaults for this testbed.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            warmup_cycles: 2_000,
            measure_cycles: 8_000,
            seed: 0xBEEF,
            ..Default::default()
        }
    }

    /// S1..S9 offered-load grid anchored at `anchor`'s saturation point.
    pub fn shared_rates(&self, anchor: &Partition, points: usize) -> Vec<f64> {
        let clusters = self.host_clusters(anchor);
        let (_, sat) = paper_sweep(
            &self.topology,
            &self.routing,
            &clusters,
            self.sim_config(),
            SweepConfig {
                points: 1,
                ..Default::default()
            },
        )
        .expect("anchor sweep");
        commsched_netsim::sweep_rates(sat, points, 1.2)
    }

    /// Sweep one mapping over the given offered-load grid.
    pub fn sweep_mapping(&self, partition: &Partition, rates: &[f64]) -> LoadSweep {
        let clusters = self.host_clusters(partition);
        sweep(
            &self.topology,
            &self.routing,
            &clusters,
            self.sim_config(),
            rates,
            1,
        )
        .expect("sweep")
    }
}

/// Pretty-print one sweep as the rows of Figures 3/5: simulation point,
/// offered and accepted traffic (flits/switch/cycle), latency (cycles).
pub fn print_sweep(label: &str, cc: f64, sweep: &LoadSweep, hosts_per_switch: usize) {
    println!("mapping {label}  (Cc = {cc:.3})");
    println!("  point  offered(f/sw/cy)  accepted(f/sw/cy)  latency(cycles)");
    for (i, p) in sweep.points.iter().enumerate() {
        println!(
            "  S{:<5} {:>16.4} {:>18.4} {:>16}",
            i + 1,
            p.rate * hosts_per_switch as f64,
            p.stats.accepted_flits_per_switch_cycle,
            p.stats
                .network_latency()
                .map_or_else(|| "-".to_string(), |l| format!("{l:.1}")),
        );
    }
    println!(
        "  throughput = {:.4} flits/switch/cycle",
        sweep.throughput()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbeds_build() {
        let t16 = Testbed::paper_16();
        assert_eq!(t16.topology.num_switches(), 16);
        assert_eq!(t16.sizes(), vec![4, 4, 4, 4]);
        let t24 = Testbed::paper_24();
        assert_eq!(t24.topology.num_switches(), 24);
        assert_eq!(t24.sizes(), vec![6, 6, 6, 6]);
    }

    #[test]
    fn testbed_is_reproducible() {
        let a = Testbed::paper_16();
        let b = Testbed::paper_16();
        assert_eq!(a.topology.links(), b.topology.links());
        let (pa, qa, _) = a.tabu_mapping();
        let (pb, qb, _) = b.tabu_mapping();
        assert_eq!(pa, pb);
        assert_eq!(qa.cc, qb.cc);
    }

    #[test]
    fn tabu_beats_random_on_both_testbeds() {
        for testbed in [Testbed::paper_16(), Testbed::paper_24()] {
            let (op, q_op, _) = testbed.tabu_mapping();
            for i in 0..3 {
                let (rp, q_r) = testbed.random_mapping(i);
                if rp.same_grouping(&op) {
                    continue;
                }
                assert!(
                    q_op.cc > q_r.cc,
                    "{}: OP Cc {} <= random Cc {}",
                    testbed.name,
                    q_op.cc,
                    q_r.cc
                );
            }
        }
    }
}
