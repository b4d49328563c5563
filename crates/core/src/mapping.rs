//! Process-level view of a mapping.
//!
//! The paper's object of study is the mapping of *processes to processors*;
//! under its simplifying assumptions that collapses to a network partition.
//! This module keeps the process level explicit so the simulator can
//! generate per-workstation traffic and so the paper's divisibility
//! assumptions are checked rather than implied.

use crate::partition::{ClusterId, Partition, PartitionError};
use commsched_topology::{SwitchId, Topology};

/// One parallel application: a logical cluster of communicating processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicalCluster {
    /// Human-readable name (e.g. the owning user or application).
    pub name: String,
    /// Number of processes in the application.
    pub processes: usize,
}

impl LogicalCluster {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, processes: usize) -> Self {
        Self {
            name: name.into(),
            processes,
        }
    }
}

/// A set of applications to place on a machine.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Workload {
    /// The logical clusters, one per application.
    pub clusters: Vec<LogicalCluster>,
}

/// Errors raised when fitting a workload to a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// The workload has no clusters.
    Empty,
    /// A cluster has zero processes.
    EmptyCluster(usize),
    /// Process counts must sum to the number of workstations (one process
    /// per processor, §4).
    TotalMismatch {
        /// Total processes in the workload.
        processes: usize,
        /// Workstations in the topology.
        hosts: usize,
    },
    /// Each cluster must fill an integer number of switches (§4.1's
    /// divisibility assumption).
    NotSwitchAligned {
        /// The offending cluster index.
        cluster: usize,
        /// Its process count.
        processes: usize,
        /// Hosts per switch.
        hosts_per_switch: usize,
    },
    /// Partition construction failed (internal).
    Partition(PartitionError),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Empty => write!(f, "workload has no clusters"),
            WorkloadError::EmptyCluster(c) => write!(f, "cluster {c} has no processes"),
            WorkloadError::TotalMismatch { processes, hosts } => {
                write!(f, "{processes} processes for {hosts} workstations")
            }
            WorkloadError::NotSwitchAligned {
                cluster,
                processes,
                hosts_per_switch,
            } => write!(
                f,
                "cluster {cluster} has {processes} processes, not a multiple of {hosts_per_switch}"
            ),
            WorkloadError::Partition(e) => write!(f, "partition error: {e}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

impl Workload {
    /// A workload of `clusters` equal applications that exactly fills
    /// `topo` — the paper's experimental setup (4 clusters of N/4
    /// processes).
    ///
    /// # Errors
    /// See [`WorkloadError`].
    pub fn balanced(topo: &Topology, clusters: usize) -> Result<Self, WorkloadError> {
        if clusters == 0 {
            return Err(WorkloadError::Empty);
        }
        let hosts = topo.num_hosts();
        if !hosts.is_multiple_of(clusters) {
            return Err(WorkloadError::TotalMismatch {
                processes: hosts / clusters * clusters,
                hosts,
            });
        }
        let per = hosts / clusters;
        let wl = Self {
            clusters: (0..clusters)
                .map(|i| LogicalCluster::new(format!("app{i}"), per))
                .collect(),
        };
        wl.validate(topo)?;
        Ok(wl)
    }

    /// Check the paper's assumptions against `topo`.
    ///
    /// # Errors
    /// See [`WorkloadError`].
    pub fn validate(&self, topo: &Topology) -> Result<(), WorkloadError> {
        if self.clusters.is_empty() {
            return Err(WorkloadError::Empty);
        }
        let mut total = 0;
        let hps = topo.hosts_per_switch();
        for (i, c) in self.clusters.iter().enumerate() {
            if c.processes == 0 {
                return Err(WorkloadError::EmptyCluster(i));
            }
            if hps == 0 || c.processes % hps != 0 {
                return Err(WorkloadError::NotSwitchAligned {
                    cluster: i,
                    processes: c.processes,
                    hosts_per_switch: hps,
                });
            }
            total += c.processes;
        }
        if total != topo.num_hosts() {
            return Err(WorkloadError::TotalMismatch {
                processes: total,
                hosts: topo.num_hosts(),
            });
        }
        Ok(())
    }

    /// Switches each cluster needs: `processes / hosts_per_switch`.
    pub fn switch_demands(&self, hosts_per_switch: usize) -> Vec<usize> {
        self.clusters
            .iter()
            .map(|c| c.processes / hosts_per_switch)
            .collect()
    }
}

/// A concrete placement: for every workstation (host), the logical cluster
/// whose process runs there, plus the switch-level partition it induces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessMapping {
    hosts_per_switch: usize,
    /// `host_cluster[h]` = cluster of the process on workstation `h`;
    /// hosts of switch `s` are `s*hps .. (s+1)*hps`.
    host_cluster: Vec<ClusterId>,
    partition: Partition,
}

impl ProcessMapping {
    /// Realize `workload` on `topo` according to `partition` (one process
    /// per workstation; each switch's hosts all serve the switch's
    /// cluster).
    ///
    /// # Errors
    /// Workload must validate against the topology and its switch demands
    /// must match the partition's cluster sizes.
    pub fn place(
        topo: &Topology,
        workload: &Workload,
        partition: &Partition,
    ) -> Result<Self, WorkloadError> {
        workload.validate(topo)?;
        let demands = workload.switch_demands(topo.hosts_per_switch());
        let sizes = partition.sizes();
        if demands != sizes {
            return Err(WorkloadError::TotalMismatch {
                processes: demands.iter().sum::<usize>() * topo.hosts_per_switch(),
                hosts: sizes.iter().sum::<usize>() * topo.hosts_per_switch(),
            });
        }
        let hps = topo.hosts_per_switch();
        let mut host_cluster = Vec::with_capacity(topo.num_hosts());
        for s in 0..topo.num_switches() {
            host_cluster.extend(std::iter::repeat_n(partition.cluster_of(s), hps));
        }
        Ok(Self {
            hosts_per_switch: hps,
            host_cluster,
            partition: partition.clone(),
        })
    }

    /// Number of workstations.
    pub fn num_hosts(&self) -> usize {
        self.host_cluster.len()
    }

    /// Workstations per switch.
    pub fn hosts_per_switch(&self) -> usize {
        self.hosts_per_switch
    }

    /// Cluster of the process on workstation `h`.
    pub fn cluster_of_host(&self, h: usize) -> ClusterId {
        self.host_cluster[h]
    }

    /// The switch a workstation hangs off.
    pub fn switch_of_host(&self, h: usize) -> SwitchId {
        h / self.hosts_per_switch
    }

    /// Per-host cluster labels (the simulator's traffic pattern input).
    pub fn host_clusters(&self) -> &[ClusterId] {
        &self.host_cluster
    }

    /// The induced switch-level partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsched_topology::designed;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn balanced_workload_fits() {
        let t = designed::ring(8, 4); // 32 hosts
        let wl = Workload::balanced(&t, 4).unwrap();
        assert_eq!(wl.clusters.len(), 4);
        assert!(wl.clusters.iter().all(|c| c.processes == 8));
        assert_eq!(wl.switch_demands(4), vec![2, 2, 2, 2]);
    }

    #[test]
    fn balanced_rejects_indivisible() {
        let t = designed::ring(5, 4); // 20 hosts, 3 clusters
        assert!(Workload::balanced(&t, 3).is_err());
    }

    #[test]
    fn validate_checks_alignment() {
        let t = designed::ring(4, 4); // 16 hosts
        let wl = Workload {
            clusters: vec![LogicalCluster::new("a", 10), LogicalCluster::new("b", 6)],
        };
        assert!(matches!(
            wl.validate(&t).unwrap_err(),
            WorkloadError::NotSwitchAligned { cluster: 0, .. }
        ));
    }

    #[test]
    fn validate_checks_total() {
        let t = designed::ring(4, 4);
        let wl = Workload {
            clusters: vec![LogicalCluster::new("a", 8)],
        };
        assert_eq!(
            wl.validate(&t).unwrap_err(),
            WorkloadError::TotalMismatch {
                processes: 8,
                hosts: 16
            }
        );
    }

    #[test]
    fn validate_rejects_empty() {
        let t = designed::ring(4, 4);
        assert_eq!(
            Workload::default().validate(&t).unwrap_err(),
            WorkloadError::Empty
        );
        let wl = Workload {
            clusters: vec![LogicalCluster::new("a", 16), LogicalCluster::new("b", 0)],
        };
        assert_eq!(wl.validate(&t).unwrap_err(), WorkloadError::EmptyCluster(1));
    }

    #[test]
    fn place_assigns_hosts_by_switch() {
        let t = designed::ring(4, 4);
        let wl = Workload::balanced(&t, 2).unwrap();
        let p = Partition::new(vec![0, 0, 1, 1], 2).unwrap();
        let m = ProcessMapping::place(&t, &wl, &p).unwrap();
        assert_eq!(m.num_hosts(), 16);
        for h in 0..16 {
            let s = m.switch_of_host(h);
            assert_eq!(m.cluster_of_host(h), p.cluster_of(s));
        }
        assert_eq!(m.host_clusters(), [[0; 8], [1; 8]].concat());
    }

    #[test]
    fn place_rejects_mismatched_partition() {
        let t = designed::ring(4, 4);
        let wl = Workload {
            clusters: vec![LogicalCluster::new("a", 4), LogicalCluster::new("b", 12)],
        };
        // Partition sized 2+2 but workload demands 1+3.
        let p = Partition::new(vec![0, 0, 1, 1], 2).unwrap();
        assert!(ProcessMapping::place(&t, &wl, &p).is_err());
    }

    #[test]
    fn place_with_matching_uneven_sizes() {
        let t = designed::ring(4, 4);
        let wl = Workload {
            clusters: vec![LogicalCluster::new("a", 4), LogicalCluster::new("b", 12)],
        };
        let mut rng = StdRng::seed_from_u64(1);
        let p = Partition::random(4, &[1, 3], &mut rng).unwrap();
        let m = ProcessMapping::place(&t, &wl, &p).unwrap();
        let in_cluster = |c| m.host_clusters().iter().filter(|&&h| h == c).count();
        assert_eq!((in_cluster(0), in_cluster(1)), (4, 12));
    }
}
