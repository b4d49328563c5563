//! Message generation: the paper's intracluster traffic pattern.
//!
//! Every workstation generates fixed-length messages with geometric
//! inter-arrival times (Bernoulli trials per cycle, the discrete analogue of
//! a Poisson source); the destination is drawn uniformly among the *other*
//! processes of the same logical cluster (§5.1). An optional intercluster
//! fraction generalizes the pattern for the future-work experiments.

use rand::Rng;

/// How a process picks the intracluster peer it sends to.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DestinationPolicy {
    /// Uniform among the other cluster members (the paper's pattern).
    #[default]
    Uniform,
    /// Each process sends to the next member of its cluster (cyclic) — a
    /// ring/stencil communication structure.
    RingNeighbor,
    /// With probability `fraction`, send to the cluster's first member
    /// (a master/hot server); otherwise uniform.
    Hotspot {
        /// Share of traffic aimed at the hotspot member.
        fraction: f64,
    },
}

/// The traffic pattern: which logical cluster each workstation's process
/// belongs to, plus the in-cluster destination policy.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficPattern {
    /// Cluster labels of the processes on each workstation (one entry per
    /// process; the paper's setting is exactly one).
    host_procs: Vec<Vec<usize>>,
    /// Hosts of each cluster, one entry per *process* (hosts with several
    /// processes of a cluster appear several times).
    members: Vec<Vec<usize>>,
    policy: DestinationPolicy,
}

impl TrafficPattern {
    /// Build from per-host cluster labels (as produced by
    /// `ProcessMapping::host_clusters`) with the paper's uniform policy.
    ///
    /// # Panics
    /// Panics on empty input.
    pub fn new(host_cluster: Vec<usize>) -> Self {
        Self::with_policy(host_cluster, DestinationPolicy::Uniform)
    }

    /// Build with an explicit destination policy.
    ///
    /// # Panics
    /// Panics on empty input or a hotspot fraction outside `[0, 1]`.
    pub fn with_policy(host_cluster: Vec<usize>, policy: DestinationPolicy) -> Self {
        Self::multi_process(host_cluster.into_iter().map(|c| vec![c]).collect(), policy)
    }

    /// Build a *multi-process* pattern: each workstation runs one or more
    /// processes, each belonging to a logical cluster (relaxes the paper's
    /// one-process-per-processor assumption, §6). Messages between two
    /// processes on the same workstation never enter the network and are
    /// not generated.
    ///
    /// # Panics
    /// Panics on empty input, a host without processes, or a bad hotspot
    /// fraction.
    pub fn multi_process(host_procs: Vec<Vec<usize>>, policy: DestinationPolicy) -> Self {
        assert!(!host_procs.is_empty(), "no hosts");
        assert!(
            host_procs.iter().all(|p| !p.is_empty()),
            "every host runs at least one process"
        );
        if let DestinationPolicy::Hotspot { fraction } = policy {
            assert!(
                (0.0..=1.0).contains(&fraction),
                "hotspot fraction in [0, 1]"
            );
        }
        let clusters = host_procs
            .iter()
            .flat_map(|p| p.iter())
            .max()
            .expect("non-empty")
            + 1;
        let mut members = vec![Vec::new(); clusters];
        for (h, procs) in host_procs.iter().enumerate() {
            for &c in procs {
                members[c].push(h);
            }
        }
        Self {
            host_procs,
            members,
            policy,
        }
    }

    /// Number of workstations.
    pub fn num_hosts(&self) -> usize {
        self.host_procs.len()
    }

    /// Cluster of a workstation's first process (its only one in the
    /// paper's setting).
    pub fn cluster_of(&self, host: usize) -> usize {
        self.host_procs[host][0]
    }

    /// Clusters of every process on a workstation.
    pub fn clusters_of(&self, host: usize) -> &[usize] {
        &self.host_procs[host]
    }

    /// Whether any of `host`'s processes has a peer on another
    /// workstation.
    pub fn has_peer(&self, host: usize) -> bool {
        self.host_procs[host]
            .iter()
            .any(|&c| self.members[c].iter().any(|&h| h != host))
    }

    /// Draw a destination for a message from `src`: with probability
    /// `intercluster_fraction` any other host, otherwise a uniformly random
    /// *other* member of the same cluster. Returns `None` when no valid
    /// destination exists.
    pub fn destination<R: Rng + ?Sized>(
        &self,
        src: usize,
        intercluster_fraction: f64,
        rng: &mut R,
    ) -> Option<usize> {
        let n = self.num_hosts();
        if intercluster_fraction > 0.0 && rng.gen::<f64>() < intercluster_fraction {
            if n < 2 {
                return None;
            }
            let mut dst = rng.gen_range(0..n - 1);
            if dst >= src {
                dst += 1;
            }
            return Some(dst);
        }
        // The sending process: uniform among the host's processes that
        // have an off-host peer.
        let procs = &self.host_procs[src];
        let eligible: Vec<usize> = procs
            .iter()
            .copied()
            .filter(|&c| self.members[c].iter().any(|&h| h != src))
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let cluster = eligible[rng.gen_range(0..eligible.len())];
        let peers = &self.members[cluster];
        match self.policy {
            DestinationPolicy::Uniform => Self::uniform_peer(peers, src, rng),
            DestinationPolicy::RingNeighbor => {
                // The next member after src's first occurrence whose host
                // differs (cyclic scan).
                let own_pos = peers
                    .iter()
                    .position(|&h| h == src)
                    .expect("src is a member");
                (1..peers.len())
                    .map(|k| peers[(own_pos + k) % peers.len()])
                    .find(|&h| h != src)
            }
            DestinationPolicy::Hotspot { fraction } => {
                let hot = peers[0];
                if src != hot && rng.gen::<f64>() < fraction {
                    Some(hot)
                } else {
                    Self::uniform_peer(peers, src, rng)
                }
            }
        }
    }

    /// Uniform among the entries of `peers` whose host differs from `src`.
    fn uniform_peer<R: Rng + ?Sized>(peers: &[usize], src: usize, rng: &mut R) -> Option<usize> {
        let off_host = peers.iter().filter(|&&h| h != src).count();
        if off_host == 0 {
            return None;
        }
        let mut idx = rng.gen_range(0..off_host);
        for &h in peers {
            if h != src {
                if idx == 0 {
                    return Some(h);
                }
                idx -= 1;
            }
        }
        unreachable!("counted off-host entries")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn members_grouped() {
        let p = TrafficPattern::new(vec![0, 1, 0, 1]);
        assert_eq!(p.num_hosts(), 4);
        assert_eq!(p.cluster_of(2), 0);
        assert!(p.has_peer(0));
    }

    #[test]
    fn destination_stays_in_cluster() {
        let p = TrafficPattern::new(vec![0, 1, 0, 1, 0, 1]);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let d = p.destination(0, 0.0, &mut rng).unwrap();
            assert_ne!(d, 0);
            assert_eq!(p.cluster_of(d), 0);
        }
    }

    #[test]
    fn destination_uniform_among_peers() {
        let p = TrafficPattern::new(vec![0, 0, 0, 0]);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0u32; 4];
        for _ in 0..3000 {
            counts[p.destination(1, 0.0, &mut rng).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        for &c in &[counts[0], counts[2], counts[3]] {
            assert!((800..1200).contains(&c), "skewed: {counts:?}");
        }
    }

    #[test]
    fn singleton_cluster_has_no_destination() {
        let p = TrafficPattern::new(vec![0, 1, 1]);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(p.destination(0, 0.0, &mut rng), None);
        assert!(!p.has_peer(0));
    }

    #[test]
    fn intercluster_fraction_crosses() {
        let p = TrafficPattern::new(vec![0, 0, 1, 1]);
        let mut rng = StdRng::seed_from_u64(4);
        let mut crossed = 0;
        for _ in 0..2000 {
            let d = p.destination(0, 0.5, &mut rng).unwrap();
            if p.cluster_of(d) != 0 {
                crossed += 1;
            }
        }
        // Half the draws are "any host" (2 of 3 of which cross): expect
        // about 1/3 crossing overall.
        assert!((500..850).contains(&crossed), "crossed = {crossed}");
    }

    #[test]
    fn full_intercluster_never_self() {
        let p = TrafficPattern::new(vec![0, 0, 1]);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let d = p.destination(2, 1.0, &mut rng).unwrap();
            assert_ne!(d, 2);
        }
    }

    #[test]
    fn ring_neighbor_is_deterministic_cycle() {
        let p =
            TrafficPattern::with_policy(vec![0, 0, 0, 1, 1, 1], DestinationPolicy::RingNeighbor);
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(p.destination(0, 0.0, &mut rng), Some(1));
        assert_eq!(p.destination(1, 0.0, &mut rng), Some(2));
        assert_eq!(p.destination(2, 0.0, &mut rng), Some(0)); // wraps
        assert_eq!(p.destination(5, 0.0, &mut rng), Some(3)); // second cluster
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let p = TrafficPattern::with_policy(
            vec![0, 0, 0, 0],
            DestinationPolicy::Hotspot { fraction: 0.8 },
        );
        let mut rng = StdRng::seed_from_u64(7);
        let mut to_hot = 0;
        for _ in 0..2000 {
            if p.destination(2, 0.0, &mut rng) == Some(0) {
                to_hot += 1;
            }
        }
        // 0.8 direct + 0.2 * (1/3 uniform) ≈ 0.867.
        assert!((1600..1950).contains(&to_hot), "to_hot = {to_hot}");
    }

    #[test]
    fn hotspot_host_itself_sends_uniform() {
        let p = TrafficPattern::with_policy(
            vec![0, 0, 0],
            DestinationPolicy::Hotspot { fraction: 1.0 },
        );
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..50 {
            let d = p.destination(0, 0.0, &mut rng).unwrap();
            assert_ne!(d, 0, "hotspot must not send to itself");
        }
    }

    #[test]
    fn multi_process_destinations_valid() {
        // 3 hosts, each running one process of app 0 and one of app 1.
        let p = TrafficPattern::multi_process(
            vec![vec![0, 1], vec![0, 1], vec![0, 1]],
            DestinationPolicy::Uniform,
        );
        let mut rng = StdRng::seed_from_u64(40);
        for _ in 0..300 {
            let d = p.destination(1, 0.0, &mut rng).unwrap();
            assert_ne!(d, 1, "never the own host");
            assert!(d < 3);
        }
        assert!(p.has_peer(0));
        assert_eq!(p.clusters_of(0), &[0, 1]);
    }

    #[test]
    fn multi_process_same_host_only_cluster_is_silent() {
        // App 1 lives entirely on host 0 (two processes): its messages
        // never enter the network; app 0 still communicates.
        let p =
            TrafficPattern::multi_process(vec![vec![0, 1, 1], vec![0]], DestinationPolicy::Uniform);
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..300 {
            // Host 0's eligible sender is only the app-0 process.
            assert_eq!(p.destination(0, 0.0, &mut rng), Some(1));
        }
        // A host whose only clusters are host-local has no destination.
        let q =
            TrafficPattern::multi_process(vec![vec![0, 0], vec![1, 1]], DestinationPolicy::Uniform);
        assert!(!q.has_peer(0));
        assert_eq!(q.destination(0, 0.0, &mut rng), None);
    }

    #[test]
    fn multi_process_weights_hosts_by_process_count() {
        // Cluster 0: host 1 runs two processes, host 2 runs one — host 1
        // should receive about twice the traffic from host 0.
        let p = TrafficPattern::multi_process(
            vec![vec![0], vec![0, 0], vec![0]],
            DestinationPolicy::Uniform,
        );
        let mut rng = StdRng::seed_from_u64(42);
        let mut to1 = 0;
        let mut to2 = 0;
        for _ in 0..3000 {
            match p.destination(0, 0.0, &mut rng) {
                Some(1) => to1 += 1,
                Some(2) => to2 += 1,
                other => panic!("unexpected destination {other:?}"),
            }
        }
        let ratio = f64::from(to1) / f64::from(to2);
        assert!((1.6..2.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn multi_process_empty_host_panics() {
        let _ = TrafficPattern::multi_process(vec![vec![0], vec![]], DestinationPolicy::Uniform);
    }

    #[test]
    #[should_panic(expected = "fraction in [0, 1]")]
    fn bad_hotspot_fraction_panics() {
        let _ =
            TrafficPattern::with_policy(vec![0, 0], DestinationPolicy::Hotspot { fraction: 1.5 });
    }
}
