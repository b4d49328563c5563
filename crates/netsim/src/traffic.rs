//! Message generation: the paper's intracluster traffic pattern.
//!
//! Every workstation generates fixed-length messages with geometric
//! inter-arrival times (Bernoulli trials per cycle, the discrete analogue of
//! a Poisson source); the destination is drawn uniformly among the *other*
//! workstations of the same logical cluster (§5.1).

use rand::{Rng, RngCore};

/// The traffic pattern: which logical cluster each workstation's one
/// process belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficPattern {
    /// Cluster label of each workstation.
    host_cluster: Vec<usize>,
    /// Hosts of each cluster, in ascending order.
    members: Vec<Vec<usize>>,
}

impl TrafficPattern {
    /// Build from per-host cluster labels (as produced by
    /// `ProcessMapping::host_clusters`).
    ///
    /// # Panics
    /// Panics on empty input.
    pub fn new(host_cluster: Vec<usize>) -> Self {
        let clusters = host_cluster.iter().max().expect("no hosts") + 1;
        let mut members = vec![Vec::new(); clusters];
        for (h, &c) in host_cluster.iter().enumerate() {
            members[c].push(h);
        }
        Self {
            host_cluster,
            members,
        }
    }

    /// Number of workstations.
    pub fn num_hosts(&self) -> usize {
        self.host_cluster.len()
    }

    /// Whether `host`'s cluster has another workstation.
    pub fn has_peer(&self, host: usize) -> bool {
        self.members[self.host_cluster[host]].len() > 1
    }

    /// Draw a destination for a message from `src`: a uniformly random
    /// *other* member of its cluster, or `None` (drawing nothing) when
    /// the cluster has no other member.
    pub fn destination<R: RngCore + ?Sized>(&self, src: usize, rng: &mut R) -> Option<usize> {
        let peers = &self.members[self.host_cluster[src]];
        if peers.len() < 2 {
            return None;
        }
        // CORRECTNESS: one draw the pattern no longer needs. It chose
        // "the sending process" among a host's processes when a host
        // could run several; every golden digest and the benchmark's
        // pinned sweeps hash the stream with it in, so it stays until
        // those are re-recorded on purpose.
        rng.next_u64();
        let own = peers.binary_search(&src).expect("src is a member");
        let idx = rng.gen_range(0..peers.len() - 1);
        Some(peers[idx + usize::from(idx >= own)])
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
        assert_eq!(p.members, [vec![0, 2], vec![1, 3]]);
        assert!(p.has_peer(0));
    }

    #[test]
    fn destination_stays_in_cluster() {
        let p = TrafficPattern::new(vec![0, 1, 0, 1, 0, 1]);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let d = p.destination(0, &mut rng).unwrap();
            assert_ne!(d, 0);
            assert_eq!(d % 2, 0, "host {d} is in the other cluster");
        }
    }

    #[test]
    fn destination_uniform_among_peers() {
        let p = TrafficPattern::new(vec![0, 0, 0, 0]);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0u32; 4];
        for _ in 0..3000 {
            counts[p.destination(1, &mut rng).unwrap()] += 1;
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
        assert_eq!(p.destination(0, &mut rng), None);
        assert!(!p.has_peer(0));
    }

    /// An RNG that counts the words it hands out.
    struct Counted {
        inner: StdRng,
        words: u64,
    }

    impl RngCore for Counted {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.inner.next_u64()
        }
    }

    #[test]
    fn a_message_draws_two_words_and_a_lone_host_none() {
        let p = TrafficPattern::new(vec![0, 1, 0, 0, 2, 0]);
        let mut rng = Counted {
            inner: StdRng::seed_from_u64(9),
            words: 0,
        };
        for src in [0, 2, 3, 5] {
            for k in 1..=50 {
                let before = rng.words;
                p.destination(src, &mut rng).unwrap();
                assert_eq!(rng.words - before, 2, "host {src}, message {k}");
            }
        }
        let before = rng.words;
        assert_eq!(p.destination(1, &mut rng), None);
        assert_eq!(p.destination(4, &mut rng), None);
        assert_eq!(rng.words, before, "a singleton cluster drew");
    }
}
