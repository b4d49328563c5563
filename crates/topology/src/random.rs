//! Seeded random topology generation under the paper's constraints.
//!
//! §5.1 of the paper: networks are irregular and generated randomly, but
//! (i) exactly 4 workstations per switch, (ii) a single link between two
//! neighbouring switches, (iii) all switches identical 8-port devices —
//! 4 ports to hosts and 4 to other switches, of which **3 are wired** and
//! one is left open. That makes the switch graph a random *3-regular*
//! simple connected graph.
//!
//! [`random_regular`] implements the pairing (configuration) model with
//! rejection: each switch gets `degree` stubs, stubs are shuffled and paired;
//! samples containing self-loops, duplicate links, or a disconnected graph
//! are rejected and re-drawn. For the small degrees and sizes used here the
//! acceptance rate is high.

use crate::graph::{Topology, TopologyBuilder, TopologyError};
use rand::seq::SliceRandom;
use rand::Rng;

/// Configuration for the random generator.
#[derive(Debug, Clone, Copy)]
pub struct RandomTopologyConfig {
    /// Number of switches.
    pub switches: usize,
    /// Inter-switch links per switch (3 in the paper).
    pub degree: usize,
    /// Workstations per switch (4 in the paper).
    pub hosts_per_switch: usize,
    /// Rejection-sampling attempts before giving up.
    pub max_attempts: usize,
}

impl RandomTopologyConfig {
    /// The paper's configuration for `switches` switches: degree 3 and 4
    /// hosts per switch.
    pub fn paper(switches: usize) -> Self {
        Self {
            switches,
            degree: 3,
            hosts_per_switch: 4,
            max_attempts: 10_000,
        }
    }
}

/// Errors from the random generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RandomTopologyError {
    /// `switches * degree` must be even for a regular graph to exist.
    OddStubCount {
        /// Requested switch count.
        switches: usize,
        /// Requested degree.
        degree: usize,
    },
    /// The degree must be below the switch count (simple graph).
    DegreeTooLarge {
        /// Requested switch count.
        switches: usize,
        /// Requested degree.
        degree: usize,
    },
    /// No valid sample was found within `max_attempts`.
    AttemptsExhausted(usize),
    /// Internal validation failure (should not happen).
    Build(TopologyError),
}

impl std::fmt::Display for RandomTopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RandomTopologyError::OddStubCount { switches, degree } => write!(
                f,
                "no {degree}-regular graph on {switches} switches: odd stub count"
            ),
            RandomTopologyError::DegreeTooLarge { switches, degree } => {
                write!(f, "degree {degree} too large for {switches} switches")
            }
            RandomTopologyError::AttemptsExhausted(n) => {
                write!(f, "rejection sampling exhausted after {n} attempts")
            }
            RandomTopologyError::Build(e) => write!(f, "builder rejected sample: {e}"),
        }
    }
}

impl std::error::Error for RandomTopologyError {}

/// Draw one random connected `degree`-regular simple topology.
///
/// Deterministic given the `rng` state, so experiments are reproducible by
/// seeding the RNG.
///
/// # Errors
/// See [`RandomTopologyError`].
pub fn random_regular<R: Rng + ?Sized>(
    cfg: RandomTopologyConfig,
    rng: &mut R,
) -> Result<Topology, RandomTopologyError> {
    let n = cfg.switches;
    let d = cfg.degree;
    if n == 0 || d >= n {
        return Err(RandomTopologyError::DegreeTooLarge {
            switches: n,
            degree: d,
        });
    }
    if !(n * d).is_multiple_of(2) {
        return Err(RandomTopologyError::OddStubCount {
            switches: n,
            degree: d,
        });
    }
    let mut stubs: Vec<usize> = Vec::with_capacity(n * d);
    for _ in 0..cfg.max_attempts {
        stubs.clear();
        for s in 0..n {
            stubs.extend(std::iter::repeat_n(s, d));
        }
        stubs.shuffle(rng);
        if let Some(topo) = try_pairing(&stubs, n, cfg.hosts_per_switch, d)? {
            return Ok(topo);
        }
    }
    Err(RandomTopologyError::AttemptsExhausted(cfg.max_attempts))
}

/// Pair consecutive stubs; return `Ok(None)` when the sample must be
/// rejected (self-loop, duplicate link, or disconnected).
fn try_pairing(
    stubs: &[usize],
    n: usize,
    hosts_per_switch: usize,
    degree: usize,
) -> Result<Option<Topology>, RandomTopologyError> {
    let mut seen = std::collections::HashSet::with_capacity(stubs.len() / 2);
    let mut builder = TopologyBuilder::new(n, hosts_per_switch).max_degree(degree);
    for pair in stubs.chunks_exact(2) {
        let (u, v) = (pair[0], pair[1]);
        if u == v {
            return Ok(None);
        }
        let key = (u.min(v), u.max(v));
        if !seen.insert(key) {
            return Ok(None);
        }
        builder = builder.link(u, v);
    }
    match builder.build() {
        Ok(t) => Ok(Some(t)),
        Err(TopologyError::Disconnected) => Ok(None),
        Err(e) => Err(RandomTopologyError::Build(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_config_16_switches() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = random_regular(RandomTopologyConfig::paper(16), &mut rng).unwrap();
        assert_eq!(t.num_switches(), 16);
        assert_eq!(t.num_hosts(), 64);
        assert_eq!(t.num_links(), 16 * 3 / 2);
        assert!(t.is_connected());
        for s in 0..16 {
            assert_eq!(t.degree(s), 3, "switch {s} not 3-regular");
        }
    }

    #[test]
    fn paper_config_24_switches() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = random_regular(RandomTopologyConfig::paper(24), &mut rng).unwrap();
        assert_eq!(t.num_switches(), 24);
        assert!(t.is_connected());
        assert!((0..24).all(|s| t.degree(s) == 3));
    }

    #[test]
    fn deterministic_given_seed() {
        let draw = || {
            let mut rng = StdRng::seed_from_u64(123);
            random_regular(RandomTopologyConfig::paper(16), &mut rng).unwrap()
        };
        let (a, b) = (draw(), draw());
        assert_eq!(a.links(), b.links());
    }

    #[test]
    fn different_seeds_differ() {
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(2);
        let a = random_regular(RandomTopologyConfig::paper(16), &mut r1).unwrap();
        let b = random_regular(RandomTopologyConfig::paper(16), &mut r2).unwrap();
        assert_ne!(a.links(), b.links());
    }

    #[test]
    fn odd_stub_count_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = RandomTopologyConfig {
            switches: 5,
            degree: 3,
            hosts_per_switch: 4,
            max_attempts: 10,
        };
        assert_eq!(
            random_regular(cfg, &mut rng).unwrap_err(),
            RandomTopologyError::OddStubCount {
                switches: 5,
                degree: 3
            }
        );
    }

    #[test]
    fn degree_too_large_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = RandomTopologyConfig {
            switches: 4,
            degree: 4,
            hosts_per_switch: 4,
            max_attempts: 10,
        };
        assert!(matches!(
            random_regular(cfg, &mut rng),
            Err(RandomTopologyError::DegreeTooLarge { .. })
        ));
    }

    #[test]
    fn smallest_valid_regular() {
        // 4 switches, degree 3 => K4.
        let mut rng = StdRng::seed_from_u64(3);
        let t = random_regular(
            RandomTopologyConfig {
                switches: 4,
                degree: 3,
                hosts_per_switch: 1,
                max_attempts: 1000,
            },
            &mut rng,
        )
        .unwrap();
        assert_eq!(t.num_links(), 6);
        assert_eq!(t.diameter(), Some(1));
    }
}
