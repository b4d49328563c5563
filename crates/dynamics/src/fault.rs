//! The fault model: timed link/switch events and topology epochs.
//!
//! Faults are identified by **endpoints**, never by `LinkId`: link ids
//! are renumbered compactly whenever a topology is rebuilt, so only the
//! `(a, b)` pair names a wire stably across epochs.

use commsched_topology::{Topology, TopologyBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Switch index (re-exported convention of `commsched-topology`).
pub type SwitchId = commsched_topology::SwitchId;

/// One reconfiguration event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The link between `a` and `b` fails.
    LinkDown {
        /// One endpoint.
        a: SwitchId,
        /// The other endpoint.
        b: SwitchId,
    },
    /// A link between `a` and `b` comes (back) up with the given
    /// slowdown factor (1 = full speed).
    LinkUp {
        /// One endpoint.
        a: SwitchId,
        /// The other endpoint.
        b: SwitchId,
        /// Heterogeneity factor of the restored link.
        slowdown: u32,
    },
    /// A switch fails: every incident link goes down at once (the switch
    /// itself stays in the node set, isolated, so switch ids are stable).
    SwitchDown {
        /// The failing switch.
        switch: SwitchId,
    },
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultEvent::LinkDown { a, b } => write!(f, "link-down {a}:{b}"),
            FaultEvent::LinkUp { a, b, slowdown } => write!(f, "link-up {a}:{b}:{slowdown}"),
            FaultEvent::SwitchDown { switch } => write!(f, "switch-down {switch}"),
        }
    }
}

/// A fault event scheduled at a point in simulated time (cycles for the
/// network simulator, epochs for the service).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedFault {
    /// When the event fires.
    pub at: u64,
    /// What happens.
    pub event: FaultEvent,
}

/// A deterministic, seed-driven sequence of timed faults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSchedule {
    /// Events sorted by firing time.
    pub events: Vec<TimedFault>,
}

impl FaultSchedule {
    /// Draw `count` events over `[0, horizon)` for `topo`, deterministic
    /// in `seed`.
    ///
    /// The generator tracks the link population as it goes: a `LinkDown`
    /// always names a currently-present link, a `LinkUp` restores a
    /// previously failed one (with its original slowdown), and a
    /// `SwitchDown` targets a switch that still has links. Disconnecting
    /// the network is allowed — downstream layers report partitions, they
    /// do not assert on them.
    pub fn random(topo: &Topology, seed: u64, count: usize, horizon: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Live wires as canonical endpoint triples, plus the graveyard of
        // failed wires a LinkUp can resurrect.
        let mut up: Vec<(SwitchId, SwitchId, u32)> = topo
            .links()
            .iter()
            .enumerate()
            .map(|(l, link)| (link.a, link.b, topo.link_slowdown(l)))
            .collect();
        let mut down: Vec<(SwitchId, SwitchId, u32)> = Vec::new();
        let mut times: Vec<u64> = (0..count)
            .map(|_| rng.gen_range(0..horizon.max(1)))
            .collect();
        times.sort_unstable();
        let mut events = Vec::with_capacity(count);
        for at in times {
            let roll: f64 = rng.gen_range(0.0..1.0);
            let event = if roll < 0.25 && !down.is_empty() {
                let k = rng.gen_range(0..down.len());
                let (a, b, slowdown) = down.swap_remove(k);
                up.push((a, b, slowdown));
                FaultEvent::LinkUp { a, b, slowdown }
            } else if roll < 0.85 || up.len() <= 1 {
                if up.is_empty() {
                    continue;
                }
                let k = rng.gen_range(0..up.len());
                let (a, b, slowdown) = up.swap_remove(k);
                down.push((a, b, slowdown));
                FaultEvent::LinkDown { a, b }
            } else {
                let switches: Vec<SwitchId> = (0..topo.num_switches())
                    .filter(|&s| up.iter().any(|&(a, b, _)| a == s || b == s))
                    .collect();
                if switches.is_empty() {
                    continue;
                }
                let s = switches[rng.gen_range(0..switches.len())];
                let (lost, kept): (Vec<_>, Vec<_>) =
                    up.iter().partition(|&&(a, b, _)| a == s || b == s);
                up = kept;
                down.extend(lost);
                FaultEvent::SwitchDown { switch: s }
            };
            events.push(TimedFault { at, event });
        }
        Self { events }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Errors applying a fault event to an epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// `LinkDown` named a link that does not exist.
    LinkMissing {
        /// One endpoint.
        a: SwitchId,
        /// The other endpoint.
        b: SwitchId,
    },
    /// `LinkUp` named a link that is already present.
    LinkExists {
        /// One endpoint.
        a: SwitchId,
        /// The other endpoint.
        b: SwitchId,
    },
    /// An endpoint or switch index is outside the topology.
    SwitchOutOfRange {
        /// The offending index.
        switch: SwitchId,
        /// Number of switches.
        n: usize,
    },
    /// `SwitchDown` targeted a switch with no remaining links.
    SwitchIsolated {
        /// The already-isolated switch.
        switch: SwitchId,
    },
    /// `LinkUp` carried a zero slowdown (links must have slowdown ≥ 1).
    BadSlowdown,
    /// The rebuilt topology was rejected by the builder.
    Build(String),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::LinkMissing { a, b } => write!(f, "no link between {a} and {b}"),
            FaultError::LinkExists { a, b } => {
                write!(f, "link between {a} and {b} already present")
            }
            FaultError::SwitchOutOfRange { switch, n } => {
                write!(f, "switch {switch} out of range for {n} switches")
            }
            FaultError::SwitchIsolated { switch } => {
                write!(f, "switch {switch} has no links left to fail")
            }
            FaultError::BadSlowdown => write!(f, "link slowdown must be at least 1"),
            FaultError::Build(e) => write!(f, "rebuild failed: {e}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// One immutable state of the network in a fault sequence.
///
/// Epochs form a chain: [`TopologyEpoch::initial`] wraps the pre-fault
/// topology, [`TopologyEpoch::apply`] produces the successor. Each epoch
/// carries its topology's content fingerprint (the registry/cache key)
/// and its connectivity — a partitioned network is a *reported* state,
/// not a panic: `connected` goes false and `components` counts the
/// islands, and it is the consumer's decision what survives that.
#[derive(Debug, Clone)]
pub struct TopologyEpoch {
    /// Position in the epoch chain (0 = pre-fault).
    pub index: u64,
    /// The network in this epoch.
    pub topology: Arc<Topology>,
    /// Content fingerprint of `topology`.
    pub fingerprint: u64,
    /// Whether every switch can reach every other.
    pub connected: bool,
    /// Number of connected components (1 when `connected`).
    pub components: usize,
}

impl TopologyEpoch {
    /// Epoch 0: the network before any fault.
    pub fn initial(topology: Arc<Topology>) -> Self {
        let fingerprint = topology.fingerprint();
        let components = topology.components().len();
        Self {
            index: 0,
            connected: topology.is_connected(),
            components,
            fingerprint,
            topology,
        }
    }

    /// Apply one fault event, yielding the next epoch.
    ///
    /// The topology is rebuilt from scratch with disconnection allowed;
    /// link ids are renumbered compactly, which is why every cross-epoch
    /// identity in this crate is endpoint-based.
    ///
    /// # Errors
    /// See [`FaultError`]. The epoch itself is never left half-applied.
    pub fn apply(&self, event: &FaultEvent) -> Result<TopologyEpoch, FaultError> {
        let topo = &self.topology;
        let n = topo.num_switches();
        let check = |s: SwitchId| {
            if s >= n {
                Err(FaultError::SwitchOutOfRange { switch: s, n })
            } else {
                Ok(())
            }
        };
        // Which existing wires survive, plus at most one new wire.
        let mut extra: Option<(SwitchId, SwitchId, u32)> = None;
        let keep: Box<dyn Fn(SwitchId, SwitchId) -> bool> = match *event {
            FaultEvent::LinkDown { a, b } => {
                check(a)?;
                check(b)?;
                let (lo, hi) = (a.min(b), a.max(b));
                if !topo.has_link(lo, hi) {
                    return Err(FaultError::LinkMissing { a, b });
                }
                Box::new(move |u, v| (u, v) != (lo, hi))
            }
            FaultEvent::LinkUp { a, b, slowdown } => {
                check(a)?;
                check(b)?;
                if a == b || slowdown == 0 {
                    return Err(FaultError::BadSlowdown);
                }
                let (lo, hi) = (a.min(b), a.max(b));
                if topo.has_link(lo, hi) {
                    return Err(FaultError::LinkExists { a, b });
                }
                extra = Some((lo, hi, slowdown));
                Box::new(|_, _| true)
            }
            FaultEvent::SwitchDown { switch } => {
                check(switch)?;
                if topo.degree(switch) == 0 {
                    return Err(FaultError::SwitchIsolated { switch });
                }
                Box::new(move |u, v| u != switch && v != switch)
            }
        };
        let mut builder = TopologyBuilder::new(n, topo.hosts_per_switch()).allow_disconnected();
        // CORRECTNESS: the surviving links keep their relative id order
        // and a restored link goes after them. `repair_table` copies the
        // entries of pairs whose route wires survived, and a copy equals a
        // rebuild's bits only because those wires are solved in the same
        // order in both epochs.
        for (l, link) in topo.links().iter().enumerate() {
            if keep(link.a, link.b) {
                builder = builder.link_with_slowdown(link.a, link.b, topo.link_slowdown(l));
            }
        }
        if let Some((a, b, slowdown)) = extra {
            builder = builder.link_with_slowdown(a, b, slowdown);
        }
        let next = builder
            .build()
            .map_err(|e| FaultError::Build(e.to_string()))?;
        crate::metrics().faults.inc();
        Ok(TopologyEpoch {
            index: self.index + 1,
            fingerprint: next.fingerprint(),
            connected: next.is_connected(),
            components: next.components().len(),
            topology: Arc::new(next),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsched_topology::designed;

    #[test]
    fn link_down_changes_fingerprint_and_reports_connectivity() {
        let epoch0 = TopologyEpoch::initial(Arc::new(designed::ring(6, 1)));
        assert!(epoch0.connected);
        assert_eq!(epoch0.index, 0);
        // A ring survives one link loss...
        let epoch1 = epoch0.apply(&FaultEvent::LinkDown { a: 0, b: 1 }).unwrap();
        assert_eq!(epoch1.index, 1);
        assert!(epoch1.connected);
        assert_ne!(epoch1.fingerprint, epoch0.fingerprint);
        assert_eq!(epoch1.topology.num_links(), 5);
        // ...but not two on the same node: partition is reported, not a panic.
        let epoch2 = epoch1.apply(&FaultEvent::LinkDown { a: 1, b: 2 }).unwrap();
        assert!(!epoch2.connected);
        assert_eq!(epoch2.components, 2);
    }

    #[test]
    fn link_up_restores_the_original_fingerprint() {
        let epoch0 = TopologyEpoch::initial(Arc::new(designed::ring(6, 1)));
        let epoch1 = epoch0.apply(&FaultEvent::LinkDown { a: 2, b: 3 }).unwrap();
        let epoch2 = epoch1
            .apply(&FaultEvent::LinkUp {
                a: 2,
                b: 3,
                slowdown: 1,
            })
            .unwrap();
        // Fingerprints are content hashes: restoring the wire restores
        // the network identity.
        assert_eq!(epoch2.fingerprint, epoch0.fingerprint);
        assert_eq!(epoch2.index, 2);
    }

    #[test]
    fn switch_down_isolates_the_switch() {
        let epoch0 = TopologyEpoch::initial(Arc::new(designed::mesh(3, 3, 1)));
        let epoch1 = epoch0.apply(&FaultEvent::SwitchDown { switch: 4 }).unwrap();
        assert_eq!(epoch1.topology.degree(4), 0);
        assert!(!epoch1.connected);
        // The 8 remaining mesh nodes stay mutually connected.
        assert_eq!(epoch1.components, 2);
        // A second SwitchDown on the same switch has nothing to fail.
        assert_eq!(
            epoch1
                .apply(&FaultEvent::SwitchDown { switch: 4 })
                .unwrap_err(),
            FaultError::SwitchIsolated { switch: 4 }
        );
    }

    #[test]
    fn invalid_events_are_typed_errors() {
        let epoch = TopologyEpoch::initial(Arc::new(designed::ring(5, 1)));
        assert_eq!(
            epoch
                .apply(&FaultEvent::LinkDown { a: 0, b: 2 })
                .unwrap_err(),
            FaultError::LinkMissing { a: 0, b: 2 }
        );
        assert_eq!(
            epoch
                .apply(&FaultEvent::LinkDown { a: 0, b: 9 })
                .unwrap_err(),
            FaultError::SwitchOutOfRange { switch: 9, n: 5 }
        );
        assert_eq!(
            epoch
                .apply(&FaultEvent::LinkUp {
                    a: 0,
                    b: 1,
                    slowdown: 1
                })
                .unwrap_err(),
            FaultError::LinkExists { a: 0, b: 1 }
        );
        assert_eq!(
            epoch
                .apply(&FaultEvent::LinkUp {
                    a: 0,
                    b: 2,
                    slowdown: 0
                })
                .unwrap_err(),
            FaultError::BadSlowdown
        );
    }

    #[test]
    fn random_schedules_are_deterministic_and_applicable() {
        let topo = designed::paper_24_switch();
        let s1 = FaultSchedule::random(&topo, 7, 5, 1000);
        let s2 = FaultSchedule::random(&topo, 7, 5, 1000);
        assert_eq!(s1, s2, "same seed, same schedule");
        let s3 = FaultSchedule::random(&topo, 8, 5, 1000);
        assert_ne!(s1, s3, "different seed, different schedule");
        assert!(s1.len() <= 5);
        // Times are sorted and the whole schedule applies cleanly.
        let mut last = 0;
        let mut epoch = TopologyEpoch::initial(Arc::new(topo));
        for tf in &s1.events {
            assert!(tf.at >= last);
            last = tf.at;
            epoch = epoch.apply(&tf.event).unwrap();
        }
        assert_eq!(epoch.index, s1.len() as u64);
    }
}
