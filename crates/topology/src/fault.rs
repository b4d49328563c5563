//! The fault model: link/switch events and topology epochs.
//!
//! Faults are identified by **endpoints**, never by `LinkId`: link ids
//! are renumbered compactly whenever a topology is rebuilt, so only the
//! `(a, b)` pair names a wire stably across epochs.

use crate::{LinkId, SwitchId, Topology};
use std::sync::Arc;

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
    /// identity is endpoint-based.
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
        // Which existing links survive, plus at most one new wire.
        let (keep, extra): (Box<dyn Fn(LinkId) -> bool + '_>, _) = match *event {
            FaultEvent::LinkDown { a, b } => {
                check(a)?;
                check(b)?;
                let failed = topo
                    .link_between(a, b)
                    .ok_or(FaultError::LinkMissing { a, b })?;
                (Box::new(move |l| l != failed), None)
            }
            FaultEvent::LinkUp { a, b, slowdown } => {
                check(a)?;
                check(b)?;
                if a == b || slowdown == 0 {
                    return Err(FaultError::BadSlowdown);
                }
                if topo.has_link(a, b) {
                    return Err(FaultError::LinkExists { a, b });
                }
                (Box::new(|_| true), Some((a.min(b), a.max(b), slowdown)))
            }
            FaultEvent::SwitchDown { switch } => {
                check(switch)?;
                if topo.degree(switch) == 0 {
                    return Err(FaultError::SwitchIsolated { switch });
                }
                (
                    Box::new(move |l| topo.link(l).other(switch).is_none()),
                    None,
                )
            }
        };
        let next = topo
            .rebuild(keep, extra)
            .allow_disconnected()
            .build()
            .map_err(|e| FaultError::Build(e.to_string()))?;
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
    use crate::designed;

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
        let capacitated = crate::TopologyBuilder::new(6, 1)
            .links((0..6).map(|i| (i, (i + 1) % 6)))
            .uniform_mem_capacity(4096)
            .build()
            .unwrap();
        for ring in [designed::ring(6, 1), capacitated] {
            let epoch0 = TopologyEpoch::initial(Arc::new(ring));
            let epoch1 = epoch0.apply(&FaultEvent::LinkDown { a: 2, b: 3 }).unwrap();
            // A fault rebuilds the network the way `without_link` does,
            // memory capacities included.
            let failed = epoch0.topology.link_between(2, 3).unwrap();
            let without = epoch0.topology.without_link(failed).unwrap();
            assert_eq!(epoch1.fingerprint, without.fingerprint());
            assert_eq!(
                epoch1.topology.mem_capacities(),
                epoch0.topology.mem_capacities()
            );
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
}
