//! Stall classification: why nothing moves once the watchdog has fired.

use super::{MsgId, Simulator, VcId};

/// Root cause a stalled virtual channel's wait chain resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallCause {
    /// No root found (yet) — left over at the fixpoint, it means the
    /// wait chain closes on itself: a routing deadlock.
    Unresolved,
    /// Transitively blocked on a PFC-paused buffer.
    Paused,
}

impl StallCause {
    /// Combine two blockers that must both clear: unresolved is sticky
    /// (a possible cycle is never explained away).
    fn join(self, other: StallCause) -> StallCause {
        match (self, other) {
            (StallCause::Paused, StallCause::Paused) => StallCause::Paused,
            _ => StallCause::Unresolved,
        }
    }
}

/// Where the flits were stuck when the progress watchdog fired,
/// classified by walking the wait-for chains: a flit blocked
/// (transitively) on a flow-control pause is a *flow-control stall*;
/// only wait cycles that resolve to no pause — each flit waiting on the
/// next around a cycle — are a true routing deadlock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallReport {
    /// Flits sitting in network buffers at the watchdog fire.
    pub stalled_flits: u64,
    /// Of those, flits blocked (transitively) on a PFC-paused buffer.
    pub paused_flits: u64,
    /// Whether any wait-for chain failed to resolve to a pause — the
    /// signature of a cyclic (routing) deadlock.
    pub routing_deadlock: bool,
}

impl Simulator<'_> {
    /// Classify why the network is stuck. Meaningful when the progress
    /// watchdog has fired (no flit moved for `deadlock_threshold` cycles
    /// with traffic in flight): at that point every buffered flit is
    /// genuinely blocked, and walking the wait-for chains to their roots
    /// separates flow-control stalls (a PFC pause storm) from true
    /// routing deadlock (a wait cycle with no root). [`Simulator::run`] calls this to fill the `stall_*` fields
    /// of [`crate::stats::SimStats`] and to set `deadlocked` only for routing
    /// deadlock; callers stepping [`Simulator::advance`] manually can
    /// call it whenever `advance` returns `true`.
    pub fn stall_report(&self) -> StallReport {
        let n = self.vcs.len();
        let mut cause = vec![StallCause::Unresolved; n];
        // Least fixed point: labels only ever move off `Unresolved`.
        loop {
            let mut changed = false;
            for id in 0..n {
                if cause[id] != StallCause::Unresolved || self.vcs[id].owner.is_none() {
                    continue;
                }
                let new = match self.vcs[id].buf {
                    Some(buf) => {
                        if let Some(f) = self.vcs[id].fwd {
                            // Blocked pushing into the next hop: an
                            // asserted pause is a root; a full-but-healthy
                            // buffer inherits its own blocker's cause.
                            if self.vcs[f].paused {
                                StallCause::Paused
                            } else {
                                cause[f]
                            }
                        } else if buf.lo == 0 {
                            // A header awaiting allocation: blocked on
                            // its candidate output channels.
                            self.header_block_cause(id, buf.msg, &cause)
                        } else {
                            StallCause::Unresolved
                        }
                    }
                    // Empty but owned: the owner's flits are stuck
                    // upstream; inherit the feeder's cause.
                    None => match self.vcs[id].feeder {
                        Some(fd) => cause[fd],
                        None => StallCause::Unresolved,
                    },
                };
                if new != StallCause::Unresolved {
                    cause[id] = new;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let mut report = StallReport::default();
        for (id, vc) in self.vcs.iter().enumerate() {
            let Some(buf) = vc.buf else { continue };
            let flits = u64::from(buf.hi - buf.lo);
            report.stalled_flits += flits;
            match cause[id] {
                StallCause::Paused => report.paused_flits += flits,
                // A buffered wait that resolves to no pause is a wait
                // cycle: flits waiting on flits waiting on themselves.
                StallCause::Unresolved => report.routing_deadlock = true,
            }
        }
        report
    }

    /// Why the header of `msg`, parked at input VC `ic`, cannot get an
    /// output: the join over the blockers of every candidate in every
    /// class of [`Simulator::candidate_classes`] — the very enumeration
    /// allocation walks. The header unblocks when any candidate frees,
    /// so one unresolved candidate keeps the header unresolved.
    fn header_block_cause(&self, ic: VcId, msg: MsgId, cause: &[StallCause]) -> StallCause {
        let Some(s) = self.phys[self.phys_of(ic)].kind.input_of() else {
            return StallCause::Unresolved;
        };
        let (m, entry) = (&self.messages[msg as usize], self.entry_at[ic]);
        let mut acc: Option<StallCause> = None;
        self.candidate_classes::<()>(s, m, entry, |_, candidates| {
            for c in candidates {
                let blocker = c
                    .vcs
                    .map(|vc| {
                        let out = self.vc_id(c.phys, vc);
                        // A free VC at a genuine stall cannot happen
                        // (allocation would have granted it); stay
                        // unresolved if it somehow does.
                        if self.vcs[out].owner.is_some() {
                            cause[out]
                        } else {
                            StallCause::Unresolved
                        }
                    })
                    .reduce(StallCause::join)
                    .unwrap_or(StallCause::Unresolved);
                acc = Some(acc.map_or(blocker, |a| a.join(blocker)));
            }
            None
        });
        acc.unwrap_or(StallCause::Unresolved)
    }
}

#[cfg(test)]
mod tests {
    use super::super::Simulator;
    use crate::config::SimConfig;
    use crate::traffic::TrafficPattern;
    use commsched_routing::{RouteState, Routing};
    use commsched_topology::{designed, SwitchId};

    /// A router that always forwards clockwise around a ring — its
    /// channel-dependency graph is the ring itself, a cycle, so wormhole
    /// traffic genuinely deadlocks. Used to prove the classifier still
    /// reports *true* routing deadlock.
    struct ClockwiseRouting {
        n: usize,
    }

    impl Routing for ClockwiseRouting {
        fn num_switches(&self) -> usize {
            self.n
        }

        fn route_distance(&self, src: SwitchId, dst: SwitchId) -> u32 {
            ((dst + self.n - src) % self.n) as u32
        }

        fn minimal_route_links(
            &self,
            _src: SwitchId,
            _dst: SwitchId,
        ) -> Vec<commsched_topology::LinkId> {
            Vec::new() // unused by the simulator
        }

        fn scan_row(&self, _src: SwitchId, _row: &mut commsched_routing::RouteRow) {}

        fn row_links(
            &self,
            _dst: SwitchId,
            _row: &mut commsched_routing::RouteRow,
            out: &mut Vec<commsched_topology::LinkId>,
        ) {
            out.clear() // unused by the simulator
        }

        fn next_hops(&self, state: RouteState, dst: SwitchId) -> Vec<RouteState> {
            if state.node == dst {
                return Vec::new();
            }
            vec![RouteState {
                node: (state.node + 1) % self.n,
                descended: false,
            }]
        }

        fn name(&self) -> &'static str {
            "clockwise"
        }
    }

    #[test]
    fn true_cyclic_deadlock_still_reported() {
        // Clockwise-only routing on a ring has a cyclic channel
        // dependency; at high load the four wormholes wait on each other
        // in a circle. That wait cycle has no pause, so it must surface
        // as `deadlocked == true`.
        let topo = designed::ring(4, 1);
        let routing = ClockwiseRouting { n: 4 };
        let pattern = TrafficPattern::new(vec![0; 4]);
        let cfg = SimConfig {
            injection_rate: 2.0,
            warmup_cycles: 0,
            measure_cycles: 30_000,
            deadlock_threshold: 500,
            seed: 62,
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, &routing, pattern, cfg).unwrap();
        let stats = sim.run();
        assert!(stats.deadlocked, "cyclic wormhole deadlock not detected");
        assert!(stats.stalled_flits > 0);
        let report = sim.stall_report();
        assert!(report.routing_deadlock);
        assert_eq!(report.paused_flits, 0);
    }
}
