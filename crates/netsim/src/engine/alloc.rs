//! Allocation: which waiting header is served first, and which free
//! candidate output it takes.

use super::route::Class;
use super::{PhysId, Simulator, VcId};
use commsched_topology::SwitchId;
use std::ops::Range;

impl Simulator<'_> {
    /// First free VC of `out_phys` among indices `vcs`; `None` if all
    /// busy or the channel is dead.
    pub(super) fn free_vc(&self, out_phys: PhysId, vcs: Range<usize>) -> Option<VcId> {
        if self.phys[out_phys].dead {
            return None;
        }
        vcs.map(|v| self.vc_id(out_phys, v))
            .find(|&id| self.vcs[id].owner.is_none())
    }

    /// Phase 2: injection-VC claiming by source-queue heads, then
    /// output-VC allocation for the buffered headers of every woken
    /// switch.
    pub(super) fn allocate(&mut self) {
        self.claim_injection_vcs();
        // CORRECTNESS: a skipped switch visit grants nothing. What
        // `free_vc` answers for a header waiting at `s` changes only when
        // a VC of an output channel of `s` is released or a link at `s`
        // is killed or restored, and a header's candidate set only when
        // it is granted; each of those, and a header's arrival, sets
        // `woken[s]` (one flag read per switch is all a quiet cycle costs).
        // A pause or a slow link's duty cycle never enters `free_vc`.
        for s in 0..self.visits.woken.len() {
            if std::mem::take(&mut self.visits.woken[s]) {
                self.serve_headers(s);
            }
        }
    }

    /// Try every header waiting at switch `s`, rotating priority across
    /// the switch's inputs by cycle, then by VC index.
    fn serve_headers(&mut self, s: SwitchId) {
        if self.visits.waiting[s].is_empty() {
            return;
        }
        let mut waiting = std::mem::take(&mut self.visits.waiting[s]);
        #[cfg(test)]
        {
            self.work.switch_visits += 1;
            self.work.headers_tried += waiting.len() as u64;
        }
        let inputs = &self.inputs[s];
        let first = self.vc_id(inputs[self.cycle as usize % inputs.len()], 0);
        let split = waiting.partition_point(|&ic| ic < first);
        for i in (split..waiting.len()).chain(0..split) {
            self.route_header(s, waiting[i]);
        }
        waiting.retain(|&ic| self.vcs[ic].fwd.is_none());
        self.visits.waiting[s] = waiting;
    }

    /// The output the header buffered at input VC `ic` of switch `s`
    /// would be granted now (with its class and the phase bit it
    /// carries): the first candidate, of the first class, with a free VC
    /// on a live channel. A VC is released in the move that empties its
    /// buffer, so free candidates do not differ in occupancy and there is
    /// nothing further to choose by.
    pub(super) fn grantable(&self, s: SwitchId, ic: VcId) -> Option<(Class, VcId, bool)> {
        let msg = self.vcs[ic].buf.expect("a waiting header is buffered").msg;
        let m = &self.messages[msg as usize];
        let entry = self.entry_at[ic];
        self.candidate_classes(s, m, entry, |class, candidates| {
            for c in candidates {
                if let Some(out) = self.free_vc(c.phys, c.vcs) {
                    return Some((class, out, c.descended));
                }
            }
            None
        })
    }

    /// Try to allocate an output VC for the header buffered at input VC
    /// `ic` of switch `s`; granting commits what the class implies.
    fn route_header(&mut self, s: SwitchId, ic: VcId) {
        let Some((class, out, descended)) = self.grantable(s, ic) else {
            return;
        };
        let msg = self.vcs[ic].buf.expect("a waiting header is buffered").msg;
        let m = &mut self.messages[msg as usize];
        m.descended = descended;
        match class {
            Class::Deliver | Class::Adaptive => {}
            // Under the Duato protocol the supplied router's hops are the
            // escape network, and taking one is final.
            Class::Minimal => m.escape |= self.adaptive.is_some(),
            Class::Misroute => {
                m.misroutes += 1;
                self.totals.misroutes += 1;
            }
        }
        self.vcs[ic].fwd = Some(out);
        self.claim(out, msg);
        self.vcs[out].feeder = Some(ic);
        self.granted(ic);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_drains_conserved, updown};
    use super::super::{simulate, Simulator};
    use crate::config::SimConfig;
    use crate::traffic::TrafficPattern;
    use commsched_topology::designed;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn conservation_with_virtual_channels() {
        let topo = designed::ring(4, 2);
        let routing = updown(&topo);
        let clusters = vec![0, 0, 0, 0, 1, 1, 1, 1];
        for (vcs, adaptive) in [(2, false), (3, true), (2, true)] {
            let pattern = TrafficPattern::new(clusters.clone());
            let cfg = SimConfig {
                injection_rate: 0.4,
                warmup_cycles: 0,
                measure_cycles: 2_000,
                seed: 8,
                virtual_channels: vcs,
                fully_adaptive: adaptive,
                ..Default::default()
            };
            let mut sim = Simulator::new(&topo, &routing, pattern, cfg).unwrap();
            sim.advance(2_000);
            assert_drains_conserved(&mut sim, 8_000, &format!("vcs={vcs} adaptive={adaptive}"));
        }
    }

    #[test]
    fn adaptive_routing_does_not_deadlock_under_pressure() {
        // Heavy load on the 24-switch network with the full Duato
        // protocol: adaptive VCs + up*/down* escape.
        let topo = designed::paper_24_switch();
        let routing = updown(&topo);
        let clusters: Vec<usize> = (0..96).map(|h| (h / 4) / 6).collect();
        let cfg = SimConfig {
            injection_rate: 1.0,
            warmup_cycles: 1_000,
            measure_cycles: 4_000,
            seed: 10,
            virtual_channels: 3,
            fully_adaptive: true,
            ..Default::default()
        };
        let stats = simulate(&topo, &routing, &clusters, cfg).unwrap();
        assert!(!stats.deadlocked);
        assert!(stats.delivered_messages > 0);
    }

    #[test]
    fn adaptive_improves_random_mapping_throughput() {
        // A random (bad) mapping forces long detours; adaptive minimal
        // routing should accept at least as much traffic as escape-only.
        use rand::seq::SliceRandom;
        let topo = designed::paper_24_switch();
        let routing = updown(&topo);
        let mut hosts: Vec<usize> = (0..96).map(|h| (h / 4) / 6).collect();
        let mut rng = StdRng::seed_from_u64(4);
        // Scramble switch assignment (keep 4 hosts per switch together).
        let mut switch_clusters: Vec<usize> = (0..24).map(|s| s / 6).collect();
        switch_clusters.shuffle(&mut rng);
        for h in 0..96 {
            hosts[h] = switch_clusters[h / 4];
        }
        let base = SimConfig {
            injection_rate: 0.5,
            warmup_cycles: 1_000,
            measure_cycles: 4_000,
            seed: 11,
            ..Default::default()
        };
        let escape = simulate(&topo, &routing, &hosts, base).unwrap();
        let adaptive = simulate(
            &topo,
            &routing,
            &hosts,
            SimConfig {
                virtual_channels: 3,
                fully_adaptive: true,
                ..base
            },
        )
        .unwrap();
        assert!(!escape.deadlocked && !adaptive.deadlocked);
        assert!(
            adaptive.accepted_flits_per_switch_cycle
                >= 0.95 * escape.accepted_flits_per_switch_cycle,
            "adaptive {} vs escape {}",
            adaptive.accepted_flits_per_switch_cycle,
            escape.accepted_flits_per_switch_cycle
        );
    }

    #[test]
    fn misrouting_takes_detours_and_stays_deadlock_free() {
        // Up*/down* on a ring funnels traffic over the root; blocked
        // headers with the misroute option take legal detours instead
        // of waiting. The run must record misroutes, stay deadlock-free
        // and conserve flits.
        let topo = designed::ring(6, 2);
        let routing = updown(&topo);
        let clusters = vec![0; 12];
        let cfg = SimConfig {
            injection_rate: 0.8,
            warmup_cycles: 0,
            measure_cycles: 4_000,
            adaptive_misroute: true,
            seed: 66,
            ..Default::default()
        };
        let pattern = TrafficPattern::new(clusters.clone());
        let mut sim = Simulator::new(&topo, &routing, pattern, cfg).unwrap();
        let stats = sim.run();
        assert!(stats.misroutes > 0, "pressure must trigger detours");
        assert!(!stats.deadlocked);
        assert_drains_conserved(&mut sim, 30_000, "misrouting");
        // The budget binds: no message may exceed max_misroutes hops.
        assert!(sim
            .messages
            .iter()
            .all(|m| m.misroutes <= cfg.max_misroutes));
    }
}
