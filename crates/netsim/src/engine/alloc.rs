//! Allocation: which waiting header is served first, and which free
//! candidate output it takes.

use super::route::{Candidate, Class};
use super::{MsgId, PhysId, Simulator, VcId};
use crate::config::SelectionPolicy;
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
    /// output-VC allocation for buffered headers, rotating priority
    /// across each switch's inputs.
    pub(super) fn allocate(&mut self) {
        self.claim_injection_vcs();
        for s in 0..self.topo.num_switches() {
            let k = self.inputs[s].len();
            if k == 0 {
                continue;
            }
            let start = (self.cycle as usize) % k;
            for i in 0..k {
                let phys_in = self.inputs[s][(start + i) % k];
                for v in 0..self.vcs_per_phys {
                    let ic = self.vc_id(phys_in, v);
                    if self.vcs[ic].fwd.is_some() {
                        continue;
                    }
                    let Some(buf) = self.vcs[ic].buf else {
                        continue;
                    };
                    if buf.lo != 0 {
                        continue; // header has already moved on
                    }
                    self.route_header(s, ic, buf.msg);
                }
            }
        }
    }

    /// Try to allocate an output VC for the header of `msg` buffered at
    /// input VC `ic` of switch `s`: the first candidate class with a free
    /// live VC wins, and granting it commits what the class implies.
    fn route_header(&mut self, s: SwitchId, ic: VcId, msg: MsgId) {
        let m = self.messages[msg as usize];
        let granted = self.candidate_classes(s, &m, |class, candidates| {
            let (out, descended) = self.pick(candidates)?;
            Some((class, out, descended))
        });
        let Some((class, out, descended)) = granted else {
            return;
        };
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
        self.vcs[out].owner = Some(msg);
        self.vcs[out].feeder = Some(ic);
    }

    /// The output VC the selection policy takes among one class's
    /// candidates (with the phase bit it carries), `None` if every
    /// candidate is busy or dead.
    fn pick(&self, candidates: &mut dyn Iterator<Item = Candidate>) -> Option<(VcId, bool)> {
        let mut best: Option<(VcId, bool, u32)> = None;
        for c in candidates {
            let Some(out) = self.free_vc(c.phys, c.vcs) else {
                continue;
            };
            let occ = self.vcs[out].occupancy();
            match self.cfg.selection {
                SelectionPolicy::Deterministic => return Some((out, c.descended)),
                SelectionPolicy::Adaptive => {
                    if best.is_none_or(|(_, _, least)| occ < least) {
                        best = Some((out, c.descended, occ));
                    }
                }
            }
        }
        best.map(|(out, descended, _)| (out, descended))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_drains_conserved, updown};
    use super::super::{simulate, Simulator};
    use crate::config::{SelectionPolicy, SimConfig};
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
    fn deterministic_policy_also_works() {
        let topo = designed::ring(6, 2);
        let routing = updown(&topo);
        let clusters: Vec<usize> = (0..12).map(|h| h / 6).collect();
        let cfg = SimConfig {
            injection_rate: 0.2,
            warmup_cycles: 300,
            measure_cycles: 2_000,
            selection: SelectionPolicy::Deterministic,
            seed: 11,
            ..Default::default()
        };
        let stats = simulate(&topo, &routing, &clusters, cfg).unwrap();
        assert!(stats.delivered_messages > 0);
        assert!(!stats.deadlocked);
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
