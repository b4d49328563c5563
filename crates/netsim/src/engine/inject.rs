//! Generation and injection: when a workstation creates a message, and
//! when its source queue may claim an injection VC.

use super::{Message, MsgId, Simulator};
use rand::Rng;

impl Simulator<'_> {
    /// Set the offered load and, with it, who draws in `generate`: the
    /// hosts with somebody to send to and a positive probability. Both
    /// are functions of the pattern and the rate, not of the cycle.
    pub(super) fn set_injection_rate(&mut self, rate: f64) {
        self.cfg.injection_rate = rate;
        self.draw_p = (rate / self.cfg.msg_len as f64).min(1.0);
        let anywhere = self.cfg.intercluster_fraction != 0.0;
        self.sources = if self.draw_p > 0.0 {
            (0..self.pattern.num_hosts())
                .filter(|&host| anywhere || self.pattern.has_peer(host))
                .collect()
        } else {
            Vec::new()
        };
    }

    /// Phase 1: Bernoulli message generation — one draw per source per
    /// cycle, in host order (the RNG stream fixes both).
    pub(super) fn generate(&mut self) {
        let p = self.draw_p;
        for i in 0..self.sources.len() {
            let host = self.sources[i];
            if self.rng.gen::<f64>() >= p {
                continue;
            }
            let Some(dst) =
                self.pattern
                    .destination(host, self.cfg.intercluster_fraction, &mut self.rng)
            else {
                continue;
            };
            let id = self.messages.len() as MsgId;
            self.messages.push(Message::new(host, dst, self.cycle));
            if self.queues[host].is_empty() {
                self.visits.awaiting_vc.push(host);
            }
            self.queues[host].push_back(id);
            self.visits.queued += 1;
            self.visits.grown.push(host);
            self.totals.generated += 1;
        }
    }

    /// Phase 2, first half: source queues claim an injection VC for
    /// their head message — unless the source's congestion window is
    /// exhausted. Only a host with a head message and no VC can.
    pub(super) fn claim_injection_vcs(&mut self) {
        let mut awaiting = std::mem::take(&mut self.visits.awaiting_vc);
        awaiting.retain(|&host| !self.claim_injection_vc(host));
        self.visits.awaiting_vc = awaiting;
    }

    /// Whether `host`'s head message got an injection VC.
    fn claim_injection_vc(&mut self, host: usize) -> bool {
        if self.windowed && self.in_flight_msgs[host] >= self.controllers[host].window() {
            return false;
        }
        let msg = *self.queues[host].front().expect("awaits a VC for its head");
        let Some(vc) = self.free_vc(self.inject_base + host, 0..self.vcs_per_phys) else {
            return false;
        };
        self.claim(vc, msg);
        self.inject_vc[host] = Some(vc);
        if self.windowed {
            self.in_flight_msgs[host] += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_drains_conserved, tiny, updown};
    use super::super::{simulate, Simulator};
    use crate::config::SimConfig;
    use crate::congestion::{regime_configs, CongestionMode};
    use crate::traffic::TrafficPattern;
    use commsched_topology::designed;

    #[test]
    fn zero_rate_is_silent() {
        let topo = tiny();
        let routing = updown(&topo);
        let cfg = SimConfig {
            injection_rate: 0.0,
            warmup_cycles: 10,
            measure_cycles: 100,
            ..Default::default()
        };
        let stats = simulate(&topo, &routing, &[0, 0], cfg).unwrap();
        assert_eq!(stats.generated_messages, 0);
        assert_eq!(stats.delivered_flits, 0);
        assert!(!stats.deadlocked);
    }

    #[test]
    fn deterministic_given_seed() {
        let topo = designed::ring(6, 2);
        let routing = updown(&topo);
        let clusters: Vec<usize> = (0..12).map(|h| h / 6).collect();
        let cfg = SimConfig {
            injection_rate: 0.2,
            warmup_cycles: 300,
            measure_cycles: 2_000,
            seed: 99,
            ..Default::default()
        };
        let a = simulate(&topo, &routing, &clusters, cfg).unwrap();
        let b = simulate(&topo, &routing, &clusters, cfg).unwrap();
        assert_eq!(a.delivered_flits, b.delivered_flits);
        assert_eq!(a.generated_messages, b.generated_messages);
        assert_eq!(a.avg_network_latency, b.avg_network_latency);
    }

    #[test]
    fn conservation_no_flits_lost() {
        let topo = designed::ring(4, 2);
        let routing = updown(&topo);
        let clusters = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let pattern = TrafficPattern::new(clusters);
        let cfg = SimConfig {
            injection_rate: 0.3,
            warmup_cycles: 0,
            measure_cycles: 2_000,
            seed: 7,
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, &routing, pattern, cfg).unwrap();
        sim.advance(2_000);
        assert_drains_conserved(&mut sim, 5_000, "base router");
    }

    #[test]
    fn conservation_and_determinism_under_every_congestion_regime() {
        let topo = designed::ring(4, 2);
        let routing = updown(&topo);
        let clusters = vec![0, 0, 0, 0, 1, 1, 1, 1];
        for (name, cfg) in regime_configs(SimConfig {
            injection_rate: 0.5,
            warmup_cycles: 0,
            measure_cycles: 2_000,
            seed: 63,
            ..Default::default()
        }) {
            // Conservation: generated == delivered + nothing, once the
            // network drains (pauses release, windows refill).
            let pattern = TrafficPattern::new(clusters.clone());
            let mut sim = Simulator::new(&topo, &routing, pattern, cfg).unwrap();
            sim.advance(2_000);
            assert_drains_conserved(&mut sim, 20_000, name);
            // Determinism: identical configs give bit-identical stats.
            let a = simulate(&topo, &routing, &clusters, cfg).unwrap();
            let b = simulate(&topo, &routing, &clusters, cfg).unwrap();
            assert_eq!(a, b, "{name}: repeat run diverged");
        }
    }

    #[test]
    fn multi_process_time_sharing_runs_clean() {
        // Relaxed one-process-per-processor: every workstation of a 2-ring
        // campus runs one process of each application, so all traffic is
        // intracluster yet spans the whole machine.
        use crate::traffic::DestinationPolicy;
        let topo = designed::ring_of_rings(2, 4, 2); // 8 switches, 16 hosts
        let routing = updown(&topo);
        let shared: Vec<Vec<usize>> = (0..16).map(|_| vec![0, 1]).collect();
        let pattern = TrafficPattern::multi_process(shared, DestinationPolicy::Uniform);
        let cfg = SimConfig {
            injection_rate: 0.1,
            warmup_cycles: 500,
            measure_cycles: 3_000,
            seed: 50,
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, &routing, pattern, cfg).unwrap();
        let shared_stats = sim.run();
        assert!(!shared_stats.deadlocked);
        assert!(shared_stats.delivered_messages > 0);

        // Dedicated placement (one app per ring) keeps traffic local and
        // must show lower latency at the same offered load.
        let dedicated: Vec<usize> = (0..16).map(|h| (h / 2) / 4).collect();
        let ded_stats = simulate(&topo, &routing, &dedicated, cfg).unwrap();
        assert!(
            ded_stats.avg_network_latency < shared_stats.avg_network_latency,
            "dedicated {} vs shared {}",
            ded_stats.avg_network_latency,
            shared_stats.avg_network_latency
        );
    }

    #[test]
    fn ecn_marks_and_window_bind_under_overload() {
        let topo = designed::ring(4, 2);
        let routing = updown(&topo);
        let clusters = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let base = SimConfig {
            injection_rate: 1.5,
            warmup_cycles: 500,
            measure_cycles: 4_000,
            seed: 64,
            ..Default::default()
        };
        for mode in [CongestionMode::EcnAimd, CongestionMode::EcnDctcp] {
            let stats = simulate(
                &topo,
                &routing,
                &clusters,
                SimConfig {
                    congestion: mode,
                    ..base
                },
            )
            .unwrap();
            assert!(stats.ecn_marks > 0, "{mode}: overload must mark");
            assert_eq!(stats.pfc_pauses, 0, "{mode}: PFC is off");
            assert!(!stats.deadlocked);
            // The window caps the source backlog: far-past-saturation
            // open-loop queues grow without bound, a windowed source's
            // queue is bounded by what the window admits plus what the
            // open phase enqueued.
            let open = simulate(&topo, &routing, &clusters, base).unwrap();
            assert!(
                stats.max_source_queue <= open.max_source_queue,
                "{mode}: window did not curb the source queue \
                 ({} vs open {})",
                stats.max_source_queue,
                open.max_source_queue
            );
        }
    }
}
