//! Property tests for the flit-level simulator: conservation, latency
//! bounds, and determinism over random configurations.

use commsched_netsim::{CongestionMode, SimConfig, Simulator, TrafficPattern};
use commsched_routing::{Routing, UpDownRouting};
use commsched_topology::{random_regular, RandomTopologyConfig, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_net(seed: u64) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    random_regular(
        RandomTopologyConfig {
            switches: 8,
            degree: 3,
            hosts_per_switch: 2,
            max_attempts: 10_000,
        },
        &mut rng,
    )
    .unwrap()
}

/// Two applications of 4 contiguous switches each on [`small_net`].
fn two_apps() -> TrafficPattern {
    TrafficPattern::new((0..16).map(|h| (h / 2) / 4).collect())
}

/// Stop injecting, let the network empty, and require that every
/// generated flit was injected once and delivered once.
fn assert_drains_to_conservation(sim: &mut Simulator<'_>, msg_len: usize) {
    assert!(!sim.drain(1_000_000), "drain hit the watchdog");
    assert!(!sim.in_flight(), "network did not empty");
    assert_eq!(sim.delivered_messages(), sim.generated_messages());
    assert_eq!(
        sim.delivered_flits(),
        sim.generated_messages() * msg_len as u64
    );
    assert_eq!(
        sim.host_injected_flits().iter().sum::<u64>(),
        sim.delivered_flits()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Flit conservation: after injection stops and the network drains,
    /// every generated message has been delivered — no flit is lost or
    /// duplicated, for any topology seed, load, message length,
    /// buffer depth and VC count, with and without the Duato protocol.
    #[test]
    fn conservation_under_random_configs(
        topo_seed in any::<u64>(),
        sim_seed in any::<u64>(),
        rate in 0.02f64..0.6,
        msg_len in 2usize..24,
        buffer in 1usize..6,
        virtual_channels in 1usize..=3,
        fully_adaptive in any::<bool>(),
    ) {
        let topo = small_net(topo_seed);
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let cfg = SimConfig {
            msg_len,
            buffer_flits: buffer,
            injection_rate: rate,
            warmup_cycles: 0,
            measure_cycles: 1_000,
            seed: sim_seed,
            virtual_channels,
            fully_adaptive,
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, &routing, two_apps(), cfg).unwrap();
        let stats = sim.run();
        prop_assert!(!stats.deadlocked, "up*/down* must not deadlock");
        assert_drains_to_conservation(&mut sim, msg_len);
    }

    /// Average network latency is at least the pipeline lower bound:
    /// (hops + 2 channels) + (msg_len - 1) for the closest pair is a safe
    /// global floor using the minimum route distance.
    #[test]
    fn latency_respects_pipeline_floor(
        topo_seed in any::<u64>(),
        msg_len in 4usize..20,
    ) {
        let topo = small_net(topo_seed);
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let cfg = SimConfig {
            msg_len,
            injection_rate: 0.05,
            warmup_cycles: 200,
            measure_cycles: 3_000,
            seed: 5,
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, &routing, two_apps(), cfg).unwrap();
        let stats = sim.run();
        if stats.delivered_messages > 0 {
            // Cheapest possible delivery: same-switch (0 hops): channels =
            // inject + deliver = 2, so latency >= 2 + msg_len - 1.
            let floor = (2 + msg_len - 1) as f64;
            prop_assert!(
                stats.avg_network_latency >= floor - 1e-9,
                "latency {} below floor {}",
                stats.avg_network_latency,
                floor
            );
        }
    }

    /// Bit-for-bit determinism across runs for any config.
    #[test]
    fn determinism(
        topo_seed in any::<u64>(),
        sim_seed in any::<u64>(),
        rate in 0.05f64..0.5,
    ) {
        let topo = small_net(topo_seed);
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let cfg = SimConfig {
            injection_rate: rate,
            warmup_cycles: 100,
            measure_cycles: 800,
            seed: sim_seed,
            ..Default::default()
        };
        let run = || {
            Simulator::new(&topo, &routing, two_apps(), cfg)
                .unwrap()
                .run()
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a.delivered_flits, b.delivered_flits);
        prop_assert_eq!(a.generated_messages, b.generated_messages);
        prop_assert_eq!(a.avg_network_latency.to_bits(), b.avg_network_latency.to_bits());
    }

    /// Conservation and bit-for-bit determinism hold under every
    /// congestion regime (PFC pause, ECN windows, adaptive misrouting):
    /// flow control may delay flits but must never lose, duplicate, or
    /// reorder the stats across identical runs.
    #[test]
    fn congestion_regimes_conserve_and_determinize(
        topo_seed in any::<u64>(),
        sim_seed in any::<u64>(),
        rate in 0.05f64..0.8,
        mode_idx in 0usize..4,
        misroute in any::<bool>(),
    ) {
        let topo = small_net(topo_seed);
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let cfg = SimConfig {
            injection_rate: rate,
            warmup_cycles: 100,
            measure_cycles: 800,
            seed: sim_seed,
            congestion: CongestionMode::ALL[mode_idx],
            adaptive_misroute: misroute,
            ..Default::default()
        };
        prop_assert!(cfg.validate().is_ok());
        let mut sim = Simulator::new(&topo, &routing, two_apps(), cfg).unwrap();
        let a = sim.run();
        let b = Simulator::new(&topo, &routing, two_apps(), cfg).unwrap().run();
        prop_assert!(!a.deadlocked, "up*/down* must not deadlock under {:?}", cfg.congestion);
        // Pauses release and windows refill: flow control delays flits,
        // it never keeps them.
        assert_drains_to_conservation(&mut sim, cfg.msg_len);
        // Every statistic, through its exact text (NaN latencies included).
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// Throughput can never exceed what the hosts inject or the links
    /// carry: accepted <= offered at low load (within noise), and the
    /// per-host acceptance is bounded by 1 flit/cycle.
    #[test]
    fn accepted_traffic_bounded(
        topo_seed in any::<u64>(),
        rate in 0.01f64..2.0,
    ) {
        let topo = small_net(topo_seed);
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let cfg = SimConfig {
            injection_rate: rate,
            warmup_cycles: 300,
            measure_cycles: 2_000,
            seed: 9,
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, &routing, two_apps(), cfg).unwrap();
        let stats = sim.run();
        prop_assert!(stats.accepted_flits_per_host_cycle <= 1.0 + 1e-9);
        prop_assert!(
            stats.accepted_flits_per_host_cycle <= rate * 1.25 + 0.02,
            "accepted {} vs offered {}",
            stats.accepted_flits_per_host_cycle,
            rate
        );
    }
}

/// Routing-table cross-check: every next hop the router offers is an
/// actual neighbour — the simulator relies on this.
#[test]
fn next_hops_are_neighbours() {
    for seed in 0..5 {
        let topo = small_net(seed);
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        for src in 0..8 {
            for dst in 0..8 {
                if src == dst {
                    continue;
                }
                for hop in routing.next_hops(commsched_routing::RouteState::start(src), dst) {
                    assert!(topo.has_link(src, hop.node));
                }
            }
        }
    }
}
