//! Golden digests of fixed-seed runs: the refactoring oracle for the
//! engine. Every case hashes (FNV-1a 64) the exact `Debug` text of
//! everything a run reports, so any change to what the simulator
//! computes — on the base router, the Duato adaptive/escape classes, the
//! misroute class, every congestion regime, slowed links and the stall
//! classifier — shows up as a mismatch.
//!
//! The table was recorded on the engine as it stood before it was split
//! into `engine/` (EXPERIMENTS.md "PR 17" has the command and the parent
//! commit's output), 17 lines then: `duato-2vc-deterministic` went with
//! the output-selection option, whose two values gave one digest.
//! Regenerate a line only when the simulator is *meant* to change its
//! statistics.
//!
//! The `sweep-*` lines were recorded on the serial `paper_sweep`, before
//! a sweep ran its simulations on a thread budget: three 16-switch nets
//! under the daemon's `SimConfig`, one sweep whose `max_rate` cap ends
//! the bracket, and one under PFC whose probes end stuck. Every sweep
//! line, `paper24-sweep` included, now runs at `threads` 1, 2 and 3
//! against its one digest.

use commsched_netsim::{
    paper_sweep, regime_configs, CongestionMode, SimConfig, Simulator, SweepConfig, TrafficPattern,
};
use commsched_routing::UpDownRouting;
use commsched_topology::{
    designed, random_regular, RandomTopologyConfig, Topology, TopologyBuilder,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(case, fnv1a-64 of its report text)`.
const GOLDEN: [(&str, &str); 21] = [
    // `paper24` of benchmark/baseline/netsim-digests.txt: the same
    // inputs, the same text, so tier-1 and the benchmark pin one value.
    ("paper24-sweep", "395d9fef222b9742"),
    ("regime-off", "3a786a3140076798"),
    ("regime-pfc", "2532080fc9de3991"),
    ("regime-ecn-aimd", "0dad6dd0c0b4d65c"),
    ("regime-ecn-dctcp", "8a64487c1977116c"),
    ("regime-adaptive", "307d84c8aae0b195"),
    ("duato-2vc-adaptive", "29a32b5caa267c2b"),
    ("base-3vc", "fa807f0bc2ea90d3"),
    ("misroute-budget-1", "797925043efcd235"),
    ("misroute-budget-4", "e4c3fd77205e1778"),
    ("slow-link-intercluster", "f6232c92c1ce38a5"),
    ("duato-slow-link-intercluster", "725476d9b7642ffb"),
    ("kill-stall-restore", "43c17ceba6e30b47"),
    ("kill-stall-restore-pfc", "5a372d033c404c28"),
    ("kill-stall-restore-duato", "59a6f1170cdb8cef"),
    ("kill-stall-restore-misroute", "db044e96602a1942"),
    ("sweep-paper16-seed161", "951c896fc0421d03"),
    ("sweep-paper16-seed162", "79d6ecb786afde97"),
    ("sweep-paper16-seed163", "0a71b1178849ce5c"),
    ("sweep-paper16-max-rate-cap", "68ed49ff8e9c4fd6"),
    ("sweep-pfc-stuck-probes", "fd5c570038b8168b"),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Compare `text`'s digest with the table line of `case`.
fn check(case: &str, text: &str) {
    let want = GOLDEN
        .iter()
        .find(|(name, _)| *name == case)
        .unwrap_or_else(|| panic!("{case} has no line in GOLDEN"))
        .1;
    let got = format!("{:016x}", fnv1a(text.as_bytes()));
    assert_eq!(got, want, "{case}: digest moved; the run reported\n{text}");
}

/// Eight switches of degree three, two workstations each.
fn small_net() -> Topology {
    let mut rng = StdRng::seed_from_u64(17);
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

/// Two applications of four contiguous switches each on [`small_net`].
fn small_clusters() -> Vec<usize> {
    (0..16).map(|h| (h / 2) / 4).collect()
}

/// Offered load ≈ 1.2 × the saturation rate `find_saturation_rate`
/// reports for [`small_net`] with [`small_clusters`] under
/// [`small_cfg`] (0.28).
const OVERLOAD: f64 = 0.34;

fn small_cfg() -> SimConfig {
    SimConfig {
        injection_rate: OVERLOAD,
        warmup_cycles: 300,
        measure_cycles: 2_000,
        seed: 0x5EED,
        ..SimConfig::default()
    }
}

/// One `run()` and everything the simulator reports about it.
fn run_text(topo: &Topology, clusters: Vec<usize>, cfg: SimConfig) -> String {
    let routing = UpDownRouting::new(topo, 0).unwrap();
    let mut sim = Simulator::new(topo, &routing, TrafficPattern::new(clusters), cfg).unwrap();
    let stats = sim.run();
    format!(
        "{stats:?} {:?} {:?}",
        sim.host_injected_flits(),
        sim.link_flit_counts()
    )
}

/// The daemon's `SimConfig` for a SWEEP job.
fn daemon_sim() -> SimConfig {
    SimConfig {
        warmup_cycles: 500,
        measure_cycles: 3_000,
        seed: 0xC0FFEE,
        ..SimConfig::default()
    }
}

/// Everything a `paper_sweep` reports, as text, once it has read the same
/// at `threads` 1, 2 and 3 (the bisection's widths: the midpoint alone,
/// plus the next one below, plus the next one above).
fn sweep_text(topo: &Topology, hosts: &[usize], sim: SimConfig, cfg: SweepConfig) -> String {
    let routing = UpDownRouting::new(topo, 0).unwrap();
    let texts = [1, 2, 3].map(|threads| {
        let cfg = SweepConfig { threads, ..cfg };
        let (sweep, sat) = paper_sweep(topo, &routing, hosts, sim, cfg).unwrap();
        format!("{sat:?} {:?}", sweep.points)
    });
    assert_eq!(texts[0], texts[1], "threads 1 and 2 differ");
    assert_eq!(texts[0], texts[2], "threads 1 and 3 differ");
    texts[0].clone()
}

#[test]
fn paper24_sweep_matches_the_benchmark_pin() {
    let topo = designed::paper_24_switch();
    let n = topo.num_switches();
    let hps = topo.hosts_per_switch();
    let hosts: Vec<usize> = (0..n * hps).map(|h| (h / hps) / (n / 4)).collect();
    let text = sweep_text(&topo, &hosts, daemon_sim(), SweepConfig::default());
    check("paper24-sweep", &text);
}

/// A `RandomTopologyConfig::paper(16)` net and its 64 hosts in four
/// applications of four contiguous switches.
fn paper16(seed: u64) -> (Topology, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = random_regular(RandomTopologyConfig::paper(16), &mut rng).unwrap();
    (topo, (0..64).map(|h| (h / 4) / 4).collect())
}

#[test]
fn nine_point_sweeps_of_sixteen_switch_nets() {
    for seed in [161, 162, 163] {
        let (topo, hosts) = paper16(seed);
        let text = sweep_text(&topo, &hosts, daemon_sim(), SweepConfig::default());
        check(&format!("sweep-paper16-seed{seed}"), &text);
    }
}

#[test]
fn a_max_rate_cap_ends_the_bracket() {
    let (topo, hosts) = paper16(161);
    // The net saturates near 0.09: the bracket's third probe (0.08) is
    // past the cap, so the sweep's saturation is the cap itself.
    let cfg = SweepConfig {
        max_rate: 0.05,
        ..SweepConfig::default()
    };
    let text = sweep_text(&topo, &hosts, daemon_sim(), cfg);
    assert!(text.starts_with("0.05 "), "{text}");
    check("sweep-paper16-max-rate-cap", &text);
}

#[test]
fn a_pfc_sweep_whose_probes_end_stuck() {
    // A ring cut at 3-4 and closed by a link that carries a flit every
    // eighth cycle: with a 6-cycle watchdog, a lone message waiting on it
    // reads as stuck, so all but the lightest probes end that way.
    let topo = TopologyBuilder::new(8, 2)
        .links([(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (7, 0)])
        .link_with_slowdown(3, 4, 8)
        .build()
        .unwrap();
    let sim = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 1_500,
        congestion: CongestionMode::Pfc,
        deadlock_threshold: 6,
        intercluster_fraction: 0.3,
        ..daemon_sim()
    };
    let text = sweep_text(&topo, &small_clusters(), sim, SweepConfig::default());
    assert!(text.contains("deadlocked: true"), "{text}");
    check("sweep-pfc-stuck-probes", &text);
}

#[test]
fn every_congestion_regime_past_saturation() {
    let topo = small_net();
    for (name, cfg) in regime_configs(small_cfg()) {
        check(
            &format!("regime-{name}"),
            &run_text(&topo, small_clusters(), cfg),
        );
    }
}

#[test]
fn virtual_channels_with_and_without_the_duato_protocol() {
    let topo = small_net();
    let duato = SimConfig {
        injection_rate: 1.0,
        virtual_channels: 2,
        fully_adaptive: true,
        ..small_cfg()
    };
    check(
        "duato-2vc-adaptive",
        &run_text(&topo, small_clusters(), duato),
    );
    check(
        "base-3vc",
        &run_text(
            &topo,
            small_clusters(),
            SimConfig {
                injection_rate: 1.0,
                virtual_channels: 3,
                ..small_cfg()
            },
        ),
    );
}

#[test]
fn misroute_budgets_under_overload() {
    let topo = small_net();
    for budget in [1, 4] {
        let text = run_text(
            &topo,
            vec![0; 16],
            SimConfig {
                injection_rate: 1.0,
                adaptive_misroute: true,
                max_misroutes: budget,
                ..small_cfg()
            },
        );
        assert!(!text.contains("misroutes: 0,"), "no detour taken: {text}");
        check(&format!("misroute-budget-{budget}"), &text);
    }
}

#[test]
fn slowed_links_with_intercluster_traffic() {
    let topo = TopologyBuilder::new(4, 2)
        .link(0, 1)
        .link_with_slowdown(1, 2, 3)
        .link(2, 3)
        .link_with_slowdown(3, 0, 2)
        .build()
        .unwrap();
    let cfg = SimConfig {
        injection_rate: 0.3,
        intercluster_fraction: 0.3,
        ..small_cfg()
    };
    let clusters = vec![0, 0, 0, 0, 1, 1, 1, 1];
    check(
        "slow-link-intercluster",
        &run_text(&topo, clusters.clone(), cfg),
    );
    check(
        "duato-slow-link-intercluster",
        &run_text(
            &topo,
            clusters,
            SimConfig {
                virtual_channels: 2,
                fully_adaptive: true,
                ..cfg
            },
        ),
    );
}

/// Cut a network in two, step until the watchdog fires, classify the
/// stall, restore, drain, and check nothing was lost.
fn kill_stall_restore(case: &str, cfg: SimConfig) {
    // Two triangles joined by the bridge 2-3, one application on all
    // twelve workstations: once the bridge dies every source queue
    // sooner or later heads a message that needs it, so all traffic
    // stops — behind headers that still have other (occupied) output
    // candidates inside their triangle.
    let topo = TopologyBuilder::new(6, 2)
        .links([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
        .build()
        .unwrap();
    let routing = UpDownRouting::new(&topo, 0).unwrap();
    let cfg = SimConfig {
        injection_rate: 0.5,
        deadlock_threshold: 300,
        seed: 0xFA17,
        ..cfg
    };
    let mut sim = Simulator::new(&topo, &routing, TrafficPattern::new(vec![0; 12]), cfg).unwrap();
    assert!(!sim.advance(1_000), "{case}: healthy phase stalled");
    sim.kill_link(2, 3).unwrap();
    let mut fired = false;
    for _ in 0..100 {
        if sim.advance(100) {
            fired = true;
            break;
        }
    }
    assert!(fired, "{case}: the watchdog never fired on a cut network");
    let stall = sim.stall_report();
    assert!(
        !stall.routing_deadlock,
        "{case}: fault stall called a deadlock"
    );
    assert!(stall.dead_link_flits > 0, "{case}: {stall:?}");
    let fired_at = sim.cycle();
    sim.restore_link(2, 3).unwrap();
    assert!(!sim.drain(200_000), "{case}: drain hit the watchdog");
    assert!(!sim.in_flight(), "{case}: drained");
    assert_eq!(sim.delivered_messages(), sim.generated_messages());
    assert_eq!(
        sim.delivered_flits(),
        sim.generated_messages() * cfg.msg_len as u64
    );
    assert_eq!(
        sim.host_injected_flits().iter().sum::<u64>(),
        sim.delivered_flits()
    );
    check(
        case,
        &format!(
            "{stall:?} fired_at={fired_at} end={} generated={} delivered={} {:?} {:?}",
            sim.cycle(),
            sim.generated_messages(),
            sim.delivered_flits(),
            sim.host_injected_flits(),
            sim.link_flit_counts()
        ),
    );
}

#[test]
fn kill_stall_restore_drain_conserves() {
    let base = SimConfig::default();
    kill_stall_restore("kill-stall-restore", base);
    let pfc = SimConfig {
        congestion: CongestionMode::Pfc,
        ..base
    };
    kill_stall_restore("kill-stall-restore-pfc", pfc);
    let duato = SimConfig {
        virtual_channels: 2,
        fully_adaptive: true,
        ..base
    };
    kill_stall_restore("kill-stall-restore-duato", duato);
    let misroute = SimConfig {
        adaptive_misroute: true,
        ..base
    };
    kill_stall_restore("kill-stall-restore-misroute", misroute);
}
