//! The saturation search's probe counters as the daemon's `METRICS`
//! shows them. This file holds one test, so the process's registry moves
//! for it alone and the deltas are exact.

use commsched_netsim::{paper_sweep, SimConfig, SweepConfig};
use commsched_routing::UpDownRouting;
use commsched_topology::{random_regular, RandomTopologyConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(netsim_runs_total, netsim_sweep_probes_total,
/// netsim_sweep_probes_spent_total)`.
fn counters() -> [u64; 3] {
    let text = commsched_telemetry::global().render_prometheus();
    let read = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or(0)
    };
    [
        "netsim_runs_total",
        "netsim_sweep_probes_total",
        "netsim_sweep_probes_spent_total",
    ]
    .map(read)
}

#[test]
fn a_sweeps_probes_and_points_add_up_to_its_runs() {
    // The first 16-switch golden sweep net: at two workers one of its
    // guesses misses.
    let mut rng = StdRng::seed_from_u64(161);
    let topo = random_regular(RandomTopologyConfig::paper(16), &mut rng).unwrap();
    let routing = UpDownRouting::new(&topo, 0).unwrap();
    let hosts: Vec<usize> = (0..64).map(|h| (h / 4) / 4).collect();
    let sim = SimConfig {
        warmup_cycles: 500,
        measure_cycles: 3_000,
        seed: 0xC0FFEE,
        ..SimConfig::default()
    };
    let mut read = Vec::new();
    for threads in [1, 2] {
        let cfg = SweepConfig {
            points: 3,
            threads,
            ..SweepConfig::default()
        };
        let before = counters();
        paper_sweep(&topo, &routing, &hosts, sim, cfg).unwrap();
        let after = counters();
        let [runs, probes, spent] = std::array::from_fn(|i| after[i] - before[i]);
        assert_eq!(
            runs,
            probes + 3,
            "threads {threads}: every run is a probe or a point"
        );
        read.push((probes, spent));
    }
    // Serially no probe is spent; at two workers each probe is either
    // one the serial search ran or spent.
    let [(serial, 0), (probes, spent)] = read[..] else {
        panic!("a serial search spent a probe: {read:?}");
    };
    assert!(spent > 0, "{read:?}");
    assert_eq!(probes - spent, serial, "{read:?}");
}
