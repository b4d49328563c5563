//! The headline claims of every figure, as fast self-verifying tests
//! (reduced simulation budgets; the full-budget numbers live in the
//! `fig*` binaries and EXPERIMENTS.md).

use commsched_bench::stats::pearson;
use commsched_bench::Testbed;
use commsched_core::Partition;
use commsched_netsim::{regime_configs, sweep, SimConfig};
use commsched_topology::designed;

fn quick(testbed: &Testbed) -> SimConfig {
    SimConfig {
        warmup_cycles: 500,
        measure_cycles: 2_000,
        ..testbed.sim_config()
    }
}

/// Figure 1: F drops fast after each restart; the minimum is not reached
/// from every start.
#[test]
fn fig1_trace_shape() {
    let t = Testbed::paper_16();
    let (_, q, trace) = t.tabu_mapping();
    let starts: Vec<usize> = trace
        .events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.is_seed_start)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(starts.len(), 10, "ten random starting points");
    // Every start is a (weak) peak relative to five iterations later.
    for &s in &starts {
        if let Some(later) = trace.events.get(s + 5) {
            if !later.is_seed_start && later.seed == trace.events[s].seed {
                assert!(later.fg <= trace.events[s].fg + 1e-12);
            }
        }
    }
    assert!((trace.min_fg().unwrap() - q.fg).abs() < 1e-9);
}

/// Figure 2: the found partition is four 4-switch clusters, each with
/// internal links (coherent groups, not arbitrary sets).
#[test]
fn fig2_partition_coherent() {
    let t = Testbed::paper_16();
    let (p, q, _) = t.tabu_mapping();
    assert_eq!(p.sizes(), vec![4, 4, 4, 4]);
    assert!(q.cc > 2.0, "well-defined clusters, Cc = {}", q.cc);
    for members in p.clusters() {
        let internal = t
            .topology
            .links()
            .iter()
            .filter(|l| members.contains(&l.a) && members.contains(&l.b))
            .count();
        assert!(internal >= 2, "cluster {members:?} is incoherent");
    }
}

/// Figure 3: the tabu mapping out-accepts a random mapping at a
/// past-saturation load on the 16-switch network.
#[test]
fn fig3_op_beats_random() {
    let t = Testbed::paper_16();
    let (op, q_op, _) = t.tabu_mapping();
    let (rnd, q_r) = t.random_mapping(1);
    assert!(q_op.cc > q_r.cc);
    let rates = [0.2, 0.5];
    let cfg = quick(&t);
    let s_op = sweep(
        &t.topology,
        &t.routing,
        &t.host_clusters(&op),
        cfg,
        &rates,
        1,
    )
    .unwrap();
    let s_r = sweep(
        &t.topology,
        &t.routing,
        &t.host_clusters(&rnd),
        cfg,
        &rates,
        1,
    )
    .unwrap();
    assert!(
        s_op.throughput() > 1.15 * s_r.throughput(),
        "OP {} vs random {}",
        s_op.throughput(),
        s_r.throughput()
    );
}

/// Figure 3 under congestion: the Cc↔throughput sign — the
/// communication-aware mapping out-accepts the random one — survives
/// every congestion regime (PFC pause, ECN+AIMD, ECN+DCTCP windows,
/// up*/down*-legal adaptive misrouting), not just the idealised
/// uncontrolled network the paper simulates. Flow control compresses the
/// gap (it throttles exactly the hotspots random mappings create), so
/// the per-regime margin is looser than `fig3_op_beats_random`'s, but
/// the sign must never flip and no regime may deadlock. And flow control
/// must not tax an uncongested network: at offered load 0.1 the ECN+AIMD
/// windows accept within 10 % of what the open loop accepts.
#[test]
fn fig3_sign_holds_under_every_congestion_regime() {
    let t = Testbed::paper_16();
    let (op, q_op, _) = t.tabu_mapping();
    let (rnd, q_r) = t.random_mapping(1);
    assert!(q_op.cc > q_r.cc);
    let rates = [0.1, 0.2, 0.5];
    let (mut off, mut aimd) = (f64::NAN, f64::NAN);
    for (name, cfg) in regime_configs(quick(&t)) {
        let s_op = sweep(
            &t.topology,
            &t.routing,
            &t.host_clusters(&op),
            cfg,
            &rates,
            1,
        )
        .unwrap();
        let s_r = sweep(
            &t.topology,
            &t.routing,
            &t.host_clusters(&rnd),
            cfg,
            &rates,
            1,
        )
        .unwrap();
        for p in s_op.points.iter().chain(s_r.points.iter()) {
            assert!(!p.stats.deadlocked, "{name}: up*/down* must not deadlock");
        }
        assert!(
            s_op.throughput() > 1.05 * s_r.throughput(),
            "{name}: OP {} vs random {} — sign flipped",
            s_op.throughput(),
            s_r.throughput()
        );
        let accepted_low = s_op.points[0].stats.accepted_flits_per_switch_cycle;
        match name {
            "off" => off = accepted_low,
            "ecn-aimd" => aimd = accepted_low,
            _ => {}
        }
    }
    eprintln!("accepted at 0.1: off {off:.6}, ecn-aimd {aimd:.6}");
    assert!(
        (aimd - off).abs() <= 0.10 * off,
        "ECN+AIMD accepted {aimd} vs open loop {off} at offered load 0.1"
    );
}

/// Figure 4: the technique identifies the four physical rings, and the
/// designed network's Cc exceeds the random network's.
#[test]
fn fig4_rings_identified() {
    let t24 = Testbed::paper_24();
    let (p, q24, _) = t24.tabu_mapping();
    let truth = Partition::from_clusters(&designed::ring_of_rings_clusters(4, 6)).unwrap();
    assert!(p.same_grouping(&truth));
    let (_, q16, _) = Testbed::paper_16().tabu_mapping();
    assert!(q24.cc > q16.cc);
}

/// Figure 5: the win factor is larger on the designed network than the
/// random one (scarce inter-ring bandwidth punishes random mappings).
#[test]
fn fig5_gap_larger_on_designed_network() {
    let t = Testbed::paper_24();
    let (op, _, _) = t.tabu_mapping();
    let (rnd, _) = t.random_mapping(1);
    let rates = [0.15, 0.4];
    let cfg = quick(&t);
    let s_op = sweep(
        &t.topology,
        &t.routing,
        &t.host_clusters(&op),
        cfg,
        &rates,
        1,
    )
    .unwrap();
    let s_r = sweep(
        &t.topology,
        &t.routing,
        &t.host_clusters(&rnd),
        cfg,
        &rates,
        1,
    )
    .unwrap();
    let ratio = s_op.throughput() / s_r.throughput();
    assert!(ratio > 2.0, "expected a decisive gap, got {ratio:.2}x");
}

/// Figure 6: Cc correlates with accepted traffic past saturation and
/// with latency below it (r > 0.7 in each regime).
#[test]
fn fig6_correlation_by_regime() {
    let t = Testbed::paper_16();
    let (op, q_op, _) = t.tabu_mapping();
    let mut ccs = vec![q_op.cc];
    let mut partitions = vec![op];
    for i in 1..=4 {
        let (p, q) = t.random_mapping(i);
        ccs.push(q.cc);
        partitions.push(p);
    }
    let low = 0.1; // everyone unsaturated
    let high = 0.5; // random mappings saturated
    let cfg = quick(&t);
    let sweeps: Vec<_> = partitions
        .iter()
        .map(|p| {
            sweep(
                &t.topology,
                &t.routing,
                &t.host_clusters(p),
                cfg,
                &[low, high],
                1,
            )
            .unwrap()
        })
        .collect();
    let neg_latency_low: Vec<f64> = sweeps
        .iter()
        .map(|s| -s.points[0].stats.avg_network_latency)
        .collect();
    let accepted_high: Vec<f64> = sweeps
        .iter()
        .map(|s| s.points[1].stats.accepted_flits_per_switch_cycle)
        .collect();
    let r_low = pearson(&ccs, &neg_latency_low).unwrap();
    let r_high = pearson(&ccs, &accepted_high).unwrap();
    assert!(r_low > 0.7, "low-load latency correlation {r_low}");
    assert!(r_high > 0.7, "saturation throughput correlation {r_high}");
}
