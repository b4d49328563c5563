//! Figure 6: correlation of the clustering coefficient `Cc` with network
//! performance.
//!
//! For every simulation point S1..S9 of the 16-switch experiment, computes
//! the Pearson correlation between each mapping's `Cc` and its measured
//! performance (accepted traffic) at that point. The paper reports r ≈ 85 %
//! at low load (S1–S4), r ≈ 75 % under deep saturation (S7–S9), and a
//! non-significant region around S5–S6 where mappings saturate at different
//! loads; correlation stayed above 70 % for other networks too.
//!
//! Usage: `fig6 [num_random_mappings] [--extra]`
//!   --extra additionally checks a second random 16-switch and a 20-switch
//!   network (the §5.2 "other network examples" claim).

use commsched_bench::stats::pearson;
use commsched_bench::Testbed;

fn correlation_experiment(testbed: &Testbed, num_random: u64) {
    let (op, q_op, _) = testbed.tabu_mapping();
    let rates = testbed.shared_rates(&op, 9);

    // Collect every mapping's Cc and performance series.
    let mut ccs = vec![q_op.cc];
    let mut sweeps = vec![testbed.sweep_mapping(&op, &rates)];
    for i in 1..=num_random {
        let (rp, rq) = testbed.random_mapping(i);
        ccs.push(rq.cc);
        sweeps.push(testbed.sweep_mapping(&rp, &rates));
    }

    println!(
        "# network {}: {} mappings (OP + {num_random} random)",
        testbed.name,
        ccs.len()
    );
    println!(
        "# Cc values: {:?}",
        ccs.iter()
            .map(|c| (c * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    println!("# point  r(Cc, accepted)   r(Cc, -latency)");
    for k in 0..rates.len() {
        let accepted: Vec<f64> = sweeps
            .iter()
            .map(|s| s.points[k].stats.accepted_flits_per_switch_cycle)
            .collect();
        // A point that delivered nothing has no average latency; dropping
        // to "n/a" beats feeding NaN into the correlation.
        let neg_latency: Option<Vec<f64>> = sweeps
            .iter()
            .map(|s| s.points[k].stats.network_latency().map(|l| -l))
            .collect();
        let r_acc = pearson(&ccs, &accepted)
            .map(|r| format!("{r:>8.3}"))
            .unwrap_or_else(|| "     n/a".into());
        let r_lat = neg_latency
            .and_then(|nl| pearson(&ccs, &nl))
            .map(|r| format!("{r:>8.3}"))
            .unwrap_or_else(|| "     n/a".into());
        println!("  S{:<5} {r_acc}          {r_lat}", k + 1);
    }
    // Throughput-level correlation (one number per network).
    let throughput: Vec<f64> = sweeps.iter().map(|s| s.throughput()).collect();
    match pearson(&ccs, &throughput) {
        Some(r) => println!("# r(Cc, saturation throughput) = {r:.3}"),
        None => println!("# r(Cc, saturation throughput) = n/a"),
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let num_random: u64 = args.iter().find_map(|a| a.parse().ok()).unwrap_or(6);
    let extra = args.iter().any(|a| a == "--extra");

    println!("# Figure 6: correlation of Cc with network performance");
    correlation_experiment(&Testbed::paper_16(), num_random);

    if extra {
        println!("# --- other network examples (paper: r > 70% everywhere) ---");
        correlation_experiment(&Testbed::extra_random(16, 3000), num_random);
        correlation_experiment(&Testbed::extra_random(20, 4000), num_random);
    }
}
