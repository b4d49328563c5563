//! Instance robustness of the Figure-3 claim.
//!
//! The paper reports one random 16-switch instance; ours is a different
//! draw, so the OP/best-random throughput ratio differs in magnitude.
//! This binary quantifies the spread: for several independent random
//! 16-switch topologies, it runs the full Figure-3 protocol (tabu vs. the
//! best of `num_random` random mappings at shared load points) and prints
//! the per-instance ratios — the claim that OP dominates *every* random
//! mapping must hold on every instance.
//!
//! Usage: `robustness [num_instances] [num_random]` (defaults 5 and 4).

use commsched_bench::stats::{mean, stddev};
use commsched_bench::Testbed;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let num_instances: u64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(5);
    let num_random: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);

    println!("# Figure-3 robustness across random 16-switch instances");
    println!("# instance  Cc(OP)   throughput(OP)  best-random  ratio  dominates");
    let mut ratios = Vec::new();
    for i in 0..num_instances {
        let testbed = Testbed::extra_random(16, 5_000 + i);
        let (op, q_op, _) = testbed.tabu_mapping();
        let rates = testbed.shared_rates(&op, 5);
        let op_sweep = testbed.sweep_mapping(&op, &rates);

        let mut best_random: f64 = 0.0;
        let mut dominated_everywhere = true;
        for r in 1..=num_random {
            let (rp, _) = testbed.random_mapping(r);
            let sweep = testbed.sweep_mapping(&rp, &rates);
            best_random = best_random.max(sweep.throughput());
            for (a, b) in op_sweep.points.iter().zip(&sweep.points) {
                if a.stats.accepted_flits_per_switch_cycle
                    < b.stats.accepted_flits_per_switch_cycle - 0.01
                {
                    dominated_everywhere = false;
                }
            }
        }
        let ratio = op_sweep.throughput() / best_random;
        ratios.push(ratio);
        println!(
            "  {:<9} {:<8.3} {:<15.4} {:<12.4} {:<6.2} {}",
            i,
            q_op.cc,
            op_sweep.throughput(),
            best_random,
            ratio,
            if dominated_everywhere { "YES" } else { "no" }
        );
    }
    let m = mean(&ratios).unwrap_or(f64::NAN);
    let s = stddev(&ratios).unwrap_or(f64::NAN);
    println!("# OP/best-random ratio: mean = {m:.2}x, std = {s:.2} over {num_instances} instances");
    println!("# (paper's single instance: ~1.85x)");
}
