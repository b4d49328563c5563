//! Heterogeneous computation scheduling — the other half of the "ideal
//! scheduler".
//!
//! §1 of the paper: an ideal strategy would pick a computation-aware or a
//! communication-aware technique depending on which resource is the
//! bottleneck. This example exercises the computation-aware baselines the
//! paper cites (OLB, UDA, Min-min, Max-min) on a synthetic heterogeneous
//! ETC matrix, and then shows the combined objective that blends makespan
//! with the communication criterion.
//!
//! Run: `cargo run --release -p commsched-bench --example hetero_makespan`

use commsched_bench::comparators::compute::{combined_cost, max_min, min_min, olb, uda, EtcMatrix};
use commsched_bench::Testbed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // 32 independent tasks on 8 heterogeneous machines: consistent-style
    // ETC (machines have speed factors, tasks have sizes) plus noise.
    let tasks = 32;
    let machines = 8;
    let mut rng = StdRng::seed_from_u64(11);
    let speed: Vec<f64> = (0..machines).map(|_| rng.gen_range(0.5..2.5)).collect();
    let size: Vec<f64> = (0..tasks).map(|_| rng.gen_range(10.0..100.0)).collect();
    let data: Vec<f64> = (0..tasks)
        .flat_map(|t| {
            let size = size[t];
            let noise: Vec<f64> = (0..machines)
                .map(|m| size / speed[m] * rng.gen_range(0.85..1.15))
                .collect();
            noise
        })
        .collect();
    let etc = EtcMatrix::from_vec(tasks, machines, data);

    println!("computation-aware heuristics (32 tasks, 8 machines):");
    println!("  heuristic  makespan");
    for (name, schedule) in [
        ("OLB", olb(&etc)),
        ("UDA", uda(&etc)),
        ("Min-min", min_min(&etc)),
        ("Max-min", max_min(&etc)),
    ] {
        println!("  {name:<9} {:>9.1}", schedule.makespan());
    }

    // Combined view: a communication-heavy workload on the campus network,
    // scoring placements by alpha-blended makespan + F_G.
    let campus = Testbed::paper_24();
    let (comm, _, _) = campus.tabu_mapping();
    let (rand_place, _) = campus.random_mapping(2);

    let reference = min_min(&etc).makespan();
    println!("\ncombined objective alpha*makespan + (1-alpha)*F_G:");
    println!("  alpha  comm-aware  oblivious");
    for alpha in [0.0, 0.25, 0.5, 0.75, 1.0] {
        // Both placements run the same computation schedule here; the
        // communication term is what separates them.
        let a = combined_cost(reference, reference, &comm, &campus.table, alpha);
        let b = combined_cost(reference, reference, &rand_place, &campus.table, alpha);
        println!("  {alpha:<5} {a:>10.4} {b:>10.4}");
    }
    println!("\nat alpha < 1 (communication matters) the aware placement wins;");
    println!("at alpha = 1 (pure compute) they tie — pick the strategy by the bottleneck.");
}
