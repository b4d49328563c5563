//! Campus NOW: four departments, four parallel applications.
//!
//! The scenario behind the paper's specially designed 24-switch network
//! (Figure 4): a campus network of four departmental rings joined by a few
//! backbone links. Four research groups each run a 24-process parallel
//! application. A communication-oblivious scheduler scatters each
//! application across departments and melts down the backbone; the
//! communication-aware scheduler recovers the physical rings and keeps all
//! traffic local.
//!
//! This example runs the *full pipeline including the flit-level
//! simulator* and prints the measured throughput of both placements.
//!
//! Run: `cargo run --release --example campus_now`

use commsched::core::Workload;
use commsched::netsim::{paper_sweep, sweep, SimConfig, SweepConfig};
use commsched::topology::designed;
use commsched::{RoutingKind, Scheduler};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topology = designed::paper_24_switch();
    println!(
        "campus backbone: 4 rings x 6 switches, {} workstations",
        topology.num_hosts()
    );

    let scheduler = Scheduler::new(topology, RoutingKind::UpDown { root: 0 })?;
    let workload = Workload::balanced(scheduler.topology(), 4)?;

    let scheduled = scheduler.schedule(&workload, 1)?;
    let random = scheduler.random_mapping(&workload, 3)?;

    println!("\ncommunication-aware placement: {}", scheduled.partition);
    println!("  Cc = {:.3}", scheduled.quality.cc);
    println!("oblivious (random) placement:  {}", random.partition);
    println!("  Cc = {:.3}", random.quality.cc);

    // Simulate both at the same offered loads (9 points to 1.2x the
    // scheduled mapping's saturation).
    let sim = SimConfig {
        warmup_cycles: 1_500,
        measure_cycles: 6_000,
        ..Default::default()
    };
    let (op_sweep, sat) = paper_sweep(
        scheduler.topology(),
        scheduler.routing(),
        scheduled.mapping.host_clusters(),
        sim,
        SweepConfig::default(),
    )?;
    let rates: Vec<f64> = op_sweep.points.iter().map(|p| p.rate).collect();
    let random_sweep = sweep(
        scheduler.topology(),
        scheduler.routing(),
        random.mapping.host_clusters(),
        sim,
        &rates,
        1,
    )?;

    println!("\nsaturation of the scheduled mapping: {sat:.3} flits/host/cycle");
    println!(
        "measured throughput:  scheduled = {:.4}  random = {:.4}  (flits/switch/cycle)",
        op_sweep.throughput(),
        random_sweep.throughput()
    );
    println!(
        "the communication-aware schedule sustains {:.1}x the oblivious throughput",
        op_sweep.throughput() / random_sweep.throughput()
    );
    Ok(())
}
