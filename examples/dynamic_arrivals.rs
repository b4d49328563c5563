//! Online scheduling: applications arrive and depart over time.
//!
//! The paper's §6 leaves "the integration of the proposed scheduling
//! technique with process scheduling" to future work; the scenario
//! engine (`commsched-scenarios`) is that integration. This example
//! replays a small hand-written arrival trace on the paper's 24-switch
//! network (96 workstations) and prints the engine's event log: where
//! each application is admitted, how the warm-started remap re-places
//! it by the communication criterion, a departure, the reuse of the
//! freed switches, a request that has to queue until room appears, and
//! one that can never fit and is rejected.
//!
//! Run: `cargo run --release --example dynamic_arrivals`

use commsched::topology::designed;
use commsched_scenarios::{run_scenario, JobArrival, MigrationPolicy, ScenarioConfig};

/// An application of `tasks` processes talking in a ring, arriving at
/// `t_ms` and needing `run_ms` of communication-free service.
fn app(t_ms: u64, tasks: usize, run_ms: u64) -> JobArrival {
    JobArrival {
        t_us: t_ms * 1000,
        mem: vec![1 << 20; tasks],
        edges: (0..tasks).map(|a| (a, (a + 1) % tasks, 1 << 16)).collect(),
        base_us: run_ms * 1000,
        deadline_us: None,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let names = [
        "render-farm",
        "cfd-solver",
        "db-analytics",
        "notebook",
        "ml-training",
        "too-wide",
        "too-big",
    ];
    let trace = [
        // Morning: three medium applications (24 processes = 6 switches).
        app(0, 24, 400),
        app(1, 24, 100), // the CFD solver finishes first
        app(2, 24, 400),
        // A small interactive job squeezes into the remaining ring.
        app(3, 8, 400),
        // Midday: a large ML job arrives after the CFD solver left and
        // reuses the freed switches.
        app(200, 24, 100),
        // 12 switches while only 4 are idle: waits in the FIFO queue.
        app(201, 48, 50),
        // 25 switches on a 24-switch machine: rejected outright.
        app(202, 100, 50),
    ];
    let mut config = ScenarioConfig::new(designed::paper_24_switch());
    config.migration = MigrationPolicy::Threshold(1.0);
    let report = run_scenario(&config, &trace)?;

    for event in &report.events {
        // `<t_us> <kind> job=<i> ...`: show the application's name.
        let named = event
            .split(' ')
            .map(|word| match word.strip_prefix("job=") {
                Some(i) => i.parse().map_or(word, |i: usize| names[i]),
                None => word,
            });
        println!("{}", named.collect::<Vec<_>>().join(" "));
    }
    println!("\n{report}");
    assert_eq!(
        report.rejected, 1,
        "only the 100-process request is refused"
    );
    assert_eq!(report.queued, 1, "the 48-process request waits its turn");
    assert_eq!(report.completed, 6);
    Ok(())
}
