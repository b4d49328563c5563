#![warn(missing_docs)]

//! Flit-level wormhole network simulator (§5's evaluation substrate).
//!
//! The paper evaluates its scheduling technique by simulating irregular
//! switch-based networks at the flit level, following Duato's methodology:
//! wormhole switching, up*/down* routing, fixed-length messages, and
//! intracluster-only traffic. This crate is that simulator:
//!
//! * [`Simulator`]/[`simulate`] — one run at a fixed offered load,
//!   measuring latency (cycles) and accepted traffic (flits per switch per
//!   cycle) over a measurement window after warm-up;
//! * [`TrafficPattern`] — per-workstation logical-cluster labels and
//!   destination sampling (uniform among intracluster peers);
//! * [`sweep()`]/[`paper_sweep`] — the S1..S9 load-sweep protocol of
//!   Figures 3 and 5, including automatic saturation-rate search;
//! * [`CongestionMode`]/[`CongestionControl`] — optional congestion
//!   response (PFC pause, ECN marking, AIMD/DCTCP source windows,
//!   up*/down*-legal adaptive misrouting) for re-running the paper's
//!   comparisons under realistic backpressure.
//!
//! # Example
//!
//! ```
//! use commsched_topology::designed;
//! use commsched_routing::UpDownRouting;
//! use commsched_netsim::{simulate, SimConfig};
//!
//! let topo = designed::ring(4, 2); // 4 switches x 2 workstations
//! let routing = UpDownRouting::new(&topo, 0).unwrap();
//! // Two applications, each on two adjacent switches.
//! let clusters = vec![0, 0, 0, 0, 1, 1, 1, 1];
//! let cfg = SimConfig {
//!     injection_rate: 0.05,
//!     warmup_cycles: 200,
//!     measure_cycles: 1_000,
//!     ..Default::default()
//! };
//! let stats = simulate(&topo, &routing, &clusters, cfg).unwrap();
//! assert!(!stats.deadlocked);
//! ```

pub mod config;
pub mod congestion;
pub mod engine;
pub mod stats;
pub mod sweep;
pub mod traffic;

pub use config::SimConfig;
pub use congestion::{regime_configs, Aimd, CongestionControl, CongestionMode, Dctcp};
pub use engine::{simulate, SimError, Simulator, StallReport};
pub use stats::SimStats;
pub use sweep::{
    find_saturation_rate, paper_sweep, sweep, sweep_rates, LoadSweep, SweepConfig, SweepPoint,
};
pub use traffic::TrafficPattern;
