//! Local arms: `topology`, `schedule`, `simulate`, `sweep` — everything
//! solved in this process.

use super::{Instance, Network, Schedule, Simulate, Sweep};
use crate::{RoutingKind, ScheduleOutcome, Scheduler, SchedulerOptions};
use commsched_core::Workload;
use commsched_netsim::{paper_sweep, simulate as run_sim, CongestionMode, SweepConfig};
use std::fmt::Write as _;

pub(super) fn topology(network: &Network, save: Option<&str>) -> Result<String, String> {
    let mut out = String::new();
    let topo = network.build()?;
    writeln!(
        out,
        "switches: {}  links: {}  workstations: {}  diameter: {:?}",
        topo.num_switches(),
        topo.num_links(),
        topo.num_hosts(),
        topo.diameter()
    )
    .expect("write to string");
    for l in topo.links() {
        writeln!(out, "{} -- {}", l.a, l.b).expect("write to string");
    }
    if let Some(path) = save {
        std::fs::write(path, commsched_topology::to_text(&topo))
            .map_err(|e| format!("cannot write '{path}': {e}"))?;
        writeln!(out, "saved to {path}").expect("write to string");
    }
    Ok(out)
}

/// Build the local end-to-end pipeline once per invocation — topology,
/// routing, and the table of equivalent distances live in one
/// [`Scheduler`] that every step of the subcommand reuses — and the
/// balanced workload it maps.
fn pipeline(
    instance: &Instance,
    options: SchedulerOptions,
) -> Result<(Scheduler, Workload), String> {
    let topo = instance.network.build()?;
    let sched = Scheduler::with_options(topo, RoutingKind::UpDown { root: 0 }, options)
        .map_err(|e| e.to_string())?;
    let wl = Workload::balanced(sched.topology(), instance.clusters).map_err(|e| e.to_string())?;
    Ok((sched, wl))
}

/// [`pipeline`] at the default options, and the scheduled mapping
/// `simulate` and `sweep` load.
fn scheduled(instance: &Instance) -> Result<(Scheduler, Workload, ScheduleOutcome), String> {
    let (sched, wl) = pipeline(instance, SchedulerOptions::default())?;
    let o = sched
        .schedule(&wl, instance.seed)
        .map_err(|e| e.to_string())?;
    Ok((sched, wl, o))
}

pub(super) fn schedule(cmd: &Schedule) -> Result<String, String> {
    let mut out = String::new();
    let seed = cmd.instance.seed;
    let (sched, wl) = pipeline(&cmd.instance, cmd.options)?;
    let o = sched.schedule(&wl, seed).map_err(|e| e.to_string())?;
    writeln!(out, "partition: {}", o.partition).expect("write to string");
    writeln!(
        out,
        "F_G = {:.6}  D_G = {:.6}  Cc = {:.3}",
        o.quality.fg, o.quality.dg, o.quality.cc
    )
    .expect("write to string");
    if let Some(ml) = &o.ml {
        writeln!(
            out,
            "strategy: multilevel  levels = {}  coarse_n = {}  refine_moves = {}",
            ml.levels, ml.coarse_n, ml.refine_moves
        )
        .expect("write to string");
    }
    Ok(out)
}

/// Render an average latency for humans: `"-"` when nothing was
/// delivered (the accessor hides the NaN), one decimal otherwise.
fn fmt_latency(lat: Option<f64>) -> String {
    lat.map_or_else(|| "-".to_string(), |l| format!("{l:.1}"))
}

pub(super) fn simulate(cmd: &Simulate) -> Result<String, String> {
    let mut out = String::new();
    let sim = cmd.sim;
    let (sched, wl, o) = scheduled(&cmd.instance)?;
    let stats = run_sim(
        sched.topology(),
        sched.routing(),
        o.mapping.host_clusters(),
        sim,
    )
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "scheduled: accepted = {:.4} flits/switch/cycle, latency = {} cycles{}",
        stats.accepted_flits_per_switch_cycle,
        fmt_latency(stats.network_latency()),
        if stats.deadlocked { " [DEADLOCK]" } else { "" }
    )
    .expect("write to string");
    if sim.congestion != CongestionMode::Off || sim.adaptive_misroute {
        writeln!(
            out,
            "congestion ({}{}): ecn_marks = {}  pfc_pauses = {}  \
             pause_cycles = {}  misroutes = {}",
            sim.congestion,
            if sim.adaptive_misroute {
                "+misroute"
            } else {
                ""
            },
            stats.ecn_marks,
            stats.pfc_pauses,
            stats.pfc_pause_cycles,
            stats.misroutes
        )
        .expect("write to string");
    }
    if stats.stalled_flits > 0 {
        writeln!(
            out,
            "stalled: {} flits ({} behind dead links, {} flow-control paused)",
            stats.stalled_flits, stats.stall_dead_link_flits, stats.stall_paused_flits
        )
        .expect("write to string");
    }
    if cmd.compare_random {
        let r = sched
            .random_mapping(&wl, cmd.instance.seed)
            .map_err(|e| e.to_string())?;
        let rs = run_sim(
            sched.topology(),
            sched.routing(),
            r.mapping.host_clusters(),
            sim,
        )
        .map_err(|e| e.to_string())?;
        writeln!(
            out,
            "random:    accepted = {:.4} flits/switch/cycle, latency = {} cycles",
            rs.accepted_flits_per_switch_cycle,
            fmt_latency(rs.network_latency())
        )
        .expect("write to string");
    }
    Ok(out)
}

pub(super) fn sweep(cmd: &Sweep) -> Result<String, String> {
    let mut out = String::new();
    let sim = cmd.sim;
    let (sched, _, o) = scheduled(&cmd.instance)?;
    let (sweep, sat) = paper_sweep(
        sched.topology(),
        sched.routing(),
        o.mapping.host_clusters(),
        sim,
        SweepConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    if sim.congestion != CongestionMode::Off || sim.adaptive_misroute {
        writeln!(
            out,
            "regime: {}{}",
            sim.congestion,
            if sim.adaptive_misroute {
                "+misroute"
            } else {
                ""
            }
        )
        .expect("write to string");
    }
    writeln!(out, "saturation ~ {sat:.3} flits/host/cycle").expect("write to string");
    writeln!(
        out,
        "point  offered(f/host/cy)  accepted(f/sw/cy)  latency(cy)"
    )
    .expect("write to string");
    for (i, p) in sweep.points.iter().enumerate() {
        writeln!(
            out,
            "S{:<5} {:>14.4} {:>18.4} {:>12}",
            i + 1,
            p.rate,
            p.stats.accepted_flits_per_switch_cycle,
            fmt_latency(p.stats.network_latency())
        )
        .expect("write to string");
    }
    Ok(out)
}
