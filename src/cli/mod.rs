//! Command-line interface plumbing for the `commsched` binary: twelve
//! subcommands, listed with their flags by [`usage`] (`commsched help`).
//! Five solve in this process (`topology`, `schedule`, `simulate`,
//! `sweep`, `scenario`), two become a daemon (`serve`, `cluster`), five
//! talk to one (`submit`, `status`, `metrics`, `faults`, `loadgen`).
//! `schedule` and `sweep` accept `--server host:port` to route through a
//! running daemon (and its distance-table cache) instead of solving
//! locally, and `--trace-out file.jsonl` to record a kernel-level span
//! trace of a local run.
//!
//! Parsing is separated from execution so both halves are unit-testable,
//! and each decision has one owner:
//!
//! * `args` — what a command line means: the consuming argument list (a
//!   subcommand owns its flags, leftovers are errors), the table of
//!   flags only a local run takes, the usage blocks, and [`parse`];
//! * `local` — everything solved in this process;
//! * `remote` — everything said to a daemon: the one path a remote job
//!   takes (`schedule --server`, `sweep --server`, `submit`) and the
//!   other client subcommands;
//! * `daemon` — `serve` and `cluster`;
//! * this file — [`Command`] and [`run`].

mod args;
mod daemon;
mod local;
mod remote;

pub use args::{parse, usage};

use crate::SchedulerOptions;
use commsched_cluster::ClusterConfig;
use commsched_netsim::SimConfig;
use commsched_scenarios::MigrationPolicy;
use commsched_service::loadgen::LoadgenConfig;
use commsched_service::{JobSpec, PersistOptions, ServerConfig, TopoRef};
use commsched_topology::Topology;
use std::fmt::Write as _;

/// A network as the command line names it: a builtin spelling the
/// daemon would also understand, or a file in the
/// `commsched_topology::io` text format.
#[derive(Debug, Clone, PartialEq)]
pub enum Network {
    /// `paper24`, `ring:S:H`, `random:S:D:H:seed`, or (for `faults
    /// --fp`) a fingerprint a daemon issued.
    Named(TopoRef),
    /// Path of a topology file; a remote arm uploads it first.
    File(String),
}

impl Network {
    /// Materialize the topology in this process.
    fn build(&self) -> Result<Topology, String> {
        match self {
            Network::Named(topo) => topo.build(),
            Network::File(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read '{path}': {e}"))?;
                commsched_topology::from_text(&text).map_err(|e| e.to_string())
            }
        }
    }
}

/// What `schedule`, `simulate`, `sweep` and `submit` map: a balanced
/// workload on a network.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Network to map onto.
    pub network: Network,
    /// Number of equal applications.
    pub clusters: usize,
    /// Search seed.
    pub seed: u64,
}

/// `schedule`, solved in this process.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// What to map.
    pub instance: Instance,
    /// Optional per-application traffic weights.
    pub weights: Option<Vec<f64>>,
    /// Mapping strategy and multilevel coarsening target.
    pub options: SchedulerOptions,
    /// Write a JSONL span trace of the run to this path.
    pub trace_out: Option<String>,
}

/// `simulate`: one simulation of the scheduled mapping at a fixed rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Simulate {
    /// What to map.
    pub instance: Instance,
    /// The simulator's defaults with `--rate`, `--vcs`, `--adaptive`,
    /// `--congestion` and `--misroute` applied.
    pub sim: SimConfig,
    /// Compare against a random mapping too.
    pub compare_random: bool,
}

/// `sweep`, run in this process.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// What to map.
    pub instance: Instance,
    /// The simulator's defaults with `--vcs`, `--adaptive`,
    /// `--congestion` and `--misroute` applied.
    pub sim: SimConfig,
    /// Write a JSONL span trace of the run to this path.
    pub trace_out: Option<String>,
}

/// `scenario`: an online workload replayed through the scenario engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Network the scenario runs on.
    pub network: Network,
    /// Arrival source: `poisson:RATE` (jobs/s) or `trace:FILE`.
    pub arrivals: String,
    /// Virtual seconds of arrivals to generate (poisson source).
    pub duration_secs: f64,
    /// Master seed (arrival stream and all remap seeds).
    pub seed: u64,
    /// Migration policy: `off` or `threshold:X`.
    pub migration: MigrationPolicy,
    /// Also run the static-mapping baseline and print the delta.
    pub baseline: bool,
    /// Tabu worker threads (any value gives identical results).
    pub threads: usize,
    /// Communication slowdown weight β in the speed model.
    pub beta: f64,
    /// Write the (generated) trace as JSONL to this path.
    pub dump_trace: Option<String>,
}

/// A job for a daemon: what `schedule --server`, `sweep --server` and
/// `submit` all parse to.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteJob {
    /// Daemon address.
    pub server: String,
    /// Network for the job (a file is uploaded first).
    pub network: Network,
    /// The job as the wire spells it; `topo` is filled in from
    /// `network` when the job is sent.
    pub job: JobSpec,
    /// Wait for the job and print its `RESULT` (`submit` prints the job
    /// id instead).
    pub wait: bool,
}

/// `faults`: one fault event for a daemon-registered topology.
#[derive(Debug, Clone, PartialEq)]
pub struct Faults {
    /// Daemon address.
    pub server: String,
    /// The network the fault applies to: `--fp HEX` or the usual
    /// topology flags.
    pub target: Network,
    /// The event as the wire spells it (`kill=a:b`,
    /// `restore=a:b[:slowdown]`, `switch=s`); validated server-side.
    pub event: String,
}

/// `serve`: the scheduling daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct Serve {
    /// Listen address (`host:port`; port 0 picks an ephemeral one).
    pub addr: String,
    /// Workers, queue and cache sizing, connection limits.
    pub config: ServerConfig,
    /// Where the snapshot + write-ahead log live and how the log is
    /// synced; `None` (`--no-persist`) runs fully in memory.
    pub persist: Option<PersistOptions>,
}

/// A parsed CLI invocation. Where a library struct already lists a
/// subcommand's knobs, that struct is what the command holds.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print usage.
    Help,
    /// Generate and print a topology (optionally saving it to a file).
    Topology {
        /// Network to build.
        network: Network,
        /// Optional path to save the text format to.
        save: Option<String>,
    },
    /// Schedule a balanced workload on a topology.
    Schedule(Schedule),
    /// Run one simulation at a fixed rate.
    Simulate(Simulate),
    /// Run the paper's S1..S9 sweep.
    Sweep(Sweep),
    /// Run an online-workload scenario and print its SLO report.
    Scenario(Scenario),
    /// Send a job to a daemon.
    RemoteJob(RemoteJob),
    /// Query a daemon job's state.
    Status {
        /// Daemon address.
        server: String,
        /// Job id.
        job: u64,
    },
    /// Dump a daemon's metrics in Prometheus text format.
    Metrics {
        /// Daemon address.
        server: String,
    },
    /// Inject a fault into a daemon-registered topology.
    Faults(Faults),
    /// Drive a daemon with an open-loop load and report latency.
    Loadgen {
        /// Daemon address.
        server: String,
        /// Generator settings (connections, rate, batch, duration, mode).
        config: LoadgenConfig,
        /// Optional path to also write the JSON report to.
        out: Option<String>,
    },
    /// Run the scheduling daemon until a client sends `SHUTDOWN`.
    Serve(Serve),
    /// Run one node of a scheduler cluster: the primary or a warm standby.
    Cluster(ClusterConfig),
}

/// Execute a parsed command; returns the text to print.
///
/// # Errors
/// Propagates construction/scheduling/simulation failures as strings.
pub fn run(cmd: &Command) -> Result<String, String> {
    let trace_out = match cmd {
        Command::Schedule(Schedule { trace_out, .. }) | Command::Sweep(Sweep { trace_out, .. }) => {
            trace_out
        }
        _ => &None,
    };
    let Some(path) = trace_out else {
        return run_inner(cmd);
    };
    // Arm tracing only around this invocation; drain whatever the solver
    // kernels recorded (distance builds, tabu search, netsim cycles) and
    // write it as JSON lines, one event per line.
    commsched_telemetry::set_tracing(true);
    let result = run_inner(cmd);
    commsched_telemetry::set_tracing(false);
    let (events, dropped) = commsched_telemetry::trace::drain();
    let mut result = result?;
    let file = std::fs::File::create(path)
        .map_err(|e| format!("cannot create trace file '{path}': {e}"))?;
    commsched_telemetry::trace::export_jsonl(&events, std::io::BufWriter::new(file))
        .map_err(|e| format!("cannot write trace file '{path}': {e}"))?;
    writeln!(
        result,
        "trace: {} events written to {path} ({dropped} dropped)",
        events.len()
    )
    .expect("write to string");
    Ok(result)
}

fn run_inner(cmd: &Command) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(usage(None)),
        Command::Topology { network, save } => local::topology(network, save.as_deref()),
        Command::Schedule(cmd) => local::schedule(cmd),
        Command::Simulate(cmd) => local::simulate(cmd),
        Command::Sweep(cmd) => local::sweep(cmd),
        Command::Scenario(cmd) => local::scenario(cmd),
        Command::RemoteJob(cmd) => remote::job(cmd),
        Command::Status { server, job } => remote::status(server, *job),
        Command::Metrics { server } => remote::metrics(server),
        Command::Faults(cmd) => remote::faults(cmd),
        Command::Loadgen {
            server,
            config,
            out,
        } => remote::loadgen(server, config, out.as_deref()),
        Command::Serve(cmd) => daemon::serve(cmd),
        Command::Cluster(config) => daemon::cluster(config),
    }
}

#[cfg(test)]
mod tests;
