//! Command-line interface plumbing for the `commsched` binary.
//!
//! Subcommands:
//!
//! * `topology`  — generate a network (random or designed) and print it;
//! * `schedule`  — run the communication-aware scheduler on a network;
//! * `simulate`  — one flit-level simulation at a fixed offered load;
//! * `sweep`     — the paper's S1..S9 load sweep for a mapping;
//! * `serve`     — run the long-running scheduling daemon;
//! * `cluster`   — run one node of a sharded, WAL-replicated cluster;
//! * `submit`    — enqueue a job on a daemon and print its id;
//! * `status`    — poll a daemon job's state;
//! * `metrics`   — dump a daemon's Prometheus-format metrics;
//! * `faults`    — inject a link/switch fault into a daemon's topology,
//!   bumping its epoch and repair-refreshing the cached distance table;
//! * `scenario`  — replay an online workload (Poisson or JSONL trace)
//!   through the deterministic scenario engine and print its SLO report,
//!   optionally against the static-mapping baseline and optionally
//!   mirroring the admitted jobs to a live daemon.
//!
//! `schedule` and `sweep` accept `--server host:port` to route through a
//! running daemon (and its distance-table cache) instead of solving
//! locally, and `--trace-out file.jsonl` to record a kernel-level span
//! trace of a local run. Parsing is hand-rolled (`--flag value` pairs)
//! and separated from execution so both halves are unit-testable.

use crate::{RoutingKind, Scheduler, SchedulerOptions};
use commsched_core::{weighted_similarity_fg, Workload};
use commsched_netsim::{paper_sweep, simulate, CongestionMode, SimConfig, SweepConfig};
use commsched_search::MapStrategy;
use commsched_service::{
    Client, PersistOptions, Server, ServerConfig, ServiceCore, ServiceCoreConfig,
};
use commsched_topology::{designed, random_regular, RandomTopologyConfig, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Duration;

/// What a `submit` invocation asks the daemon to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitKind {
    /// A schedule job.
    Schedule,
    /// A schedule-then-load-sweep job.
    Sweep,
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print usage.
    Help,
    /// Generate and print a topology (optionally saving it to a file).
    Topology {
        /// Network to build.
        spec: TopologySpec,
        /// Optional path to save the text format to.
        save: Option<String>,
    },
    /// Schedule a balanced workload on a topology.
    Schedule {
        /// Network to schedule on.
        topology: TopologySpec,
        /// Number of equal applications.
        clusters: usize,
        /// Search seed.
        seed: u64,
        /// Optional per-application traffic weights.
        weights: Option<Vec<f64>>,
        /// Route through a running daemon instead of solving locally.
        server: Option<String>,
        /// Write a JSONL span trace of the local run to this path.
        trace_out: Option<String>,
        /// Mapping strategy: flat tabu or the multilevel pipeline.
        strategy: MapStrategy,
        /// Multilevel coarsening target (local runs only).
        max_coarse_n: usize,
        /// Approximate-table error budget in millionths (0 = exact).
        approx_eps_micros: u32,
    },
    /// Run one simulation at a fixed rate.
    Simulate {
        /// Network to simulate.
        topology: TopologySpec,
        /// Number of equal applications.
        clusters: usize,
        /// Search seed (the mapping is the scheduled one).
        seed: u64,
        /// Offered load in flits per workstation per cycle.
        rate: f64,
        /// Compare against a random mapping too.
        compare_random: bool,
        /// Virtual channels per physical channel.
        vcs: usize,
        /// Duato's fully adaptive protocol (needs vcs >= 2).
        adaptive: bool,
        /// Congestion regime (off, pfc, ecn-aimd, ecn-dctcp).
        congestion: CongestionMode,
        /// Allow up*/down*-legal adaptive misrouting around hotspots.
        misroute: bool,
    },
    /// Run the paper's S1..S9 sweep.
    Sweep {
        /// Network to sweep.
        topology: TopologySpec,
        /// Number of equal applications.
        clusters: usize,
        /// Search seed.
        seed: u64,
        /// Route through a running daemon instead of solving locally.
        server: Option<String>,
        /// Write a JSONL span trace of the local run to this path.
        trace_out: Option<String>,
        /// Virtual channels per physical channel.
        vcs: usize,
        /// Duato's fully adaptive protocol (needs vcs >= 2).
        adaptive: bool,
        /// Congestion regime (off, pfc, ecn-aimd, ecn-dctcp).
        congestion: CongestionMode,
        /// Allow up*/down*-legal adaptive misrouting around hotspots.
        misroute: bool,
    },
    /// Run the scheduling daemon until a client sends `SHUTDOWN`.
    Serve {
        /// Listen address (`host:port`; port 0 picks an ephemeral one).
        addr: String,
        /// Worker threads.
        workers: usize,
        /// Queue capacity before submissions bounce.
        queue_cap: usize,
        /// Distance-table cache entries.
        cache_cap: usize,
        /// Directory holding the snapshot + write-ahead log.
        state_dir: String,
        /// Run fully in-memory (no WAL, no snapshots, no recovery).
        no_persist: bool,
        /// WAL fsync policy: `always`, `on-ack`, or `never`.
        fsync: commsched_service::FsyncPolicy,
        /// Maximum simultaneous connections (excess get `ERR busy`).
        max_conns: usize,
        /// Close connections idle for this many seconds (0 = never).
        idle_timeout_secs: u64,
    },
    /// Run one node of a sharded scheduler cluster.
    Cluster {
        /// Shard this node serves (primary) or stands by for (follower).
        node_id: u32,
        /// Static member table, identical on every node.
        members: Vec<commsched_cluster::Member>,
        /// Durable state directory (always persistent — replication is
        /// WAL shipping).
        state_dir: String,
        /// Replication strictness (`sync`: acked means replicated).
        repl: commsched_cluster::ReplMode,
        /// Primary: accept followers here (`None` = no replication).
        repl_listen: Option<String>,
        /// Follower: stream the primary's WAL from here, promote when
        /// the primary dies.
        follow: Option<String>,
        /// Worker threads.
        workers: usize,
        /// Queue capacity before submissions bounce.
        queue_cap: usize,
        /// Distance-table cache entries.
        cache_cap: usize,
        /// Virtual points per shard on the hash ring.
        vnodes: usize,
    },
    /// Drive a daemon with an open-loop load and report latency.
    Loadgen {
        /// Daemon address.
        server: String,
        /// Generator settings (connections, rate, batch, duration, mode).
        config: commsched_service::loadgen::LoadgenConfig,
        /// Optional path to also write the JSON report to.
        out: Option<String>,
    },
    /// Enqueue a job on a daemon; prints the job id without waiting.
    Submit {
        /// Daemon address.
        server: String,
        /// Job type.
        kind: SubmitKind,
        /// Network for the job.
        topology: TopologySpec,
        /// Number of equal applications.
        clusters: usize,
        /// Search seed.
        seed: u64,
        /// Sweep points (sweep jobs only).
        points: usize,
        /// Mapping strategy forwarded as `strategy=`.
        strategy: MapStrategy,
        /// Approximate-table budget forwarded as `approx-eps=`.
        approx_eps_micros: u32,
    },
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
    /// Run an online-workload scenario and print its SLO report.
    Scenario {
        /// Network the scenario runs on.
        topology: TopologySpec,
        /// Arrival source: `poisson:RATE` (jobs/s) or `trace:FILE`.
        arrivals: String,
        /// Virtual seconds of arrivals to generate (poisson source).
        duration_secs: f64,
        /// Master seed (arrival stream and all remap seeds).
        seed: u64,
        /// Migration policy: `off` or `threshold:X`.
        migration: commsched_scenarios::MigrationPolicy,
        /// Also run the static-mapping baseline and print the delta.
        baseline: bool,
        /// Mirror the trace to a live daemon as real submissions.
        server: Option<String>,
        /// Tabu worker threads (any value gives identical results).
        threads: usize,
        /// Communication slowdown weight β in the speed model.
        beta: f64,
        /// Write the (generated) trace as JSONL to this path.
        dump_trace: Option<String>,
    },
    /// Inject a fault into a daemon-registered topology.
    Faults {
        /// Daemon address.
        server: String,
        /// Fingerprint reference (`--fp HEX`); when absent, the usual
        /// topology flags name the network instead.
        fp: Option<String>,
        /// Network the fault applies to (ignored when `fp` is set).
        topology: TopologySpec,
        /// The event to inject.
        event: FaultArg,
    },
}

/// One fault event as spelled on the command line; validated server-side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultArg {
    /// `--kill a:b` — take the link between switches `a` and `b` down.
    Kill(String),
    /// `--restore a:b[:slowdown]` — bring a link (back) up.
    Restore(String),
    /// `--down-switch s` — take switch `s` and all its links down.
    DownSwitch(String),
}

impl FaultArg {
    /// The daemon-protocol `key=value` word for this event.
    fn wire_word(&self) -> String {
        match self {
            FaultArg::Kill(v) => format!("kill={v}"),
            FaultArg::Restore(v) => format!("restore={v}"),
            FaultArg::DownSwitch(v) => format!("switch={v}"),
        }
    }
}

/// How to construct the network.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// Random `degree`-regular network.
    Random {
        /// Switch count.
        switches: usize,
        /// Inter-switch degree.
        degree: usize,
        /// Workstations per switch.
        hosts: usize,
        /// Generator seed.
        seed: u64,
    },
    /// The paper's four-rings-of-six network.
    Paper24,
    /// A ring of `n` switches.
    Ring {
        /// Switch count.
        switches: usize,
        /// Workstations per switch.
        hosts: usize,
    },
    /// Load from a topology file (`commsched_topology::io` text format).
    File {
        /// Path to the file.
        path: String,
    },
}

impl TopologySpec {
    /// Materialize the topology.
    ///
    /// # Errors
    /// Random generation can fail for infeasible parameters.
    pub fn build(&self) -> Result<Topology, String> {
        match self {
            &TopologySpec::Random {
                switches,
                degree,
                hosts,
                seed,
            } => {
                let cfg = RandomTopologyConfig {
                    switches,
                    degree,
                    hosts_per_switch: hosts,
                    max_attempts: 10_000,
                };
                let mut rng = StdRng::seed_from_u64(seed);
                random_regular(cfg, &mut rng).map_err(|e| e.to_string())
            }
            TopologySpec::Paper24 => Ok(designed::paper_24_switch()),
            &TopologySpec::Ring { switches, hosts } => {
                designed::try_ring(switches, hosts).map_err(|e| e.to_string())
            }
            TopologySpec::File { ref path } => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read '{path}': {e}"))?;
                commsched_topology::from_text(&text).map_err(|e| e.to_string())
            }
        }
    }

    /// The daemon-protocol `topo=...` argument naming this network.
    /// Builtin specs are spelled inline; a file spec is uploaded over
    /// `client` first and referenced by fingerprint.
    fn remote_arg(&self, client: &mut Client) -> Result<String, String> {
        Ok(match self {
            TopologySpec::Paper24 => "topo=paper24".to_string(),
            &TopologySpec::Ring { switches, hosts } => format!("topo=ring:{switches}:{hosts}"),
            &TopologySpec::Random {
                switches,
                degree,
                hosts,
                seed,
            } => format!("topo=random:{switches}:{degree}:{hosts}:{seed}"),
            TopologySpec::File { .. } => {
                let topo = self.build()?;
                let fp = client.add_topology(&topo).map_err(|e| e.to_string())?;
                format!("topo=fp:{fp:016x}")
            }
        })
    }
}

/// Usage text.
pub const USAGE: &str = "\
commsched — communication-aware task scheduling (ICPP 2000 reproduction)

USAGE:
  commsched topology [--kind random|paper24|ring|file] [--switches N]
                     [--degree D] [--hosts H] [--topo-seed S]
                     [--input FILE] [--save FILE]
  commsched schedule <topology flags> [--clusters M] [--seed S]
                     [--weights w1,w2,...] [--server HOST:PORT]
                     [--trace-out FILE.jsonl]
                     [--strategy flat|multilevel] [--max-coarse-n N]
                     [--approx-eps E]
  commsched simulate <topology flags> [--clusters M] [--seed S] [--rate R]
                     [--compare-random] [--vcs V] [--adaptive]
                     [--congestion off|pfc|ecn-aimd|ecn-dctcp] [--misroute]
  commsched sweep    <topology flags> [--clusters M] [--seed S]
                     [--server HOST:PORT] [--trace-out FILE.jsonl]
                     [--vcs V] [--adaptive]
                     [--congestion off|pfc|ecn-aimd|ecn-dctcp] [--misroute]
  commsched serve    [--addr HOST:PORT] [--workers N] [--queue-cap N]
                     [--cache-cap N] [--state-dir DIR] [--no-persist]
                     [--fsync always|on-ack|never] [--max-conns N]
                     [--idle-timeout SECS]
  commsched submit   --server HOST:PORT [--type schedule|sweep]
                     <topology flags> [--clusters M] [--seed S] [--points P]
                     [--strategy flat|multilevel] [--approx-eps E]
  commsched cluster  --node-id K --members 0=H:P,1=H:P,... [--state-dir DIR]
                     [--repl sync|async] [--repl-listen HOST:PORT]
                     [--follow HOST:PORT] [--workers N] [--queue-cap N]
                     [--cache-cap N] [--vnodes N]
  commsched loadgen  --server HOST:PORT [--connections N] [--rate JOBS_PER_S]
                     [--batch N] [--duration SECS] [--mode line|binary]
                     [--spec 'NOOP'] [--max-in-flight N] [--deadline-ms MS]
                     [--out FILE.json]
  commsched scenario [<topology flags>] [--arrivals poisson:RATE|trace:FILE]
                     [--duration SECS] [--seed S]
                     [--migration off|threshold:X] [--baseline]
                     [--server HOST:PORT] [--threads N] [--beta B]
                     [--dump-trace FILE.jsonl]
  commsched status   --server HOST:PORT --job ID
  commsched metrics  --server HOST:PORT
  commsched faults   --server HOST:PORT (--fp HEX | <topology flags>)
                     (--kill A:B | --restore A:B[:SLOWDOWN] | --down-switch S)
  commsched help

DEFAULTS: --kind random --switches 16 --degree 3 --hosts 4 --topo-seed 2000
          --clusters 4 --seed 42 --rate 0.1 --vcs 1 --congestion off
          --addr 127.0.0.1:7477
          --strategy flat --max-coarse-n 256 --approx-eps 0 (exact table)
          --state-dir commsched-state --fsync on-ack --max-conns 10240
          loadgen: --connections 16 --rate 1000 --batch 1 --duration 5
          scenario: --kind paper24 --arrivals poisson:50 --duration 10
                    --migration off --threads 1 --beta 3
";

/// Render an average latency for humans: `"-"` when nothing was
/// delivered (the accessor hides the NaN), one decimal otherwise.
fn fmt_latency(lat: Option<f64>) -> String {
    lat.map_or_else(|| "-".to_string(), |l| format!("{l:.1}"))
}

fn parse_flags(args: &[String]) -> Result<std::collections::HashMap<String, String>, String> {
    let mut map = std::collections::HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument '{a}'"));
        };
        if key == "compare-random"
            || key == "adaptive"
            || key == "misroute"
            || key == "no-persist"
            || key == "baseline"
        {
            map.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            return Err(format!("flag --{key} needs a value"));
        };
        map.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(map)
}

fn parse_topology(
    flags: &std::collections::HashMap<String, String>,
) -> Result<TopologySpec, String> {
    let get = |k: &str, d: &str| flags.get(k).cloned().unwrap_or_else(|| d.to_string());
    let kind = get("kind", "random");
    let switches: usize = get("switches", "16")
        .parse()
        .map_err(|_| "bad --switches")?;
    let hosts: usize = get("hosts", "4").parse().map_err(|_| "bad --hosts")?;
    match kind.as_str() {
        "random" => Ok(TopologySpec::Random {
            switches,
            degree: get("degree", "3").parse().map_err(|_| "bad --degree")?,
            hosts,
            seed: get("topo-seed", "2000")
                .parse()
                .map_err(|_| "bad --topo-seed")?,
        }),
        "paper24" => Ok(TopologySpec::Paper24),
        "ring" => Ok(TopologySpec::Ring { switches, hosts }),
        "file" => Ok(TopologySpec::File {
            path: flags
                .get("input")
                .cloned()
                .ok_or("kind 'file' needs --input <path>")?,
        }),
        other => Err(format!("unknown topology kind '{other}'")),
    }
}

/// Parse the scale flags shared by `schedule` and `submit`:
/// `--strategy`, `--max-coarse-n`, `--approx-eps` (a fraction, stored in
/// millionths so the spec stays integral end to end).
fn parse_scale_flags(
    flags: &std::collections::HashMap<String, String>,
) -> Result<(MapStrategy, usize, u32), String> {
    let get = |k: &str, d: &str| flags.get(k).cloned().unwrap_or_else(|| d.to_string());
    let strategy: MapStrategy = get("strategy", "flat").parse()?;
    let max_coarse_n: usize = get("max-coarse-n", "256")
        .parse()
        .map_err(|_| "bad --max-coarse-n")?;
    let eps: f64 = get("approx-eps", "0")
        .parse()
        .map_err(|_| "bad --approx-eps")?;
    if !eps.is_finite() || eps < 0.0 {
        return Err("bad --approx-eps (need a finite fraction >= 0)".into());
    }
    Ok((
        strategy,
        max_coarse_n,
        commsched_distance::eps_to_micros(eps),
    ))
}

/// Parse an argument list (without the program name).
///
/// # Errors
/// Returns a human-readable message on malformed input.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    let flags = parse_flags(&args[1..])?;
    let get = |k: &str, d: &str| flags.get(k).cloned().unwrap_or_else(|| d.to_string());
    let clusters: usize = get("clusters", "4").parse().map_err(|_| "bad --clusters")?;
    let seed: u64 = get("seed", "42").parse().map_err(|_| "bad --seed")?;
    let server = flags.get("server").cloned();
    let trace_out = flags.get("trace-out").cloned();
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "topology" => Ok(Command::Topology {
            spec: parse_topology(&flags)?,
            save: flags.get("save").cloned(),
        }),
        "schedule" => {
            let (strategy, max_coarse_n, approx_eps_micros) = parse_scale_flags(&flags)?;
            Ok(Command::Schedule {
                topology: parse_topology(&flags)?,
                clusters,
                seed,
                weights: match flags.get("weights") {
                    None => None,
                    Some(ws) => Some(
                        ws.split(',')
                            .map(|w| w.parse::<f64>().map_err(|_| "bad --weights".to_string()))
                            .collect::<Result<Vec<_>, _>>()?,
                    ),
                },
                server,
                trace_out,
                strategy,
                max_coarse_n,
                approx_eps_micros,
            })
        }
        "simulate" => Ok(Command::Simulate {
            topology: parse_topology(&flags)?,
            clusters,
            seed,
            rate: get("rate", "0.1").parse().map_err(|_| "bad --rate")?,
            compare_random: flags.contains_key("compare-random"),
            vcs: get("vcs", "1").parse().map_err(|_| "bad --vcs")?,
            adaptive: flags.contains_key("adaptive"),
            congestion: CongestionMode::parse(&get("congestion", "off"))?,
            misroute: flags.contains_key("misroute"),
        }),
        "sweep" => Ok(Command::Sweep {
            topology: parse_topology(&flags)?,
            clusters,
            seed,
            server,
            trace_out,
            vcs: get("vcs", "1").parse().map_err(|_| "bad --vcs")?,
            adaptive: flags.contains_key("adaptive"),
            congestion: CongestionMode::parse(&get("congestion", "off"))?,
            misroute: flags.contains_key("misroute"),
        }),
        "serve" => Ok(Command::Serve {
            addr: get("addr", "127.0.0.1:7477"),
            workers: get("workers", "2").parse().map_err(|_| "bad --workers")?,
            queue_cap: get("queue-cap", "16")
                .parse()
                .map_err(|_| "bad --queue-cap")?,
            cache_cap: get("cache-cap", "8")
                .parse()
                .map_err(|_| "bad --cache-cap")?,
            state_dir: get("state-dir", "commsched-state"),
            no_persist: flags.contains_key("no-persist"),
            fsync: match get("fsync", "on-ack").as_str() {
                "always" => commsched_service::FsyncPolicy::Always,
                "on-ack" => commsched_service::FsyncPolicy::OnAck,
                "never" => commsched_service::FsyncPolicy::Never,
                other => return Err(format!("bad --fsync '{other}' (always|on-ack|never)")),
            },
            max_conns: get("max-conns", "10240")
                .parse()
                .map_err(|_| "bad --max-conns")?,
            idle_timeout_secs: get("idle-timeout", "0")
                .parse()
                .map_err(|_| "bad --idle-timeout")?,
        }),
        "cluster" => Ok(Command::Cluster {
            node_id: get("node-id", "")
                .parse()
                .map_err(|_| "cluster needs --node-id <shard>")?,
            members: commsched_cluster::parse_members(
                flags
                    .get("members")
                    .ok_or("cluster needs --members shard=addr,...")?,
            )?,
            state_dir: get("state-dir", "commsched-cluster-state"),
            repl: commsched_cluster::ReplMode::parse(&get("repl", "sync"))?,
            repl_listen: flags.get("repl-listen").cloned(),
            follow: flags.get("follow").cloned(),
            workers: get("workers", "2").parse().map_err(|_| "bad --workers")?,
            queue_cap: get("queue-cap", "16")
                .parse()
                .map_err(|_| "bad --queue-cap")?,
            cache_cap: get("cache-cap", "8")
                .parse()
                .map_err(|_| "bad --cache-cap")?,
            vnodes: get("vnodes", "128").parse().map_err(|_| "bad --vnodes")?,
        }),
        "loadgen" => Ok(Command::Loadgen {
            server: server.ok_or("loadgen needs --server <host:port>")?,
            config: commsched_service::loadgen::LoadgenConfig {
                connections: get("connections", "16")
                    .parse()
                    .map_err(|_| "bad --connections")?,
                rate: get("rate", "1000").parse().map_err(|_| "bad --rate")?,
                batch: get("batch", "1").parse().map_err(|_| "bad --batch")?,
                duration: Duration::from_secs_f64(
                    get("duration", "5").parse().map_err(|_| "bad --duration")?,
                ),
                mode: commsched_service::loadgen::WireMode::parse(&get("mode", "line"))?,
                spec: get("spec", "NOOP"),
                max_in_flight: get("max-in-flight", "0")
                    .parse()
                    .map_err(|_| "bad --max-in-flight")?,
                deadline_ms: match flags.get("deadline-ms") {
                    None => None,
                    Some(v) => Some(v.parse().map_err(|_| "bad --deadline-ms")?),
                },
            },
            out: flags.get("out").cloned(),
        }),
        "scenario" => Ok(Command::Scenario {
            // An online scenario defaults to the paper's network unless
            // topology flags say otherwise.
            topology: if flags.contains_key("kind") {
                parse_topology(&flags)?
            } else {
                TopologySpec::Paper24
            },
            arrivals: get("arrivals", "poisson:50"),
            duration_secs: {
                let d: f64 = get("duration", "10")
                    .parse()
                    .map_err(|_| "bad --duration")?;
                if !d.is_finite() || d <= 0.0 {
                    return Err("bad --duration (need seconds > 0)".into());
                }
                d
            },
            seed,
            migration: commsched_scenarios::MigrationPolicy::parse(&get("migration", "off"))?,
            baseline: flags.contains_key("baseline"),
            server,
            threads: get("threads", "1").parse().map_err(|_| "bad --threads")?,
            beta: {
                let b: f64 = get("beta", "3").parse().map_err(|_| "bad --beta")?;
                if !b.is_finite() || b < 0.0 {
                    return Err("bad --beta (need a finite weight >= 0)".into());
                }
                b
            },
            dump_trace: flags.get("dump-trace").cloned(),
        }),
        "submit" => {
            let (strategy, max_coarse_n, approx_eps_micros) = parse_scale_flags(&flags)?;
            if max_coarse_n != SchedulerOptions::default().max_coarse_n {
                return Err(
                    "--max-coarse-n is local-only: the daemon always uses its default".into(),
                );
            }
            Ok(Command::Submit {
                server: server.ok_or("submit needs --server <host:port>")?,
                kind: match get("type", "schedule").as_str() {
                    "schedule" => SubmitKind::Schedule,
                    "sweep" => SubmitKind::Sweep,
                    other => return Err(format!("unknown job type '{other}'")),
                },
                topology: parse_topology(&flags)?,
                clusters,
                seed,
                points: get("points", "9").parse().map_err(|_| "bad --points")?,
                strategy,
                approx_eps_micros,
            })
        }
        "status" => Ok(Command::Status {
            server: server.ok_or("status needs --server <host:port>")?,
            job: get("job", "")
                .parse()
                .map_err(|_| "status needs --job <id>")?,
        }),
        "metrics" => Ok(Command::Metrics {
            server: server.ok_or("metrics needs --server <host:port>")?,
        }),
        "faults" => {
            let events: Vec<FaultArg> = [
                flags.get("kill").cloned().map(FaultArg::Kill),
                flags.get("restore").cloned().map(FaultArg::Restore),
                flags.get("down-switch").cloned().map(FaultArg::DownSwitch),
            ]
            .into_iter()
            .flatten()
            .collect();
            let [event] = <[FaultArg; 1]>::try_from(events).map_err(|_| {
                "faults needs exactly one of --kill, --restore, --down-switch".to_string()
            })?;
            Ok(Command::Faults {
                server: server.ok_or("faults needs --server <host:port>")?,
                fp: flags.get("fp").cloned(),
                topology: parse_topology(&flags)?,
                event,
            })
        }
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

/// Build the local end-to-end pipeline once per invocation: topology,
/// routing, and the table of equivalent distances live in one
/// [`Scheduler`] that every step of the subcommand reuses.
fn build_scheduler(spec: &TopologySpec, options: SchedulerOptions) -> Result<Scheduler, String> {
    let topo = spec.build()?;
    Scheduler::with_options(topo, RoutingKind::UpDown { root: 0 }, options)
        .map_err(|e| e.to_string())
}

/// Extra `key=value` words forwarding non-default scale flags to a
/// daemon's job spec.
fn remote_scale_args(strategy: MapStrategy, approx_eps_micros: u32) -> String {
    let mut extra = String::new();
    if strategy != MapStrategy::Flat {
        write!(extra, " strategy={strategy}").expect("write to string");
    }
    if approx_eps_micros > 0 {
        write!(extra, " approx-eps={}", f64::from(approx_eps_micros) / 1e6)
            .expect("write to string");
    }
    extra
}

/// Materialize a scenario arrival stream from its CLI spelling:
/// `poisson:RATE` generates the skewed synthetic mix sized to the
/// topology; `trace:FILE` replays a JSONL file.
fn build_scenario_trace(
    arrivals: &str,
    topo: &Topology,
    duration_secs: f64,
    seed: u64,
) -> Result<Vec<commsched_scenarios::JobArrival>, String> {
    if let Some(rate) = arrivals.strip_prefix("poisson:") {
        let rate: f64 = rate
            .parse()
            .map_err(|_| format!("bad poisson rate '{rate}'"))?;
        if !rate.is_finite() || rate <= 0.0 {
            return Err("poisson rate must be > 0 jobs/s".into());
        }
        let shape = commsched_scenarios::WorkloadShape::skewed(
            topo.num_switches(),
            topo.hosts_per_switch(),
        );
        let duration_us = (duration_secs * 1e6) as u64;
        return Ok(commsched_scenarios::poisson_trace(
            rate,
            duration_us,
            seed,
            &shape,
        ));
    }
    if let Some(path) = arrivals.strip_prefix("trace:") {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
        return commsched_scenarios::parse_trace(&text).map_err(|e| e.to_string());
    }
    Err(format!(
        "bad --arrivals '{arrivals}' (expected poisson:RATE | trace:FILE)"
    ))
}

/// Mirror a scenario trace to a live daemon: every arrival becomes a
/// real `NOOP` submission carrying its memory demand and (relative)
/// deadline, batched over one connection, then awaited. Returns how
/// many ran to `done`.
fn mirror_scenario_trace(
    server: &str,
    trace: &[commsched_scenarios::JobArrival],
) -> Result<u64, String> {
    let mut client =
        Client::connect(server).map_err(|e| format!("cannot reach server '{server}': {e}"))?;
    let specs: Vec<String> = trace
        .iter()
        .map(|a| {
            let mut spec = "NOOP".to_string();
            if let Some(d) = a.deadline_us {
                let rel_ms = d.saturating_sub(a.t_us).div_ceil(1000).max(1);
                write!(spec, " deadline-ms={rel_ms}").expect("write to string");
            }
            let mem = a.total_mem();
            if mem > 0 {
                write!(spec, " mem={mem}").expect("write to string");
            }
            spec
        })
        .collect();
    let acks = client.submit_batch(&specs).map_err(|e| e.to_string())?;
    let mut done = 0u64;
    for ack in acks {
        let id = ack.map_err(|e| format!("daemon rejected mirrored job: {e}"))?;
        let state = client
            .wait(id, Duration::from_millis(5))
            .map_err(|e| e.to_string())?;
        if state == "done" {
            done += 1;
        }
    }
    Ok(done)
}

/// Submit over the wire, wait, and return the result payload lines.
fn run_remote_job(
    server: &str,
    topology: &TopologySpec,
    kind_word: &str,
    args: &str,
) -> Result<Vec<String>, String> {
    let mut client =
        Client::connect(server).map_err(|e| format!("cannot reach server '{server}': {e}"))?;
    let topo_arg = topology.remote_arg(&mut client)?;
    let job = client
        .submit_raw(&format!("{kind_word} {topo_arg} {args}"))
        .map_err(|e| e.to_string())?;
    let state = client
        .wait(job, Duration::from_millis(50))
        .map_err(|e| e.to_string())?;
    if state != "done" {
        return Err(format!("job {job} ended {state}"));
    }
    client.result(job).map_err(|e| e.to_string())
}

/// Execute a parsed command; returns the text to print.
///
/// # Errors
/// Propagates construction/scheduling/simulation failures as strings.
pub fn run(cmd: &Command) -> Result<String, String> {
    let trace_out = match cmd {
        Command::Schedule { trace_out, .. } | Command::Sweep { trace_out, .. } => trace_out.clone(),
        _ => None,
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
    let file = std::fs::File::create(&path)
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
    let mut out = String::new();
    match cmd {
        Command::Help => out.push_str(USAGE),
        Command::Topology { spec, save } => {
            let topo = spec.build()?;
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
        }
        Command::Schedule {
            topology,
            clusters,
            seed,
            weights,
            server,
            trace_out: _,
            strategy,
            max_coarse_n,
            approx_eps_micros,
        } => {
            if let Some(server) = server {
                if weights.is_some() {
                    return Err("--weights is not supported with --server".into());
                }
                // No wire key carries it: accepting the flag would silently
                // drop it.
                if *max_coarse_n != SchedulerOptions::default().max_coarse_n {
                    return Err(
                        "--max-coarse-n is local-only: the daemon always uses its default".into(),
                    );
                }
                let extra = remote_scale_args(*strategy, *approx_eps_micros);
                let lines = run_remote_job(
                    server,
                    topology,
                    "SCHEDULE",
                    &format!("clusters={clusters} seed={seed}{extra}"),
                )?;
                for l in lines {
                    writeln!(out, "{l}").expect("write to string");
                }
                return Ok(out);
            }
            let options = SchedulerOptions {
                strategy: *strategy,
                max_coarse_n: *max_coarse_n,
                approx_eps_micros: *approx_eps_micros,
            };
            let sched = build_scheduler(topology, options)?;
            let wl = Workload::balanced(sched.topology(), *clusters).map_err(|e| e.to_string())?;
            match weights {
                None => {
                    let o = sched.schedule(&wl, *seed).map_err(|e| e.to_string())?;
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
                    if let Some(rep) = sched.approx_report() {
                        writeln!(
                            out,
                            "approx table: eps = {}  err_max = {:.3e}  pairs = {}  escalated = {}",
                            rep.eps, rep.err_max, rep.pairs_approximated, rep.pairs_escalated
                        )
                        .expect("write to string");
                    }
                }
                Some(ws) => {
                    if ws.len() != wl.clusters.len() {
                        return Err("need one weight per cluster".into());
                    }
                    let o = sched
                        .schedule_weighted(&wl, ws, *seed)
                        .map_err(|e| e.to_string())?;
                    writeln!(out, "partition: {}", o.partition).expect("write to string");
                    writeln!(
                        out,
                        "weighted F_G = {:.6}",
                        weighted_similarity_fg(&o.partition, sched.table(), ws)
                    )
                    .expect("write to string");
                }
            }
        }
        Command::Simulate {
            topology,
            clusters,
            seed,
            rate,
            compare_random,
            vcs,
            adaptive,
            congestion,
            misroute,
        } => {
            let sched = build_scheduler(topology, SchedulerOptions::default())?;
            let wl = Workload::balanced(sched.topology(), *clusters).map_err(|e| e.to_string())?;
            let o = sched.schedule(&wl, *seed).map_err(|e| e.to_string())?;
            let cfg = SimConfig {
                virtual_channels: *vcs,
                fully_adaptive: *adaptive,
                congestion: *congestion,
                adaptive_misroute: *misroute,
                ..SimConfig::default().with_rate(*rate)
            };
            let stats = simulate(
                sched.topology(),
                sched.routing(),
                o.mapping.host_clusters(),
                cfg,
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
            if *congestion != CongestionMode::Off || *misroute {
                writeln!(
                    out,
                    "congestion ({congestion}{}): ecn_marks = {}  pfc_pauses = {}  \
                     pause_cycles = {}  misroutes = {}",
                    if *misroute { "+misroute" } else { "" },
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
            if *compare_random {
                let r = sched
                    .random_mapping(&wl, *seed)
                    .map_err(|e| e.to_string())?;
                let rs = simulate(
                    sched.topology(),
                    sched.routing(),
                    r.mapping.host_clusters(),
                    cfg,
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
        }
        Command::Sweep {
            topology,
            clusters,
            seed,
            server,
            trace_out: _,
            vcs,
            adaptive,
            congestion,
            misroute,
        } => {
            if let Some(server) = server {
                if *congestion != CongestionMode::Off || *misroute || *adaptive || *vcs != 1 {
                    return Err("--congestion/--misroute/--adaptive/--vcs are local-only; \
                         drop --server to use them"
                        .into());
                }
                let lines = run_remote_job(
                    server,
                    topology,
                    "SWEEP",
                    &format!("clusters={clusters} seed={seed}"),
                )?;
                for l in lines {
                    writeln!(out, "{l}").expect("write to string");
                }
                return Ok(out);
            }
            let sched = build_scheduler(topology, SchedulerOptions::default())?;
            let wl = Workload::balanced(sched.topology(), *clusters).map_err(|e| e.to_string())?;
            let o = sched.schedule(&wl, *seed).map_err(|e| e.to_string())?;
            let cfg = SimConfig {
                virtual_channels: *vcs,
                fully_adaptive: *adaptive,
                congestion: *congestion,
                adaptive_misroute: *misroute,
                ..SimConfig::default()
            };
            let (sweep, sat) = paper_sweep(
                sched.topology(),
                sched.routing(),
                o.mapping.host_clusters(),
                cfg,
                SweepConfig::default(),
            )
            .map_err(|e| e.to_string())?;
            if *congestion != CongestionMode::Off || *misroute {
                writeln!(
                    out,
                    "regime: {congestion}{}",
                    if *misroute { "+misroute" } else { "" }
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
        }
        Command::Serve {
            addr,
            workers,
            queue_cap,
            cache_cap,
            state_dir,
            no_persist,
            fsync,
            max_conns,
            idle_timeout_secs,
        } => {
            let core_config = ServiceCoreConfig {
                queue_capacity: *queue_cap,
                cache_capacity: *cache_cap,
                ..Default::default()
            };
            let net = commsched_net::NetConfig {
                max_connections: *max_conns,
                idle_timeout: (*idle_timeout_secs > 0)
                    .then(|| Duration::from_secs(*idle_timeout_secs)),
                ..Default::default()
            };
            let handle = if *no_persist {
                let config = ServerConfig {
                    workers: *workers,
                    core: core_config,
                    net,
                };
                Server::bind(addr.as_str(), config).map_err(|e| e.to_string())?
            } else {
                let (core, report) =
                    ServiceCore::recover(core_config, PersistOptions::new(state_dir).fsync(*fsync))
                        .map_err(|e| format!("cannot recover state from '{state_dir}': {e}"))?;
                println!(
                    "recovered from {state_dir}: {} jobs requeued, {} topologies, \
                     {} cached tables ({} snapshot + {} wal records{})",
                    report.recovered_jobs,
                    report.recovered_topologies,
                    report.restored_tables,
                    report.snapshot_records,
                    report.wal_records,
                    if report.torn_tail {
                        ", torn wal tail"
                    } else {
                        ""
                    }
                );
                Server::bind_with_core(
                    addr.as_str(),
                    *workers,
                    net,
                    std::sync::Arc::new(core),
                    None,
                )
                .map_err(|e| e.to_string())?
            };
            // Print immediately: clients need the (possibly ephemeral)
            // port while the daemon blocks below.
            println!("commsched-service listening on {}", handle.addr());
            handle.join();
            writeln!(out, "server drained and stopped").expect("write to string");
        }
        Command::Submit {
            server,
            kind,
            topology,
            clusters,
            seed,
            points,
            strategy,
            approx_eps_micros,
        } => {
            let mut client = Client::connect(server.as_str())
                .map_err(|e| format!("cannot reach server '{server}': {e}"))?;
            let topo_arg = topology.remote_arg(&mut client)?;
            let extra = remote_scale_args(*strategy, *approx_eps_micros);
            let line = match kind {
                SubmitKind::Schedule => {
                    format!("SCHEDULE {topo_arg} clusters={clusters} seed={seed}{extra}")
                }
                SubmitKind::Sweep => {
                    format!(
                        "SWEEP {topo_arg} clusters={clusters} seed={seed} points={points}{extra}"
                    )
                }
            };
            let job = client.submit_raw(&line).map_err(|e| e.to_string())?;
            writeln!(out, "job {job}").expect("write to string");
        }
        Command::Cluster {
            node_id,
            members,
            state_dir,
            repl,
            repl_listen,
            follow,
            workers,
            queue_cap,
            cache_cap,
            vnodes,
        } => {
            let mut config =
                commsched_cluster::ClusterConfig::new(*node_id, members.clone(), state_dir);
            config.repl = *repl;
            config.repl_listen = repl_listen.clone();
            config.follow = follow.clone();
            config.workers = *workers;
            config.vnodes = *vnodes;
            config.core = ServiceCoreConfig {
                queue_capacity: *queue_cap,
                cache_capacity: *cache_cap,
                ..Default::default()
            };
            if follow.is_some() {
                // Standby: stream the primary's WAL; when the primary
                // dies, promote and keep serving until shutdown.
                println!(
                    "commsched-cluster node {node_id} following {}",
                    follow.as_deref().unwrap_or_default()
                );
                let stop = std::sync::atomic::AtomicBool::new(false);
                let progress = std::sync::Arc::new(commsched_cluster::FollowerProgress::default());
                match commsched_cluster::follow_and_promote(&config, &stop, &progress)? {
                    None => {
                        writeln!(out, "follower stopped before promotion").expect("write to string")
                    }
                    Some(node) => {
                        println!(
                            "commsched-cluster node {node_id} promoted, listening on {}",
                            node.addr()
                        );
                        node.join();
                        writeln!(out, "promoted node drained and stopped")
                            .expect("write to string");
                    }
                }
            } else {
                let node = commsched_cluster::start_primary(&config)?;
                println!(
                    "recovered from {state_dir}: {} jobs requeued, {} topologies",
                    node.recovery.recovered_jobs, node.recovery.recovered_topologies
                );
                if let Some(hub) = node.hub() {
                    println!("replication listening on {}", hub.listen_addr());
                }
                println!(
                    "commsched-cluster node {node_id} primary listening on {}",
                    node.addr()
                );
                node.join();
                writeln!(out, "cluster node drained and stopped").expect("write to string");
            }
        }
        Command::Loadgen {
            server,
            config,
            out: out_path,
        } => {
            let report = commsched_service::loadgen::run(server.as_str(), config)?;
            let json = report.to_json();
            if let Some(path) = out_path {
                std::fs::write(path, format!("{json}\n"))
                    .map_err(|e| format!("cannot write '{path}': {e}"))?;
            }
            writeln!(out, "{json}").expect("write to string");
        }
        Command::Status { server, job } => {
            let mut client = Client::connect(server.as_str())
                .map_err(|e| format!("cannot reach server '{server}': {e}"))?;
            let state = client.status(*job).map_err(|e| e.to_string())?;
            writeln!(out, "job {job}: {state}").expect("write to string");
        }
        Command::Metrics { server } => {
            let mut client = Client::connect(server.as_str())
                .map_err(|e| format!("cannot reach server '{server}': {e}"))?;
            for l in client.metrics().map_err(|e| e.to_string())? {
                writeln!(out, "{l}").expect("write to string");
            }
        }
        Command::Scenario {
            topology,
            arrivals,
            duration_secs,
            seed,
            migration,
            baseline,
            server,
            threads,
            beta,
            dump_trace,
        } => {
            let topo = topology.build()?;
            let trace = build_scenario_trace(arrivals, &topo, *duration_secs, *seed)?;
            if let Some(path) = dump_trace {
                std::fs::write(path, commsched_scenarios::format_trace(&trace))
                    .map_err(|e| format!("cannot write '{path}': {e}"))?;
                writeln!(out, "trace: {} arrivals written to {path}", trace.len())
                    .expect("write to string");
            }
            let mut cfg = commsched_scenarios::ScenarioConfig::new(topo);
            cfg.migration = *migration;
            cfg.seed = *seed;
            cfg.threads = *threads;
            cfg.beta = *beta;
            let report =
                commsched_scenarios::run_scenario(&cfg, &trace).map_err(|e| e.to_string())?;
            if *baseline {
                let mut base_cfg = cfg.clone();
                base_cfg.migration = commsched_scenarios::MigrationPolicy::Off;
                let base = commsched_scenarios::run_scenario(&base_cfg, &trace)
                    .map_err(|e| e.to_string())?;
                writeln!(out, "--- baseline (static mapping) ---").expect("write to string");
                writeln!(out, "{base}").expect("write to string");
                writeln!(out, "--- scenario ({}) ---", cfg.migration).expect("write to string");
                writeln!(out, "{report}").expect("write to string");
                writeln!(
                    out,
                    "compare attainment={:.2}% vs baseline {:.2}% ({:+.2} pp)  \
                     p99={}us vs {}us  makespan={}us vs {}us",
                    report.deadline_attainment() * 100.0,
                    base.deadline_attainment() * 100.0,
                    (report.deadline_attainment() - base.deadline_attainment()) * 100.0,
                    report.response_p99_us,
                    base.response_p99_us,
                    report.makespan_us,
                    base.makespan_us,
                )
                .expect("write to string");
            } else {
                writeln!(out, "{report}").expect("write to string");
            }
            if let Some(server) = server {
                let acked = mirror_scenario_trace(server, &trace)?;
                writeln!(
                    out,
                    "daemon mirror: {acked}/{} jobs done on {server}",
                    trace.len()
                )
                .expect("write to string");
            }
        }
        Command::Faults {
            server,
            fp,
            topology,
            event,
        } => {
            let mut client = Client::connect(server.as_str())
                .map_err(|e| format!("cannot reach server '{server}': {e}"))?;
            let topo_arg = match fp {
                Some(hex) => format!("topo=fp:{hex}"),
                None => topology.remote_arg(&mut client)?,
            };
            let lines = client
                .fault_raw(&format!("{topo_arg} {}", event.wire_word()))
                .map_err(|e| e.to_string())?;
            for l in lines {
                writeln!(out, "{l}").expect("write to string");
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_args_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
    }

    #[test]
    fn parse_topology_defaults() {
        let cmd = parse(&argv("topology")).unwrap();
        assert_eq!(
            cmd,
            Command::Topology {
                spec: TopologySpec::Random {
                    switches: 16,
                    degree: 3,
                    hosts: 4,
                    seed: 2000
                },
                save: None,
            }
        );
    }

    #[test]
    fn parse_schedule_with_weights() {
        let cmd = parse(&argv(
            "schedule --kind paper24 --clusters 4 --seed 7 --weights 10,1,1,1",
        ))
        .unwrap();
        match cmd {
            Command::Schedule {
                topology,
                clusters,
                seed,
                weights,
                server,
                trace_out,
                strategy,
                max_coarse_n,
                approx_eps_micros,
            } => {
                assert_eq!(topology, TopologySpec::Paper24);
                assert_eq!(clusters, 4);
                assert_eq!(seed, 7);
                assert_eq!(weights, Some(vec![10.0, 1.0, 1.0, 1.0]));
                assert_eq!(server, None);
                assert_eq!(trace_out, None);
                assert_eq!(strategy, MapStrategy::Flat);
                assert_eq!(max_coarse_n, 256);
                assert_eq!(approx_eps_micros, 0);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parse_scale_flags_round_trip() {
        match parse(&argv(
            "schedule --kind ring --switches 16 --strategy multilevel \
             --max-coarse-n 8 --approx-eps 0.05",
        ))
        .unwrap()
        {
            Command::Schedule {
                strategy,
                max_coarse_n,
                approx_eps_micros,
                ..
            } => {
                assert_eq!(strategy, MapStrategy::Multilevel);
                assert_eq!(max_coarse_n, 8);
                assert_eq!(approx_eps_micros, 50_000);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Submit forwards the same flags.
        match parse(&argv(
            "submit --server h:1 --kind paper24 --strategy multilevel --approx-eps 0.1",
        ))
        .unwrap()
        {
            Command::Submit {
                strategy,
                approx_eps_micros,
                ..
            } => {
                assert_eq!(strategy, MapStrategy::Multilevel);
                assert_eq!(approx_eps_micros, 100_000);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("schedule --strategy hierarchical")).is_err());
        assert!(parse(&argv("schedule --approx-eps -0.5")).is_err());
        assert!(parse(&argv("schedule --approx-eps nan")).is_err());
    }

    #[test]
    fn parse_server_subcommands() {
        assert_eq!(
            parse(&argv("serve --addr 127.0.0.1:0 --workers 3")).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                workers: 3,
                queue_cap: 16,
                cache_cap: 8,
                state_dir: "commsched-state".into(),
                no_persist: false,
                fsync: commsched_service::FsyncPolicy::OnAck,
                max_conns: 10240,
                idle_timeout_secs: 0,
            }
        );
        assert_eq!(
            parse(&argv(
                "serve --state-dir /tmp/cs-state --no-persist --fsync never \
                 --max-conns 64 --idle-timeout 30"
            ))
            .unwrap(),
            Command::Serve {
                addr: "127.0.0.1:7477".into(),
                workers: 2,
                queue_cap: 16,
                cache_cap: 8,
                state_dir: "/tmp/cs-state".into(),
                no_persist: true,
                fsync: commsched_service::FsyncPolicy::Never,
                max_conns: 64,
                idle_timeout_secs: 30,
            }
        );
        assert!(parse(&argv("serve --fsync sometimes")).is_err());
        assert_eq!(
            parse(&argv(
                "loadgen --server localhost:7477 --connections 128 --rate 5000 \
                 --batch 64 --duration 2.5 --mode binary --max-in-flight 32 \
                 --out /tmp/lg.json"
            ))
            .unwrap(),
            Command::Loadgen {
                server: "localhost:7477".into(),
                config: commsched_service::loadgen::LoadgenConfig {
                    connections: 128,
                    rate: 5000.0,
                    batch: 64,
                    duration: Duration::from_secs_f64(2.5),
                    mode: commsched_service::loadgen::WireMode::Binary,
                    spec: "NOOP".into(),
                    max_in_flight: 32,
                    deadline_ms: None,
                },
                out: Some("/tmp/lg.json".into()),
            }
        );
        assert!(
            parse(&argv("loadgen --mode binary")).is_err(),
            "needs --server"
        );
        assert_eq!(
            parse(&argv(
                "submit --server localhost:7477 --type sweep --kind paper24 --points 5"
            ))
            .unwrap(),
            Command::Submit {
                server: "localhost:7477".into(),
                kind: SubmitKind::Sweep,
                topology: TopologySpec::Paper24,
                clusters: 4,
                seed: 42,
                points: 5,
                strategy: MapStrategy::Flat,
                approx_eps_micros: 0,
            }
        );
        assert_eq!(
            parse(&argv("status --server localhost:7477 --job 12")).unwrap(),
            Command::Status {
                server: "localhost:7477".into(),
                job: 12,
            }
        );
        // Schedule/sweep pick up --server.
        match parse(&argv("schedule --kind paper24 --server h:1")).unwrap() {
            Command::Schedule { server, .. } => assert_eq!(server, Some("h:1".into())),
            other => panic!("wrong parse: {other:?}"),
        }
        assert_eq!(
            parse(&argv("metrics --server localhost:7477")).unwrap(),
            Command::Metrics {
                server: "localhost:7477".into(),
            }
        );
        // Schedule/sweep pick up --trace-out.
        match parse(&argv("sweep --kind paper24 --trace-out /tmp/t.jsonl")).unwrap() {
            Command::Sweep { trace_out, .. } => {
                assert_eq!(trace_out, Some("/tmp/t.jsonl".into()));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parse_cluster_subcommand() {
        assert_eq!(
            parse(&argv(
                "cluster --node-id 1 --members 0=127.0.0.1:7478,1=127.0.0.1:7479 \
                 --state-dir /tmp/cs-node1 --repl async --repl-listen 127.0.0.1:7500 \
                 --workers 3 --vnodes 64"
            ))
            .unwrap(),
            Command::Cluster {
                node_id: 1,
                members: commsched_cluster::parse_members("0=127.0.0.1:7478,1=127.0.0.1:7479")
                    .unwrap(),
                state_dir: "/tmp/cs-node1".into(),
                repl: commsched_cluster::ReplMode::Async,
                repl_listen: Some("127.0.0.1:7500".into()),
                follow: None,
                workers: 3,
                queue_cap: 16,
                cache_cap: 8,
                vnodes: 64,
            }
        );
        // A follower names the primary's replication stream.
        match parse(&argv(
            "cluster --node-id 0 --members 0=127.0.0.1:7478 --follow 127.0.0.1:7500",
        ))
        .unwrap()
        {
            Command::Cluster { repl, follow, .. } => {
                assert_eq!(repl, commsched_cluster::ReplMode::Sync);
                assert_eq!(follow, Some("127.0.0.1:7500".into()));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("cluster --members 0=h:1")).is_err(), "node id");
        assert!(parse(&argv("cluster --node-id 0")).is_err(), "members");
        assert!(
            parse(&argv("cluster --node-id 0 --members 0=h:1,0=h:2")).is_err(),
            "duplicate shard"
        );
        assert!(
            parse(&argv("cluster --node-id 0 --members 0=h:1 --repl maybe")).is_err(),
            "repl mode"
        );
    }

    #[test]
    fn server_subcommands_require_flags() {
        assert!(parse(&argv("submit --kind paper24")).is_err());
        assert!(parse(&argv("status --server h:1")).is_err());
        assert!(parse(&argv("submit --server h:1 --type dance")).is_err());
        assert!(parse(&argv("submit --server h:1 --max-coarse-n 8")).is_err());
        assert!(parse(&argv("metrics")).is_err());
    }

    #[test]
    fn parse_faults_subcommand() {
        assert_eq!(
            parse(&argv(
                "faults --server h:1 --fp 00c0ffee00c0ffee --kill 0:1"
            ))
            .unwrap(),
            Command::Faults {
                server: "h:1".into(),
                fp: Some("00c0ffee00c0ffee".into()),
                topology: TopologySpec::Random {
                    switches: 16,
                    degree: 3,
                    hosts: 4,
                    seed: 2000
                },
                event: FaultArg::Kill("0:1".into()),
            }
        );
        match parse(&argv(
            "faults --server h:1 --kind paper24 --restore 2:3:1.5",
        ))
        .unwrap()
        {
            Command::Faults {
                fp,
                topology,
                event,
                ..
            } => {
                assert_eq!(fp, None);
                assert_eq!(topology, TopologySpec::Paper24);
                assert_eq!(event, FaultArg::Restore("2:3:1.5".into()));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&argv("faults --server h:1 --kind paper24 --down-switch 4")).unwrap() {
            Command::Faults { event, .. } => {
                assert_eq!(event, FaultArg::DownSwitch("4".into()));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Exactly one event; --server is mandatory.
        assert!(parse(&argv("faults --server h:1 --kind paper24")).is_err());
        assert!(parse(&argv("faults --server h:1 --kill 0:1 --restore 0:1")).is_err());
        assert!(parse(&argv("faults --kind paper24 --kill 0:1")).is_err());
    }

    #[test]
    fn parse_scenario_subcommand() {
        assert_eq!(
            parse(&argv(
                "scenario --arrivals poisson:50 --duration 30 --seed 7 \
                 --migration threshold:0.1 --baseline --threads 2"
            ))
            .unwrap(),
            Command::Scenario {
                topology: TopologySpec::Paper24,
                arrivals: "poisson:50".into(),
                duration_secs: 30.0,
                seed: 7,
                migration: commsched_scenarios::MigrationPolicy::Threshold(0.1),
                baseline: true,
                server: None,
                threads: 2,
                beta: 3.0,
                dump_trace: None,
            }
        );
        // Topology flags override the paper24 default.
        match parse(&argv("scenario --kind ring --switches 8 --hosts 1")).unwrap() {
            Command::Scenario {
                topology,
                migration,
                baseline,
                ..
            } => {
                assert_eq!(
                    topology,
                    TopologySpec::Ring {
                        switches: 8,
                        hosts: 1
                    }
                );
                assert_eq!(migration, commsched_scenarios::MigrationPolicy::Off);
                assert!(!baseline);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("scenario --migration sometimes")).is_err());
        assert!(parse(&argv("scenario --migration threshold:-1")).is_err());
        assert!(parse(&argv("scenario --duration 0")).is_err());
        assert!(parse(&argv("scenario --beta -2")).is_err());
    }

    #[test]
    fn run_scenario_replays_a_trace_file() {
        let dir = std::env::temp_dir().join(format!("commsched-cli-scn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        std::fs::write(
            &path,
            "{\"t_us\":0,\"base_us\":10000,\"mem\":[64,64],\"edges\":[[0,1,4096]],\"deadline_us\":90000}\n\
             {\"t_us\":5,\"base_us\":10000,\"mem\":[64],\"edges\":[]}\n",
        )
        .unwrap();
        let out = run(&Command::Scenario {
            topology: TopologySpec::Ring {
                switches: 6,
                hosts: 1,
            },
            arrivals: format!("trace:{}", path.display()),
            duration_secs: 1.0,
            seed: 1,
            migration: commsched_scenarios::MigrationPolicy::Threshold(0.1),
            baseline: true,
            server: None,
            threads: 1,
            beta: 3.0,
            dump_trace: None,
        })
        .unwrap();
        assert!(out.contains("slo policy=threshold:0.1"), "{out}");
        assert!(out.contains("baseline (static mapping)"), "{out}");
        assert!(out.contains("compare attainment="), "{out}");
        assert!(out.contains("deadline total=1 met=1"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_loadgen_deadline_flag() {
        match parse(&argv("loadgen --server h:1 --deadline-ms 250")).unwrap() {
            Command::Loadgen { config, .. } => {
                assert_eq!(config.deadline_ms, Some(250));
                assert_eq!(config.effective_spec(), "NOOP deadline-ms=250");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("loadgen --server h:1 --deadline-ms soon")).is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("schedule --switches nope")).is_err());
        assert!(parse(&argv("schedule stray")).is_err());
        assert!(parse(&argv("simulate --rate")).is_err());
        assert!(parse(&argv("topology --kind dodecahedron")).is_err());
        assert!(parse(&argv("simulate --congestion tcp-reno")).is_err());
        assert!(parse(&argv("sweep --congestion maybe")).is_err());
    }

    #[test]
    fn parse_congestion_flags() {
        match parse(&argv(
            "simulate --kind ring --congestion ecn-dctcp --misroute --vcs 2 --adaptive",
        ))
        .unwrap()
        {
            Command::Simulate {
                congestion,
                misroute,
                vcs,
                adaptive,
                ..
            } => {
                assert_eq!(congestion, CongestionMode::EcnDctcp);
                assert!(misroute);
                assert_eq!(vcs, 2);
                assert!(adaptive);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Defaults: congestion off, no misrouting — bit-identical baseline.
        match parse(&argv("simulate --kind ring")).unwrap() {
            Command::Simulate {
                congestion,
                misroute,
                ..
            } => {
                assert_eq!(congestion, CongestionMode::Off);
                assert!(!misroute);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&argv("sweep --kind ring --congestion pfc")).unwrap() {
            Command::Sweep { congestion, .. } => assert_eq!(congestion, CongestionMode::Pfc),
            other => panic!("wrong parse: {other:?}"),
        }
        // Congestion regimes only run locally; a daemon sweep rejects them.
        let cmd = parse(&argv("sweep --kind ring --server h:1 --congestion pfc")).unwrap();
        assert!(run(&cmd).unwrap_err().contains("local-only"));
    }

    #[test]
    fn run_topology_lists_links() {
        let out = run(&Command::Topology {
            spec: TopologySpec::Ring {
                switches: 4,
                hosts: 1,
            },
            save: None,
        })
        .unwrap();
        assert!(out.contains("switches: 4"));
        assert!(out.contains("0 -- 1"));
    }

    #[test]
    fn save_and_load_topology_file() {
        let dir = std::env::temp_dir().join("commsched-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ring.topo");
        let path_str = path.to_str().unwrap().to_string();
        let out = run(&Command::Topology {
            spec: TopologySpec::Ring {
                switches: 6,
                hosts: 4,
            },
            save: Some(path_str.clone()),
        })
        .unwrap();
        assert!(out.contains("saved to"));
        // Load it back through the file kind.
        let out2 = run(&Command::Topology {
            spec: TopologySpec::File { path: path_str },
            save: None,
        })
        .unwrap();
        assert!(out2.contains("switches: 6"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_kind_requires_input() {
        assert!(parse(&argv("topology --kind file")).is_err());
        let err = run(&Command::Topology {
            spec: TopologySpec::File {
                path: "/nonexistent/definitely-missing.topo".into(),
            },
            save: None,
        })
        .unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn run_schedule_paper24() {
        let out = run(&parse(&argv("schedule --kind paper24")).unwrap()).unwrap();
        assert!(out.contains("Cc ="));
        assert!(out.contains("(0,1,2,3,4,5)"));
    }

    #[test]
    fn run_weighted_schedule() {
        let out = run(&parse(&argv(
            "schedule --kind ring --switches 8 --clusters 2 --weights 5,1",
        ))
        .unwrap())
        .unwrap();
        assert!(out.contains("weighted F_G ="));
    }

    #[test]
    fn run_multilevel_schedule_locally() {
        let out = run(&parse(&argv(
            "schedule --kind ring --switches 8 --clusters 4 --strategy multilevel \
             --max-coarse-n 4 --approx-eps 0.1",
        ))
        .unwrap())
        .unwrap();
        assert!(out.contains("strategy: multilevel"), "missing ml: {out}");
        assert!(out.contains("levels = 1"), "missing levels: {out}");
        assert!(
            out.contains("approx table: eps = 0.1"),
            "missing eps: {out}"
        );
    }

    #[test]
    fn weight_count_mismatch_errors() {
        let err = run(&parse(&argv(
            "schedule --kind ring --switches 8 --clusters 2 --weights 1,2,3",
        ))
        .unwrap())
        .unwrap_err();
        assert!(err.contains("one weight per cluster"));
    }

    #[test]
    fn schedule_through_server_round_trips() {
        // Stand a daemon up in-process, then drive the plain `schedule`
        // subcommand through it with --server.
        let handle = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = handle.addr().to_string();
        let out = run(&Command::Schedule {
            topology: TopologySpec::Ring {
                switches: 4,
                hosts: 1,
            },
            clusters: 2,
            seed: 3,
            weights: None,
            server: Some(addr.clone()),
            trace_out: None,
            strategy: MapStrategy::Flat,
            max_coarse_n: 256,
            approx_eps_micros: 0,
        })
        .unwrap();
        assert!(out.contains("partition "), "missing partition in: {out}");
        assert!(out.contains("cc "), "missing cc in: {out}");
        // Weighted jobs are a local-only feature.
        let err = run(&Command::Schedule {
            topology: TopologySpec::Paper24,
            clusters: 4,
            seed: 1,
            weights: Some(vec![1.0, 1.0, 1.0, 1.0]),
            server: Some(addr.clone()),
            trace_out: None,
            strategy: MapStrategy::Flat,
            max_coarse_n: 256,
            approx_eps_micros: 0,
        })
        .unwrap_err();
        assert!(err.contains("--weights"));
        // So is a non-default coarsening bound: the daemon has no wire
        // key for it, so the CLI refuses rather than drop it.
        let err = run(&Command::Schedule {
            topology: TopologySpec::Paper24,
            clusters: 4,
            seed: 1,
            weights: None,
            server: Some(addr.clone()),
            trace_out: None,
            strategy: MapStrategy::Multilevel,
            max_coarse_n: 8,
            approx_eps_micros: 0,
        })
        .unwrap_err();
        assert!(err.contains("--max-coarse-n is local-only"), "got: {err}");
        // The metrics subcommand round-trips the daemon's Prometheus dump
        // (the schedule job above ran, so job counters are non-zero).
        let metrics = run(&Command::Metrics {
            server: addr.clone(),
        })
        .unwrap();
        assert!(
            metrics.contains("service_jobs_completed_total 1"),
            "metrics missing completed counter: {metrics}"
        );
        assert!(metrics.contains("# TYPE service_job_run_ms histogram"));
        let mut client = Client::connect(addr.as_str()).unwrap();
        client.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn faults_through_server_round_trips() {
        // Inject a kill through the `faults` subcommand against a builtin
        // topology spec, then verify the stale spec is rejected.
        let handle = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = handle.addr().to_string();
        let topology = TopologySpec::Ring {
            switches: 6,
            hosts: 2,
        };
        let out = run(&Command::Faults {
            server: addr.clone(),
            fp: None,
            topology: topology.clone(),
            event: FaultArg::Kill("0:1".into()),
        })
        .unwrap();
        assert!(out.contains("event link-down 0:1"), "report: {out}");
        assert!(out.contains("epoch 1"), "report: {out}");
        assert!(out.contains("connected true"), "report: {out}");
        let new_fp = out
            .lines()
            .find_map(|l| l.strip_prefix("topology "))
            .expect("successor fingerprint in report")
            .to_string();
        // The builtin spec now names a superseded epoch: a second fault
        // through it is the typed stale-epoch error, while the successor
        // fingerprint accepts one.
        let err = run(&Command::Faults {
            server: addr.clone(),
            fp: None,
            topology,
            event: FaultArg::Kill("2:3".into()),
        })
        .unwrap_err();
        assert!(err.contains("stale-epoch"), "error: {err}");
        let out = run(&Command::Faults {
            server: addr.clone(),
            fp: Some(new_fp),
            topology: TopologySpec::Paper24,
            event: FaultArg::Restore("0:1".into()),
        })
        .unwrap();
        assert!(out.contains("event link-up 0:1:1"), "report: {out}");
        let mut client = Client::connect(addr.as_str()).unwrap();
        client.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn invalid_ring_is_a_clean_local_error() {
        // Satellite regression: shape validation surfaces as a Result all
        // the way through the local CLI path, not a panic.
        let err = run(&parse(&argv("topology --kind ring --switches 2")).unwrap()).unwrap_err();
        assert!(err.contains("ring needs at least 3"), "error: {err}");
    }

    #[test]
    fn trace_out_writes_jsonl() {
        let dir = std::env::temp_dir().join("commsched-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        let out = run(&Command::Schedule {
            topology: TopologySpec::Ring {
                switches: 6,
                hosts: 2,
            },
            clusters: 2,
            seed: 5,
            weights: None,
            server: None,
            trace_out: Some(path_str.clone()),
            strategy: MapStrategy::Flat,
            max_coarse_n: 256,
            approx_eps_micros: 0,
        })
        .unwrap();
        assert!(out.contains("trace: "), "missing trace line in: {out}");
        let text = std::fs::read_to_string(&path).unwrap();
        // Local runs hit the distance builder and tabu search, both of
        // which emit spans once tracing is armed.
        assert!(
            text.contains("\"name\":\"distance.build\""),
            "no distance span in: {text}"
        );
        assert!(text.contains("\"name\":\"tabu.search\""));
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "bad: {line}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn weighted_schedule_unweighted_matches_plain_fg() {
        // Uniform weights reduce the weighted objective to F_G, so the
        // weighted CLI path must report the same number the plain path
        // would.
        let out = run(&parse(&argv(
            "schedule --kind ring --switches 8 --clusters 2 --weights 1,1",
        ))
        .unwrap())
        .unwrap();
        let weighted: f64 = out
            .lines()
            .find_map(|l| l.strip_prefix("weighted F_G = "))
            .unwrap()
            .parse()
            .unwrap();
        let plain =
            run(&parse(&argv("schedule --kind ring --switches 8 --clusters 2")).unwrap()).unwrap();
        let fg: f64 = plain
            .lines()
            .find_map(|l| l.strip_prefix("F_G = "))
            .map(|rest| rest.split_whitespace().next().unwrap())
            .unwrap()
            .parse()
            .unwrap();
        assert!((weighted - fg).abs() < 1e-9, "{weighted} != {fg}");
    }
}
