//! What a command line means: the consuming argument list every
//! subcommand takes its flags from, the usage blocks, and [`parse`].

use super::{
    Command, Faults, Instance, Network, RemoteJob, Scenario, Schedule, Serve, Simulate, Sweep,
};
use crate::SchedulerOptions;
use commsched_cluster::{ClusterConfig, ReplMode};
use commsched_netsim::{SimConfig, SweepConfig};
use commsched_scenarios::MigrationPolicy;
use commsched_service::loadgen::{LoadgenConfig, WireMode};
use commsched_service::protocol::parse_fingerprint;
use commsched_service::{
    FsyncPolicy, JobKind, JobSpec, PersistOptions, ServerConfig, ServiceCoreConfig, TopoRef,
};
use commsched_topology::RandomTopologyConfig;
use std::fmt::Display;
use std::str::FromStr;
use std::time::Duration;

/// Flags that are local-only, by subcommand: no wire key carries them,
/// so the `--server` form of the subcommand never takes them and
/// [`Args::finish`] explains instead of calling them unknown.
const LOCAL_ONLY: [(&str, &str); 3] = [
    ("schedule", "--weights --max-coarse-n --trace-out"),
    (
        "sweep",
        "--vcs --adaptive --congestion --misroute --trace-out",
    ),
    ("submit", "--max-coarse-n"),
];

/// The arguments after the subcommand name. A parser *takes* the flags
/// it owns, each straight into the field that already holds its
/// default; whatever is left when it is done is an error.
pub(super) struct Args {
    pub(super) sub: String,
    pub(super) rest: Vec<String>,
    /// Every flag name the parser asked for, given or not: the set the
    /// subcommand accepts (a leftover among them was given twice).
    pub(super) asked: Vec<&'static str>,
}

impl Args {
    /// Take the switch `name`; true when it was given.
    fn switch(&mut self, name: &'static str) -> bool {
        self.asked.push(name);
        let at = self.rest.iter().position(|a| a == name);
        at.map(|i| self.rest.remove(i)).is_some()
    }

    /// Take `name VALUE` and parse the value; `None` when the flag is
    /// absent. A value never starts with `--`, so a flag that is missing
    /// its value cannot swallow the next one.
    fn take<T, E: Display>(
        &mut self,
        name: &'static str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<Option<T>, String> {
        self.asked.push(name);
        let Some(i) = self.rest.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if !matches!(self.rest.get(i + 1), Some(v) if !v.starts_with("--")) {
            return Err(format!("flag {name} needs a value"));
        }
        let value = self.rest.drain(i..i + 2).nth(1).expect("checked above");
        match parse(&value) {
            Ok(v) => Ok(Some(v)),
            Err(e) => Err(format!("bad {name} '{value}': {e}")),
        }
    }

    /// [`Self::take`] into `slot`, which keeps its default when the flag
    /// is absent.
    fn set<T, E: Display>(
        &mut self,
        name: &'static str,
        slot: &mut T,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<(), String> {
        if let Some(v) = self.take(name, parse)? {
            *slot = v;
        }
        Ok(())
    }

    /// [`Self::set`] for a type that parses itself.
    fn value<T: FromStr<Err: Display>>(
        &mut self,
        name: &'static str,
        slot: &mut T,
    ) -> Result<(), String> {
        self.set(name, slot, str::parse)
    }

    /// An optional flag with no default.
    fn opt<T: FromStr<Err: Display>>(&mut self, name: &'static str) -> Result<Option<T>, String> {
        self.take(name, str::parse)
    }

    /// A flag the subcommand cannot run without.
    fn require<T: FromStr<Err: Display>>(&mut self, name: &'static str) -> Result<T, String> {
        let needs = format!("{} needs {name} <value>", self.sub);
        self.opt(name)?.ok_or(needs)
    }

    /// Refuse whichever of `names` the parser has not taken but the user
    /// gave: in this form of the subcommand they would be ignored.
    fn refuse(&mut self, names: &[&'static str], why: &str) -> Result<(), String> {
        for &name in names {
            if !self.asked.contains(&name) && self.switch(name) {
                return Err(format!("{name} does not apply {why}"));
            }
        }
        Ok(())
    }

    /// Everything the parser did not take is an error: a stray word, a
    /// flag given twice, a flag only the local form of the subcommand
    /// takes, or one the subcommand does not have.
    pub(super) fn finish(&self) -> Result<(), String> {
        let Some(left) = self.rest.first().map(String::as_str) else {
            return Ok(());
        };
        let sub = self.sub.as_str();
        let local_only =
            |&(s, flags): &(&str, &str)| s == sub && flags.split(' ').any(|f| f == left);
        Err(if !left.starts_with("--") {
            format!("unexpected argument '{left}' for `{sub}`")
        } else if self.asked.contains(&left) {
            format!("{left} given more than once")
        } else if LOCAL_ONLY.iter().any(local_only) {
            format!(
                "{left} is local-only: no wire key carries it (a run without --server takes it)"
            )
        } else {
            format!("unknown flag {left} for `{sub}`")
        })
    }
}

/// One usage block per subcommand, in the order `help` lists them; the
/// second word of a block is the subcommand's name.
pub(super) const USAGE_BLOCKS: [&str; 12] = [
    "  commsched topology <topology flags> [--save FILE]
",
    "  commsched schedule <topology flags> [--clusters M] [--seed S]
                     [--weights w1,w2,...] [--server HOST:PORT]
                     [--trace-out FILE.jsonl]
                     [--strategy flat|multilevel] [--max-coarse-n N]
",
    "  commsched simulate <topology flags> [--clusters M] [--seed S] [--rate R]
                     [--compare-random] [--vcs V] [--adaptive]
                     [--congestion off|pfc|ecn-aimd|ecn-dctcp] [--misroute]
",
    "  commsched sweep    <topology flags> [--clusters M] [--seed S]
                     [--server HOST:PORT] [--trace-out FILE.jsonl]
                     [--vcs V] [--adaptive]
                     [--congestion off|pfc|ecn-aimd|ecn-dctcp] [--misroute]
",
    "  commsched serve    [--addr HOST:PORT] [--workers N] [--queue-cap N]
                     [--cache-cap N] [--state-dir DIR] [--no-persist]
                     [--fsync always|on-ack|never] [--max-conns N]
                     [--idle-timeout SECS]
",
    "  commsched submit   --server HOST:PORT [--type schedule|sweep]
                     <topology flags> [--clusters M] [--seed S] [--points P]
                     [--strategy flat|multilevel]
",
    "  commsched cluster  --node-id K --members K=H:P [--state-dir DIR]
                     [--repl sync|async] [--repl-listen HOST:PORT]
                     [--follow HOST:PORT] [--workers N] [--queue-cap N]
                     [--cache-cap N]
",
    "  commsched loadgen  --server HOST:PORT [--connections N] [--rate JOBS_PER_S]
                     [--batch N] [--duration SECS] [--mode line|binary]
                     [--spec 'NOOP'] [--max-in-flight N] [--out FILE.json]
",
    "  commsched scenario [<topology flags>] [--arrivals poisson:RATE|trace:FILE]
                     [--duration SECS] [--seed S]
                     [--migration off|threshold:X] [--baseline]
                     [--threads N] [--beta B] [--dump-trace FILE.jsonl]
",
    "  commsched status   --server HOST:PORT --job ID
",
    "  commsched metrics  --server HOST:PORT
",
    "  commsched faults   --server HOST:PORT (--fp HEX | <topology flags>)
                     (--kill A:B | --restore A:B[:SLOWDOWN] | --down-switch S)
",
];

/// The `<topology flags>` the blocks above name.
pub(super) const NETWORK_USAGE: &str =
    "  <topology flags>: [--kind random|paper24|ring|file] [--switches N] [--degree D]
                    [--hosts H] [--topo-seed S] [--input FILE]
";

const HEADER: &str = "commsched — communication-aware task scheduling (ICPP 2000 reproduction)";

const DEFAULTS: &str = "\
DEFAULTS: --kind random --switches 16 --degree 3 --hosts 4 --topo-seed 2000
          --clusters 4 --seed 42 --rate 0.1 --vcs 1 --congestion off
          --addr 127.0.0.1:7477
          --strategy flat --max-coarse-n 256
          --state-dir commsched-state --fsync on-ack --max-conns 10240
          loadgen: --connections 16 --rate 1000 --batch 1 --duration 5
          scenario: --kind paper24 --arrivals poisson:50 --duration 10
                    --migration off --threads 1 --beta 3
";

/// The usage text: the block of subcommand `sub` when it names one
/// (what a refused command line is answered with), otherwise the whole
/// text — every block plus the defaults.
pub fn usage(sub: Option<&str>) -> String {
    match USAGE_BLOCKS
        .into_iter()
        .find(|block| block.split_whitespace().nth(1) == sub)
    {
        Some(block) if block.contains("<topology flags>") => {
            format!("USAGE:\n{block}{NETWORK_USAGE}")
        }
        Some(block) => format!("USAGE:\n{block}"),
        None => {
            let blocks = USAGE_BLOCKS.concat();
            format!("{HEADER}\n\nUSAGE:\n{blocks}  commsched help\n\n{NETWORK_USAGE}\n{DEFAULTS}")
        }
    }
}

/// The flags [`network`] reads.
const NETWORK_FLAGS: [&str; 6] = [
    "--kind",
    "--switches",
    "--degree",
    "--hosts",
    "--topo-seed",
    "--input",
];

/// `--kind` and the shape flags that kind reads. A shape flag the kind
/// does not read is refused, never ignored.
fn network(args: &mut Args, default_kind: &str) -> Result<Network, String> {
    let mut kind = default_kind.to_string();
    args.value("--kind", &mut kind)?;
    let RandomTopologyConfig {
        mut switches,
        mut degree,
        hosts_per_switch: mut hosts,
        ..
    } = RandomTopologyConfig::paper(16);
    let network = match kind.as_str() {
        "paper24" => Network::Named(TopoRef::Paper24),
        "file" => Network::File(
            args.opt("--input")?
                .ok_or("kind 'file' needs --input <path>")?,
        ),
        "ring" => {
            args.value("--switches", &mut switches)?;
            args.value("--hosts", &mut hosts)?;
            Network::Named(TopoRef::Ring { switches, hosts })
        }
        "random" => {
            let mut seed = 2000;
            args.value("--switches", &mut switches)?;
            args.value("--degree", &mut degree)?;
            args.value("--hosts", &mut hosts)?;
            args.value("--topo-seed", &mut seed)?;
            Network::Named(TopoRef::Random {
                switches,
                degree,
                hosts,
                seed,
            })
        }
        other => return Err(format!("unknown topology kind '{other}'")),
    };
    args.refuse(&NETWORK_FLAGS, &format!("to --kind {kind}"))?;
    Ok(network)
}

/// `<topology flags> --clusters M --seed S`: what gets mapped.
fn instance(args: &mut Args) -> Result<Instance, String> {
    let mut instance = Instance {
        network: network(args, "random")?,
        clusters: 4,
        seed: 42,
    };
    args.value("--clusters", &mut instance.clusters)?;
    args.value("--seed", &mut instance.seed)?;
    Ok(instance)
}

/// The remote form of `schedule`, `sweep` and `submit`: `instance` as a
/// job for the daemon at `server` — a sweep of `points` points when
/// given, a schedule otherwise.
fn remote_job(
    server: String,
    instance: Instance,
    points: Option<usize>,
    spec: JobSpec,
    wait: bool,
) -> Command {
    let Instance {
        network,
        clusters,
        seed,
    } = instance;
    let kind = match points {
        None => JobKind::Schedule { clusters, seed },
        Some(points) => JobKind::Sweep {
            clusters,
            seed,
            points,
        },
    };
    Command::RemoteJob(RemoteJob {
        server,
        network,
        job: JobSpec { kind, ..spec },
        wait,
    })
}

/// The four simulator flags `simulate` and `sweep` share.
fn sim_flags(args: &mut Args) -> Result<SimConfig, String> {
    let mut sim = SimConfig::default();
    args.value("--vcs", &mut sim.virtual_channels)?;
    sim.fully_adaptive = args.switch("--adaptive");
    args.value("--congestion", &mut sim.congestion)?;
    sim.adaptive_misroute = args.switch("--misroute");
    Ok(sim)
}

/// `--queue-cap` and `--cache-cap`: the core sizing both daemons expose.
fn core_flags(args: &mut Args, core: &mut ServiceCoreConfig) -> Result<(), String> {
    args.value("--queue-cap", &mut core.queue_capacity)?;
    args.value("--cache-cap", &mut core.cache_capacity)
}

/// Parse a finite number that satisfies `ok`; `need` words the refusal.
pub(super) fn real(v: &str, ok: impl Fn(f64) -> bool, need: &str) -> Result<f64, String> {
    v.parse()
        .ok()
        .filter(|&x: &f64| x.is_finite() && ok(x))
        .ok_or_else(|| format!("need {need}"))
}

/// Parse an argument list (without the program name).
///
/// # Errors
/// Returns a human-readable message on malformed input: a bad value, a
/// missing required flag, or an argument the subcommand does not take.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let Some((sub, rest)) = argv.split_first() else {
        return Ok(Command::Help);
    };
    if matches!(sub.as_str(), "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let mut args = Args {
        sub: sub.clone(),
        rest: rest.to_vec(),
        asked: Vec::new(),
    };
    let command = parse_subcommand(&mut args)?;
    args.finish()?;
    Ok(command)
}

/// The flags of subcommand `args.sub`, each taken from `args`.
pub(super) fn parse_subcommand(args: &mut Args) -> Result<Command, String> {
    Ok(match args.sub.as_str() {
        "topology" => Command::Topology {
            network: network(args, "random")?,
            save: args.opt("--save")?,
        },
        "schedule" => {
            let instance = instance(args)?;
            if let Some(server) = args.opt("--server")? {
                let mut spec = JobSpec::default();
                args.value("--strategy", &mut spec.strategy)?;
                return Ok(remote_job(server, instance, None, spec, true));
            }
            let mut options = SchedulerOptions::default();
            args.value("--strategy", &mut options.strategy)?;
            args.value("--max-coarse-n", &mut options.max_coarse_n)?;
            let weights = |v: &str| v.split(',').map(str::parse).collect::<Result<_, _>>();
            Command::Schedule(Schedule {
                instance,
                weights: args.take("--weights", weights)?,
                options,
                trace_out: args.opt("--trace-out")?,
            })
        }
        "simulate" => {
            let instance = instance(args)?;
            let mut sim = sim_flags(args)?;
            args.value("--rate", &mut sim.injection_rate)?;
            Command::Simulate(Simulate {
                instance,
                sim,
                compare_random: args.switch("--compare-random"),
            })
        }
        "sweep" => {
            let instance = instance(args)?;
            if let Some(server) = args.opt("--server")? {
                let points = Some(SweepConfig::default().points);
                return Ok(remote_job(
                    server,
                    instance,
                    points,
                    JobSpec::default(),
                    true,
                ));
            }
            Command::Sweep(Sweep {
                instance,
                sim: sim_flags(args)?,
                trace_out: args.opt("--trace-out")?,
            })
        }
        "serve" => {
            let mut addr = "127.0.0.1:7477".to_string();
            args.value("--addr", &mut addr)?;
            let mut config = ServerConfig::default();
            args.value("--workers", &mut config.workers)?;
            core_flags(args, &mut config.core)?;
            args.value("--max-conns", &mut config.net.max_connections)?;
            // 0 spells "never".
            args.set("--idle-timeout", &mut config.net.idle_timeout, |v| {
                v.parse()
                    .map(|secs| Some(Duration::from_secs(secs)).filter(|_| secs > 0))
            })?;
            let persist = if args.switch("--no-persist") {
                args.refuse(&["--state-dir", "--fsync"], "with --no-persist")?;
                None
            } else {
                let mut state_dir = "commsched-state".to_string();
                args.value("--state-dir", &mut state_dir)?;
                let mut fsync = FsyncPolicy::default();
                args.set("--fsync", &mut fsync, |v| match v {
                    "always" => Ok(FsyncPolicy::Always),
                    "on-ack" => Ok(FsyncPolicy::OnAck),
                    "never" => Ok(FsyncPolicy::Never),
                    _ => Err("need always|on-ack|never"),
                })?;
                Some(PersistOptions::new(state_dir).fsync(fsync))
            };
            Command::Serve(Serve {
                addr,
                config,
                persist,
            })
        }
        "submit" => {
            let server = args.require("--server")?;
            let mut kind = "schedule".to_string();
            args.value("--type", &mut kind)?;
            let instance = instance(args)?;
            let mut spec = JobSpec::default();
            args.value("--strategy", &mut spec.strategy)?;
            let points = match kind.as_str() {
                "schedule" => None,
                "sweep" => {
                    let mut points = SweepConfig::default().points;
                    args.value("--points", &mut points)?;
                    Some(points)
                }
                other => return Err(format!("unknown job type '{other}'")),
            };
            args.refuse(&["--points"], &format!("to --type {kind}"))?;
            remote_job(server, instance, points, spec, false)
        }
        "cluster" => {
            let node_id = args.require("--node-id")?;
            let members = args
                .take("--members", commsched_cluster::parse_members)?
                .ok_or("cluster needs --members shard=addr")?;
            let mut config = ClusterConfig::new(node_id, members, "commsched-cluster-state");
            args.value("--state-dir", &mut config.state_dir)?;
            args.set("--repl", &mut config.repl, ReplMode::parse)?;
            config.repl_listen = args.opt("--repl-listen")?;
            config.follow = args.opt("--follow")?;
            args.value("--workers", &mut config.workers)?;
            core_flags(args, &mut config.core)?;
            Command::Cluster(config)
        }
        "loadgen" => {
            let server = args.require("--server")?;
            let mut config = LoadgenConfig::default();
            args.value("--connections", &mut config.connections)?;
            args.value("--rate", &mut config.rate)?;
            args.value("--batch", &mut config.batch)?;
            args.set("--duration", &mut config.duration, |v| {
                let secs = v.parse().map_err(|_| "need seconds")?;
                Duration::try_from_secs_f64(secs).map_err(|_| "need seconds >= 0")
            })?;
            args.set("--mode", &mut config.mode, WireMode::parse)?;
            args.value("--spec", &mut config.spec)?;
            args.value("--max-in-flight", &mut config.max_in_flight)?;
            Command::Loadgen {
                server,
                config,
                out: args.opt("--out")?,
            }
        }
        "scenario" => {
            // An online scenario defaults to the paper's network unless
            // topology flags say otherwise.
            let mut scenario = Scenario {
                network: network(args, "paper24")?,
                arrivals: "poisson:50".to_string(),
                duration_secs: 10.0,
                seed: 42,
                migration: MigrationPolicy::Off,
                baseline: args.switch("--baseline"),
                threads: 1,
                beta: 3.0,
                dump_trace: args.opt("--dump-trace")?,
            };
            args.value("--arrivals", &mut scenario.arrivals)?;
            args.set("--duration", &mut scenario.duration_secs, |v| {
                real(v, |d| d > 0.0, "seconds > 0")
            })?;
            args.value("--seed", &mut scenario.seed)?;
            args.set(
                "--migration",
                &mut scenario.migration,
                MigrationPolicy::parse,
            )?;
            args.value("--threads", &mut scenario.threads)?;
            args.set("--beta", &mut scenario.beta, |v| {
                real(v, |b| b >= 0.0, "a finite weight >= 0")
            })?;
            Command::Scenario(scenario)
        }
        "status" => Command::Status {
            server: args.require("--server")?,
            job: args.require("--job")?,
        },
        "metrics" => Command::Metrics {
            server: args.require("--server")?,
        },
        "faults" => {
            let server = args.require("--server")?;
            let fingerprint = |hex: &str| parse_fingerprint(hex).ok_or("need 16 hex digits");
            let target = match args.take("--fp", fingerprint)? {
                Some(fp) => {
                    args.refuse(&NETWORK_FLAGS, "with --fp")?;
                    Network::Named(TopoRef::Registered(fp))
                }
                None => network(args, "random")?,
            };
            // Each flag with the wire key that carries it.
            let mut events = Vec::new();
            for (flag, key) in [
                ("--kill", "kill"),
                ("--restore", "restore"),
                ("--down-switch", "switch"),
            ] {
                if let Some(value) = args.opt::<String>(flag)? {
                    events.push(format!("{key}={value}"));
                }
            }
            let [event] = <[String; 1]>::try_from(events)
                .map_err(|_| "faults needs exactly one of --kill, --restore, --down-switch")?;
            Command::Faults(Faults {
                server,
                target,
                event,
            })
        }
        other => return Err(format!("unknown subcommand '{other}'")),
    })
}
