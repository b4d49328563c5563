//! Unit tests of the CLI: parsing, the strictness of the argument
//! type, and the arms run in-process.

use super::*;
use commsched_netsim::CongestionMode;
use commsched_search::MapStrategy;
use commsched_service::{Client, FsyncPolicy, JobKind, PersistOptions, Server, ServerConfig};
use std::collections::BTreeSet;
use std::time::Duration;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

fn parsed(line: &str) -> Command {
    parse(&argv(line)).unwrap_or_else(|e| panic!("`{line}`: {e}"))
}

fn ring(switches: usize, hosts: usize) -> Network {
    Network::Named(TopoRef::Ring { switches, hosts })
}

/// A fresh scratch directory no other test process shares.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("commsched-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn empty_args_is_help() {
    assert_eq!(parse(&[]).unwrap(), Command::Help);
    assert_eq!(parsed("help"), Command::Help);
}

#[test]
fn parse_topology_defaults() {
    let cmd = parsed("topology");
    assert_eq!(
        cmd,
        Command::Topology {
            network: Network::Named(TopoRef::Random {
                switches: 16,
                degree: 3,
                hosts: 4,
                seed: 2000
            }),
            save: None,
        }
    );
}

#[test]
fn parse_local_schedule() {
    let cmd = parsed("schedule --kind paper24 --clusters 4 --seed 7");
    match cmd {
        // A local `Schedule` has no server by construction.
        Command::Schedule(Schedule {
            instance,
            options,
            trace_out,
        }) => {
            assert_eq!(instance.network, Network::Named(TopoRef::Paper24));
            assert_eq!(instance.clusters, 4);
            assert_eq!(instance.seed, 7);
            assert_eq!(trace_out, None);
            assert_eq!(options.strategy, MapStrategy::Flat);
            assert_eq!(options.max_coarse_n, 256);
        }
        other => panic!("wrong parse: {other:?}"),
    }
}

#[test]
fn parse_scale_flags_round_trip() {
    match parsed(
        "schedule --kind ring --switches 16 --strategy multilevel \
         --max-coarse-n 8",
    ) {
        Command::Schedule(Schedule { options, .. }) => {
            assert_eq!(options.strategy, MapStrategy::Multilevel);
            assert_eq!(options.max_coarse_n, 8);
        }
        other => panic!("wrong parse: {other:?}"),
    }
    // Submit forwards the same flag.
    match parsed("submit --server h:1 --kind paper24 --strategy multilevel") {
        Command::RemoteJob(RemoteJob { job, .. }) => {
            assert_eq!(job.strategy, MapStrategy::Multilevel);
        }
        other => panic!("wrong parse: {other:?}"),
    }
    assert!(parse(&argv("schedule --strategy hierarchical")).is_err());
    // Every table is exact: the approximation budget is no flag.
    for line in [
        "schedule --approx-eps 0.05",
        "submit --server h:1 --kind paper24 --approx-eps 0.05",
    ] {
        let err = parse(&argv(line)).unwrap_err();
        assert!(err.starts_with("unknown flag --approx-eps for"), "{err}");
    }
}

#[test]
fn parse_server_subcommands() {
    assert_eq!(
        parsed("serve --addr 127.0.0.1:0 --workers 3"),
        Command::Serve(ClusterConfig {
            addr: "127.0.0.1:0".into(),
            server: ServerConfig {
                workers: 3,
                ..ServerConfig::default()
            },
            ..serve_defaults()
        })
    );
    // The documented defaults are the library's.
    let mut config = ServerConfig::default();
    assert_eq!((config.workers, config.net.max_connections), (2, 10240));
    assert_eq!(config.core.queue_capacity, 16);
    assert_eq!(config.core.cache_capacity, 8);
    config.net.max_connections = 64;
    config.net.idle_timeout = Some(Duration::from_secs(30));
    assert_eq!(
        parsed("serve --state-dir /tmp/cs-state --fsync never --max-conns 64 --idle-timeout 30"),
        Command::Serve(ClusterConfig {
            server: config,
            persist: Some(PersistOptions::new("/tmp/cs-state").fsync(FsyncPolicy::Never)),
            ..serve_defaults()
        })
    );
    // An in-memory daemon has no state directory to name or sync.
    assert_eq!(
        parsed("serve --no-persist --idle-timeout 0"),
        Command::Serve(ClusterConfig {
            persist: None,
            ..serve_defaults()
        })
    );
    let err = parse(&argv("serve --state-dir /tmp/cs-state --no-persist")).unwrap_err();
    assert!(err.contains("--state-dir does not apply"), "got: {err}");
    assert!(parse(&argv("serve --fsync sometimes")).is_err());
    assert_eq!(
        parsed(
            "loadgen --server localhost:7477 --connections 128 --rate 5000 \
             --batch 64 --duration 2.5 --mode binary --max-in-flight 32 \
             --out /tmp/lg.json"
        ),
        Command::Loadgen {
            server: "localhost:7477".into(),
            config: LoadgenConfig {
                connections: 128,
                rate: 5000.0,
                batch: 64,
                duration: Duration::from_secs_f64(2.5),
                mode: commsched_service::loadgen::WireMode::Binary,
                spec: "NOOP".into(),
                max_in_flight: 32,
            },
            out: Some("/tmp/lg.json".into()),
        }
    );
    assert!(
        parse(&argv("loadgen --mode binary")).is_err(),
        "needs --server"
    );
    assert_eq!(
        parsed("submit --server localhost:7477 --type sweep --kind paper24 --points 5"),
        Command::RemoteJob(RemoteJob {
            server: "localhost:7477".into(),
            network: Network::Named(TopoRef::Paper24),
            job: JobSpec {
                strategy: MapStrategy::Flat,
                kind: JobKind::Sweep {
                    clusters: 4,
                    seed: 42,
                    points: 5,
                },
                ..JobSpec::default()
            },
            wait: false,
        })
    );
    assert_eq!(
        parsed("status --server localhost:7477 --job 12"),
        Command::Status {
            server: "localhost:7477".into(),
            job: 12,
        }
    );
    // Schedule/sweep pick up --server: the same remote job, waited for.
    match parsed("schedule --kind paper24 --server h:1") {
        Command::RemoteJob(RemoteJob { server, wait, .. }) => {
            assert_eq!(server, "h:1");
            assert!(wait);
        }
        other => panic!("wrong parse: {other:?}"),
    }
    assert_eq!(
        parsed("metrics --server localhost:7477"),
        Command::Metrics {
            server: "localhost:7477".into(),
        }
    );
    // Schedule/sweep pick up --trace-out.
    match parsed("sweep --kind paper24 --trace-out /tmp/t.jsonl") {
        Command::Sweep(Sweep { trace_out, .. }) => {
            assert_eq!(trace_out, Some("/tmp/t.jsonl".into()));
        }
        other => panic!("wrong parse: {other:?}"),
    }
}

/// What a bare `serve` parses to.
fn serve_defaults() -> ClusterConfig {
    ClusterConfig {
        addr: "127.0.0.1:7477".into(),
        server: ServerConfig::default(),
        persist: Some(PersistOptions::new("commsched-state")),
        repl_listen: None,
        follow: None,
    }
}

#[test]
fn parse_replicating_serve() {
    // A durable daemon replicates its WAL to followers...
    let mut server = ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    };
    server.net.max_connections = 64;
    assert_eq!(
        parsed(
            "serve --addr 127.0.0.1:7479 --state-dir /tmp/cs-node1 \
             --repl-listen 127.0.0.1:7500 --workers 3 --max-conns 64"
        ),
        Command::Serve(ClusterConfig {
            addr: "127.0.0.1:7479".into(),
            server,
            persist: Some(PersistOptions::new("/tmp/cs-node1")),
            repl_listen: Some("127.0.0.1:7500".into()),
            follow: None,
        })
    );
    // ...or stands by, streaming the primary's replication address.
    assert_eq!(
        parsed("serve --follow 127.0.0.1:7500 --fsync always"),
        Command::Serve(ClusterConfig {
            persist: Some(PersistOptions::new("commsched-state").fsync(FsyncPolicy::Always)),
            follow: Some("127.0.0.1:7500".into()),
            ..serve_defaults()
        })
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
        parsed("faults --server h:1 --fp 00c0ffee00c0ffee --kill 0:1"),
        // The target is the fingerprint; no network rides along unused.
        Command::Faults(Faults {
            server: "h:1".into(),
            target: Network::Named(TopoRef::Registered(0x00c0_ffee_00c0_ffee)),
            event: "kill=0:1".into(),
        })
    );
    match parsed("faults --server h:1 --kind paper24 --restore 2:3:1.5") {
        Command::Faults(Faults { target, event, .. }) => {
            assert_eq!(target, Network::Named(TopoRef::Paper24));
            assert_eq!(event, "restore=2:3:1.5");
        }
        other => panic!("wrong parse: {other:?}"),
    }
    match parsed("faults --server h:1 --kind paper24 --down-switch 4") {
        Command::Faults(Faults { event, .. }) => assert_eq!(event, "switch=4"),
        other => panic!("wrong parse: {other:?}"),
    }
    // Exactly one event; --server is mandatory.
    assert!(parse(&argv("faults --server h:1 --kind paper24")).is_err());
    assert!(parse(&argv("faults --server h:1 --kill 0:1 --restore 0:1")).is_err());
    assert!(parse(&argv("faults --kind paper24 --kill 0:1")).is_err());
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
    match parsed("simulate --kind ring --congestion ecn-dctcp --misroute --vcs 2 --adaptive") {
        Command::Simulate(Simulate { sim, .. }) => {
            assert_eq!(sim.congestion, CongestionMode::EcnDctcp);
            assert!(sim.adaptive_misroute);
            assert_eq!(sim.virtual_channels, 2);
            assert!(sim.fully_adaptive);
        }
        other => panic!("wrong parse: {other:?}"),
    }
    // Defaults: congestion off, no misrouting — bit-identical baseline.
    match parsed("simulate --kind ring") {
        Command::Simulate(Simulate { sim, .. }) => assert_eq!(sim, SimConfig::default()),
        other => panic!("wrong parse: {other:?}"),
    }
    match parsed("sweep --kind ring --congestion pfc") {
        Command::Sweep(Sweep { sim, .. }) => assert_eq!(sim.congestion, CongestionMode::Pfc),
        other => panic!("wrong parse: {other:?}"),
    }
    // Congestion regimes only run locally; a daemon sweep rejects them.
    let err = parse(&argv("sweep --kind ring --server h:1 --congestion pfc")).unwrap_err();
    assert!(err.contains("local-only"), "got: {err}");
}

#[test]
fn run_topology_lists_links() {
    let out = run(&Command::Topology {
        network: ring(4, 1),
        save: None,
    })
    .unwrap();
    assert!(out.contains("switches: 4"));
    assert!(out.contains("0 -- 1"));
}

#[test]
fn save_and_load_topology_file() {
    let dir = scratch("topo");
    let path = dir.join("ring.topo");
    let path_str = path.to_str().unwrap().to_string();
    let out = run(&Command::Topology {
        network: ring(6, 4),
        save: Some(path_str.clone()),
    })
    .unwrap();
    assert!(out.contains("saved to"));
    // Load it back through the file kind.
    let out2 = run(&Command::Topology {
        network: Network::File(path_str),
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
        network: Network::File("/nonexistent/definitely-missing.topo".into()),
        save: None,
    })
    .unwrap_err();
    assert!(err.contains("cannot read"));
}

#[test]
fn run_schedule_paper24() {
    let out = run(&parsed("schedule --kind paper24")).unwrap();
    assert!(out.contains("Cc ="));
    assert!(out.contains("(0,1,2,3,4,5)"));
}

#[test]
fn run_multilevel_schedule_locally() {
    let out = run(&parsed(
        "schedule --kind ring --switches 8 --clusters 4 --strategy multilevel \
         --max-coarse-n 4",
    ))
    .unwrap();
    assert!(out.contains("strategy: multilevel"), "missing ml: {out}");
    assert!(out.contains("levels = 1"), "missing levels: {out}");
}

#[test]
fn schedule_through_server_round_trips() {
    // Stand a daemon up in-process, then drive the plain `schedule`
    // subcommand through it with --server.
    let handle = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let out = run(&parsed(&format!(
        "schedule --kind ring --switches 4 --hosts 1 --clusters 2 --seed 3 --server {addr}"
    )))
    .unwrap();
    assert!(out.contains("partition "), "missing partition in: {out}");
    assert!(out.contains("cc "), "missing cc in: {out}");
    // A coarsening bound is local-only: the daemon has no wire key for
    // it, so the CLI refuses rather than drop it.
    let err = parse(&argv(&format!(
        "schedule --kind paper24 --seed 1 --server {addr} --strategy multilevel --max-coarse-n 8"
    )))
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
    let out = run(&Command::Faults(Faults {
        server: addr.clone(),
        target: ring(6, 2),
        event: "kill=0:1".into(),
    }))
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
    let err = run(&Command::Faults(Faults {
        server: addr.clone(),
        target: ring(6, 2),
        event: "kill=2:3".into(),
    }))
    .unwrap_err();
    assert!(err.contains("stale-epoch"), "error: {err}");
    let out = run(&parsed(&format!(
        "faults --server {addr} --fp {new_fp} --restore 0:1"
    )))
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
    let err = run(&parsed("topology --kind ring --switches 2")).unwrap_err();
    assert!(err.contains("ring needs at least 3"), "error: {err}");
}

#[test]
fn trace_out_writes_jsonl() {
    let dir = scratch("trace");
    let path = dir.join("trace.jsonl");
    let path_str = path.to_str().unwrap().to_string();
    let out = run(&Command::Schedule(Schedule {
        instance: Instance {
            network: ring(6, 2),
            clusters: 2,
            seed: 5,
        },
        options: SchedulerOptions::default(),
        trace_out: Some(path_str.clone()),
    }))
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

/// Command lines that were once accepted with the named flag silently
/// dropped (or, for `status`, a flag it does not have parsed), or that
/// name a retired flag or subcommand, each with what its refusal must
/// say.
const REFUSED: &str = "\
schedule --kind paper24 --clusers 8 --seeed 7 => --clusers
simulate --kind paper24 --server h:1 --strategy multilevel --points 3 => --server
sweep --kind paper24 --server h:1 --points 3 --strategy multilevel => --points
sweep --kind paper24 --server h:1 --strategy multilevel => --strategy
schedule --kind paper24 --server h:1 --trace-out f => --trace-out is local-only
sweep --kind ring --server h:1 --vcs 2 => --vcs is local-only
faults --server h:1 --fp 00c0ffee00c0ffee --kind ring --switches 6 --kill 0:1 => --kind
faults --server h:1 --fp 00c0ffee00c0ffee --hosts 2 --kill 0:1 => --hosts
faults --server h:1 --fp c0ffee --kill 0:1 => --fp
schedule --seed 1 --seed 2 => --seed given more than once
simulate --adaptive --adaptive => --adaptive
status --server h:1 --job 1 --seed x => unknown flag --seed
topology --kind paper24 --adaptive => --adaptive
serve --seed 1 => --seed
metrics --server h:1 --job 3 => --job
schedule --kind paper24 --switches 9 => --switches
schedule --kind ring --degree 3 => --degree
schedule --kind file --input p --hosts 2 => --hosts
serve --no-persist --fsync never => --fsync
submit --server h:1 --points 3 => --points
loadgen --server h:1 --duration -1 => --duration
loadgen --server h:1 --deadline-ms 250 => unknown flag --deadline-ms
scenario --arrivals poisson:50 => unknown subcommand 'scenario'
cluster --node-id 0 --members 0=h:1 => unknown subcommand 'cluster'
serve --repl sync => unknown flag --repl
serve --no-persist --follow h:1 => --follow
serve --no-persist --repl-listen h:1 => --repl-listen
schedule --kind ring --switches 8 --clusters 2 --weights 1,1 => unknown flag --weights
simulate --rate --adaptive => --rate
";

#[test]
fn arguments_a_subcommand_does_not_take_are_refused() {
    for row in REFUSED.lines() {
        let (line, says) = row.split_once(" => ").unwrap();
        let err = parse(&argv(line)).expect_err(line);
        assert!(err.contains(says), "`{line}`: {err}");
    }
    // `status` does not look at flags it does not have.
    parsed("status --server h:1 --job 1");
}

/// One command line per form of each subcommand (`;` between forms), in
/// the order of the usage blocks.
const FORMS: &str = "\
topology =>
schedule => ; --server h:1
simulate =>
sweep => ; --server h:1
serve => ; --no-persist ; --repl-listen h:1 ; --follow h:1
submit => --server h:1 ; --server h:1 --type sweep
loadgen => --server h:1
status => --server h:1 --job 1
metrics => --server h:1
faults => --server h:1 --kill 0:1 ; --server h:1 --fp 00c0ffee00c0ffee --kill 0:1
";

/// The `--flags` a piece of usage text names.
fn flags_in(text: &str) -> BTreeSet<&str> {
    text.split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
        .filter(|word| word.starts_with("--"))
        .collect()
}

#[test]
fn usage_blocks_list_exactly_the_flags_their_parsers_take() {
    // The argument list records every flag a parser asks it for.
    assert_eq!(FORMS.lines().count(), args::USAGE_BLOCKS.len());
    for (block, row) in args::USAGE_BLOCKS.into_iter().zip(FORMS.lines()) {
        let (name, forms) = row.split_once(" =>").unwrap();
        assert!(block.starts_with(&format!("  commsched {name} ")));
        let mut taken = BTreeSet::new();
        for form in forms.split(';') {
            let mut args = args::Args {
                sub: name.to_string(),
                rest: argv(form),
                asked: Vec::new(),
            };
            args::parse_subcommand(&mut args).unwrap_or_else(|e| panic!("{name} {form}: {e}"));
            args.finish().unwrap();
            taken.extend(args.asked);
        }
        let mut documented = flags_in(block);
        if block.contains("<topology flags>") {
            documented.extend(flags_in(args::NETWORK_USAGE));
        }
        assert_eq!(documented, taken, "usage of `{name}` vs its parser");
        assert!(usage(Some(name)).contains(block));
        assert!(usage(None).contains(block));
    }
}

#[test]
fn defaults_are_the_library_structs_own() {
    assert_eq!(parsed("serve"), Command::Serve(serve_defaults()));
    assert_eq!(
        parsed("loadgen --server h:1"),
        Command::Loadgen {
            server: "h:1".into(),
            config: LoadgenConfig::default(),
            out: None,
        }
    );
    match parsed("schedule") {
        Command::Schedule(Schedule { options, .. }) => {
            assert_eq!(options, SchedulerOptions::default());
        }
        other => panic!("wrong parse: {other:?}"),
    }
}

#[test]
fn remote_jobs_are_the_jobs_the_terse_spelling_named() {
    // The words sent are every-key-explicit now; the daemon's defaults
    // make them the job the old hand-formatted words asked for.
    use commsched_service::protocol::{format_job_spec, parse_job_spec};
    for (line, terse) in [
        (
            "schedule --kind paper24 --server h:1",
            "SCHEDULE topo=paper24 clusters=4 seed=42",
        ),
        (
            "sweep --kind paper24 --clusters 2 --seed 7 --server h:1",
            "SWEEP topo=paper24 clusters=2 seed=7",
        ),
        (
            "submit --server h:1 --type sweep --kind paper24 --points 3 \
             --strategy multilevel",
            // As an older daemon logged it: the key is ignored.
            "SWEEP topo=paper24 clusters=4 seed=42 points=3 strategy=multilevel approx-eps=0.05",
        ),
    ] {
        match parse(&argv(line)).unwrap() {
            Command::RemoteJob(RemoteJob { job, .. }) => {
                assert_eq!(parse_job_spec(terse), Ok(job), "{line}");
                assert_eq!(parse_job_spec(&format_job_spec(&job)), Ok(job), "{line}");
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }
}
