//! The wire protocol: line-oriented requests and their parser.
//!
//! One request per `\n`-terminated line of UTF-8 text (`ADDTOPO` is
//! followed by a counted block of raw topology-format lines). Responses
//! start with `OK` or `ERR`; multi-line responses (`RESULT`, `STATS`) end
//! with a line containing a single `.`. The full grammar is documented in
//! `docs/protocol.md`; this module keeps parsing separate from socket
//! handling so it is unit-testable.

use commsched_topology::{designed, random_regular, RandomTopologyConfig, Topology};
use rand::{rngs::StdRng, SeedableRng};

/// How a job names its network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopoRef {
    /// A topology previously uploaded with `ADDTOPO`, by fingerprint.
    Registered(u64),
    /// The paper's designed 24-switch network (four rings of six).
    Paper24,
    /// `ring:<switches>:<hosts_per_switch>`.
    Ring {
        /// Switch count.
        switches: usize,
        /// Workstations per switch.
        hosts: usize,
    },
    /// `random:<switches>:<degree>:<hosts_per_switch>:<seed>`.
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
}

/// What a job computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobKind {
    /// Tabu-search a balanced workload; report partition and quality.
    Schedule {
        /// Number of equal applications.
        clusters: usize,
        /// Search seed.
        seed: u64,
    },
    /// Schedule, then run the paper's S1..S9 load sweep on the mapping.
    Sweep {
        /// Number of equal applications.
        clusters: usize,
        /// Search seed.
        seed: u64,
        /// Simulation points.
        points: usize,
    },
    /// Do nothing and complete immediately. Exists so load generators
    /// can exercise the protocol/queue/WAL path without the cost of a
    /// schedule; `topo=` defaults to `paper24` and is never resolved.
    Noop,
}

/// A fully parsed job request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// The network to work on.
    pub topo: TopoRef,
    /// Up*/down* root (the only routing parameter the protocol exposes;
    /// `shortest` selects shortest-path routing instead).
    pub routing: crate::cache::RoutingSpec,
    /// Mapping pipeline: the paper's flat tabu (`strategy=flat`, the
    /// default) or the coarsen→map→refine pipeline
    /// (`strategy=multilevel`).
    pub strategy: commsched_search::MapStrategy,
    /// Distance-table error budget from `approx-eps=<float>`, stored ×1e6
    /// (0 = exact solver, the default).
    pub approx_eps_micros: u32,
    /// Soft completion deadline in milliseconds from acceptance, from
    /// `deadline-ms=<u64>`; `None` (the default) means no deadline. The
    /// service reports attainment, it does not kill late jobs.
    pub deadline_ms: Option<u64>,
    /// Aggregate memory demand in bytes, from `mem=<u64>`. Admission
    /// charges it against the topology's per-switch memory capacities;
    /// 0 (the default) bypasses capacity accounting entirely.
    pub mem: u64,
    /// The computation.
    pub kind: JobKind,
}

impl Default for JobSpec {
    /// The spec `SUBMIT NOOP` parses to: every key at its documented
    /// default. Construction sites override the fields they care about.
    fn default() -> Self {
        Self {
            topo: TopoRef::Paper24,
            routing: crate::cache::RoutingSpec::UpDown { root: 0 },
            strategy: commsched_search::MapStrategy::Flat,
            approx_eps_micros: 0,
            deadline_ms: None,
            mem: 0,
            kind: JobKind::Noop,
        }
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Upload a topology: `ADDTOPO <nlines>` followed by `nlines` raw
    /// lines of the `commsched_topology::io` text format.
    AddTopo {
        /// Number of raw lines that follow.
        lines: usize,
    },
    /// Enqueue a job.
    Submit(JobSpec),
    /// Query a job's state.
    Status {
        /// Job id.
        job: u64,
    },
    /// Fetch a finished job's payload.
    Result {
        /// Job id.
        job: u64,
    },
    /// Cancel a queued job.
    Cancel {
        /// Job id.
        job: u64,
    },
    /// Inject a fault event into a topology, bumping its epoch:
    /// `FAULT topo=<ref> kill=a:b | restore=a:b[:slowdown] | switch=s`.
    Fault {
        /// The network the event applies to.
        topo: TopoRef,
        /// The reconfiguration event.
        event: commsched_dynamics::FaultEvent,
    },
    /// Capability probe: what protocols/extensions this server speaks.
    Caps,
    /// Cluster topology probe: shard id, role, and the member table of
    /// the ring this node belongs to (a single-line `OK standalone` for
    /// non-clustered daemons).
    Cluster,
    /// Service counters and histograms.
    Stats,
    /// Prometheus-format dump of every metric registry in the process.
    Metrics,
    /// Force a compacting snapshot of the durable state now.
    Snapshot,
    /// Drain all accepted jobs, then stop the server.
    Shutdown,
    /// Close this connection.
    Quit,
}

/// Most switches a builtin `topo=ring:…|random:…` spelling may ask the
/// daemon to generate: the largest network this repository measures. An
/// *uploaded* network is bounded by the frame-payload cap instead.
pub const MAX_WIRE_SWITCHES: usize = 4096;
/// Most workstations per switch (and most inter-switch links per switch)
/// a builtin spelling may ask for.
pub const MAX_WIRE_FANOUT: usize = 64;
/// Most simulation points one `SWEEP` may ask for (each is a full run).
pub const MAX_WIRE_POINTS: usize = 64;

fn within(what: &str, value: usize, max: usize) -> Result<(), String> {
    if value > max {
        return Err(format!("limit-exceeded: {what} {value} > {max}"));
    }
    Ok(())
}

impl TopoRef {
    /// Build the network a builtin spelling names: the one constructor
    /// site under the daemon's topology resolution and the CLI's local runs.
    ///
    /// # Errors
    /// The shape is infeasible, or `self` is a fingerprint (that names a
    /// daemon's registry entry, not a constructor).
    pub fn build(&self) -> Result<Topology, String> {
        match *self {
            TopoRef::Registered(fp) => Err(format!("unknown-topology {}", format_fingerprint(fp))),
            TopoRef::Paper24 => Ok(designed::paper_24_switch()),
            TopoRef::Ring { switches, hosts } => {
                designed::try_ring(switches, hosts).map_err(|e| e.to_string())
            }
            TopoRef::Random {
                switches,
                degree,
                hosts,
                seed,
            } => {
                let cfg = RandomTopologyConfig {
                    degree,
                    hosts_per_switch: hosts,
                    ..RandomTopologyConfig::paper(switches)
                };
                random_regular(cfg, &mut StdRng::seed_from_u64(seed)).map_err(|e| e.to_string())
            }
        }
    }

    /// Refuse a builtin spelling whose generated network a client sized
    /// freely (`ring:10^9:1` would allocate the network, then an N² table,
    /// inside a worker). Applied where requests enter from the wire, not
    /// in [`parse_job_spec`]: a record an older daemon logged must still
    /// recover.
    ///
    /// # Errors
    /// `limit-exceeded: <what> <value> > <max>`.
    pub fn check_wire_limits(&self) -> Result<(), String> {
        let (switches, degree, hosts) = match *self {
            TopoRef::Registered(_) | TopoRef::Paper24 => return Ok(()),
            TopoRef::Ring { switches, hosts } => (switches, 2, hosts),
            TopoRef::Random {
                switches,
                degree,
                hosts,
                ..
            } => (switches, degree, hosts),
        };
        within("switches", switches, MAX_WIRE_SWITCHES)?;
        within("degree", degree, MAX_WIRE_FANOUT)?;
        within("hosts", hosts, MAX_WIRE_FANOUT)
    }
}

impl JobSpec {
    /// [`TopoRef::check_wire_limits`] plus the `points=` cap of a sweep.
    ///
    /// # Errors
    /// `limit-exceeded: <what> <value> > <max>`.
    pub fn check_wire_limits(&self) -> Result<(), String> {
        self.topo.check_wire_limits()?;
        match self.kind {
            JobKind::Sweep { points, .. } => within("points", points, MAX_WIRE_POINTS),
            JobKind::Schedule { .. } | JobKind::Noop => Ok(()),
        }
    }
}

/// Render a fingerprint the way the protocol spells it (16 hex digits).
pub fn format_fingerprint(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Parse a protocol-spelled fingerprint.
pub fn parse_fingerprint(s: &str) -> Option<u64> {
    (s.len() == 16)
        .then(|| u64::from_str_radix(s, 16).ok())
        .flatten()
}

/// Render a cluster redirect reply line: `MOVED <shard> <addr>`.
pub fn format_moved(shard: u32, addr: &str) -> String {
    format!("MOVED {shard} {addr}")
}

/// Parse the payload of a `MOVED` reply (the words after the `MOVED`
/// keyword, or a whole `MOVED <shard> <addr>` line). Returns the owning
/// shard and the address to retry against.
pub fn parse_moved(text: &str) -> Option<(u32, String)> {
    let rest = text.strip_prefix("MOVED").unwrap_or(text);
    let mut words = rest.split_whitespace();
    let shard = words.next()?.parse().ok()?;
    let addr = words.next()?.to_string();
    words.next().is_none().then_some((shard, addr))
}

fn parse_topo_ref(value: &str) -> Result<TopoRef, String> {
    let mut parts = value.split(':');
    let head = parts.next().unwrap_or_default();
    let rest: Vec<&str> = parts.collect();
    let num = |s: &str, what: &str| -> Result<usize, String> {
        s.parse()
            .map_err(|_| format!("bad {what} in topo '{value}'"))
    };
    match (head, rest.as_slice()) {
        ("paper24", []) => Ok(TopoRef::Paper24),
        ("fp", [hex]) => parse_fingerprint(hex)
            .map(TopoRef::Registered)
            .ok_or_else(|| format!("bad fingerprint '{hex}'")),
        ("ring", [s, h]) => Ok(TopoRef::Ring {
            switches: num(s, "switches")?,
            hosts: num(h, "hosts")?,
        }),
        ("random", [s, d, h, seed]) => Ok(TopoRef::Random {
            switches: num(s, "switches")?,
            degree: num(d, "degree")?,
            hosts: num(h, "hosts")?,
            seed: seed
                .parse()
                .map_err(|_| format!("bad seed in topo '{value}'"))?,
        }),
        _ => Err(format!("unknown topo '{value}'")),
    }
}

fn parse_approx_eps(value: &str) -> Result<u32, String> {
    let eps: f64 = value
        .parse()
        .map_err(|_| format!("bad approx-eps '{value}'"))?;
    if !eps.is_finite() || eps < 0.0 {
        return Err(format!("bad approx-eps '{value}'"));
    }
    Ok(commsched_distance::eps_to_micros(eps))
}

fn format_approx_eps(micros: u32) -> String {
    // micros/1e6 is exact in f64 and Rust prints the shortest digits
    // that round-trip, so parse(format(x)) == x.
    format!("{}", f64::from(micros) / 1e6)
}

fn parse_submit(words: &[&str]) -> Result<JobSpec, String> {
    let Some((&kind_word, kv)) = words.split_first() else {
        return Err("SUBMIT needs a job type".into());
    };
    let mut topo = None;
    let mut routing = crate::cache::RoutingSpec::UpDown { root: 0 };
    let mut strategy = commsched_search::MapStrategy::Flat;
    let mut approx_eps_micros = 0u32;
    let mut clusters = 4usize;
    let mut seed = 42u64;
    let mut points = 9usize;
    let mut deadline_ms: Option<u64> = None;
    let mut mem = 0u64;
    for &word in kv {
        let Some((key, value)) = word.split_once('=') else {
            return Err(format!("expected key=value, got '{word}'"));
        };
        match key {
            "topo" => topo = Some(parse_topo_ref(value)?),
            "routing" => routing = value.parse()?,
            "strategy" => strategy = value.parse()?,
            "approx-eps" => approx_eps_micros = parse_approx_eps(value)?,
            "clusters" => {
                clusters = value
                    .parse()
                    .map_err(|_| format!("bad clusters '{value}'"))?;
            }
            "seed" => seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "points" => points = value.parse().map_err(|_| format!("bad points '{value}'"))?,
            "deadline-ms" => {
                deadline_ms = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad deadline-ms '{value}'"))?,
                );
            }
            "mem" => mem = value.parse().map_err(|_| format!("bad mem '{value}'"))?,
            other => return Err(format!("unknown key '{other}'")),
        }
    }
    let kind = match kind_word {
        "SCHEDULE" => JobKind::Schedule { clusters, seed },
        "SWEEP" => JobKind::Sweep {
            clusters,
            seed,
            points,
        },
        "NOOP" => JobKind::Noop,
        other => return Err(format!("unknown job type '{other}'")),
    };
    // NOOP never touches its topology, so the reference may be omitted.
    let topo = match (topo, &kind) {
        (Some(t), _) => t,
        (None, JobKind::Noop) => TopoRef::Paper24,
        (None, _) => return Err("SUBMIT needs topo=...".into()),
    };
    Ok(JobSpec {
        topo,
        routing,
        strategy,
        approx_eps_micros,
        deadline_ms,
        mem,
        kind,
    })
}

/// Render a [`TopoRef`] the way `SUBMIT`'s `topo=` argument spells it
/// ([`parse_job_spec`] round-trips it).
pub fn format_topo_ref(topo: &TopoRef) -> String {
    match topo {
        TopoRef::Registered(fp) => format!("fp:{}", format_fingerprint(*fp)),
        TopoRef::Paper24 => "paper24".to_string(),
        TopoRef::Ring { switches, hosts } => format!("ring:{switches}:{hosts}"),
        TopoRef::Random {
            switches,
            degree,
            hosts,
            seed,
        } => format!("random:{switches}:{degree}:{hosts}:{seed}"),
    }
}

/// Render the argument words of a `FAULT` request from its network and
/// event word (`kill=a:b`, `restore=a:b[:slowdown]` or `switch=s`).
pub fn format_fault(topo: &TopoRef, event: &str) -> String {
    format!("topo={} {event}", format_topo_ref(topo))
}

/// Render a [`JobSpec`] as the argument words of a `SUBMIT` request,
/// every parameter spelled explicitly. The WAL persists jobs in this
/// spelling, so a state directory stays readable with the protocol
/// docs in hand.
pub fn format_job_spec(spec: &JobSpec) -> String {
    let topo = format_topo_ref(&spec.topo);
    let routing = spec.routing;
    let strategy = spec.strategy;
    let eps = format_approx_eps(spec.approx_eps_micros);
    let mut out = match spec.kind {
        JobKind::Schedule { clusters, seed } => format!(
            "SCHEDULE topo={topo} routing={routing} strategy={strategy} approx-eps={eps} \
             clusters={clusters} seed={seed}"
        ),
        JobKind::Sweep {
            clusters,
            seed,
            points,
        } => format!(
            "SWEEP topo={topo} routing={routing} strategy={strategy} approx-eps={eps} \
             clusters={clusters} seed={seed} points={points}"
        ),
        JobKind::Noop => format!("NOOP topo={topo} routing={routing}"),
    };
    // Spelled only when set so existing WAL records and tooling that
    // compare spellings byte-for-byte keep their pre-deadline shape.
    if let Some(ms) = spec.deadline_ms {
        out.push_str(&format!(" deadline-ms={ms}"));
    }
    if spec.mem != 0 {
        out.push_str(&format!(" mem={}", spec.mem));
    }
    out
}

/// Parse the argument words of a `SUBMIT` request (the job-spec half of
/// the line, without the `SUBMIT` verb). Inverse of [`format_job_spec`].
///
/// # Errors
/// Returns a human-readable message on malformed input.
pub fn parse_job_spec(text: &str) -> Result<JobSpec, String> {
    let words: Vec<&str> = text.split_whitespace().collect();
    parse_submit(&words)
}

/// Parse the `<a>:<b>[:<slowdown>]` endpoint syntax of FAULT events.
fn parse_endpoints(value: &str, with_slowdown: bool) -> Result<(usize, usize, u32), String> {
    let parts: Vec<&str> = value.split(':').collect();
    let num = |s: &str| -> Result<usize, String> {
        s.parse().map_err(|_| format!("bad endpoint in '{value}'"))
    };
    match parts.as_slice() {
        [a, b] => Ok((num(a)?, num(b)?, 1)),
        [a, b, s] if with_slowdown => Ok((
            num(a)?,
            num(b)?,
            s.parse()
                .map_err(|_| format!("bad slowdown in '{value}'"))?,
        )),
        _ => Err(format!("expected a:b{} in '{value}'", {
            if with_slowdown {
                "[:slowdown]"
            } else {
                ""
            }
        })),
    }
}

fn parse_fault(words: &[&str]) -> Result<Request, String> {
    use commsched_dynamics::FaultEvent;
    let mut topo = None;
    let mut event = None;
    let mut set_event = |e: FaultEvent| -> Result<(), String> {
        if event.replace(e).is_some() {
            return Err("FAULT takes exactly one event".into());
        }
        Ok(())
    };
    for &word in words {
        let Some((key, value)) = word.split_once('=') else {
            return Err(format!("expected key=value, got '{word}'"));
        };
        match key {
            "topo" => topo = Some(parse_topo_ref(value)?),
            "kill" => {
                let (a, b, _) = parse_endpoints(value, false)?;
                set_event(FaultEvent::LinkDown { a, b })?;
            }
            "restore" => {
                let (a, b, slowdown) = parse_endpoints(value, true)?;
                set_event(FaultEvent::LinkUp { a, b, slowdown })?;
            }
            "switch" => {
                let switch = value.parse().map_err(|_| format!("bad switch '{value}'"))?;
                set_event(FaultEvent::SwitchDown { switch })?;
            }
            other => return Err(format!("unknown key '{other}'")),
        }
    }
    let topo = topo.ok_or("FAULT needs topo=...")?;
    topo.check_wire_limits()?;
    Ok(Request::Fault {
        topo,
        event: event.ok_or("FAULT needs kill=a:b, restore=a:b[:slowdown], or switch=s")?,
    })
}

/// Parse one request line.
///
/// # Errors
/// Returns a human-readable message (sent back as `ERR ...`) on
/// malformed input.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let job_id =
        |s: &str| -> Result<u64, String> { s.parse().map_err(|_| format!("bad job id '{s}'")) };
    match words.as_slice() {
        [] => Err("empty request".into()),
        ["PING"] => Ok(Request::Ping),
        ["ADDTOPO", n] => n
            .parse()
            .map(|lines| Request::AddTopo { lines })
            .map_err(|_| format!("bad line count '{n}'")),
        ["SUBMIT", rest @ ..] => {
            let spec = parse_submit(rest)?;
            spec.check_wire_limits()?;
            Ok(Request::Submit(spec))
        }
        ["FAULT", rest @ ..] => parse_fault(rest),
        ["STATUS", id] => Ok(Request::Status { job: job_id(id)? }),
        ["RESULT", id] => Ok(Request::Result { job: job_id(id)? }),
        ["CANCEL", id] => Ok(Request::Cancel { job: job_id(id)? }),
        ["CAPS"] => Ok(Request::Caps),
        ["CLUSTER"] => Ok(Request::Cluster),
        ["STATS"] => Ok(Request::Stats),
        ["METRICS"] => Ok(Request::Metrics),
        ["SNAPSHOT"] => Ok(Request::Snapshot),
        ["SHUTDOWN"] => Ok(Request::Shutdown),
        ["QUIT"] => Ok(Request::Quit),
        [verb, ..] => Err(format!("unknown request '{verb}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::RoutingSpec;
    use commsched_search::MapStrategy;

    #[test]
    fn parses_simple_verbs() {
        assert_eq!(parse_request("PING"), Ok(Request::Ping));
        assert_eq!(parse_request("STATS"), Ok(Request::Stats));
        assert_eq!(parse_request("METRICS"), Ok(Request::Metrics));
        assert_eq!(parse_request("SHUTDOWN"), Ok(Request::Shutdown));
        assert_eq!(parse_request("QUIT"), Ok(Request::Quit));
        assert_eq!(parse_request("STATUS 17"), Ok(Request::Status { job: 17 }));
        assert_eq!(parse_request("RESULT 3"), Ok(Request::Result { job: 3 }));
        assert_eq!(parse_request("CANCEL 8"), Ok(Request::Cancel { job: 8 }));
        assert_eq!(
            parse_request("ADDTOPO 12"),
            Ok(Request::AddTopo { lines: 12 })
        );
    }

    #[test]
    fn parses_submit_defaults_and_overrides() {
        let r = parse_request("SUBMIT SCHEDULE topo=paper24").unwrap();
        assert_eq!(
            r,
            Request::Submit(JobSpec {
                topo: TopoRef::Paper24,
                routing: RoutingSpec::UpDown { root: 0 },
                strategy: MapStrategy::Flat,
                approx_eps_micros: 0,
                deadline_ms: None,
                mem: 0,
                kind: JobKind::Schedule {
                    clusters: 4,
                    seed: 42
                },
            })
        );
        let r =
            parse_request("SUBMIT SWEEP topo=ring:8:4 clusters=2 seed=7 points=5 routing=shortest")
                .unwrap();
        assert_eq!(
            r,
            Request::Submit(JobSpec {
                topo: TopoRef::Ring {
                    switches: 8,
                    hosts: 4
                },
                routing: RoutingSpec::ShortestPath,
                strategy: MapStrategy::Flat,
                approx_eps_micros: 0,
                deadline_ms: None,
                mem: 0,
                kind: JobKind::Sweep {
                    clusters: 2,
                    seed: 7,
                    points: 5
                },
            })
        );
    }

    #[test]
    fn parses_fingerprint_and_random_refs() {
        let fp = 0xdead_beef_0123_4567u64;
        let line = format!("SUBMIT SCHEDULE topo=fp:{}", format_fingerprint(fp));
        match parse_request(&line).unwrap() {
            Request::Submit(spec) => assert_eq!(spec.topo, TopoRef::Registered(fp)),
            other => panic!("wrong parse: {other:?}"),
        }
        match parse_request("SUBMIT SCHEDULE topo=random:16:3:4:2000").unwrap() {
            Request::Submit(spec) => assert_eq!(
                spec.topo,
                TopoRef::Random {
                    switches: 16,
                    degree: 3,
                    hosts: 4,
                    seed: 2000
                }
            ),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn fingerprint_round_trips() {
        for fp in [0u64, 1, u64::MAX, 0x0123_4567_89ab_cdef] {
            assert_eq!(parse_fingerprint(&format_fingerprint(fp)), Some(fp));
        }
        assert_eq!(parse_fingerprint("123"), None);
        assert_eq!(parse_fingerprint("zzzzzzzzzzzzzzzz"), None);
    }

    #[test]
    fn parses_fault_events() {
        use commsched_dynamics::FaultEvent;
        assert_eq!(
            parse_request("FAULT topo=paper24 kill=0:1"),
            Ok(Request::Fault {
                topo: TopoRef::Paper24,
                event: FaultEvent::LinkDown { a: 0, b: 1 },
            })
        );
        let ring = TopoRef::Ring {
            switches: 8,
            hosts: 4,
        };
        assert_eq!(
            format_fault(&ring, "restore=2:3"),
            "topo=ring:8:4 restore=2:3"
        );
        assert_eq!(
            parse_request("FAULT topo=ring:8:4 restore=2:3"),
            Ok(Request::Fault {
                topo: TopoRef::Ring {
                    switches: 8,
                    hosts: 4
                },
                event: FaultEvent::LinkUp {
                    a: 2,
                    b: 3,
                    slowdown: 1
                },
            })
        );
        assert_eq!(
            parse_request("FAULT topo=paper24 restore=2:3:4"),
            Ok(Request::Fault {
                topo: TopoRef::Paper24,
                event: FaultEvent::LinkUp {
                    a: 2,
                    b: 3,
                    slowdown: 4
                },
            })
        );
        let fp = 0xdead_beef_0123_4567u64;
        assert_eq!(
            parse_request(&format!(
                "FAULT topo=fp:{} switch=5",
                format_fingerprint(fp)
            )),
            Ok(Request::Fault {
                topo: TopoRef::Registered(fp),
                event: FaultEvent::SwitchDown { switch: 5 },
            })
        );
    }

    #[test]
    fn rejects_malformed_fault_requests() {
        assert!(parse_request("FAULT").is_err()); // no topo, no event
        assert!(parse_request("FAULT topo=paper24").is_err()); // no event
        assert!(parse_request("FAULT kill=0:1").is_err()); // no topo
        assert!(parse_request("FAULT topo=paper24 kill=0").is_err());
        assert!(parse_request("FAULT topo=paper24 kill=0:1:2").is_err()); // kill takes no slowdown
        assert!(parse_request("FAULT topo=paper24 kill=a:b").is_err());
        assert!(parse_request("FAULT topo=paper24 restore=1:2:x").is_err());
        assert!(parse_request("FAULT topo=paper24 switch=many").is_err());
        assert!(parse_request("FAULT topo=paper24 kill=0:1 switch=2").is_err()); // two events
        assert!(parse_request("FAULT topo=paper24 frob=1").is_err());
    }

    #[test]
    fn parses_caps_and_noop() {
        assert_eq!(parse_request("CAPS"), Ok(Request::Caps));
        assert!(parse_request("CAPS binary").is_err());
        // NOOP defaults its topology; explicit refs still parse.
        assert_eq!(
            parse_request("SUBMIT NOOP"),
            Ok(Request::Submit(JobSpec {
                topo: TopoRef::Paper24,
                routing: RoutingSpec::UpDown { root: 0 },
                strategy: MapStrategy::Flat,
                approx_eps_micros: 0,
                deadline_ms: None,
                mem: 0,
                kind: JobKind::Noop,
            }))
        );
        let spec = JobSpec {
            topo: TopoRef::Ring {
                switches: 8,
                hosts: 4,
            },
            routing: RoutingSpec::ShortestPath,
            strategy: MapStrategy::Flat,
            approx_eps_micros: 0,
            deadline_ms: None,
            mem: 0,
            kind: JobKind::Noop,
        };
        let text = format_job_spec(&spec);
        assert_eq!(parse_job_spec(&text), Ok(spec), "spelling was '{text}'");
    }

    #[test]
    fn parses_cluster_request_and_moved_replies() {
        assert_eq!(parse_request("CLUSTER"), Ok(Request::Cluster));
        assert!(parse_request("CLUSTER nodes").is_err());
        assert_eq!(format_moved(3, "127.0.0.1:7480"), "MOVED 3 127.0.0.1:7480");
        assert_eq!(
            parse_moved("MOVED 3 127.0.0.1:7480"),
            Some((3, "127.0.0.1:7480".to_string()))
        );
        // The frame payload form omits the keyword.
        assert_eq!(
            parse_moved("0 [::1]:9000"),
            Some((0, "[::1]:9000".to_string()))
        );
        assert_eq!(parse_moved("MOVED"), None);
        assert_eq!(parse_moved("MOVED x addr"), None);
        assert_eq!(parse_moved("MOVED 1 addr trailing"), None);
    }

    #[test]
    fn parses_snapshot_request() {
        assert_eq!(parse_request("SNAPSHOT"), Ok(Request::Snapshot));
        assert!(parse_request("SNAPSHOT now").is_err());
    }

    #[test]
    fn job_specs_round_trip_through_their_wire_spelling() {
        let specs = [
            JobSpec {
                topo: TopoRef::Paper24,
                routing: RoutingSpec::UpDown { root: 3 },
                strategy: MapStrategy::Flat,
                approx_eps_micros: 0,
                deadline_ms: None,
                mem: 0,
                kind: JobKind::Schedule {
                    clusters: 4,
                    seed: 42,
                },
            },
            JobSpec {
                topo: TopoRef::Registered(0xdead_beef_0123_4567),
                routing: RoutingSpec::ShortestPath,
                strategy: MapStrategy::Flat,
                approx_eps_micros: 0,
                deadline_ms: None,
                mem: 0,
                kind: JobKind::Sweep {
                    clusters: 2,
                    seed: 7,
                    points: 5,
                },
            },
            JobSpec {
                topo: TopoRef::Random {
                    switches: 16,
                    degree: 3,
                    hosts: 4,
                    seed: 2000,
                },
                routing: RoutingSpec::UpDown { root: 0 },
                strategy: MapStrategy::Flat,
                approx_eps_micros: 0,
                deadline_ms: None,
                mem: 0,
                kind: JobKind::Schedule {
                    clusters: 8,
                    seed: 0,
                },
            },
        ];
        for spec in specs {
            let text = format_job_spec(&spec);
            assert_eq!(parse_job_spec(&text), Ok(spec), "spelling was '{text}'");
            // The spelling doubles as a full SUBMIT line.
            assert_eq!(
                parse_request(&format!("SUBMIT {text}")),
                Ok(Request::Submit(spec))
            );
        }
    }

    #[test]
    fn parses_deadline_and_mem_keys() {
        let r = parse_request("SUBMIT NOOP deadline-ms=250 mem=4096").unwrap();
        match r {
            Request::Submit(spec) => {
                assert_eq!(spec.deadline_ms, Some(250));
                assert_eq!(spec.mem, 4096);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // The keys ride along on every job kind and round-trip through
        // the WAL spelling.
        let spec = JobSpec {
            deadline_ms: Some(1500),
            mem: 1 << 20,
            kind: JobKind::Schedule {
                clusters: 4,
                seed: 42,
            },
            ..JobSpec::default()
        };
        let text = format_job_spec(&spec);
        assert!(text.contains("deadline-ms=1500"), "spelling was '{text}'");
        assert!(text.contains("mem=1048576"), "spelling was '{text}'");
        assert_eq!(parse_job_spec(&text), Ok(spec), "spelling was '{text}'");
        // NOOP keeps the keys too (the loadgen submits NOOPs).
        let noop = JobSpec {
            deadline_ms: Some(30),
            mem: 64,
            ..JobSpec::default()
        };
        let text = format_job_spec(&noop);
        assert_eq!(parse_job_spec(&text), Ok(noop), "spelling was '{text}'");
        // Unset keys are not spelled at all: the WAL shape of old jobs
        // is unchanged.
        let plain = format_job_spec(&JobSpec::default());
        assert!(!plain.contains("deadline-ms"), "spelling was '{plain}'");
        assert!(!plain.contains("mem="), "spelling was '{plain}'");
    }

    #[test]
    fn rejects_bad_deadline_and_mem_values() {
        let err = parse_request("SUBMIT NOOP deadline-ms=soon").unwrap_err();
        assert_eq!(err, "bad deadline-ms 'soon'");
        let err = parse_request("SUBMIT NOOP deadline-ms=-1").unwrap_err();
        assert_eq!(err, "bad deadline-ms '-1'");
        let err = parse_request("SUBMIT NOOP mem=lots").unwrap_err();
        assert_eq!(err, "bad mem 'lots'");
    }

    #[test]
    fn oversize_wire_values_are_refused_but_still_parse_from_the_log() {
        for (line, what) in [
            ("SUBMIT SCHEDULE topo=ring:1000000000:1", "switches"),
            ("SUBMIT SCHEDULE topo=ring:8:65", "hosts"),
            ("SUBMIT NOOP topo=random:4097:3:1:7", "switches"),
            ("SUBMIT SCHEDULE topo=random:64:65:1:7", "degree"),
            ("SUBMIT SWEEP topo=paper24 points=65", "points"),
            ("FAULT topo=ring:4097:1 kill=0:1", "switches"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(
                err.starts_with(&format!("limit-exceeded: {what} ")),
                "{line}: {err}"
            );
        }
        // At the caps everything is accepted.
        parse_request("SUBMIT SWEEP topo=random:4096:64:64:7 points=64").unwrap();
        parse_request("FAULT topo=ring:4096:64 kill=0:1").unwrap();
        // An `accept` record an older daemon logged must still recover:
        // the log-side parser applies no caps.
        let logged = parse_job_spec("SWEEP topo=ring:5000:1 points=100").unwrap();
        assert!(logged.check_wire_limits().is_err());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("").is_err());
        assert!(parse_request("FROBNICATE").is_err());
        assert!(parse_request("STATUS notanumber").is_err());
        assert!(parse_request("ADDTOPO many").is_err());
        assert!(parse_request("SUBMIT").is_err());
        assert!(parse_request("SUBMIT SCHEDULE").is_err()); // no topo
        assert!(parse_request("SUBMIT SCHEDULE topo=nosuch").is_err());
        assert!(parse_request("SUBMIT SCHEDULE topo=paper24 clusters=four").is_err());
        assert!(parse_request("SUBMIT SCHEDULE topo=paper24 stray").is_err());
        assert!(parse_request("SUBMIT SCHEDULE topo=paper24 routing=left").is_err());
        assert!(parse_request("SUBMIT DANCE topo=paper24").is_err());
        assert!(parse_request("SUBMIT SCHEDULE topo=fp:123").is_err());
    }
}
