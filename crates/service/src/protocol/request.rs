//! What a connection can ask for: [`Request`], its line grammar
//! ([`parse_request`]), and the [`Assembler`] that turns a connection's
//! messages — lines or frames — into whole requests.

use super::spec::parse_topo_ref;
use super::{format_topo_ref, JobSpec, TopoRef};
use commsched_net::frame::{decode_submit_batch, OP_REQ, OP_SUBMIT_BATCH};
use commsched_net::Message;

/// What a connection asked for, in full: every variant carries all it
/// needs to be answered, however many messages it took to arrive.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Upload a topology: `ADDTOPO <nlines>` followed by `nlines` raw
    /// lines of the `commsched_topology::io` text format (line codec),
    /// or by the rest of the frame (binary codec).
    AddTopo {
        /// The uploaded text, not yet parsed.
        text: String,
    },
    /// Enqueue a job.
    Submit(JobSpec),
    /// Enqueue many jobs under one acknowledgement (`OP_SUBMIT_BATCH`):
    /// per entry the spec that passed [`JobSpec::from_wire`], or why it
    /// did not.
    SubmitBatch(Vec<Result<JobSpec, String>>),
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
        event: commsched_topology::FaultEvent,
    },
    /// Capability probe: what protocols/extensions this server speaks.
    Caps,
    /// Cluster probe: shard id, role, and the member table of the
    /// cluster this node belongs to (a single-line `OK standalone` for
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

/// Render the argument words of a `FAULT` request from its network and
/// event word (`kill=a:b`, `restore=a:b[:slowdown]` or `switch=s`).
pub fn format_fault(topo: &TopoRef, event: &str) -> String {
    format!("topo={} {event}", format_topo_ref(topo))
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
    use commsched_topology::FaultEvent;
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

/// What a request's first line amounts to.
#[derive(Debug, Clone, PartialEq)]
enum Head {
    /// The whole request.
    Whole(Request),
    /// `ADDTOPO <lines>`: the body is still to come.
    Upload { lines: usize },
}

fn parse_head(line: &str) -> Result<Head, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let job_id =
        |s: &str| -> Result<u64, String> { s.parse().map_err(|_| format!("bad job id '{s}'")) };
    let request = match words.as_slice() {
        [] => return Err("empty request".into()),
        ["ADDTOPO", n] => {
            return n
                .parse()
                .map(|lines| Head::Upload { lines })
                .map_err(|_| format!("bad line count '{n}'"))
        }
        ["PING"] => Request::Ping,
        ["SUBMIT", rest @ ..] => Request::Submit(JobSpec::from_wire(rest)?),
        ["FAULT", rest @ ..] => parse_fault(rest)?,
        ["STATUS", id] => Request::Status { job: job_id(id)? },
        ["RESULT", id] => Request::Result { job: job_id(id)? },
        ["CANCEL", id] => Request::Cancel { job: job_id(id)? },
        ["CAPS"] => Request::Caps,
        ["CLUSTER"] => Request::Cluster,
        ["STATS"] => Request::Stats,
        ["METRICS"] => Request::Metrics,
        ["SNAPSHOT"] => Request::Snapshot,
        ["SHUTDOWN"] => Request::Shutdown,
        ["QUIT"] => Request::Quit,
        [verb, ..] => return Err(format!("unknown request '{verb}'")),
    };
    Ok(Head::Whole(request))
}

/// Parse one whole request text: a request line, and for `ADDTOPO` the
/// topology text behind it (`\n`-separated; the announced line count is
/// advisory here, the text's end delimits it). This is what an `OP_REQ`
/// frame carries; a line-codec connection, whose uploads span messages,
/// goes through an [`Assembler`].
///
/// # Errors
/// Returns a human-readable message (sent back as `ERR ...`) on
/// malformed input.
pub fn parse_request(text: &str) -> Result<Request, String> {
    let (head, body) = text.split_once('\n').unwrap_or((text, ""));
    Ok(match parse_head(head)? {
        Head::Whole(request) => request,
        Head::Upload { .. } => Request::AddTopo {
            text: body.to_string(),
        },
    })
}

/// What [`Assembler::feed`] made of one message.
#[derive(Debug, Clone, PartialEq)]
pub enum Fed {
    /// Part of an upload; nothing to answer yet.
    More,
    /// A complete request.
    Request(Request),
    /// Not a request: the reason, to be answered `ERR <reason>`. The
    /// connection stays usable.
    Refused(String),
    /// An upload outgrew its byte cap. What follows on the stream can no
    /// longer be told apart from requests: answer and close.
    Overflow,
}

/// In-flight line-codec `ADDTOPO`: the head line announced `remaining`
/// raw topology lines still to come.
#[derive(Debug)]
struct Upload {
    remaining: usize,
    text: String,
}

/// Per-connection assembly of messages into [`Request`]s. The only
/// state a connection has between messages is a line-codec upload in
/// progress and the bytes it has accumulated.
#[derive(Debug, Default)]
pub struct Assembler {
    upload: Option<Upload>,
}

impl Assembler {
    /// Take the connection's next message. `max_upload` caps the text one
    /// line-codec upload may accumulate (a frame is capped by the
    /// decoder): the announced line count is the client's word, and
    /// without a byte cap it would let one connection grow the daemon's
    /// memory without bound.
    pub fn feed(&mut self, message: Message, max_upload: usize) -> Fed {
        let parsed = match message {
            Message::Line(line) => return self.feed_line(&line, max_upload),
            Message::Frame(frame) => match frame.opcode {
                OP_REQ => parse_request(&String::from_utf8_lossy(&frame.payload)),
                OP_SUBMIT_BATCH => decode_submit_batch(&frame.payload)
                    .map(|specs| {
                        let entries = specs
                            .iter()
                            .map(|s| JobSpec::from_wire(&s.split_whitespace().collect::<Vec<_>>()));
                        Request::SubmitBatch(entries.collect())
                    })
                    .map_err(|e| format!("bad-batch {e}")),
                other => Err(format!("unknown-opcode {other:#04x}")),
            },
        };
        parsed.map_or_else(Fed::Refused, Fed::Request)
    }

    /// A line is a request's head, or — while an upload is in progress —
    /// raw topology text, whatever it looks like.
    fn feed_line(&mut self, line: &str, max_upload: usize) -> Fed {
        let upload = match self.upload.take() {
            Some(mut upload) => {
                if upload.text.len() + line.len() + 1 > max_upload {
                    return Fed::Overflow;
                }
                upload.text.push_str(line);
                upload.text.push('\n');
                upload.remaining -= 1;
                upload
            }
            None => match parse_head(line) {
                Ok(Head::Whole(request)) => return Fed::Request(request),
                Err(reason) => return Fed::Refused(reason),
                Ok(Head::Upload { lines }) => Upload {
                    remaining: lines,
                    text: String::new(),
                },
            },
        };
        if upload.remaining == 0 {
            return Fed::Request(Request::AddTopo { text: upload.text });
        }
        self.upload = Some(upload);
        Fed::More
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::RoutingSpec;
    use crate::protocol::*;
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
        // The announced count matters to a line-codec upload only; a
        // whole request text carries its body behind the head line.
        assert_eq!(parse_head("ADDTOPO 12"), Ok(Head::Upload { lines: 12 }));
        assert_eq!(
            parse_request("ADDTOPO 12"),
            Ok(Request::AddTopo {
                text: String::new()
            })
        );
        assert_eq!(
            parse_request("ADDTOPO 2\nswitches 4\nlink 0 1"),
            Ok(Request::AddTopo {
                text: "switches 4\nlink 0 1".to_string()
            })
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
        use commsched_topology::FaultEvent;
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
            kind: JobKind::Noop,
        };
        let text = format_job_spec(&spec);
        assert_eq!(parse_job_spec(&text), Ok(spec), "spelling was '{text}'");
    }

    #[test]
    fn parses_cluster_request() {
        assert_eq!(parse_request("CLUSTER"), Ok(Request::Cluster));
        assert!(parse_request("CLUSTER nodes").is_err());
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
                kind: JobKind::Schedule {
                    clusters: 4,
                    seed: 42,
                },
            },
            JobSpec {
                topo: TopoRef::Registered(0xdead_beef_0123_4567),
                routing: RoutingSpec::ShortestPath,
                strategy: MapStrategy::Flat,
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
