//! The TCP front end: a single event-loop thread multiplexing every
//! connection (see `commsched_net`), replacing the original
//! thread-per-connection design.
//!
//! The loop speaks both wire protocols: the newline-delimited text
//! protocol (unchanged — existing clients work unmodified) and the
//! length-prefixed binary framing for pipelined and batched submits.
//! Protocol dispatch is shared between the two: a binary `OP_REQ`
//! frame carries exactly one line-protocol request (with `ADDTOPO`
//! payload lines inline after the first line), and its reply frame
//! carries the same text the line protocol would have produced.

use crate::jobs::{ServiceCore, ServiceCoreConfig};
use crate::protocol::{self, Request};
use commsched_net::{frame, Action, Handler, NetConfig};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Where a request should be served, as decided by [`ClusterHooks`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteDecision {
    /// This node owns the key (or the request is node-local); serve it.
    Local,
    /// Another shard owns the key; answer `MOVED <shard> <addr>`.
    Moved {
        /// The owning shard id.
        shard: u32,
        /// The owning node's client address.
        addr: String,
    },
}

/// Cluster integration points for the front end. A standalone daemon
/// has none of this (every decision is [`RouteDecision::Local`]); a
/// cluster node installs hooks that consult its hash ring.
pub trait ClusterHooks: Send + Sync {
    /// Route one parsed request by the topology key it names. Requests
    /// without a routable key (PING, STATS, STATUS, ...) are `Local` —
    /// job ids are shard-local, so clients query the shard that acked.
    fn route(&self, request: &Request) -> RouteDecision;

    /// Route an uploaded topology by its fingerprint (the `ADDTOPO`
    /// path, where the key only exists after parsing the upload).
    fn route_fingerprint(&self, fp: u64) -> RouteDecision;

    /// Body lines of the `CLUSTER` response: node id, role, and the
    /// member table.
    fn cluster_lines(&self) -> Vec<String>;

    /// Extra `key value` lines appended to `STATS` (per-shard routing
    /// counters, replication lag).
    fn stats_lines(&self) -> Vec<String>;
}

/// Daemon sizing: the core's knobs plus the worker-thread count and
/// the event loop's connection limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// See [`ServiceCoreConfig`].
    pub core: ServiceCoreConfig,
    /// Event-loop limits: connection cap, idle timeout, frame/line
    /// size caps, write backpressure. See [`NetConfig`].
    pub net: NetConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            core: ServiceCoreConfig::default(),
            net: NetConfig::default(),
        }
    }
}

/// Constructor namespace for the daemon.
pub struct Server;

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port), spawn the
    /// worker pool and the event-loop thread, and return a handle.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let core = Arc::new(ServiceCore::new(config.core));
        Self::bind_with_core(addr, config.workers, config.net, core, None)
    }

    /// Bind with an externally constructed core — e.g. one recovered
    /// from a state directory by [`ServiceCore::recover`] — explicit
    /// event-loop limits and, on a cluster node, the routing hooks
    /// consulted before every request is served.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind_with_core<A: ToSocketAddrs>(
        addr: A,
        workers: usize,
        net: NetConfig,
        core: Arc<ServiceCore>,
        hooks: Option<Arc<dyn ClusterHooks>>,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<JoinHandle<()>> = (0..workers.max(1))
            .map(|_| {
                let core = Arc::clone(&core);
                std::thread::spawn(move || core.worker_loop())
            })
            .collect();
        let loop_thread = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            let metrics = core.stats.net().clone();
            std::thread::spawn(move || {
                let mut handler = ServiceHandler {
                    core: Arc::clone(&core),
                    stop: Arc::clone(&stop),
                    hooks,
                    max_upload_bytes: net.max_frame_payload,
                };
                // Poller failures are unrecoverable for the front end;
                // mark the daemon stopped so handles don't hang.
                let _ = commsched_net::serve(listener, &mut handler, &net, &metrics, &stop);
                stop.store(true, Ordering::SeqCst);
            })
        };
        Ok(ServerHandle {
            addr: local_addr,
            core,
            stop,
            loop_thread: Some(loop_thread),
            workers,
        })
    }
}

/// A running daemon: inspect it, then shut it down (gracefully draining
/// all accepted jobs) with [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    core: Arc<ServiceCore>,
    stop: Arc<AtomicBool>,
    loop_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon core, for in-process inspection (tests, the CLI's
    /// serve loop).
    pub fn core(&self) -> &Arc<ServiceCore> {
        &self.core
    }

    /// Whether a `SHUTDOWN` request (or [`ServerHandle::shutdown`]) has
    /// stopped the event loop.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Block until the event loop exits (i.e. until some client sends
    /// `SHUTDOWN`), then drain and join everything.
    pub fn join(mut self) {
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
        self.finish();
    }

    /// Gracefully stop: refuse new work, finish every accepted job,
    /// flush and close every connection, join all threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
        self.finish();
    }

    fn finish(&mut self) {
        self.core.drain();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// In-flight `ADDTOPO` upload: the request line announced `remaining`
/// raw topology lines still to come on this connection.
struct TopoUpload {
    remaining: usize,
    text: String,
}

/// Per-connection protocol state for the event loop.
pub struct ConnState {
    upload: Option<TopoUpload>,
}

/// The service's [`Handler`]: maps decoded lines/frames to replies by
/// calling into the shared [`ServiceCore`].
struct ServiceHandler {
    core: Arc<ServiceCore>,
    stop: Arc<AtomicBool>,
    hooks: Option<Arc<dyn ClusterHooks>>,
    /// Cap on the text one line-mode `ADDTOPO` may accumulate: the
    /// frame payload limit that already bounds a binary upload.
    max_upload_bytes: usize,
}

impl ServiceHandler {
    /// Register an uploaded topology, producing the reply line. On a
    /// cluster node the upload is routed by its fingerprint first:
    /// uploads belong to the owning shard, so any node accepts the
    /// bytes but only the owner registers them.
    fn finish_topo(&self, text: &str) -> String {
        match commsched_topology::from_text(text) {
            Ok(topo) => {
                if let Some(hooks) = &self.hooks {
                    if let RouteDecision::Moved { shard, addr } =
                        hooks.route_fingerprint(topo.fingerprint())
                    {
                        return protocol::format_moved(shard, &addr);
                    }
                }
                let (fp, _) = self.core.register_topology(topo);
                format!("OK {}", protocol::format_fingerprint(fp))
            }
            Err(e) => format!("ERR {e}"),
        }
    }

    /// Execute one parsed request (everything except `ADDTOPO` and
    /// `QUIT`, which the callers handle because they interact with the
    /// connection itself). Returns the reply lines and the connection
    /// action.
    fn apply(&self, request: Request) -> (Vec<String>, Action) {
        let core = &self.core;
        let reply = |s: String| (vec![s], Action::Continue);
        // Cluster routing first: a request whose topology key another
        // shard owns is answered `MOVED <shard> <addr>` without
        // touching this core at all.
        if let Some(hooks) = &self.hooks {
            if let RouteDecision::Moved { shard, addr } = hooks.route(&request) {
                return reply(protocol::format_moved(shard, &addr));
            }
        }
        match request {
            Request::Ping => reply("OK pong".to_string()),
            Request::Caps => reply(format!(
                "OK caps proto=line+binary version={} batch-submit=1 pipeline=1{}",
                frame::PROTO_VERSION,
                if self.hooks.is_some() {
                    " cluster=1"
                } else {
                    ""
                }
            )),
            Request::Cluster => match &self.hooks {
                Some(hooks) => (block("OK cluster", hooks.cluster_lines()), Action::Continue),
                None => reply("OK standalone".to_string()),
            },
            Request::Submit(spec) => match core.submit(spec) {
                Ok(id) => reply(format!("OK {id}")),
                Err(e) => reply(format!("ERR {e}")),
            },
            Request::Status { job } => match core.status(job) {
                Some(state) => reply(format!("OK {state}")),
                None => reply("ERR unknown-job".to_string()),
            },
            Request::Result { job } => match core.result_lines(job) {
                Ok(lines) => (block("OK result", lines), Action::Continue),
                Err(e) => reply(format!("ERR {e}")),
            },
            Request::Cancel { job } => match core.cancel(job) {
                Ok(()) => reply("OK cancelled".to_string()),
                Err(e) => reply(format!("ERR {e}")),
            },
            Request::Fault { topo, event } => match core.fault(topo, &event) {
                Ok(lines) => (block("OK fault", lines), Action::Continue),
                Err(e) => reply(format!("ERR {e}")),
            },
            Request::Stats => {
                let mut lines = core.stats_lines();
                if let Some(hooks) = &self.hooks {
                    lines.extend(hooks.stats_lines());
                }
                (block("OK stats", lines), Action::Continue)
            }
            Request::Snapshot => match core.snapshot_now() {
                Ok(bytes) => reply(format!("OK snapshot {bytes}")),
                Err(e) => reply(format!("ERR {e}")),
            },
            Request::Metrics => (
                block(
                    "OK metrics",
                    core.metrics_text().lines().map(str::to_string).collect(),
                ),
                Action::Continue,
            ),
            Request::Shutdown => {
                // Drain first so the acknowledgement means "all accepted
                // jobs have finished", then stop the event loop (which
                // still flushes every queued reply before closing).
                core.drain();
                self.stop.store(true, Ordering::SeqCst);
                (
                    vec![format!("OK drained {}", core.stats.completed())],
                    Action::Shutdown,
                )
            }
            Request::AddTopo { .. } | Request::Quit => {
                unreachable!("handled by the connection callbacks")
            }
        }
    }

    /// Run one line-protocol request to completion, producing reply
    /// lines. Used for binary `OP_REQ` frames, which carry `ADDTOPO`
    /// payload lines inline after the first line.
    fn run_text_request(&self, text: &str) -> (Vec<String>, Action) {
        let mut lines = text.split('\n');
        let first = lines.next().unwrap_or_default();
        match protocol::parse_request(first) {
            Err(e) => (vec![format!("ERR {e}")], Action::Continue),
            Ok(Request::Quit) => (Vec::new(), Action::Close),
            Ok(Request::AddTopo { lines: _ }) => {
                // Frame-delimited: the rest of the payload is the
                // topology text (the declared count is advisory here).
                let rest: Vec<&str> = lines.collect();
                (vec![self.finish_topo(&rest.join("\n"))], Action::Continue)
            }
            Ok(req) => self.apply(req),
        }
    }
}

/// `head`, then the payload lines, then the `.` terminator.
fn block(head: &str, lines: Vec<String>) -> Vec<String> {
    let mut out = Vec::with_capacity(lines.len() + 2);
    out.push(head.to_string());
    out.extend(lines);
    out.push(".".to_string());
    out
}

/// Append reply lines to a line-mode connection's output.
fn queue_lines(out: &mut Vec<u8>, lines: &[String]) {
    for l in lines {
        out.extend_from_slice(l.as_bytes());
        out.push(b'\n');
    }
}

/// Encode reply lines as one binary frame: `OP_ERR` when the reply
/// opens with `ERR`, `OP_MOVED` for a cluster redirect (payload is the
/// `<shard> <addr>` tail), `OP_OK` otherwise; the payload is the reply
/// text joined with `\n` (no trailing newline).
fn queue_frame(out: &mut Vec<u8>, lines: &[String]) {
    if lines.is_empty() {
        return;
    }
    if let Some(rest) = lines[0].strip_prefix("MOVED ") {
        frame::encode_frame_into(out, frame::OP_MOVED, rest.as_bytes());
        return;
    }
    let opcode = if lines[0].starts_with("ERR") {
        frame::OP_ERR
    } else {
        frame::OP_OK
    };
    frame::encode_frame_into(out, opcode, lines.join("\n").as_bytes());
}

impl Handler for ServiceHandler {
    type Conn = ConnState;

    fn on_open(&mut self, _token: usize) -> ConnState {
        ConnState { upload: None }
    }

    fn on_line(&mut self, conn: &mut ConnState, line: &str, out: &mut Vec<u8>) -> Action {
        // Mid-upload lines are raw topology text, not requests.
        if let Some(upload) = &mut conn.upload {
            // The announced line count is the client's word; without a
            // byte cap it would let one connection grow the daemon's
            // memory without bound.
            if upload.text.len() + line.len() + 1 > self.max_upload_bytes {
                conn.upload = None;
                queue_lines(out, &["ERR topology-too-large".to_string()]);
                return Action::Close;
            }
            upload.text.push_str(line);
            upload.text.push('\n');
            upload.remaining -= 1;
            if upload.remaining == 0 {
                let upload = conn.upload.take().expect("upload in progress");
                queue_lines(out, &[self.finish_topo(&upload.text)]);
            }
            return Action::Continue;
        }
        match protocol::parse_request(line) {
            Err(e) => {
                queue_lines(out, &[format!("ERR {e}")]);
                Action::Continue
            }
            Ok(Request::Quit) => Action::Close,
            Ok(Request::AddTopo { lines }) => {
                if lines == 0 {
                    queue_lines(out, &[self.finish_topo("")]);
                } else {
                    conn.upload = Some(TopoUpload {
                        remaining: lines,
                        text: String::new(),
                    });
                }
                Action::Continue
            }
            Ok(req) => {
                let (reply, action) = self.apply(req);
                queue_lines(out, &reply);
                action
            }
        }
    }

    fn on_frame(
        &mut self,
        conn: &mut ConnState,
        opcode: u8,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Action {
        match opcode {
            frame::OP_REQ => {
                let _ = conn;
                let text = String::from_utf8_lossy(payload);
                let (reply, action) = self.run_text_request(&text);
                queue_frame(out, &reply);
                action
            }
            frame::OP_SUBMIT_BATCH => match frame::decode_submit_batch(payload) {
                Ok(specs) => {
                    // Parse every spec first; only well-formed ones
                    // reach the core's single-WAL-section batch path.
                    // On a cluster node each spec also routes by its
                    // topology key: misrouted entries come back as
                    // `moved <shard> <addr>` outcomes, never enqueued.
                    let parsed: Vec<Result<protocol::JobSpec, String>> = specs
                        .iter()
                        .map(|s| {
                            let spec = protocol::parse_job_spec(s)?;
                            spec.check_wire_limits()?;
                            if let Some(hooks) = &self.hooks {
                                if let RouteDecision::Moved { shard, addr } =
                                    hooks.route(&Request::Submit(spec))
                                {
                                    return Err(format!("moved {shard} {addr}"));
                                }
                            }
                            Ok(spec)
                        })
                        .collect();
                    let valid: Vec<protocol::JobSpec> = parsed
                        .iter()
                        .filter_map(|r| r.as_ref().ok().copied())
                        .collect();
                    let mut submitted = self.core.submit_batch(&valid).into_iter();
                    let outcomes: Vec<frame::BatchOutcome> = parsed
                        .into_iter()
                        .map(|r| match r {
                            Err(e) => frame::BatchOutcome::Err(e),
                            Ok(_) => match submitted.next().expect("one result per valid spec") {
                                Ok(id) => frame::BatchOutcome::Ok(id),
                                Err(e) => frame::BatchOutcome::Err(e.to_string()),
                            },
                        })
                        .collect();
                    frame::encode_frame_into(
                        out,
                        frame::OP_BATCH_ACK,
                        &frame::encode_batch_ack(&outcomes),
                    );
                    Action::Continue
                }
                Err(e) => {
                    frame::encode_frame_into(
                        out,
                        frame::OP_ERR,
                        format!("ERR bad-batch {e}").as_bytes(),
                    );
                    Action::Continue
                }
            },
            other => {
                frame::encode_frame_into(
                    out,
                    frame::OP_ERR,
                    format!("ERR unknown-opcode {other:#04x}").as_bytes(),
                );
                Action::Continue
            }
        }
    }
}
