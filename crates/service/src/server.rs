//! The TCP front end: a single event-loop thread multiplexing every
//! connection (see `commsched_net`), and the one request path behind it.
//!
//! The loop speaks both wire codecs — newline-delimited text and
//! length-prefixed binary frames for pipelined and batched submits — and
//! a request takes the same four steps whichever carried it: the loop's
//! `Decoder` makes messages of bytes, the connection's
//! [`Assembler`] makes a [`Request`] of messages (an `OP_REQ` frame
//! carries one whole request text, a line-codec upload spans lines),
//! `ServiceHandler::apply` answers it with a [`Reply`], and
//! [`Reply::encode`] spells that in the codec the request arrived in.

use crate::jobs::{ServiceCore, ServiceCoreConfig};
use crate::protocol::{self, Assembler, Fed, JobSpec, Reply, Request};
use commsched_net::frame::{self, BatchOutcome};
use commsched_net::{Action, Handler, Message, NetConfig};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// What a cluster node reports about itself, fixed when it binds: the
/// body lines of `CLUSTER` (its role). A standalone daemon has none, and
/// answers `CLUSTER` with `OK standalone`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterInfo {
    /// Body lines of the `CLUSTER` response.
    pub cluster_lines: Vec<String>,
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
    /// event-loop limits and, on a cluster node, what `CLUSTER` and
    /// `STATS` report about it.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind_with_core<A: ToSocketAddrs>(
        addr: A,
        workers: usize,
        net: NetConfig,
        core: Arc<ServiceCore>,
        cluster: Option<ClusterInfo>,
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
                    cluster,
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

/// The service's [`Handler`]: a connection's messages are assembled into
/// [`Request`]s, each is applied to the shared [`ServiceCore`], and the
/// [`Reply`] is encoded in the codec the request arrived in.
struct ServiceHandler {
    core: Arc<ServiceCore>,
    stop: Arc<AtomicBool>,
    cluster: Option<ClusterInfo>,
    /// Cap on the text one line-mode `ADDTOPO` may accumulate: the
    /// frame payload limit that already bounds a binary upload.
    max_upload_bytes: usize,
}

impl ServiceHandler {
    /// Answer one request: the reply (none for `QUIT`) and what becomes
    /// of the connection.
    fn apply(&self, request: Request) -> (Option<Reply>, Action) {
        let core = &self.core;
        let ok = |result: Result<String, String>| match result {
            Ok(text) => Reply::Ok(text),
            Err(reason) => Reply::Err(reason),
        };
        let block = |head: &str, lines: Result<Vec<String>, String>| match lines {
            Ok(lines) => Reply::Block {
                head: head.to_string(),
                lines,
            },
            Err(reason) => Reply::Err(reason),
        };
        let reply = match request {
            Request::Ping => Reply::Ok("pong".to_string()),
            Request::Caps => Reply::Ok(format!(
                "caps proto=line+binary version={} batch-submit=1 pipeline=1{}",
                frame::PROTO_VERSION,
                if self.cluster.is_some() {
                    " cluster=1"
                } else {
                    ""
                }
            )),
            Request::Cluster => match &self.cluster {
                Some(info) => block("cluster", Ok(info.cluster_lines.clone())),
                None => Reply::Ok("standalone".to_string()),
            },
            Request::AddTopo { text } => match commsched_topology::from_text(&text) {
                Ok(topo) => Reply::Ok(protocol::format_fingerprint(core.register_topology(topo).0)),
                Err(e) => Reply::Err(e.to_string()),
            },
            Request::Submit(spec) => ok(core
                .submit(spec)
                .map(|id| id.to_string())
                .map_err(|e| e.to_string())),
            Request::SubmitBatch(entries) => Reply::BatchAck(self.submit_batch(entries)),
            Request::Status { job } => ok(core
                .status(job)
                .map(|state| state.to_string())
                .ok_or_else(|| "unknown-job".to_string())),
            Request::Result { job } => block("result", core.result_lines(job)),
            Request::Cancel { job } => ok(core.cancel(job).map(|()| "cancelled".to_string())),
            Request::Fault { topo, event } => block("fault", core.fault(topo, &event)),
            Request::Stats => block("stats", Ok(core.stats_lines())),
            Request::Snapshot => ok(core
                .snapshot_now()
                .map(|bytes| format!("snapshot {bytes}"))
                .map_err(|e| e.to_string())),
            Request::Metrics => block(
                "metrics",
                Ok(core.metrics_text().lines().map(str::to_string).collect()),
            ),
            Request::Shutdown => {
                // Drain first so the acknowledgement means "all accepted
                // jobs have finished", then stop the event loop (which
                // still flushes every queued reply before closing).
                core.drain();
                self.stop.store(true, Ordering::SeqCst);
                let farewell = Reply::Ok(format!("drained {}", core.stats.completed()));
                return (Some(farewell), Action::Shutdown);
            }
            Request::Quit => return (None, Action::Close),
        };
        (Some(reply), Action::Continue)
    }

    /// Admit a batch: entries that did not parse keep their reason, and
    /// the rest reach the core's single-WAL-section batch path together.
    fn submit_batch(&self, entries: Vec<Result<JobSpec, String>>) -> Vec<BatchOutcome> {
        let valid: Vec<JobSpec> = entries.iter().flatten().copied().collect();
        let mut submitted = self.core.submit_batch(&valid).into_iter();
        entries
            .into_iter()
            .map(|entry| match entry {
                Err(reason) => BatchOutcome::Err(reason),
                Ok(_) => match submitted.next().expect("one result per valid spec") {
                    Ok(id) => BatchOutcome::Ok(id),
                    Err(e) => BatchOutcome::Err(e.to_string()),
                },
            })
            .collect()
    }
}

impl Handler for ServiceHandler {
    type Conn = Assembler;

    fn on_open(&mut self, _token: usize) -> Assembler {
        Assembler::default()
    }

    fn on_message(&mut self, conn: &mut Assembler, message: Message, out: &mut Vec<u8>) -> Action {
        let binary = matches!(message, Message::Frame(_));
        let (reply, action) = match conn.feed(message, self.max_upload_bytes) {
            Fed::More => return Action::Continue,
            Fed::Request(request) => self.apply(request),
            Fed::Refused(reason) => (Some(Reply::Err(reason)), Action::Continue),
            Fed::Overflow => (
                Some(Reply::Err("topology-too-large".to_string())),
                Action::Close,
            ),
        };
        if let Some(reply) = reply {
            reply.encode(binary, out);
        }
        action
    }
}
