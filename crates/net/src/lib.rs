#![warn(missing_docs)]

//! Zero-dependency event-loop networking for the commsched service.
//!
//! The service's original front end parked one OS thread per
//! connection in blocking reads — fine for a handful of clients,
//! hopeless for thousands. This crate replaces it with a single-thread
//! readiness loop, hand-rolled on raw `epoll`/`poll(2)` syscalls (the
//! build environment is offline, so no `mio`/`tokio`; see [`sys`]):
//!
//! * [`poller`] — level-triggered readiness over epoll (Linux) or
//!   `poll(2)` (portable fallback, also testable on Linux).
//! * [`frame`] — the length-prefixed binary framing with its versioned
//!   connect preamble, batched-submit payloads, and a torn-frame-safe
//!   incremental decoder.
//! * [`serve`] — the connection engine: accept, first-byte protocol
//!   auto-detection (line vs binary), pipelined request parsing,
//!   backpressure-aware write queues, idle timeouts, a max-connection
//!   cap with typed `busy` rejection, and a deterministic drain that
//!   flushes every pending write buffer before closing.
//!
//! Protocol semantics stay out of this crate: a [`Handler`] maps
//! decoded lines/frames to reply bytes, so the service wires in its
//! existing dispatcher and `ServiceCore` (queue, WAL, workers, cache)
//! unchanged.

pub mod frame;
pub mod poller;
pub mod sys;

use crate::frame::{FrameDecoder, FrameError};
use crate::poller::{Event, Interest, Poller};
use commsched_telemetry::{Counter, Gauge, Histo, Registry};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Event-loop tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Maximum simultaneously open connections; further accepts get a
    /// `busy` rejection and an immediate close.
    pub max_connections: usize,
    /// Close a connection that has sent no bytes for this long
    /// (`None` disables the idle scan).
    pub idle_timeout: Option<Duration>,
    /// Largest accepted binary frame payload (opcode excluded).
    pub max_frame_payload: usize,
    /// Largest accepted line-protocol line (newline excluded).
    pub max_line_bytes: usize,
    /// Stop reading from a connection whose pending write bytes exceed
    /// this (backpressure); reading resumes once the peer drains us.
    pub write_buffer_limit: usize,
    /// On shutdown, how long to keep flushing pending write buffers
    /// before force-closing laggards.
    pub drain_grace: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            max_connections: 10_240,
            idle_timeout: None,
            max_frame_payload: frame::DEFAULT_MAX_FRAME_PAYLOAD,
            max_line_bytes: 64 * 1024,
            write_buffer_limit: 1 << 20,
            drain_grace: Duration::from_secs(5),
        }
    }
}

/// Telemetry handles the event loop updates as it runs. All cheap
/// `Arc` clones of registry cells; see [`NetMetrics::register`].
#[derive(Clone)]
pub struct NetMetrics {
    /// Currently open connections.
    pub connections_open: Gauge,
    /// Requests decoded (line requests + binary frames).
    pub frames_rx: Counter,
    /// Responses emitted (lines/blocks + binary frames).
    pub frames_tx: Counter,
    /// Bytes read off sockets.
    pub bytes_rx: Counter,
    /// Bytes written to sockets.
    pub bytes_tx: Counter,
    /// Accepts rejected because the connection cap was reached.
    pub busy_rejections: Counter,
    /// Connections closed by the idle timeout.
    pub idle_closed: Counter,
    /// Requests decoded per readiness event — the observed pipeline
    /// depth distribution.
    pub pipeline_depth: Histo,
}

impl NetMetrics {
    /// Register (or look up) the `net_*` metric family in `registry`.
    pub fn register(registry: &Registry) -> Self {
        Self {
            connections_open: registry.gauge("net_connections_open", "open client connections"),
            frames_rx: registry.counter("net_frames_rx_total", "requests decoded (lines + frames)"),
            frames_tx: registry
                .counter("net_frames_tx_total", "responses emitted (lines + frames)"),
            bytes_rx: registry.counter("net_bytes_rx_total", "bytes read from clients"),
            bytes_tx: registry.counter("net_bytes_tx_total", "bytes written to clients"),
            busy_rejections: registry.counter(
                "net_busy_rejections_total",
                "accepts rejected at the connection cap",
            ),
            idle_closed: registry.counter("net_idle_closed_total", "connections closed as idle"),
            pipeline_depth: registry
                .histogram("net_pipeline_depth", "requests decoded per readiness event"),
        }
    }

    /// Handles backed by a throwaway registry — for tests and tools
    /// that don't expose metrics.
    pub fn detached() -> Self {
        Self::register(&Registry::new())
    }
}

/// What the [`Handler`] wants done with the connection after a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Keep serving this connection.
    Continue,
    /// Flush the reply just queued, then close this connection.
    Close,
    /// Flush every connection's pending replies, then stop the server
    /// (the wire `SHUTDOWN` path).
    Shutdown,
}

/// Protocol logic plugged into the event loop.
///
/// Callbacks run on the loop thread; replies are appended to `out` as
/// raw wire bytes (newline-terminated lines for line-mode connections,
/// encoded frames for binary ones — the callback that fired tells you
/// which mode the connection is in).
pub trait Handler {
    /// Per-connection protocol state.
    type Conn;

    /// A connection was accepted (token identifies it in later calls).
    fn on_open(&mut self, token: usize) -> Self::Conn;

    /// One complete line-protocol line arrived (terminator stripped).
    fn on_line(&mut self, conn: &mut Self::Conn, line: &str, out: &mut Vec<u8>) -> Action;

    /// One complete binary frame arrived.
    fn on_frame(
        &mut self,
        conn: &mut Self::Conn,
        opcode: u8,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Action;

    /// The connection closed (any path: peer EOF, error, idle, drain).
    fn on_close(&mut self, conn: Self::Conn) {
        let _ = conn;
    }

    /// Reply sent to a connection rejected at the connection cap.
    /// Always line-form: the peer has not spoken yet, so its protocol
    /// is unknown.
    fn busy_reply(&self) -> &'static [u8] {
        b"ERR busy max-connections\n"
    }
}

enum Mode {
    /// No bytes seen yet; the first byte picks line vs binary.
    Detect,
    /// Newline-delimited text; `buf` holds the current partial line.
    Line { buf: Vec<u8> },
    /// Length-prefixed frames behind the versioned preamble.
    Binary { dec: FrameDecoder },
}

struct Conn<C> {
    stream: TcpStream,
    user: Option<C>,
    mode: Mode,
    /// Outgoing bytes: `wbuf[wpos..]` is pending.
    wbuf: Vec<u8>,
    wpos: usize,
    /// No more reads; flush `wbuf` then close.
    closing: bool,
    cur_interest: Interest,
    last_activity: Instant,
}

impl<C> Conn<C> {
    fn pending(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn queue(&mut self, bytes: &[u8]) {
        // Reclaim the consumed prefix before growing.
        if self.wpos > 0 && (self.wpos == self.wbuf.len() || self.wpos >= 64 * 1024) {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        self.wbuf.extend_from_slice(bytes);
    }
}

const LISTENER_TOKEN: usize = 0;
/// Poll tick: bounds stop-flag latency and paces the idle scan.
const TICK: Duration = Duration::from_millis(25);
const READ_CHUNK: usize = 64 * 1024;
/// Descriptors the process needs besides client sockets: the listener,
/// the poller, stdio, the WAL, snapshot and spill files, replication.
const FD_HEADROOM: u64 = 64;

/// Outcome of one [`serve`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeExit {
    /// The external stop flag was raised.
    Stopped,
    /// A handler returned [`Action::Shutdown`].
    Shutdown,
}

/// Run the event loop on `listener` until the stop flag rises or a
/// handler asks for [`Action::Shutdown`]. Either way every
/// connection's pending write bytes are flushed (bounded by
/// [`NetConfig::drain_grace`]) before the sockets close — pipelined
/// requests whose replies were already queued are never lost.
///
/// The soft `RLIMIT_NOFILE` is first raised (best-effort) to cover
/// [`NetConfig::max_connections`]: under the common 1024 default,
/// `accept()` would otherwise fail with `EMFILE` long before the cap
/// and the clients beyond it would hang instead of being told `busy`.
///
/// # Errors
/// Only setup/poller failures are fatal; per-connection I/O errors
/// close that connection and the loop continues.
pub fn serve<H: Handler>(
    listener: TcpListener,
    handler: &mut H,
    config: &NetConfig,
    metrics: &NetMetrics,
    stop: &AtomicBool,
) -> io::Result<ServeExit> {
    listener.set_nonblocking(true)?;
    let _ = sys::raise_nofile_limit(config.max_connections as u64 + FD_HEADROOM);
    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;

    let mut slab: Vec<Option<Conn<H::Conn>>> = Vec::new();
    let mut free: VecDeque<usize> = VecDeque::new();
    let mut open = 0usize;
    let mut events: Vec<Event> = Vec::new();
    let mut read_buf = vec![0u8; READ_CHUNK];
    let mut out_scratch: Vec<u8> = Vec::new();
    let mut next_idle_scan = Instant::now() + Duration::from_millis(250);
    let mut exit = ServeExit::Stopped;
    let mut draining = false;
    let mut drain_deadline = Instant::now();

    'outer: loop {
        poller.wait(&mut events, Some(TICK))?;
        let now = Instant::now();

        if !draining && stop.load(Ordering::SeqCst) {
            draining = true;
            drain_deadline = now + config.drain_grace;
            begin_drain(&mut poller, &listener, &mut slab);
        }

        for ev in events.iter().copied() {
            if ev.token == LISTENER_TOKEN {
                if !draining {
                    accept_ready(
                        &listener,
                        &mut poller,
                        &mut slab,
                        &mut free,
                        &mut open,
                        handler,
                        config,
                        metrics,
                    );
                }
                continue;
            }
            let idx = ev.token - 1;
            if slab.get(idx).is_none_or(Option::is_none) {
                continue; // closed earlier this batch
            }

            let mut dead = ev.hangup && slab[idx].as_ref().is_some_and(|c| c.pending() == 0);
            if !dead && ev.writable {
                dead = !flush_writes(slab[idx].as_mut().expect("live conn"), metrics);
            }
            if !dead && ev.readable {
                dead = !handle_readable(
                    idx,
                    &mut slab,
                    handler,
                    config,
                    metrics,
                    &mut read_buf,
                    &mut out_scratch,
                    &mut draining,
                    &mut drain_deadline,
                    &mut exit,
                );
            }
            if dead {
                close_conn(
                    idx,
                    &mut slab,
                    &mut free,
                    &mut open,
                    &mut poller,
                    handler,
                    metrics,
                );
            } else if let Some(conn) = slab[idx].as_mut() {
                if conn.closing && conn.pending() == 0 {
                    close_conn(
                        idx,
                        &mut slab,
                        &mut free,
                        &mut open,
                        &mut poller,
                        handler,
                        metrics,
                    );
                } else {
                    update_interest(ev.token, conn, config, &mut poller);
                }
            }
            if draining && !slab_draining_started(&slab) {
                // entered drain mid-batch (Shutdown): freeze remaining conns
                begin_drain(&mut poller, &listener, &mut slab);
            }
        }

        if draining {
            // Close everything that has nothing left to say; leave when
            // the slab is empty or the grace period runs out.
            for idx in 0..slab.len() {
                let done = slab[idx].as_ref().is_some_and(|c| c.pending() == 0);
                if done {
                    close_conn(
                        idx,
                        &mut slab,
                        &mut free,
                        &mut open,
                        &mut poller,
                        handler,
                        metrics,
                    );
                }
            }
            if open == 0 || now >= drain_deadline {
                break 'outer;
            }
            continue;
        }

        if now >= next_idle_scan {
            next_idle_scan = now + Duration::from_millis(250);
            if let Some(idle) = config.idle_timeout {
                for idx in 0..slab.len() {
                    let expired = slab[idx]
                        .as_ref()
                        .is_some_and(|c| !c.closing && now.duration_since(c.last_activity) > idle);
                    if expired {
                        let conn = slab[idx].as_mut().expect("live conn");
                        queue_error(conn, "idle-timeout");
                        conn.closing = true;
                        metrics.idle_closed.inc();
                        if !flush_writes(conn, metrics) || conn.pending() == 0 {
                            close_conn(
                                idx,
                                &mut slab,
                                &mut free,
                                &mut open,
                                &mut poller,
                                handler,
                                metrics,
                            );
                        } else {
                            update_interest(idx + 1, conn, config, &mut poller);
                        }
                    }
                }
            }
        }
    }

    // Final close of any connection that outlived the grace period.
    for idx in 0..slab.len() {
        if slab[idx].is_some() {
            close_conn(
                idx,
                &mut slab,
                &mut free,
                &mut open,
                &mut poller,
                handler,
                metrics,
            );
        }
    }
    Ok(exit)
}

/// Whether drain freezing already ran (every live conn is closing).
fn slab_draining_started<C>(slab: &[Option<Conn<C>>]) -> bool {
    slab.iter().flatten().all(|c| c.closing)
}

/// Stop accepting and freeze every connection into flush-and-close.
fn begin_drain<C>(poller: &mut Poller, listener: &TcpListener, slab: &mut [Option<Conn<C>>]) {
    poller.deregister(listener.as_raw_fd());
    for (idx, slot) in slab.iter_mut().enumerate() {
        if let Some(conn) = slot {
            conn.closing = true;
            let interest = Interest::WRITE;
            if conn.cur_interest != interest {
                conn.cur_interest = interest;
                let _ = poller.reregister(conn.stream.as_raw_fd(), idx + 1, interest);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_ready<H: Handler>(
    listener: &TcpListener,
    poller: &mut Poller,
    slab: &mut Vec<Option<Conn<H::Conn>>>,
    free: &mut VecDeque<usize>,
    open: &mut usize,
    handler: &mut H,
    config: &NetConfig,
    metrics: &NetMetrics,
) {
    loop {
        let (mut stream, _peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return, // transient (EMFILE etc.): retry on next tick
        };
        if *open >= config.max_connections {
            // Typed rejection, best-effort: the socket buffer of a
            // fresh connection always has room for one short line.
            let _ = stream.write_all(handler.busy_reply());
            metrics.busy_rejections.inc();
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let idx = free.pop_front().unwrap_or_else(|| {
            slab.push(None);
            slab.len() - 1
        });
        let token = idx + 1;
        if poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            free.push_back(idx);
            continue;
        }
        let user = handler.on_open(token);
        slab[idx] = Some(Conn {
            stream,
            user: Some(user),
            mode: Mode::Detect,
            wbuf: Vec::new(),
            wpos: 0,
            closing: false,
            cur_interest: Interest::READ,
            last_activity: Instant::now(),
        });
        *open += 1;
        metrics.connections_open.add(1);
    }
}

/// Write as much pending output as the socket accepts. Returns `false`
/// when the connection died.
fn flush_writes<C>(conn: &mut Conn<C>, metrics: &NetMetrics) -> bool {
    while conn.pending() > 0 {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return false,
            Ok(n) => {
                conn.wpos += n;
                metrics.bytes_tx.add(n as u64);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    true
}

/// Queue a protocol-appropriate error reply.
fn queue_error<C>(conn: &mut Conn<C>, msg: &str) {
    match conn.mode {
        Mode::Binary { .. } => {
            let f = frame::encode_frame(frame::OP_ERR, msg.as_bytes());
            conn.queue(&f);
        }
        _ => conn.queue(format!("ERR {msg}\n").as_bytes()),
    }
}

/// Read and process everything the socket has. Returns `false` when
/// the connection died and must be closed by the caller.
#[allow(clippy::too_many_arguments)]
fn handle_readable<H: Handler>(
    idx: usize,
    slab: &mut [Option<Conn<H::Conn>>],
    handler: &mut H,
    config: &NetConfig,
    metrics: &NetMetrics,
    read_buf: &mut [u8],
    out_scratch: &mut Vec<u8>,
    draining: &mut bool,
    drain_deadline: &mut Instant,
    exit: &mut ServeExit,
) -> bool {
    let conn = slab[idx].as_mut().expect("live conn");
    if conn.closing {
        return true;
    }
    let mut requests_this_event = 0u64;
    let mut saw_eof = false;
    loop {
        let n = match conn.stream.read(read_buf) {
            Ok(0) => {
                saw_eof = true;
                break;
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        };
        conn.last_activity = Instant::now();
        metrics.bytes_rx.add(n as u64);
        let chunk = &read_buf[..n];

        if matches!(conn.mode, Mode::Detect) {
            conn.mode = if chunk[0] == frame::MAGIC_BYTE {
                Mode::Binary {
                    dec: FrameDecoder::new(config.max_frame_payload),
                }
            } else {
                Mode::Line { buf: Vec::new() }
            };
        }

        // Detach the mode so the parse loops can queue replies and flip
        // flags on `conn` while holding the decoder.
        let mut mode = std::mem::replace(&mut conn.mode, Mode::Detect);
        match &mut mode {
            Mode::Detect => unreachable!("mode decided above"),
            Mode::Line { buf } => {
                buf.extend_from_slice(chunk);
                let mut consumed = 0usize;
                while let Some(nl) = buf[consumed..].iter().position(|&b| b == b'\n') {
                    let mut line_end = consumed + nl;
                    if line_end > consumed && buf[line_end - 1] == b'\r' {
                        line_end -= 1;
                    }
                    let line = String::from_utf8_lossy(&buf[consumed..line_end]).into_owned();
                    consumed += nl + 1;
                    metrics.frames_rx.inc();
                    requests_this_event += 1;
                    out_scratch.clear();
                    let mut user = conn.user.take().expect("conn user state");
                    let action = handler.on_line(&mut user, &line, out_scratch);
                    conn.user = Some(user);
                    if !out_scratch.is_empty() {
                        metrics.frames_tx.inc();
                        conn.queue(out_scratch);
                    }
                    match action {
                        Action::Continue => {}
                        Action::Close => {
                            conn.closing = true;
                            break;
                        }
                        Action::Shutdown => {
                            conn.closing = true;
                            *draining = true;
                            *drain_deadline = Instant::now() + config.drain_grace;
                            *exit = ServeExit::Shutdown;
                            break;
                        }
                    }
                }
                buf.drain(..consumed);
                if buf.len() > config.max_line_bytes {
                    queue_error(conn, "line-too-long");
                    conn.closing = true;
                }
            }
            Mode::Binary { dec } => {
                dec.extend(chunk);
                loop {
                    match dec.next_frame() {
                        Ok(None) => break,
                        Ok(Some(f)) => {
                            metrics.frames_rx.inc();
                            requests_this_event += 1;
                            out_scratch.clear();
                            let mut user = conn.user.take().expect("conn user state");
                            let action =
                                handler.on_frame(&mut user, f.opcode, &f.payload, out_scratch);
                            conn.user = Some(user);
                            if !out_scratch.is_empty() {
                                metrics.frames_tx.inc();
                                conn.queue(out_scratch);
                            }
                            match action {
                                Action::Continue => {}
                                Action::Close => {
                                    conn.closing = true;
                                    break;
                                }
                                Action::Shutdown => {
                                    conn.closing = true;
                                    *draining = true;
                                    *drain_deadline = Instant::now() + config.drain_grace;
                                    *exit = ServeExit::Shutdown;
                                    break;
                                }
                            }
                        }
                        Err(e) => {
                            let reply = frame::encode_frame(
                                frame::OP_ERR,
                                frame_error_token(&e).as_bytes(),
                            );
                            conn.queue(&reply);
                            conn.closing = true;
                            break;
                        }
                    }
                }
            }
        }
        conn.mode = mode;

        if conn.closing || conn.pending() > config.write_buffer_limit {
            break;
        }
    }
    if requests_this_event > 0 {
        metrics.pipeline_depth.record(requests_this_event);
    }
    // Opportunistic flush: most replies fit the socket buffer, so the
    // common case never waits for a writable event.
    if !flush_writes(conn, metrics) {
        return false;
    }
    if saw_eof {
        if conn.pending() == 0 {
            return false;
        }
        conn.closing = true;
    }
    true
}

/// Short, stable token for a framing error (`ERR <token>` on the wire).
fn frame_error_token(e: &FrameError) -> String {
    match e {
        FrameError::BadMagic(_) => "bad-magic".to_string(),
        FrameError::BadVersion(v) => format!("bad-version {v}"),
        FrameError::EmptyFrame => "empty-frame".to_string(),
        FrameError::TooLarge { len, max } => format!("frame-too-large {len} max {max}"),
    }
}

fn update_interest<C>(token: usize, conn: &mut Conn<C>, config: &NetConfig, poller: &mut Poller) {
    let interest = Interest {
        readable: !conn.closing && conn.pending() <= config.write_buffer_limit,
        writable: conn.pending() > 0,
    };
    if interest != conn.cur_interest {
        conn.cur_interest = interest;
        let _ = poller.reregister(conn.stream.as_raw_fd(), token, interest);
    }
}

fn close_conn<H: Handler>(
    idx: usize,
    slab: &mut [Option<Conn<H::Conn>>],
    free: &mut VecDeque<usize>,
    open: &mut usize,
    poller: &mut Poller,
    handler: &mut H,
    metrics: &NetMetrics,
) {
    if let Some(conn) = slab[idx].take() {
        poller.deregister(conn.stream.as_raw_fd());
        if let Some(user) = conn.user {
            handler.on_close(user);
        }
        free.push_back(idx);
        *open -= 1;
        metrics.connections_open.add(-1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;

    /// Echoes lines as `OK <line>` and frames as OP_OK with the same
    /// payload; `QUIT` closes, `SHUTDOWN` stops the server.
    struct Echo;

    impl Handler for Echo {
        type Conn = ();

        fn on_open(&mut self, _token: usize) {}

        fn on_line(&mut self, _c: &mut (), line: &str, out: &mut Vec<u8>) -> Action {
            match line {
                "QUIT" => {
                    out.extend_from_slice(b"OK bye\n");
                    Action::Close
                }
                "SHUTDOWN" => {
                    out.extend_from_slice(b"OK drained\n");
                    Action::Shutdown
                }
                other => {
                    out.extend_from_slice(format!("OK {other}\n").as_bytes());
                    Action::Continue
                }
            }
        }

        fn on_frame(
            &mut self,
            _c: &mut (),
            opcode: u8,
            payload: &[u8],
            out: &mut Vec<u8>,
        ) -> Action {
            assert_eq!(opcode, frame::OP_REQ);
            if payload == b"SHUTDOWN" {
                frame::encode_frame_into(out, frame::OP_OK, b"drained");
                return Action::Shutdown;
            }
            frame::encode_frame_into(out, frame::OP_OK, payload);
            Action::Continue
        }
    }

    struct TestServer {
        addr: std::net::SocketAddr,
        stop: Arc<AtomicBool>,
        join: thread::JoinHandle<ServeExit>,
    }

    fn spawn_echo(config: NetConfig) -> TestServer {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let join = thread::spawn(move || {
            let mut h = Echo;
            serve(listener, &mut h, &config, &NetMetrics::detached(), &stop2).unwrap()
        });
        TestServer { addr, stop, join }
    }

    #[test]
    fn line_mode_pipelines_in_order() {
        let srv = spawn_echo(NetConfig::default());
        let mut c = TcpStream::connect(srv.addr).unwrap();
        let mut wire = String::new();
        for i in 0..200 {
            wire.push_str(&format!("req-{i}\n"));
        }
        c.write_all(wire.as_bytes()).unwrap();
        let mut r = BufReader::new(c.try_clone().unwrap());
        for i in 0..200 {
            let mut line = String::new();
            r.read_line(&mut line).unwrap();
            assert_eq!(line, format!("OK req-{i}\n"));
        }
        srv.stop.store(true, Ordering::SeqCst);
        assert_eq!(srv.join.join().unwrap(), ServeExit::Stopped);
    }

    #[test]
    fn binary_mode_round_trips() {
        let srv = spawn_echo(NetConfig::default());
        let mut c = TcpStream::connect(srv.addr).unwrap();
        let mut wire = frame::MAGIC.to_vec();
        for i in 0..50 {
            wire.extend_from_slice(&frame::encode_frame(
                frame::OP_REQ,
                format!("f{i}").as_bytes(),
            ));
        }
        c.write_all(&wire).unwrap();
        let mut dec = FrameDecoder::new_after_preamble(1 << 20);
        let mut got = 0;
        let mut buf = [0u8; 4096];
        while got < 50 {
            let n = c.read(&mut buf).unwrap();
            assert!(n > 0, "server closed early");
            dec.extend(&buf[..n]);
            while let Some(f) = dec.next_frame().unwrap() {
                assert_eq!(f.opcode, frame::OP_OK);
                assert_eq!(f.payload, format!("f{got}").into_bytes());
                got += 1;
            }
        }
        srv.stop.store(true, Ordering::SeqCst);
        srv.join.join().unwrap();
    }

    #[test]
    fn busy_rejection_at_connection_cap() {
        let srv = spawn_echo(NetConfig {
            max_connections: 1,
            ..NetConfig::default()
        });
        let mut first = TcpStream::connect(srv.addr).unwrap();
        first.write_all(b"hold\n").unwrap();
        let mut r1 = BufReader::new(first.try_clone().unwrap());
        let mut line = String::new();
        r1.read_line(&mut line).unwrap();
        assert_eq!(line, "OK hold\n");

        let second = TcpStream::connect(srv.addr).unwrap();
        let mut r2 = BufReader::new(second);
        line.clear();
        r2.read_line(&mut line).unwrap();
        assert_eq!(line, "ERR busy max-connections\n");
        line.clear();
        assert_eq!(
            r2.read_line(&mut line).unwrap(),
            0,
            "rejected conn stays open"
        );

        srv.stop.store(true, Ordering::SeqCst);
        srv.join.join().unwrap();
    }

    #[test]
    fn half_open_client_hits_idle_timeout() {
        let srv = spawn_echo(NetConfig {
            idle_timeout: Some(Duration::from_millis(150)),
            ..NetConfig::default()
        });
        // Connect and send nothing: a half-open client.
        let idle = TcpStream::connect(srv.addr).unwrap();
        let mut r = BufReader::new(idle);
        let mut line = String::new();
        let start = Instant::now();
        r.read_line(&mut line).unwrap();
        assert_eq!(line, "ERR idle-timeout\n");
        line.clear();
        assert_eq!(
            r.read_line(&mut line).unwrap(),
            0,
            "server closed after error"
        );
        assert!(start.elapsed() >= Duration::from_millis(100));
        srv.stop.store(true, Ordering::SeqCst);
        srv.join.join().unwrap();
    }

    #[test]
    fn shutdown_flushes_pipelined_replies_before_close() {
        let srv = spawn_echo(NetConfig::default());
        let mut c = TcpStream::connect(srv.addr).unwrap();
        // Pipeline work and SHUTDOWN in one write: every reply queued
        // before the stop must still arrive.
        let mut wire = String::new();
        for i in 0..100 {
            wire.push_str(&format!("job-{i}\n"));
        }
        wire.push_str("SHUTDOWN\n");
        c.write_all(wire.as_bytes()).unwrap();
        let mut r = BufReader::new(c);
        for i in 0..100 {
            let mut line = String::new();
            r.read_line(&mut line).unwrap();
            assert_eq!(line, format!("OK job-{i}\n"));
        }
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert_eq!(line, "OK drained\n");
        assert_eq!(srv.join.join().unwrap(), ServeExit::Shutdown);
    }

    #[test]
    fn oversized_frame_gets_typed_error() {
        let srv = spawn_echo(NetConfig {
            max_frame_payload: 64,
            ..NetConfig::default()
        });
        let mut c = TcpStream::connect(srv.addr).unwrap();
        let mut wire = frame::MAGIC.to_vec();
        wire.extend_from_slice(&1_000_000u32.to_le_bytes());
        c.write_all(&wire).unwrap();
        let mut dec = FrameDecoder::new_after_preamble(1 << 20);
        let mut buf = [0u8; 4096];
        let err = loop {
            let n = c.read(&mut buf).unwrap();
            assert!(n > 0, "closed without an error frame");
            dec.extend(&buf[..n]);
            if let Some(f) = dec.next_frame().unwrap() {
                break f;
            }
        };
        assert_eq!(err.opcode, frame::OP_ERR);
        let msg = String::from_utf8(err.payload).unwrap();
        assert!(msg.starts_with("frame-too-large"), "got: {msg}");
        srv.stop.store(true, Ordering::SeqCst);
        srv.join.join().unwrap();
    }
}
