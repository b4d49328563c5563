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
//! * [`codec`] — [`Decoder`]: bytes to [`Message`]s in either codec
//!   (lines or frames, picked by the peer's first byte), the one reader
//!   under this loop, the service's client and its load generator.
//! * [`serve`] — the connection engine: accept, decode, one
//!   [`Handler::on_message`] call per message, backpressure-aware write
//!   queues, idle timeouts, a max-connection cap with typed `busy`
//!   rejection, and a deterministic drain that flushes every pending
//!   write buffer before closing. What the loop itself refuses (a
//!   framing error, an over-long line, an idle peer) it answers
//!   `ERR <token>` in the connection's codec and closes.
//!
//! Protocol semantics stay out of this crate: a [`Handler`] maps
//! decoded messages to reply bytes, so the service wires in its
//! request dispatcher and `ServiceCore` (queue, WAL, workers, cache)
//! unchanged.

pub mod codec;
pub mod frame;
pub mod poller;
pub mod sys;

pub use crate::codec::{Decoder, Message};
use crate::frame::FrameError;
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
/// Callbacks run on the loop thread; a reply is appended to `out` as
/// raw wire bytes in the codec the request arrived in (a
/// newline-terminated line for a [`Message::Line`], an encoded frame for
/// a [`Message::Frame`]).
pub trait Handler {
    /// Per-connection protocol state.
    type Conn;

    /// A connection was accepted (token identifies it in later calls).
    fn on_open(&mut self, token: usize) -> Self::Conn;

    /// One complete message arrived: a line of the text codec or a frame
    /// of the binary one.
    fn on_message(&mut self, conn: &mut Self::Conn, message: Message, out: &mut Vec<u8>) -> Action;

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

struct Conn<C> {
    stream: TcpStream,
    user: C,
    decoder: Decoder,
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

    /// The loop's own farewell, `ERR <token>` in the connection's codec
    /// (line-form while the peer has not spoken): queue it and stop
    /// reading.
    fn refuse(&mut self, token: &str) {
        let text = format!("ERR {token}");
        if self.decoder.is_binary() {
            let f = frame::encode_frame(frame::OP_ERR, text.as_bytes());
            self.queue(&f);
        } else {
            self.queue(text.as_bytes());
            self.queue(b"\n");
        }
        self.closing = true;
    }

    /// Write as much pending output as the socket accepts. Returns
    /// `false` when the connection died.
    fn flush(&mut self, metrics: &NetMetrics) -> bool {
        while self.pending() > 0 {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.wpos += n;
                    metrics.bytes_tx.add(n as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        true
    }
}

const LISTENER_TOKEN: usize = 0;
/// Poll tick: bounds stop-flag latency and paces the idle scan.
const TICK: Duration = Duration::from_millis(25);
const IDLE_SCAN: Duration = Duration::from_millis(250);
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
    let mut lp = Loop {
        listener,
        poller,
        handler,
        config,
        metrics,
        slab: Vec::new(),
        free: VecDeque::new(),
        open: 0,
        read_buf: vec![0u8; READ_CHUNK],
        out: Vec::new(),
        drain_deadline: None,
        exit: ServeExit::Stopped,
    };
    let mut events: Vec<Event> = Vec::new();
    let mut next_idle_scan = Instant::now() + IDLE_SCAN;

    loop {
        lp.poller.wait(&mut events, Some(TICK))?;
        let now = Instant::now();
        if lp.drain_deadline.is_none() && stop.load(Ordering::SeqCst) {
            lp.begin_drain(now);
        }
        for ev in events.iter().copied() {
            if ev.token != LISTENER_TOKEN {
                lp.handle_event(ev);
            } else if lp.drain_deadline.is_none() {
                lp.accept_ready();
            }
        }
        if let Some(deadline) = lp.drain_deadline {
            // Close everything that has nothing left to say; leave when
            // the slab is empty or the grace period runs out.
            lp.close_where(|c| c.pending() == 0);
            if lp.open == 0 || now >= deadline {
                break;
            }
        } else if now >= next_idle_scan {
            next_idle_scan = now + IDLE_SCAN;
            lp.idle_scan(now);
        }
    }
    // Whatever outlived the grace period.
    lp.close_where(|_| true);
    Ok(lp.exit)
}

/// Everything one [`serve`] run owns.
struct Loop<'a, H: Handler> {
    listener: TcpListener,
    poller: Poller,
    handler: &'a mut H,
    config: &'a NetConfig,
    metrics: &'a NetMetrics,
    /// Connection `idx` has poller token `idx + 1`.
    slab: Vec<Option<Conn<H::Conn>>>,
    free: VecDeque<usize>,
    open: usize,
    read_buf: Vec<u8>,
    /// Scratch the handler writes one reply into.
    out: Vec<u8>,
    /// Set once draining began: when to stop waiting for laggards.
    drain_deadline: Option<Instant>,
    exit: ServeExit,
}

impl<H: Handler> Loop<'_, H> {
    /// Stop accepting and freeze every connection into flush-and-close.
    fn begin_drain(&mut self, now: Instant) {
        self.drain_deadline = Some(now + self.config.drain_grace);
        self.poller.deregister(self.listener.as_raw_fd());
        for (idx, conn) in self.slab.iter_mut().enumerate() {
            if let Some(conn) = conn {
                conn.closing = true;
                if conn.cur_interest != Interest::WRITE {
                    conn.cur_interest = Interest::WRITE;
                    let _ =
                        self.poller
                            .reregister(conn.stream.as_raw_fd(), idx + 1, Interest::WRITE);
                }
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let (mut stream, _peer) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // transient (EMFILE etc.): retry on next tick
            };
            if self.open >= self.config.max_connections {
                // Typed rejection, best-effort: the socket buffer of a
                // fresh connection always has room for one short line.
                let _ = stream.write_all(self.handler.busy_reply());
                self.metrics.busy_rejections.inc();
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let idx = self.free.pop_front().unwrap_or_else(|| {
                self.slab.push(None);
                self.slab.len() - 1
            });
            let token = idx + 1;
            if self
                .poller
                .register(stream.as_raw_fd(), token, Interest::READ)
                .is_err()
            {
                self.free.push_back(idx);
                continue;
            }
            self.slab[idx] = Some(Conn {
                stream,
                user: self.handler.on_open(token),
                decoder: Decoder::detect(self.config.max_line_bytes, self.config.max_frame_payload),
                wbuf: Vec::new(),
                wpos: 0,
                closing: false,
                cur_interest: Interest::READ,
                last_activity: Instant::now(),
            });
            self.open += 1;
            self.metrics.connections_open.add(1);
        }
    }

    /// One readiness event of a client connection.
    fn handle_event(&mut self, ev: Event) {
        let idx = ev.token - 1;
        let Some(Some(conn)) = self.slab.get_mut(idx) else {
            return; // closed earlier this batch
        };
        let mut alive = !(ev.hangup && conn.pending() == 0);
        if alive && ev.writable {
            alive = conn.flush(self.metrics);
        }
        if alive && ev.readable {
            alive = self.handle_readable(idx);
        }
        self.settle(idx, alive);
    }

    /// Read and process everything the socket has. Returns `false` when
    /// the connection died and must be closed by the caller.
    fn handle_readable(&mut self, idx: usize) -> bool {
        let conn = self.slab[idx].as_mut().expect("live conn");
        if conn.closing {
            return true;
        }
        let mut requests_this_event = 0u64;
        let mut saw_eof = false;
        let mut shutdown = false;
        loop {
            let n = match conn.stream.read(&mut self.read_buf) {
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
            self.metrics.bytes_rx.add(n as u64);
            conn.decoder.extend(&self.read_buf[..n]);
            while !conn.closing {
                let message = match conn.decoder.next_message() {
                    Ok(None) => break,
                    Ok(Some(message)) => message,
                    Err(e) => {
                        conn.refuse(&refusal_token(&e));
                        break;
                    }
                };
                self.metrics.frames_rx.inc();
                requests_this_event += 1;
                self.out.clear();
                let action = self
                    .handler
                    .on_message(&mut conn.user, message, &mut self.out);
                if !self.out.is_empty() {
                    self.metrics.frames_tx.inc();
                    conn.queue(&self.out);
                }
                conn.closing = action != Action::Continue;
                shutdown = action == Action::Shutdown;
            }
            if conn.closing || conn.pending() > self.config.write_buffer_limit {
                break;
            }
        }
        if requests_this_event > 0 {
            self.metrics.pipeline_depth.record(requests_this_event);
        }
        // Opportunistic flush: most replies fit the socket buffer, so the
        // common case never waits for a writable event.
        let mut alive = conn.flush(self.metrics);
        if alive && saw_eof {
            alive = conn.pending() > 0;
            conn.closing = true;
        }
        if shutdown {
            self.exit = ServeExit::Shutdown;
            self.begin_drain(Instant::now());
        }
        alive
    }

    /// After an event or a farewell: close a connection that died or has
    /// said everything, otherwise wait for what it still needs.
    fn settle(&mut self, idx: usize, alive: bool) {
        let Some(conn) = self.slab[idx].as_mut() else {
            return;
        };
        if !alive || (conn.closing && conn.pending() == 0) {
            self.close(idx);
            return;
        }
        let interest = Interest {
            readable: !conn.closing && conn.pending() <= self.config.write_buffer_limit,
            writable: conn.pending() > 0,
        };
        if interest != conn.cur_interest {
            conn.cur_interest = interest;
            let _ = self
                .poller
                .reregister(conn.stream.as_raw_fd(), idx + 1, interest);
        }
    }

    fn close(&mut self, idx: usize) {
        if let Some(conn) = self.slab[idx].take() {
            self.poller.deregister(conn.stream.as_raw_fd());
            self.handler.on_close(conn.user);
            self.free.push_back(idx);
            self.open -= 1;
            self.metrics.connections_open.add(-1);
        }
    }

    fn close_where(&mut self, done: impl Fn(&Conn<H::Conn>) -> bool) {
        for idx in 0..self.slab.len() {
            if self.slab[idx].as_ref().is_some_and(&done) {
                self.close(idx);
            }
        }
    }

    /// Say goodbye to every connection silent for longer than the idle
    /// timeout.
    fn idle_scan(&mut self, now: Instant) {
        let Some(idle) = self.config.idle_timeout else {
            return;
        };
        for idx in 0..self.slab.len() {
            let Some(conn) = self.slab[idx].as_mut() else {
                continue;
            };
            if conn.closing || now.duration_since(conn.last_activity) <= idle {
                continue;
            }
            conn.refuse("idle-timeout");
            self.metrics.idle_closed.inc();
            let alive = conn.flush(self.metrics);
            self.settle(idx, alive);
        }
    }
}

/// Short, stable token for a decoding error (`ERR <token>` on the wire).
fn refusal_token(e: &FrameError) -> String {
    match e {
        FrameError::BadMagic(_) => "bad-magic".to_string(),
        FrameError::BadVersion(v) => format!("bad-version {v}"),
        FrameError::EmptyFrame => "empty-frame".to_string(),
        FrameError::TooLarge { len, max } => format!("frame-too-large {len} max {max}"),
        FrameError::LineTooLong { .. } => "line-too-long".to_string(),
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

        fn on_message(&mut self, _c: &mut (), message: Message, out: &mut Vec<u8>) -> Action {
            match message {
                Message::Line(line) => {
                    let (reply, action) = match line.as_str() {
                        "QUIT" => ("OK bye".to_string(), Action::Close),
                        "SHUTDOWN" => ("OK drained".to_string(), Action::Shutdown),
                        other => (format!("OK {other}"), Action::Continue),
                    };
                    out.extend_from_slice(reply.as_bytes());
                    out.push(b'\n');
                    action
                }
                Message::Frame(f) => {
                    assert_eq!(f.opcode, frame::OP_REQ);
                    if f.payload == b"SHUTDOWN" {
                        frame::encode_frame_into(out, frame::OP_OK, b"drained");
                        return Action::Shutdown;
                    }
                    frame::encode_frame_into(out, frame::OP_OK, &f.payload);
                    Action::Continue
                }
            }
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
        let mut dec = Decoder::frames(1 << 20);
        let mut got = 0;
        let mut buf = [0u8; 4096];
        while got < 50 {
            let n = c.read(&mut buf).unwrap();
            assert!(n > 0, "server closed early");
            dec.extend(&buf[..n]);
            while let Some(Message::Frame(f)) = dec.next_message().unwrap() {
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
        let mut dec = Decoder::frames(1 << 20);
        let mut buf = [0u8; 4096];
        let err = loop {
            let n = c.read(&mut buf).unwrap();
            assert!(n > 0, "closed without an error frame");
            dec.extend(&buf[..n]);
            if let Some(Message::Frame(f)) = dec.next_message().unwrap() {
                break f;
            }
        };
        assert_eq!(err.opcode, frame::OP_ERR);
        let msg = String::from_utf8(err.payload).unwrap();
        assert!(msg.starts_with("ERR frame-too-large"), "got: {msg}");
        srv.stop.store(true, Ordering::SeqCst);
        srv.join.join().unwrap();
    }
}
