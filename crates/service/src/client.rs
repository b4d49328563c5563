//! A small blocking client for the line protocol, shared by the CLI's
//! `submit`/`status` subcommands and the integration tests. Replies are
//! read through the event loop's [`Decoder`] and understood through
//! [`Reply`], like the daemon's own side of the wire.

use crate::jobs::JobId;
use crate::protocol::{self, Reply};
use commsched_net::frame::{self, BatchOutcome};
use commsched_net::{Decoder, Message};
use commsched_topology::Topology;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Write every byte of `buf`, surviving short writes, `Interrupted`,
/// and `WouldBlock` (a socket with a send timeout — or one someone set
/// nonblocking — can accept a short prefix; `write_all` would abort and
/// desync the protocol stream).
fn write_full(stream: &mut TcpStream, mut buf: &[u8]) -> io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "socket closed mid-write",
                ))
            }
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The SplitMix64 finalizer: derives retry jitter without threading an
/// RNG through the client.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bounded retry with exponential backoff and jitter, applied to the
/// two failures that are worth waiting out: a `busy` rejection (the
/// server is at its connection cap and will shed load soon) and a
/// refused connection (a cluster follower mid-promotion has not bound
/// the primary's address yet). Everything else fails fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries including the first; `1` means never retry.
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles each retry after that.
    pub base: Duration,
    /// Ceiling on any single sleep.
    pub cap: Duration,
    /// Seed for deterministic jitter (tests pin it; callers with many
    /// clients should vary it so retries do not stampede in phase).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 6,
            base: Duration::from_millis(20),
            cap: Duration::from_secs(1),
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// Fail on the first error — the pre-cluster behaviour.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// Sleep before retry number `attempt` (1-based): the exponential
    /// step `base << (attempt-1)` capped at `cap`, then jittered into
    /// `[step/2, step]` so concurrent clients desynchronize.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let step = self
            .base
            .saturating_mul(
                1u32.checked_shl(attempt.saturating_sub(1))
                    .unwrap_or(u32::MAX),
            )
            .min(self.cap);
        let half = step / 2;
        let jitter_ns =
            splitmix64(self.seed ^ u64::from(attempt)) % (half.as_nanos().max(1) as u64);
        half + Duration::from_nanos(jitter_ns)
    }
}

/// A socket and the decoder of what comes back on it.
struct Wire {
    stream: TcpStream,
    decoder: Decoder,
    read_buf: Vec<u8>,
}

impl Wire {
    /// A line-codec connection. A reply line is bounded by what the
    /// server would put in one frame.
    fn lines(stream: TcpStream) -> Self {
        Self::new(stream, Decoder::line(frame::DEFAULT_MAX_FRAME_PAYLOAD))
    }

    fn new(stream: TcpStream, decoder: Decoder) -> Self {
        Self {
            stream,
            decoder,
            read_buf: vec![0u8; 16 * 1024],
        }
    }

    /// Block until one whole message has arrived.
    fn read_message(&mut self) -> Result<Message, ClientError> {
        loop {
            if let Some(message) = self
                .decoder
                .next_message()
                .map_err(|e| ClientError::Protocol(e.to_string()))?
            {
                return Ok(message);
            }
            let n = match self.stream.read(&mut self.read_buf) {
                Ok(0) => return Err(ClientError::Protocol("connection closed".into())),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            self.decoder.extend(&self.read_buf[..n]);
        }
    }

    /// Block until one whole reply (its first line, in the line codec)
    /// has arrived.
    fn read_reply(&mut self) -> Result<Reply, ClientError> {
        Reply::from_message(&self.read_message()?).map_err(ClientError::Protocol)
    }
}

/// One connection to a running daemon.
pub struct Client {
    wire: Wire,
    /// Address of the server connected, for reconnects after a
    /// retryable failure.
    addr: String,
    retry: RetryPolicy,
    retries: u64,
}

/// Client-side failures: transport errors or `ERR` responses.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server answered `ERR <message>`.
    Server(String),
    /// The server answered something the client cannot interpret.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Server(m) => write!(f, "server: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:7477`), failing fast on the
    /// first error (see [`Client::connect_with_retry`] for the patient
    /// variant).
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        Self::over(Self::dial(addr)?, RetryPolicy::none(), 0)
    }

    fn over(stream: TcpStream, retry: RetryPolicy, retries: u64) -> Result<Self, ClientError> {
        Ok(Self {
            addr: stream.peer_addr()?.to_string(),
            wire: Wire::lines(stream),
            retry,
            retries,
        })
    }

    /// Connect under `policy`: refused connections are retried with
    /// exponential backoff (a cluster failover window looks exactly
    /// like this), and the policy stays attached to the client so later
    /// `busy`/refused failures mid-conversation retry the same way.
    ///
    /// # Errors
    /// Propagates the last connection failure once attempts run out.
    pub fn connect_with_retry(addr: &str, policy: RetryPolicy) -> Result<Self, ClientError> {
        let mut retries = 0;
        let stream = Self::open_stream(addr, &policy, &mut retries)?;
        Self::over(stream, policy, retries)
    }

    /// Retries (busy/refused) this client has spent.
    pub fn retries_used(&self) -> u64 {
        self.retries
    }

    /// One connection attempt. Requests are written whole and each waits
    /// for its reply, so Nagle's algorithm could only ever delay the
    /// tail of a request behind the server's delayed ACK (~40 ms).
    fn dial<A: ToSocketAddrs>(addr: A) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Dial `addr`, sleeping out refused connections per `policy`.
    /// `retries` accumulates the attempts spent so the caller's counter
    /// reflects connect-time patience too.
    fn open_stream(
        addr: &str,
        policy: &RetryPolicy,
        retries: &mut u64,
    ) -> Result<TcpStream, ClientError> {
        let mut attempt = 0u32;
        loop {
            match Self::dial(addr) {
                Ok(s) => return Ok(s),
                Err(e)
                    if e.kind() == io::ErrorKind::ConnectionRefused
                        && attempt + 1 < policy.max_attempts =>
                {
                    attempt += 1;
                    *retries += 1;
                    std::thread::sleep(policy.backoff(attempt));
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Drop the current connection and dial the server again (retrying
    /// refusals per the policy — a promoting follower needs a beat to
    /// bind).
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let policy = self.retry;
        let stream = Self::open_stream(&self.addr, &policy, &mut self.retries)?;
        self.wire = Wire::lines(stream);
        Ok(())
    }

    /// Whether an error is worth a backoff-and-retry: the server shed
    /// us at its connection cap (`busy`, which also closes the
    /// connection) or nothing is listening yet (refused).
    fn retryable(e: &ClientError) -> bool {
        match e {
            ClientError::Server(m) => protocol::is_busy(m),
            ClientError::Io(e) => e.kind() == io::ErrorKind::ConnectionRefused,
            _ => false,
        }
    }

    /// What a reply that is not the awaited success means to the caller.
    fn refusal(reply: Reply) -> ClientError {
        match reply {
            Reply::Err(reason) => ClientError::Server(reason),
            other => ClientError::Protocol(format!("unexpected reply {other:?}")),
        }
    }

    /// Send one request and read its first reply line, retrying
    /// retryable failures under the client's [`RetryPolicy`]. Every verb
    /// goes through here, block verbs for their header. `request` is the request's text without
    /// the final newline — for an upload its head line and body, which
    /// leave in one write: sent line by line, every upload would stall
    /// on the server's delayed ACK.
    fn transact(&mut self, request: &str) -> Result<String, ClientError> {
        let mut wire = Vec::with_capacity(request.len() + 1);
        wire.extend_from_slice(request.as_bytes());
        wire.push(b'\n');
        let mut attempt = 0u32;
        loop {
            let outcome = write_full(&mut self.wire.stream, &wire)
                .map_err(ClientError::from)
                .and_then(|()| self.wire.read_reply())
                .and_then(|reply| match reply {
                    Reply::Ok(text) => Ok(text),
                    other => Err(Self::refusal(other)),
                });
            match outcome {
                Ok(text) => return Ok(text),
                Err(e) if attempt + 1 < self.retry.max_attempts && Self::retryable(&e) => {
                    attempt += 1;
                    self.retries += 1;
                    std::thread::sleep(self.retry.backoff(attempt));
                    // `busy` closed the socket server-side; a fresh
                    // connection is needed either way.
                    self.reconnect()?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Read the body of a multi-line response up to the `.` terminator.
    fn read_block(&mut self) -> Result<Vec<String>, ClientError> {
        let mut lines = Vec::new();
        loop {
            let Message::Line(line) = self.wire.read_message()? else {
                return Err(ClientError::Protocol("frame on a line connection".into()));
            };
            if line == "." {
                return Ok(lines);
            }
            lines.push(line);
        }
    }

    /// Liveness check.
    ///
    /// # Errors
    /// See [`ClientError`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.transact("PING").map(drop)
    }

    /// Upload a topology; returns its fingerprint. Waits out `busy` like
    /// any other verb.
    ///
    /// # Errors
    /// See [`ClientError`].
    pub fn add_topology(&mut self, topo: &Topology) -> Result<u64, ClientError> {
        let text = commsched_topology::to_text(topo);
        let mut request = format!("ADDTOPO {}", text.lines().count());
        for line in text.lines() {
            request.push('\n');
            request.push_str(line);
        }
        let fp = self.transact(&request)?;
        protocol::parse_fingerprint(&fp)
            .ok_or_else(|| ClientError::Protocol(format!("bad fingerprint '{fp}'")))
    }

    /// Submit a raw `SUBMIT` argument string, e.g.
    /// `SCHEDULE topo=paper24 clusters=4 seed=42`; returns the job id.
    ///
    /// # Errors
    /// See [`ClientError`]; a full queue surfaces as
    /// `ClientError::Server("queue-full")`.
    pub fn submit_raw(&mut self, args: &str) -> Result<JobId, ClientError> {
        let id = self.transact(&format!("SUBMIT {args}"))?;
        id.parse()
            .map_err(|_| ClientError::Protocol(format!("bad job id '{id}'")))
    }

    /// A job's state as the server spells it (`queued`, `running`, ...).
    ///
    /// # Errors
    /// See [`ClientError`].
    pub fn status(&mut self, job: JobId) -> Result<String, ClientError> {
        self.transact(&format!("STATUS {job}"))
    }

    /// Poll until the job leaves the queue/worker, returning its final
    /// state (`done`, `failed`, or `cancelled`).
    ///
    /// # Errors
    /// See [`ClientError`].
    pub fn wait(&mut self, job: JobId, poll: Duration) -> Result<String, ClientError> {
        loop {
            let state = self.status(job)?;
            if state != "queued" && state != "running" {
                return Ok(state);
            }
            std::thread::sleep(poll);
        }
    }

    /// Fetch a finished job's payload lines.
    ///
    /// # Errors
    /// See [`ClientError`].
    pub fn result(&mut self, job: JobId) -> Result<Vec<String>, ClientError> {
        self.transact(&format!("RESULT {job}"))?;
        self.read_block()
    }

    /// Cancel a queued job.
    ///
    /// # Errors
    /// See [`ClientError`].
    pub fn cancel(&mut self, job: JobId) -> Result<(), ClientError> {
        self.transact(&format!("CANCEL {job}")).map(drop)
    }

    /// Inject a fault from a raw `FAULT` argument string, e.g.
    /// `topo=fp:<hex> kill=0:1`; returns the server's report lines
    /// (`event`, `epoch`, `topology`, `repair ...`, ...).
    ///
    /// # Errors
    /// See [`ClientError`]; a rejected event surfaces as
    /// `ClientError::Server("fault-rejected: ...")`.
    pub fn fault_raw(&mut self, args: &str) -> Result<Vec<String>, ClientError> {
        self.transact(&format!("FAULT {args}"))?;
        self.read_block()
    }

    /// The server's `key value` stats lines.
    ///
    /// # Errors
    /// See [`ClientError`].
    pub fn stats(&mut self) -> Result<Vec<(String, String)>, ClientError> {
        self.transact("STATS")?;
        Ok(self
            .read_block()?
            .iter()
            .filter_map(|l| {
                l.split_once(' ')
                    .map(|(k, v)| (k.to_string(), v.to_string()))
            })
            .collect())
    }

    /// Force a compacting snapshot of the server's durable state;
    /// returns the server's `snapshot <bytes>` acknowledgement.
    ///
    /// # Errors
    /// See [`ClientError`]; a server running without persistence
    /// surfaces as `ClientError::Server("no-persistence")`.
    pub fn snapshot(&mut self) -> Result<String, ClientError> {
        self.transact("SNAPSHOT")
    }

    /// The server's Prometheus-format metrics dump, one line per entry.
    ///
    /// # Errors
    /// See [`ClientError`].
    pub fn metrics(&mut self) -> Result<Vec<String>, ClientError> {
        self.transact("METRICS")?;
        self.read_block()
    }

    /// One stats value parsed as `u64` (missing/unparsable → `None`).
    ///
    /// # Errors
    /// See [`ClientError`].
    pub fn stat_u64(&mut self, key: &str) -> Result<Option<u64>, ClientError> {
        Ok(self
            .stats()?
            .into_iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok()))
    }

    /// Ask the daemon to drain and stop; returns the server's farewell
    /// (e.g. `drained 12`).
    ///
    /// # Errors
    /// See [`ClientError`].
    pub fn shutdown(&mut self) -> Result<String, ClientError> {
        self.transact("SHUTDOWN")
    }

    /// The server's capability line (e.g.
    /// `caps proto=line+binary version=1 batch-submit=1 pipeline=1`).
    /// Servers predating the `CAPS` verb answer `ERR`, which surfaces
    /// as [`ClientError::Server`].
    ///
    /// # Errors
    /// See [`ClientError`].
    pub fn caps(&mut self) -> Result<String, ClientError> {
        self.transact("CAPS")
    }

    /// The server's cluster description: `Ok(None)` for a standalone
    /// daemon, `Ok(Some(lines))` (its role) for a cluster node.
    ///
    /// # Errors
    /// See [`ClientError`].
    pub fn cluster(&mut self) -> Result<Option<Vec<String>>, ClientError> {
        let head = self.transact("CLUSTER")?;
        if head == "standalone" {
            return Ok(None);
        }
        self.read_block().map(Some)
    }

    /// Submit many raw `SUBMIT` argument strings in one round trip.
    ///
    /// Probes `CAPS` once: servers advertising `batch-submit=1` get a
    /// single binary `OP_SUBMIT_BATCH` frame on a fresh connection (one
    /// WAL critical section server-side); anything older transparently
    /// falls back to per-line `SUBMIT`s on this connection. Either way
    /// the result has one entry per spec, in order: the accepted job id
    /// or the server's rejection text.
    ///
    /// # Errors
    /// Transport failures only; per-job rejections (`queue-full`, parse
    /// errors) land in the per-spec entries.
    pub fn submit_batch(
        &mut self,
        specs: &[String],
    ) -> Result<Vec<Result<JobId, String>>, ClientError> {
        if specs.is_empty() {
            return Ok(Vec::new());
        }
        match self.caps() {
            Ok(caps) if caps.contains("batch-submit=1") => self.submit_batch_binary(specs),
            Ok(_) | Err(ClientError::Server(_)) => self.submit_batch_lines(specs),
            Err(e) => Err(e),
        }
    }

    /// Fallback path: one `SUBMIT` line per spec, pipelinable but one
    /// reply each.
    fn submit_batch_lines(
        &mut self,
        specs: &[String],
    ) -> Result<Vec<Result<JobId, String>>, ClientError> {
        let mut out = Vec::with_capacity(specs.len());
        for spec in specs {
            match self.submit_raw(spec) {
                Ok(id) => out.push(Ok(id)),
                Err(ClientError::Server(e)) => out.push(Err(e)),
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// Fast path: a fresh binary-mode connection carrying the whole
    /// batch in one frame.
    fn submit_batch_binary(
        &mut self,
        specs: &[String],
    ) -> Result<Vec<Result<JobId, String>>, ClientError> {
        let addr = self.wire.stream.peer_addr()?;
        let mut batch = Wire::new(
            TcpStream::connect(addr)?,
            Decoder::frames(frame::DEFAULT_MAX_FRAME_PAYLOAD),
        );
        let mut wire = frame::MAGIC.to_vec();
        frame::encode_frame_into(
            &mut wire,
            frame::OP_SUBMIT_BATCH,
            &frame::encode_submit_batch(specs),
        );
        write_full(&mut batch.stream, &wire)?;
        let outcomes = match batch.read_reply()? {
            Reply::BatchAck(outcomes) => outcomes,
            other => return Err(Self::refusal(other)),
        };
        if outcomes.len() != specs.len() {
            return Err(ClientError::Protocol(format!(
                "batch ack has {} entries for {} specs",
                outcomes.len(),
                specs.len()
            )));
        }
        Ok(outcomes
            .into_iter()
            .map(|o| match o {
                BatchOutcome::Ok(id) => Ok(id),
                BatchOutcome::Err(e) => Err(e),
            })
            .collect())
    }
}
