//! An open-loop load generator for the daemon's TCP front end.
//!
//! Open-loop means request send times follow a fixed schedule derived
//! from `--rate`, independent of when (or whether) acknowledgements
//! arrive — the canonical way to measure a server's latency under a
//! given offered load without the coordinated-omission bias of
//! closed-loop clients. A `max_in_flight` cap bounds outstanding
//! requests per connection; combined with `rate = 0` it yields the
//! classic closed-loop capacity measurement (offer as fast as the
//! server acknowledges, never flooding an fsync-bound daemon with
//! unbounded queued work). The engine multiplexes every connection on one
//! [`commsched_net::poller::Poller`] thread, so ten thousand idle-ish
//! connections cost file descriptors, not threads.
//!
//! Both wire protocols are supported: `line` sends one `SUBMIT` line
//! per job; `binary` sends the framed protocol — `OP_REQ` at batch 1,
//! `OP_SUBMIT_BATCH` carrying the whole batch in one frame otherwise.

use crate::protocol::{is_busy, Reply};
use commsched_net::frame::{self, BatchOutcome};
use commsched_net::poller::{Event, Interest, Poller};
use commsched_net::sys::raise_nofile_limit;
use commsched_net::{Decoder, NetConfig};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Which wire protocol the generator speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// Newline-delimited `SUBMIT` lines.
    Line,
    /// Length-prefixed frames (`OP_REQ` / `OP_SUBMIT_BATCH`).
    Binary,
}

impl WireMode {
    /// Parse `line` / `binary`.
    ///
    /// # Errors
    /// Anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "line" => Ok(Self::Line),
            "binary" => Ok(Self::Binary),
            other => Err(format!("unknown mode '{other}' (line|binary)")),
        }
    }
}

/// Generator knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenConfig {
    /// Concurrent connections to open.
    pub connections: usize,
    /// Offered load in jobs per second across all connections
    /// (0 = as fast as the sockets accept writes).
    pub rate: f64,
    /// Jobs per request (binary mode packs them into one
    /// `OP_SUBMIT_BATCH` frame; line mode writes that many lines).
    pub batch: usize,
    /// How long to keep offering load.
    pub duration: Duration,
    /// Wire protocol.
    pub mode: WireMode,
    /// The `SUBMIT` argument string for every job.
    pub spec: String,
    /// Maximum unacknowledged requests per connection (0 = unlimited).
    /// A connection at its cap is skipped until an ack frees a slot,
    /// turning the generator closed-loop at the cap.
    pub max_in_flight: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            connections: 16,
            rate: 1000.0,
            batch: 1,
            duration: Duration::from_secs(5),
            mode: WireMode::Line,
            spec: "NOOP".to_string(),
            max_in_flight: 0,
        }
    }
}

/// What the run measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Connections that completed the TCP handshake.
    pub connections: usize,
    /// Jobs written to sockets.
    pub jobs_sent: u64,
    /// Jobs positively acknowledged (`OK <id>` / batch-ack `Ok`).
    pub jobs_acked: u64,
    /// Error acknowledgements (`ERR ...` / batch-ack `Err`) plus jobs
    /// lost to dying connections — the sum of the per-class counts.
    pub errors: u64,
    /// Errors that were `busy` rejections (connection cap shed us).
    pub errors_busy: u64,
    /// Errors that were `queue-full` refusals: the node's job queue was
    /// at its bound, so the job was never accepted.
    pub errors_queue_full: u64,
    /// Jobs written to a connection that died before acknowledging
    /// them. Before this class existed such jobs vanished from the
    /// report entirely.
    pub errors_io: u64,
    /// Requests still unacknowledged when the drain window closed.
    pub in_flight_lost: u64,
    /// Wall time from first send to last ack.
    pub elapsed_secs: f64,
    /// `jobs_acked / elapsed_secs`.
    pub jobs_per_sec: f64,
    /// Request latency percentiles, milliseconds (NaN when no samples).
    pub p50_ms: f64,
    /// 99th percentile latency.
    pub p99_ms: f64,
    /// 99.9th percentile latency.
    pub p999_ms: f64,
}

impl LoadgenReport {
    /// The report as a single JSON object.
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v:.3}")
            } else {
                "null".to_string()
            }
        }
        format!(
            concat!(
                "{{\"connections\":{},\"jobs_sent\":{},\"jobs_acked\":{},",
                "\"errors\":{},\"errors_busy\":{},\"errors_queue_full\":{},",
                "\"errors_io\":{},\"in_flight_lost\":{},\"elapsed_secs\":{},",
                "\"jobs_per_sec\":{},\"p50_ms\":{},\"p99_ms\":{},\"p999_ms\":{}}}"
            ),
            self.connections,
            self.jobs_sent,
            self.jobs_acked,
            self.errors,
            self.errors_busy,
            self.errors_queue_full,
            self.errors_io,
            self.in_flight_lost,
            num(self.elapsed_secs),
            num(self.jobs_per_sec),
            num(self.p50_ms),
            num(self.p99_ms),
            num(self.p999_ms),
        )
    }
}

/// Why an acknowledgement (or its absence) counted as a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ErrClass {
    /// `ERR busy ...` / binary `busy` payload: shed at the connection cap.
    Busy,
    /// `ERR queue-full`: the job queue was at its bound.
    QueueFull,
    /// The connection died with requests still unacknowledged.
    Io,
    /// Any other `ERR` (parse errors, ...).
    Other,
}

/// Running error tally, split by class (`total` includes `Other`).
#[derive(Debug, Clone, Copy, Default)]
struct ErrCounts {
    total: u64,
    busy: u64,
    queue_full: u64,
    io: u64,
}

impl ErrCounts {
    fn count(&mut self, class: ErrClass, jobs: u64) {
        self.total += jobs;
        match class {
            ErrClass::Busy => self.busy += jobs,
            ErrClass::QueueFull => self.queue_full += jobs,
            ErrClass::Io => self.io += jobs,
            ErrClass::Other => {}
        }
    }
}

/// The class of a refusal reason: a reply's, or a batch entry's.
fn classify(reason: &str) -> ErrClass {
    if is_busy(reason) {
        ErrClass::Busy
    } else if reason.starts_with("queue-full") {
        ErrClass::QueueFull
    } else {
        ErrClass::Other
    }
}

/// Everything the run counts as acknowledgements arrive.
struct Tally {
    jobs_acked: u64,
    errors: ErrCounts,
    /// One latency sample per acknowledged request, microseconds.
    samples_us: Vec<u64>,
    last_ack_at: Instant,
}

impl Tally {
    /// Record one reply against the oldest unacknowledged request of its
    /// connection (`entry`: when it was sent, how many jobs it carried).
    /// A batch ack counts per outcome; any other reply speaks for every
    /// job of the request; a reply that did not decode is a refusal.
    fn ack(&mut self, entry: Option<(Instant, u64)>, reply: Result<Reply, String>) {
        let Some((sent_at, jobs)) = entry else {
            return; // unsolicited reply (e.g. server error broadcast)
        };
        let now = Instant::now();
        self.last_ack_at = now;
        self.samples_us
            .push(now.duration_since(sent_at).as_micros() as u64);
        match reply {
            Ok(Reply::Ok(_) | Reply::Block { .. }) => self.jobs_acked += jobs,
            Ok(Reply::Err(reason)) | Err(reason) => self.errors.count(classify(&reason), jobs),
            Ok(Reply::BatchAck(outcomes)) => {
                for outcome in &outcomes {
                    match outcome {
                        BatchOutcome::Ok(_) => self.jobs_acked += 1,
                        BatchOutcome::Err(reason) => self.errors.count(classify(reason), 1),
                    }
                }
            }
        }
    }
}

struct GenConn {
    stream: TcpStream,
    decoder: Decoder,
    /// Outgoing bytes not yet accepted by the socket.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Send timestamps of unacknowledged requests, oldest first. One
    /// entry per expected reply (line: one per line; binary: one per
    /// frame).
    in_flight: VecDeque<(Instant, u64)>,
    cur_interest: Interest,
}

impl GenConn {
    fn pending(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

/// Run the generator against `addr` and collect the report.
///
/// # Errors
/// Connection-phase failures (resolve, connect, poller setup) are
/// fatal; per-socket errors during the run are tolerated (the
/// connection just stops contributing).
pub fn run<A: ToSocketAddrs>(addr: A, config: &LoadgenConfig) -> Result<LoadgenReport, String> {
    let connections = config.connections.max(1);
    let batch = config.batch.max(1);
    // Room for every connection plus the poller and stdio.
    let _ = raise_nofile_limit(connections as u64 + 64);

    let addr = addr
        .to_socket_addrs()
        .map_err(|e| format!("bad address: {e}"))?
        .next()
        .ok_or("address resolved to nothing")?;

    let mut poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    let mut conns: Vec<Option<GenConn>> = Vec::with_capacity(connections);
    for i in 0..connections {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("connect #{i} of {connections}: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        let _ = stream.set_nodelay(true);
        poller
            .register(stream.as_raw_fd(), i, Interest::READ)
            .map_err(|e| format!("register: {e}"))?;
        let (decoder, wbuf) = match config.mode {
            WireMode::Line => (
                Decoder::line(NetConfig::default().max_line_bytes),
                Vec::new(),
            ),
            // The preamble makes the first byte the magic, flipping the
            // server into binary mode.
            WireMode::Binary => (
                Decoder::frames(frame::DEFAULT_MAX_FRAME_PAYLOAD),
                frame::MAGIC.to_vec(),
            ),
        };
        conns.push(Some(GenConn {
            stream,
            decoder,
            wbuf,
            wpos: 0,
            in_flight: VecDeque::new(),
            cur_interest: Interest::READ,
        }));
    }

    // Pre-encode the request once; it is identical every time.
    let spec = &config.spec;
    let request: Vec<u8> = match config.mode {
        WireMode::Line => {
            let one = format!("SUBMIT {spec}\n");
            one.repeat(batch).into_bytes()
        }
        WireMode::Binary if batch == 1 => {
            frame::encode_frame(frame::OP_REQ, format!("SUBMIT {spec}").as_bytes())
        }
        WireMode::Binary => {
            let specs: Vec<String> = (0..batch).map(|_| spec.clone()).collect();
            frame::encode_frame(frame::OP_SUBMIT_BATCH, &frame::encode_submit_batch(&specs))
        }
    };
    // Expected replies per request: line mode acks each line.
    let acks_per_request: u64 = match config.mode {
        WireMode::Line => batch as u64,
        WireMode::Binary => 1,
    };
    let jobs_per_ack: u64 = match config.mode {
        WireMode::Line => 1,
        WireMode::Binary => batch as u64,
    };

    let interval = if config.rate > 0.0 {
        Duration::from_secs_f64(batch as f64 / config.rate)
    } else {
        Duration::ZERO
    };
    // Cap in units of in-flight entries (one per expected ack).
    let ack_cap = config.max_in_flight * acks_per_request as usize;

    let start = Instant::now();
    let send_deadline = start + config.duration;
    let drain_deadline = send_deadline + Duration::from_secs(10);
    let mut next_send = start;
    let mut rr = 0usize; // round-robin cursor
    let mut jobs_sent = 0u64;
    let mut tally = Tally {
        jobs_acked: 0,
        errors: ErrCounts::default(),
        samples_us: Vec::new(),
        last_ack_at: start,
    };
    let mut events: Vec<Event> = Vec::new();
    let mut read_buf = vec![0u8; 64 * 1024];

    loop {
        let now = Instant::now();
        let in_flight_total: usize = conns
            .iter()
            .flatten()
            .map(|c| c.in_flight.len() + usize::from(c.pending() > 0))
            .sum();
        if now >= drain_deadline || (now >= send_deadline && in_flight_total == 0) {
            break;
        }

        // Offer load on schedule (open loop: the clock, not the acks,
        // decides when the next request goes out).
        if now < send_deadline {
            while next_send <= Instant::now() {
                // Find a live connection below its in-flight cap; give up
                // this round when every connection is dead or saturated
                // (capped conns free up on the next ack, not the clock).
                let mut spun = 0;
                while spun <= connections
                    && conns[rr % connections]
                        .as_ref()
                        .is_none_or(|c| ack_cap != 0 && c.in_flight.len() >= ack_cap)
                {
                    rr += 1;
                    spun += 1;
                }
                if spun > connections {
                    break;
                }
                let idx = rr % connections;
                rr += 1;
                let conn = conns[idx].as_mut().expect("live conn");
                let sent_at = Instant::now();
                for _ in 0..acks_per_request {
                    conn.in_flight.push_back((sent_at, jobs_per_ack));
                }
                conn.wbuf.extend_from_slice(&request);
                jobs_sent += batch as u64;
                if !flush_conn(conn) {
                    drop_conn(&mut conns, idx, &mut poller, &mut tally.errors);
                }
                if interval.is_zero() {
                    // Unpaced: one request per live connection per
                    // iteration keeps the loop responsive to acks.
                    if rr.is_multiple_of(connections) {
                        break;
                    }
                } else {
                    next_send += interval;
                }
            }
        }

        let wait = if now < send_deadline && !interval.is_zero() {
            next_send
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(10))
        } else {
            Duration::from_millis(1)
        };
        poller
            .wait(&mut events, Some(wait))
            .map_err(|e| format!("poll: {e}"))?;

        for ev in events.iter().copied() {
            let idx = ev.token;
            if conns.get(idx).is_none_or(Option::is_none) {
                continue;
            }
            let mut dead = false;
            if ev.writable {
                dead = !flush_conn(conns[idx].as_mut().expect("live conn"));
            }
            if !dead && (ev.readable || ev.hangup) {
                let conn = conns[idx].as_mut().expect("live conn");
                dead = !drain_reads(conn, &mut read_buf, &mut tally);
            }
            if dead {
                drop_conn(&mut conns, idx, &mut poller, &mut tally.errors);
            } else {
                let conn = conns[idx].as_mut().expect("live conn");
                let interest = Interest {
                    readable: true,
                    writable: conn.pending() > 0,
                };
                if interest != conn.cur_interest {
                    conn.cur_interest = interest;
                    let _ = poller.reregister(conn.stream.as_raw_fd(), idx, interest);
                }
            }
        }
        if conns.iter().all(Option::is_none) {
            break;
        }
    }

    let in_flight_lost: u64 = conns
        .iter()
        .flatten()
        .map(|c| c.in_flight.iter().map(|&(_, jobs)| jobs).sum::<u64>())
        .sum();
    let (jobs_acked, errors, mut samples_us) = (tally.jobs_acked, tally.errors, tally.samples_us);
    samples_us.sort_unstable();
    let pct = |q: f64| -> f64 {
        if samples_us.is_empty() {
            return f64::NAN;
        }
        let pos = (q * (samples_us.len() - 1) as f64).round() as usize;
        samples_us[pos] as f64 / 1000.0
    };
    let elapsed = tally
        .last_ack_at
        .saturating_duration_since(start)
        .as_secs_f64();
    Ok(LoadgenReport {
        connections,
        jobs_sent,
        jobs_acked,
        errors: errors.total,
        errors_busy: errors.busy,
        errors_queue_full: errors.queue_full,
        errors_io: errors.io,
        in_flight_lost,
        elapsed_secs: elapsed,
        jobs_per_sec: if elapsed > 0.0 {
            jobs_acked as f64 / elapsed
        } else {
            0.0
        },
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        p999_ms: pct(0.999),
    })
}

/// Write pending bytes; `false` means the connection died.
fn flush_conn(conn: &mut GenConn) -> bool {
    while conn.pending() > 0 {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return false,
            Ok(n) => conn.wpos += n,
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

/// Read everything available, matching acknowledgements to in-flight
/// timestamps. `false` means the connection died.
fn drain_reads(conn: &mut GenConn, read_buf: &mut [u8], tally: &mut Tally) -> bool {
    loop {
        let n = match conn.stream.read(read_buf) {
            Ok(0) => return false,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        };
        conn.decoder.extend(&read_buf[..n]);
        loop {
            match conn.decoder.next_message() {
                Ok(None) => break,
                Ok(Some(message)) => {
                    tally.ack(conn.in_flight.pop_front(), Reply::from_message(&message));
                }
                Err(_) => return false,
            }
        }
    }
}

/// Discard a dead connection, counting its unacknowledged jobs as io
/// errors — they were offered to the server but will never be acked,
/// and a report that drops them on the floor overstates health.
fn drop_conn(
    conns: &mut [Option<GenConn>],
    idx: usize,
    poller: &mut Poller,
    errors: &mut ErrCounts,
) {
    if let Some(conn) = conns[idx].take() {
        poller.deregister(conn.stream.as_raw_fd());
        let lost: u64 = conn.in_flight.iter().map(|&(_, jobs)| jobs).sum();
        if lost > 0 {
            errors.count(ErrClass::Io, lost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{ServiceCore, ServiceCoreConfig};
    use crate::server::Server;
    use std::sync::Arc;

    fn tiny_server() -> crate::server::ServerHandle {
        let core = ServiceCoreConfig {
            queue_capacity: 4096,
            ..Default::default()
        };
        let core = Arc::new(ServiceCore::new(core));
        Server::bind_with_core("127.0.0.1:0", 1, Default::default(), core, None)
            .expect("bind ephemeral")
    }

    #[test]
    fn line_mode_noop_burst_is_clean() {
        let handle = tiny_server();
        let report = run(
            handle.addr(),
            &LoadgenConfig {
                connections: 4,
                rate: 2000.0,
                batch: 1,
                duration: Duration::from_millis(400),
                mode: WireMode::Line,
                spec: "NOOP".to_string(),
                max_in_flight: 0,
            },
        )
        .expect("loadgen run");
        assert_eq!(report.errors, 0, "report: {}", report.to_json());
        assert_eq!(report.in_flight_lost, 0);
        assert!(report.jobs_acked > 0);
        assert_eq!(report.jobs_acked, report.jobs_sent);
        assert!(report.p50_ms.is_finite());
        handle.shutdown();
    }

    #[test]
    fn binary_batch_mode_acks_every_job() {
        let handle = tiny_server();
        let report = run(
            handle.addr(),
            &LoadgenConfig {
                connections: 2,
                rate: 4000.0,
                batch: 16,
                duration: Duration::from_millis(400),
                mode: WireMode::Binary,
                spec: "NOOP".to_string(),
                max_in_flight: 0,
            },
        )
        .expect("loadgen run");
        assert_eq!(report.errors, 0, "report: {}", report.to_json());
        assert_eq!(report.in_flight_lost, 0);
        assert!(report.jobs_acked >= 16);
        assert_eq!(report.jobs_acked, report.jobs_sent);
        handle.shutdown();
    }

    /// One request of `jobs` jobs in flight, answered by `reply`.
    fn tally_of(jobs: u64, reply: Result<Reply, String>) -> Tally {
        let now = Instant::now();
        let mut tally = Tally {
            jobs_acked: 0,
            errors: ErrCounts::default(),
            samples_us: Vec::new(),
            last_ack_at: now,
        };
        tally.ack(Some((now, jobs)), reply);
        tally
    }

    #[test]
    fn a_batch_ack_counts_per_outcome() {
        // Every entry rejected: nothing is acknowledged.
        let refused = Reply::BatchAck(vec![
            BatchOutcome::Err("queue-full".to_string()),
            BatchOutcome::Err("unknown-topology".to_string()),
            BatchOutcome::Err("busy max-connections".to_string()),
        ]);
        let t = tally_of(3, Ok(refused));
        assert_eq!(t.jobs_acked, 0);
        assert_eq!(
            (
                t.errors.total,
                t.errors.queue_full,
                t.errors.busy,
                t.errors.io
            ),
            (3, 1, 1, 0)
        );
        assert_eq!(t.samples_us.len(), 1, "one latency sample per request");
        // Mixed: each job is counted once, on the side it fell.
        let mixed = Reply::BatchAck(vec![
            BatchOutcome::Ok(7),
            BatchOutcome::Err("queue-full".to_string()),
        ]);
        let t = tally_of(2, Ok(mixed));
        assert_eq!((t.jobs_acked, t.errors.total), (1, 1));
        // An ack that did not decode refuses the whole request.
        let t = tally_of(16, Err("ack entry 3: truncated id".to_string()));
        assert_eq!((t.jobs_acked, t.errors.total), (0, 16));
    }

    #[test]
    fn other_replies_speak_for_the_whole_request() {
        let t = tally_of(1, Ok(Reply::Ok("17".to_string())));
        assert_eq!((t.jobs_acked, t.errors.total), (1, 0));
        let t = tally_of(4, Ok(Reply::Err("unknown-topology".to_string())));
        assert_eq!(
            (t.jobs_acked, t.errors.total, t.errors.queue_full),
            (0, 4, 0)
        );
        let t = tally_of(1, Ok(Reply::Err("busy max-connections".to_string())));
        assert_eq!((t.errors.total, t.errors.busy), (1, 1));
        let t = tally_of(1, Ok(Reply::Err("queue-full".to_string())));
        assert_eq!((t.errors.total, t.errors.queue_full), (1, 1));
        let t = tally_of(1, Ok(Reply::Err("unknown-verb".to_string())));
        assert_eq!((t.errors.total, t.errors.queue_full), (1, 0));
        // A reply nobody is waiting for is not counted at all.
        let mut t = tally_of(1, Ok(Reply::Ok("1".to_string())));
        t.ack(None, Ok(Reply::Err("late".to_string())));
        assert_eq!((t.jobs_acked, t.errors.total), (1, 0));
    }

    #[test]
    fn report_serializes_to_json() {
        let report = LoadgenReport {
            connections: 8,
            jobs_sent: 100,
            jobs_acked: 99,
            errors: 4,
            errors_busy: 1,
            errors_queue_full: 1,
            errors_io: 1,
            in_flight_lost: 0,
            elapsed_secs: 1.5,
            jobs_per_sec: 66.0,
            p50_ms: 0.4,
            p99_ms: 2.0,
            p999_ms: 5.0,
        };
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"jobs_per_sec\":66.000"));
        assert!(json.contains("\"p999_ms\":5.000"));
        assert!(json.contains("\"errors\":4"));
        assert!(json.contains("\"errors_busy\":1"));
        assert!(json.contains("\"errors_queue_full\":1"));
        assert!(json.contains("\"errors_io\":1"));
    }
}
