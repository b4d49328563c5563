//! Primary-side WAL replication: the hub every follower streams from.
//!
//! The hub is installed into a durable [`commsched_service::ServiceCore`]
//! via [`commsched_service::ServiceCore::set_replication`], which seeds
//! it with the current durable state (snapshot-style records) and hooks
//! it into the WAL as a tap — both inside one WAL critical section, so
//! the hub's in-memory log is a gapless copy of the commit stream from
//! the very first record. From then on every appended WAL record lands in the
//! log (still under the WAL lock, hence in authoritative commit order)
//! and is pushed to each connected follower by a per-follower streamer
//! thread. Distance tables are not WAL records (they spill to files,
//! see `commsched_service::persist::tables`), so neither the seed nor
//! the stream carries one: the log grows by small records only, and a
//! promoted follower rebuilds a table on first use.
//!
//! Wire protocol (one TCP connection per follower, on the hub's
//! dedicated replication port):
//!
//! ```text
//! follower -> hub:  REPL FOLLOW <nonce-hex> <have>\n
//! hub -> follower:  OK <nonce-hex> <start>\n
//! hub -> follower:  records, WAL framing ([u32 LE len][u64 LE fnv1a][payload])
//! follower -> hub:  8-byte LE total-applied count, repeated
//! ```
//!
//! `nonce` identifies one hub incarnation. A follower reporting the
//! hub's own nonce resumes at `min(have, log)`; any other nonce gets
//! `start = 0` and must discard its local state first (the hub's log
//! was re-seeded from a compacted snapshot, so positions from an
//! earlier incarnation do not line up).
//!
//! The ack stream is what [`ReplicationHub::barrier`] waits on in
//! `sync` mode: an acknowledgement leaves the service only after every
//! connected follower has applied (and fsynced) the records behind it
//! — acked means replicated. With no follower connected the barrier
//! degrades to local durability and counts the event, trading
//! consistency for availability rather than freezing the primary.

use commsched_service::persist::wal::fnv1a;
use commsched_service::persist::ReplicationSink;
use commsched_service::persist::WalTap;
use commsched_telemetry::metrics::{Counter, Gauge, Histo, Registry};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// When a job acknowledgement may leave a cluster primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplMode {
    /// Acks wait for every connected follower to apply and fsync the
    /// records behind them (zero accepted-job loss on failover).
    #[default]
    Sync,
    /// Acks return on local durability; followers catch up in the
    /// background (bounded loss window on failover).
    Async,
}

impl ReplMode {
    /// Parse `sync` / `async`.
    ///
    /// # Errors
    /// Anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "sync" => Ok(Self::Sync),
            "async" => Ok(Self::Async),
            other => Err(format!("unknown replication mode '{other}' (sync|async)")),
        }
    }

    /// The protocol spelling (`sync` / `async`).
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Sync => "sync",
            Self::Async => "async",
        }
    }
}

/// How long a `sync` barrier waits for follower acks before degrading.
/// A stalled follower must not freeze the primary forever; the event
/// is counted and surfaced in `STATS`.
const BARRIER_TIMEOUT: Duration = Duration::from_secs(5);

/// One follower's replication progress.
struct FollowerSlot {
    /// Records this follower has applied (and fsynced, in sync mode).
    acked: usize,
}

/// State shared by the tap, the barrier, and the follower threads.
/// One mutex keeps the invariants trivial: the log only grows, and
/// every follower's `acked` only advances.
struct HubState {
    /// Every record since the hub was seeded, in commit order.
    log: Vec<Arc<[u8]>>,
    followers: HashMap<u64, FollowerSlot>,
    next_follower: u64,
}

/// The replication hub a cluster primary installs as its
/// [`ReplicationSink`].
pub struct ReplicationHub {
    state: Mutex<HubState>,
    /// Signalled when the log grows (streamer threads wait here).
    grew: Condvar,
    /// Signalled when a follower's ack advances or a follower leaves
    /// (barriers wait here).
    acked_cv: Condvar,
    mode: ReplMode,
    /// This incarnation's stream identity.
    nonce: u64,
    listen_addr: SocketAddr,
    stop: AtomicBool,
    listener_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    records_total: Counter,
    followers_gauge: Gauge,
    lag_gauge: Gauge,
    barrier_us: Histo,
    degraded_total: Counter,
}

impl ReplicationHub {
    /// Bind the replication listener on `addr` and start accepting
    /// followers. Metrics land in `registry` (pass the service core's
    /// registry so `METRICS` exports them).
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        mode: ReplMode,
        registry: &Registry,
    ) -> std::io::Result<Arc<Self>> {
        let listener = TcpListener::bind(addr)?;
        let listen_addr = listener.local_addr()?;
        let nonce = {
            let t = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            t ^ (u64::from(std::process::id()) << 32) | 1 // never 0 (0 = "no stream")
        };
        let hub = Arc::new(Self {
            state: Mutex::new(HubState {
                log: Vec::new(),
                followers: HashMap::new(),
                next_follower: 1,
            }),
            grew: Condvar::new(),
            acked_cv: Condvar::new(),
            mode,
            nonce,
            listen_addr,
            stop: AtomicBool::new(false),
            listener_thread: Mutex::new(None),
            records_total: registry.counter(
                "cluster_repl_records_total",
                "WAL records published to the replication log",
            ),
            followers_gauge: registry.gauge(
                "cluster_repl_followers",
                "Followers currently streaming from this primary",
            ),
            lag_gauge: registry.gauge(
                "cluster_repl_lag_records",
                "Records the slowest connected follower has not yet applied",
            ),
            barrier_us: registry.histogram(
                "cluster_repl_barrier_us",
                "Replication barrier wait at ack points, microseconds",
            ),
            degraded_total: registry.counter(
                "cluster_repl_degraded_total",
                "Sync barriers that proceeded without a caught-up follower",
            ),
        });
        let accept_hub = Arc::clone(&hub);
        let handle = std::thread::Builder::new()
            .name("repl-accept".into())
            .spawn(move || accept_hub.accept_loop(listener))
            .expect("spawn repl-accept");
        *hub.listener_thread.lock().expect("listener slot") = Some(handle);
        Ok(hub)
    }

    /// The bound replication address (useful with port 0).
    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// This incarnation's stream nonce.
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    /// Stop accepting and streaming; follower connections die and the
    /// listener thread joins.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.grew.notify_all();
        if let Some(handle) = self.listener_thread.lock().expect("listener slot").take() {
            let _ = handle.join();
        }
    }

    /// Accept followers until stopped. The listening socket sits on a
    /// [`commsched_net::poller::Poller`] so the stop flag is honored
    /// within one poll timeout instead of blocking in `accept(2)`.
    fn accept_loop(self: Arc<Self>, listener: TcpListener) {
        use commsched_net::poller::{Event, Interest, Poller};
        if listener.set_nonblocking(true).is_err() {
            return;
        }
        let Ok(mut poller) = Poller::new() else {
            return;
        };
        if poller
            .register(listener.as_raw_fd(), 0, Interest::READ)
            .is_err()
        {
            return;
        }
        let mut events: Vec<Event> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            if poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .is_err()
            {
                return;
            }
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let hub = Arc::clone(&self);
                        let _ = std::thread::Builder::new()
                            .name("repl-follower".into())
                            .spawn(move || hub.serve_follower(stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }
    }

    /// Handshake one follower, then stream records to it while a
    /// sibling thread drains its acks.
    fn serve_follower(self: Arc<Self>, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let Some((their_nonce, have)) = read_handshake(&stream) else {
            return;
        };
        let Ok(reader) = stream.try_clone() else {
            return;
        };
        let mut writer = stream;

        // Register under the state lock and pick the start position in
        // the same critical section, so no record published after the
        // decision can be missed by the streamer below.
        let (id, start) = {
            let mut st = self.state.lock().expect("hub state");
            let start = if their_nonce == self.nonce {
                have.min(st.log.len())
            } else {
                0
            };
            let id = st.next_follower;
            st.next_follower += 1;
            st.followers.insert(id, FollowerSlot { acked: start });
            self.followers_gauge.set(st.followers.len() as i64);
            (id, start)
        };
        let greeting = format!("OK {:016x} {start}\n", self.nonce);
        if writer.write_all(greeting.as_bytes()).is_err() {
            self.drop_follower(id);
            return;
        }

        // Ack reader: 8-byte LE total-applied counts, one per batch the
        // follower has made durable. A short read timeout keeps the
        // stop flag live.
        let ack_hub = Arc::clone(&self);
        let ack_thread = std::thread::Builder::new()
            .name("repl-acks".into())
            .spawn(move || ack_hub.drain_acks(id, reader))
            .expect("spawn repl-acks");

        // Streamer: wait for the log to outgrow our cursor, ship the
        // delta, repeat. Frames reuse the WAL framing so the follower
        // can checksum each record before applying it.
        let mut pos = start;
        'stream: loop {
            let batch: Vec<Arc<[u8]>> = {
                let mut st = self.state.lock().expect("hub state");
                while st.log.len() <= pos {
                    if self.stop.load(Ordering::SeqCst) || !st.followers.contains_key(&id) {
                        break 'stream;
                    }
                    let (next, _) = self
                        .grew
                        .wait_timeout(st, Duration::from_millis(100))
                        .expect("hub state");
                    st = next;
                }
                st.log[pos..].to_vec()
            };
            let mut wire = Vec::new();
            for record in &batch {
                wire.extend_from_slice(&(record.len() as u32).to_le_bytes());
                wire.extend_from_slice(&fnv1a(record).to_le_bytes());
                wire.extend_from_slice(record);
            }
            pos += batch.len();
            if writer.write_all(&wire).is_err() {
                break;
            }
        }
        self.drop_follower(id);
        let _ = ack_thread.join();
    }

    /// Read 8-byte LE applied counts from `reader` until the follower
    /// hangs up or the hub stops.
    fn drain_acks(self: Arc<Self>, id: u64, mut reader: TcpStream) {
        let _ = reader.set_read_timeout(Some(Duration::from_millis(100)));
        let mut buf = [0u8; 8];
        let mut filled = 0usize;
        loop {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            match reader.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => {
                    filled += n;
                    if filled == 8 {
                        filled = 0;
                        let applied = u64::from_le_bytes(buf) as usize;
                        let mut st = self.state.lock().expect("hub state");
                        if let Some(slot) = st.followers.get_mut(&id) {
                            slot.acked = slot.acked.max(applied);
                        } else {
                            break;
                        }
                        self.update_lag(&st);
                        drop(st);
                        self.acked_cv.notify_all();
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        self.drop_follower(id);
    }

    /// Remove a follower (idempotent) and wake any barrier waiting on
    /// it — the wait set must shrink when a follower dies, or a primary
    /// would freeze on a follower that will never ack again.
    fn drop_follower(&self, id: u64) {
        let mut st = self.state.lock().expect("hub state");
        if st.followers.remove(&id).is_some() {
            self.followers_gauge.set(st.followers.len() as i64);
            self.update_lag(&st);
            drop(st);
            self.acked_cv.notify_all();
            self.grew.notify_all();
        }
    }

    /// Refresh the lag gauge: records the slowest connected follower
    /// has not applied (0 with no followers — nothing is *waiting*).
    fn update_lag(&self, st: &HubState) {
        let min_acked = st.followers.values().map(|f| f.acked).min();
        let lag = min_acked.map_or(0, |a| st.log.len().saturating_sub(a));
        self.lag_gauge.set(lag as i64);
    }
}

/// Read the follower handshake line: `REPL FOLLOW <nonce-hex> <have>`.
fn read_handshake(stream: &TcpStream) -> Option<(u64, usize)> {
    let mut reader = stream.try_clone().ok()?;
    let _ = reader.set_read_timeout(Some(Duration::from_secs(5)));
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while line.len() < 256 {
        match reader.read(&mut byte) {
            Ok(0) => return None,
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => line.push(byte[0]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return None,
        }
    }
    let text = std::str::from_utf8(&line).ok()?;
    let mut words = text.split_whitespace();
    if words.next() != Some("REPL") || words.next() != Some("FOLLOW") {
        return None;
    }
    let nonce = u64::from_str_radix(words.next()?, 16).ok()?;
    let have: usize = words.next()?.parse().ok()?;
    words.next().is_none().then_some((nonce, have))
}

impl WalTap for ReplicationHub {
    /// Called under the WAL lock for every durably appended record:
    /// copy it into the log (commit order = log order) and wake the
    /// streamers. Must never block — the WAL lock serializes every
    /// submitter in the process.
    fn record(&self, payload: &[u8]) {
        let mut st = self.state.lock().expect("hub state");
        st.log.push(Arc::from(payload));
        self.records_total.inc();
        self.update_lag(&st);
        drop(st);
        self.grew.notify_all();
    }
}

impl ReplicationSink for ReplicationHub {
    /// Gate an acknowledgement. `sync`: wait until every connected
    /// follower has applied everything published so far (followers that
    /// disconnect mid-wait leave the wait set). `async`: record the
    /// instantaneous lag and return.
    fn barrier(&self) {
        let begin = Instant::now();
        let mut st = self.state.lock().expect("hub state");
        let target = st.log.len();
        if self.mode == ReplMode::Sync {
            let deadline = begin + BARRIER_TIMEOUT;
            let mut degraded = st.followers.is_empty();
            while st.followers.values().any(|f| f.acked < target) {
                let now = Instant::now();
                if now >= deadline {
                    degraded = true;
                    break;
                }
                let (next, _) = self
                    .acked_cv
                    .wait_timeout(st, deadline - now)
                    .expect("hub state");
                st = next;
                if st.followers.is_empty() {
                    degraded = true;
                    break;
                }
            }
            if degraded {
                self.degraded_total.inc();
            }
        }
        drop(st);
        self.barrier_us
            .record(begin.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
    }

    fn stats_lines(&self) -> Vec<String> {
        let st = self.state.lock().expect("hub state");
        let min_acked = st.followers.values().map(|f| f.acked).min();
        let lag = min_acked.map_or(0, |a| st.log.len().saturating_sub(a));
        vec![
            format!("repl_mode {}", self.mode.as_str()),
            format!("repl_followers {}", st.followers.len()),
            format!("repl_log_records {}", st.log.len()),
            format!("repl_lag_records {lag}"),
            format!("repl_degraded {}", self.degraded_total.get()),
        ]
    }
}
