//! The front end's reply bytes, recorded: one fixed script driven
//! through a real `Server::bind` over both wire codecs, compared with
//! the transcript the daemon sent when this file was written.
//!
//! Every verb, every refusal class, `ADDTOPO` in its three shapes, the
//! batch frame (accepted / malformed / over-limit / `queue-full`
//! entries), the event loop's own refusals (oversized frame, bad
//! preamble, empty frame, over-long line, idle timeout, connection cap),
//! `QUIT`, `SHUTDOWN`, and the routed requests again under cluster hooks
//! that own nothing. A change to the request path that is not meant to
//! move a wire byte must pass this file unedited, in debug and with
//! `--release`.
//!
//! What is not compared: the value column of `STATS` and the samples of
//! `METRICS` (timings and counts of whatever else ran in the process).
//! `STATS` is reduced to its keys, `METRICS` to the sample names of the
//! daemon's own `service_*` / `net_*` families. Job ids, fingerprints
//! and search results are deterministic and compared in full.
//!
//! A mismatch prints the first differing line and the whole transcript
//! as sent, ready to paste over the recorded one.

use commsched_net::frame;
use commsched_net::NetConfig;
use commsched_service::server::ServerHandle;
use commsched_service::{
    ClusterHooks, JobState, RouteDecision, RoutingSpec, Server, ServiceCore, ServiceCoreConfig,
    TableSpec, TopoRef,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One worker (so a long job pins it and the queue's content is exactly
/// what the script submitted), a queue of four, small wire caps.
fn core_config() -> ServiceCoreConfig {
    ServiceCoreConfig {
        queue_capacity: 4,
        cache_capacity: 2,
        search_seeds: 2,
        search_threads: 1,
        table_threads: 1,
    }
}

fn net_config() -> NetConfig {
    NetConfig {
        max_frame_payload: 4096,
        max_line_bytes: 256,
        ..NetConfig::default()
    }
}

fn spawn(net: NetConfig, hooks: Option<Arc<dyn ClusterHooks>>) -> ServerHandle {
    let core = Arc::new(ServiceCore::new(core_config()));
    Server::bind_with_core("127.0.0.1:0", 1, net, core, hooks).expect("bind ephemeral port")
}

/// Cluster hooks of a node that owns no shard: every routed key belongs
/// to shard 7 at a fixed address.
struct OwnsNothing;

fn elsewhere() -> RouteDecision {
    RouteDecision::Moved {
        shard: 7,
        addr: "10.0.0.7:7477".to_string(),
    }
}

impl ClusterHooks for OwnsNothing {
    fn route(&self, _topo: TopoRef) -> RouteDecision {
        elsewhere()
    }

    fn cluster_lines(&self) -> Vec<String> {
        vec!["node 0".to_string(), "member 7 10.0.0.7:7477".to_string()]
    }

    fn stats_lines(&self) -> Vec<String> {
        vec!["cluster_shard 0".to_string()]
    }
}

/// One client connection in either codec, logging what it sends
/// (`> `) and what comes back (`< `).
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    binary: bool,
    log: String,
}

impl Conn {
    fn open(handle: &ServerHandle, binary: bool) -> Self {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        stream.set_nodelay(true).expect("nodelay");
        let mut writer = stream.try_clone().expect("clone");
        if binary {
            writer.write_all(&frame::MAGIC).expect("preamble");
        }
        Self {
            reader: BufReader::new(stream),
            writer,
            binary,
            log: String::new(),
        }
    }

    fn note(&mut self, prefix: &str, text: &str) {
        for line in text.split('\n') {
            self.log.push_str(prefix);
            self.log.push_str(line);
            self.log.push('\n');
        }
    }

    /// Write `bytes` as they are, logged under `what`.
    fn send_raw(&mut self, what: &str, bytes: &[u8]) {
        self.note("> ", what);
        self.writer.write_all(bytes).expect("write");
    }

    /// Send one request text in this connection's codec — a line (an
    /// `ADDTOPO` body rides behind its head line, every line terminated)
    /// or one `OP_REQ` frame — without reading anything back.
    fn send(&mut self, text: &str) {
        let bytes = if self.binary {
            frame::encode_frame(frame::OP_REQ, text.as_bytes())
        } else {
            format!("{text}\n").into_bytes()
        };
        self.send_raw(text, &bytes);
    }

    /// One request, one reply.
    fn ask(&mut self, text: &str) {
        self.send(text);
        self.reply();
    }

    /// One `OP_SUBMIT_BATCH` frame, one reply.
    fn ask_batch(&mut self, specs: &[&str]) {
        let specs: Vec<String> = specs.iter().map(|s| s.to_string()).collect();
        let payload = frame::encode_submit_batch(&specs);
        let what = format!("BATCH [{}]", specs.join(" | "));
        self.send_raw(
            &what,
            &frame::encode_frame(frame::OP_SUBMIT_BATCH, &payload),
        );
        self.reply();
    }

    fn read_line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end_matches('\n').to_string()),
            // A reset after the farewell reads as a close.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => None,
            Err(e) => panic!("read: {e}\ntranscript so far:\n{}", self.log),
        }
    }

    /// Read one reply and log it: a line (a block through its `.`) or a
    /// frame, or the close of the connection.
    fn reply(&mut self) {
        let lines = if self.binary {
            self.read_frame()
        } else {
            self.read_text_reply()
        };
        match lines {
            None => self.log.push_str("< (closed)\n"),
            Some(lines) => {
                let text = reduce(lines).join("\n");
                self.note("< ", &text);
            }
        }
    }

    fn read_text_reply(&mut self) -> Option<Vec<String>> {
        let head = self.read_line()?;
        let mut lines = vec![head];
        let block = [
            "OK result",
            "OK stats",
            "OK metrics",
            "OK fault",
            "OK cluster",
        ];
        if block.contains(&lines[0].as_str()) {
            loop {
                let line = self.read_line().expect("block ends with '.'");
                let end = line == ".";
                lines.push(line);
                if end {
                    break;
                }
            }
        }
        Some(lines)
    }

    /// One frame, rendered `<opcode> <first payload line>` and then the
    /// payload's other lines; a batch ack is rendered entry by entry.
    fn read_frame(&mut self) -> Option<Vec<String>> {
        let mut len = [0u8; 4];
        match self.reader.read_exact(&mut len) {
            Ok(()) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::ConnectionReset
                ) =>
            {
                return None
            }
            Err(e) => panic!("read: {e}\ntranscript so far:\n{}", self.log),
        }
        let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
        self.reader.read_exact(&mut body).expect("frame body");
        let (opcode, payload) = body.split_first().expect("opcode");
        let name = match *opcode {
            frame::OP_OK => "[ok]",
            frame::OP_ERR => "[err]",
            frame::OP_MOVED => "[moved]",
            frame::OP_BATCH_ACK => "[batch-ack]",
            _ => "[?]",
        };
        if *opcode == frame::OP_BATCH_ACK {
            let outcomes = frame::decode_batch_ack(payload).expect("ack payload");
            let mut lines = vec![format!("{name} {}", outcomes.len())];
            lines.extend(outcomes.iter().map(|o| match o {
                frame::BatchOutcome::Ok(id) => format!("ok {id}"),
                frame::BatchOutcome::Err(msg) => format!("err {msg}"),
            }));
            return Some(lines);
        }
        let text = String::from_utf8_lossy(payload);
        let mut lines: Vec<String> = text.split('\n').map(str::to_string).collect();
        lines[0] = format!("{name} {}", lines[0]);
        Some(lines)
    }

    /// The connection must be closed now.
    fn closed(&mut self) {
        self.reply();
        assert!(
            self.log.ends_with("< (closed)\n"),
            "expected a close:\n{}",
            self.log
        );
    }
}

/// `STATS` keeps its key column; `METRICS` keeps the sample names of the
/// daemon's own families (bucket series excepted: which buckets exist
/// is a matter of timing).
fn reduce(lines: Vec<String>) -> Vec<String> {
    let head = lines[0].clone();
    if head.ends_with("OK stats") {
        return lines
            .into_iter()
            .map(|l| match l.split_once(' ') {
                Some((key, _)) if !l.ends_with("OK stats") => key.to_string(),
                _ => l,
            })
            .collect();
    }
    if head.ends_with("OK metrics") {
        let mut out = vec![head];
        for l in &lines[1..lines.len() - 1] {
            let name = l.split(['{', ' ']).next().unwrap_or_default();
            let own = name.starts_with("service_") || name.starts_with("net_");
            if own && !name.ends_with("_bucket") && out.last().is_none_or(|p| p != name) {
                out.push(name.to_string());
            }
        }
        out.push(".".to_string());
        return out;
    }
    lines
}

fn wait_until(handle: &ServerHandle, job: u64, pred: impl Fn(JobState) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let state = handle.core().status(job).expect("job exists");
        if pred(state) {
            return;
        }
        assert!(Instant::now() < deadline, "job {job} stuck in {state}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Holds the single-flight build slot of paper24's distance table, so
/// the worker that takes a paper24 `SCHEDULE` blocks behind it — for as
/// long as the script needs, not for as long as a search happens to take.
/// On release the held build fails and the worker builds the table itself.
struct Pin {
    gate: std::sync::mpsc::Sender<()>,
    holder: std::thread::JoinHandle<()>,
}

impl Pin {
    fn paper24_table(handle: &ServerHandle) -> Self {
        let core = Arc::clone(handle.core());
        let misses = core.cache.misses();
        let fp = commsched_topology::designed::paper_24_switch().fingerprint();
        let key = (fp, RoutingSpec::UpDown { root: 0 }, TableSpec::Exact);
        let (gate, held) = std::sync::mpsc::channel::<()>();
        let holder = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || {
                let _ = core.cache.get_or_build(key, || {
                    let _ = held.recv();
                    Err("released".to_string())
                });
            })
        };
        while core.cache.misses() == misses {
            std::thread::sleep(Duration::from_millis(1));
        }
        Self { gate, holder }
    }

    fn release(self) {
        self.gate.send(()).expect("holder alive");
        self.holder.join().expect("holder thread");
    }
}

fn wait_settled(handle: &ServerHandle, job: u64) {
    wait_until(handle, job, |s| {
        !matches!(s, JobState::Queued | JobState::Running)
    });
}

/// Compare with the recorded transcript; on a mismatch show where and
/// print everything that was sent.
fn check(name: &str, got: &str, want: &str) {
    let want = want.trim_start_matches('\n');
    if got == want {
        return;
    }
    let at = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    panic!(
        "{name}: transcript differs at line {}:\n  sent     {:?}\n  recorded {:?}\n\
         ---- transcript as sent ----\n{got}----",
        at + 1,
        got.lines().nth(at),
        want.lines().nth(at),
    );
}

/// A ring of four switches, one workstation each, in the upload format.
const RING4: &str = "# commsched topology v1\nswitches 4\nhosts_per_switch 1\n\
                     link 0 1\nlink 1 2\nlink 2 3\nlink 0 3";

/// The script both codecs run on a fresh daemon.
fn verbs(handle: &ServerHandle, binary: bool) -> String {
    let mut c = Conn::open(handle, binary);
    // Probes and malformed requests.
    c.ask("PING");
    c.ask("CAPS");
    c.ask("CLUSTER");
    c.ask("FROBNICATE now");
    c.ask("");
    c.ask("PING extra");
    c.ask("STATUS abc");
    c.ask("STATUS 99");
    c.ask("RESULT 99");
    c.ask("CANCEL 99");
    c.ask("SNAPSHOT");
    // Refused at the door: nothing is queued, no id is spent.
    c.ask("SUBMIT");
    c.ask("SUBMIT DANCE topo=paper24");
    c.ask("SUBMIT SCHEDULE");
    c.ask("SUBMIT SCHEDULE topo=paper24 clusters=four");
    c.ask("SUBMIT SCHEDULE topo=ring:1000000000:1");
    c.ask("SUBMIT SWEEP topo=paper24 points=65");
    c.ask("SUBMIT SCHEDULE topo=paper24 approx-eps=0.05");
    c.ask("FAULT topo=ring:4097:1 kill=0:1");
    c.ask("FAULT topo=paper24");
    // A job that runs, and one that fails typed.
    c.ask("SUBMIT NOOP");
    wait_settled(handle, 1);
    c.ask("STATUS 1");
    c.ask("RESULT 1");
    c.ask("CANCEL 1");
    c.ask("SUBMIT SCHEDULE topo=fp:0123456789abcdef");
    wait_settled(handle, 2);
    c.ask("STATUS 2");
    c.ask("RESULT 2");
    // Uploads: valid, re-uploaded, empty, garbage, bad count.
    c.ask(&format!("ADDTOPO 7\n{RING4}"));
    c.ask(&format!("ADDTOPO 7\n{RING4}"));
    c.ask("ADDTOPO 0");
    c.ask("ADDTOPO 2\nQUIT\nPING");
    c.ask("ADDTOPO many");
    if binary {
        // Frame-delimited: the announced count is advisory.
        c.ask(&format!("ADDTOPO 1\n{RING4}"));
    }
    c.ask("SUBMIT SCHEDULE topo=fp:06643a6c1aa4e8e0 clusters=2 seed=1");
    wait_settled(handle, 3);
    c.ask("RESULT 3");
    // Faults: rejected event, applied event, the stale spelling after it.
    c.ask("FAULT topo=ring:5:1 kill=0:2");
    c.ask("FAULT topo=ring:5:1 kill=0:1");
    c.ask("FAULT topo=ring:5:1 kill=1:2");
    c.ask("SUBMIT SCHEDULE topo=ring:5:1 clusters=2");
    wait_settled(handle, 4);
    c.ask("RESULT 4");
    // Pin the one worker on job 5; the queue then holds exactly what
    // the script puts there.
    let pin = Pin::paper24_table(handle);
    c.ask("SUBMIT SCHEDULE topo=paper24 clusters=4 seed=42 deadline-ms=60000 mem=1");
    c.ask("SUBMIT SCHEDULE topo=paper24 clusters=4 seed=42 mem=0");
    wait_until(handle, 5, |s| s == JobState::Running);
    c.ask("STATUS 5");
    c.ask("RESULT 5");
    c.ask("CANCEL 5");
    c.ask("SUBMIT NOOP");
    c.ask("STATUS 6");
    c.ask("CANCEL 6");
    c.ask("STATUS 6");
    c.ask("RESULT 6");
    for _ in 0..4 {
        c.ask("SUBMIT NOOP topo=ring:8:2");
    }
    c.ask("SUBMIT NOOP");
    if binary {
        // Every entry rejected; then room for two and a mixed batch.
        c.ask_batch(&["NOOP", "GIBBERISH kind"]);
        c.ask("CANCEL 7");
        c.ask("CANCEL 8");
        c.ask_batch(&[
            "NOOP",
            "GIBBERISH kind",
            "SWEEP topo=paper24 points=65",
            "NOOP deadline-ms=5",
            "NOOP",
        ]);
        c.ask_batch(&[]);
        // A truncated batch, a spec that is not UTF-8, an unknown opcode.
        let whole = frame::encode_submit_batch(&["NOOP".to_string(), "NOOP".to_string()]);
        c.send_raw(
            "BATCH cut short",
            &frame::encode_frame(frame::OP_SUBMIT_BATCH, &whole[..whole.len() - 3]),
        );
        c.reply();
        c.send_raw(
            "BATCH count only",
            &frame::encode_frame(frame::OP_SUBMIT_BATCH, &u32::MAX.to_le_bytes()),
        );
        c.reply();
        let mut not_utf8 = 1u32.to_le_bytes().to_vec();
        not_utf8.extend_from_slice(&2u32.to_le_bytes());
        not_utf8.extend_from_slice(&[0xff, 0xfe]);
        c.send_raw(
            "BATCH not utf-8",
            &frame::encode_frame(frame::OP_SUBMIT_BATCH, &not_utf8),
        );
        c.reply();
        c.send_raw("OPCODE 0x7f", &frame::encode_frame(0x7f, b"PING"));
        c.reply();
        c.send_raw(
            "REQ not utf-8",
            &frame::encode_frame(frame::OP_REQ, &[b'P', 0xff]),
        );
        c.reply();
    } else {
        // CRLF is a line ending too.
        c.send_raw("PING\\r\\n", b"PING\r\n");
        c.reply();
    }
    pin.release();
    wait_settled(handle, 5);
    c.ask("STATUS 5");
    c.ask("RESULT 5");
    c.ask("STATS");
    c.ask("METRICS");
    // QUIT closes its own connection and nothing else.
    let mut q = Conn::open(handle, binary);
    q.ask("PING");
    q.send("QUIT");
    q.closed();
    c.log.push_str(&q.log);
    c.ask("PING");
    c.ask("SHUTDOWN");
    c.closed();
    c.log
}

/// The routed requests on a node that owns nothing.
fn routed(handle: &ServerHandle, binary: bool) -> String {
    let mut c = Conn::open(handle, binary);
    c.ask("PING");
    c.ask("CAPS");
    c.ask("CLUSTER");
    c.ask("STATS");
    c.ask("SUBMIT NOOP");
    c.ask("SUBMIT SCHEDULE topo=fp:0123456789abcdef");
    c.ask("SUBMIT SCHEDULE topo=paper24 clusters=four");
    c.ask("SUBMIT SWEEP topo=paper24 points=65");
    c.ask("FAULT topo=paper24 kill=0:1");
    c.ask("FAULT topo=paper24");
    c.ask(&format!("ADDTOPO 7\n{RING4}"));
    c.ask("ADDTOPO 2\nQUIT\nPING");
    c.ask("ADDTOPO 0");
    c.ask("STATUS 1");
    if binary {
        c.ask_batch(&["NOOP", "GIBBERISH kind", "SWEEP topo=paper24 points=65"]);
    }
    c.ask("SHUTDOWN");
    c.closed();
    c.log
}

#[test]
fn line_codec_transcript() {
    let handle = spawn(net_config(), None);
    let got = verbs(&handle, false);
    handle.join();
    check("line codec", &got, LINE_VERBS);
}

#[test]
fn binary_codec_transcript() {
    let handle = spawn(net_config(), None);
    let got = verbs(&handle, true);
    handle.join();
    check("binary codec", &got, BINARY_VERBS);
}

#[test]
fn routed_requests_on_a_node_that_owns_nothing() {
    for (binary, want) in [(false, LINE_ROUTED), (true, BINARY_ROUTED)] {
        let handle = spawn(net_config(), Some(Arc::new(OwnsNothing)));
        let got = routed(&handle, binary);
        handle.join();
        check(
            if binary {
                "binary routed"
            } else {
                "line routed"
            },
            &got,
            want,
        );
    }
}

/// What the event loop itself refuses, each on its own connection
/// (every one of them ends it), and the daemon still serving afterwards.
#[test]
fn loop_level_refusals() {
    let handle = spawn(net_config(), None);
    let mut log = String::new();

    // Line codec: an upload past the byte cap, whatever count it
    // announced; a line that never ends.
    let mut c = Conn::open(&handle, false);
    let mut upload = "ADDTOPO 18446744073709551615\n".to_string();
    // 42 lines of 100 bytes: the 41st crosses the 4096-byte cap.
    for _ in 0..42 {
        upload.push_str(&"x".repeat(99));
        upload.push('\n');
    }
    c.send_raw(
        "ADDTOPO 18446744073709551615 + 4200 bytes",
        upload.as_bytes(),
    );
    c.reply();
    c.closed();
    log.push_str(&c.log);

    let mut c = Conn::open(&handle, false);
    c.ask("PING");
    c.send_raw("257 bytes, no newline", &[b'x'; 257]);
    c.reply();
    c.closed();
    log.push_str(&c.log);

    // Binary codec: an oversized length prefix (an inline upload over
    // the cap is exactly this), a zero length, a bad magic, a bad version.
    let mut c = Conn::open(&handle, true);
    c.ask("PING");
    c.send_raw("frame of 1000000 bytes", &1_000_000u32.to_le_bytes());
    c.reply();
    c.closed();
    log.push_str(&c.log);

    let mut c = Conn::open(&handle, true);
    c.send_raw("frame of 0 bytes", &0u32.to_le_bytes());
    c.reply();
    c.closed();
    log.push_str(&c.log);

    for (what, preamble) in [
        ("preamble c5 'x' 's' 1", [frame::MAGIC_BYTE, b'x', b's', 1]),
        ("preamble c5 'c' 's' 9", [frame::MAGIC_BYTE, b'c', b's', 9]),
    ] {
        let mut c = Conn::open(&handle, false);
        c.binary = true;
        c.send_raw(what, &preamble);
        c.reply();
        c.closed();
        log.push_str(&c.log);
    }

    // None of it cost the daemon anything.
    let mut c = Conn::open(&handle, false);
    c.ask("PING");
    c.ask("SHUTDOWN");
    c.closed();
    log.push_str(&c.log);
    handle.join();

    // The connection cap and the idle timeout, on a daemon of its own.
    let handle = spawn(
        NetConfig {
            max_connections: 1,
            idle_timeout: Some(Duration::from_millis(300)),
            ..net_config()
        },
        None,
    );
    let mut held = Conn::open(&handle, false);
    held.ask("PING");
    let mut shed = Conn::open(&handle, false);
    shed.note("> ", "(a second connection)");
    shed.reply();
    shed.closed();
    held.note("> ", "(silence)");
    held.reply();
    held.closed();
    log.push_str(&held.log);
    log.push_str(&shed.log);
    let mut c = Conn::open(&handle, true);
    c.ask("PING");
    c.note("> ", "(silence)");
    c.reply();
    c.closed();
    log.push_str(&c.log);
    handle.shutdown();

    check("loop-level refusals", &log, LOOP_REFUSALS);
}

const LINE_VERBS: &str = r#"
> PING
< OK pong
> CAPS
< OK caps proto=line+binary version=1 batch-submit=1 pipeline=1
> CLUSTER
< OK standalone
> FROBNICATE now
< ERR unknown request 'FROBNICATE'
> 
< ERR empty request
> PING extra
< ERR unknown request 'PING'
> STATUS abc
< ERR bad job id 'abc'
> STATUS 99
< ERR unknown-job
> RESULT 99
< ERR unknown-job
> CANCEL 99
< ERR unknown-job
> SNAPSHOT
< ERR no-persistence
> SUBMIT
< ERR SUBMIT needs a job type
> SUBMIT DANCE topo=paper24
< ERR unknown job type 'DANCE'
> SUBMIT SCHEDULE
< ERR SUBMIT needs topo=...
> SUBMIT SCHEDULE topo=paper24 clusters=four
< ERR bad clusters 'four'
> SUBMIT SCHEDULE topo=ring:1000000000:1
< ERR limit-exceeded: switches 1000000000 > 4096
> SUBMIT SWEEP topo=paper24 points=65
< ERR limit-exceeded: points 65 > 64
> SUBMIT SCHEDULE topo=paper24 approx-eps=0.05
< ERR unsupported: approx-eps 0.05 (tables are exact)
> FAULT topo=ring:4097:1 kill=0:1
< ERR limit-exceeded: switches 4097 > 4096
> FAULT topo=paper24
< ERR FAULT needs kill=a:b, restore=a:b[:slowdown], or switch=s
> SUBMIT NOOP
< OK 1
> STATUS 1
< OK done
> RESULT 1
< OK result
< noop
< .
> CANCEL 1
< ERR not-cancellable (done)
> SUBMIT SCHEDULE topo=fp:0123456789abcdef
< OK 2
> STATUS 2
< OK failed
> RESULT 2
< ERR job-failed: unknown-topology 0123456789abcdef
> ADDTOPO 7
> # commsched topology v1
> switches 4
> hosts_per_switch 1
> link 0 1
> link 1 2
> link 2 3
> link 0 3
< OK 06643a6c1aa4e8e0
> ADDTOPO 7
> # commsched topology v1
> switches 4
> hosts_per_switch 1
> link 0 1
> link 1 2
> link 2 3
> link 0 3
< OK 06643a6c1aa4e8e0
> ADDTOPO 0
< ERR missing 'switches' directive
> ADDTOPO 2
> QUIT
> PING
< ERR line 1: unrecognized 'QUIT'
> ADDTOPO many
< ERR bad line count 'many'
> SUBMIT SCHEDULE topo=fp:06643a6c1aa4e8e0 clusters=2 seed=1
< OK 3
> RESULT 3
< OK result
< topology 06643a6c1aa4e8e0
< clusters 2
< partition 0 0 1 1
< fg 0.666666667
< dg 1.166666667
< cc 1.750000000
< winning_seed 1
< strategy flat
< .
> FAULT topo=ring:5:1 kill=0:2
< ERR fault-rejected: no link between 0 and 2
> FAULT topo=ring:5:1 kill=0:1
< OK fault
< event link-down 0:1
< epoch 1
< topology b98db819ac4205a0
< previous 01d666d79b24f9e0
< connected true
< components 1
< invalidated 0
< refreshed 0
< requeued 0
< .
> FAULT topo=ring:5:1 kill=1:2
< ERR stale-epoch: 01d666d79b24f9e0 superseded by b98db819ac4205a0
> SUBMIT SCHEDULE topo=ring:5:1 clusters=2
< OK 4
> RESULT 4
< ERR job-failed: stale-epoch: 01d666d79b24f9e0 superseded by b98db819ac4205a0
> SUBMIT SCHEDULE topo=paper24 clusters=4 seed=42 deadline-ms=60000 mem=1
< ERR unsupported: deadline-ms 60000 (the daemon does no online placement)
> SUBMIT SCHEDULE topo=paper24 clusters=4 seed=42 mem=0
< OK 5
> STATUS 5
< OK running
> RESULT 5
< ERR not-done (running)
> CANCEL 5
< ERR not-cancellable (running)
> SUBMIT NOOP
< OK 6
> STATUS 6
< OK queued
> CANCEL 6
< OK cancelled
> STATUS 6
< OK cancelled
> RESULT 6
< ERR not-done (cancelled)
> SUBMIT NOOP topo=ring:8:2
< OK 7
> SUBMIT NOOP topo=ring:8:2
< OK 8
> SUBMIT NOOP topo=ring:8:2
< OK 9
> SUBMIT NOOP topo=ring:8:2
< OK 10
> SUBMIT NOOP
< ERR queue-full
> PING\r\n
< OK pong
> STATUS 5
< OK done
> RESULT 5
< OK result
< topology d04a92caefb409d1
< clusters 4
< partition 1 1 1 1 1 1 3 3 3 3 3 3 2 2 2 2 2 2 0 0 0 0 0 0
< fg 0.178265437
< dg 1.228259601
< cc 6.890060241
< winning_seed 42
< strategy flat
< .
> STATS
< OK stats
< jobs_queued
< jobs_running
< cache_hits
< cache_misses
< cache_entries
< cache_build_ms_total
< cache_build_ms_last
< topologies
< jobs_submitted
< jobs_completed
< jobs_failed
< jobs_cancelled
< jobs_rejected
< jobs_panicked
< jobs_recovered
< wal_bytes
< snapshot_nanos
< table_spills
< table_spill_bytes
< table_spill_nanos
< table_restore_nanos
< table_restores
< table_spill_errors
< ml_levels
< ml_refine_moves
< net_connections_open
< net_frames_rx
< net_frames_tx
< net_bytes_rx
< net_bytes_tx
< net_busy_rejections
< net_idle_closed
< queue_wait_ms_count
< queue_wait_ms_p50
< queue_wait_ms_p90
< run_ms_count
< run_ms_p50
< run_ms_p90
< net_pipeline_depth_count
< net_pipeline_depth_p50
< net_pipeline_depth_p90
< .
> METRICS
< OK metrics
< net_busy_rejections_total
< net_bytes_rx_total
< net_bytes_tx_total
< net_connections_open
< net_frames_rx_total
< net_frames_tx_total
< net_idle_closed_total
< net_pipeline_depth_sum
< net_pipeline_depth_count
< service_job_queue_wait_ms_sum
< service_job_queue_wait_ms_count
< service_job_run_ms_sum
< service_job_run_ms_count
< service_jobs_cancelled_total
< service_jobs_completed_total
< service_jobs_failed_total
< service_jobs_panicked_total
< service_jobs_rejected_total
< service_jobs_submitted_total
< service_ml_levels
< service_ml_refine_moves_total
< service_recovered_jobs_total
< service_snapshot_nanos
< service_table_restore_nanos
< service_table_restores_total
< service_table_spill_bytes_total
< service_table_spill_errors_total
< service_table_spill_nanos
< service_table_spills_total
< service_wal_bytes
< service_jobs_queued
< service_jobs_running
< service_cache_entries
< service_cache_build_ms_last
< service_topologies
< service_cache_hits_total
< service_cache_misses_total
< service_cache_build_ms_total
< .
> PING
< OK pong
> QUIT
< (closed)
> PING
< OK pong
> SHUTDOWN
< OK drained 7
< (closed)
"#;
const BINARY_VERBS: &str = r#"
> PING
< [ok] OK pong
> CAPS
< [ok] OK caps proto=line+binary version=1 batch-submit=1 pipeline=1
> CLUSTER
< [ok] OK standalone
> FROBNICATE now
< [err] ERR unknown request 'FROBNICATE'
> 
< [err] ERR empty request
> PING extra
< [err] ERR unknown request 'PING'
> STATUS abc
< [err] ERR bad job id 'abc'
> STATUS 99
< [err] ERR unknown-job
> RESULT 99
< [err] ERR unknown-job
> CANCEL 99
< [err] ERR unknown-job
> SNAPSHOT
< [err] ERR no-persistence
> SUBMIT
< [err] ERR SUBMIT needs a job type
> SUBMIT DANCE topo=paper24
< [err] ERR unknown job type 'DANCE'
> SUBMIT SCHEDULE
< [err] ERR SUBMIT needs topo=...
> SUBMIT SCHEDULE topo=paper24 clusters=four
< [err] ERR bad clusters 'four'
> SUBMIT SCHEDULE topo=ring:1000000000:1
< [err] ERR limit-exceeded: switches 1000000000 > 4096
> SUBMIT SWEEP topo=paper24 points=65
< [err] ERR limit-exceeded: points 65 > 64
> SUBMIT SCHEDULE topo=paper24 approx-eps=0.05
< [err] ERR unsupported: approx-eps 0.05 (tables are exact)
> FAULT topo=ring:4097:1 kill=0:1
< [err] ERR limit-exceeded: switches 4097 > 4096
> FAULT topo=paper24
< [err] ERR FAULT needs kill=a:b, restore=a:b[:slowdown], or switch=s
> SUBMIT NOOP
< [ok] OK 1
> STATUS 1
< [ok] OK done
> RESULT 1
< [ok] OK result
< noop
< .
> CANCEL 1
< [err] ERR not-cancellable (done)
> SUBMIT SCHEDULE topo=fp:0123456789abcdef
< [ok] OK 2
> STATUS 2
< [ok] OK failed
> RESULT 2
< [err] ERR job-failed: unknown-topology 0123456789abcdef
> ADDTOPO 7
> # commsched topology v1
> switches 4
> hosts_per_switch 1
> link 0 1
> link 1 2
> link 2 3
> link 0 3
< [ok] OK 06643a6c1aa4e8e0
> ADDTOPO 7
> # commsched topology v1
> switches 4
> hosts_per_switch 1
> link 0 1
> link 1 2
> link 2 3
> link 0 3
< [ok] OK 06643a6c1aa4e8e0
> ADDTOPO 0
< [err] ERR missing 'switches' directive
> ADDTOPO 2
> QUIT
> PING
< [err] ERR line 1: unrecognized 'QUIT'
> ADDTOPO many
< [err] ERR bad line count 'many'
> ADDTOPO 1
> # commsched topology v1
> switches 4
> hosts_per_switch 1
> link 0 1
> link 1 2
> link 2 3
> link 0 3
< [ok] OK 06643a6c1aa4e8e0
> SUBMIT SCHEDULE topo=fp:06643a6c1aa4e8e0 clusters=2 seed=1
< [ok] OK 3
> RESULT 3
< [ok] OK result
< topology 06643a6c1aa4e8e0
< clusters 2
< partition 0 0 1 1
< fg 0.666666667
< dg 1.166666667
< cc 1.750000000
< winning_seed 1
< strategy flat
< .
> FAULT topo=ring:5:1 kill=0:2
< [err] ERR fault-rejected: no link between 0 and 2
> FAULT topo=ring:5:1 kill=0:1
< [ok] OK fault
< event link-down 0:1
< epoch 1
< topology b98db819ac4205a0
< previous 01d666d79b24f9e0
< connected true
< components 1
< invalidated 0
< refreshed 0
< requeued 0
< .
> FAULT topo=ring:5:1 kill=1:2
< [err] ERR stale-epoch: 01d666d79b24f9e0 superseded by b98db819ac4205a0
> SUBMIT SCHEDULE topo=ring:5:1 clusters=2
< [ok] OK 4
> RESULT 4
< [err] ERR job-failed: stale-epoch: 01d666d79b24f9e0 superseded by b98db819ac4205a0
> SUBMIT SCHEDULE topo=paper24 clusters=4 seed=42 deadline-ms=60000 mem=1
< [err] ERR unsupported: deadline-ms 60000 (the daemon does no online placement)
> SUBMIT SCHEDULE topo=paper24 clusters=4 seed=42 mem=0
< [ok] OK 5
> STATUS 5
< [ok] OK running
> RESULT 5
< [err] ERR not-done (running)
> CANCEL 5
< [err] ERR not-cancellable (running)
> SUBMIT NOOP
< [ok] OK 6
> STATUS 6
< [ok] OK queued
> CANCEL 6
< [ok] OK cancelled
> STATUS 6
< [ok] OK cancelled
> RESULT 6
< [err] ERR not-done (cancelled)
> SUBMIT NOOP topo=ring:8:2
< [ok] OK 7
> SUBMIT NOOP topo=ring:8:2
< [ok] OK 8
> SUBMIT NOOP topo=ring:8:2
< [ok] OK 9
> SUBMIT NOOP topo=ring:8:2
< [ok] OK 10
> SUBMIT NOOP
< [err] ERR queue-full
> BATCH [NOOP | GIBBERISH kind]
< [batch-ack] 2
< err queue-full
< err expected key=value, got 'kind'
> CANCEL 7
< [ok] OK cancelled
> CANCEL 8
< [ok] OK cancelled
> BATCH [NOOP | GIBBERISH kind | SWEEP topo=paper24 points=65 | NOOP deadline-ms=5 | NOOP]
< [batch-ack] 5
< ok 11
< err expected key=value, got 'kind'
< err limit-exceeded: points 65 > 64
< err unsupported: deadline-ms 5 (the daemon does no online placement)
< ok 12
> BATCH []
< [batch-ack] 0
> BATCH cut short
< [err] ERR bad-batch batch entry 1: truncated spec
> BATCH count only
< [err] ERR bad-batch batch count 4294967295 exceeds payload size
> BATCH not utf-8
< [err] ERR bad-batch batch entry 0: spec is not UTF-8
> OPCODE 0x7f
< [err] ERR unknown-opcode 0x7f
> REQ not utf-8
< [err] ERR unknown request 'P�'
> STATUS 5
< [ok] OK done
> RESULT 5
< [ok] OK result
< topology d04a92caefb409d1
< clusters 4
< partition 1 1 1 1 1 1 3 3 3 3 3 3 2 2 2 2 2 2 0 0 0 0 0 0
< fg 0.178265437
< dg 1.228259601
< cc 6.890060241
< winning_seed 42
< strategy flat
< .
> STATS
< [ok] OK stats
< jobs_queued
< jobs_running
< cache_hits
< cache_misses
< cache_entries
< cache_build_ms_total
< cache_build_ms_last
< topologies
< jobs_submitted
< jobs_completed
< jobs_failed
< jobs_cancelled
< jobs_rejected
< jobs_panicked
< jobs_recovered
< wal_bytes
< snapshot_nanos
< table_spills
< table_spill_bytes
< table_spill_nanos
< table_restore_nanos
< table_restores
< table_spill_errors
< ml_levels
< ml_refine_moves
< net_connections_open
< net_frames_rx
< net_frames_tx
< net_bytes_rx
< net_bytes_tx
< net_busy_rejections
< net_idle_closed
< queue_wait_ms_count
< queue_wait_ms_p50
< queue_wait_ms_p90
< run_ms_count
< run_ms_p50
< run_ms_p90
< net_pipeline_depth_count
< net_pipeline_depth_p50
< net_pipeline_depth_p90
< .
> METRICS
< [ok] OK metrics
< net_busy_rejections_total
< net_bytes_rx_total
< net_bytes_tx_total
< net_connections_open
< net_frames_rx_total
< net_frames_tx_total
< net_idle_closed_total
< net_pipeline_depth_sum
< net_pipeline_depth_count
< service_job_queue_wait_ms_sum
< service_job_queue_wait_ms_count
< service_job_run_ms_sum
< service_job_run_ms_count
< service_jobs_cancelled_total
< service_jobs_completed_total
< service_jobs_failed_total
< service_jobs_panicked_total
< service_jobs_rejected_total
< service_jobs_submitted_total
< service_ml_levels
< service_ml_refine_moves_total
< service_recovered_jobs_total
< service_snapshot_nanos
< service_table_restore_nanos
< service_table_restores_total
< service_table_spill_bytes_total
< service_table_spill_errors_total
< service_table_spill_nanos
< service_table_spills_total
< service_wal_bytes
< service_jobs_queued
< service_jobs_running
< service_cache_entries
< service_cache_build_ms_last
< service_topologies
< service_cache_hits_total
< service_cache_misses_total
< service_cache_build_ms_total
< .
> PING
< [ok] OK pong
> QUIT
< (closed)
> PING
< [ok] OK pong
> SHUTDOWN
< [ok] OK drained 7
< (closed)
"#;
const LINE_ROUTED: &str = r#"
> PING
< OK pong
> CAPS
< OK caps proto=line+binary version=1 batch-submit=1 pipeline=1 cluster=1
> CLUSTER
< OK cluster
< node 0
< member 7 10.0.0.7:7477
< .
> STATS
< OK stats
< jobs_queued
< jobs_running
< cache_hits
< cache_misses
< cache_entries
< cache_build_ms_total
< cache_build_ms_last
< topologies
< jobs_submitted
< jobs_completed
< jobs_failed
< jobs_cancelled
< jobs_rejected
< jobs_panicked
< jobs_recovered
< wal_bytes
< snapshot_nanos
< table_spills
< table_spill_bytes
< table_spill_nanos
< table_restore_nanos
< table_restores
< table_spill_errors
< ml_levels
< ml_refine_moves
< net_connections_open
< net_frames_rx
< net_frames_tx
< net_bytes_rx
< net_bytes_tx
< net_busy_rejections
< net_idle_closed
< queue_wait_ms_count
< queue_wait_ms_p50
< queue_wait_ms_p90
< run_ms_count
< run_ms_p50
< run_ms_p90
< net_pipeline_depth_count
< net_pipeline_depth_p50
< net_pipeline_depth_p90
< cluster_shard
< .
> SUBMIT NOOP
< MOVED 7 10.0.0.7:7477
> SUBMIT SCHEDULE topo=fp:0123456789abcdef
< MOVED 7 10.0.0.7:7477
> SUBMIT SCHEDULE topo=paper24 clusters=four
< ERR bad clusters 'four'
> SUBMIT SWEEP topo=paper24 points=65
< ERR limit-exceeded: points 65 > 64
> FAULT topo=paper24 kill=0:1
< MOVED 7 10.0.0.7:7477
> FAULT topo=paper24
< ERR FAULT needs kill=a:b, restore=a:b[:slowdown], or switch=s
> ADDTOPO 7
> # commsched topology v1
> switches 4
> hosts_per_switch 1
> link 0 1
> link 1 2
> link 2 3
> link 0 3
< MOVED 7 10.0.0.7:7477
> ADDTOPO 2
> QUIT
> PING
< ERR line 1: unrecognized 'QUIT'
> ADDTOPO 0
< ERR missing 'switches' directive
> STATUS 1
< ERR unknown-job
> SHUTDOWN
< OK drained 0
< (closed)
"#;
const BINARY_ROUTED: &str = r#"
> PING
< [ok] OK pong
> CAPS
< [ok] OK caps proto=line+binary version=1 batch-submit=1 pipeline=1 cluster=1
> CLUSTER
< [ok] OK cluster
< node 0
< member 7 10.0.0.7:7477
< .
> STATS
< [ok] OK stats
< jobs_queued
< jobs_running
< cache_hits
< cache_misses
< cache_entries
< cache_build_ms_total
< cache_build_ms_last
< topologies
< jobs_submitted
< jobs_completed
< jobs_failed
< jobs_cancelled
< jobs_rejected
< jobs_panicked
< jobs_recovered
< wal_bytes
< snapshot_nanos
< table_spills
< table_spill_bytes
< table_spill_nanos
< table_restore_nanos
< table_restores
< table_spill_errors
< ml_levels
< ml_refine_moves
< net_connections_open
< net_frames_rx
< net_frames_tx
< net_bytes_rx
< net_bytes_tx
< net_busy_rejections
< net_idle_closed
< queue_wait_ms_count
< queue_wait_ms_p50
< queue_wait_ms_p90
< run_ms_count
< run_ms_p50
< run_ms_p90
< net_pipeline_depth_count
< net_pipeline_depth_p50
< net_pipeline_depth_p90
< cluster_shard
< .
> SUBMIT NOOP
< [moved] 7 10.0.0.7:7477
> SUBMIT SCHEDULE topo=fp:0123456789abcdef
< [moved] 7 10.0.0.7:7477
> SUBMIT SCHEDULE topo=paper24 clusters=four
< [err] ERR bad clusters 'four'
> SUBMIT SWEEP topo=paper24 points=65
< [err] ERR limit-exceeded: points 65 > 64
> FAULT topo=paper24 kill=0:1
< [moved] 7 10.0.0.7:7477
> FAULT topo=paper24
< [err] ERR FAULT needs kill=a:b, restore=a:b[:slowdown], or switch=s
> ADDTOPO 7
> # commsched topology v1
> switches 4
> hosts_per_switch 1
> link 0 1
> link 1 2
> link 2 3
> link 0 3
< [moved] 7 10.0.0.7:7477
> ADDTOPO 2
> QUIT
> PING
< [err] ERR line 1: unrecognized 'QUIT'
> ADDTOPO 0
< [err] ERR missing 'switches' directive
> STATUS 1
< [err] ERR unknown-job
> BATCH [NOOP | GIBBERISH kind | SWEEP topo=paper24 points=65]
< [batch-ack] 3
< err moved 7 10.0.0.7:7477
< err expected key=value, got 'kind'
< err limit-exceeded: points 65 > 64
> SHUTDOWN
< [ok] OK drained 0
< (closed)
"#;
const LOOP_REFUSALS: &str = r#"
> ADDTOPO 18446744073709551615 + 4200 bytes
< ERR topology-too-large
< (closed)
> PING
< OK pong
> 257 bytes, no newline
< ERR line-too-long
< (closed)
> PING
< [ok] OK pong
> frame of 1000000 bytes
< [err] ERR frame-too-large 1000000 max 4097
< (closed)
> frame of 0 bytes
< [err] ERR empty-frame
< (closed)
> preamble c5 'x' 's' 1
< [err] ERR bad-magic
< (closed)
> preamble c5 'c' 's' 9
< [err] ERR bad-version 9
< (closed)
> PING
< OK pong
> SHUTDOWN
< OK drained 0
< (closed)
> PING
< OK pong
> (silence)
< ERR idle-timeout
< (closed)
> (a second connection)
< ERR busy max-connections
< (closed)
> PING
< [ok] OK pong
> (silence)
< [err] ERR idle-timeout
< (closed)
"#;
