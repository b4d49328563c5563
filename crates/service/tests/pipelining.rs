//! End-to-end tests of the event-loop front end: deep request
//! pipelining with in-order replies, the binary framed protocol and
//! batched submits, coexistence of both protocols on one daemon, the
//! shutdown drain (no queued reply is ever lost), the client's
//! batch-submit fallback against servers predating `CAPS`,
//! multi-line uploads that leave in one write, and the load generator
//! ending clean in every protocol × batch × fsync cell.

use commsched_net::frame::{self, BatchOutcome, FrameDecoder};
use commsched_service::loadgen::{self, LoadgenConfig, WireMode};
use commsched_service::{
    Client, FsyncPolicy, PersistOptions, Server, ServerConfig, ServiceCore, ServiceCoreConfig,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

fn spawn_server(queue_capacity: usize) -> commsched_service::server::ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            core: ServiceCoreConfig {
                queue_capacity,
                cache_capacity: 4,
                search_seeds: 2,
                search_threads: 1,
                table_threads: 1,
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

/// A thousand pipelined requests of four kinds, written in one burst;
/// every reply must come back in request order.
#[test]
fn thousand_pipelined_mixed_requests_reply_in_order() {
    let handle = spawn_server(4096);
    let mut conn = TcpStream::connect(handle.addr()).expect("connect");

    let mut wire = String::new();
    for i in 0..1000 {
        match i % 4 {
            0 => wire.push_str("PING\n"),
            1 => wire.push_str("SUBMIT NOOP\n"),
            2 => wire.push_str("CAPS\n"),
            _ => wire.push_str("BOGUS request\n"),
        }
    }
    conn.write_all(wire.as_bytes()).expect("one burst write");

    let mut reader = BufReader::new(conn);
    let mut last_id = 0u64;
    for i in 0..1000 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply line");
        let line = line.trim_end();
        match i % 4 {
            0 => assert_eq!(line, "OK pong", "reply {i}"),
            1 => {
                let id: u64 = line
                    .strip_prefix("OK ")
                    .unwrap_or_else(|| panic!("reply {i}: {line}"))
                    .parse()
                    .unwrap_or_else(|_| panic!("reply {i} not a job id: {line}"));
                assert!(id > last_id, "job ids must increase in request order");
                last_id = id;
            }
            2 => assert!(
                line.starts_with("OK caps") && line.contains("batch-submit=1"),
                "reply {i}: {line}"
            ),
            _ => assert!(line.starts_with("ERR"), "reply {i}: {line}"),
        }
    }
    handle.shutdown();
}

/// Binary frames pipeline the same way, and a batched submit returns
/// one ack entry per spec in order — including per-spec failures.
#[test]
fn binary_pipelining_and_batch_acks() {
    let handle = spawn_server(4096);
    let mut conn = TcpStream::connect(handle.addr()).expect("connect");

    let specs: Vec<String> = (0..64).map(|_| "NOOP".to_string()).collect();
    let mut bad_mix: Vec<String> = specs[..3].to_vec();
    bad_mix.insert(1, "GIBBERISH kind".to_string());

    let mut wire = frame::MAGIC.to_vec();
    wire.extend_from_slice(&frame::encode_frame(frame::OP_REQ, b"PING"));
    wire.extend_from_slice(&frame::encode_frame(
        frame::OP_SUBMIT_BATCH,
        &frame::encode_submit_batch(&specs),
    ));
    wire.extend_from_slice(&frame::encode_frame(
        frame::OP_SUBMIT_BATCH,
        &frame::encode_submit_batch(&bad_mix),
    ));
    wire.extend_from_slice(&frame::encode_frame(frame::OP_REQ, b"STATS"));
    conn.write_all(&wire).expect("one burst write");

    let mut dec = FrameDecoder::new_after_preamble(frame::DEFAULT_MAX_FRAME_PAYLOAD);
    let mut frames = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    while frames.len() < 4 {
        let n = conn.read(&mut buf).expect("read");
        assert!(n > 0, "server closed with {} replies", frames.len());
        dec.extend(&buf[..n]);
        while let Some(f) = dec.next_frame().expect("clean frames") {
            frames.push(f);
        }
    }

    assert_eq!(frames[0].opcode, frame::OP_OK);
    assert_eq!(frames[0].payload, b"OK pong");

    assert_eq!(frames[1].opcode, frame::OP_BATCH_ACK);
    let acks = frame::decode_batch_ack(&frames[1].payload).expect("ack payload");
    assert_eq!(acks.len(), 64);
    let mut last_id = 0u64;
    for (i, a) in acks.iter().enumerate() {
        match a {
            BatchOutcome::Ok(id) => {
                assert!(*id > last_id, "ack {i} out of order");
                last_id = *id;
            }
            BatchOutcome::Err(e) => panic!("ack {i} failed: {e}"),
        }
    }

    // The mixed batch keeps per-spec order: Ok, Err(parse), Ok, Ok.
    let acks = frame::decode_batch_ack(&frames[2].payload).expect("ack payload");
    assert_eq!(acks.len(), 4);
    assert!(matches!(acks[0], BatchOutcome::Ok(_)));
    assert!(matches!(acks[1], BatchOutcome::Err(_)));
    assert!(matches!(acks[2], BatchOutcome::Ok(_)));
    assert!(matches!(acks[3], BatchOutcome::Ok(_)));

    assert_eq!(frames[3].opcode, frame::OP_OK);
    let stats = String::from_utf8_lossy(&frames[3].payload).into_owned();
    assert!(stats.starts_with("OK stats\n"), "got: {stats}");
    assert!(stats.ends_with("\n."), "block terminator survives framing");
    handle.shutdown();
}

/// Oversize `points=` / builtin-topology values are refused with a typed
/// error on every wire path — line `SUBMIT`/`FAULT`, `OP_REQ`,
/// `OP_SUBMIT_BATCH` — before anything is enqueued.
#[test]
fn oversize_values_are_refused_at_every_wire_entry() {
    let handle = spawn_server(64);
    let mut client = Client::connect(handle.addr()).expect("connect");
    for refused in [
        client.submit_raw("SCHEDULE topo=ring:1000000000:1").err(),
        client.submit_raw("SWEEP topo=paper24 points=100000").err(),
        client
            .fault_raw("topo=random:100000:3:1:1 kill=0:1")
            .map(|_| 0)
            .err(),
    ] {
        let err = refused.expect("must be refused").to_string();
        assert!(err.starts_with("server: limit-exceeded: "), "got: {err}");
    }

    let mut bin = TcpStream::connect(handle.addr()).expect("binary connect");
    let mut wire = frame::MAGIC.to_vec();
    wire.extend_from_slice(&frame::encode_frame(
        frame::OP_REQ,
        b"SUBMIT SWEEP topo=paper24 points=65",
    ));
    wire.extend_from_slice(&frame::encode_frame(
        frame::OP_SUBMIT_BATCH,
        &frame::encode_submit_batch(&[
            "NOOP".to_string(),
            "SCHEDULE topo=random:5000:3:1:1".to_string(),
        ]),
    ));
    bin.write_all(&wire).expect("write");
    let mut dec = FrameDecoder::new_after_preamble(frame::DEFAULT_MAX_FRAME_PAYLOAD);
    let mut frames = Vec::new();
    let mut buf = [0u8; 4096];
    while frames.len() < 2 {
        let n = bin.read(&mut buf).expect("read");
        assert!(n > 0, "server closed early");
        dec.extend(&buf[..n]);
        while let Some(f) = dec.next_frame().expect("clean frames") {
            frames.push(f);
        }
    }
    assert_eq!(frames[0].opcode, frame::OP_ERR);
    assert!(frames[0]
        .payload
        .starts_with(b"ERR limit-exceeded: points 65 > 64"));
    let acks = frame::decode_batch_ack(&frames[1].payload).expect("ack");
    assert!(matches!(acks[0], BatchOutcome::Ok(_)), "{acks:?}");
    assert!(
        matches!(&acks[1], BatchOutcome::Err(e) if e.starts_with("limit-exceeded: switches")),
        "{acks:?}"
    );

    // Only the batch's NOOP was ever admitted.
    let stats = client.stats().expect("stats");
    let submitted = stats.iter().find(|(k, _)| k == "jobs_submitted");
    assert_eq!(submitted.map(|(_, v)| v.as_str()), Some("1"));
    handle.shutdown();
}

/// One daemon serves a line client and a binary client concurrently;
/// jobs submitted on either protocol are visible to both.
#[test]
fn line_and_binary_clients_coexist() {
    let handle = spawn_server(64);
    let mut line_client = Client::connect(handle.addr()).expect("line connect");

    let mut bin = TcpStream::connect(handle.addr()).expect("binary connect");
    let mut wire = frame::MAGIC.to_vec();
    wire.extend_from_slice(&frame::encode_frame(
        frame::OP_SUBMIT_BATCH,
        &frame::encode_submit_batch(&["NOOP".to_string()]),
    ));
    bin.write_all(&wire).expect("write");
    let mut dec = FrameDecoder::new_after_preamble(frame::DEFAULT_MAX_FRAME_PAYLOAD);
    let mut buf = [0u8; 4096];
    let ack = loop {
        let n = bin.read(&mut buf).expect("read");
        assert!(n > 0);
        dec.extend(&buf[..n]);
        if let Some(f) = dec.next_frame().expect("frame") {
            break f;
        }
    };
    let acks = frame::decode_batch_ack(&ack.payload).expect("ack");
    let BatchOutcome::Ok(binary_job) = acks[0] else {
        panic!("batch submit failed: {acks:?}");
    };

    // The line client sees the binary client's job.
    let state = line_client
        .wait(binary_job, Duration::from_millis(10))
        .expect("wait");
    assert_eq!(state, "done");
    line_client.ping().expect("line protocol still healthy");
    handle.shutdown();
}

/// Regression: a batch submit pipelined with an immediate `SHUTDOWN`
/// (one write, then the client just reads) must deliver the batch ack
/// and the farewell before the socket closes — the drain path flushes
/// pending write buffers instead of dropping them.
#[test]
fn shutdown_drain_flushes_batch_ack_before_close() {
    let handle = spawn_server(4096);
    let mut conn = TcpStream::connect(handle.addr()).expect("connect");

    let specs: Vec<String> = (0..128).map(|_| "NOOP".to_string()).collect();
    let mut wire = frame::MAGIC.to_vec();
    wire.extend_from_slice(&frame::encode_frame(
        frame::OP_SUBMIT_BATCH,
        &frame::encode_submit_batch(&specs),
    ));
    wire.extend_from_slice(&frame::encode_frame(frame::OP_REQ, b"SHUTDOWN"));
    conn.write_all(&wire).expect("single write");

    let mut dec = FrameDecoder::new_after_preamble(frame::DEFAULT_MAX_FRAME_PAYLOAD);
    let mut frames = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        let n = conn.read(&mut buf).expect("read");
        if n == 0 {
            break; // clean close after the drain
        }
        dec.extend(&buf[..n]);
        while let Some(f) = dec.next_frame().expect("clean frames") {
            frames.push(f);
        }
    }
    assert_eq!(frames.len(), 2, "batch ack AND farewell must both arrive");
    assert_eq!(frames[0].opcode, frame::OP_BATCH_ACK);
    let acks = frame::decode_batch_ack(&frames[0].payload).expect("ack");
    assert_eq!(acks.len(), 128);
    assert!(
        acks.iter().all(|a| matches!(a, BatchOutcome::Ok(_))),
        "every pipelined job acked"
    );
    assert_eq!(frames[1].opcode, frame::OP_OK);
    let farewell = String::from_utf8_lossy(&frames[1].payload).into_owned();
    assert!(farewell.starts_with("OK drained"), "got: {farewell}");
    handle.join();
}

/// `Client::submit_batch` on a modern server takes the binary path and
/// preserves per-spec order, including rejections.
#[test]
fn client_submit_batch_uses_binary_path() {
    let handle = spawn_server(4096);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let specs = vec![
        "NOOP".to_string(),
        "NOT A SPEC".to_string(),
        "NOOP".to_string(),
    ];
    let results = client.submit_batch(&specs).expect("batch transport");
    assert_eq!(results.len(), 3);
    assert!(results[0].is_ok());
    assert!(results[1].is_err());
    assert!(results[2].is_ok());
    assert!(results[0].as_ref().unwrap() < results[2].as_ref().unwrap());
    handle.shutdown();
}

/// A topology upload is one request on the wire. Sent line by line on a
/// socket with Nagle's algorithm on, each upload waited ~40 ms for the
/// server's delayed ACK: sixteen of them took over 600 ms.
#[test]
fn topology_uploads_do_not_stall_on_delayed_acks() {
    let handle = spawn_server(16);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let topo = commsched_topology::designed::ring(16, 1);
    let started = std::time::Instant::now();
    for _ in 0..16 {
        let fp = client.add_topology(&topo).expect("upload");
        assert_eq!(fp, topo.fingerprint());
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(200),
        "16 uploads took {took:?}"
    );
    handle.shutdown();
}

/// Line-mode `ADDTOPO <n>` used to trust `n`: a client announcing
/// `usize::MAX` lines and trickling text grew the daemon's memory
/// without bound. The accumulated upload now obeys the same
/// `max_frame_payload` that caps a binary upload.
#[test]
fn oversized_line_mode_upload_is_refused_and_closed() {
    let net = commsched_net::NetConfig {
        max_frame_payload: 4096,
        ..Default::default()
    };
    let handle = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            net,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut wire = format!("ADDTOPO {}\n", usize::MAX).into_bytes();
    // Five 1000-byte lines: the fifth crosses the 4096-byte cap.
    for _ in 0..5 {
        wire.extend_from_slice(&[b'#'; 1000]);
        wire.push(b'\n');
    }
    stream.write_all(&wire).expect("write");
    let mut reply = String::new();
    // `read_to_string` returning proves the server closed the socket.
    stream.read_to_string(&mut reply).expect("read to close");
    assert_eq!(reply, "ERR topology-too-large\n");
    // An upload within the limit still registers.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let topo = commsched_topology::designed::ring(16, 1);
    assert_eq!(
        client.add_topology(&topo).expect("upload"),
        topo.fingerprint()
    );
    handle.shutdown();
}

/// Against a server that predates `CAPS` (answers `ERR`), the client
/// transparently falls back to per-line submits on the existing
/// connection.
#[test]
fn client_submit_batch_falls_back_on_old_servers() {
    // A minimal old-style line server: no CAPS, no binary framing.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut writer = stream.try_clone().expect("clone");
        let reader = BufReader::new(stream);
        let mut next_id = 100u64;
        for line in reader.lines() {
            let line = line.expect("line");
            let reply = if line.starts_with("SUBMIT bad") {
                "ERR queue-full".to_string()
            } else if line.starts_with("SUBMIT") {
                next_id += 1;
                format!("OK {next_id}")
            } else {
                format!("ERR unknown request '{line}'")
            };
            writer.write_all(reply.as_bytes()).expect("write");
            writer.write_all(b"\n").expect("write");
        }
    });

    let mut client = Client::connect(addr).expect("connect");
    let specs = vec!["NOOP".to_string(), "bad".to_string(), "NOOP".to_string()];
    let results = client.submit_batch(&specs).expect("fallback transport");
    assert_eq!(results.len(), 3);
    assert_eq!(results[0], Ok(101));
    assert_eq!(results[1], Err("queue-full".to_string()));
    assert_eq!(results[2], Ok(102));
    drop(client);
    server.join().expect("fake server");
}

/// Every cell of protocol × batch × fsync policy, each against a fresh
/// durable daemon (a shared one would carry earlier cells' jobs),
/// closed-loop on one connection: every job sent is acknowledged, none
/// errors, none is lost in flight. Counts only — how fast a cell runs
/// is `benchmark/`'s business.
#[test]
fn loadgen_ends_clean_in_every_protocol_batch_fsync_cell() {
    for fsync in [FsyncPolicy::Never, FsyncPolicy::OnAck] {
        for (mode, batch) in [
            (WireMode::Line, 1),
            (WireMode::Line, 64),
            (WireMode::Binary, 1),
            (WireMode::Binary, 64),
        ] {
            let cell = format!("{mode:?} batch={batch} fsync={fsync:?}");
            let dir = std::env::temp_dir()
                .join(format!("commsched-loadgen-{}-{cell}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            // A deep queue: acks can outrun two workers' NOOP drain.
            let config = ServiceCoreConfig {
                queue_capacity: 1_000_000,
                ..ServiceCoreConfig::default()
            };
            let options = PersistOptions::new(&dir)
                .fsync(fsync)
                .snapshot_wal_bytes(u64::MAX);
            let (core, _) = ServiceCore::recover(config, options).expect("recover");
            let handle =
                Server::bind_with_core("127.0.0.1:0", 2, Default::default(), core.into(), None)
                    .expect("bind daemon");
            let report = loadgen::run(
                handle.addr(),
                &LoadgenConfig {
                    connections: 1,
                    rate: 0.0,
                    batch,
                    duration: Duration::from_millis(200),
                    mode,
                    max_in_flight: 32,
                    ..LoadgenConfig::default()
                },
            )
            .expect("loadgen run");
            handle.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
            eprintln!("{cell}: {} jobs acked", report.jobs_acked);
            assert_eq!(report.errors, 0, "{cell}: {}", report.to_json());
            assert_eq!(report.in_flight_lost, 0, "{cell}: {}", report.to_json());
            assert!(report.jobs_acked > 0, "{cell}: {}", report.to_json());
            assert_eq!(report.jobs_acked, report.jobs_sent, "{cell}");
        }
    }
}
