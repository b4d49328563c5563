//! Client retry behaviour against a fake server: `ERR busy` shedding
//! and refused connections back off and retry; other errors fail fast.

use commsched_service::{Client, ClientError, RetryPolicy};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// A retry policy quick enough for tests but still exercising the
/// exponential ladder.
fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(20),
        seed: 0x5eed,
    }
}

fn read_request(stream: &TcpStream) -> String {
    let mut line = String::new();
    BufReader::new(stream.try_clone().expect("clone"))
        .read_line(&mut line)
        .expect("read request");
    line.trim_end().to_string()
}

#[test]
fn busy_shedding_is_retried_on_a_fresh_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    const SHED: usize = 2;

    let server = std::thread::spawn(move || {
        // Shed the first SHED conversations the way the real front end
        // does at its connection cap: answer busy, close the socket.
        for _ in 0..SHED {
            let (mut stream, _) = listener.accept().expect("accept");
            let _ = read_request(&stream);
            stream
                .write_all(b"ERR busy max-connections\n")
                .expect("shed");
        }
        // The next connection is served for real.
        let (mut stream, _) = listener.accept().expect("accept");
        assert_eq!(read_request(&stream), "PING");
        stream.write_all(b"OK pong\n").expect("pong");
        // Hold the socket open until the client is done with it.
        let _ = read_request(&stream);
    });

    let mut client = Client::connect_with_retry(&addr, fast_policy()).expect("connect");
    client.ping().expect("ping should survive busy shedding");
    assert_eq!(client.retries_used(), SHED as u64);
    drop(client);
    server.join().expect("server thread");
}

/// An upload is as patient as any other verb: shed twice, the third
/// connection gets the whole upload again and answers it.
#[test]
fn a_shed_upload_is_retried_whole_on_a_fresh_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    const SHED: usize = 2;
    let topo = commsched_topology::designed::try_ring(4, 1).expect("ring");
    let text = commsched_topology::to_text(&topo);
    let fingerprint = format!("{:016x}", topo.fingerprint());

    let server = {
        let (text, fingerprint) = (text.clone(), fingerprint.clone());
        std::thread::spawn(move || {
            for _ in 0..SHED {
                let (mut stream, _) = listener.accept().expect("accept");
                let _ = read_request(&stream);
                stream
                    .write_all(b"ERR busy max-connections\n")
                    .expect("shed");
            }
            let (mut stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut head = String::new();
            reader.read_line(&mut head).expect("head");
            assert_eq!(head, format!("ADDTOPO {}\n", text.lines().count()));
            let mut body = String::new();
            for _ in 0..text.lines().count() {
                reader.read_line(&mut body).expect("body line");
            }
            assert_eq!(body, text, "the retried upload carries its body again");
            stream
                .write_all(format!("OK {fingerprint}\n").as_bytes())
                .expect("ack");
            let _ = read_request(&stream);
        })
    };

    let mut client = Client::connect_with_retry(&addr, fast_policy()).expect("connect");
    let fp = client
        .add_topology(&topo)
        .expect("upload should survive busy shedding");
    assert_eq!(format!("{fp:016x}"), fingerprint);
    assert_eq!(client.retries_used(), SHED as u64);
    drop(client);
    server.join().expect("server thread");
}

#[test]
fn refused_connections_are_retried_until_the_listener_appears() {
    // Reserve a port, release it, and only start listening after a
    // delay — exactly what a promoting follower looks like.
    let placeholder = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = placeholder.local_addr().expect("addr").to_string();
    drop(placeholder);

    let server_addr = addr.clone();
    let server = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        let listener = TcpListener::bind(&server_addr).expect("late bind");
        let (mut stream, _) = listener.accept().expect("accept");
        assert_eq!(read_request(&stream), "PING");
        stream.write_all(b"OK pong\n").expect("pong");
        let _ = read_request(&stream);
    });

    let mut client = Client::connect_with_retry(&addr, fast_policy()).expect("connect");
    client.ping().expect("ping");
    assert!(
        client.retries_used() >= 1,
        "dialing before the listener exists must have cost retries"
    );
    drop(client);
    server.join().expect("server thread");
}

#[test]
fn non_retryable_errors_fail_fast() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();

    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let _ = read_request(&stream);
        stream.write_all(b"ERR no-such-job\n").expect("err");
        let _ = read_request(&stream);
    });

    let mut client = Client::connect_with_retry(&addr, fast_policy()).expect("connect");
    match client.status(42) {
        Err(ClientError::Server(m)) => assert_eq!(m, "no-such-job"),
        other => panic!("expected a server error, got {other:?}"),
    }
    assert_eq!(client.retries_used(), 0, "plain errors must not retry");
    drop(client);
    server.join().expect("server thread");
}

#[test]
fn backoff_is_exponential_jittered_and_capped() {
    let policy = RetryPolicy {
        max_attempts: 6,
        base: Duration::from_millis(20),
        cap: Duration::from_secs(1),
        seed: 7,
    };
    // Each step lands in [step/2, step] for step = base << (attempt-1).
    for attempt in 1..=5u32 {
        let step = policy.base * 2u32.pow(attempt - 1);
        let slept = policy.backoff(attempt);
        assert!(
            slept >= step / 2 && slept <= step,
            "attempt {attempt}: {slept:?} outside [{:?}, {step:?}]",
            step / 2
        );
    }
    // Deep attempts are capped.
    assert!(policy.backoff(30) <= policy.cap);
    // Jitter is deterministic per (seed, attempt) and varies with both.
    assert_eq!(policy.backoff(3), policy.backoff(3));
    let other_seed = RetryPolicy { seed: 8, ..policy };
    assert_ne!(policy.backoff(3), other_seed.backoff(3));
    // `none()` means a single attempt.
    assert_eq!(RetryPolicy::none().max_attempts, 1);
}
