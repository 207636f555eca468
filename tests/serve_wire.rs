//! The wire costs what the daemon does. Both ends set `TCP_NODELAY` and
//! send each message — a request, a response line, a batch of `events`
//! lines — with one write. Before that a line and its `\n` left as two
//! segments, and Nagle held the second until the peer's delayed ACK:
//! every round trip took 40–90 ms however little the daemon did.
//!
//! A request line is capped at `MAX_REQUEST_BYTES`: a peer that sends
//! more without a newline is refused and disconnected, and the daemon
//! keeps serving everyone else.

use efficient_tdp::benchgen::CircuitParams;
use efficient_tdp::serve::server::MAX_REQUEST_BYTES;
use efficient_tdp::serve::{Client, DesignRef, Server, ServerConfig, SubmitRequest};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Sends `events --from 0` for `job` on a fresh connection and returns
/// the raw response lines through the terminal `finished` line.
fn raw_events(addr: SocketAddr, job: usize) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("{{\"cmd\":\"events\",\"job\":{job},\"from\":0}}\n").as_bytes())
        .expect("send events request");
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read event line");
        assert!(n > 0, "stream ended before its finished line: {lines:?}");
        assert!(line.ends_with('\n'), "every line is newline-terminated");
        let terminal = line.contains("\"event\":\"finished\"");
        lines.push(line);
        if terminal {
            return lines;
        }
    }
}

#[test]
fn round_trips_cost_the_daemon_not_the_wire_and_streams_arrive_whole() {
    let handle = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(handle.addr(), Duration::from_secs(5)).expect("connect");

    // 100 sequential round trips on one connection. The Nagle floor is
    // 40–90 ms per trip; the daemon answers `metrics` in microseconds.
    let mut rtt_ms: Vec<f64> = (0..100)
        .map(|_| {
            let t = Instant::now();
            client.metrics().expect("metrics");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    rtt_ms.sort_by(f64::total_cmp);
    let median = rtt_ms[rtt_ms.len() / 2];
    assert!(
        median < 20.0,
        "median metrics round trip {median:.2} ms: the wire, not the daemon, sets the pace"
    );

    // The live stream (subscribed while the job runs) and a replay of
    // the finished job arrive complete and byte-identical, however the
    // server batches lines into writes.
    let id = client
        .submit(&SubmitRequest {
            design: DesignRef::Inline(CircuitParams::small("wire", 3)),
            objective: "efficient-tdp".to_string(),
            profile: "quick".to_string(),
            overrides: Vec::new(),
            stride: Some(2),
        })
        .expect("submit");
    let live = raw_events(handle.addr(), id);
    let wait = client.wait(id).expect("wait");
    assert_eq!(
        wait.get("state").and_then(|s| s.as_str()),
        Some("done"),
        "{}",
        wait.encode()
    );
    let replayed = raw_events(handle.addr(), id);
    assert!(live.len() > 3, "a real stream: {live:?}");
    assert!(live[0].contains("\"event\":\"started\""), "{}", live[0]);
    assert_eq!(replayed, live, "replayed stream must equal the live one");

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn an_over_long_request_line_is_refused_and_the_daemon_keeps_serving() {
    let handle = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    // A daemon without the cap would wait for the newline forever.
    let patience = Some(Duration::from_secs(60));
    stream.set_read_timeout(patience).expect("read timeout");
    // 17 MiB with no newline, from a second thread: the daemon stops
    // reading at the cap, so the tail may meet a closed socket.
    let mut writer = stream.try_clone().expect("clone stream");
    let sender = std::thread::spawn(move || {
        let chunk = vec![b'x'; 1 << 20];
        for _ in 0..17 {
            if writer.write_all(&chunk).is_err() {
                break;
            }
        }
    });
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read the refusal");
    assert_eq!(
        reply,
        format!("{{\"ok\":false,\"error\":\"request line exceeds {MAX_REQUEST_BYTES} bytes\"}}\n")
    );
    let mut rest = String::new();
    let closed = reader.read_line(&mut rest).map_or(true, |n| n == 0);
    assert!(
        closed,
        "the connection is closed after the refusal: {rest:?}"
    );
    sender.join().expect("sender thread");

    let mut client = Client::connect(handle.addr(), Duration::from_secs(5)).expect("reconnect");
    let metrics = client.metrics().expect("metrics on a second connection");
    assert_eq!(metrics.get("ok").and_then(|v| v.as_bool()), Some(true));
    client.shutdown().expect("shutdown");
    handle.join();
}
