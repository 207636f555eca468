//! The wire costs what the daemon does. Both ends set `TCP_NODELAY` and
//! send each message — a request, a response line, a batch of `events`
//! lines — with one write. Before that a line and its `\n` left as two
//! segments, and Nagle held the second until the peer's delayed ACK:
//! every round trip took 40–90 ms however little the daemon did.

use efficient_tdp::benchgen::CircuitParams;
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
