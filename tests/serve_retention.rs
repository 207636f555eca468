//! `--retain` bounds a resident daemon's memory. Before this cap the
//! job table grew one `JobState` — report, event log and all — per
//! submit, forever. With `retain: K` and a journal, only the K most
//! recent finished jobs stay resident; older ones are compacted to a
//! tombstone and every later read (`status`, `wait`, `events`, `cancel`)
//! is re-served from the journal **byte-identically** to the live
//! responses.
//!
//! Compacted reads touch only the job's byte range of the journal; a
//! restart rebuilds those ranges by replay and must serve the same bytes.
//! Without the journal file, every compacted read is a typed error.
//!
//! Also covered: connection-handler threads are reaped as their
//! connections close (the acceptor previously leaked one `JoinHandle`
//! per connection for the daemon's lifetime), and `retain` without a
//! journal is refused at startup.

use efficient_tdp::benchgen::CircuitParams;
use efficient_tdp::serve::{Client, ClientError, DesignRef, Server, ServerConfig, SubmitRequest};
use std::time::{Duration, SystemTime};
use tdp_jsonio::JsonValue;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos();
    std::env::temp_dir().join(format!("tdp-{tag}-{}-{nanos}", std::process::id()))
}

fn metric(doc: &JsonValue, key: &str) -> usize {
    doc.get(key)
        .and_then(JsonValue::as_usize)
        .unwrap_or_else(|| panic!("metric {key} missing in {}", doc.encode()))
}

#[test]
fn retain_compacts_old_jobs_and_serves_them_from_the_journal() {
    const N: usize = 6;
    const RETAIN: usize = 2;
    let dir = temp_dir("retain");
    let handle = Server::start(ServerConfig {
        workers: 1,
        journal: Some(dir.clone()),
        retain: RETAIN,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(handle.addr(), Duration::from_secs(5)).expect("connect");

    // N ≫ retain jobs, submitted and awaited one at a time so each
    // job's live responses can be captured before compaction takes it.
    let mut live_waits: Vec<String> = Vec::new();
    let mut live_statuses: Vec<String> = Vec::new();
    let mut live_events: Vec<Vec<String>> = Vec::new();
    for i in 0..N {
        let req = SubmitRequest {
            design: DesignRef::Inline(CircuitParams::small("ret", 5)),
            objective: if i % 2 == 0 {
                "efficient-tdp"
            } else {
                "dreamplace4"
            }
            .to_string(),
            profile: "quick".to_string(),
            overrides: Vec::new(),
            stride: Some(2),
        };
        let id = client.submit(&req).expect("submit");
        assert_eq!(id, i, "sequential ids");
        live_waits.push(client.wait(id).expect("wait").encode());
        live_statuses.push(client.status(id).expect("status").encode());
        let mut lines = Vec::new();
        client
            .events(id, 0, |e| lines.push(e.encode()))
            .expect("events");
        live_events.push(lines);
    }

    // Residency is bounded: exactly the retained window's event lines
    // remain in memory, regardless of how many jobs have been served.
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metric(&metrics, "jobs"), N);
    assert_eq!(metric(&metrics, "done"), N);
    assert_eq!(metric(&metrics, "jobs_compacted"), N - RETAIN);
    let resident = metric(&metrics, "events_resident");
    let retained: usize = live_events[N - RETAIN..].iter().map(Vec::len).sum();
    let total: usize = live_events.iter().map(Vec::len).sum();
    assert_eq!(
        resident, retained,
        "resident lines must be exactly the retained window's"
    );
    assert!(resident < total, "compaction must shed older jobs' lines");

    // Compacted jobs re-serve from the journal, byte for byte.
    for id in 0..N - RETAIN {
        assert_eq!(
            client.status(id).expect("compacted status").encode(),
            live_statuses[id],
            "job {id}: compacted status response must match the live one"
        );
        assert_eq!(
            client.wait(id).expect("compacted wait").encode(),
            live_waits[id],
            "job {id}: compacted wait response must match the live one"
        );
        let mut lines = Vec::new();
        client
            .events(id, 0, |e| lines.push(e.encode()))
            .expect("compacted events");
        assert_eq!(lines, live_events[id], "job {id}: compacted events");
        // Past-the-end asks get the same explicit terminator a live
        // finished job produces.
        let mut tail = Vec::new();
        let end = client
            .events(id, live_events[id].len(), |e| tail.push(e.encode()))
            .expect("past-the-end events");
        assert_eq!(tail.len(), 1, "{tail:?}");
        assert_eq!(end.get("event").and_then(JsonValue::as_str), Some("end"));
        assert_eq!(end.get("state").and_then(JsonValue::as_str), Some("done"));
        // Cancel stays the finished-job no-op.
        let ack = client.cancel(id).expect("cancel compacted");
        assert_eq!(ack.get("job").and_then(JsonValue::as_usize), Some(id));
    }

    // Handler reaping: close a connection, then poll (each probe
    // connection triggers an acceptor sweep) until its thread is joined.
    drop(Client::connect(handle.addr(), Duration::from_secs(5)).expect("extra connection"));
    let mut reaped = 0;
    for _ in 0..200 {
        let mut probe = Client::connect(handle.addr(), Duration::from_secs(5)).expect("probe");
        reaped = metric(&probe.metrics().expect("probe metrics"), "conns_reaped");
        if reaped > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(reaped > 0, "closed connection handlers must be reaped");

    client.shutdown().expect("shutdown");
    handle.join();

    // Restart on the same journal: replay rebuilds every job's byte
    // range and compacts the same jobs again, and their reads stay
    // byte-identical to the live responses captured before.
    let handle = Server::start(ServerConfig {
        workers: 1,
        journal: Some(dir.clone()),
        retain: RETAIN,
        ..ServerConfig::default()
    })
    .expect("server restarts on its journal");
    let mut client = Client::connect(handle.addr(), Duration::from_secs(5)).expect("reconnect");
    let metrics = client.metrics().expect("metrics after restart");
    assert_eq!(metric(&metrics, "jobs_recovered"), N);
    assert_eq!(metric(&metrics, "jobs_compacted"), N - RETAIN);
    for id in 0..N {
        assert_eq!(
            client.status(id).expect("status after restart").encode(),
            live_statuses[id],
            "job {id}: status after restart"
        );
        assert_eq!(
            client.wait(id).expect("wait after restart").encode(),
            live_waits[id],
            "job {id}: wait after restart"
        );
        let mut lines = Vec::new();
        client
            .events(id, 0, |e| lines.push(e.encode()))
            .expect("events after restart");
        assert_eq!(lines, live_events[id], "job {id}: events after restart");
    }

    // An unreadable journal fails every compacted read with the same
    // typed error — `events` included, which must not pass an empty
    // replay off as a complete stream.
    std::fs::remove_file(dir.join("journal.jsonl")).expect("remove the journal");
    let mut ignored = |_: &JsonValue| {};
    for (verb, reply) in [
        ("status", client.status(0)),
        ("wait", client.wait(0)),
        ("events", client.events(0, 0, &mut ignored)),
    ] {
        match reply {
            Err(ClientError::Server(msg)) => assert!(
                msg.starts_with("journal read failed for job 0"),
                "{verb}: {msg}"
            ),
            other => panic!("{verb} on a compacted job without its journal: {other:?}"),
        }
    }
    client.shutdown().expect("shutdown after restart");
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retain_without_journal_is_refused() {
    let Err(err) = Server::start(ServerConfig {
        retain: 2,
        ..ServerConfig::default()
    }) else {
        panic!("retain without journal must be refused");
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}
