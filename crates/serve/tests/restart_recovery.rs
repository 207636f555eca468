//! Crash-consistency of the journaled daemon: SIGKILL a `tdp-serve`
//! mid-flight, restart it on the same journal, and the recovered state
//! must be indistinguishable from never having crashed —
//!
//! * a job that finished before the kill is restored **byte-identically**
//!   (its `wait` response, report included, is the exact pre-crash
//!   response, and its event stream resumes by offset with no gap and no
//!   duplicate);
//! * jobs that were queued or running re-run deterministically, landing
//!   on the same report bits (placement fingerprint included) as an
//!   uninterrupted daemon;
//! * under `--no-replay`, interrupted jobs resolve as failed-by-restart
//!   instead, through the normal finish path;
//! * reports restored from the journal feed the `metrics` congestion
//!   aggregates exactly as the live reports did.
//!
//! The daemon runs as a real subprocess (spawned from
//! `CARGO_BIN_EXE_tdp-serve`) because `Child::kill` — SIGKILL on unix —
//! is the only honest way to test fsync boundaries: no destructors, no
//! flushes, no goodbye.

use benchgen::CircuitParams;
use serve::{Client, DesignRef, Server, ServerConfig, SubmitRequest};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, SystemTime};
use tdp_jsonio::JsonValue;

fn temp_dir(tag: &str) -> PathBuf {
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos();
    let dir = std::env::temp_dir().join(format!("tdp-{tag}-{}-{nanos}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(journal: &Path, extra: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tdp-serve"))
            .args(["--addr", "127.0.0.1:0", "--workers", "1", "--journal"])
            .arg(journal)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn tdp-serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        // "tdp-serve listening on 127.0.0.1:PORT (1 workers, cache 8)"
        let banner = lines.next().expect("banner line").expect("read banner");
        let addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .to_string();
        // Keep draining stdout so the daemon can never block on a full
        // pipe.
        std::thread::spawn(move || lines.for_each(drop));
        Self { child, addr }
    }

    fn connect(&self) -> Client {
        Client::connect(self.addr.as_str(), Duration::from_secs(5)).expect("connect to daemon")
    }

    /// SIGKILL — no shutdown handshake, no flush.
    fn kill(mut self) {
        self.child.kill().expect("kill daemon");
        self.child.wait().expect("reap daemon");
    }

    /// Clean exit after a wire `shutdown`.
    fn wait(mut self) {
        self.child.wait().expect("daemon exit");
    }
}

impl Drop for Daemon {
    /// Kills and reaps a daemon still running — one whose test failed
    /// before `kill` or `wait` — so no `tdp-serve` outlives the test.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The three-job workload both legs run: two quick jobs on a small
/// design plus one heavy enough that the kill always lands before it
/// finishes (so at least one job exercises the re-enqueue path), with a
/// tight stride so every job streams several events.
fn requests() -> Vec<SubmitRequest> {
    let small = CircuitParams::small("rr", 11);
    let heavy = CircuitParams {
        num_comb: 4000,
        ..CircuitParams::small("rr-heavy", 7)
    };
    [
        (small.clone(), "efficient-tdp"),
        (small, "dreamplace4"),
        (heavy, "efficient-tdp"),
    ]
    .into_iter()
    .map(|(params, objective)| SubmitRequest {
        design: DesignRef::Inline(params),
        objective: objective.to_string(),
        profile: "quick".to_string(),
        overrides: Vec::new(),
        stride: Some(2),
    })
    .collect()
}

/// The deterministic slice of a `wait` response's report — everything
/// except wall-clock runtimes and allocator-dependent counters. Values
/// compare as their encoded JSON, so float comparisons are bitwise
/// (equal bits render equal bytes through the one shared formatter).
fn det_fields(doc: &JsonValue) -> Vec<(String, String)> {
    let report = doc
        .get("report")
        .unwrap_or_else(|| panic!("report missing in {}", doc.encode()));
    [
        "status",
        "iterations",
        "legal",
        "cells",
        "nets",
        "placement_hash",
        "congestion_map_hash",
        "tns",
        "wns",
        "hpwl",
        "failing_endpoints",
        "total_endpoints",
        "congestion_peak",
        "congestion_overflow",
        "congestion_overflow_bins",
    ]
    .iter()
    .map(|key| {
        let value = report.get(key).map(JsonValue::encode).unwrap_or_default();
        ((*key).to_string(), value)
    })
    .collect()
}

#[test]
fn killed_daemon_recovers_jobs_reports_and_event_streams() {
    // The uninterrupted baseline: same workload, in-process server, no
    // journal, no crash.
    let (base_waits, base_events) = {
        let handle = Server::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .expect("baseline server");
        let mut client =
            Client::connect(handle.addr(), Duration::from_secs(5)).expect("connect baseline");
        let ids: Vec<usize> = requests()
            .iter()
            .map(|r| client.submit(r).expect("baseline submit"))
            .collect();
        let waits: Vec<JsonValue> = ids
            .iter()
            .map(|&id| client.wait(id).expect("baseline wait"))
            .collect();
        let events: Vec<Vec<String>> = ids
            .iter()
            .map(|&id| {
                let mut lines = Vec::new();
                client
                    .events(id, 0, |e| lines.push(e.encode()))
                    .expect("baseline events");
                lines
            })
            .collect();
        client.shutdown().expect("baseline shutdown");
        handle.join();
        (waits, events)
    };

    // The crash leg: journaled subprocess daemon. Job 0 is submitted
    // alone and awaited so its finished record is journaled; jobs 1 and
    // 2 are submitted right before the kill, so the kill lands while
    // they are still queued or barely running (the submit round-trips
    // are a few milliseconds; the jobs take orders of magnitude more).
    // Their submit records are durable — the daemon fsyncs the journal
    // before acknowledging a submit.
    let dir = temp_dir("restart");
    let daemon = Daemon::spawn(&dir, &[]);
    let mut client = daemon.connect();
    let reqs = requests();
    client.submit(&reqs[0]).expect("submit job 0");
    let wait0_before = client.wait(0).expect("wait job 0").encode();
    let mut events0_before = Vec::new();
    client
        .events(0, 0, |e| events0_before.push(e.encode()))
        .expect("events job 0");
    client.submit(&reqs[1]).expect("submit job 1");
    client.submit(&reqs[2]).expect("submit job 2");
    daemon.kill();
    drop(client);

    // Restart on the same journal.
    let daemon = Daemon::spawn(&dir, &[]);
    let mut client = daemon.connect();

    // The finished job is restored bitwise: the exact pre-crash bytes.
    assert_eq!(
        client.wait(0).expect("wait restored job").encode(),
        wait0_before,
        "restored report must be byte-identical to the pre-crash response"
    );

    // Interrupted jobs re-ran deterministically to the baseline's bits.
    for id in [1usize, 2] {
        let doc = client.wait(id).expect("wait re-run job");
        assert_eq!(
            doc.get("state").and_then(JsonValue::as_str),
            Some("done"),
            "{}",
            doc.encode()
        );
        assert_eq!(
            det_fields(&doc),
            det_fields(&base_waits[id]),
            "job {id} diverged from the uninterrupted run"
        );
    }

    // `events --from` resumes across the restart: no gap, no duplicate.
    let k = events0_before.len() / 2;
    let mut resumed = Vec::new();
    client
        .events(0, k, |e| resumed.push(e.encode()))
        .expect("resume events");
    assert_eq!(resumed, events0_before[k..], "resumed suffix must match");
    // From past the terminal event: one explicit `end` line.
    let mut tail = Vec::new();
    let end = client
        .events(0, events0_before.len(), |e| tail.push(e.encode()))
        .expect("past-the-end events");
    assert_eq!(tail.len(), 1, "{tail:?}");
    assert_eq!(end.get("event").and_then(JsonValue::as_str), Some("end"));
    assert_eq!(end.get("state").and_then(JsonValue::as_str), Some("done"));

    // Re-run jobs regenerated their streams line for line (the terminal
    // line embeds the report, whose wall-clock fields differ).
    for id in [1usize, 2] {
        let mut lines = Vec::new();
        client
            .events(id, 0, |e| lines.push(e.encode()))
            .expect("re-run events");
        let base = &base_events[id];
        assert_eq!(lines.len(), base.len(), "job {id} event count");
        assert_eq!(
            lines[..lines.len() - 1],
            base[..base.len() - 1],
            "job {id} events diverged"
        );
    }

    // Recovery accounting: all three jobs recovered, the journal both
    // replayed and kept appending, and only the re-runs counted `done`.
    let metrics = client.metrics().expect("metrics");
    let get = |key: &str| {
        metrics
            .get(key)
            .and_then(JsonValue::as_usize)
            .unwrap_or_else(|| panic!("metric {key} missing in {}", metrics.encode()))
    };
    assert_eq!(get("jobs_recovered"), 3);
    assert_eq!(get("jobs"), 3);
    // Job 0 was restored (it had finished and journaled before the
    // kill) and must not re-count `done`. Job 1 is small enough that it
    // *may* sneak in a finished record before the kill (then it is
    // restored, not re-run); job 2 cannot — it runs after job 1 on the
    // single worker and takes far longer than the kill window — so at
    // least one job always re-ran and counted.
    let done = get("done");
    assert!(
        (1..=2).contains(&done),
        "done = {done}: restored jobs must not re-count done, re-runs must"
    );
    assert!(get("journal_replays") > 0);
    assert!(get("journal_appends") > 0, "re-runs must journal again");

    // And the same counters scrape in Prometheus exposition format.
    let text = client.metrics_text().expect("metrics_text");
    assert!(
        text.contains("# TYPE tdp_serve_journal_appends_total counter"),
        "{text}"
    );
    assert!(
        text.lines()
            .any(|l| l == "tdp_serve_jobs_recovered_total 3"),
        "{text}"
    );

    client.shutdown().expect("shutdown");
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restored_reports_feed_the_congestion_aggregates() {
    let dir = temp_dir("aggregates");
    let aggregates = |client: &mut Client| {
        let metrics = client.metrics().expect("metrics");
        [
            "congestion_jobs",
            "congestion_overflow_sum",
            "congestion_peak_max",
        ]
        .map(|key| metrics.get(key).map(JsonValue::encode).unwrap_or_default())
    };
    let daemon = Daemon::spawn(&dir, &[]);
    let mut client = daemon.connect();
    // The small design leaves no overflow; sb18 does, so both sums move.
    let mut reqs = requests();
    reqs[1].design = DesignRef::Case("sb18".to_string());
    for req in &reqs[..2] {
        let id = client.submit(req).expect("submit");
        client.wait(id).expect("wait");
    }
    let before = aggregates(&mut client);
    assert_eq!(before[0], "2", "every job has congestion");
    assert_ne!(before[1], "0", "some job overflows");
    client.shutdown().expect("shutdown");
    daemon.wait();

    // Restart on the same journal: both jobs come back from their
    // `finished` records alone.
    let daemon = Daemon::spawn(&dir, &[]);
    let mut client = daemon.connect();
    assert_eq!(aggregates(&mut client), before);
    client.shutdown().expect("shutdown");
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_replay_resolves_interrupted_jobs_as_failed() {
    let dir = temp_dir("noreplay");
    let daemon = Daemon::spawn(&dir, &[]);
    let mut client = daemon.connect();
    // Big enough that the kill always lands before the job finishes.
    let req = SubmitRequest {
        design: DesignRef::Inline(CircuitParams {
            num_comb: 4000,
            ..CircuitParams::small("rr-big", 3)
        }),
        objective: "efficient-tdp".to_string(),
        profile: "paper".to_string(),
        overrides: Vec::new(),
        stride: None,
    };
    let id = client.submit(&req).expect("submit");
    daemon.kill();
    drop(client);

    let daemon = Daemon::spawn(&dir, &["--no-replay"]);
    let mut client = daemon.connect();
    let doc = client.wait(id).expect("wait");
    assert_eq!(
        doc.get("state").and_then(JsonValue::as_str),
        Some("failed"),
        "{}",
        doc.encode()
    );
    let error = doc
        .get("report")
        .and_then(|r| r.get("error"))
        .and_then(JsonValue::as_str)
        .unwrap_or_default();
    assert!(error.contains("restart"), "{}", doc.encode());

    let metrics = client.metrics().expect("metrics");
    let get = |key: &str| metrics.get(key).and_then(JsonValue::as_usize);
    assert_eq!(get("jobs_recovered"), Some(1));
    assert_eq!(get("failed"), Some(1));

    client.shutdown().expect("shutdown");
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}
