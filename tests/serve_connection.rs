//! `Connection::serve_line` is the daemon's only request path: the TCP
//! handler feeds it the lines it reads, and an in-process caller can
//! feed it lines and collect the replies in a `Vec<u8>`. One script, run
//! once each way against one journaled daemon (`retain = 2`), must get
//! the same reply bytes back.
//!
//! The passes read the same jobs: the script's `status`/`wait`/`events`/
//! `cancel` lines name jobs 0–2, which the first pass submits. By the
//! second pass job 0 has been compacted, so its reads come from the
//! journal and must still match the first pass's, live or compacted.
//! The masks are exactly what a second run cannot repeat: a submit's
//! fresh job id, an ECO session's wall-clock nanoseconds, and in
//! `metrics`/`metrics_text` the uptime, the latency histograms and every
//! value the first pass itself moved.

use efficient_tdp::serve::{Connection, Server, ServerConfig};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::SystemTime;
use tdp_jsonio::JsonValue;

const DESIGN: &str = r#""params":{"name":"conn","seed":5}"#;

/// The `metrics` field names in order: a format clients parse, pinned
/// so that no refactor of the renderers reorders or renames a field.
const METRICS_FIELDS: [&str; 40] = [
    "ok",
    "cmd",
    "uptime_s",
    "workers",
    "requests",
    "submits",
    "jobs",
    "queued",
    "running",
    "done",
    "canceled",
    "failed",
    "cache_entries",
    "cache_capacity",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "event_streams",
    "graph_builds",
    "rc_refreshes",
    "rc_nets_refreshed",
    "rc_scratch_reuses",
    "eco_opens",
    "eco_applies",
    "eco_queries",
    "eco_reverts",
    "eco_cells_moved",
    "eco_dirty_nets",
    "eco_incremental_ns",
    "eco_full_ns",
    "events_resident",
    "journal_appends",
    "journal_replays",
    "jobs_recovered",
    "jobs_compacted",
    "conns_reaped",
    "request_seconds",
    "congestion_jobs",
    "congestion_overflow_sum",
    "congestion_peak_max",
];

/// The `metrics_text` `# TYPE` lines in order, pinned the same way.
const METRICS_TEXT_TYPES: [&str; 35] = [
    "tdp_serve_uptime_seconds gauge",
    "tdp_serve_workers gauge",
    "tdp_serve_jobs gauge",
    "tdp_serve_jobs_queued gauge",
    "tdp_serve_jobs_running gauge",
    "tdp_serve_cache_entries gauge",
    "tdp_serve_cache_capacity gauge",
    "tdp_serve_events_resident gauge",
    "tdp_serve_requests_total counter",
    "tdp_serve_submits_total counter",
    "tdp_serve_jobs_done_total counter",
    "tdp_serve_jobs_canceled_total counter",
    "tdp_serve_jobs_failed_total counter",
    "tdp_serve_cache_hits_total counter",
    "tdp_serve_cache_misses_total counter",
    "tdp_serve_cache_evictions_total counter",
    "tdp_serve_event_streams_total counter",
    "tdp_serve_graph_builds_total counter",
    "tdp_serve_rc_refreshes_total counter",
    "tdp_serve_rc_nets_refreshed_total counter",
    "tdp_serve_rc_scratch_reuses_total counter",
    "tdp_serve_eco_opens_total counter",
    "tdp_serve_eco_applies_total counter",
    "tdp_serve_eco_queries_total counter",
    "tdp_serve_eco_reverts_total counter",
    "tdp_serve_eco_cells_moved_total counter",
    "tdp_serve_eco_dirty_nets_total counter",
    "tdp_serve_eco_incremental_ns_total counter",
    "tdp_serve_eco_full_ns_total counter",
    "tdp_serve_journal_appends_total counter",
    "tdp_serve_journal_replays_total counter",
    "tdp_serve_jobs_recovered_total counter",
    "tdp_serve_jobs_compacted_total counter",
    "tdp_serve_conns_reaped_total counter",
    "tdp_serve_request_seconds histogram",
];

fn submit(objective: &str) -> String {
    format!(r#"{{"cmd":"submit",{DESIGN},"objective":"{objective}","profile":"quick","stride":2}}"#)
}

/// Every verb but `shutdown` and `trace_dump`, including error replies.
fn script() -> Vec<String> {
    let mut lines = vec![
        submit("efficient-tdp"),
        r#"{"cmd":"wait","job":0}"#.to_string(),
        r#"{"cmd":"status","job":0}"#.to_string(),
        r#"{"cmd":"events","job":0,"from":0}"#.to_string(),
        r#"{"cmd":"events","job":0,"from":3}"#.to_string(),
        r#"{"cmd":"cancel","job":0}"#.to_string(),
        format!(r#"{{"cmd":"eco_open",{DESIGN}}}"#),
        r#"{"cmd":"eco_apply","deltas":[{"op":"move","cells":[[40,10.5,20.0],[41,30,9]]}]}"#
            .to_string(),
        r#"{"cmd":"eco_query","mode":"incremental","paths":2}"#.to_string(),
        r#"{"cmd":"eco_query","mode":"full","paths":2}"#.to_string(),
        r#"{"cmd":"eco_revert","to":0}"#.to_string(),
        r#"{"cmd":"eco_query","paths":2}"#.to_string(),
        r#"{"cmd":"eco_close"}"#.to_string(),
        submit("dreamplace4"),
        submit("efficient-tdp"),
        r#"{"cmd":"wait","job":1}"#.to_string(),
        r#"{"cmd":"wait","job":2}"#.to_string(),
    ];
    // Job 0 is compacted once job 2 finishes: a compacted status, wait,
    // cancel, events suffix and past-the-end `events`.
    for verb in ["status", "wait", "cancel"] {
        lines.push(format!(r#"{{"cmd":"{verb}","job":0}}"#));
    }
    lines.push(r#"{"cmd":"events","job":0,"from":3}"#.to_string());
    lines.push(r#"{"cmd":"events","job":0,"from":1000}"#.to_string());
    lines.push(r#"{"cmd":"status","job":99}"#.to_string());
    lines.push(r#"{"cmd":"eco_close"}"#.to_string());
    lines.push(r#"{"cmd":"warp"}"#.to_string());
    lines.push("{not json".to_string());
    lines
}

fn cmd_of(line: &str) -> String {
    tdp_jsonio::parse(line)
        .ok()
        .and_then(|v| v.get("cmd").and_then(JsonValue::as_str).map(str::to_string))
        .unwrap_or_default()
}

/// Runs one line through a socket-free connection; the reply bytes.
fn local(conn: &mut Connection, line: &str) -> String {
    let mut out = Vec::new();
    conn.serve_line(line, &mut out)
        .expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("replies are UTF-8")
}

/// The same over TCP: every reply line up to the request's last (an
/// `events` stream ends at its `finished` or `end` line).
struct Wire {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Wire {
    fn request(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
        let mut reply = String::new();
        loop {
            let start = reply.len();
            let n = self.reader.read_line(&mut reply).expect("read reply");
            assert!(n > 0, "connection closed mid-reply after {reply:?}");
            let last = &reply[start..];
            let streaming = last.starts_with("{\"event\":")
                && !last.contains("\"event\":\"finished\"")
                && !last.contains("\"event\":\"end\"");
            if !streaming {
                return reply;
            }
        }
    }
}

/// The `"job"` ids that a pass's submit replies returned.
fn submitted(pass: &[(String, String)]) -> Vec<usize> {
    pass.iter()
        .filter(|(line, _)| cmd_of(line) == "submit")
        .map(|(_, reply)| {
            let doc = tdp_jsonio::parse(reply.trim_end()).expect("submit reply parses");
            doc.get("job")
                .and_then(JsonValue::as_usize)
                .unwrap_or_else(|| panic!("submit refused: {reply}"))
        })
        .collect()
}

/// Replaces the values of `keys` in a one-line JSON reply with `"#"`.
fn mask(reply: &str, keys: &[String]) -> String {
    let JsonValue::Obj(members) = tdp_jsonio::parse(reply.trim_end()).expect("reply parses") else {
        panic!("reply is not an object: {reply}");
    };
    let members = members.into_iter().map(|(k, v)| {
        let v = if keys.contains(&k) {
            JsonValue::Str("#".into())
        } else {
            v
        };
        (k, v)
    });
    JsonValue::Obj(members.collect()).encode()
}

/// The samples of a Prometheus scrape (histogram series included), by
/// their full name and labels.
fn samples(text: &str) -> Vec<(String, String)> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (name, value) = l.rsplit_once(' ').expect("sample line");
            (name.to_string(), value.to_string())
        })
        .collect()
}

/// `metrics_text`'s scrape body with the values of `moved` samples, the
/// uptime and every latency series replaced by `#`.
fn mask_text(reply: &str, moved: &[String]) -> String {
    let doc = tdp_jsonio::parse(reply.trim_end()).expect("reply parses");
    let text = doc.get("text").and_then(JsonValue::as_str).expect("text");
    let mut out = String::new();
    for line in text.lines() {
        let name = line.rsplit_once(' ').map_or(line, |(n, _)| n);
        let masked = !line.starts_with('#')
            && (moved.iter().any(|m| m == name)
                || name.starts_with("tdp_serve_uptime_seconds")
                || name.starts_with("tdp_serve_request_seconds"));
        if masked {
            out.push_str(name);
            out.push_str(" #\n");
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos();
    std::env::temp_dir().join(format!("tdp-{tag}-{}-{nanos}", std::process::id()))
}

#[test]
fn socket_free_connection_and_tcp_reply_the_same_bytes() {
    let dir = temp_dir("conn");
    let handle = Server::start(ServerConfig {
        workers: 1,
        journal: Some(dir.clone()),
        retain: 2,
        ..ServerConfig::default()
    })
    .expect("server starts");

    // Warm the cache so both passes' first touch of the design is a hit,
    // and snapshot the counters the first pass will move.
    let mut setup = Connection::new(&handle);
    let opened = local(&mut setup, &format!(r#"{{"cmd":"eco_open",{DESIGN}}}"#));
    assert!(opened.contains("\"cached\":false"), "{opened}");
    local(&mut setup, r#"{"cmd":"eco_close"}"#);
    let before = local(&mut setup, r#"{"cmd":"metrics"}"#);
    let before_text = local(&mut setup, r#"{"cmd":"metrics_text"}"#);
    drop(setup);

    let script = script();
    let drain_and_read = |run: &mut dyn FnMut(&str) -> String, pass: &[(String, String)]| {
        for id in submitted(pass) {
            run(&format!(r#"{{"cmd":"wait","job":{id}}}"#));
        }
        (
            run(r#"{"cmd":"metrics"}"#),
            run(r#"{"cmd":"metrics_text"}"#),
        )
    };

    let mut conn = Connection::new(&handle);
    let mut run_local = |line: &str| local(&mut conn, line);
    let first: Vec<(String, String)> = script
        .iter()
        .map(|line| (line.clone(), run_local(line)))
        .collect();
    let (metrics_1, text_1) = drain_and_read(&mut run_local, &first);
    assert_eq!(submitted(&first), vec![0, 1, 2]);

    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut wire = Wire {
        reader: BufReader::new(stream.try_clone().expect("clone stream")),
        writer: stream,
    };
    let mut run_tcp = |line: &str| wire.request(line);
    let second: Vec<(String, String)> = script
        .iter()
        .map(|line| (line.clone(), run_tcp(line)))
        .collect();
    let (metrics_2, text_2) = drain_and_read(&mut run_tcp, &second);
    assert_eq!(submitted(&second), vec![3, 4, 5]);

    for ((line, a), (_, b)) in first.iter().zip(&second) {
        let (a, b) = match cmd_of(line).as_str() {
            "submit" => {
                let keys = ["job".to_string()];
                (mask(a, &keys), mask(b, &keys))
            }
            "eco_close" if a.contains("\"ok\":true") => {
                let keys = ["incremental_ns".to_string(), "full_ns".to_string()];
                (mask(a, &keys), mask(b, &keys))
            }
            _ => (a.clone(), b.clone()),
        };
        assert_eq!(a, b, "reply to {line}");
    }
    // Every verb in the script answered as it should, once per pass.
    let ok = first
        .iter()
        .filter(|(_, r)| r.starts_with("{\"ok\":true"))
        .count();
    let refused = first
        .iter()
        .filter(|(_, r)| r.starts_with("{\"ok\":false"))
        .count();
    let streams = first
        .iter()
        .filter(|(_, r)| r.starts_with("{\"event\":"))
        .count();
    assert_eq!((ok, refused, streams), (18, 4, 4), "{first:#?}");
    assert!(first[4].1.lines().count() > 3, "a real event stream");
    assert!(first[8].1.contains("\"query_hash\""), "{}", first[8].1);

    // `metrics`: one field-name sequence; equal values wherever the
    // first pass moved nothing.
    let doc = |reply: &str| tdp_jsonio::parse(reply.trim_end()).expect("metrics parse");
    let names = |reply: &str| -> Vec<String> {
        let JsonValue::Obj(members) = doc(reply) else {
            panic!("metrics is an object")
        };
        members.into_iter().map(|(k, _)| k).collect()
    };
    assert_eq!(names(&metrics_1), METRICS_FIELDS);
    assert_eq!(names(&metrics_2), METRICS_FIELDS);
    let mut moved: Vec<String> = names(&before)
        .into_iter()
        .filter(|k| doc(&before).get(k) != doc(&metrics_1).get(k))
        .collect();
    moved.extend(["uptime_s".to_string(), "request_seconds".to_string()]);
    assert!(!moved.contains(&"workers".to_string()), "{moved:?}");
    assert_eq!(mask(&metrics_1, &moved), mask(&metrics_2, &moved));

    // `metrics_text`: one `# TYPE` sequence, same rule for the values.
    let text = |reply: &str| {
        let doc = doc(reply);
        doc.get("text")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string()
    };
    for reply in [&text_1, &text_2] {
        let types: Vec<String> = text(reply)
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE ").map(str::to_string))
            .collect();
        assert_eq!(types, METRICS_TEXT_TYPES);
    }
    let old: HashMap<String, String> = samples(&text(&before_text)).into_iter().collect();
    let moved_text: Vec<String> = samples(&text(&text_1))
        .into_iter()
        .filter(|(name, value)| old.get(name) != Some(value))
        .map(|(name, _)| name)
        .collect();
    assert_eq!(
        mask_text(&text_1, &moved_text),
        mask_text(&text_2, &moved_text)
    );

    drop(wire);
    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Two servers in one process each count only their own work: a job and
/// an ECO session on B move B's build and RC counters and leave A's at
/// zero.
#[test]
fn each_server_counts_only_its_own_builds_and_rc_work() {
    let a = Server::start(ServerConfig::default()).expect("server A starts");
    let b = Server::start(ServerConfig::default()).expect("server B starts");
    let mut on_a = Connection::new(&a);
    let mut on_b = Connection::new(&b);
    let reply = |conn: &mut Connection, line: &str| {
        let text = local(conn, line);
        let doc = tdp_jsonio::parse(text.trim_end()).expect("reply parses");
        assert_eq!(doc.get("ok"), Some(&JsonValue::Bool(true)), "{text}");
        doc
    };
    let count = |doc: &JsonValue, key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_usize)
            .unwrap_or_else(|| panic!("no {key} in {}", doc.encode()))
    };

    reply(&mut on_b, &submit("efficient-tdp"));
    let done = reply(&mut on_b, r#"{"cmd":"wait","job":0}"#);
    let report = done.get("report").expect("finished job has a report");
    let job_refreshes = count(report, "rc_refreshes");
    assert!(job_refreshes > 0, "{}", done.encode());
    let after_job = reply(&mut on_b, r#"{"cmd":"metrics"}"#);

    reply(&mut on_b, &format!(r#"{{"cmd":"eco_open",{DESIGN}}}"#));
    reply(
        &mut on_b,
        r#"{"cmd":"eco_apply","deltas":[{"op":"move","cells":[[40,10.5,20.0]]}]}"#,
    );
    reply(
        &mut on_b,
        r#"{"cmd":"eco_query","mode":"incremental","paths":1}"#,
    );
    reply(&mut on_b, r#"{"cmd":"eco_close"}"#);
    let after_eco = reply(&mut on_b, r#"{"cmd":"metrics"}"#);
    let idle = reply(&mut on_a, r#"{"cmd":"metrics"}"#);

    for key in ["graph_builds", "rc_refreshes", "rc_nets_refreshed"] {
        assert_eq!(count(&idle, key), 0, "A ran nothing: {}", idle.encode());
    }
    assert_eq!(count(&after_eco, "graph_builds"), 1, "one design on B");
    assert!(count(&after_job, "rc_refreshes") >= job_refreshes);
    assert!(
        count(&after_eco, "rc_refreshes") > count(&after_job, "rc_refreshes"),
        "the ECO session's refreshes count at close: {}",
        after_eco.encode()
    );

    drop((on_a, on_b));
    for handle in [a, b] {
        handle.shutdown();
        handle.join();
    }
}
