//! `tdp-client` — submit, await and stream placement jobs against a
//! running `tdp-serve`.
//!
//! ```text
//! tdp-client [--addr HOST:PORT] [--retry SECS] <command>
//!
//! commands:
//!   submit --case NAME --objective NAME|all [--profile paper|quick]
//!          [--set key=value ...] [--stride K] [--await] [--stream]
//!   submit --jobs FILE [--profile paper|quick] [--await]
//!   status JOB | wait JOB | events JOB [--from I] | cancel JOB
//!   metrics | metrics-text | trace [--out FILE] | shutdown
//!   eco --case NAME [--paths K] [--script FILE|-]
//! ```
//!
//! `eco` holds one connection open for an interactive ECO exchange:
//! it pins the case resident with `eco_open`, replays JSONL commands
//! from the script (`{"apply":[<deltas>]}`, `{"query":K}` or
//! `{"query":{"mode":"full","paths":K}}`, `{"revert":N|null}` — the
//! same grammar `tdp-eco --script` uses locally), prints each response
//! line, and closes with `eco_close` (whose ack carries the session's
//! cumulative stats). Without `--script` it opens, queries once and
//! closes — a readout ping.
//!
//! Every response prints as one raw JSON line, so the output composes
//! with `grep`/`jq`-style tooling (the CI smoke job greps it). With
//! `--await`, the final `wait` responses print instead of the submit
//! acks, and the exit code reflects the fleet: non-zero if any awaited
//! job `failed` or produced an illegal placement. Matching `tdp-batch`'s
//! exit policy, a `canceled` job is deliberate and stays green (its
//! partial placement is still checked for legality).
//!
//! The job-file grammar and the `all` objective sweep are the batch
//! crate's ([`batch::split_job_line`], [`batch::BUILTIN_OBJECTIVE_NAMES`])
//! — one vocabulary across `tdp-batch` and `tdp-client`.

use batch::{split_job_line, BUILTIN_OBJECTIVE_NAMES};
use serve::{Client, ClientError, SubmitRequest};
use std::time::Duration;
use tdp_jsonio::JsonValue;

const USAGE: &str = "usage: tdp-client [--addr HOST:PORT] [--retry SECS] <command>
  submit --case NAME --objective NAME|all [--profile paper|quick]
         [--set key=value ...] [--stride K] [--await] [--stream]
  submit --jobs FILE [--profile paper|quick] [--await]
  status JOB       non-blocking state poll
  wait JOB         block until terminal, print the final report
  events JOB [--from I]
                   stream progress events (from index I) until the job
                   finishes; resumes cleanly across daemon restarts
  cancel JOB       request cancellation
  metrics          server counters
  metrics-text     server counters in Prometheus text exposition format
  trace [--out FILE]
                   dump the server's resident span ring as a Chrome
                   trace document (to FILE, or stdout) — load it in
                   Perfetto or chrome://tracing
  shutdown         stop the server
  eco --case NAME [--paths K] [--script FILE|-]
                   interactive ECO exchange (JSONL apply/query/revert
                   script; omit --script for a single open/query/close)";

fn usage_err(msg: impl Into<String>) -> String {
    format!("{}\n{USAGE}", msg.into())
}

struct SubmitPlan {
    requests: Vec<SubmitRequest>,
    wait: bool,
    stream: bool,
}

fn parse_submit_args(mut args: std::vec::IntoIter<String>) -> Result<SubmitPlan, String> {
    let mut case: Option<String> = None;
    let mut objective: Option<String> = None;
    let mut jobs_file: Option<String> = None;
    let mut profile = "paper".to_string();
    let mut overrides: Vec<(String, String)> = Vec::new();
    let mut stride = None;
    let mut wait = false;
    let mut stream = false;
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| usage_err(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--case" => case = Some(value("--case")?),
            "--objective" => objective = Some(value("--objective")?),
            "--jobs" => jobs_file = Some(value("--jobs")?),
            "--profile" => profile = value("--profile")?,
            "--set" => {
                let kv = value("--set")?;
                let Some((k, v)) = kv.split_once('=') else {
                    return Err(usage_err(format!("--set expects key=value, got {kv:?}")));
                };
                overrides.push((k.to_string(), v.to_string()));
            }
            "--stride" => {
                stride = Some(
                    value("--stride")?
                        .parse()
                        .map_err(|_| usage_err("--stride expects a positive integer"))?,
                )
            }
            "--await" => wait = true,
            "--stream" => stream = true,
            other => return Err(usage_err(format!("unknown submit flag {other:?}"))),
        }
    }
    let mut requests = Vec::new();
    if let Some(path) = jobs_file {
        if case.is_some() || objective.is_some() {
            return Err(usage_err("--jobs replaces --case/--objective"));
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        for (i, raw) in text.lines().enumerate() {
            // One grammar with tdp-batch: the shared job-file lexer.
            let Some((case, obj, fields)) =
                split_job_line(raw).map_err(|msg| format!("{path}:{}: {msg}", i + 1))?
            else {
                continue;
            };
            let mut line_overrides = overrides.clone();
            line_overrides.extend(fields);
            push_requests(&mut requests, case, obj, &profile, &line_overrides, stride);
        }
        if requests.is_empty() {
            return Err(format!("{path}: no jobs"));
        }
    } else {
        let case = case.ok_or_else(|| usage_err("submit needs --case (or --jobs FILE)"))?;
        let objective = objective.ok_or_else(|| usage_err("submit needs --objective"))?;
        push_requests(
            &mut requests,
            &case,
            &objective,
            &profile,
            &overrides,
            stride,
        );
    }
    Ok(SubmitPlan {
        requests,
        wait,
        stream,
    })
}

fn push_requests(
    requests: &mut Vec<SubmitRequest>,
    case: &str,
    objective: &str,
    profile: &str,
    overrides: &[(String, String)],
    stride: Option<usize>,
) {
    let objectives: Vec<&str> = if objective == "all" {
        BUILTIN_OBJECTIVE_NAMES.to_vec()
    } else {
        vec![objective]
    };
    for obj in objectives {
        let mut req = SubmitRequest::case(case, obj);
        req.profile = profile.to_string();
        req.overrides = overrides.to_vec();
        req.stride = stride;
        requests.push(req);
    }
}

/// Whether an awaited final status describes a successful job: `done`
/// or `canceled` (deliberate, same green-exit policy as `tdp-batch`),
/// with a legal placement either way.
fn job_succeeded(doc: &JsonValue) -> bool {
    let state_ok = matches!(
        doc.get("state").and_then(JsonValue::as_str),
        Some("done" | "canceled")
    );
    let legal = doc
        .get("report")
        .and_then(|r| r.get("legal"))
        .and_then(JsonValue::as_bool)
        == Some(true);
    state_ok && legal
}

/// Hands a successful reply to `ok`; a server-side refusal prints and
/// exits 1, any other failure is an error.
fn outcome<T>(
    r: Result<T, ClientError>,
    ok: impl FnOnce(T) -> Result<i32, String>,
) -> Result<i32, String> {
    match r {
        Ok(v) => ok(v),
        Err(ClientError::Server(msg)) => {
            eprintln!("tdp-client: server error: {msg}");
            Ok(1)
        }
        Err(e) => Err(e.to_string()),
    }
}

fn run() -> Result<i32, String> {
    let mut addr = "127.0.0.1:7171".to_string();
    let mut retry = Duration::ZERO;
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Global flags precede the command.
    while let Some(first) = args.first().cloned() {
        match first.as_str() {
            "--addr" | "--retry" => {
                if args.len() < 2 {
                    return Err(usage_err(format!("{first} needs a value")));
                }
                let value = args.remove(1);
                args.remove(0);
                if first == "--addr" {
                    addr = value;
                } else {
                    let secs: u64 = value
                        .parse()
                        .map_err(|_| usage_err("--retry expects whole seconds"))?;
                    retry = Duration::from_secs(secs);
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(0);
            }
            _ => break,
        }
    }
    let Some(command) = args.first().cloned() else {
        return Err(usage_err("missing command"));
    };
    args.remove(0);

    let addrs: Vec<std::net::SocketAddr> = std::net::ToSocketAddrs::to_socket_addrs(&addr)
        .map_err(|e| format!("bad --addr {addr:?}: {e}"))?
        .collect();
    let mut client = Client::connect(addrs.as_slice(), retry)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;

    let job_arg = |args: &[String]| -> Result<usize, String> {
        args.first()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| usage_err(format!("{command} expects a job id")))
    };

    let print_doc = |doc: &JsonValue| println!("{}", doc.encode());
    let report = |r: Result<JsonValue, ClientError>| {
        outcome(r, |doc| {
            print_doc(&doc);
            Ok(0)
        })
    };

    match command.as_str() {
        "submit" => {
            let plan = parse_submit_args(args.into_iter())?;
            let mut ids = Vec::new();
            for req in &plan.requests {
                match client.submit(req) {
                    Ok(id) => {
                        if !plan.wait && !plan.stream {
                            // Print the ack only when nothing richer follows.
                            println!("{{\"ok\":true,\"cmd\":\"submit\",\"job\":{id}}}");
                        }
                        ids.push(id);
                    }
                    Err(ClientError::Server(msg)) => {
                        eprintln!("tdp-client: submit failed: {msg}");
                        return Ok(1);
                    }
                    Err(e) => return Err(e.to_string()),
                }
            }
            let mut failures = 0usize;
            if plan.stream {
                for &id in &ids {
                    let finished = client
                        .events(id, 0, |event| print_doc(event))
                        .map_err(|e| e.to_string())?;
                    let ok = matches!(
                        finished.get("state").and_then(JsonValue::as_str),
                        Some("done" | "canceled")
                    );
                    if !ok {
                        failures += 1;
                    }
                }
            } else if plan.wait {
                for &id in &ids {
                    let doc = client.wait(id).map_err(|e| e.to_string())?;
                    print_doc(&doc);
                    if !job_succeeded(&doc) {
                        failures += 1;
                    }
                }
            }
            Ok(if failures > 0 { 1 } else { 0 })
        }
        "status" => report(client.status(job_arg(&args)?)),
        "wait" => {
            let doc = client.wait(job_arg(&args)?).map_err(|e| e.to_string())?;
            print_doc(&doc);
            Ok(if job_succeeded(&doc) { 0 } else { 1 })
        }
        "events" => {
            let job = job_arg(&args)?;
            let mut from = 0usize;
            let mut it = args.iter().skip(1);
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--from" => {
                        from = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| usage_err("--from expects a non-negative integer"))?
                    }
                    other => return Err(usage_err(format!("unknown events flag {other:?}"))),
                }
            }
            client
                .events(job, from, |event| print_doc(event))
                .map_err(|e| e.to_string())?;
            Ok(0)
        }
        "cancel" => report(client.cancel(job_arg(&args)?)),
        "metrics" => report(client.metrics()),
        "metrics-text" => outcome(client.metrics_text(), |text| {
            // The raw scrape body, not a JSON line: this output is what
            // a Prometheus scraper (or a human) consumes.
            print!("{text}");
            Ok(0)
        }),
        "trace" => {
            let mut out: Option<String> = None;
            let mut it = args.iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--out" => {
                        out = Some(
                            it.next()
                                .cloned()
                                .ok_or_else(|| usage_err("--out needs a value"))?,
                        )
                    }
                    other => return Err(usage_err(format!("unknown trace flag {other:?}"))),
                }
            }
            outcome(client.trace(), |doc| {
                let trace = doc
                    .get("trace")
                    .ok_or_else(|| "trace_dump response lacks \"trace\"".to_string())?;
                let events = doc.get("events").and_then(JsonValue::as_usize).unwrap_or(0);
                match out {
                    Some(path) => {
                        std::fs::write(&path, trace.encode())
                            .map_err(|e| format!("cannot write {path}: {e}"))?;
                        eprintln!("tdp-client: wrote {events} trace events to {path}");
                    }
                    None => println!("{}", trace.encode()),
                }
                Ok(0)
            })
        }
        "shutdown" => report(client.shutdown()),
        "eco" => run_eco(&mut client, args),
        other => Err(usage_err(format!("unknown command {other:?}"))),
    }
}

/// The `eco` subcommand: one connection-long interactive exchange.
fn run_eco(client: &mut Client, args: Vec<String>) -> Result<i32, String> {
    let mut case: Option<String> = None;
    let mut paths = 4usize;
    let mut script: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| usage_err(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--case" => case = Some(value("--case")?),
            "--paths" => {
                paths = value("--paths")?
                    .parse()
                    .map_err(|_| usage_err("--paths expects a non-negative integer"))?
            }
            "--script" => script = Some(value("--script")?),
            other => return Err(usage_err(format!("unknown eco flag {other:?}"))),
        }
    }
    let case = case.ok_or_else(|| usage_err("eco needs --case"))?;

    let print_doc = |doc: &JsonValue| println!("{}", doc.encode());
    // Server-side rejections print and count as failures; the exchange
    // continues (a bad delta batch must not strand the open session).
    let mut failures = 0usize;
    let mut step = |r: Result<JsonValue, ClientError>| -> Result<(), String> {
        match r {
            Ok(doc) => {
                print_doc(&doc);
                Ok(())
            }
            Err(ClientError::Server(msg)) => {
                eprintln!("tdp-client: server error: {msg}");
                failures += 1;
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        }
    };

    match client.eco_open(&case) {
        Ok(doc) => print_doc(&doc),
        Err(ClientError::Server(msg)) => {
            eprintln!("tdp-client: eco_open failed: {msg}");
            return Ok(1);
        }
        Err(e) => return Err(e.to_string()),
    }
    if let Some(path) = script {
        let text = if path == "-" {
            let mut buf = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut buf)
                .map_err(|e| format!("stdin: {e}"))?;
            buf
        } else {
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?
        };
        for (i, line) in text
            .lines()
            .map(str::trim)
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
        {
            let cmd = tdp_jsonio::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            if let Some(deltas) = cmd.get("apply") {
                step(client.eco_apply(&deltas.encode()))?;
            } else if let Some(q) = cmd.get("query") {
                let mode = q.get("mode").and_then(JsonValue::as_str).map(String::from);
                let k = q
                    .as_usize()
                    .or_else(|| q.get("paths").and_then(JsonValue::as_usize))
                    .unwrap_or(paths);
                step(client.eco_query(mode.as_deref(), k))?;
            } else if let Some(to) = cmd.get("revert") {
                step(client.eco_revert(to.as_usize()))?;
            } else {
                return Err(format!(
                    "line {}: unknown command (expected apply, query or revert)",
                    i + 1
                ));
            }
        }
    } else {
        step(client.eco_query(None, paths))?;
    }
    step(client.eco_close())?;
    Ok(if failures > 0 { 1 } else { 0 })
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("tdp-client: {msg}");
            std::process::exit(2);
        }
    }
}
