//! `serve_mix`: an in-process `tdp-serve` daemon with its shipped
//! defaults, a journal and `retain=16`, driven over loopback TCP by two
//! closed-loop clients at once (closed loop: every caller waits for its
//! reply before sending the next request).
//!
//! * **A** opens an ECO session on a re-seeded `sb10` and cycles
//!   `eco_apply` → `eco_query paths=4` → `eco_revert` over eight
//!   0.5%-churn delta batches.
//! * **B** submits inline 350-cell designs (four seeds, quick schedule,
//!   Efficient-TDP) and waits for each; every fourth job it also streams
//!   that job's events from 0 and asks for the `status` of the job 20
//!   back, which `retain` has compacted out of memory by then, so the
//!   answer is re-read from the journal.

use crate::designs::{reseeded_case, sub_seed};
use crate::harness::{out_dir, peak_rss_mb, repeat_setup, Phase, RunOpts};
use crate::report::Report;
use crate::{probe, spans, stats, traced};
use batch::Profile;
use benchgen::CircuitParams;
use serve::protocol::{params_to_json, DesignRef, SubmitRequest};
use serve::{Client, ClientError, Server, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tdp_core::{ObjectiveSpec, Session};
use tdp_jsonio::JsonValue;

const ECO_BATCHES: usize = 8;
const ECO_PATHS: usize = 4;
const INLINE_DESIGNS: u64 = 4;
/// Finished jobs the daemon keeps in memory; older ones are compacted.
const RETAIN: usize = 16;
/// How far back client B asks for a `status` (beyond `RETAIN`).
const STATUS_LAG: usize = 20;
/// Set-ups per run: one takes a third of a second.
const SETUP_REPS: usize = 7;

/// One ECO delta batch in wire form and the `query_hash` a local
/// `EcoSession` answers with after applying it.
struct EcoBatch {
    deltas: String,
    query_hash: String,
}

/// One inline design and the placement hash of a local `Session::run`.
struct InlineJob {
    params: CircuitParams,
    placement_hash: String,
}

struct Ctx {
    /// `None` once shut down (the traced run replays the journal after).
    server: Option<ServerHandle>,
    addr: SocketAddr,
    journal_dir: PathBuf,
    eco_open: String,
    batches: Vec<EcoBatch>,
    jobs: Vec<InlineJob>,
}

impl Drop for Ctx {
    fn drop(&mut self) {
        // Stop the daemon before deleting the journal under it.
        drop(self.server.take());
        let _ = std::fs::remove_dir_all(&self.journal_dir);
    }
}

fn hex(hash: u64) -> String {
    format!("{hash:#018x}")
}

/// Reference answers from the local paths, then a fresh journal
/// directory and the daemon.
fn setup(seed: u64) -> Ctx {
    let eco_params = reseeded_case("sb10", seed, 10);
    let mut local = eco::open_case_session(&eco_params, 1).expect("suite designs are acyclic");
    let steps = benchgen::eco_stress(
        local.design(),
        local.placement(),
        &benchgen::EcoStressParams::at_churn(sub_seed(seed, 11), 0.005, ECO_BATCHES),
    );
    let batches = steps
        .iter()
        .map(|step| {
            let batch = eco::DeltaBatch::from_step(step);
            local.apply(&batch).expect("generated batch is valid");
            let query_hash = hex(local.query(ECO_PATHS).content_hash());
            local.revert().expect("one batch applied");
            EcoBatch {
                deltas: batch.to_json(local.design()).encode(),
                query_hash,
            }
        })
        .collect();

    let jobs = (0..INLINE_DESIGNS)
        .map(|k| {
            let params = CircuitParams::small(&format!("inline{k}"), sub_seed(seed, 20 + k));
            let job = batch::make_jobs_for(
                &params.name,
                &params,
                Some(&ObjectiveSpec::EfficientTdp),
                Profile::Quick,
                &[],
            )
            .expect("builtin objective on the quick profile")
            .remove(0);
            let (design, pads) = benchgen::generate(&params);
            let outcome = Session::builder(design, pads)
                .build()
                .expect("generated designs are acyclic")
                .run(&job.spec)
                .expect("builtin objectives always build");
            InlineJob {
                params,
                placement_hash: hex(outcome.placement.content_hash()),
            }
        })
        .collect();

    // One journal per run, removed with the context: a journal left
    // behind would be replayed by the next daemon and would grow the
    // file the compacted-read path scans.
    let journal_dir = out_dir().join(format!("serve_mix.journal.{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let server = Server::start(ServerConfig {
        journal: Some(journal_dir.clone()),
        retain: RETAIN,
        ..ServerConfig::default()
    })
    .expect("daemon starts on an ephemeral loopback port");
    let mut eco_open = String::from("{\"cmd\":\"eco_open\"");
    tdp_jsonio::field_raw(
        &mut eco_open,
        "params",
        &params_to_json(&eco_params).encode(),
    );
    eco_open.push('}');
    Ctx {
        addr: server.addr(),
        server: Some(server),
        journal_dir,
        eco_open,
        batches,
        jobs,
    }
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, Duration::from_secs(5)).expect("daemon accepts connections")
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    /// Requests answered `ok`.
    requests: u64,
    /// Round-trip times in milliseconds (ECO requests for A, submit →
    /// wait answered for B).
    rtt_ms: Vec<f64>,
    /// B only: compacted `status` reads, and each job's own runtime.
    compacted_ms: Vec<f64>,
    job_runtime_ms: Vec<f64>,
    /// Failed operations and mismatching answers.
    failures: Vec<String>,
    checks: u64,
}

impl ClientLog {
    /// Counts a reply; a refused or errored request is a failure.
    fn reply(&mut self, what: &str, r: Result<JsonValue, ClientError>) -> Option<JsonValue> {
        self.checks += 1;
        match r {
            Ok(doc) => {
                self.requests += 1;
                Some(doc)
            }
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn into_report(self, report: &mut Report) {
        report.ops_ok(self.checks - self.failures.len() as u64);
        for f in self.failures {
            report.check(false, || f);
        }
    }
}

fn text<'a>(doc: &'a JsonValue, path: &[&str]) -> &'a str {
    path.iter()
        .try_fold(doc, |d, key| d.get(key))
        .and_then(JsonValue::as_str)
        .unwrap_or("<missing>")
}

/// Client A: the interactive ECO loop.
fn eco_client(ctx: &Ctx, phase: &Phase) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = connect(ctx.addr);
    let opened = client.roundtrip(&ctx.eco_open);
    if log.reply("eco_open", opened).is_none() {
        return log;
    }
    let mut cycle = 0;
    while phase.running() {
        let batch = &ctx.batches[cycle % ctx.batches.len()];
        cycle += 1;
        let t = Instant::now();
        let applied = client.eco_apply(&batch.deltas);
        log.rtt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        log.reply("eco_apply", applied);
        let t = Instant::now();
        let answer = client.eco_query(None, ECO_PATHS);
        log.rtt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(doc) = log.reply("eco_query", answer) {
            let got = text(&doc, &["result", "query_hash"]).to_string();
            log.expect(got == batch.query_hash, || {
                format!(
                    "cycle {cycle}: query_hash {got} differs from the local session's {}",
                    batch.query_hash
                )
            });
        }
        let t = Instant::now();
        let reverted = client.eco_revert(None);
        log.rtt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        log.reply("eco_revert", reverted);
    }
    let closed = client.eco_close();
    log.reply("eco_close", closed);
    log
}

/// Client B: submit → wait, with journal-backed reads mixed in.
fn job_client(ctx: &Ctx, phase: &Phase) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = connect(ctx.addr);
    // (job id, the report its `wait` answered with), in submit order.
    let mut done: Vec<(usize, String)> = Vec::new();
    while phase.running() {
        let i = done.len();
        let job = &ctx.jobs[i % ctx.jobs.len()];
        let request = SubmitRequest {
            design: DesignRef::Inline(job.params.clone()),
            objective: "efficient-tdp".to_string(),
            profile: "quick".to_string(),
            overrides: Vec::new(),
            stride: None,
        };
        let t = Instant::now();
        let submitted = client.roundtrip(&request.encode());
        let Some(id) = log
            .reply("submit", submitted)
            .and_then(|doc| doc.get("job").and_then(JsonValue::as_usize))
        else {
            break;
        };
        let waited = client.wait(id);
        log.rtt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let Some(doc) = log.reply("wait", waited) else {
            break;
        };
        let (state, hash) = (
            text(&doc, &["state"]).to_string(),
            text(&doc, &["report", "placement_hash"]).to_string(),
        );
        log.expect(state == "done" && hash == job.placement_hash, || {
            format!(
                "job {id}: state {state}, placement_hash {hash}; a local Session::run gives {}",
                job.placement_hash
            )
        });
        let report = doc.get("report").map(JsonValue::encode).unwrap_or_default();
        if let Some(runtime) = doc
            .get("report")
            .and_then(|r| r.get("runtime_s"))
            .and_then(JsonValue::as_f64)
        {
            log.job_runtime_ms.push(runtime * 1e3);
        }
        done.push((id, report));

        if i % 4 == 3 {
            let streamed = client.events(id, 0, |_| {});
            log.reply("events", streamed);
            if i >= STATUS_LAG {
                let (old_id, live_report) = &done[i - STATUS_LAG];
                let t = Instant::now();
                let status = client.status(*old_id);
                log.compacted_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if let Some(doc) = log.reply("status", status) {
                    let reread = doc.get("report").map(JsonValue::encode).unwrap_or_default();
                    log.expect(&reread == live_report, || {
                        format!("job {old_id}: compacted status differs from the live report")
                    });
                }
            }
        }
    }
    log
}

/// Both clients, concurrently, until the phase runs out; the wall time
/// covers the slower of the two.
fn concurrent_phase(ctx: &Ctx, seconds: f64) -> (ClientLog, ClientLog, f64) {
    let phase = Phase::start(seconds);
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| eco_client(ctx, &phase));
        let b = s.spawn(|| job_client(ctx, &phase));
        (
            a.join().expect("ECO client thread"),
            b.join().expect("job client thread"),
        )
    });
    (a, b, phase.elapsed_s())
}

pub fn run(opts: &RunOpts, report: &mut Report) {
    if opts.trace {
        return run_traced(opts, report);
    }
    let (ctx, setup_s) = repeat_setup(SETUP_REPS, || setup(opts.seed));
    let (a, b, wall) = concurrent_phase(&ctx, opts.seconds);
    // A client that could not complete one operation has already
    // logged why; the run fails on that, not on a missing sample.
    if !a.rtt_ms.is_empty() && !b.rtt_ms.is_empty() {
        report.timing("primary_op_ms", &a.rtt_ms);
        report.timing("secondary_op_ms", &b.rtt_ms);
    }
    report.value("ops_per_s", (a.requests + b.requests) as f64 / wall);
    a.into_report(report);
    b.into_report(report);
    drop(ctx);
    report.quiet_timing("setup_s", &setup_s, 1);
    report.value("peak_rss_mb", peak_rss_mb());
}

/// Mean server-side handling time of `verbs`, in milliseconds, from the
/// `metrics` verb's `request_seconds` histogram.
fn handle_ms(metrics: &JsonValue, verbs: &[&str]) -> f64 {
    let (mut count, mut sum_s) = (0.0, 0.0);
    for verb in verbs {
        if let Some(h) = metrics
            .get("request_seconds")
            .and_then(|r| r.get("verbs"))
            .and_then(|v| v.get(verb))
        {
            count += h.get("count").and_then(JsonValue::as_f64).unwrap_or(0.0);
            sum_s += h.get("sum_s").and_then(JsonValue::as_f64).unwrap_or(0.0);
        }
    }
    if count == 0.0 {
        0.0
    } else {
        sum_s / count * 1e3
    }
}

fn run_traced(opts: &RunOpts, report: &mut Report) {
    // The probe runs before the daemon exists: a running daemon folds
    // every span recorded in this process into its own ring.
    {
        let eco_params = reseeded_case("sb10", opts.seed, 10);
        let (design, pads) = benchgen::generate(&eco_params);
        // The placement a daemon-side ECO session holds resident.
        let placement = eco::resident_placement(&design, &pads);
        probe::layers(report, &eco_params, &design, &pads, &placement, opts.seed);
    }
    let mut ctx = setup(opts.seed);
    let (a, b, _) = concurrent_phase(&ctx, opts.seconds);

    let eco_rtt = stats::median(&a.rtt_ms);
    if let Some(p) = stats::tail_percentile(a.rtt_ms.len()) {
        report.value("serve.eco_rtt_tail_pct", p);
        report.value("serve.eco_rtt_tail_ms", stats::percentile(&a.rtt_ms, p));
    }
    if !b.compacted_ms.is_empty() {
        report.timing("serve.compacted_read_ms", &b.compacted_ms);
    }
    let job_overhead = stats::median(&b.rtt_ms) - stats::median(&b.job_runtime_ms);
    a.into_report(report);
    b.into_report(report);

    let mut client = connect(ctx.addr);
    let metrics_rtt: Vec<f64> = (0..20)
        .filter_map(|_| {
            let t = Instant::now();
            client.metrics().ok()?;
            Some(t.elapsed().as_secs_f64() * 1e3)
        })
        .collect();
    report.check(metrics_rtt.len() == 20, || {
        "a metrics request failed".to_string()
    });
    report.timing("serve.metrics_rtt_ms", &metrics_rtt);
    let metrics = client.metrics().expect("metrics verb answers");
    let counter = |key: &str| metrics.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let eco_handle = handle_ms(&metrics, &["eco_apply", "eco_query", "eco_revert"]);
    report.value("serve.eco_handle_ms", eco_handle);
    report.value("serve.submit_handle_ms", handle_ms(&metrics, &["submit"]));
    report.value("serve.wire_overhead_ms", eco_rtt - eco_handle);
    report.value("serve.job_overhead_ms", job_overhead);
    report.value("serve.requests", counter("requests"));
    report.value("serve.cache_hits", counter("cache_hits"));
    report.value("serve.cache_misses", counter("cache_misses"));
    report.value("serve.graph_builds", counter("graph_builds"));
    report.value("journal.appends", counter("journal_appends"));

    // The daemon's resident ring is the trace of this workload.
    let dump = client.trace().expect("trace_dump answers");
    let doc = dump.get("trace").cloned().unwrap_or(JsonValue::Null);
    let events = dump
        .get("events")
        .and_then(JsonValue::as_usize)
        .unwrap_or(0);
    traced::write_trace(report, "serve_mix", &doc, events);
    match spans::from_chrome(&doc) {
        Ok(lanes) => {
            // Request spans are the roots: what a caller waits for the
            // daemon to do. A job runs on a worker outside any request
            // (`serve.job`), and `wait`/`events` only block on one.
            traced::report_shares(report, &lanes, |name| {
                name.starts_with("serve.")
                    && !["serve.job", "serve.wait", "serve.events"].contains(&name)
            });
        }
        Err(e) => report.check(false, || format!("trace_dump: {e}")),
    }
    drop(client);

    // Replay what this run journaled, as the next daemon start would.
    drop(ctx.server.take());
    let path = ctx.journal_dir.join("journal.jsonl");
    report.value(
        "journal.bytes",
        std::fs::metadata(&path).map_or(0, |m| m.len()) as f64,
    );
    let t = Instant::now();
    let replayed = serve::Journal::open(&ctx.journal_dir);
    report.value("journal.replay_ms", t.elapsed().as_secs_f64() * 1e3);
    report.check(replayed.is_ok(), || {
        "the run's journal does not reopen".to_string()
    });
}
