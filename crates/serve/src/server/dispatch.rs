//! Request dispatch: one handler per verb, behind [`Connection`]. No
//! socket appears here — the TCP handler and an in-process caller drive
//! the same [`Connection::serve_line`].

use super::jobs::{build_job, JobEntry, JobState};
use super::{ServerHandle, Shared};
use crate::journal::{self, CompactedJob, SubmitRecord};
use crate::metrics::ServeMetrics;
use crate::protocol::{
    design_key, event_line, ok_prefix, parse_request, DesignRef, ProtoError, Request,
    SubmitRequest, VERBS,
};
use std::io::{self, Write};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use tdp_jsonio::{field_bool, field_hex, field_num, field_raw, field_str, JsonValue};

const NO_ECO: &str = "no eco session open on this connection (eco_open first)";

/// One client's view of a server: the request handlers plus the
/// connection-scoped ECO session. The TCP handler runs every request
/// line through [`Connection::serve_line`]; a test or another
/// in-process caller can do the same without a socket and read the
/// reply bytes back from any [`Write`].
///
/// Dropping a `Connection` closes its open ECO session, releasing the
/// cache pin and folding the session's stats into the server metrics —
/// a vanished client never leaks a pin.
pub struct Connection {
    shared: Arc<Shared>,
    eco: Option<EcoConn>,
}

/// Per-connection ECO state: one open [`eco::EcoSession`] and the key
/// of the cache pin that keeps its design resident meanwhile.
struct EcoConn {
    key: u64,
    eco: eco::EcoSession,
}

/// Writes one message — lines, each with its newline — and flushes it.
/// Over TCP the flush is what puts the message on the wire, in one write.
fn send<'a>(out: &mut dyn Write, lines: impl IntoIterator<Item = &'a str>) -> io::Result<()> {
    for line in lines {
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
    }
    out.flush()
}

impl Connection {
    /// A new connection to `server`, with no ECO session open.
    pub fn new(server: &ServerHandle) -> Self {
        Self::open(Arc::clone(&server.shared))
    }

    pub(super) fn open(shared: Arc<Shared>) -> Self {
        Self { shared, eco: None }
    }

    /// Runs one request line and writes its reply to `out`: one line,
    /// or for `events` the stream of event lines, each message followed
    /// by a `flush`. Blank lines are ignored. `wait` and a live `events`
    /// stream block until the job finishes.
    ///
    /// # Errors
    ///
    /// Only `out`'s write errors; a bad request is answered with an
    /// `{"ok":false,...}` line, not an error.
    pub fn serve_line(&mut self, line: &str, out: &mut impl Write) -> io::Result<()> {
        if line.trim().is_empty() {
            return Ok(());
        }
        ServeMetrics::bump(&self.shared.metrics.requests);
        let request = match parse_request(line.trim_end()) {
            Ok(request) => request,
            Err(e) => return send(out, [e.to_response().as_str()]),
        };
        let verb = request.verb();
        let (cmd, span_name) = VERBS[verb];
        let job = match &request {
            Request::Status { job }
            | Request::Wait { job }
            | Request::Events { job, .. }
            | Request::Cancel { job } => Some(*job as u64),
            _ => None,
        };
        let t0 = std::time::Instant::now();
        let result = {
            let _span = match job {
                Some(id) => tdp_trace::span_job(span_name, "serve", id),
                None => tdp_trace::span(span_name, "serve"),
            };
            self.dispatch(request, cmd, out)
        };
        let elapsed = t0.elapsed().as_secs_f64();
        self.shared.metrics.latency[verb].observe(elapsed);
        self.shared.absorb_trace();
        result
    }

    /// Runs one parsed request. Every handler but `events` appends its
    /// reply's fields to `s`, a `{"ok":true,"cmd":…` prefix, and this one
    /// match closes that line or replaces it with the error line.
    fn dispatch(&mut self, request: Request, cmd: &str, out: &mut dyn Write) -> io::Result<()> {
        let shutdown = matches!(request, Request::Shutdown);
        let mut reply = ok_prefix(cmd);
        let s = &mut reply;
        let handled = match request {
            Request::Submit(req) => self.submit(&req, s),
            Request::Status { job } => self.job(job).and_then(|e| self.status(job, e, s)),
            Request::Wait { job } => self.wait(job, s),
            Request::Events { job, from } => match self.events(job, from, out) {
                Ok(streamed) => return streamed,
                Err(e) => Err(e),
            },
            Request::Cancel { job } => self.cancel(job, s),
            Request::Metrics => self.metrics(s),
            Request::MetricsText => self.metrics_text(s),
            Request::Shutdown => {
                let jobs = self.shared.jobs.lock().expect("jobs lock").next_id;
                field_num(s, "jobs", jobs as f64);
                Ok(())
            }
            Request::EcoOpen { design } => self.eco_open(&design, s),
            Request::EcoApply { deltas } => self.eco_apply(&deltas, s),
            Request::EcoQuery { full, paths } => self.eco_query(full, paths, s),
            Request::EcoRevert { to } => self.eco_revert(to, s),
            Request::EcoClose => self.eco_close(s),
            Request::TraceDump => self.trace_dump(s),
        };
        let reply = match handled {
            Ok(()) => reply + "}",
            Err(e) => e.to_response(),
        };
        let sent = send(out, [reply.as_str()]);
        if shutdown {
            // After the reply: shutdown tears down every connection.
            self.shared.initiate_shutdown();
        }
        sent
    }

    fn job(&self, id: usize) -> Result<JobEntry, ProtoError> {
        self.shared
            .job(id)
            .ok_or_else(|| ProtoError::new(format!("unknown job {id}")))
    }

    /// Re-reads a compacted job from its byte range of the journal.
    fn compacted(&self, id: usize, span: Range<u64>) -> Result<CompactedJob, ProtoError> {
        let journal =
            self.shared.journal.as_ref().ok_or_else(|| {
                ProtoError::new(format!("job {id} was compacted without a journal"))
            })?;
        journal::read_compacted(journal.path(), id, span)
            .map_err(|e| ProtoError::new(format!("journal read failed for job {id}: {e}")))
    }

    fn submit(&mut self, req: &SubmitRequest, s: &mut String) -> Result<(), ProtoError> {
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            return Err(ProtoError::new("server is shutting down"));
        }
        let (name, params) = resolve_design(&req.design)?;
        let key = design_key(&params);
        let mut sub = SubmitRecord {
            job: 0, // assigned on admission
            name,
            params,
            objective: req.objective.clone(),
            profile: req.profile.clone(),
            overrides: req.overrides.clone(),
            stride: req.stride.unwrap_or(self.shared.cfg.default_stride).max(1),
            key,
        };
        let job = build_job(&sub).map_err(ProtoError::new)?;
        let (slot, hit) = self.shared.checkout(key, false)?;
        let state = self.shared.admit(&mut sub, job, slot);
        field_num(s, "job", state.id as f64);
        field_hex(s, "design", key);
        field_bool(s, "cached", hit);
        Ok(())
    }

    /// The `status`/`wait` fields of job `id`. A compacted job's come
    /// from its journaled report: the bytes it answered while resident.
    fn status(&self, id: usize, entry: JobEntry, s: &mut String) -> Result<(), ProtoError> {
        match entry {
            JobEntry::Live(job) => {
                let phase = job.phase.lock().expect("job phase lock");
                status_fields(s, id, job.key, phase.label(), phase.report());
            }
            JobEntry::Compacted { key, state, span } => {
                let report = self.compacted(id, span)?.report.ok_or_else(|| {
                    ProtoError::new(format!("journal holds no report for job {id}"))
                })?;
                status_fields(s, id, key, state, Some(&report));
            }
        }
        Ok(())
    }

    /// Blocks until job `id` is terminal (compacted jobs already are),
    /// then answers like `status`.
    fn wait(&self, id: usize, s: &mut String) -> Result<(), ProtoError> {
        let entry = self.job(id)?;
        if let JobEntry::Live(job) = &entry {
            job.wait_finished();
        }
        self.status(id, entry, s)
    }

    /// Streams job `id`'s event lines from index `from`. `Err` is a
    /// refusal, answered as one error line; `Ok` holds the stream's
    /// write result.
    fn events(
        &self,
        id: usize,
        from: usize,
        out: &mut dyn Write,
    ) -> Result<io::Result<()>, ProtoError> {
        let entry = self.job(id)?;
        ServeMetrics::bump(&self.shared.metrics.event_streams);
        let (lines, state) = match entry {
            JobEntry::Live(job) => return Ok(stream_live(&job, from, out)),
            // The journal holds the complete stream (terminal `finished`
            // line included); replay the requested suffix byte-identically
            // to the live stream.
            JobEntry::Compacted { state, span, .. } => (self.compacted(id, span)?.events, state),
        };
        Ok(if from < lines.len() {
            send(out, lines[from..].iter().map(String::as_str))
        } else {
            send(out, [end_line(id, state).as_str()])
        })
    }

    fn cancel(&self, id: usize, s: &mut String) -> Result<(), ProtoError> {
        // Compacted jobs are already terminal; cancel is the same no-op
        // it is for a live finished job.
        if let JobEntry::Live(job) = self.job(id)? {
            job.cancel.cancel(0);
        }
        field_num(s, "job", id as f64);
        Ok(())
    }

    fn metrics(&self, s: &mut String) -> Result<(), ProtoError> {
        let (gauges, congestion) = self.shared.snapshot();
        self.shared.metrics.render(s, &gauges);
        field_num(s, "congestion_jobs", congestion.0 as f64);
        field_num(s, "congestion_overflow_sum", congestion.1);
        field_num(s, "congestion_peak_max", congestion.2);
        Ok(())
    }

    fn metrics_text(&self, s: &mut String) -> Result<(), ProtoError> {
        let (gauges, _) = self.shared.snapshot();
        field_str(s, "text", &self.shared.metrics.render_prometheus(&gauges));
        Ok(())
    }

    fn eco_open(&mut self, design: &DesignRef, s: &mut String) -> Result<(), ProtoError> {
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            return Err(ProtoError::new("server is shutting down"));
        }
        if self.eco.is_some() {
            return Err(ProtoError::new(
                "an eco session is already open on this connection (eco_close first)",
            ));
        }
        let (_name, params) = resolve_design(design)?;
        let key = design_key(&params);
        let (slot, hit) = self.shared.checkout(key, true)?;
        // Server-side ECO sessions analyze single-threaded: answers must
        // be bitwise reproducible regardless of daemon sizing.
        let eco = slot
            .lock(&params, &self.shared.metrics.graph_builds)
            .map(|session| eco::EcoSession::open(&session, eco::rc_params_for(&params), 1))
            .map_err(|msg| {
                // The open failed after the pin was taken; release it or the
                // broken design would block eviction forever.
                self.shared.cache.unpin(key);
                ProtoError::new(msg)
            })?;
        ServeMetrics::bump(&self.shared.metrics.eco_opens);
        field_hex(s, "design", key);
        field_bool(s, "cached", hit);
        field_num(s, "cells", eco.design().num_cells() as f64);
        field_num(s, "nets", eco.design().num_nets() as f64);
        field_num(s, "clock_period", eco.design().sdc().clock_period);
        self.eco = Some(EcoConn { key, eco });
        Ok(())
    }

    fn eco_session(&mut self) -> Result<&mut eco::EcoSession, ProtoError> {
        match &mut self.eco {
            Some(conn) => Ok(&mut conn.eco),
            None => Err(ProtoError::new(NO_ECO)),
        }
    }

    fn eco_apply(&mut self, deltas: &JsonValue, s: &mut String) -> Result<(), ProtoError> {
        let session = self.eco_session()?;
        let batch =
            eco::delta_batch_from_json(session.design(), deltas).map_err(ProtoError::new)?;
        let summary = session
            .apply(&batch)
            .map_err(|e| ProtoError::new(e.to_string()))?;
        field_num(s, "moved_cells", summary.moved_cells.len() as f64);
        field_num(s, "dirty_nets", summary.dirty_nets.len() as f64);
        field_num(s, "checkpoint", session.checkpoint() as f64);
        ServeMetrics::bump(&self.shared.metrics.eco_applies);
        Ok(())
    }

    fn eco_query(
        &mut self,
        full: Option<bool>,
        paths: usize,
        s: &mut String,
    ) -> Result<(), ProtoError> {
        let session = self.eco_session()?;
        match full {
            Some(true) => session.reanalyze(eco::EcoMode::Full),
            Some(false) => session.reanalyze(eco::EcoMode::Incremental),
            None => {}
        }
        field_raw(s, "result", &session.query(paths).to_json().encode());
        ServeMetrics::bump(&self.shared.metrics.eco_queries);
        Ok(())
    }

    fn eco_revert(&mut self, to: Option<usize>, s: &mut String) -> Result<(), ProtoError> {
        let session = self.eco_session()?;
        match to {
            Some(cp) => session.revert_to(cp),
            None => session.revert(),
        }
        .map_err(|e| ProtoError::new(e.to_string()))?;
        field_num(s, "checkpoint", session.checkpoint() as f64);
        ServeMetrics::bump(&self.shared.metrics.eco_reverts);
        Ok(())
    }

    fn eco_close(&mut self, s: &mut String) -> Result<(), ProtoError> {
        let stats = self.close_eco().ok_or_else(|| ProtoError::new(NO_ECO))?;
        field_num(s, "queries", stats.queries as f64);
        field_num(s, "cells_moved", stats.cells_moved as f64);
        field_num(s, "dirty_nets", stats.dirty_nets as f64);
        field_num(s, "incremental_ns", stats.incremental_ns as f64);
        field_num(s, "full_ns", stats.full_ns as f64);
        Ok(())
    }

    /// Closes the open ECO session, if any: releases its cache pin and
    /// folds its cumulative stats and its analyzer's RC work into the
    /// server metrics. Shared by `eco_close` and [`Drop`].
    fn close_eco(&mut self) -> Option<tdp_core::EcoStats> {
        let conn = self.eco.take()?;
        let stats = conn.eco.stats();
        self.shared.metrics.fold_eco(&stats);
        self.shared.metrics.fold_rc(&conn.eco.rc_stats());
        self.shared.cache.unpin(conn.key);
        Some(stats)
    }

    fn trace_dump(&self, s: &mut String) -> Result<(), ProtoError> {
        let ring = self.shared.trace.as_ref().ok_or_else(|| {
            ProtoError::new("tracing is disabled on this server (--trace-ring 0)")
        })?;
        let chunks = ring.snapshot();
        let events: usize = chunks.iter().map(|c| c.events.len()).sum();
        field_num(s, "events", events as f64);
        field_raw(s, "trace", &tdp_trace::chrome_trace(&chunks).encode());
        Ok(())
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        // A handler that panicked may have poisoned a lock the release
        // takes; a second panic here would abort the daemon.
        if !std::thread::panicking() {
            self.close_eco();
        }
    }
}

/// Streams a live job's events from `from` until its log closes. A
/// stream that replays nothing (`from` at or past the terminal
/// `finished` line) ends with an explicit `end` line: a silent empty
/// stream would deadlock a client waiting for a terminal event.
fn stream_live(job: &JobState, from: usize, out: &mut dyn Write) -> io::Result<()> {
    let mut index = from;
    loop {
        let (lines, closed) = job.events.wait_from(index);
        if lines.is_empty() && closed {
            if index > from {
                return Ok(());
            }
            let state = job.phase.lock().expect("job phase lock").label();
            return send(out, [end_line(job.id, state).as_str()]);
        }
        index += lines.len();
        send(out, lines.iter().map(String::as_str))?;
    }
}

fn end_line(id: usize, state: &str) -> String {
    event_line("end", id, |s| field_str(s, "state", state))
}

fn status_fields(s: &mut String, id: usize, key: u64, state: &str, report: Option<&str>) {
    field_num(s, "job", id as f64);
    field_str(s, "state", state);
    field_hex(s, "design", key);
    if let Some(report) = report {
        field_raw(s, "report", report);
    }
}

/// Resolves a design reference to (name, generator parameters); shared
/// by `submit` and `eco_open`.
fn resolve_design(design: &DesignRef) -> Result<(String, benchgen::CircuitParams), ProtoError> {
    match design {
        DesignRef::Case(name) => {
            let case = benchgen::case_by_name(name).ok_or_else(|| {
                let known: Vec<&str> = benchgen::full_suite().iter().map(|c| c.name).collect();
                ProtoError::new(format!(
                    "unknown case {name:?} (available: {})",
                    known.join(", ")
                ))
            })?;
            Ok((case.name.to_string(), case.params))
        }
        DesignRef::Inline(params) => Ok((params.name.clone(), params.clone())),
    }
}
