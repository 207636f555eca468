//! The resident placement service.
//!
//! One [`Server`] owns a TCP listener, a worker pool fed by a
//! [`parx::TaskQueue`], and the [`SessionCache`]. Connections are
//! line-oriented: each accepted socket gets a handler thread that reads
//! one JSON request per line and writes one (or, for `events`, many)
//! JSON response lines — see [`crate::protocol`] for the grammar. Both
//! ends set `TCP_NODELAY` and send each message with one `write`, so a
//! round trip costs what the daemon does, not a Nagle × delayed-ACK
//! stall.
//!
//! # Execution path
//!
//! A `submit` resolves the design, builds the job's [`FlowSpec`](tdp_core::FlowSpec) through
//! exactly the same [`batch::make_jobs_for`] path a local run uses,
//! reserves a session slot in the cache (hit/miss counted in submit
//! order), appends a job-state record and enqueues its id. A worker pops the
//! id, checks the session out of the slot (building it on first use) and
//! runs [`batch::execute_job`] — the same function the batch runner
//! executes — with a [`SinkObserver`](batch::SinkObserver) streaming progress into the job's
//! event log. Results are therefore **bitwise identical** to a local
//! `Session::run` of the same spec: the daemon adds scheduling and
//! caching around the flow, never arithmetic inside it (the differential
//! test at the workspace root asserts this, placement fingerprint
//! included).
//!
//! # Durability
//!
//! With [`ServerConfig::journal`] set, every submit, state transition,
//! event line and final report is appended to a JSONL write-ahead log
//! (see [`crate::journal`]). On startup the journal is replayed:
//! finished jobs come back with their reports and event logs, unfinished
//! jobs are re-enqueued (their deterministic re-run regenerates the
//! identical event stream and report) or — under
//! [`ServerConfig::replay`]` = false` — resolved as failed-by-restart.
//! [`ServerConfig::retain`] bounds in-memory growth: beyond the cap, the
//! oldest finished jobs' event logs and reports are compacted out of
//! memory and re-served from the journal, byte-identically; a compacted
//! read touches only that job's byte range of the journal.
//!
//! # Shutdown discipline
//!
//! `shutdown` (request or [`ServerHandle::shutdown`]) closes the queue,
//! raises every unfinished job's cancel flag, unblocks the acceptor and
//! shuts every connection socket. Workers drain the backlog (fast-failing
//! jobs that never started), every job reaches a terminal state (so
//! `wait`ers and `events` streams wake), and [`ServerHandle::join`]
//! returns only after the acceptor, every handler and every worker have
//! been joined — no leaked threads, asserted by the serve tests. Handler
//! threads are also reaped *during* operation, as their connections
//! close, so a resident daemon does not accumulate one dead
//! [`JoinHandle`] per served connection.

use crate::cache::{SessionCache, SessionSlot};
use crate::journal::{self, Journal, Located, Record, SubmitRecord};
use crate::metrics::ServeMetrics;
use crate::protocol::{
    design_key, event_line, ok_prefix, parse_request, DesignRef, ProtoError, Request, SubmitRequest,
};
use batch::{
    execute_job, job_json, make_jobs_for, parse_objective, BatchEvent, BatchJob, BatchSink,
    CancelSet, JobReport, JobStatus, Profile,
};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use tdp_core::FlowPhase;

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (the bound address
    /// is on [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads executing jobs (`0` = one per hardware thread).
    pub workers: usize,
    /// Sessions kept hot in the LRU cache.
    pub cache_capacity: usize,
    /// Default event stride for submits that do not set one.
    pub default_stride: usize,
    /// Journal directory (`None` = in-memory only, no durability).
    pub journal: Option<PathBuf>,
    /// On startup, re-enqueue journaled jobs that never finished
    /// (`true`, the default) instead of resolving them failed-by-restart
    /// (`false`, the `--no-replay` policy).
    pub replay: bool,
    /// Retention cap on finished jobs held in memory (`0` = unlimited).
    /// Beyond the cap the oldest finished jobs are compacted: their
    /// event logs and reports are dropped from memory and re-served
    /// from the journal. Requires [`ServerConfig::journal`].
    pub retain: usize,
    /// Event capacity of the resident span ring served by `trace_dump`
    /// (`0` = tracing off). When set, [`Server::start`] enables the
    /// process-wide recorder; spans from requests and jobs are folded
    /// into a bounded ring that evicts whole lane chunks oldest-first.
    /// Tracing never perturbs results — the flow's arithmetic is
    /// identical with it on or off (asserted by the trace differential
    /// test at the workspace root).
    pub trace_ring: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_capacity: 8,
            default_stride: 16,
            journal: None,
            replay: true,
            retain: 0,
            trace_ring: 65_536,
        }
    }
}

/// Terminal-state-aware job phase (the report is boxed so the common
/// non-terminal states stay pointer-sized).
#[derive(Debug)]
enum JobPhase {
    Queued,
    Running,
    Finished(Box<JobReport>),
}

impl JobPhase {
    fn label(&self) -> &str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Finished(r) => r.status.label(),
        }
    }
}

/// Terminal-state label with a `'static` lifetime — a compaction
/// tombstone cannot borrow from the report it replaces.
fn static_label(status: &JobStatus) -> &'static str {
    match status {
        JobStatus::Done => "done",
        JobStatus::Canceled => "canceled",
        JobStatus::Failed(_) => "failed",
    }
}

/// Append-only per-job event log with blocking readers.
#[derive(Debug, Default)]
struct EventLog {
    state: Mutex<EventLogState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct EventLogState {
    lines: Vec<String>,
    closed: bool,
}

impl EventLog {
    /// A closed log pre-populated with journaled lines (for jobs
    /// restored finished — their stream is complete by construction).
    fn restored(lines: Vec<String>) -> Self {
        Self {
            state: Mutex::new(EventLogState {
                lines,
                closed: true,
            }),
            cv: Condvar::new(),
        }
    }

    /// Appends a line, returning its index; `None` when the log is
    /// already closed (the line is dropped).
    fn push(&self, line: &str) -> Option<usize> {
        let mut s = self.state.lock().expect("event log lock");
        let seq = if s.closed {
            None
        } else {
            s.lines.push(line.to_string());
            Some(s.lines.len() - 1)
        };
        drop(s);
        self.cv.notify_all();
        seq
    }

    fn close(&self) {
        self.state.lock().expect("event log lock").closed = true;
        self.cv.notify_all();
    }

    /// Lines currently resident (the quantity `--retain` bounds).
    fn len(&self) -> usize {
        self.state.lock().expect("event log lock").lines.len()
    }

    /// Blocks until lines beyond `index` exist (returning them) or the
    /// log closes with none left (returning an empty vec).
    fn wait_from(&self, index: usize) -> (Vec<String>, bool) {
        let mut s = self.state.lock().expect("event log lock");
        loop {
            if s.lines.len() > index {
                return (s.lines[index..].to_vec(), s.closed);
            }
            if s.closed {
                return (Vec::new(), true);
            }
            s = self.cv.wait(s).expect("event log lock");
        }
    }
}

/// One submitted job and everything needed to run, watch and cancel it.
struct JobState {
    id: usize,
    job: BatchJob,
    key: u64,
    /// Journal offset of the job's `submit` record: where its byte range
    /// (kept on its compaction tombstone) starts.
    journal_from: u64,
    slot: Arc<SessionSlot>,
    stride: usize,
    /// Single-flag cancel set (flag index 0).
    cancel: CancelSet,
    phase: Mutex<JobPhase>,
    cv: Condvar,
    events: EventLog,
}

impl JobState {
    /// Resolves the job terminally: counters, the terminal event line,
    /// the journal's fsync'd `finished` record, phase flip, waiter
    /// wake-up, log close, and retention compaction — in that order, so
    /// a parseable `finished` record on disk implies the complete event
    /// history precedes it.
    fn finish(&self, report: JobReport, shared: &Shared) {
        match report.status {
            JobStatus::Done => ServeMetrics::bump(&shared.metrics.jobs_done),
            JobStatus::Canceled => ServeMetrics::bump(&shared.metrics.jobs_canceled),
            JobStatus::Failed(_) => ServeMetrics::bump(&shared.metrics.jobs_failed),
        }
        let line = event_line("finished", self.id, |s| {
            tdp_jsonio::field_str(s, "state", report.status.label());
            tdp_jsonio::field_raw(s, "report", &job_json(&report));
        });
        shared.push_event(self, &line);
        let journaled = shared.journal_append(&journal::finished_record(self.id, &report), true);
        *self.phase.lock().expect("job phase lock") = JobPhase::Finished(Box::new(report));
        self.cv.notify_all();
        self.events.close();
        // A failed append leaves the end unknown: the range then runs to
        // the end of the file, which holds whatever did reach it.
        let to = journaled.map_or(u64::MAX, |at| at.end);
        shared.note_finished(self.id, self.journal_from..to);
    }

    fn is_finished(&self) -> bool {
        matches!(
            *self.phase.lock().expect("job phase lock"),
            JobPhase::Finished(_)
        )
    }
}

/// A job-table entry: live state, or the tombstone a finished job
/// leaves behind once its memory is compacted under `--retain`.
enum JobEntry {
    Live(Arc<JobState>),
    /// Everything `status`/`events` need that the journal does not
    /// re-derive cheaply; the report and event lines themselves are
    /// re-read on demand from `span`, the job's byte range of the
    /// journal (its `submit` record through its `finished` record).
    Compacted {
        key: u64,
        state: &'static str,
        span: Range<u64>,
    },
}

/// What a job-id lookup resolves to.
enum JobRef {
    Live(Arc<JobState>),
    Compacted {
        id: usize,
        key: u64,
        state: &'static str,
        span: Range<u64>,
    },
}

/// The job table: id-keyed (NOT `Vec`-indexed — compaction must be able
/// to drop a job's memory without renumbering every later job), plus
/// the FIFO of finished jobs still resident, oldest first.
#[derive(Default)]
struct JobTable {
    /// Ids ever assigned; the next submit takes `next_id`.
    next_id: usize,
    entries: HashMap<usize, JobEntry>,
    /// Finished jobs whose state is still in memory, in finish order,
    /// with their journal byte ranges — the compaction queue.
    resident: VecDeque<(usize, Range<u64>)>,
}

/// State shared by the acceptor, handlers and workers.
struct Shared {
    cfg: ServerConfig,
    workers: usize,
    addr: SocketAddr,
    cache: SessionCache,
    metrics: ServeMetrics,
    jobs: Mutex<JobTable>,
    queue: parx::TaskQueue<usize>,
    shutting_down: AtomicBool,
    /// Live connections by id, so shutdown can unblock their reads. A
    /// handler *must* unregister on exit — a resident daemon would
    /// otherwise leak one fd per closed connection.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: std::sync::atomic::AtomicU64,
    /// Handler ids whose threads have exited and whose `JoinHandle`s
    /// await reaping by the acceptor.
    dead_conns: Mutex<Vec<u64>>,
    /// The write-ahead log, when durability is enabled.
    journal: Option<Journal>,
    /// The resident span ring `trace_dump` serves, when tracing is on.
    trace: Option<tdp_trace::TraceRing>,
}

impl Shared {
    fn job(&self, id: usize) -> Option<JobRef> {
        match self.jobs.lock().expect("jobs lock").entries.get(&id) {
            None => None,
            Some(JobEntry::Live(job)) => Some(JobRef::Live(Arc::clone(job))),
            Some(JobEntry::Compacted { key, state, span }) => Some(JobRef::Compacted {
                id,
                key: *key,
                state,
                span: span.clone(),
            }),
        }
    }

    /// Appends one record to the journal, if one is configured,
    /// returning its byte range. Append failures are reported but do not
    /// fail the job — the daemon degrades to in-memory operation rather
    /// than refusing work.
    fn journal_append(&self, record: &str, sync: bool) -> Option<Range<u64>> {
        match self.journal.as_ref()?.append_at(record, sync) {
            Ok(at) => {
                ServeMetrics::bump(&self.metrics.journal_appends);
                Some(at)
            }
            Err(e) => {
                eprintln!("tdp-serve: journal append failed: {e}");
                None
            }
        }
    }

    /// Pushes one line into a job's event log and journals it (unsynced:
    /// event records are made durable by the next transition's fsync on
    /// the same file).
    fn push_event(&self, job: &JobState, line: &str) {
        let Some(seq) = job.events.push(line) else {
            return; // log already closed: terminal state won the race
        };
        if self.journal.is_some() {
            self.journal_append(&journal::event_record(job.id, seq, line), false);
        }
    }

    /// Records a job as finished-and-journaled (within `span` of the
    /// journal) and enforces the retention cap.
    fn note_finished(&self, id: usize, span: Range<u64>) {
        let mut table = self.jobs.lock().expect("jobs lock");
        table.resident.push_back((id, span));
        self.compact_locked(&mut table);
    }

    /// Compacts the oldest finished jobs beyond [`ServerConfig::retain`]:
    /// their `JobState` (event log and report included) is replaced by a
    /// tombstone, and later reads are served from the journal. Only
    /// meaningful with a journal — [`Server::start`] rejects `retain`
    /// without one.
    fn compact_locked(&self, table: &mut JobTable) {
        if self.cfg.retain == 0 || self.journal.is_none() {
            return;
        }
        while table.resident.len() > self.cfg.retain {
            let Some((id, span)) = table.resident.pop_front() else {
                break;
            };
            let Some(entry) = table.entries.get_mut(&id) else {
                continue;
            };
            let JobEntry::Live(job) = entry else { continue };
            let phase = job.phase.lock().expect("job phase lock");
            let JobPhase::Finished(report) = &*phase else {
                continue; // defensive: only finished jobs enter `resident`
            };
            let (key, state) = (job.key, static_label(&report.status));
            drop(phase);
            *entry = JobEntry::Compacted { key, state, span };
            ServeMetrics::bump(&self.metrics.jobs_compacted);
        }
    }

    /// Registers a connection for shutdown teardown; `false` means the
    /// connection is refused — either the server is shutting down, or
    /// the stream could not be cloned into the registry (in which case
    /// serving it would leave a blocking read that
    /// [`Shared::initiate_shutdown`] can never unblock).
    fn register_conn(&self, stream: &TcpStream, id: u64) -> bool {
        let Ok(clone) = stream.try_clone() else {
            return false;
        };
        let mut conns = self.conns.lock().expect("conns lock");
        conns.insert(id, clone);
        // Checked under the conns lock: `initiate_shutdown` sets the
        // flag before sweeping this map, so either we see the flag here
        // or the sweep sees our entry — never neither.
        if self.shutting_down.load(Ordering::SeqCst) {
            conns.remove(&id);
            false
        } else {
            true
        }
    }

    /// Drops a finished connection's registry entry (and its fd).
    fn unregister_conn(&self, id: u64) {
        self.conns.lock().expect("conns lock").remove(&id);
    }

    /// Folds this thread's finished span chunks (and any other chunks
    /// flushed to the registry, e.g. by parx worker threads exiting)
    /// into the resident ring. Called after each request and each job;
    /// a no-op when tracing is off.
    fn absorb_trace(&self) {
        if let Some(ring) = &self.trace {
            tdp_trace::flush_thread();
            ring.absorb(tdp_trace::take());
        }
    }

    fn initiate_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // No new work; workers drain what is queued (fast-failing it).
        self.queue.close();
        // Stop in-flight flows at their next observer callback.
        for entry in self.jobs.lock().expect("jobs lock").entries.values() {
            if let JobEntry::Live(job) = entry {
                if !job.is_finished() {
                    job.cancel.cancel(0);
                }
            }
        }
        // Unblock every handler thread's read/write...
        for conn in self.conns.lock().expect("conns lock").values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // ...and the acceptor.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server. Keep the handle: dropping it shuts the server down
/// and joins every thread.
pub struct ServerHandle {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Initiates shutdown without blocking (idempotent; also triggered
    /// by the wire `shutdown` command).
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Blocks until the server has fully stopped: acceptor, handlers and
    /// workers all joined.
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.initiate_shutdown();
        self.join_inner();
    }
}

/// The service entry point.
pub struct Server;

impl Server {
    /// Binds, replays the journal (when configured), spawns the worker
    /// pool and the acceptor, and returns immediately.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable, journal
    /// open errors, and `InvalidInput` for `retain` without `journal`
    /// (compacted jobs are re-served from the journal; without one,
    /// compaction would destroy their state).
    pub fn start(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        if cfg.retain > 0 && cfg.journal.is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "retain requires a journal: compacted jobs are re-served from the journal",
            ));
        }
        let (journal, records) = match &cfg.journal {
            Some(dir) => {
                let (j, records) = Journal::open(dir)?;
                (Some(j), records)
            }
            None => (None, Vec::new()),
        };
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = parx::resolve_threads(cfg.workers);
        let trace = if cfg.trace_ring > 0 {
            // Enable, never disable: the recorder is process-global and
            // another in-process server (tests) may still be tracing.
            // Enabled tracing only appends to thread-local buffers — it
            // cannot change any result.
            tdp_trace::set_enabled(true);
            Some(tdp_trace::TraceRing::new(cfg.trace_ring))
        } else {
            None
        };
        let shared = Arc::new(Shared {
            cache: SessionCache::new(cfg.cache_capacity),
            metrics: ServeMetrics::new(),
            jobs: Mutex::new(JobTable::default()),
            queue: parx::TaskQueue::new(),
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn: std::sync::atomic::AtomicU64::new(0),
            dead_conns: Mutex::new(Vec::new()),
            journal,
            trace,
            workers,
            addr,
            cfg,
        });

        // Replay before any worker or connection exists: recovered jobs
        // must be visible (and re-enqueued jobs queued, in id order)
        // before the first post-restart request lands.
        if !records.is_empty() {
            replay_journal(&shared, records);
        }

        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("tdp-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }

        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tdp-serve-acceptor".to_string())
                .spawn(move || {
                    let mut handlers: HashMap<u64, JoinHandle<()>> = HashMap::new();
                    for stream in listener.incoming() {
                        // Reap handlers whose connections have closed —
                        // a resident daemon must not accumulate one
                        // dead JoinHandle per served connection.
                        reap_dead_handlers(&shared, &mut handlers);
                        if shared.shutting_down.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                        let conn_shared = Arc::clone(&shared);
                        if let Ok(h) = std::thread::Builder::new()
                            .name("tdp-serve-conn".to_string())
                            .spawn(move || handle_connection(&conn_shared, stream, conn_id))
                        {
                            handlers.insert(conn_id, h);
                        }
                    }
                    reap_dead_handlers(&shared, &mut handlers);
                    for (_, h) in handlers.drain() {
                        let _ = h.join();
                        ServeMetrics::bump(&shared.metrics.conns_reaped);
                    }
                    for h in worker_handles {
                        let _ = h.join();
                    }
                })?
        };

        Ok(ServerHandle {
            shared,
            supervisor: Some(supervisor),
        })
    }
}

/// Joins the handlers whose connections have announced their exit via
/// `dead_conns`. An id whose handle is not registered yet (the handler
/// exited before the acceptor inserted it) is put back for the next
/// sweep.
fn reap_dead_handlers(shared: &Shared, handlers: &mut HashMap<u64, JoinHandle<()>>) {
    let dead = std::mem::take(&mut *shared.dead_conns.lock().expect("dead conns lock"));
    let mut unmatched = Vec::new();
    for id in dead {
        match handlers.remove(&id) {
            Some(h) => {
                let _ = h.join();
                ServeMetrics::bump(&shared.metrics.conns_reaped);
            }
            None => unmatched.push(id),
        }
    }
    if !unmatched.is_empty() {
        shared
            .dead_conns
            .lock()
            .expect("dead conns lock")
            .extend(unmatched);
    }
}

// ---------------------------------------------------------------------
// Journal replay
// ---------------------------------------------------------------------

/// Rebuilds the job table from the journal's records: finished jobs are
/// restored with their reports and event logs (no done/failed counter
/// bumps — they were counted by the instance that ran them), unfinished
/// jobs are re-enqueued in id order (deterministic re-runs regenerate
/// their exact event streams and reports) or, under `replay = false`,
/// resolved failed-by-restart through the normal finish path (which
/// journals the terminal record, so later restarts agree).
fn replay_journal(shared: &Shared, records: Vec<Located>) {
    // Submits and reports keep the journal offsets that bound each job's
    // byte range: its `submit` record's start, its `finished` record's end.
    let mut submits: Vec<(u64, Box<SubmitRecord>)> = Vec::new();
    let mut events: HashMap<usize, Vec<String>> = HashMap::new();
    let mut finished: HashMap<usize, (Box<JobReport>, u64)> = HashMap::new();
    let replayed = records.len() as u64;
    for (at, rec) in records {
        match rec {
            Record::Submit(sub) => submits.push((at.start, sub)),
            // Scheduler state is rebuilt from scratch, not trusted: a
            // journaled "running" only means the crash interrupted it.
            Record::State { .. } => {}
            Record::Event { job, seq, line } => {
                let lines = events.entry(job).or_default();
                // seq == len: append. seq < len: a pre-crash attempt's
                // duplicate of a line the re-run regenerated identically
                // (determinism) — keep the first copy. seq > len cannot
                // survive the open-time truncation; ignore defensively.
                if seq == lines.len() {
                    lines.push(line);
                }
            }
            Record::Finished { job, report } => {
                finished.insert(job, (report, at.end));
            }
        }
    }
    shared
        .metrics
        .journal_replays
        .fetch_add(replayed, Ordering::Relaxed);

    let mut recovered = 0u64;
    let mut failed_by_restart: Vec<Arc<JobState>> = Vec::new();
    for (from, sub) in submits {
        let id = sub.job;
        let (report, to) = finished.remove(&id).unzip();
        let state = match rebuild_job_state(shared, &sub, from, report, &mut events) {
            Ok(state) => state,
            Err(msg) => {
                eprintln!("tdp-serve: journal replay skipped job {id}: {msg}");
                continue;
            }
        };
        let restored_finished = state.is_finished();
        {
            let mut table = shared.jobs.lock().expect("jobs lock");
            table.entries.insert(id, JobEntry::Live(Arc::clone(&state)));
            table.next_id = table.next_id.max(id + 1);
            if let Some(to) = to {
                table.resident.push_back((id, from..to));
            }
        }
        recovered += 1;
        if !restored_finished {
            if shared.cfg.replay {
                // Workers have not spawned yet; the push cannot race a
                // closed queue.
                shared.queue.push(id);
            } else {
                failed_by_restart.push(state);
            }
        }
    }
    for state in failed_by_restart {
        state.finish(
            failed_report(
                &state,
                "job interrupted by daemon restart (replay disabled)".into(),
            ),
            shared,
        );
    }
    shared
        .metrics
        .jobs_recovered
        .fetch_add(recovered, Ordering::Relaxed);
    let mut table = shared.jobs.lock().expect("jobs lock");
    shared.compact_locked(&mut table);
}

/// Reconstructs one journaled job's `JobState`. With `report`, the job
/// comes back finished: closed pre-populated event log, detached
/// session slot (it will never run). Without, it comes back queued with
/// an empty log, holding a real cache slot for its re-run (the checkout
/// does not count as a cache hit/miss — replay is recovery, not a
/// submit).
fn rebuild_job_state(
    shared: &Shared,
    sub: &SubmitRecord,
    journal_from: u64,
    report: Option<Box<JobReport>>,
    events: &mut HashMap<usize, Vec<String>>,
) -> Result<Arc<JobState>, String> {
    let objective = parse_objective(&sub.objective)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| {
            format!(
                "journaled objective {:?} is not a single objective",
                sub.objective
            )
        })?;
    let profile = Profile::parse(&sub.profile).map_err(|e| e.to_string())?;
    let mut jobs = make_jobs_for(
        &sub.name,
        &sub.params,
        Some(&objective),
        profile,
        &sub.overrides,
    )
    .map_err(|e| e.to_string())?;
    if jobs.len() != 1 {
        return Err(format!("rebuilt {} jobs, expected 1", jobs.len()));
    }
    let job = jobs.remove(0);
    let key = design_key(&sub.params);
    let (slot, phase, log) = match report {
        Some(report) => (
            // Never runs again: no reason to hold (or build) a session.
            Arc::new(SessionSlot::default()),
            JobPhase::Finished(report),
            EventLog::restored(events.remove(&sub.job).unwrap_or_default()),
        ),
        None => {
            let (slot, _hit, _evictions) = shared.cache.checkout(key)?;
            // The pre-crash attempt's partial event lines are dropped:
            // the deterministic re-run regenerates every one of them
            // (journal replay dedupes the re-journaled copies by seq).
            (slot, JobPhase::Queued, EventLog::default())
        }
    };
    Ok(Arc::new(JobState {
        id: sub.job,
        job,
        key,
        journal_from,
        slot,
        stride: sub.stride.max(1),
        cancel: CancelSet::new(1),
        phase: Mutex::new(phase),
        cv: Condvar::new(),
        events: log,
    }))
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// Renders flow events into the job's event log (journaling each line).
struct LogSink<'a> {
    shared: &'a Shared,
    job: &'a JobState,
}

impl BatchSink for LogSink<'_> {
    fn on_event(&self, event: &BatchEvent) {
        let line = match event {
            BatchEvent::JobStarted {
                job,
                case,
                objective,
            } => event_line("started", *job, |s| {
                tdp_jsonio::field_str(s, "case", case);
                tdp_jsonio::field_str(s, "objective", objective);
            }),
            BatchEvent::Phase { job, phase } => event_line("phase", *job, |s| {
                let name = match phase {
                    FlowPhase::Setup => "setup",
                    FlowPhase::GlobalPlacement => "global_placement",
                    FlowPhase::Legalization => "legalization",
                    FlowPhase::Evaluation => "evaluation",
                };
                tdp_jsonio::field_str(s, "phase", name);
            }),
            BatchEvent::Iteration {
                job,
                iter,
                hpwl,
                overflow,
            } => event_line("iteration", *job, |s| {
                tdp_jsonio::field_num(s, "iter", *iter as f64);
                tdp_jsonio::field_num(s, "hpwl", *hpwl);
                tdp_jsonio::field_num(s, "overflow", *overflow);
            }),
            BatchEvent::TimingAnalysis {
                job,
                iter,
                tns,
                wns,
            } => event_line("timing", *job, |s| {
                tdp_jsonio::field_num(s, "iter", *iter as f64);
                tdp_jsonio::field_num(s, "tns", *tns);
                tdp_jsonio::field_num(s, "wns", *wns);
            }),
            BatchEvent::Congestion {
                job,
                iter,
                peak,
                overflow,
            } => event_line("congestion", *job, |s| {
                tdp_jsonio::field_num(s, "iter", *iter as f64);
                tdp_jsonio::field_num(s, "peak", *peak);
                tdp_jsonio::field_num(s, "overflow", *overflow);
            }),
            // The terminal line is pushed by `JobState::finish` (which
            // also closes the log), not by the sink.
            BatchEvent::JobFinished { .. } => return,
        };
        self.shared.push_event(self.job, &line);
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(id) = shared.queue.pop() {
        let Some(JobRef::Live(job)) = shared.job(id) else {
            continue;
        };
        {
            let _span = tdp_trace::span_job("serve.job", "serve", id as u64);
            run_job(shared, &job);
        }
        shared.absorb_trace();
    }
}

/// The report of a job that could not run (mirrors the batch runner's
/// failed-report shape).
fn failed_report(job: &JobState, msg: String) -> JobReport {
    JobReport {
        job: job.id,
        case: job.job.case.clone(),
        objective: job.job.spec.objective().label(),
        cells: 0,
        nets: 0,
        status: JobStatus::Failed(msg),
        iterations: 0,
        legal: false,
        metrics: None,
        congestion: None,
        placement_hash: 0,
        runtime: Default::default(),
    }
}

/// Best-effort text of a panic payload.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_job(shared: &Shared, job: &JobState) {
    if shared.shutting_down.load(Ordering::SeqCst) {
        // Drained off the closed queue: never started, fail fast so
        // waiters wake and shutdown stays prompt.
        job.finish(
            failed_report(job, "server shut down before the job started".into()),
            shared,
        );
        return;
    }
    *job.phase.lock().expect("job phase lock") = JobPhase::Running;
    shared.journal_append(&journal::state_record(job.id, "running"), true);
    let sink = LogSink { shared, job };
    sink.on_event(&BatchEvent::JobStarted {
        job: job.id,
        case: job.job.case.clone(),
        objective: job.job.spec.objective().label(),
    });
    // One catch_unwind around *everything* that can assert — design
    // generation and session construction included (inline params are
    // only type-checked at submit, so the generator may still reject
    // them with a panic). A panic must fail the job, never the worker:
    // a dead worker would strand the queue and every waiter.
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match job.slot.session(&job.job.params) {
            Err(msg) => failed_report(job, msg),
            Ok(session_mutex) => match session_mutex.lock() {
                // A panic inside an earlier job poisoned this design's
                // session; fail cleanly rather than run on half-updated
                // state (same policy as the batch runner's group
                // poisoning).
                Err(_) => failed_report(
                    job,
                    "session poisoned by a previous job's panic on this design".into(),
                ),
                Ok(mut session) => execute_job(
                    job.id,
                    &job.job,
                    &mut session,
                    &sink,
                    &job.cancel,
                    0,
                    job.stride,
                ),
            },
        }
    }));
    let report = attempt.unwrap_or_else(|payload| {
        failed_report(job, format!("job panicked: {}", panic_text(payload)))
    });
    job.finish(report, shared);
}

// ---------------------------------------------------------------------
// Connection side
// ---------------------------------------------------------------------

/// A connection's write half. Every message — one response line, or a
/// batch of `events` lines — is framed with its newlines in one reused
/// buffer and sent with a single `write_all`, so with `TCP_NODELAY` set
/// it leaves as one segment rather than a line and a lone `\n` that
/// Nagle holds back until the peer's delayed ACK.
struct Wire {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Wire {
    /// Buffer capacity kept between messages; a larger message (a
    /// `trace_dump`, a long event replay) releases its excess after
    /// sending rather than holding it for the connection's lifetime.
    const KEEP: usize = 64 << 10;

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.send_all([line])
    }

    fn send_all<'a>(&mut self, lines: impl IntoIterator<Item = &'a str>) -> std::io::Result<()> {
        for line in lines {
            self.buf.extend_from_slice(line.as_bytes());
            self.buf.push(b'\n');
        }
        let sent = self.stream.write_all(&self.buf);
        self.buf.clear();
        self.buf.shrink_to(Self::KEEP);
        sent
    }
}

/// Per-connection ECO state: one open [`eco::EcoSession`] plus the
/// cache pin that keeps its design resident for the session's lifetime.
struct EcoConn {
    key: u64,
    /// Keeps the slot alive even if the cache entry were dropped; the
    /// pin makes that impossible, but the `Arc` costs nothing and makes
    /// the session's independence from cache internals explicit.
    _slot: Arc<SessionSlot>,
    eco: eco::EcoSession,
}

/// Releases an ECO session's cache pin and folds its cumulative stats
/// into the server metrics. Shared by `eco_close` and the disconnect
/// path, so a vanished client can never leak a pin.
fn close_eco(shared: &Shared, conn: EcoConn) -> tdp_core::EcoStats {
    let stats = conn.eco.stats();
    shared.metrics.fold_eco(&stats);
    shared.cache.unpin(conn.key);
    stats
}

/// The connection's open ECO session, or the uniform "open one first"
/// protocol error.
fn eco_session(conn: &mut Option<EcoConn>) -> Result<&mut EcoConn, ProtoError> {
    conn.as_mut()
        .ok_or_else(|| ProtoError::new("no eco session open on this connection (eco_open first)"))
}

fn handle_connection(shared: &Shared, stream: TcpStream, conn_id: u64) {
    if shared.register_conn(&stream, conn_id) {
        serve_requests(shared, stream);
        shared.unregister_conn(conn_id);
    } else {
        let _ = stream.shutdown(Shutdown::Both);
    }
    // On every exit path — refused connections included — hand this
    // handler's id to the acceptor so its JoinHandle is reaped.
    shared
        .dead_conns
        .lock()
        .expect("dead conns lock")
        .push(conn_id);
}

/// The per-connection request loop; returns on EOF, socket teardown or
/// a failed write.
fn serve_requests(shared: &Shared, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // Best effort: without it replies are merely slower, never wrong.
    let _ = stream.set_nodelay(true);
    let mut writer = Wire {
        stream,
        buf: Vec::new(),
    };
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    let mut eco_conn: Option<EcoConn> = None;
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break, // EOF or torn-down socket
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        ServeMetrics::bump(&shared.metrics.requests);
        let outcome = match parse_request(line.trim_end()) {
            Err(e) => writer.send(&e.to_response()),
            Ok(request) => {
                let (verb, span_name, job) = request_names(&request);
                let t0 = std::time::Instant::now();
                let result = {
                    let _span = match job {
                        Some(id) => tdp_trace::span_job(span_name, "serve", id),
                        None => tdp_trace::span(span_name, "serve"),
                    };
                    dispatch(shared, request, &mut writer, &mut eco_conn)
                };
                shared
                    .metrics
                    .latency
                    .observe(verb, t0.elapsed().as_secs_f64());
                shared.absorb_trace();
                result
            }
        };
        if outcome.is_err() {
            break; // client went away mid-response
        }
    }
    // Disconnect auto-close: release the pin and account the session's
    // stats even when the client never sent `eco_close`.
    if let Some(conn) = eco_conn.take() {
        close_eco(shared, conn);
    }
}

/// One pass over the job table: scheduler gauges plus the congestion
/// aggregates of every finished report still resident. Compaction
/// removes a finished job's report from memory, so on a retention-capped
/// server the congestion aggregates cover the retained window, not all
/// time. Iteration is in id order: the float sum must be deterministic.
fn snapshot(shared: &Shared) -> (crate::metrics::Gauges, (usize, f64, f64)) {
    let table = shared.jobs.lock().expect("jobs lock");
    let mut queued = 0usize;
    let mut running = 0usize;
    let mut events_resident = 0usize;
    let mut congestion = (0usize, 0.0f64, 0.0f64); // (jobs, Σ overflow, peak max)
    for id in 0..table.next_id {
        let Some(JobEntry::Live(j)) = table.entries.get(&id) else {
            continue;
        };
        events_resident += j.events.len();
        match &*j.phase.lock().expect("job phase lock") {
            JobPhase::Queued => queued += 1,
            JobPhase::Running => running += 1,
            JobPhase::Finished(report) => {
                if let Some(c) = report.congestion {
                    congestion.0 += 1;
                    congestion.1 += c.overflow;
                    congestion.2 = congestion.2.max(c.peak);
                }
            }
        }
    }
    (
        crate::metrics::Gauges {
            workers: shared.workers,
            jobs_total: table.next_id,
            jobs_queued: queued,
            jobs_running: running,
            cache_entries: shared.cache.len(),
            cache_capacity: shared.cache.capacity(),
            events_resident,
        },
        congestion,
    )
}

/// The wire verb, span name and (when the request addresses one) job id
/// of a request — static strings so the histogram and span recorder can
/// label without allocating.
fn request_names(req: &Request) -> (&'static str, &'static str, Option<u64>) {
    match req {
        Request::Submit(_) => ("submit", "serve.submit", None),
        Request::Status { job } => ("status", "serve.status", Some(*job as u64)),
        Request::Wait { job } => ("wait", "serve.wait", Some(*job as u64)),
        Request::Events { job, .. } => ("events", "serve.events", Some(*job as u64)),
        Request::Cancel { job } => ("cancel", "serve.cancel", Some(*job as u64)),
        Request::Metrics => ("metrics", "serve.metrics", None),
        Request::MetricsText => ("metrics_text", "serve.metrics_text", None),
        Request::Shutdown => ("shutdown", "serve.shutdown", None),
        Request::EcoOpen { .. } => ("eco_open", "serve.eco_open", None),
        Request::EcoApply { .. } => ("eco_apply", "serve.eco_apply", None),
        Request::EcoQuery { .. } => ("eco_query", "serve.eco_query", None),
        Request::EcoRevert { .. } => ("eco_revert", "serve.eco_revert", None),
        Request::EcoClose => ("eco_close", "serve.eco_close", None),
        Request::TraceDump => ("trace_dump", "serve.trace_dump", None),
    }
}

/// Handles one request; `Err` means the socket died and the connection
/// loop should end. `eco_conn` is the connection's ECO session slot —
/// the `eco_*` verbs operate on it and every other verb ignores it.
fn dispatch(
    shared: &Shared,
    request: Request,
    writer: &mut Wire,
    eco_conn: &mut Option<EcoConn>,
) -> std::io::Result<()> {
    match request {
        Request::Submit(req) => match handle_submit(shared, &req) {
            Err(e) => writer.send(&e.to_response()),
            Ok(response) => writer.send(&response),
        },
        Request::Status { job } => match shared.job(job) {
            None => writer.send(&unknown_job(job)),
            Some(JobRef::Live(j)) => writer.send(&render_status("status", &j)),
            Some(JobRef::Compacted { id, key, span, .. }) => {
                match render_compacted_status(shared, "status", id, key, span) {
                    Err(e) => writer.send(&e.to_response()),
                    Ok(s) => writer.send(&s),
                }
            }
        },
        Request::Wait { job } => match shared.job(job) {
            None => writer.send(&unknown_job(job)),
            Some(JobRef::Live(j)) => {
                let mut phase = j.phase.lock().expect("job phase lock");
                while !matches!(*phase, JobPhase::Finished(_)) {
                    phase = j.cv.wait(phase).expect("job phase lock");
                }
                drop(phase);
                writer.send(&render_status("wait", &j))
            }
            // Compacted jobs are terminal by construction: answer now.
            Some(JobRef::Compacted { id, key, span, .. }) => {
                match render_compacted_status(shared, "wait", id, key, span) {
                    Err(e) => writer.send(&e.to_response()),
                    Ok(s) => writer.send(&s),
                }
            }
        },
        Request::Events { job, from } => match shared.job(job) {
            None => writer.send(&unknown_job(job)),
            Some(JobRef::Live(j)) => {
                ServeMetrics::bump(&shared.metrics.event_streams);
                let mut index = from;
                let mut sent = 0usize;
                loop {
                    let (lines, closed) = j.events.wait_from(index);
                    if lines.is_empty() && closed {
                        if sent == 0 {
                            // `from` pointed at or past the terminal
                            // `finished` line, so the stream replayed
                            // nothing. Emit an explicit terminator —
                            // a silent empty stream would deadlock a
                            // client waiting for a terminal event.
                            let state = j.phase.lock().expect("job phase lock").label().to_string();
                            let end = event_line("end", j.id, |s| {
                                tdp_jsonio::field_str(s, "state", &state);
                            });
                            return writer.send(&end);
                        }
                        return Ok(());
                    }
                    index += lines.len();
                    sent += lines.len();
                    writer.send_all(lines.iter().map(String::as_str))?;
                }
            }
            Some(JobRef::Compacted {
                id, state, span, ..
            }) => {
                ServeMetrics::bump(&shared.metrics.event_streams);
                // The journal holds the complete stream (terminal
                // `finished` line included); replay the requested
                // suffix byte-identically to the live stream.
                let lines = shared
                    .journal
                    .as_ref()
                    .and_then(|j| journal::read_compacted(j.path(), id, span).ok())
                    .map(|c| c.events)
                    .unwrap_or_default();
                if from < lines.len() {
                    writer.send_all(lines[from..].iter().map(String::as_str))
                } else {
                    let end = event_line("end", id, |s| {
                        tdp_jsonio::field_str(s, "state", state);
                    });
                    writer.send(&end)
                }
            }
        },
        Request::Cancel { job } => match shared.job(job) {
            None => writer.send(&unknown_job(job)),
            Some(j) => {
                // Compacted jobs are already terminal; cancel is the
                // same no-op it is for a live finished job.
                if let JobRef::Live(j) = &j {
                    j.cancel.cancel(0);
                }
                let mut s = ok_prefix("cancel");
                tdp_jsonio::field_num(&mut s, "job", job as f64);
                s.push('}');
                writer.send(&s)
            }
        },
        Request::Metrics => {
            let (gauges, congestion) = snapshot(shared);
            let mut s = ok_prefix("metrics");
            shared.metrics.render(&mut s, &gauges);
            tdp_jsonio::field_num(&mut s, "congestion_jobs", congestion.0 as f64);
            tdp_jsonio::field_num(&mut s, "congestion_overflow_sum", congestion.1);
            tdp_jsonio::field_num(&mut s, "congestion_peak_max", congestion.2);
            s.push('}');
            writer.send(&s)
        }
        Request::MetricsText => {
            let (gauges, _) = snapshot(shared);
            let text = shared.metrics.render_prometheus(&gauges);
            let mut s = ok_prefix("metrics_text");
            tdp_jsonio::field_str(&mut s, "text", &text);
            s.push('}');
            writer.send(&s)
        }
        Request::Shutdown => {
            let mut s = ok_prefix("shutdown");
            tdp_jsonio::field_num(
                &mut s,
                "jobs",
                shared.jobs.lock().expect("jobs lock").next_id as f64,
            );
            s.push('}');
            let result = writer.send(&s);
            shared.initiate_shutdown();
            result
        }
        Request::EcoOpen { design } => match handle_eco_open(shared, eco_conn, &design) {
            Err(e) => writer.send(&e.to_response()),
            Ok(response) => writer.send(&response),
        },
        Request::EcoApply { deltas } => {
            let response = eco_session(eco_conn).and_then(|conn| {
                let batch = eco::delta_batch_from_json(conn.eco.design(), &deltas)
                    .map_err(ProtoError::new)?;
                let summary = conn
                    .eco
                    .apply(&batch)
                    .map_err(|e| ProtoError::new(e.to_string()))?;
                ServeMetrics::bump(&shared.metrics.eco_applies);
                let mut s = ok_prefix("eco_apply");
                tdp_jsonio::field_num(&mut s, "moved_cells", summary.moved_cells.len() as f64);
                tdp_jsonio::field_num(&mut s, "dirty_nets", summary.dirty_nets.len() as f64);
                tdp_jsonio::field_num(&mut s, "checkpoint", conn.eco.checkpoint() as f64);
                s.push('}');
                Ok(s)
            });
            match response {
                Err(e) => writer.send(&e.to_response()),
                Ok(s) => writer.send(&s),
            }
        }
        Request::EcoQuery { full, paths } => {
            let response = eco_session(eco_conn).map(|conn| {
                match full {
                    Some(true) => conn.eco.reanalyze(eco::EcoMode::Full),
                    Some(false) => conn.eco.reanalyze(eco::EcoMode::Incremental),
                    None => {}
                }
                ServeMetrics::bump(&shared.metrics.eco_queries);
                let mut s = ok_prefix("eco_query");
                tdp_jsonio::field_raw(&mut s, "result", &conn.eco.query(paths).to_json().encode());
                s.push('}');
                s
            });
            match response {
                Err(e) => writer.send(&e.to_response()),
                Ok(s) => writer.send(&s),
            }
        }
        Request::EcoRevert { to } => {
            let response = eco_session(eco_conn).and_then(|conn| {
                match to {
                    Some(cp) => conn.eco.revert_to(cp),
                    None => conn.eco.revert(),
                }
                .map_err(|e| ProtoError::new(e.to_string()))?;
                ServeMetrics::bump(&shared.metrics.eco_reverts);
                let mut s = ok_prefix("eco_revert");
                tdp_jsonio::field_num(&mut s, "checkpoint", conn.eco.checkpoint() as f64);
                s.push('}');
                Ok(s)
            });
            match response {
                Err(e) => writer.send(&e.to_response()),
                Ok(s) => writer.send(&s),
            }
        }
        Request::EcoClose => match eco_conn.take() {
            None => writer.send(
                &ProtoError::new("no eco session open on this connection (eco_open first)")
                    .to_response(),
            ),
            Some(conn) => {
                let stats = close_eco(shared, conn);
                let mut s = ok_prefix("eco_close");
                tdp_jsonio::field_num(&mut s, "queries", stats.queries as f64);
                tdp_jsonio::field_num(&mut s, "cells_moved", stats.cells_moved as f64);
                tdp_jsonio::field_num(&mut s, "dirty_nets", stats.dirty_nets as f64);
                tdp_jsonio::field_num(&mut s, "incremental_ns", stats.incremental_ns as f64);
                tdp_jsonio::field_num(&mut s, "full_ns", stats.full_ns as f64);
                s.push('}');
                writer.send(&s)
            }
        },
        Request::TraceDump => match &shared.trace {
            None => writer.send(
                &ProtoError::new("tracing is disabled on this server (--trace-ring 0)")
                    .to_response(),
            ),
            Some(ring) => {
                let chunks = ring.snapshot();
                let trace = tdp_trace::chrome_trace(&chunks);
                let events: usize = chunks.iter().map(|c| c.events.len()).sum();
                let mut s = ok_prefix("trace_dump");
                tdp_jsonio::field_num(&mut s, "events", events as f64);
                tdp_jsonio::field_raw(&mut s, "trace", &trace.encode());
                s.push('}');
                writer.send(&s)
            }
        },
    }
}

fn handle_eco_open(
    shared: &Shared,
    eco_conn: &mut Option<EcoConn>,
    design: &DesignRef,
) -> Result<String, ProtoError> {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return Err(ProtoError::new("server is shutting down"));
    }
    if eco_conn.is_some() {
        return Err(ProtoError::new(
            "an eco session is already open on this connection (eco_close first)",
        ));
    }
    let (_name, params) = resolve_design(design)?;
    let key = design_key(&params);
    let (slot, hit, evictions) = shared.cache.checkout_pinned(key).map_err(ProtoError::new)?;
    if hit {
        ServeMetrics::bump(&shared.metrics.cache_hits);
    } else {
        ServeMetrics::bump(&shared.metrics.cache_misses);
    }
    for _ in 0..evictions {
        ServeMetrics::bump(&shared.metrics.cache_evictions);
    }
    let opened = slot
        .session(&params)
        .and_then(|session_mutex| {
            session_mutex.lock().map_err(|_| {
                "session poisoned by a previous job's panic on this design".to_string()
            })
        })
        .map(|session| {
            // Server-side ECO sessions analyze single-threaded: answers
            // must be bitwise reproducible regardless of daemon sizing.
            eco::EcoSession::open(&session, eco::rc_params_for(&params), 1)
        });
    let eco = match opened {
        Ok(eco) => eco,
        Err(msg) => {
            // The open failed after the pin was taken; release it or
            // the broken design would block eviction forever.
            shared.cache.unpin(key);
            return Err(ProtoError::new(msg));
        }
    };
    ServeMetrics::bump(&shared.metrics.eco_opens);
    let mut s = ok_prefix("eco_open");
    tdp_jsonio::field_str(&mut s, "design", &format!("{key:#018x}"));
    tdp_jsonio::field_bool(&mut s, "cached", hit);
    tdp_jsonio::field_num(&mut s, "cells", eco.design().num_cells() as f64);
    tdp_jsonio::field_num(&mut s, "nets", eco.design().num_nets() as f64);
    tdp_jsonio::field_num(&mut s, "clock_period", eco.design().sdc().clock_period);
    s.push('}');
    *eco_conn = Some(EcoConn {
        key,
        _slot: slot,
        eco,
    });
    Ok(s)
}

fn unknown_job(job: usize) -> String {
    ProtoError::new(format!("unknown job {job}")).to_response()
}

fn render_status(cmd: &str, job: &JobState) -> String {
    let phase = job.phase.lock().expect("job phase lock");
    let mut s = ok_prefix(cmd);
    tdp_jsonio::field_num(&mut s, "job", job.id as f64);
    tdp_jsonio::field_str(&mut s, "state", phase.label());
    tdp_jsonio::field_str(&mut s, "design", &format!("{:#018x}", job.key));
    if let JobPhase::Finished(report) = &*phase {
        tdp_jsonio::field_raw(&mut s, "report", &job_json(report));
    }
    s.push('}');
    s
}

/// Re-renders a compacted job's `status`/`wait` response from its
/// journaled report — byte-identical to what [`render_status`] produced
/// while the job was resident (the journal round-trip is exact).
fn render_compacted_status(
    shared: &Shared,
    cmd: &str,
    id: usize,
    key: u64,
    span: Range<u64>,
) -> Result<String, ProtoError> {
    let journal = shared
        .journal
        .as_ref()
        .ok_or_else(|| ProtoError::new(format!("job {id} was compacted without a journal")))?;
    let compacted = journal::read_compacted(journal.path(), id, span)
        .map_err(|e| ProtoError::new(format!("journal read failed for job {id}: {e}")))?;
    let report = compacted
        .report
        .ok_or_else(|| ProtoError::new(format!("journal holds no report for job {id}")))?;
    let mut s = ok_prefix(cmd);
    tdp_jsonio::field_num(&mut s, "job", id as f64);
    tdp_jsonio::field_str(&mut s, "state", report.status.label());
    tdp_jsonio::field_str(&mut s, "design", &format!("{key:#018x}"));
    tdp_jsonio::field_raw(&mut s, "report", &job_json(&report));
    s.push('}');
    Ok(s)
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

fn handle_submit(shared: &Shared, req: &SubmitRequest) -> Result<String, ProtoError> {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return Err(ProtoError::new("server is shutting down"));
    }
    let (name, params) = resolve_design(&req.design)?;
    let objective = parse_objective(&req.objective)
        .map_err(|e| ProtoError::new(e.to_string()))?
        .ok_or_else(|| {
            ProtoError::new(
                "objective \"all\" is not valid on the wire; submit one job per objective",
            )
        })?;
    let profile = Profile::parse(&req.profile).map_err(|e| ProtoError::new(e.to_string()))?;
    let mut jobs = make_jobs_for(&name, &params, Some(&objective), profile, &req.overrides)
        .map_err(|e| ProtoError::new(e.to_string()))?;
    debug_assert_eq!(jobs.len(), 1, "one objective yields one job");
    let job = jobs.remove(0);

    let key = design_key(&params);
    let (slot, hit, evictions) = shared.cache.checkout(key).map_err(ProtoError::new)?;
    if hit {
        ServeMetrics::bump(&shared.metrics.cache_hits);
    } else {
        ServeMetrics::bump(&shared.metrics.cache_misses);
    }
    for _ in 0..evictions {
        ServeMetrics::bump(&shared.metrics.cache_evictions);
    }

    let stride = req.stride.unwrap_or(shared.cfg.default_stride).max(1);
    let state = {
        let mut table = shared.jobs.lock().expect("jobs lock");
        let id = table.next_id;
        table.next_id += 1;
        // Journaled under the table lock so submit records land on disk
        // in id order — replay depends on it (and the WAL rule: the
        // record is durable before the job is visible).
        let journal_from = if shared.journal.is_some() {
            let rec = SubmitRecord {
                job: id,
                name: name.clone(),
                params: params.clone(),
                objective: req.objective.clone(),
                profile: req.profile.clone(),
                overrides: req.overrides.clone(),
                stride,
                key,
            };
            // A failed append leaves 0: the job's range then starts at
            // the top of the journal, which still holds all its records.
            shared
                .journal_append(&journal::submit_record(&rec), true)
                .map_or(0, |at| at.start)
        } else {
            0
        };
        let state = Arc::new(JobState {
            id,
            job,
            key,
            journal_from,
            slot,
            stride,
            cancel: CancelSet::new(1),
            phase: Mutex::new(JobPhase::Queued),
            cv: Condvar::new(),
            events: EventLog::default(),
        });
        table.entries.insert(id, JobEntry::Live(Arc::clone(&state)));
        state
    };
    ServeMetrics::bump(&shared.metrics.submits);
    tdp_trace::mark("serve.submitted", "serve", Some(state.id as u64));
    if !shared.queue.push(state.id) {
        // Shutdown raced the submit; resolve the job terminally so
        // status/wait/events still behave.
        state.finish(
            failed_report(&state, "server shut down before the job started".into()),
            shared,
        );
    }
    let mut s = ok_prefix("submit");
    tdp_jsonio::field_num(&mut s, "job", state.id as f64);
    tdp_jsonio::field_str(&mut s, "design", &format!("{key:#018x}"));
    tdp_jsonio::field_bool(&mut s, "cached", hit);
    s.push('}');
    Ok(s)
}
