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

mod conn;
mod dispatch;
mod jobs;

pub use conn::MAX_REQUEST_BYTES;
pub use dispatch::Connection;

use crate::cache::SessionCache;
use crate::journal::Journal;
use crate::metrics::ServeMetrics;
use jobs::{JobEntry, JobTable};
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

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
    next_conn: AtomicU64,
    /// Handler ids whose threads have exited and whose `JoinHandle`s
    /// await reaping by the acceptor.
    dead_conns: Mutex<Vec<u64>>,
    /// The write-ahead log, when durability is enabled.
    journal: Option<Journal>,
    /// The resident span ring `trace_dump` serves, when tracing is on.
    trace: Option<tdp_trace::TraceRing>,
}

impl Shared {
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
            next_conn: AtomicU64::new(0),
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
            jobs::replay_journal(&shared, records);
        }

        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("tdp-serve-worker-{i}"))
                    .spawn(move || jobs::worker_loop(&shared))?,
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
                            .spawn(move || conn::handle_connection(conn_shared, stream, conn_id))
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
