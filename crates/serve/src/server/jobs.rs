//! The job side of the daemon: the id-keyed job table, per-job event
//! logs, retention compaction, journal replay and the worker loop.

use super::Shared;
use crate::cache::SessionSlot;
use crate::journal::{self, FinishedJob, Located, Record, SubmitRecord};
use crate::metrics::{Gauges, ServeMetrics};
use crate::protocol::{event_line, ProtoError};
use batch::{
    execute_job, failed_report, make_jobs_for, panic_message, parse_objective, BatchEvent,
    BatchJob, BatchSink, CancelSet, JobReport, JobStatus, Profile,
};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use tdp_core::FlowPhase;

/// Terminal-state-aware job phase.
#[derive(Debug)]
pub(super) enum JobPhase {
    Queued,
    Running,
    Finished(FinishedJob),
}

impl JobPhase {
    pub(super) fn label(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Finished(f) => f.status,
        }
    }

    /// The finished job's wire report.
    pub(super) fn report(&self) -> Option<&str> {
        match self {
            JobPhase::Finished(f) => Some(&f.report),
            _ => None,
        }
    }
}

/// Append-only per-job event log with blocking readers.
#[derive(Debug, Default)]
pub(super) struct EventLog {
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
    pub(super) fn wait_from(&self, index: usize) -> (Vec<String>, bool) {
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
pub(super) struct JobState {
    pub(super) id: usize,
    job: BatchJob,
    pub(super) key: u64,
    /// Journal offset of the job's `submit` record: where its byte range
    /// (kept on its compaction tombstone) starts.
    journal_from: u64,
    slot: Arc<SessionSlot>,
    stride: usize,
    /// Single-flag cancel set (flag index 0).
    pub(super) cancel: CancelSet,
    pub(super) phase: Mutex<JobPhase>,
    cv: Condvar,
    pub(super) events: EventLog,
}

impl JobState {
    /// A queued job with an empty event log.
    fn new(sub: &SubmitRecord, job: BatchJob, journal_from: u64, slot: Arc<SessionSlot>) -> Self {
        Self {
            id: sub.job,
            job,
            key: sub.key,
            journal_from,
            slot,
            stride: sub.stride.max(1),
            cancel: CancelSet::new(1),
            phase: Mutex::new(JobPhase::Queued),
            cv: Condvar::new(),
            events: EventLog::default(),
        }
    }

    /// Resolves the job terminally: counters, the terminal event line,
    /// the journal's fsync'd `finished` record, phase flip, log close,
    /// retention compaction and waiter wake-up — in that order, so a
    /// parseable `finished` record on disk implies the complete event
    /// history precedes it, and a returned `wait` implies the retention
    /// cap already holds. The report is rendered once; the event line,
    /// the journal record and every later `status`/`wait` carry those
    /// bytes.
    fn finish(&self, report: JobReport, shared: &Shared) {
        match report.status {
            JobStatus::Done => ServeMetrics::bump(&shared.metrics.jobs_done),
            JobStatus::Canceled => ServeMetrics::bump(&shared.metrics.jobs_canceled),
            JobStatus::Failed(_) => ServeMetrics::bump(&shared.metrics.jobs_failed),
        }
        shared.metrics.fold_rc(&report.runtime.rc);
        let finished = FinishedJob::new(&report);
        let line = event_line("finished", self.id, |s| {
            tdp_jsonio::field_str(s, "state", finished.status);
            tdp_jsonio::field_raw(s, "report", &finished.report);
        });
        shared.push_event(self, &line);
        let journaled =
            shared.journal_append(&journal::finished_record(self.id, &finished.report), true);
        *self.phase.lock().expect("job phase lock") = JobPhase::Finished(finished);
        self.events.close();
        // A failed append leaves the end unknown: the range then runs to
        // the end of the file, which holds whatever did reach it.
        let to = journaled.map_or(u64::MAX, |at| at.end);
        shared.note_finished(self.id, self.journal_from..to);
        self.cv.notify_all();
    }

    /// Fails a job that never ran (`msg` says why).
    fn fail(&self, msg: &str, shared: &Shared) {
        self.finish(failed_report(self.id, &self.job, msg.to_string()), shared);
    }

    pub(super) fn is_finished(&self) -> bool {
        let phase = self.phase.lock().expect("job phase lock");
        matches!(*phase, JobPhase::Finished(_))
    }

    /// Blocks until the job is terminal.
    pub(super) fn wait_finished(&self) {
        let phase = self.phase.lock().expect("job phase lock");
        let _finished = self
            .cv
            .wait_while(phase, |p| p.report().is_none())
            .expect("job phase lock");
    }
}

/// A job-table entry: live state, or the tombstone a finished job
/// leaves behind once its memory is compacted under `--retain`.
#[derive(Clone)]
pub(super) enum JobEntry {
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

/// The job table: id-keyed (NOT `Vec`-indexed — compaction must be able
/// to drop a job's memory without renumbering every later job), plus
/// the FIFO of finished jobs still resident, oldest first.
#[derive(Default)]
pub(super) struct JobTable {
    /// Ids ever assigned; the next submit takes `next_id`.
    pub(super) next_id: usize,
    pub(super) entries: HashMap<usize, JobEntry>,
    /// Finished jobs whose state is still in memory, in finish order,
    /// with their journal byte ranges — the compaction queue.
    resident: VecDeque<(usize, Range<u64>)>,
}

/// Builds the one job a wire submit (or its journal record) names,
/// through [`batch::make_jobs_for`] — the path a local run uses.
pub(super) fn build_job(sub: &SubmitRecord) -> Result<BatchJob, String> {
    let objective = parse_objective(&sub.objective)
        .map_err(|e| e.to_string())?
        .ok_or("objective \"all\" is not valid on the wire; submit one job per objective")?;
    let profile = Profile::parse(&sub.profile).map_err(|e| e.to_string())?;
    let mut jobs = make_jobs_for(
        &sub.name,
        &sub.params,
        Some(&objective),
        profile,
        &sub.overrides,
    )
    .map_err(|e| e.to_string())?;
    // One objective yields exactly one job.
    Ok(jobs.remove(0))
}

impl Shared {
    pub(super) fn job(&self, id: usize) -> Option<JobEntry> {
        let table = self.jobs.lock().expect("jobs lock");
        table.entries.get(&id).cloned()
    }

    /// Checks `key` out of the session cache (pinned, for an ECO
    /// session), counting the hit or miss and any eviction. Returns the
    /// slot and whether it was a hit.
    pub(super) fn checkout(
        &self,
        key: u64,
        pin: bool,
    ) -> Result<(Arc<SessionSlot>, bool), ProtoError> {
        let (slot, hit, evictions) = self.cache.checkout(key, pin).map_err(ProtoError::new)?;
        let m = &self.metrics;
        ServeMetrics::bump(if hit { &m.cache_hits } else { &m.cache_misses });
        m.cache_evictions
            .fetch_add(evictions as u64, Ordering::Relaxed);
        Ok((slot, hit))
    }

    /// Admits a built job: assigns its id into `sub`, journals the
    /// submit record, publishes the job and queues it.
    pub(super) fn admit(
        &self,
        sub: &mut SubmitRecord,
        job: BatchJob,
        slot: Arc<SessionSlot>,
    ) -> Arc<JobState> {
        let state = {
            let mut table = self.jobs.lock().expect("jobs lock");
            sub.job = table.next_id;
            table.next_id += 1;
            // Journaled under the table lock so submit records land on
            // disk in id order — replay depends on it (and the WAL rule:
            // the record is durable before the job is visible). A failed
            // append leaves 0: the job's range then starts at the top of
            // the journal, which still holds all its records.
            let journal_from = if self.journal.is_some() {
                self.journal_append(&journal::submit_record(sub), true)
                    .map_or(0, |at| at.start)
            } else {
                0
            };
            let state = Arc::new(JobState::new(sub, job, journal_from, slot));
            let entry = JobEntry::Live(Arc::clone(&state));
            table.entries.insert(sub.job, entry);
            state
        };
        ServeMetrics::bump(&self.metrics.submits);
        tdp_trace::mark("serve.submitted", "serve", Some(state.id as u64));
        if !self.queue.push(state.id) {
            // Shutdown raced the submit; resolve the job terminally so
            // status/wait/events still behave.
            state.fail("server shut down before the job started", self);
        }
        state
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

    /// Compacts the oldest finished jobs beyond
    /// [`ServerConfig::retain`](super::ServerConfig::retain): their
    /// `JobState` (event log and report included) is replaced by a
    /// tombstone, and later reads are served from the journal. Only
    /// meaningful with a journal — [`Server::start`](super::Server::start)
    /// rejects `retain` without one.
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
            let state = match &*job.phase.lock().expect("job phase lock") {
                JobPhase::Finished(f) => f.status,
                _ => continue, // defensive: only finished jobs enter `resident`
            };
            let key = job.key;
            *entry = JobEntry::Compacted { key, state, span };
            ServeMetrics::bump(&self.metrics.jobs_compacted);
        }
    }

    /// One pass over the job table: scheduler gauges plus the congestion
    /// aggregates `(jobs, Σ overflow, peak max)` of every finished report
    /// still resident. Compaction removes a finished job's report from
    /// memory, so on a retention-capped server the congestion aggregates
    /// cover the retained window, not all time. Iteration is in id
    /// order: the float sum must be deterministic.
    pub(super) fn snapshot(&self) -> (Gauges, (usize, f64, f64)) {
        let table = self.jobs.lock().expect("jobs lock");
        let mut queued = 0usize;
        let mut running = 0usize;
        let mut events_resident = 0usize;
        let mut congestion = (0usize, 0.0f64, 0.0f64);
        for id in 0..table.next_id {
            let Some(JobEntry::Live(j)) = table.entries.get(&id) else {
                continue;
            };
            events_resident += j.events.len();
            match &*j.phase.lock().expect("job phase lock") {
                JobPhase::Queued => queued += 1,
                JobPhase::Running => running += 1,
                JobPhase::Finished(f) => {
                    if let Some((overflow, peak)) = f.congestion {
                        congestion.0 += 1;
                        congestion.1 += overflow;
                        congestion.2 = congestion.2.max(peak);
                    }
                }
            }
        }
        let gauges = Gauges {
            workers: self.workers,
            jobs_total: table.next_id,
            jobs_queued: queued,
            jobs_running: running,
            cache_entries: self.cache.len(),
            cache_capacity: self.cache.capacity(),
            events_resident,
        };
        (gauges, congestion)
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
pub(super) fn replay_journal(shared: &Shared, records: Vec<Located>) {
    // Submits and reports keep the journal offsets that bound each job's
    // byte range: its `submit` record's start, its `finished` record's end.
    let mut submits: Vec<(u64, Box<SubmitRecord>)> = Vec::new();
    let mut events: HashMap<usize, Vec<String>> = HashMap::new();
    let mut finished: HashMap<usize, (FinishedJob, u64)> = HashMap::new();
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
            Record::Finished { job, finished: f } => {
                finished.insert(job, (f, at.end));
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
        let (done, to) = finished.remove(&id).unzip();
        let state = match rebuild_job_state(shared, &sub, from, done, &mut events) {
            Ok(state) => Arc::new(state),
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
        state.fail(
            "job interrupted by daemon restart (replay disabled)",
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

/// Reconstructs one journaled job's `JobState`. With `finished`, the job
/// comes back finished: closed pre-populated event log, detached
/// session slot (it will never run). Without, it comes back queued with
/// an empty log, holding a real cache slot for its re-run (the checkout
/// does not count as a cache hit/miss — replay is recovery, not a
/// submit).
fn rebuild_job_state(
    shared: &Shared,
    sub: &SubmitRecord,
    journal_from: u64,
    finished: Option<FinishedJob>,
    events: &mut HashMap<usize, Vec<String>>,
) -> Result<JobState, String> {
    let job = build_job(sub)?;
    Ok(match finished {
        // Never runs again: no reason to hold (or build) a session.
        Some(finished) => JobState {
            phase: Mutex::new(JobPhase::Finished(finished)),
            events: EventLog::restored(events.remove(&sub.job).unwrap_or_default()),
            ..JobState::new(sub, job, journal_from, Arc::default())
        },
        // The pre-crash attempt's partial event lines are dropped: the
        // deterministic re-run regenerates every one of them (journal
        // replay dedupes the re-journaled copies by seq).
        None => JobState::new(
            sub,
            job,
            journal_from,
            shared.cache.checkout(sub.key, false)?.0,
        ),
    })
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

pub(super) fn worker_loop(shared: &Shared) {
    while let Some(id) = shared.queue.pop() {
        let Some(JobEntry::Live(job)) = shared.job(id) else {
            continue;
        };
        {
            let _span = tdp_trace::span_job("serve.job", "serve", id as u64);
            run_job(shared, &job);
        }
        shared.absorb_trace();
    }
}

fn run_job(shared: &Shared, job: &JobState) {
    if shared.shutting_down.load(Ordering::SeqCst) {
        // Drained off the closed queue: never started, fail fast so
        // waiters wake and shutdown stays prompt.
        job.fail("server shut down before the job started", shared);
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
    let failed = |msg: String| failed_report(job.id, &job.job, msg);
    // One catch_unwind around *everything* that can assert — design
    // generation and session construction included (inline params are
    // only type-checked at submit, so the generator may still reject
    // them with a panic). A panic must fail the job, never the worker:
    // a dead worker would strand the queue and every waiter.
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match job.slot.lock(&job.job.params, &shared.metrics.graph_builds) {
            Err(msg) => failed(msg),
            Ok(mut session) => execute_job(
                job.id,
                &job.job,
                &mut session,
                &sink,
                &job.cancel,
                0,
                job.stride,
            ),
        }
    }));
    let report = attempt.unwrap_or_else(|payload| {
        failed(format!("job panicked: {}", panic_message(payload.as_ref())))
    });
    job.finish(report, shared);
}
