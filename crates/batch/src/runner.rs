//! The concurrent batch executor.
//!
//! A [`BatchPlan`] groups its jobs by design (equal [`CircuitParams`]):
//! each group is one unit of scheduling, executed by exactly one worker,
//! which generates the design once, builds one reusable
//! [`Session`] — paying the timing-graph and RC setup
//! once — and runs the group's specs through it in plan order. Groups are
//! distributed over `workers` threads by [`parx::par_queue`].
//!
//! # Determinism
//!
//! Per-job results depend only on the job's design and spec: sessions are
//! per-group, groups are per-worker, and nothing a sibling job does can
//! reach another job's session. Reports are keyed by job id, not by
//! completion order. A batch on N workers is therefore bitwise identical,
//! metric for metric, to the same plan run serially — the property
//! `tests/batch_differential.rs` asserts.
//!
//! # Bounded in-flight memory
//!
//! A finished run's [`FlowOutcome`](tdp_core::FlowOutcome) owns a full
//! placement and a per-iteration trace — tens of MB across a wide batch.
//! The worker reduces it to a compact [`JobReport`] (metrics, runtime,
//! status) *before* touching shared state and drops the outcome on the
//! spot, so at any moment at most one outcome per worker is alive, no
//! matter how many jobs the plan holds.

use crate::job::BatchJob;
use crate::progress::{BatchEvent, BatchSink, CancelSet, SinkObserver};
use benchgen::CircuitParams;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tdp_core::{CongestionReport, Metrics, RuntimeBreakdown, Session};

/// How one job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran to completion.
    Done,
    /// Stopped early through its cancellation flag; the metrics describe
    /// the legalized partial placement.
    Canceled,
    /// The flow could not run (e.g. the objective failed to build); the
    /// metrics are absent.
    Failed(String),
}

impl JobStatus {
    /// Short status label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Done => "done",
            JobStatus::Canceled => "canceled",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// The compact, placement-free summary of one finished job — the only
/// thing the runner retains.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Job id (index into the plan's jobs).
    pub job: usize,
    /// Case name.
    pub case: String,
    /// Objective label.
    pub objective: String,
    /// Cells in the design.
    pub cells: usize,
    /// Nets in the design.
    pub nets: usize,
    /// How the job ended.
    pub status: JobStatus,
    /// Placement iterations executed.
    pub iterations: usize,
    /// Whether the final placement passed `check_legal` (false for
    /// failed jobs).
    pub legal: bool,
    /// Evaluation-kit metrics of the legalized placement; `None` for
    /// failed jobs.
    pub metrics: Option<Metrics>,
    /// Routability summary of the legalized placement (RUDY congestion
    /// map statistics, including the bitwise
    /// [`map_hash`](tdp_core::CongestionReport::map_hash)); `None` for
    /// failed jobs.
    pub congestion: Option<CongestionReport>,
    /// Bitwise fingerprint of the legalized placement
    /// ([`Placement::content_hash`](netlist::Placement::content_hash)),
    /// computed before the placement is dropped — the differential
    /// evidence that two executions (N workers vs serial, daemon vs
    /// local session) produced the identical placement. `0` for failed
    /// jobs.
    pub placement_hash: u64,
    /// Runtime breakdown; zeroed for failed jobs.
    pub runtime: RuntimeBreakdown,
}

/// One scheduling unit: a design plus every job that runs on it.
#[derive(Debug)]
struct DesignGroup {
    params: CircuitParams,
    job_ids: Vec<usize>,
}

/// An immutable, runnable batch: jobs grouped by design, plus the
/// cancellation flags.
#[derive(Debug)]
pub struct BatchPlan {
    jobs: Vec<BatchJob>,
    groups: Vec<DesignGroup>,
    cancel: Arc<CancelSet>,
}

impl BatchPlan {
    /// Groups `jobs` by design (equal generator parameters, first-seen
    /// order) and allocates their cancellation flags.
    pub fn new(jobs: Vec<BatchJob>) -> Self {
        let mut groups: Vec<DesignGroup> = Vec::new();
        for (id, job) in jobs.iter().enumerate() {
            match groups.iter_mut().find(|g| g.params == job.params) {
                Some(g) => g.job_ids.push(id),
                None => groups.push(DesignGroup {
                    params: job.params.clone(),
                    job_ids: vec![id],
                }),
            }
        }
        let cancel = Arc::new(CancelSet::new(jobs.len()));
        Self {
            jobs,
            groups,
            cancel,
        }
    }

    /// The jobs, in id order.
    pub fn jobs(&self) -> &[BatchJob] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Number of distinct designs (scheduling units).
    pub fn num_designs(&self) -> usize {
        self.groups.len()
    }

    /// A shared handle to the per-job cancellation flags; hold it before
    /// [`run_batch`] and raise flags from any thread (including from a
    /// [`BatchSink`] callback) to stop individual jobs.
    pub fn cancel_handle(&self) -> Arc<CancelSet> {
        Arc::clone(&self.cancel)
    }
}

/// Execution knobs for [`run_batch`].
#[derive(Debug, Clone, Copy)]
pub struct BatchRunConfig {
    /// Worker threads executing design groups (`0` = one per hardware
    /// thread; capped by the number of groups).
    pub workers: usize,
    /// Stream every k-th iteration event to the sink (1 = every
    /// iteration). Phase changes, timing analyses and job start/finish
    /// are always streamed. Bounds progress traffic on wide batches.
    pub iteration_stride: usize,
}

impl Default for BatchRunConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            iteration_stride: 16,
        }
    }
}

/// Everything a finished batch leaves behind: one report per job (id
/// order) plus fleet-level accounting.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-job reports, indexed by job id.
    pub reports: Vec<JobReport>,
    /// Wall-clock of the whole batch.
    pub wall: Duration,
    /// Resolved worker count the batch ran with.
    pub workers: usize,
}

/// Runs every job of `plan` on up to `cfg.workers` worker threads,
/// streaming progress to `sink`. Blocks until the batch drains; returns
/// one report per job in job-id order. Failures are per-job (recorded as
/// [`JobStatus::Failed`]), never a panic across the batch.
pub fn run_batch(plan: &BatchPlan, cfg: &BatchRunConfig, sink: &dyn BatchSink) -> BatchResult {
    let t0 = Instant::now();
    let workers = parx::resolve_threads(cfg.workers).min(plan.groups.len().max(1));
    let stride = cfg.iteration_stride.max(1);
    let slots: Mutex<Vec<Option<JobReport>>> = Mutex::new(vec![None; plan.num_jobs()]);
    let cancel = &plan.cancel;

    parx::par_queue(workers, plan.groups.len(), |gi| {
        let group = &plan.groups[gi];
        // Panics during design generation / session construction (e.g.
        // generator parameters the spec validation cannot see) must fail
        // this group's jobs, not sink the fleet — same containment the
        // per-job loop below applies.
        let mut session = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            build_group_session(&group.params)
        }))
        .unwrap_or_else(|payload| {
            Err(format!(
                "design or session construction panicked: {}",
                panic_message(payload.as_ref())
            ))
        });
        for &job_id in &group.job_ids {
            let job = &plan.jobs[job_id];
            sink.on_event(&BatchEvent::JobStarted {
                job: job_id,
                case: job.case.clone(),
                objective: job.spec.objective().label(),
            });
            // Contain panics to the job that raised them: a flow that
            // asserts (e.g. a die too full to legalize) must not sink
            // the fleet. The session is poisoned afterwards so the
            // group's remaining jobs fail cleanly instead of running on
            // state a panic may have left half-updated.
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_one(job_id, job, &mut session, sink, cancel, stride)
            }));
            let report = match attempt {
                Ok(report) => report,
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    session = Err(format!("a previous job's flow panicked: {msg}"));
                    failed_report(job_id, job, format!("flow panicked: {msg}"))
                }
            };
            slots.lock().expect("no poisoned batch slots")[job_id] = Some(report.clone());
            sink.on_event(&BatchEvent::JobFinished {
                report: Box::new(report),
            });
        }
    });

    let reports = slots
        .into_inner()
        .expect("no poisoned batch slots")
        .into_iter()
        .map(|r| r.expect("every job produced a report"))
        .collect();
    BatchResult {
        reports,
        wall: t0.elapsed(),
        workers,
    }
}

/// Generates the group's design and builds its shared session. Returns
/// the error as a string so it can be recorded on every job of the
/// group.
fn build_group_session(params: &CircuitParams) -> Result<Session, String> {
    let (design, pads) = benchgen::generate(params);
    Session::builder(design, pads)
        .build()
        .map_err(|e| format!("session construction failed: {e}"))
}

/// The report of a job that never produced an outcome.
pub fn failed_report(job_id: usize, job: &BatchJob, msg: String) -> JobReport {
    JobReport {
        job: job_id,
        case: job.case.clone(),
        objective: job.spec.objective().label(),
        cells: 0,
        nets: 0,
        status: JobStatus::Failed(msg),
        iterations: 0,
        legal: false,
        metrics: None,
        congestion: None,
        placement_hash: 0,
        runtime: RuntimeBreakdown::default(),
    }
}

/// Best-effort text of a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one job through the group's session (if it built) and reduces
/// the outcome to its report.
fn run_one(
    job_id: usize,
    job: &BatchJob,
    session: &mut Result<Session, String>,
    sink: &dyn BatchSink,
    cancel: &CancelSet,
    stride: usize,
) -> JobReport {
    match session {
        Ok(s) => execute_job(job_id, job, s, sink, cancel, job_id, stride),
        Err(msg) => failed_report(job_id, job, msg.clone()),
    }
}

/// Runs one job's flow through `session` with a streaming
/// [`SinkObserver`] attached, and reduces the outcome to its compact
/// [`JobReport`] (computing the placement fingerprint before the
/// placement drops — bounded in-flight memory is this function's job,
/// not the caller's).
///
/// This is the single job-execution path shared by every front end: the
/// batch runner calls it per job of a design group, and the serve
/// daemon calls it per request with a session checked out of its cache.
/// A flow error is *not* a Rust error — it is recorded as
/// [`JobStatus::Failed`] on the report (panics are the caller's to
/// contain, since containment policy differs per front end).
///
/// `flag` is the index of this job's flag within `cancel` — equal to
/// `job_id` in a batch plan, `0` for a per-job single-flag set.
pub fn execute_job(
    job_id: usize,
    job: &BatchJob,
    session: &mut Session,
    sink: &dyn BatchSink,
    cancel: &CancelSet,
    flag: usize,
    stride: usize,
) -> JobReport {
    let _span = tdp_trace::span_job("batch.job", "batch", job_id as u64);
    let mut observer = SinkObserver::new(job_id, sink, cancel, flag, stride);
    let outcome = match session.run_with_observer(&job.spec, &mut observer) {
        Ok(outcome) => outcome,
        Err(e) => return failed_report(job_id, job, format!("flow failed: {e}")),
    };
    let legal = placer::legalize::check_legal(session.design(), &outcome.placement).is_ok();
    JobReport {
        job: job_id,
        case: job.case.clone(),
        objective: outcome.method.clone(),
        cells: session.design().num_cells(),
        nets: session.design().num_nets(),
        status: if outcome.canceled {
            JobStatus::Canceled
        } else {
            JobStatus::Done
        },
        iterations: outcome.iterations,
        legal,
        metrics: Some(outcome.metrics),
        congestion: Some(outcome.congestion),
        placement_hash: outcome.placement.content_hash(),
        runtime: outcome.runtime,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{make_jobs, Profile, BUILTIN_OBJECTIVES};
    use crate::progress::NullSink;
    use benchgen::SuiteCase;

    fn tiny_case(name: &'static str, seed: u64) -> SuiteCase {
        SuiteCase {
            name,
            params: CircuitParams::small(name, seed),
        }
    }

    fn tiny_plan() -> BatchPlan {
        let mut jobs = Vec::new();
        for case in [tiny_case("a", 1), tiny_case("b", 2)] {
            jobs.extend(make_jobs(&case, None, Profile::Quick, &[]).unwrap());
        }
        BatchPlan::new(jobs)
    }

    #[test]
    fn plan_groups_jobs_by_design() {
        let plan = tiny_plan();
        assert_eq!(plan.num_jobs(), 2 * BUILTIN_OBJECTIVES.len());
        assert_eq!(plan.num_designs(), 2, "one group per distinct design");
    }

    #[test]
    fn a_panicking_job_fails_alone_without_sinking_the_fleet() {
        use tdp_core::{FlowBuilder, FlowError, ObjectiveContext, ObjectiveSpec, SessionObjective};

        struct Bomb;
        impl tdp_core::ObjectiveFactory for Bomb {
            fn label(&self) -> String {
                "bomb".into()
            }
            fn build(
                &self,
                _ctx: &ObjectiveContext<'_>,
            ) -> Result<Box<dyn SessionObjective>, FlowError> {
                panic!("deliberate test panic");
            }
        }

        let case = tiny_case("a", 1);
        let mut jobs = make_jobs(&case, None, Profile::Quick, &[]).unwrap();
        // A panicking job wedged into the same design group, followed by
        // one more builtin job on that group and a separate design.
        jobs.insert(
            1,
            crate::job::BatchJob {
                case: "a".into(),
                params: case.params.clone(),
                spec: FlowBuilder::new()
                    .objective(ObjectiveSpec::custom(Bomb))
                    .iterations(24, 60)
                    .timing_start(16)
                    .timing_interval(4)
                    .build()
                    .unwrap(),
            },
        );
        jobs.extend(make_jobs(&tiny_case("b", 2), None, Profile::Quick, &[]).unwrap());
        let plan = BatchPlan::new(jobs);
        let result = run_batch(
            &plan,
            &BatchRunConfig {
                workers: 2,
                iteration_stride: 64,
            },
            &NullSink,
        );
        assert_eq!(result.reports.len(), plan.num_jobs());
        // Job 0 ran before the bomb: done. The bomb failed with the
        // panic message.
        assert_eq!(result.reports[0].status, JobStatus::Done);
        let JobStatus::Failed(msg) = &result.reports[1].status else {
            panic!("bomb must fail, got {:?}", result.reports[1].status);
        };
        assert!(msg.contains("deliberate test panic"), "{msg}");
        // The bomb's group-mates after it fail cleanly on the poisoned
        // session (no half-updated state reuse)…
        let group_a_end = BUILTIN_OBJECTIVES.len() + 1;
        for r in &result.reports[2..group_a_end] {
            assert!(
                matches!(&r.status, JobStatus::Failed(m) if m.contains("previous job")),
                "job {}: {:?}",
                r.job,
                r.status
            );
        }
        // …while the other design's jobs are untouched.
        for r in &result.reports[group_a_end..] {
            assert_eq!(r.status, JobStatus::Done, "job {}", r.job);
            assert!(r.legal);
        }
    }

    #[test]
    fn a_panicking_design_generation_fails_its_group_not_the_fleet() {
        // Parameters the spec validation cannot see: the generator
        // asserts on zero logic levels. The whole group must fail with
        // the panic message while other designs run to completion.
        let bad_case = SuiteCase {
            name: "bad",
            params: CircuitParams {
                levels: 0,
                ..CircuitParams::small("bad", 9)
            },
        };
        let mut jobs = make_jobs(&bad_case, None, Profile::Quick, &[]).unwrap();
        jobs.extend(make_jobs(&tiny_case("good", 3), None, Profile::Quick, &[]).unwrap());
        let plan = BatchPlan::new(jobs);
        let result = run_batch(
            &plan,
            &BatchRunConfig {
                workers: 2,
                iteration_stride: 64,
            },
            &NullSink,
        );
        for r in &result.reports[..BUILTIN_OBJECTIVES.len()] {
            let JobStatus::Failed(msg) = &r.status else {
                panic!("job {} must fail, got {:?}", r.job, r.status);
            };
            assert!(msg.contains("panicked"), "{msg}");
        }
        for r in &result.reports[BUILTIN_OBJECTIVES.len()..] {
            assert_eq!(r.status, JobStatus::Done, "job {}", r.job);
        }
    }

    #[test]
    fn batch_runs_all_jobs_and_reports_in_id_order() {
        let plan = tiny_plan();
        let result = run_batch(
            &plan,
            &BatchRunConfig {
                workers: 2,
                iteration_stride: 64,
            },
            &NullSink,
        );
        assert_eq!(result.reports.len(), plan.num_jobs());
        for (i, r) in result.reports.iter().enumerate() {
            assert_eq!(r.job, i);
            assert_eq!(r.status, JobStatus::Done, "{:?}", r.status);
            assert!(r.legal, "job {i} produced an illegal placement");
            let m = r.metrics.expect("done jobs carry metrics");
            assert!(m.hpwl.is_finite() && m.hpwl > 0.0);
            let c = r.congestion.expect("done jobs carry a congestion report");
            assert!(c.peak.is_finite() && c.peak > 0.0 && c.map_hash != 0);
            assert!(r.iterations > 0);
        }
        assert_eq!(result.workers, 2);
    }
}
