//! Concurrent multi-design batch execution of placement flows.
//!
//! The paper's evaluation is a matrix of designs × objectives; this crate
//! runs that matrix (or any job list) concurrently:
//!
//! * [`job`] — [`BatchJob`] descriptions, the [`Profile`] schedules and
//!   the job-file parser (`<case> <objective> [key=value ...]`).
//! * [`runner`] — the executor: a [`BatchPlan`] groups jobs by design so
//!   each worker builds **one reusable session per design** (the STA
//!   setup is paid once per design, not once per job), a
//!   [`parx::par_queue`] shards design groups over worker threads, and
//!   every outcome is reduced to a compact [`JobReport`] in-worker so
//!   in-flight memory stays bounded by the worker count.
//! * [`progress`] — per-job [`Observer`](tdp_core::Observer)-based
//!   streaming ([`BatchEvent`] / [`BatchSink`]) and per-job cancellation
//!   ([`CancelSet`]); a canceled job yields a well-formed partial report
//!   without perturbing its siblings.
//! * [`report`] — JSONL and Markdown aggregation with fleet totals.
//!
//! Results are deterministic: a batch on N workers is bitwise identical,
//! metric for metric, to the same plan run serially (see
//! `tests/batch_differential.rs` at the workspace root).
//!
//! The `tdp-batch` binary is the CLI front end; see the README section
//! for its flags, the job-file format and the report outputs.
//!
//! # Example
//!
//! ```no_run
//! use batch::{make_jobs, run_batch, BatchPlan, BatchRunConfig, NullSink, Profile};
//!
//! # fn main() -> Result<(), batch::BatchError> {
//! let catalog = benchgen::full_suite();
//! let mut jobs = Vec::new();
//! for case in &catalog {
//!     jobs.extend(make_jobs(case, None, Profile::Quick, &[])?);
//! }
//! let plan = BatchPlan::new(jobs);
//! let result = run_batch(&plan, &BatchRunConfig::default(), &NullSink);
//! println!("{}", result.to_markdown());
//! # Ok(())
//! # }
//! ```

pub mod job;
pub mod progress;
pub mod report;
pub mod runner;

pub use job::{
    find_case, make_jobs, make_jobs_for, parse_job_file, parse_objective, split_job_line, BatchJob,
    Profile, BUILTIN_OBJECTIVES, BUILTIN_OBJECTIVE_NAMES,
};
pub use progress::{BatchEvent, BatchSink, CancelSet, NullSink, SinkObserver};
pub use report::{job_json, FleetTotals};
pub use runner::{
    execute_job, failed_report, panic_message, run_batch, BatchPlan, BatchResult, BatchRunConfig,
    JobReport, JobStatus,
};

use std::fmt;

/// Everything that can go wrong assembling a batch. Execution failures
/// are *not* errors — they are recorded per job as
/// [`JobStatus::Failed`] so one bad job cannot sink a fleet.
#[derive(Debug)]
pub enum BatchError {
    /// Bad user input: unknown case/objective/key, malformed job file
    /// line, bad CLI flag.
    Usage(String),
    /// A job's flow configuration failed validation.
    Flow(tdp_core::FlowError),
    /// Reading a job file or writing a report failed.
    Io(std::io::Error),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Usage(msg) => write!(f, "{msg}"),
            BatchError::Flow(e) => write!(f, "invalid flow configuration: {e}"),
            BatchError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for BatchError {}

impl From<std::io::Error> for BatchError {
    fn from(e: std::io::Error) -> Self {
        BatchError::Io(e)
    }
}

impl From<tdp_core::FlowError> for BatchError {
    fn from(e: tdp_core::FlowError) -> Self {
        BatchError::Flow(e)
    }
}
