//! `batch_matrix`: six small designs × all five objectives through
//! `batch::run_batch` on two workers with single-threaded kernels, quick
//! schedule. The same placer and STA code as `place_scale`, used the
//! other way: many 2–8k-cell designs, where dispatch, session reuse,
//! legalization and the net-weighting and congestion objectives matter.

use crate::designs::{self, reseeded_case};
use crate::harness::{peak_rss_mb, repeat_setup, timed, Phase, RunOpts, THREADS};
use crate::report::Report;
use crate::{probe, traced};
use batch::{BatchJob, BatchPlan, BatchResult, BatchRunConfig, JobStatus, NullSink, Profile};
use tdp_core::{ObjectiveSpec, Session};

/// One case per structural family, largest first so the longest design
/// group starts first.
const CASES: [&str; 6] = ["sb10", "sb18", "hu1", "mx1", "dl1", "cg1"];

/// Plan constructions timed for `batch.plan_ms`: a plan is built in
/// microseconds, so its median needs many samples.
const PLAN_REPS: usize = 101;

/// Set-ups per run: one takes 25–40 ms, so fifteen cost half a second.
const SETUP_REPS: usize = 15;

const RUN: BatchRunConfig = BatchRunConfig {
    workers: THREADS,
    iteration_stride: 16,
};

struct Ctx {
    plan: BatchPlan,
    /// Cell count of each job's design, from generating it here: what
    /// every job report must say it placed.
    cells: Vec<usize>,
}

/// The 30 jobs: every case re-seeded from the run's seed, every builtin
/// objective, `threads=1` per job.
fn jobs(seed: u64) -> Vec<BatchJob> {
    let mut jobs = Vec::new();
    for (i, name) in CASES.iter().enumerate() {
        let params = reseeded_case(name, seed, 100 + i as u64);
        jobs.extend(
            batch::make_jobs_for(name, &params, None, Profile::Quick, &[])
                .expect("builtin objectives on the quick profile are valid"),
        );
    }
    jobs
}

/// Job list, one generation of every design (for the expected sizes)
/// and the plan.
fn setup(seed: u64) -> Ctx {
    let jobs = jobs(seed);
    let cells = jobs
        .chunk_by(|a, b| a.params == b.params)
        .flat_map(|case| {
            let cells = benchgen::generate(&case[0].params).0.num_cells();
            std::iter::repeat_n(cells, case.len())
        })
        .collect();
    Ctx {
        plan: BatchPlan::new(jobs),
        cells,
    }
}

/// Σ|TNS| over the finished jobs of one objective.
fn tns_abs_sum(result: &BatchResult, objective: &ObjectiveSpec) -> f64 {
    let label = objective.label();
    result
        .reports
        .iter()
        .filter(|r| r.objective == label)
        .filter_map(|r| r.metrics)
        .map(|m| m.tns.abs())
        .sum()
}

/// One timed plan run with its output checks: every job done, legal and
/// on the design it was given, placements identical to the first rep's,
/// and the paper's ordering (Efficient-TDP's Σ|TNS| below both
/// DREAMPlace baselines).
fn run_plan(ctx: &Ctx, report: &mut Report, reference: &mut Vec<u64>) -> (BatchResult, f64) {
    let (result, ms) = timed("bench.batch.run", || {
        batch::run_batch(&ctx.plan, &RUN, &NullSink)
    });
    for (r, &cells) in result.reports.iter().zip(&ctx.cells) {
        report.check(
            r.status == JobStatus::Done && r.legal && r.cells == cells,
            || {
                format!(
                    "job {} ({} {}): status {} legal {} cells {} (design has {cells})",
                    r.job,
                    r.case,
                    r.objective,
                    r.status.label(),
                    r.legal,
                    r.cells
                )
            },
        );
    }
    let hashes: Vec<u64> = result.reports.iter().map(|r| r.placement_hash).collect();
    if reference.is_empty() {
        *reference = hashes;
    } else {
        report.check(hashes == *reference, || {
            "placement hashes differ from the first plan run's".to_string()
        });
    }
    let ours = tns_abs_sum(&result, &ObjectiveSpec::EfficientTdp);
    for baseline in [ObjectiveSpec::DreamPlace4, ObjectiveSpec::DreamPlace] {
        let theirs = tns_abs_sum(&result, &baseline);
        report.check(ours < theirs, || {
            format!(
                "Efficient-TDP sum|TNS| {ours} is not below {}'s {theirs}",
                baseline.label()
            )
        });
    }
    (result, ms)
}

pub fn run(opts: &RunOpts, report: &mut Report) {
    if opts.trace {
        return run_traced(opts, report);
    }
    let (ctx, setup_s) = repeat_setup(SETUP_REPS, || setup(opts.seed));
    let phase = Phase::start(opts.seconds);
    let mut reference = Vec::new();
    // Every plan runs the same 30 jobs, so a job's runtimes across the
    // plans compare like for like: each job is taken at its fastest.
    let jobs = ctx.plan.num_jobs();
    let (mut wall_ms, mut best_job_ms) = (Vec::new(), vec![f64::INFINITY; jobs]);
    while phase.running() || wall_ms.is_empty() {
        let (result, ms) = run_plan(&ctx, report, &mut reference);
        wall_ms.push(ms);
        for (best, r) in best_job_ms.iter_mut().zip(&result.reports) {
            *best = best.min(r.runtime.total.as_secs_f64() * 1e3);
        }
    }
    report.quiet_timing("primary_op_ms", &wall_ms, 1);
    report.timing("secondary_op_ms", &best_job_ms);
    let fastest_plan_ms = crate::stats::quietest_window_median(&wall_ms, 1);
    report.value("ops_per_s", jobs as f64 / (fastest_plan_ms / 1e3));
    report.quiet_timing("setup_s", &setup_s, 1);
    report.value("peak_rss_mb", peak_rss_mb());
}

fn run_traced(opts: &RunOpts, report: &mut Report) {
    let ctx = setup(opts.seed);
    let plan = &ctx.plan;
    let mut plan_ms = Vec::with_capacity(PLAN_REPS);
    for _ in 0..PLAN_REPS {
        let jobs = jobs(opts.seed);
        plan_ms.push(timed("bench.batch.plan", || BatchPlan::new(jobs)).1);
    }
    report.timing("batch.plan_ms", &plan_ms);
    let mut reference = Vec::new();
    let graphs_before = sta::graph_build_count();
    let (result, untraced_ms) = run_plan(&ctx, report, &mut reference);
    report.value(
        "batch.session_builds",
        (sta::graph_build_count() - graphs_before) as f64,
    );
    let job_s: Vec<f64> = result
        .reports
        .iter()
        .map(|r| r.runtime.total.as_secs_f64())
        .collect();
    let job_sum: f64 = job_s.iter().sum();
    report.value("batch.job_sum_s", job_sum);
    report.value(
        "batch.slowest_job_s",
        job_s.iter().copied().fold(0.0, f64::max),
    );
    report.value(
        "batch.parallel_eff",
        job_sum / (THREADS as f64 * untraced_ms / 1e3),
    );
    let ours = ObjectiveSpec::EfficientTdp.label();
    let metrics: Vec<_> = result
        .reports
        .iter()
        .filter(|r| r.objective == ours)
        .filter_map(|r| r.metrics)
        .collect();
    report.value("core.tns_abs", metrics.iter().map(|m| m.tns.abs()).sum());
    report.value(
        "core.wns_abs",
        metrics.iter().map(|m| m.wns.abs()).fold(0.0, f64::max),
    );
    report.value("core.hpwl", metrics.iter().map(|m| m.hpwl).sum());

    traced::begin();
    // The layers on this workload's largest design, at a wirelength-only
    // quick placement of it.
    let params = plan.jobs()[0].params.clone();
    let (design, pads) = benchgen::generate(&params);
    let mut session = Session::builder(design, pads)
        .build()
        .expect("generated designs are acyclic");
    let placement = session
        .run(&designs::quick_spec(&params, ObjectiveSpec::DreamPlace, 1))
        .expect("builtin objectives always build")
        .placement;
    probe::layers(
        report,
        &params,
        session.design(),
        session.pads(),
        &placement,
        opts.seed,
    );
    let (_, traced_ms) = run_plan(&ctx, report, &mut reference);
    let chunks = traced::end();

    let lanes = traced::export_chunks(report, "batch_matrix", &chunks);
    let rollup = traced::report_shares(report, &lanes, |name| name == "batch.job");
    report.check(rollup.roots == plan.num_jobs(), || {
        format!(
            "{} batch.job spans for {} jobs",
            rollup.roots,
            plan.num_jobs()
        )
    });
    let (iters, _, iter_ns) = rollup.by_name("placer.iteration");
    let ran: usize = result.reports.iter().map(|r| r.iterations).sum();
    report.value("placer.iterations", ran as f64);
    report.value("placer.iter_ms", iter_ns as f64 / 1e6 / iters.max(1) as f64);
    report.value(
        "trace.overhead_pct",
        (traced_ms - untraced_ms) / untraced_ms * 100.0,
    );
}
