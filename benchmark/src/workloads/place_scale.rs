//! `place_scale`: the user-facing flow at a size where kernels outweigh
//! dispatch. `Session::run(EfficientTdp)` on `scale50k`, quick schedule
//! pinned to 160 iterations, once serially (warm-up, reference hash and
//! the serial baseline) and then repeatedly at `threads=2`, with an
//! observer that times every placer iteration. The run reports its
//! fastest flow and the median iteration of its quietest
//! [`ITERATION_WINDOW`] (`stats::quietest_window_median`).

use crate::designs::{self, Calibrated};
use crate::harness::{peak_rss_mb, repeat_setup, timed, Phase, RunOpts, THREADS};
use crate::report::Report;
use crate::{probe, traced};
use placer::legalize::check_legal;
use std::time::Instant;
use tdp_core::{
    FlowOutcome, FlowSpec, FlowTraceRow, ObjectiveSpec, Observer, ObserverAction, Session,
};

/// Set-ups per run: one takes a quarter of a second.
const SETUP_REPS: usize = 7;

/// Consecutive placer iterations per window: one timing interval of the
/// quick schedule, so once timing has started every window holds exactly
/// one iteration that re-times the design and nine that do not.
const ITERATION_WINDOW: usize = 10;

/// Times every placer iteration: milliseconds from the previous
/// iteration's end (the first from the observer's creation, so it also
/// holds the flow's set-up).
struct IterationClock {
    last: Instant,
    ms: Vec<f64>,
}

impl Observer for IterationClock {
    fn on_iteration(&mut self, _row: &FlowTraceRow) -> ObserverAction {
        let now = Instant::now();
        self.ms.push((now - self.last).as_secs_f64() * 1e3);
        self.last = now;
        ObserverAction::Continue
    }
}

struct Ctx<'a> {
    calibrated: &'a Calibrated,
    session: Session,
    serial: FlowSpec,
    parallel: FlowSpec,
}

/// The run's input: `scale50k` with its clock calibrated. A function of
/// the seed alone, prepared once and not part of `setup_s` (it is one
/// wirelength-only flow at `THREADS`, seconds long, where a busy spell
/// of the host would decide the reading).
fn prepare(seed: u64) -> Calibrated {
    designs::calibrate(designs::scale50k(seed), THREADS)
}

/// What `setup_s` times: design generation, `Session` build and the two
/// specs.
fn setup(calibrated: &Calibrated) -> Ctx<'_> {
    let (design, pads) = benchgen::generate(&calibrated.params);
    let session = Session::builder(design, pads)
        .build()
        .expect("generated designs are acyclic");
    let spec =
        |threads| designs::quick_spec(&calibrated.params, ObjectiveSpec::EfficientTdp, threads);
    Ctx {
        serial: spec(1),
        parallel: spec(THREADS),
        calibrated,
        session,
    }
}

/// One timed flow; checks that the result is legal and, when a
/// reference hash is known, bit-identical to it. Appends the flow's
/// iteration times to `iteration_ms`.
fn flow(
    ctx: &mut Ctx,
    report: &mut Report,
    threads: usize,
    reference: Option<u64>,
    iteration_ms: &mut Vec<f64>,
) -> (FlowOutcome, f64) {
    let spec = if threads == 1 {
        &ctx.serial
    } else {
        &ctx.parallel
    };
    let (outcome, ms) = timed("bench.core.flow", || {
        let mut clock = IterationClock {
            last: Instant::now(),
            ms: Vec::new(),
        };
        let outcome = ctx
            .session
            .run_with_observer(spec, &mut clock)
            .expect("builtin objectives always build");
        iteration_ms.append(&mut clock.ms);
        outcome
    });
    let legal = check_legal(ctx.session.design(), &outcome.placement);
    report.check(legal.is_ok(), || {
        format!(
            "threads={threads}: illegal placement: {}",
            legal.unwrap_err()
        )
    });
    if let Some(expected) = reference {
        let hash = outcome.placement.content_hash();
        report.check(hash == expected, || {
            format!("threads={threads}: placement hash {hash:#x} differs from the serial run's {expected:#x}")
        });
    }
    (outcome, ms)
}

pub fn run(opts: &RunOpts, report: &mut Report) {
    if opts.trace {
        return run_traced(opts, report);
    }
    let calibrated = prepare(opts.seed);
    calibrated.check(report);
    let (mut ctx, setup_s) = repeat_setup(SETUP_REPS, || setup(&calibrated));
    let (serial, _) = flow(&mut ctx, report, 1, None, &mut Vec::new());
    let reference = serial.placement.content_hash();
    let phase = Phase::start(opts.seconds);
    let (mut flow_ms, mut iteration_ms) = (Vec::new(), Vec::new());
    while phase.running() || flow_ms.is_empty() {
        flow_ms.push(
            flow(
                &mut ctx,
                report,
                THREADS,
                Some(reference),
                &mut iteration_ms,
            )
            .1,
        );
    }
    // Every flow runs the same pinned number of iterations, so windows
    // never straddle two flows.
    let iterations = iteration_ms.len() / flow_ms.len();
    report.check(iterations.is_multiple_of(ITERATION_WINDOW), || {
        format!("{iterations} iterations per flow do not fill windows of {ITERATION_WINDOW}")
    });
    report.quiet_timing("primary_op_ms", &flow_ms, 1);
    report.quiet_timing("secondary_op_ms", &iteration_ms, ITERATION_WINDOW);
    let fastest_flow_ms = crate::stats::quietest_window_median(&flow_ms, 1);
    report.value("ops_per_s", iterations as f64 / (fastest_flow_ms / 1e3));
    report.quiet_timing("setup_s", &setup_s, 1);
    report.value("peak_rss_mb", peak_rss_mb());
}

fn run_traced(opts: &RunOpts, report: &mut Report) {
    let calibrated = prepare(opts.seed);
    calibrated.check(report);
    let mut ctx = setup(&calibrated);
    let sink = &mut Vec::new();
    let (serial, serial_ms) = flow(&mut ctx, report, 1, None, sink);
    let reference = serial.placement.content_hash();
    let (_, untraced_ms) = flow(&mut ctx, report, THREADS, Some(reference), sink);

    traced::begin();
    probe::layers(
        report,
        &ctx.calibrated.params,
        ctx.session.design(),
        ctx.session.pads(),
        &ctx.calibrated.placement,
        opts.seed,
    );
    let (outcome, traced_ms) = flow(&mut ctx, report, THREADS, Some(reference), sink);
    let chunks = traced::end();

    let lanes = traced::export_chunks(report, "place_scale", &chunks);
    let rollup = traced::report_shares(report, &lanes, |name| name == "flow.run");
    let (iters, _, iter_ns) = rollup.by_name("placer.iteration");
    report.check(iters as usize == outcome.iterations, || {
        format!(
            "{iters} placer.iteration spans for {} iterations",
            outcome.iterations
        )
    });
    report.value("placer.iterations", outcome.iterations as f64);
    report.value("placer.iter_ms", iter_ns as f64 / 1e6 / iters.max(1) as f64);
    report.value("placer.flow_t1_ms", serial_ms);
    report.value("parx.scaling_flow", serial_ms / untraced_ms);
    report.value(
        "trace.overhead_pct",
        (traced_ms - untraced_ms) / untraced_ms * 100.0,
    );
    report.value("core.tns_abs", outcome.metrics.tns.abs());
    report.value("core.wns_abs", outcome.metrics.wns.abs());
    report.value("core.hpwl", outcome.metrics.hpwl);
}
