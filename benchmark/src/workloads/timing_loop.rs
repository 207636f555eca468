//! `timing_loop`: the paper's loop with the placer removed, on
//! `deep100k`. Each iteration nudges 1% of the movable cells, re-times
//! incrementally, extracts one path per failing endpoint, updates the
//! pin-pair set (Eq. 9) and evaluates the pin-to-pin loss gradient;
//! every 16th iteration also runs a full analysis, which must reproduce
//! the incremental state bit for bit.
//!
//! The nudge stream repeats every [`WINDOW`] iterations, so consecutive
//! windows of that many iterations do the same work and their medians
//! compare like for like; the run reports its quietest window
//! (`stats::quietest_window_median`).

use crate::designs::{self, sub_seed, Calibrated};
use crate::harness::{
    pair_weights, peak_rss_mb, pin_pair_gradient, repeat_setup, timed, NudgeStream, Phase, RunOpts,
    THREADS,
};
use crate::report::Report;
use crate::{probe, traced};
use netlist::{Design, Placement};
use sta::Sta;
use std::time::Instant;
use tdp_core::{PinPairLoss, PinPairSet};

/// Kernel threads of the measured loop. One, not [`THREADS`]: a timing
/// iteration gains nothing from a second thread (23.7 ms against
/// 24.0 ms), while every level of it would wait for the slower of two
/// cores, and on the shared box this was written on that made the same
/// seed's results spread three times as wide. The per-layer probe times
/// the same calls at [`THREADS`] (`sta.analyze_ms`, `sta.incr_ms`).
const LOOP_THREADS: usize = 1;
/// Set-ups per run: one takes half a second.
const SETUP_REPS: usize = 5;
/// Forward steps of the periodic nudge stream.
const NUDGE_STEPS: usize = 16;
/// One period of the nudge stream: forward, then undone.
const WINDOW: usize = 2 * NUDGE_STEPS;
/// A full analysis every this many iterations: at the far point of the
/// nudge period and back at the base placement.
const FULL_EVERY: usize = NUDGE_STEPS;
/// Full analyses per window.
const FULLS_PER_WINDOW: usize = WINDOW / FULL_EVERY;

struct Ctx<'a> {
    /// Calibrated parameters and the base placement (the legalized
    /// output of a quick `DreamPlace` run).
    calibrated: &'a Calibrated,
    design: Design,
    pads: Placement,
    placement: Placement,
    sta: Sta,
    nudges: NudgeStream,
    pairs: PinPairSet,
    grad_x: Vec<f64>,
    grad_y: Vec<f64>,
    iterations: usize,
}

/// The run's input: `deep100k` with its clock calibrated on the base
/// placement. A function of the seed alone, prepared once and not part
/// of `setup_s` (it is one wirelength-only flow at `THREADS`, seconds
/// long, where a busy spell of the host would decide the reading).
fn prepare(seed: u64) -> Calibrated {
    designs::calibrate(designs::deep100k(seed), THREADS)
}

/// What `setup_s` times: design generation, analyzer build, the first
/// full analysis and the nudge stream.
fn setup(calibrated: &Calibrated, seed: u64) -> Ctx<'_> {
    let (design, pads) = benchgen::generate(&calibrated.params);
    let mut sta = Sta::new(&design, eco::rc_params_for(&calibrated.params))
        .expect("generated designs are acyclic")
        .with_threads(LOOP_THREADS);
    sta.analyze(&design, &calibrated.placement);
    let nudges = NudgeStream::new(
        &design,
        &calibrated.placement,
        sub_seed(seed, 3),
        0.01,
        NUDGE_STEPS,
    );
    let n = design.num_cells();
    Ctx {
        placement: calibrated.placement.clone(),
        calibrated,
        design,
        pads,
        sta,
        nudges,
        pairs: PinPairSet::new(),
        grad_x: vec![0.0; n],
        grad_y: vec![0.0; n],
        iterations: 0,
    }
}

/// FNV-1a over every endpoint slack and every pin's arrival and required
/// time, bit for bit.
fn state_hash(design: &Design, sta: &Sta) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in sta.endpoint_slacks() {
        mix(e.pin.index() as u64);
        mix(e.slack.to_bits());
    }
    for pin in design.pin_ids() {
        mix(sta.arrival(pin).map_or(1, f64::to_bits));
        mix(sta.required(pin).map_or(2, f64::to_bits));
    }
    h
}

/// Timings of one measured loop, in the order they were taken.
#[derive(Default)]
struct Samples {
    /// Milliseconds of each iteration.
    iteration: Vec<f64>,
    /// Milliseconds of each full analysis.
    full: Vec<f64>,
    /// Wall seconds of each whole window of [`WINDOW`] iterations, its
    /// full analyses and output checks included.
    window_s: Vec<f64>,
}

impl Ctx<'_> {
    /// One timing iteration; returns its wall time in milliseconds.
    fn iterate(&mut self, report: &mut Report) -> f64 {
        let (w0, w1) = pair_weights();
        let Ctx {
            design,
            placement,
            sta,
            nudges,
            pairs,
            grad_x,
            grad_y,
            ..
        } = self;
        let design = &*design;
        let (paths, ms) = timed("bench.timing_loop.iter", || {
            let (moved, _) = timed("bench.netlist.nudge", || nudges.apply_next(placement));
            timed("bench.sta.incr", || {
                sta.analyze_incremental(design, placement, &moved)
            });
            let failing = sta.failing_endpoints().len();
            let (paths, _) = timed("bench.sta.report_ept", || {
                sta.report_timing_endpoint(design, failing, 1)
            });
            let wns = sta.summary().wns;
            timed("bench.core.pinpair_update", || {
                for path in &paths {
                    pairs.update_path(&path.net_pin_pairs(sta), path.slack, wns, w0, w1);
                }
            });
            timed("bench.core.pinpair_grad", || {
                grad_x.fill(0.0);
                grad_y.fill(0.0);
                pin_pair_gradient(
                    design,
                    placement,
                    pairs,
                    PinPairLoss::Quadratic,
                    grad_x,
                    grad_y,
                )
            });
            paths
        });
        self.iterations += 1;
        let failing = self.sta.failing_endpoints().len();
        let iteration = self.iterations;
        report.check(paths.len() == failing, || {
            format!(
                "iteration {iteration}: {} paths for {failing} failing endpoints",
                paths.len()
            )
        });
        report.check(paths.iter().all(|p| p.slack < 0.0), || {
            format!("iteration {iteration}: an extracted path has non-negative slack")
        });
        ms
    }

    /// A full analysis; the state it computes must equal the
    /// incremental state it replaces. Returns its wall time.
    fn full_analysis(&mut self, report: &mut Report) -> f64 {
        let incremental = state_hash(&self.design, &self.sta);
        let ((), ms) = timed("bench.sta.analyze", || {
            self.sta.analyze(&self.design, &self.placement)
        });
        let full = state_hash(&self.design, &self.sta);
        let iteration = self.iterations;
        report.check(full == incremental, || {
            format!("iteration {iteration}: incremental state {incremental:#x} != full analysis {full:#x}")
        });
        ms
    }

    /// Appends whole windows to `s`: a window starts while `phase` has
    /// time left (the first one regardless), and finishes.
    fn measure(&mut self, phase: &Phase, report: &mut Report, s: &mut Samples) {
        loop {
            let window_start = Instant::now();
            for _ in 0..WINDOW {
                s.iteration.push(self.iterate(report));
                if self.iterations.is_multiple_of(FULL_EVERY) {
                    s.full.push(self.full_analysis(report));
                }
            }
            s.window_s.push(window_start.elapsed().as_secs_f64());
            if !phase.running() {
                break;
            }
        }
    }

    /// The final incremental state against an analyzer that has never
    /// seen an incremental update.
    fn check_against_fresh_analyzer(&self, report: &mut Report) {
        let mut fresh = Sta::new(&self.design, eco::rc_params_for(&self.calibrated.params))
            .expect("generated designs are acyclic")
            .with_threads(LOOP_THREADS);
        fresh.analyze(&self.design, &self.placement);
        let (ours, theirs) = (
            state_hash(&self.design, &self.sta),
            state_hash(&self.design, &fresh),
        );
        report.check(ours == theirs, || {
            format!("final incremental state {ours:#x} != fresh full analysis {theirs:#x}")
        });
    }
}

pub fn run(opts: &RunOpts, report: &mut Report) {
    if opts.trace {
        return run_traced(opts, report);
    }
    let calibrated = prepare(opts.seed);
    calibrated.check(report);
    let (mut ctx, setup_s) = repeat_setup(SETUP_REPS, || setup(&calibrated, opts.seed));
    let mut samples = Samples::default();
    ctx.measure(&Phase::start(opts.seconds), report, &mut samples);
    ctx.check_against_fresh_analyzer(report);
    report.quiet_timing("primary_op_ms", &samples.iteration, WINDOW);
    report.quiet_timing("secondary_op_ms", &samples.full, FULLS_PER_WINDOW);
    let fastest_window_s = crate::stats::quietest_window_median(&samples.window_s, 1);
    report.value("ops_per_s", WINDOW as f64 / fastest_window_s);
    report.quiet_timing("setup_s", &setup_s, 1);
    report.value("peak_rss_mb", peak_rss_mb());
}

fn run_traced(opts: &RunOpts, report: &mut Report) {
    let calibrated = prepare(opts.seed);
    calibrated.check(report);
    let mut ctx = setup(&calibrated, opts.seed);
    // Half the seconds untraced, half traced: the difference between the
    // two medians is what the harness's spans cost.
    let (mut untraced, mut traced_samples) = (Samples::default(), Samples::default());
    ctx.measure(&Phase::start(opts.seconds / 2.0), report, &mut untraced);

    traced::begin();
    probe::layers(
        report,
        &ctx.calibrated.params,
        &ctx.design,
        &ctx.pads,
        &ctx.calibrated.placement,
        opts.seed,
    );
    ctx.measure(
        &Phase::start(opts.seconds / 2.0),
        report,
        &mut traced_samples,
    );
    let chunks = traced::end();
    ctx.check_against_fresh_analyzer(report);

    let lanes = traced::export_chunks(report, "timing_loop", &chunks);
    traced::report_shares(report, &lanes, |name| name == "bench.timing_loop.iter");
    let (before, after) = (
        crate::stats::quietest_window_median(&untraced.iteration, WINDOW),
        crate::stats::quietest_window_median(&traced_samples.iteration, WINDOW),
    );
    report.value("trace.overhead_pct", (after - before) / before * 100.0);
}
