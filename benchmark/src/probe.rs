//! The per-layer probe of the traced run: the harness timing one call
//! into each layer's public entry points on the workload's own design
//! and placement, inside `bench.<layer>.*` spans. Counts are exact and
//! repeat exactly for a seed.

use crate::harness::{
    micros, pair_weights, pin_pair_gradient, timed, timed_reps, NudgeStream, THREADS,
};
use crate::report::Report;
use crate::stats;
use batch::{JobReport, JobStatus};
use benchgen::CircuitParams;
use netlist::{Design, Placement};
use placer::{ElectrostaticDensity, PlacerConfig, WaScratch, WaWirelength};
use sta::Sta;
use tdp_core::{PinPairLoss, PinPairSet, RuntimeBreakdown, Session};
use tdp_route::{CongestionAnalyzer, RouteConfig};

/// Repetitions of a kernel-sized probe.
const REPS: usize = 5;

/// Probes every layer that has a design-level entry point on
/// `params`' design at `placement` (a legalized placement of it).
pub fn layers(
    report: &mut Report,
    params: &CircuitParams,
    design: &Design,
    pads: &Placement,
    placement: &Placement,
    seed: u64,
) {
    let rc = eco::rc_params_for(params);

    // benchgen / netlist / set-up layers.
    report.timing(
        "benchgen.generate_ms",
        &timed_reps("bench.benchgen.generate", 3, || {
            benchgen::generate(params);
        }),
    );
    report.value("netlist.pins", design.num_pins() as f64);
    report.timing(
        "sta.build_ms",
        &timed_reps("bench.sta.build", 3, || {
            Sta::new(design, rc).expect("acyclic");
        }),
    );
    let mut builds = Vec::new();
    let mut session = None;
    for _ in 0..3 {
        let (d, p) = (design.clone(), pads.clone());
        let (s, ms) = timed("bench.core.session_build", || {
            Session::builder(d, p).build().expect("acyclic")
        });
        builds.push(ms);
        session = Some(s);
    }
    report.timing("core.session_build_ms", &builds);
    let session = session.expect("built three times");

    sta_layer(report, design, placement, rc, seed);
    placer_layer(report, design, pads, placement, seed);
    route_layer(report, design, placement, seed);
    eco_layer(report, &session, params, seed);

    report.timing(
        "core.evaluate_ms",
        &timed_reps("bench.core.evaluate", 3, || {
            tdp_core::evaluate(design, placement, rc);
        }),
    );

    // parx: the cost of dispatching one parallel kernel that does
    // nothing (four one-item chunks — the fewest `par_for` spreads over
    // threads — on two workers).
    let dispatch = micros(200, || {
        parx::par_for(THREADS, 4, 1, |r| {
            std::hint::black_box(r);
        })
    });
    report.timing("parx.dispatch_us", &dispatch);

    jsonio_layer(report, design, placement, rc);
    journal_layer(report);
}

/// One 1%-churn nudge stream step pair (forward, then exactly undone).
fn nudges(design: &Design, placement: &Placement, seed: u64) -> NudgeStream {
    NudgeStream::new(design, placement, seed, 0.01, 1)
}

fn sta_layer(
    report: &mut Report,
    design: &Design,
    placement: &Placement,
    rc: sta::RcParams,
    seed: u64,
) {
    let mut sta = Sta::new(design, rc).expect("acyclic");
    sta.set_threads(1);
    let t1 = timed_reps("bench.sta.analyze_t1", REPS, || {
        sta.analyze(design, placement)
    });
    sta.set_threads(THREADS);
    let full = timed_reps("bench.sta.analyze", REPS, || sta.analyze(design, placement));
    let refresh = timed_reps("bench.sta.rc_refresh", REPS, || {
        sta.refresh_rc(design, placement)
    });
    report.timing("sta.analyze_t1_ms", &t1);
    report.timing("sta.analyze_ms", &full);
    report.timing("sta.rc_refresh_ms", &refresh);

    // Incremental write: 1% of the movable cells nudged, then put back.
    let mut moved_placement = placement.clone();
    let mut stream = nudges(design, placement, seed);
    let mut incr = Vec::new();
    let mut refreshed = 0;
    for step in 0..2 * REPS {
        let moved = stream.apply_next(&mut moved_placement);
        let before = sta.rc_stats();
        let ((), ms) = timed("bench.sta.incr", || {
            sta.analyze_incremental(design, &moved_placement, &moved)
        });
        incr.push(ms);
        if step == 0 {
            refreshed = sta.rc_stats().since(before).nets_refreshed;
        }
    }
    report.timing("sta.incr_ms", &incr);
    report.value("sta.incr_nets_refreshed", refreshed as f64);
    report.value(
        "sta.incr_vs_full",
        stats::median(&incr) / stats::median(&full),
    );

    // Reads: the paper's per-endpoint extraction against the global one.
    let failing = sta.failing_endpoints().len();
    let mut paths = Vec::new();
    let ept = timed_reps("bench.sta.report_ept", REPS, || {
        paths = sta.report_timing_endpoint(design, failing, 1);
    });
    let ept_k10 = timed_reps("bench.sta.report_ept_k10", 3, || {
        sta.report_timing_endpoint(design, failing, 10);
    });
    report.timing("sta.report_ept_ms", &ept);
    report.timing("sta.report_ept_k10_ms", &ept_k10);
    report.value("sta.paths", paths.len() as f64);
    report.value("sta.failing_endpoints", failing as f64);
    const GLOBAL_N: usize = 256;
    let global = timed_reps("bench.sta.report_global", 3, || {
        sta.report_timing(design, GLOBAL_N);
    });
    let ept_equal_n = timed_reps("bench.sta.report_ept_equal_n", REPS, || {
        sta.report_timing_endpoint(design, GLOBAL_N, 1);
    });
    report.timing("sta.report_global_ms", &global);
    report.value(
        "sta.global_over_ept",
        stats::median(&global) / stats::median(&ept_equal_n),
    );

    // core: Eq. 9 weight update over the extracted paths, then the
    // pin-to-pin loss and gradient over the resulting set.
    let wns = sta.summary().wns;
    let (w0, w1) = pair_weights();
    let tuples: Vec<_> = paths
        .iter()
        .map(|p| (p.net_pin_pairs(&sta), p.slack))
        .collect();
    let mut pairs = PinPairSet::new();
    let update = timed_reps("bench.core.pinpair_update", REPS, || {
        pairs.clear();
        for (pp, slack) in &tuples {
            pairs.update_path(pp, *slack, wns, w0, w1);
        }
    });
    let n = design.num_cells();
    let (mut gx, mut gy) = (vec![0.0; n], vec![0.0; n]);
    let grad = timed_reps("bench.core.pinpair_grad", REPS, || {
        pin_pair_gradient(
            design,
            placement,
            &pairs,
            PinPairLoss::Quadratic,
            &mut gx,
            &mut gy,
        );
    });
    report.timing("core.pinpair_update_ms", &update);
    report.timing("core.pinpair_grad_ms", &grad);
    report.value("core.pin_pairs", pairs.len() as f64);
}

fn placer_layer(
    report: &mut Report,
    design: &Design,
    pads: &Placement,
    placement: &Placement,
    seed: u64,
) {
    let cfg = PlacerConfig::default();
    let die = design.die();
    // The engine's base gamma: gamma_factor × mean bin dimension.
    let bin = (die.width() / cfg.grid as f64 + die.height() / cfg.grid as f64) / 2.0;
    let wl = WaWirelength::new(cfg.gamma_factor * bin);
    let n = design.num_cells();
    let (mut gx, mut gy) = (vec![0.0; n], vec![0.0; n]);
    let mut scratch = WaScratch::default();
    for (name, span, threads) in [
        ("placer.wl_grad_t1_ms", "bench.placer.wl_grad_t1", 1),
        ("placer.wl_grad_ms", "bench.placer.wl_grad", THREADS),
    ] {
        let samples = timed_reps(span, REPS, || {
            wl.accumulate_gradient_threads(
                design,
                placement,
                &[],
                &mut gx,
                &mut gy,
                threads,
                &mut scratch,
            );
        });
        report.timing(name, &samples);
    }
    let mut density =
        ElectrostaticDensity::new(design, pads, cfg.grid, cfg.grid, cfg.target_density);
    for (name, span, threads) in [
        ("placer.density_t1_ms", "bench.placer.density_t1", 1),
        ("placer.density_ms", "bench.placer.density", THREADS),
    ] {
        let samples = timed_reps(span, REPS, || {
            density.update(design, placement);
            density.accumulate_gradient_threads(design, placement, 1.0, &mut gx, &mut gy, threads);
        });
        report.timing(name, &samples);
    }

    // Legalization of a nearly legal placement: every movable cell
    // jittered off its site by up to half a row, as a converged global
    // placement leaves them.
    let row = design.row_height();
    let mut state = seed | 1;
    let mut jittered = placement.clone();
    for c in design.cell_ids().filter(|&c| !design.cell(c).fixed) {
        let mut unit = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 10_007) as f64 / 10_007.0 - 0.5
        };
        let (x, y) = placement.get(c);
        jittered.set(c, x + unit() * row, y + unit() * row);
    }
    jittered.clamp_to_die(design);
    let mut legal = Vec::new();
    for _ in 0..3 {
        let mut p = jittered.clone();
        let (_, ms) = timed("bench.placer.legalize", || {
            placer::abacus_legalize(design, &mut p)
        });
        legal.push(ms);
    }
    report.timing("placer.legalize_ms", &legal);
}

fn route_layer(report: &mut Report, design: &Design, placement: &Placement, seed: u64) {
    let mut analyzer = CongestionAnalyzer::new(design, RouteConfig::default());
    analyzer.set_threads(THREADS);
    report.timing(
        "route.analyze_ms",
        &timed_reps("bench.route.analyze", REPS, || {
            analyzer.analyze(design, placement)
        }),
    );
    let mut moved_placement = placement.clone();
    let mut stream = nudges(design, placement, seed);
    let mut incr = Vec::new();
    let mut touched = 0;
    for step in 0..2 * REPS {
        let moved = stream.apply_next(&mut moved_placement);
        let ((), ms) = timed("bench.route.incr", || {
            analyzer.analyze_incremental(design, &moved_placement, &moved)
        });
        incr.push(ms);
        if step == 0 {
            touched = analyzer.last_dirty_bins().len();
        }
    }
    report.timing("route.incr_ms", &incr);
    report.value("route.touched_bins", touched as f64);
}

/// A local ECO session driven like the daemon drives one (single
/// analysis thread, 0.5%-churn batches, 4 paths per query), no wire.
fn eco_layer(report: &mut Report, session: &Session, params: &CircuitParams, seed: u64) {
    let mut eco = eco::EcoSession::open(session, eco::rc_params_for(params), 1);
    let steps = benchgen::eco_stress(
        eco.design(),
        eco.placement(),
        &benchgen::EcoStressParams::at_churn(seed, 0.005, 8),
    );
    let (mut apply, mut query, mut revert) = (Vec::new(), Vec::new(), Vec::new());
    let mut dirty = 0;
    for (i, step) in steps.iter().enumerate() {
        let batch = eco::DeltaBatch::from_step(step);
        let (summary, ms) = timed("bench.eco.apply", || {
            eco.apply(&batch).expect("generated batch is valid")
        });
        apply.push(ms);
        if i == 0 {
            dirty = summary.dirty_nets.len();
        }
        query.push(timed("bench.eco.query", || eco.query(4)).1);
        revert.push(
            timed("bench.eco.revert", || {
                eco.revert().expect("one batch applied")
            })
            .1,
        );
    }
    report.timing("eco.apply_ms", &apply);
    report.timing("eco.query_ms", &query);
    report.timing("eco.revert_ms", &revert);
    report.value("eco.dirty_nets", dirty as f64);
}

/// Parse and encode of one job report line, the payload of every
/// `wait`/`status` answer and `finished` journal record.
fn jsonio_layer(report: &mut Report, design: &Design, placement: &Placement, rc: sta::RcParams) {
    let mut analyzer = CongestionAnalyzer::new(design, RouteConfig::default());
    analyzer.analyze(design, placement);
    let job = JobReport {
        job: 17,
        case: design.name().to_string(),
        objective: "Efficient-TDP (ours)".to_string(),
        cells: design.num_cells(),
        nets: design.num_nets(),
        status: JobStatus::Done,
        iterations: 160,
        legal: true,
        metrics: Some(tdp_core::evaluate(design, placement, rc)),
        congestion: Some(analyzer.summary()),
        placement_hash: placement.content_hash(),
        runtime: RuntimeBreakdown::default(),
    };
    let line = batch::job_json(&job);
    let doc = tdp_jsonio::parse(&line).expect("job line parses");
    report.timing(
        "jsonio.parse_report_us",
        &micros(200, || {
            std::hint::black_box(tdp_jsonio::parse(std::hint::black_box(&line)).is_ok());
        }),
    );
    report.timing(
        "jsonio.encode_report_us",
        &micros(200, || {
            std::hint::black_box(std::hint::black_box(&doc).encode());
        }),
    );
}

/// Journal appends with and without the fsync, on a scratch journal.
fn journal_layer(report: &mut Report) {
    let dir = crate::harness::out_dir().join(format!("probe.journal.{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (journal, _) = serve::Journal::open(&dir).expect("scratch journal opens");
    let record = serve::journal::state_record(17, "running");
    let append = |sync| journal.append(&record, sync).expect("journal append");
    report.timing("journal.append_nosync_us", &micros(200, || append(false)));
    report.timing("journal.append_sync_us", &micros(30, || append(true)));
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
}
