//! End-to-end integration tests spanning all workspace crates: generate a
//! benchmark, place it with each method, legalize, and evaluate with the
//! shared kit — all through the session API.

use efficient_tdp::benchgen::{generate, CircuitParams};
use efficient_tdp::netlist::{Design, Placement};
use efficient_tdp::placer::legalize::check_legal;
use efficient_tdp::tdp_core::{FlowBuilder, FlowConfig, FlowOutcome, ObjectiveSpec, Session};

fn quick_config() -> FlowConfig {
    let mut cfg = FlowConfig::default();
    cfg.placer.max_iterations = 300;
    cfg.placer.min_iterations = 120;
    cfg.timing_start = 140;
    cfg.timing_interval = 10;
    cfg
}

/// One cold flow: fresh session, one run.
fn run_cold(
    design: &Design,
    pads: &Placement,
    objective: ObjectiveSpec,
    cfg: &FlowConfig,
) -> FlowOutcome {
    let mut session = Session::builder(design.clone(), pads.clone())
        .build()
        .expect("generated designs are acyclic");
    let spec = FlowBuilder::from_config(cfg.clone())
        .objective(objective)
        .build()
        .expect("quick config is valid");
    session.run(&spec).expect("builtin objectives build")
}

#[test]
fn efficient_tdp_beats_wirelength_only_on_timing() {
    let (design, pads) = generate(&CircuitParams::small("e2e", 77));
    let cfg = quick_config();
    let baseline = run_cold(&design, &pads, ObjectiveSpec::DreamPlace, &cfg);
    let ours = run_cold(&design, &pads, ObjectiveSpec::EfficientTdp, &cfg);
    assert!(
        baseline.metrics.tns < 0.0,
        "calibration: the baseline must fail timing (tns {})",
        baseline.metrics.tns
    );
    assert!(
        ours.metrics.tns > baseline.metrics.tns,
        "ours {} vs baseline {}",
        ours.metrics.tns,
        baseline.metrics.tns
    );
    assert!(ours.metrics.wns >= baseline.metrics.wns);

    // The run's RC work reached its runtime breakdown: the objective's
    // timing analyses plus the final evaluation refresh.
    let rc = ours.runtime.rc;
    assert!(
        rc.refreshes >= 2,
        "expected objective + evaluation refreshes, got {rc:?}"
    );
    assert!(
        rc.nets_refreshed >= rc.refreshes,
        "every refresh touches at least one net: {rc:?}"
    );
    assert!(
        rc.scratch_reuses > 0,
        "later refreshes must reuse the first one's scratch: {rc:?}"
    );
}

#[test]
fn all_methods_yield_legal_placements_and_finite_metrics() {
    let (design, pads) = generate(&CircuitParams::small("e2e2", 13));
    let cfg = quick_config();
    // The labels reach batch JSONL, serve journal records and the
    // benchmark's row lookup, so they are pinned byte-for-byte.
    for (objective, label) in [
        (ObjectiveSpec::DreamPlace, "DREAMPlace"),
        (ObjectiveSpec::DreamPlace4, "DREAMPlace 4.0"),
        (ObjectiveSpec::DifferentiableTdp, "Differentiable-TDP"),
        (ObjectiveSpec::EfficientTdp, "Efficient-TDP (ours)"),
    ] {
        let out = run_cold(&design, &pads, objective, &cfg);
        assert_eq!(out.method, label);
        check_legal(&design, &out.placement).unwrap_or_else(|e| panic!("{}: {e}", out.method));
        assert!(out.metrics.hpwl.is_finite() && out.metrics.hpwl > 0.0);
        assert!(out.metrics.total_endpoints > 0);
        assert!(out.metrics.tns <= 0.0);
        assert!(out.metrics.tns <= out.metrics.wns);
        assert!(out.iterations > 0);
        assert_eq!(out.trace.len(), out.iterations);
    }
    assert_eq!(
        ObjectiveSpec::congestion_aware().label(),
        "Congestion-Aware TDP"
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let (design_a, pads_a) = generate(&CircuitParams::small("det", 5));
    let (design_b, pads_b) = generate(&CircuitParams::small("det", 5));
    assert_eq!(design_a.num_cells(), design_b.num_cells());
    let cfg = quick_config();
    let a = run_cold(&design_a, &pads_a, ObjectiveSpec::EfficientTdp, &cfg);
    let b = run_cold(&design_b, &pads_b, ObjectiveSpec::EfficientTdp, &cfg);
    assert_eq!(a.metrics.tns, b.metrics.tns);
    assert_eq!(a.metrics.wns, b.metrics.wns);
    assert_eq!(a.metrics.hpwl, b.metrics.hpwl);
    for c in design_a.cell_ids() {
        assert_eq!(a.placement.get(c), b.placement.get(c));
    }
}

#[test]
fn fixed_pads_never_move() {
    let (design, pads) = generate(&CircuitParams::small("pads", 31));
    let cfg = quick_config();
    let out = run_cold(&design, &pads, ObjectiveSpec::EfficientTdp, &cfg);
    for c in design.cell_ids() {
        if design.cell(c).fixed {
            assert_eq!(out.placement.get(c), pads.get(c), "pad moved");
        }
    }
}

#[test]
fn fixed_macros_never_move_and_stay_clear_of_cells() {
    let params = CircuitParams {
        num_macros: 3,
        ..CircuitParams::small("mac", 37)
    };
    let (design, pads) = generate(&params);
    let cfg = quick_config();
    let out = run_cold(&design, &pads, ObjectiveSpec::EfficientTdp, &cfg);
    check_legal(&design, &out.placement).unwrap();
    for c in design.cell_ids() {
        if design.cell(c).fixed {
            assert_eq!(out.placement.get(c), pads.get(c), "fixed cell moved");
        }
    }
}

#[test]
fn evaluation_kit_is_method_agnostic() {
    // Evaluating the same placement twice through the public kit gives
    // identical numbers, and matches a manual HPWL computation.
    let (design, pads) = generate(&CircuitParams::small("kit", 3));
    let cfg = quick_config();
    let out = run_cold(&design, &pads, ObjectiveSpec::DreamPlace, &cfg);
    let m1 = efficient_tdp::tdp_core::evaluate(&design, &out.placement, cfg.rc);
    let m2 = efficient_tdp::tdp_core::evaluate(&design, &out.placement, cfg.rc);
    assert_eq!(m1, m2);
    assert!((m1.hpwl - out.placement.total_hpwl(&design)).abs() < 1e-9);
}
