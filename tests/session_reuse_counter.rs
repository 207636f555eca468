//! Setup-amortization proof: one `Session` running the full 4-method
//! matrix performs timing-graph construction (one `TimingGraph::build`,
//! counted by `graph_build_count`) exactly once,
//! while cold per-method sessions pay it per run.
//!
//! This file holds a single test on purpose: the construction counters
//! are process-wide, so no other test may run in this binary.

use efficient_tdp::benchgen::{generate, CircuitParams};
use efficient_tdp::sta::graph_build_count;
use efficient_tdp::tdp_core::{FlowBuilder, FlowConfig, FlowSpec, ObjectiveSpec, Session};

const METHODS: [ObjectiveSpec; 4] = [
    ObjectiveSpec::DreamPlace,
    ObjectiveSpec::DreamPlace4,
    ObjectiveSpec::DifferentiableTdp,
    ObjectiveSpec::EfficientTdp,
];

fn quick_config() -> FlowConfig {
    let mut cfg = FlowConfig::default();
    cfg.placer.max_iterations = 200;
    cfg.placer.min_iterations = 60;
    cfg.timing_start = 100;
    cfg.timing_interval = 10;
    cfg
}

fn spec(objective: ObjectiveSpec) -> FlowSpec {
    FlowBuilder::from_config(quick_config())
        .objective(objective)
        .build()
        .expect("quick config is valid")
}

#[test]
fn session_builds_graph_and_rc_data_exactly_once_for_the_matrix() {
    let (design, pads) = generate(&CircuitParams::small("cnt", 61));

    // One session, four methods: exactly one graph build.
    let graphs_before = graph_build_count();
    let mut session = Session::builder(design.clone(), pads.clone())
        .build()
        .unwrap();
    let mut shared = Vec::new();
    for method in METHODS {
        shared.push(session.run(&spec(method)).unwrap());
    }
    assert_eq!(
        graph_build_count() - graphs_before,
        1,
        "the session must build the timing graph exactly once for the whole matrix"
    );

    // Four cold runs — a fresh session per method, the shape a naive
    // caller produces: the setup is paid per run, one graph each.
    let graphs_before = graph_build_count();
    let mut cold = Vec::new();
    for method in METHODS {
        let mut one_shot = Session::builder(design.clone(), pads.clone())
            .build()
            .unwrap();
        cold.push(one_shot.run(&spec(method)).unwrap());
    }
    assert_eq!(graph_build_count() - graphs_before, 4);

    // And despite the amortization, the outcomes agree to the last bit.
    for (a, b) in shared.iter().zip(&cold) {
        assert_eq!(a.method, b.method);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.metrics.tns.to_bits(), b.metrics.tns.to_bits());
        assert_eq!(a.metrics.wns.to_bits(), b.metrics.wns.to_bits());
        assert_eq!(a.metrics.hpwl.to_bits(), b.metrics.hpwl.to_bits());
        for c in design.cell_ids() {
            assert_eq!(a.placement.get(c), b.placement.get(c));
        }
    }
}
