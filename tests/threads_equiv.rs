//! Flow-level thread-count invariance: the `threads` knob must never
//! change what the flow computes — only how fast. One worker and eight
//! workers must produce the same placement to the last bit.
//!
//! The 364-cell `CircuitParams::small` designs run the chunked kernels
//! inline (the density field's 128-cell chunks give 3 of them), so a
//! ~10k-cell design repeats the check where they really dispatch.

use efficient_tdp::benchgen::{generate, CircuitParams};
use efficient_tdp::netlist::{Design, Placement};
use efficient_tdp::tdp_core::{FlowBuilder, FlowOutcome, ObjectiveSpec, Session};

fn run_with_threads(design: &Design, pads: &Placement, threads: usize) -> FlowOutcome {
    run_schedule(design, pads, threads, (60, 260), (120, 10))
}

/// One Efficient-TDP flow with `(min, max)` iterations and a
/// `(start, interval)` timing schedule.
fn run_schedule(
    design: &Design,
    pads: &Placement,
    threads: usize,
    (min, max): (usize, usize),
    (start, interval): (usize, usize),
) -> FlowOutcome {
    let mut session = Session::builder(design.clone(), pads.clone())
        .build()
        .expect("generated designs are acyclic");
    let spec = FlowBuilder::new()
        .objective(ObjectiveSpec::EfficientTdp)
        .iterations(min, max)
        .timing_start(start)
        .timing_interval(interval)
        .threads(threads)
        .build()
        .expect("quick config is valid");
    session.run(&spec).expect("builtin objective builds")
}

#[test]
fn kernels_that_dispatch_are_thread_count_invariant() {
    let params = CircuitParams {
        num_comb: 9000,
        num_ff: 1000,
        ..CircuitParams::medium("teq10k", 29)
    };
    let (design, pads) = generate(&params);
    assert!(design.num_cells() > 10_000);
    let run = |threads| run_schedule(&design, &pads, threads, (40, 40), (10, 5));
    let one = run(1);
    let three = run(3);
    assert_eq!(one.trace.len(), three.trace.len());
    for (a, b) in one.trace.iter().zip(&three.trace) {
        let bits = |r: &efficient_tdp::tdp_core::FlowTraceRow| {
            [r.hpwl, r.overflow, r.tns, r.wns].map(f64::to_bits)
        };
        assert_eq!(bits(a), bits(b), "iter {} trace row", a.iter);
    }
    assert_eq!(
        one.placement.content_hash(),
        three.placement.content_hash(),
        "placement hash"
    );
}

#[test]
fn flow_results_are_thread_count_invariant() {
    let (design, pads) = generate(&CircuitParams::small("teq", 19));
    let one = run_with_threads(&design, &pads, 1);
    let many = run_with_threads(&design, &pads, 8);
    assert_eq!(one.metrics.tns.to_bits(), many.metrics.tns.to_bits());
    assert_eq!(one.metrics.wns.to_bits(), many.metrics.wns.to_bits());
    assert_eq!(one.metrics.hpwl.to_bits(), many.metrics.hpwl.to_bits());
    assert_eq!(one.iterations, many.iterations);
    for c in design.cell_ids() {
        assert_eq!(
            one.placement.get(c),
            many.placement.get(c),
            "cell placement diverged"
        );
    }
    // The trace (every iteration's HPWL/overflow/TNS) must agree too.
    assert_eq!(one.trace.len(), many.trace.len());
    for (a, b) in one.trace.iter().zip(&many.trace) {
        assert_eq!(a.hpwl.to_bits(), b.hpwl.to_bits(), "iter {} hpwl", a.iter);
        assert_eq!(a.overflow.to_bits(), b.overflow.to_bits());
        assert!(a.tns.to_bits() == b.tns.to_bits() || (a.tns.is_nan() && b.tns.is_nan()));
    }
    // The breakdown records the resolved worker count.
    assert_eq!(one.runtime.threads, 1);
    assert_eq!(many.runtime.threads, 8);
}

#[test]
fn auto_threads_matches_explicit_serial() {
    // `threads = 0` resolves to the machine's parallelism; results must
    // still match the serial run bit-for-bit.
    let (design, pads) = generate(&CircuitParams::small("teq0", 23));
    let serial = run_with_threads(&design, &pads, 1);
    let auto = run_with_threads(&design, &pads, 0);
    assert_eq!(serial.metrics.tns.to_bits(), auto.metrics.tns.to_bits());
    assert_eq!(serial.metrics.hpwl.to_bits(), auto.metrics.hpwl.to_bits());
    assert!(auto.runtime.threads >= 1);
    for c in design.cell_ids() {
        assert_eq!(serial.placement.get(c), auto.placement.get(c));
    }
}
