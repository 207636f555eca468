//! Session API acceptance tests: warm runs bitwise equal to cold ones,
//! state-leak-free engine reuse, the custom objective front door,
//! observer-driven cancellation, and the five builtin objectives' results
//! and event streams pinned to constants.

use efficient_tdp::benchgen::{generate, CircuitParams};
use efficient_tdp::netlist::{fnv, Design, MoveTracker, Placement};
use efficient_tdp::placer::{legalize::check_legal, TimingObjective};
use efficient_tdp::tdp_core::{
    CongestionReport, FlowBuilder, FlowConfig, FlowError, FlowOutcome, FlowPhase, FlowSpec,
    FlowTraceRow, ObjectiveContext, ObjectiveFactory, ObjectiveSpec, Observer, ObserverAction,
    Session, SessionObjective,
};

fn quick_config() -> FlowConfig {
    let mut cfg = FlowConfig::default();
    cfg.placer.max_iterations = 260;
    cfg.placer.min_iterations = 60;
    cfg.timing_start = 120;
    cfg.timing_interval = 10;
    cfg
}

fn quick_spec(objective: ObjectiveSpec) -> FlowSpec {
    FlowBuilder::from_config(quick_config())
        .objective(objective)
        .build()
        .expect("quick config is valid")
}

/// Everything deterministic in an outcome must agree to the last bit;
/// wall-clock durations are excluded by construction.
fn assert_bitwise_equal(design: &Design, a: &FlowOutcome, b: &FlowOutcome) {
    assert_eq!(a.method, b.method);
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.metrics.tns.to_bits(), b.metrics.tns.to_bits());
    assert_eq!(a.metrics.wns.to_bits(), b.metrics.wns.to_bits());
    assert_eq!(a.metrics.hpwl.to_bits(), b.metrics.hpwl.to_bits());
    assert_eq!(a.metrics.failing_endpoints, b.metrics.failing_endpoints);
    for c in design.cell_ids() {
        assert_eq!(a.placement.get(c), b.placement.get(c), "cell diverged");
    }
    assert_eq!(a.trace.len(), b.trace.len());
    for (x, y) in a.trace.iter().zip(&b.trace) {
        assert_eq!(x.iter, y.iter);
        assert_eq!(x.hpwl.to_bits(), y.hpwl.to_bits());
        assert_eq!(x.overflow.to_bits(), y.overflow.to_bits());
        assert!(x.tns.to_bits() == y.tns.to_bits() || (x.tns.is_nan() && y.tns.is_nan()));
        assert!(x.wns.to_bits() == y.wns.to_bits() || (x.wns.is_nan() && y.wns.is_nan()));
    }
}

#[test]
fn repeated_session_runs_are_identical_no_state_leaks() {
    let (design, pads) = generate(&CircuitParams::small("rep", 52));
    let mut session = Session::builder(design.clone(), pads).build().unwrap();
    let spec = quick_spec(ObjectiveSpec::EfficientTdp);
    let first = session.run(&spec).unwrap();
    let second = session.run(&spec).unwrap();
    assert_bitwise_equal(&design, &first, &second);
}

/// Folds words into an FNV-1a hash behind a one-byte tag.
fn mix(h: u64, tag: u8, words: &[u64]) -> u64 {
    words
        .iter()
        .fold(fnv::mix_bytes(h, &[tag]), |h, &w| fnv::mix_u64(h, w))
}

fn mix_row(h: u64, row: &FlowTraceRow) -> u64 {
    mix(
        h,
        1,
        &[
            row.iter as u64,
            row.hpwl.to_bits(),
            row.overflow.to_bits(),
            row.tns.to_bits(),
            row.wns.to_bits(),
        ],
    )
}

/// Hashes every observer event (phase, timing, congestion, iteration)
/// in arrival order, so a reordered or dropped event changes the value.
struct EventHasher(u64);

impl Observer for EventHasher {
    fn on_phase_change(&mut self, phase: FlowPhase) -> ObserverAction {
        self.0 = mix(self.0, 0, &[phase as u64]);
        ObserverAction::Continue
    }
    fn on_iteration(&mut self, row: &FlowTraceRow) -> ObserverAction {
        self.0 = mix_row(self.0, row);
        ObserverAction::Continue
    }
    fn on_timing_analysis(&mut self, iter: usize, tns: f64, wns: f64) -> ObserverAction {
        self.0 = mix(self.0, 2, &[iter as u64, tns.to_bits(), wns.to_bits()]);
        ObserverAction::Continue
    }
    fn on_congestion_update(&mut self, iter: usize, report: &CongestionReport) -> ObserverAction {
        let words = [
            iter as u64,
            report.map_hash,
            report.peak.to_bits(),
            report.overflow.to_bits(),
            report.overflow_bins as u64,
        ];
        self.0 = mix(self.0, 3, &words);
        ObserverAction::Continue
    }
}

/// What one run is pinned to: placement hash, TNS / WNS / HPWL bits,
/// iterations, trace hash and observer event-stream hash.
type Pinned = (u64, u64, u64, u64, usize, u64, u64);

#[test]
fn session_method_matrix_matches_four_cold_runs_bitwise() {
    // Every builtin objective through one shared session must match a
    // cold one-shot session bit for bit, and both must match constants
    // recorded from the code: a refactor of the flow may move no result
    // bit and reorder no observer event.
    let expected: [(ObjectiveSpec, Pinned); 5] = [
        (
            ObjectiveSpec::DreamPlace,
            (
                0x373732a18ad305c2,
                0xc089d7d3a8dfc848,
                0xc0684ed1d1980248,
                0x40c584366ccec74a,
                76,
                0x8ad3573938074314,
                0xdc3a6557200ae514,
            ),
        ),
        (
            ObjectiveSpec::DreamPlace4,
            (
                0x883701999fd596e0,
                0xc04986830f14c6c0,
                0xc047ae852f995360,
                0x40c6909ac1c4e6b0,
                180,
                0xa427e9cbc3cc7c60,
                0x1ad4ecd307543f1d,
            ),
        ),
        (
            ObjectiveSpec::DifferentiableTdp,
            (
                0xaefb30a7ee838831,
                0x8000000000000000,
                0x0000000000000000,
                0x40c67d1f6ec06420,
                180,
                0x262d89ca0571500d,
                0xa404cfe8b3823d97,
            ),
        ),
        (
            ObjectiveSpec::EfficientTdp,
            (
                0x79f2b6507fb63985,
                0x8000000000000000,
                0x0000000000000000,
                0x40c5af7b14fec277,
                180,
                0x3857c5f3eedf5193,
                0x6f4f80bfc1b37a31,
            ),
        ),
        (
            ObjectiveSpec::congestion_aware(),
            (
                0x79f2b6507fb63985,
                0x8000000000000000,
                0x0000000000000000,
                0x40c5af7b14fec277,
                180,
                0x3857c5f3eedf5193,
                0xcc3cfc409d036f64,
            ),
        ),
    ];
    let (design, pads) = generate(&CircuitParams::small("mat", 53));
    let mut session = Session::builder(design.clone(), pads.clone())
        .build()
        .unwrap();
    for (method, want) in expected {
        let mut one_shot = Session::builder(design.clone(), pads.clone())
            .build()
            .unwrap();
        let cold = one_shot.run(&quick_spec(method.clone())).unwrap();
        let mut events = EventHasher(fnv::OFFSET);
        let shared = session
            .run_with_observer(&quick_spec(method), &mut events)
            .unwrap();
        assert_bitwise_equal(&design, &cold, &shared);
        check_legal(&design, &shared.placement)
            .unwrap_or_else(|e| panic!("{}: {e}", shared.method));
        let got: Pinned = (
            shared.placement.content_hash(),
            shared.metrics.tns.to_bits(),
            shared.metrics.wns.to_bits(),
            shared.metrics.hpwl.to_bits(),
            shared.iterations,
            shared.trace.iter().fold(fnv::OFFSET, mix_row),
            events.0,
        );
        assert_eq!(got, want, "{}: pinned results moved", shared.method);
    }
}

#[test]
fn stop_at_global_placement_matches_a_setup_stop_bitwise() {
    // A Stop at either pre-placement phase cancels the placement loop
    // before its first iteration: both outcomes are the legalized,
    // evaluated initial placement.
    struct StopAt(FlowPhase);
    impl Observer for StopAt {
        fn on_phase_change(&mut self, phase: FlowPhase) -> ObserverAction {
            if phase == self.0 {
                ObserverAction::Stop
            } else {
                ObserverAction::Continue
            }
        }
    }
    let (design, pads) = generate(&CircuitParams::small("gpstop", 43));
    let mut session = Session::builder(design.clone(), pads).build().unwrap();
    let spec = quick_spec(ObjectiveSpec::EfficientTdp);
    let setup = session
        .run_with_observer(&spec, &mut StopAt(FlowPhase::Setup))
        .unwrap();
    let placement = session
        .run_with_observer(&spec, &mut StopAt(FlowPhase::GlobalPlacement))
        .unwrap();
    for out in [&setup, &placement] {
        assert!(out.canceled);
        assert_eq!(out.iterations, 0, "no placement iteration may run");
        assert!(out.trace.is_empty());
    }
    assert_bitwise_equal(&design, &setup, &placement);
    assert_eq!(
        setup.placement.content_hash(),
        placement.placement.content_hash()
    );
}

/// A trivial custom objective: constant pull of every movable cell toward
/// the die center. Exists to prove arbitrary objectives run through the
/// same `session.run` path as the builtins.
struct CenterPull;

impl TimingObjective for CenterPull {
    fn begin_iteration(
        &mut self,
        _iter: usize,
        _design: &Design,
        _placement: &Placement,
        _moves: &mut MoveTracker,
    ) {
    }
    fn net_weights(&mut self, _design: &Design) -> Option<&[f64]> {
        None
    }
    fn accumulate_gradient(
        &mut self,
        design: &Design,
        placement: &Placement,
        grad_x: &mut [f64],
        grad_y: &mut [f64],
    ) -> f64 {
        let die = design.die();
        let (cx, cy) = (die.lx + die.width() / 2.0, die.ly + die.height() / 2.0);
        let mut total = 0.0;
        for c in design.cell_ids() {
            if design.cell(c).fixed {
                continue;
            }
            let (x, y) = placement.get(c);
            let (dx, dy) = (x - cx, y - cy);
            total += 1e-6 * (dx * dx + dy * dy);
            grad_x[c.index()] += 1e-6 * 2.0 * dx;
            grad_y[c.index()] += 1e-6 * 2.0 * dy;
        }
        total
    }
}

impl SessionObjective for CenterPull {}

struct CenterPullFactory;

impl ObjectiveFactory for CenterPullFactory {
    fn label(&self) -> String {
        "Center pull (custom)".to_string()
    }
    fn build(&self, _ctx: &ObjectiveContext<'_>) -> Result<Box<dyn SessionObjective>, FlowError> {
        Ok(Box::new(CenterPull))
    }
}

#[test]
fn custom_objective_runs_through_the_same_session_path() {
    let (design, pads) = generate(&CircuitParams::small("cust", 54));
    let mut session = Session::builder(design.clone(), pads).build().unwrap();

    let custom = FlowBuilder::from_config(quick_config())
        .objective(ObjectiveSpec::custom(CenterPullFactory))
        .build()
        .unwrap();
    let out = session.run(&custom).unwrap();
    assert_eq!(out.method, "Center pull (custom)");
    assert!(out.iterations > 0);
    assert_eq!(out.trace.len(), out.iterations);
    check_legal(&design, &out.placement).unwrap();
    assert!(out.metrics.hpwl.is_finite() && out.metrics.hpwl > 0.0);
    // The custom gradient must have fed the trace like any builtin's.
    assert!(out.trace.iter().all(|r| r.tns.is_nan()), "no STA was run");

    // The same session still runs the paper's method afterwards.
    let ours = session
        .run(&quick_spec(ObjectiveSpec::EfficientTdp))
        .unwrap();
    assert!(ours.trace.iter().any(|r| !r.tns.is_nan()));
}

#[test]
fn observer_cancellation_yields_well_formed_partial_outcome() {
    struct StopAt(usize);
    impl Observer for StopAt {
        fn on_iteration(&mut self, row: &efficient_tdp::tdp_core::FlowTraceRow) -> ObserverAction {
            if row.iter + 1 >= self.0 {
                ObserverAction::Stop
            } else {
                ObserverAction::Continue
            }
        }
    }
    let (design, pads) = generate(&CircuitParams::small("canc", 55));
    let mut session = Session::builder(design.clone(), pads).build().unwrap();
    let spec = quick_spec(ObjectiveSpec::EfficientTdp);

    let full = session.run(&spec).unwrap();
    let partial = session.run_with_observer(&spec, &mut StopAt(40)).unwrap();
    assert!(partial.canceled);
    assert!(!full.canceled);
    assert_eq!(partial.iterations, 40);
    assert_eq!(partial.trace.len(), 40);
    assert!(partial.iterations < full.iterations);
    check_legal(&design, &partial.placement).unwrap();
    assert!(partial.metrics.hpwl.is_finite() && partial.metrics.hpwl > 0.0);
    assert!(partial.metrics.total_endpoints > 0);
    // The prefix the partial run did execute matches the full run.
    for (p, f) in partial.trace.iter().zip(&full.trace) {
        assert_eq!(p.hpwl.to_bits(), f.hpwl.to_bits());
    }

    // Cancellation leaves no residue: the next full run is pristine.
    let again = session.run(&spec).unwrap();
    assert_bitwise_equal(&design, &full, &again);
}
