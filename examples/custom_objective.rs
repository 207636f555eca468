//! Extending the flow with a custom timing objective through the session
//! front door: implements `SessionObjective` + `ObjectiveFactory` to pull
//! all flip-flops toward their fan-in logic — a simple
//! register-retiming-flavoured heuristic — and compares it against the
//! plain wirelength flow.
//!
//! The custom objective registers via `ObjectiveSpec::custom` and runs
//! through exactly the same `session.run` path as the paper's
//! `EfficientTdp` method: same engine, same legalization, same evaluation
//! kit, same observers.
//!
//! ```text
//! cargo run --release --example custom_objective
//! ```

use netlist::{Design, MoveTracker, PinId, Placement};
use placer::TimingObjective;
use tdp_core::{
    FlowBuilder, FlowError, ObjectiveContext, ObjectiveFactory, ObjectiveSpec, Session,
    SessionObjective,
};

/// Pulls every flip-flop D pin toward its driver with a fixed quadratic
/// attraction (no STA at all — deliberately simple).
struct RegisterPull {
    strength: f64,
    pairs: Vec<(PinId, PinId)>,
}

impl RegisterPull {
    fn new(design: &Design, strength: f64) -> Self {
        let mut pairs = Vec::new();
        for cell in design.cell_ids() {
            let ty = design.cell_type(cell);
            if !ty.is_sequential {
                continue;
            }
            let Some(d_idx) = ty.data_pin() else { continue };
            let d_pin = design.cell_pin(cell, d_idx);
            if let Some(net) = design.pin(d_pin).net {
                pairs.push((design.net_driver(net), d_pin));
            }
        }
        Self { strength, pairs }
    }
}

impl TimingObjective for RegisterPull {
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
        let mut total = 0.0;
        for &(drv, d) in &self.pairs {
            let (xa, ya) = placement.pin_position(design, drv);
            let (xb, yb) = placement.pin_position(design, d);
            let (dx, dy) = (xa - xb, ya - yb);
            total += self.strength * (dx * dx + dy * dy);
            let ca = design.pin(drv).cell.index();
            let cb = design.pin(d).cell.index();
            grad_x[ca] += self.strength * 2.0 * dx;
            grad_y[ca] += self.strength * 2.0 * dy;
            grad_x[cb] -= self.strength * 2.0 * dx;
            grad_y[cb] -= self.strength * 2.0 * dy;
        }
        total
    }
}

// No timing trace, no STA runtimes: the defaults are exactly right.
impl SessionObjective for RegisterPull {}

/// A pure-wirelength baseline that honors the configured schedule
/// (unlike `ObjectiveSpec::DreamPlace`, which stops at density
/// convergence by design), so the comparison below is engine-for-engine.
struct WirelengthOnlyFactory;

impl ObjectiveFactory for WirelengthOnlyFactory {
    fn label(&self) -> String {
        "Wirelength only".to_string()
    }

    fn build(&self, _ctx: &ObjectiveContext<'_>) -> Result<Box<dyn SessionObjective>, FlowError> {
        Ok(Box::new(placer::NoTimingObjective))
    }

    fn is_timing_driven(&self) -> bool {
        false
    }
}

/// Builds a fresh `RegisterPull` for every run of the spec.
struct RegisterPullFactory {
    strength: f64,
}

impl ObjectiveFactory for RegisterPullFactory {
    fn label(&self) -> String {
        "Register pull (custom)".to_string()
    }

    fn build(&self, ctx: &ObjectiveContext<'_>) -> Result<Box<dyn SessionObjective>, FlowError> {
        Ok(Box::new(RegisterPull::new(ctx.design(), self.strength)))
    }

    // The pull never consults the timing schedule, so the run may stop at
    // density convergence like the wirelength baseline.
    fn is_timing_driven(&self) -> bool {
        false
    }
}

fn main() -> Result<(), FlowError> {
    let case = benchgen::suite()
        .into_iter()
        .find(|c| c.name == "sb18")
        .expect("suite has sb18");
    let (design, pads) = benchgen::generate(&case.params);

    // One session serves both the baseline and the custom objective.
    let mut session = Session::builder(design, pads).build()?;

    // Both flows get the same fixed schedule so the comparison is
    // engine-for-engine; both objectives are custom non-timing factories,
    // which honor the configured iteration bounds as-is.
    let baseline_spec = FlowBuilder::new()
        .objective(ObjectiveSpec::custom(WirelengthOnlyFactory))
        .iterations(400, 700)
        .build()?;
    let custom_spec = FlowBuilder::new()
        .objective(ObjectiveSpec::custom(RegisterPullFactory {
            strength: 5e-4,
        }))
        .iterations(400, 700)
        .build()?;

    let baseline = session.run(&baseline_spec)?;
    let pulled = session.run(&custom_spec)?;

    println!(
        "{:<22}: TNS {:>10.0} ps  WNS {:>8.0} ps  HPWL {:>10.0}",
        baseline.method, baseline.metrics.tns, baseline.metrics.wns, baseline.metrics.hpwl
    );
    println!(
        "{:<22}: TNS {:>10.0} ps  WNS {:>8.0} ps  HPWL {:>10.0}",
        pulled.method, pulled.metrics.tns, pulled.metrics.wns, pulled.metrics.hpwl
    );
    println!("\n(a crude static pull already shifts timing; the Efficient-TDP");
    println!("objective replaces it with extracted critical paths and Eq. 9 weights —");
    println!("both enter through the same ObjectiveSpec front door)");
    Ok(())
}
