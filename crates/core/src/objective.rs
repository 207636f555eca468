//! The open objective surface: what a [`Session`](crate::Session) run
//! optimizes.
//!
//! [`ObjectiveSpec`] names one of the paper's builtin objectives or wraps
//! a user [`ObjectiveFactory`]; the factory builds a fresh
//! [`SessionObjective`] per run from an [`ObjectiveContext`] that shares
//! the session's timing graph.

use crate::config::FlowConfig;
use crate::congestion::{CongestionAwareObjective, DEFAULT_CONGESTION_WEIGHT};
use crate::error::FlowError;
use crate::flow::EfficientTdpObjective;
use crate::weighting::NetWeightingObjective;
use netlist::Design;
use placer::{NoTimingObjective, TimingObjective};
use sta::{Sta, TimingGraph};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A [`TimingObjective`] that a [`Session`](crate::Session) knows how to
/// drive: besides the engine hooks it exposes the timing trace (streamed
/// to [`Observer::on_timing_analysis`](crate::Observer::on_timing_analysis)
/// as entries appear) and its accumulated STA/weighting runtimes (folded
/// into the [`RuntimeBreakdown`](crate::RuntimeBreakdown)).
///
/// Objectives that never run timing analysis — like the plain wirelength
/// baseline — use the defaults.
pub trait SessionObjective: TimingObjective {
    /// `(iteration, tns, wns)` entries recorded at each timing analysis,
    /// in iteration order, appended as they happen.
    fn timing_trace(&self) -> &[(usize, f64, f64)] {
        &[]
    }

    /// Accumulated `(timing-analysis, weighting)` wall-clock.
    fn runtimes(&self) -> (Duration, Duration) {
        (Duration::ZERO, Duration::ZERO)
    }

    /// `(iteration, summary)` entries recorded at each congestion-map
    /// refresh, in iteration order, appended as they happen — streamed
    /// to [`Observer::on_congestion_update`](crate::Observer::on_congestion_update).
    /// Empty for objectives that never estimate congestion (the default).
    fn congestion_trace(&self) -> &[(usize, tdp_route::CongestionReport)] {
        &[]
    }

    /// Accumulated wall-clock of the objective's congestion kernels,
    /// folded into [`RuntimeBreakdown::congestion`](crate::RuntimeBreakdown::congestion).
    fn congestion_time(&self) -> Duration {
        Duration::ZERO
    }

    /// Allocation/op counters of the objective's RC work, folded into
    /// [`RuntimeBreakdown::rc`](crate::RuntimeBreakdown::rc). Zero for
    /// objectives without an analyzer (the default).
    fn rc_stats(&self) -> sta::RcOpStats {
        sta::RcOpStats::default()
    }
}

impl SessionObjective for NoTimingObjective {}

/// What a custom objective gets to build itself from: the session's design
/// plus shared handles to the timing infrastructure.
pub struct ObjectiveContext<'a> {
    pub(crate) design: &'a Design,
    pub(crate) config: &'a FlowConfig,
    pub(crate) graph: &'a Arc<TimingGraph>,
}

impl ObjectiveContext<'_> {
    /// The design the flow will place.
    pub fn design(&self) -> &Design {
        self.design
    }

    /// The resolved flow configuration for this run.
    pub fn config(&self) -> &FlowConfig {
        self.config
    }

    /// A pristine timing analyzer sharing the session's graph — no graph
    /// construction happens here, which is the entire point of the
    /// session. Uses the run's wire parasitics and thread count.
    pub fn fresh_sta(&self) -> Sta {
        Sta::from_parts(Arc::clone(self.graph), self.design, self.config.rc)
            .with_threads(self.config.threads)
    }
}

/// Builds the objective a [`FlowSpec`](crate::FlowSpec) names, once per
/// run.
///
/// The open extension point: implement it, wrap it in
/// [`ObjectiveSpec::custom`], and your objective runs through exactly the same `session.run` path as the
/// paper's method — same engine, same legalization, same evaluation kit,
/// same observers.
pub trait ObjectiveFactory {
    /// Human-readable method label, recorded in
    /// [`FlowOutcome::method`](crate::FlowOutcome).
    fn label(&self) -> String;

    /// Builds a fresh objective for one run.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] when the objective cannot be built (e.g. an
    /// unsupported configuration).
    fn build(&self, ctx: &ObjectiveContext<'_>) -> Result<Box<dyn SessionObjective>, FlowError>;

    /// Whether the objective optimizes timing on the
    /// `timing_start`/`timing_interval` schedule. Defaults to `true`:
    /// the run keeps iterating past the timing start (at least
    /// [`FlowConfig::timing_iteration_floor`] iterations) and
    /// [`FlowSpec::new`](crate::FlowSpec::new) rejects schedules that
    /// cannot fit. Objectives that never consult the timing schedule
    /// should return `false`; the run then stops at density convergence
    /// like the wirelength baseline.
    fn is_timing_driven(&self) -> bool {
        true
    }
}

/// Which placement objective a run uses.
///
/// The first four builtin variants reproduce the paper's comparison
/// matrix and [`ObjectiveSpec::CongestionAware`] extends it with
/// routability;
/// [`ObjectiveSpec::Custom`] admits any user objective through the same
/// front door. Factories must be `Send + Sync`: a spec is a *description*
/// of a run, and batch executors ship descriptions across worker threads
/// (each worker builds the actual objective locally via
/// [`ObjectiveFactory::build`], so the objective itself needs neither).
#[derive(Clone)]
pub enum ObjectiveSpec {
    /// Wirelength-driven DREAMPlace (no timing engine).
    ///
    /// Reproduction semantic: runs with this objective stop at density
    /// convergence — `min_iterations` is clamped to at most 150, as the
    /// original DREAMPlace does (that early stop *is* Table 4's runtime
    /// gap). A pure-wirelength objective that should honor the configured
    /// schedule instead can be registered via [`ObjectiveSpec::custom`]
    /// with [`ObjectiveFactory::is_timing_driven`] returning `false`.
    DreamPlace,
    /// DREAMPlace 4.0 momentum net weighting.
    DreamPlace4,
    /// Differentiable-TDP-style smoothed net weighting.
    DifferentiableTdp,
    /// The paper's pin-to-pin attraction on extracted critical paths.
    EfficientTdp,
    /// [`ObjectiveSpec::EfficientTdp`] plus a differentiable congestion
    /// penalty: a RUDY congestion map is maintained on the timing
    /// schedule (incrementally, from the engine's move tracker) and
    /// every net overlapping overflowed bins is pulled inward by
    /// `weight · exposure` on its bounding-box extremes. See
    /// [`CongestionAwareObjective`].
    CongestionAware {
        /// Congestion penalty multiplier (validated finite and
        /// non-negative by [`FlowSpec::new`](crate::FlowSpec::new));
        /// [`DEFAULT_CONGESTION_WEIGHT`]
        /// is the calibrated default.
        weight: f64,
    },
    /// A user-supplied objective factory.
    Custom(Arc<dyn ObjectiveFactory + Send + Sync>),
}

impl ObjectiveSpec {
    /// Wraps a factory in a spec.
    pub fn custom<F: ObjectiveFactory + Send + Sync + 'static>(factory: F) -> Self {
        ObjectiveSpec::Custom(Arc::new(factory))
    }

    /// The congestion-aware objective with the calibrated default
    /// weight.
    pub fn congestion_aware() -> Self {
        ObjectiveSpec::CongestionAware {
            weight: DEFAULT_CONGESTION_WEIGHT,
        }
    }

    /// The method label recorded in [`FlowOutcome::method`](crate::FlowOutcome).
    pub fn label(&self) -> String {
        match self {
            ObjectiveSpec::DreamPlace => "DREAMPlace".to_string(),
            ObjectiveSpec::DreamPlace4 => "DREAMPlace 4.0".to_string(),
            ObjectiveSpec::DifferentiableTdp => "Differentiable-TDP".to_string(),
            ObjectiveSpec::EfficientTdp => "Efficient-TDP (ours)".to_string(),
            ObjectiveSpec::CongestionAware { .. } => "Congestion-Aware TDP".to_string(),
            ObjectiveSpec::Custom(f) => f.label(),
        }
    }

    /// Whether the placement schedule must be extended past the timing
    /// start (everything except the pure wirelength baseline; custom
    /// factories answer for themselves via
    /// [`ObjectiveFactory::is_timing_driven`]).
    pub(crate) fn is_timing_driven(&self) -> bool {
        match self {
            ObjectiveSpec::DreamPlace => false,
            ObjectiveSpec::Custom(f) => f.is_timing_driven(),
            _ => true,
        }
    }

    pub(crate) fn build(
        &self,
        ctx: &ObjectiveContext<'_>,
    ) -> Result<Box<dyn SessionObjective>, FlowError> {
        let cfg = ctx.config().clone();
        Ok(match self {
            ObjectiveSpec::DreamPlace => Box::new(NoTimingObjective),
            ObjectiveSpec::DreamPlace4 => Box::new(NetWeightingObjective::momentum(
                ctx.fresh_sta(),
                ctx.design(),
                cfg,
            )),
            ObjectiveSpec::DifferentiableTdp => Box::new(
                NetWeightingObjective::differentiable_tdp(ctx.fresh_sta(), ctx.design(), cfg),
            ),
            ObjectiveSpec::EfficientTdp => {
                Box::new(EfficientTdpObjective::new(ctx.fresh_sta(), cfg))
            }
            ObjectiveSpec::CongestionAware { weight } => Box::new(CongestionAwareObjective::new(
                ctx.fresh_sta(),
                ctx.design(),
                cfg,
                *weight,
            )),
            ObjectiveSpec::Custom(f) => return f.build(ctx),
        })
    }
}

impl fmt::Debug for ObjectiveSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectiveSpec({})", self.label())
    }
}
