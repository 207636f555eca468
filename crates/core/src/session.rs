//! The reusable flow front door: [`Session`], [`FlowBuilder`] and the
//! open objective surface ([`ObjectiveSpec`] / [`ObjectiveFactory`]).
//!
//! A [`Session`] is constructed once per design
//! (`Session::builder(design, pads).build()?`), owns the netlist, the
//! timing graph and the placement-independent RC data behind shared
//! handles, and can [`Session::run`] any number of [`FlowSpec`]s against
//! them. Each run gets a pristine analyzer via [`Sta::from_parts`] (no
//! reconstruction, no state leakage), so repeated runs are bitwise
//! identical to cold ones — only faster to start.
//!
//! ```no_run
//! use benchgen::{generate, CircuitParams};
//! use tdp_core::{FlowBuilder, ObjectiveSpec, Session};
//!
//! # fn main() -> Result<(), tdp_core::FlowError> {
//! let (design, pads) = generate(&CircuitParams::small("demo", 1));
//! let mut session = Session::builder(design, pads).build()?;
//! let spec = FlowBuilder::new()
//!     .objective(ObjectiveSpec::EfficientTdp)
//!     .beta(5e-4)
//!     .threads(0)
//!     .build()?;
//! let outcome = session.run(&spec)?;
//! println!("TNS {:.1} after {} iterations", outcome.metrics.tns, outcome.iterations);
//! # Ok(())
//! # }
//! ```

use crate::config::FlowConfig;
use crate::congestion::{CongestionAwareObjective, DEFAULT_CONGESTION_WEIGHT};
use crate::error::FlowError;
use crate::extraction::ExtractionStrategy;
use crate::flow::{EfficientTdpObjective, FlowOutcome, FlowTraceRow, RuntimeBreakdown};
use crate::loss::PinPairLoss;
use crate::metrics::{evaluate_with, Metrics};
use crate::observer::{FlowPhase, NullObserver, Observer, ObserverAction, TraceObserver};
use crate::weighting::{DifferentiableTdpWeighting, MomentumNetWeighting};
use netlist::{io, CellMove, Design, DirtySummary, Placement};
use placer::{
    abacus_legalize, GlobalPlacer, IterationStats, NoTimingObjective, PlacerConfig, TimingObjective,
};
use sta::{NetTopology, RcParams, RcSkeleton, Sta, StaCheckpoint, TimingGraph};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A [`TimingObjective`] that a [`Session`] knows how to drive: besides
/// the engine hooks it exposes the timing trace (streamed to
/// [`Observer::on_timing_analysis`] as entries appear) and its accumulated
/// STA/weighting runtimes (folded into the [`RuntimeBreakdown`]).
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
    /// to [`Observer::on_congestion_update`]. Empty for objectives that
    /// never estimate congestion (the default).
    fn congestion_trace(&self) -> &[(usize, tdp_route::CongestionReport)] {
        &[]
    }

    /// Accumulated wall-clock of the objective's congestion kernels,
    /// folded into [`RuntimeBreakdown::congestion`].
    fn congestion_time(&self) -> Duration {
        Duration::ZERO
    }

    /// Allocation/op counters of the objective's RC work, folded into
    /// [`RuntimeBreakdown::rc`]. Zero for objectives without an analyzer
    /// (the default).
    fn rc_stats(&self) -> sta::RcOpStats {
        sta::RcOpStats::default()
    }
}

impl SessionObjective for NoTimingObjective {}

/// What a custom objective gets to build itself from: the session's design
/// plus shared handles to the timing infrastructure.
pub struct ObjectiveContext<'a> {
    design: &'a Design,
    config: &'a FlowConfig,
    graph: &'a Arc<TimingGraph>,
    skeleton: &'a Arc<RcSkeleton>,
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

    /// A pristine timing analyzer sharing the session's graph and RC
    /// data — no graph construction happens here, which is the entire
    /// point of the session. Uses the run's wire parasitics and thread
    /// count.
    pub fn fresh_sta(&self) -> Sta {
        Sta::from_parts(
            Arc::clone(self.graph),
            Arc::clone(self.skeleton),
            self.design,
            self.config.rc,
        )
        .with_threads(self.config.threads)
    }
}

/// Builds the objective a [`FlowSpec`] names, once per run.
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
    /// [`FlowSpec::new`] rejects schedules that cannot fit. Objectives
    /// that never consult the timing schedule should return `false`; the
    /// run then stops at density convergence like the wirelength
    /// baseline.
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
        /// non-negative by [`FlowSpec::new`]);
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
    fn is_timing_driven(&self) -> bool {
        match self {
            ObjectiveSpec::DreamPlace => false,
            ObjectiveSpec::Custom(f) => f.is_timing_driven(),
            _ => true,
        }
    }

    fn build(&self, ctx: &ObjectiveContext<'_>) -> Result<Box<dyn SessionObjective>, FlowError> {
        let cfg = ctx.config();
        Ok(match self {
            ObjectiveSpec::DreamPlace => Box::new(NoTimingObjective),
            ObjectiveSpec::DreamPlace4 => Box::new(MomentumNetWeighting::new(
                ctx.fresh_sta(),
                ctx.design(),
                cfg.timing_start,
                cfg.timing_interval,
                cfg.net_weight_alpha,
                cfg.momentum_decay,
            )),
            ObjectiveSpec::DifferentiableTdp => Box::new(DifferentiableTdpWeighting::new(
                ctx.fresh_sta(),
                ctx.design(),
                cfg.timing_start,
                cfg.timing_interval,
                cfg.net_weight_alpha,
            )),
            ObjectiveSpec::EfficientTdp => {
                Box::new(EfficientTdpObjective::new(ctx.fresh_sta(), cfg.clone()))
            }
            ObjectiveSpec::CongestionAware { weight } => Box::new(CongestionAwareObjective::new(
                ctx.fresh_sta(),
                ctx.design(),
                cfg.clone(),
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

/// A validated, runnable flow description: an objective plus a
/// [`FlowConfig`] that passed [`FlowConfig::validate`].
///
/// Built with [`FlowBuilder`]; consumed (by reference, reusable) by
/// [`Session::run`].
#[derive(Debug, Clone)]
pub struct FlowSpec {
    objective: ObjectiveSpec,
    config: FlowConfig,
}

impl FlowSpec {
    /// Validates `config` and pairs it with `objective`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Config`] for invalid hyperparameter
    /// combinations, including combinations that are only invalid for
    /// this objective (e.g. a timing schedule that cannot fit inside the
    /// iteration budget).
    pub fn new(objective: ObjectiveSpec, config: FlowConfig) -> Result<Self, FlowError> {
        config.validate()?;
        if let ObjectiveSpec::CongestionAware { weight } = &objective {
            if !weight.is_finite() || *weight < 0.0 {
                return Err(FlowError::Config(format!(
                    "congestion weight must be finite and non-negative (got {weight})"
                )));
            }
        }
        if objective.is_timing_driven() {
            // The session raises min_iterations to this floor so timing
            // optimization gets at least 6 intervals; if the hard cap is
            // below it, the schedule would silently truncate.
            let needed = config.timing_iteration_floor();
            if needed > config.placer.max_iterations {
                return Err(FlowError::Config(format!(
                    "timing schedule does not fit: timing_start + 6*timing_interval = {needed} \
                     exceeds placer.max_iterations ({}); raise max_iterations or start timing \
                     earlier",
                    config.placer.max_iterations
                )));
            }
        }
        Ok(Self { objective, config })
    }

    /// The objective this spec runs.
    pub fn objective(&self) -> &ObjectiveSpec {
        &self.objective
    }

    /// The validated configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }
}

/// Typed, validating construction of a [`FlowSpec`] — the replacement for
/// hand-assembling a 13-field [`FlowConfig`] literal.
///
/// Every setter is chainable; [`FlowBuilder::build`] runs
/// [`FlowConfig::validate`] and reports bad combinations as
/// [`FlowError::Config`] instead of letting them panic deep inside the
/// placer (e.g. a non-power-of-two density grid blowing up the FFT).
#[derive(Debug, Clone)]
pub struct FlowBuilder {
    objective: ObjectiveSpec,
    config: FlowConfig,
}

impl Default for FlowBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowBuilder {
    /// Starts from the paper's defaults with the [`ObjectiveSpec::EfficientTdp`]
    /// objective.
    pub fn new() -> Self {
        Self {
            objective: ObjectiveSpec::EfficientTdp,
            config: FlowConfig::default(),
        }
    }

    /// Starts from an existing configuration (still validated at
    /// [`FlowBuilder::build`]).
    pub fn from_config(config: FlowConfig) -> Self {
        Self {
            objective: ObjectiveSpec::EfficientTdp,
            config,
        }
    }

    /// Selects the objective.
    pub fn objective(mut self, objective: ObjectiveSpec) -> Self {
        self.objective = objective;
        self
    }

    /// The configuration as currently accumulated — **not yet
    /// validated** (validation happens at [`FlowBuilder::build`]). Lets
    /// callers that layer overrides read the value a coupled setter
    /// (e.g. [`FlowBuilder::pair_weights`]) would otherwise clobber.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// Pin-to-pin attraction penalty multiplier β (Eq. 6).
    pub fn beta(mut self, beta: f64) -> Self {
        self.config.beta = beta;
        self
    }

    /// Timing-analysis period m: STA + extraction every `m` iterations.
    pub fn timing_interval(mut self, interval: usize) -> Self {
        self.config.timing_interval = interval;
        self
    }

    /// Iteration at which timing optimization commences.
    pub fn timing_start(mut self, start: usize) -> Self {
        self.config.timing_start = start;
        self
    }

    /// Initial pin-pair weight w0 and increment scale w1 (Eq. 9).
    pub fn pair_weights(mut self, w0: f64, w1: f64) -> Self {
        self.config.w0 = w0;
        self.config.w1 = w1;
        self
    }

    /// Pin-to-pin loss (Table 3 ablation axis).
    pub fn loss(mut self, loss: PinPairLoss) -> Self {
        self.config.loss = loss;
        self
    }

    /// Critical-path extraction strategy (Table 1 / Table 3 axis).
    pub fn extraction(mut self, extraction: ExtractionStrategy) -> Self {
        self.config.extraction = extraction;
        self
    }

    /// Wire parasitics for the in-loop STA.
    pub fn rc(mut self, rc: RcParams) -> Self {
        self.config.rc = rc;
        self
    }

    /// Worker count for STA and the gradient kernels (`0` = one per
    /// hardware thread, `1` = serial; bit-identical results either way).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Congestion-model knobs: bin grid, routing capacity per unit
    /// area, pin-density overlay (see [`tdp_route::RouteConfig`]).
    /// Consumed by every run's evaluation-time congestion report and by
    /// the [`ObjectiveSpec::CongestionAware`] in-loop estimator.
    pub fn route(mut self, route: tdp_route::RouteConfig) -> Self {
        self.config.route = route;
        self
    }

    /// Sets the congestion penalty weight **of an already-selected**
    /// [`ObjectiveSpec::CongestionAware`] objective. A no-op for every
    /// other objective (like `beta` on the wirelength baseline), so an
    /// `all` sweep can carry a `congestion_weight=` override that tunes
    /// only its congestion-aware member without hijacking the rest.
    pub fn congestion_weight(mut self, weight: f64) -> Self {
        if matches!(self.objective, ObjectiveSpec::CongestionAware { .. }) {
            self.objective = ObjectiveSpec::CongestionAware { weight };
        }
        self
    }

    /// Momentum net-weighting decay (DREAMPlace 4.0 baseline).
    pub fn momentum_decay(mut self, decay: f64) -> Self {
        self.config.momentum_decay = decay;
        self
    }

    /// Net-weight boost scale for the net-weighting baselines.
    pub fn net_weight_alpha(mut self, alpha: f64) -> Self {
        self.config.net_weight_alpha = alpha;
        self
    }

    /// Replaces the whole underlying placer configuration.
    pub fn placer(mut self, placer: PlacerConfig) -> Self {
        self.config.placer = placer;
        self
    }

    /// Placement iteration bounds (`min` may be raised for timing-driven
    /// objectives so the loop survives past the timing start).
    pub fn iterations(mut self, min: usize, max: usize) -> Self {
        self.config.placer.min_iterations = min;
        self.config.placer.max_iterations = max;
        self
    }

    /// RNG seed for the initial cell spreading.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.placer.seed = seed;
        self
    }

    /// Validates the configuration and produces a reusable [`FlowSpec`].
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Config`] naming the first invalid field.
    pub fn build(self) -> Result<FlowSpec, FlowError> {
        FlowSpec::new(self.objective, self.config)
    }
}

/// Cached evaluation analyzer: rebuilt (cheaply, via [`Sta::from_parts`])
/// only when a run asks for different wire parasitics, and rolled back to
/// its pristine checkpoint between runs.
struct EvalCache {
    params: RcParams,
    sta: Sta,
    pristine: StaCheckpoint,
}

/// Cached evaluation-time congestion analyzer: the cell→nets index it
/// builds depends only on the design, so — like the STA graph and RC
/// skeleton — it is constructed once per session and reused by every
/// run (rebuilt only when a run asks for different route knobs). A full
/// [`CongestionAnalyzer::analyze`] recomputes every raster, bin and
/// exposure from the placement alone, so reuse never leaks state
/// between runs.
struct RouteEvalCache {
    config: tdp_route::RouteConfig,
    analyzer: tdp_route::CongestionAnalyzer,
}

/// A validated design ready to run flows: owns the netlist, pad
/// placement, timing graph and placement-independent RC data, and
/// amortizes their construction across every [`Session::run`].
///
/// Construction is the only place the timing graph is built — asserted by
/// [`sta::graph_build_count`] in the test suite. Each run receives a
/// pristine analyzer sharing the graph, so back-to-back runs of the same
/// [`FlowSpec`] produce bitwise-identical [`FlowOutcome`]s, and a full
/// method matrix through one session matches cold per-method runs
/// bit-for-bit.
///
/// # Sharing across threads and across time
///
/// A `Session` is `Send + Sync` (asserted by a compile-time test): it can
/// be built on one thread and handed to another, or parked in an
/// `Arc<Mutex<Session>>` cache by a long-lived service and reused by
/// whichever worker picks up the next request for the same design — the
/// serve daemon's session cache relies on exactly this. Runs need `&mut
/// self` (the cached evaluation analyzer is reused in place), so
/// concurrent runs on one session serialize on the mutex; the
/// run-isolation guarantee above means that serialization is the *only*
/// interaction between them.
pub struct Session {
    design: Design,
    pads: Placement,
    graph: Arc<TimingGraph>,
    skeleton: Arc<RcSkeleton>,
    eval: Option<EvalCache>,
    route_eval: Option<RouteEvalCache>,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("design", &self.design.name())
            .field("cells", &self.design.num_cells())
            .field("nets", &self.design.num_nets())
            .finish()
    }
}

/// Validating constructor for [`Session`].
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    design: Design,
    pads: Placement,
}

impl SessionBuilder {
    /// Overrides pad/cell positions from Bookshelf `.pl` text, layered on
    /// top of the positions passed to [`Session::builder`].
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Parse`] (with the offending line) on malformed
    /// input — parse failures never panic.
    pub fn pads_from_pl(mut self, text: &str) -> Result<Self, FlowError> {
        self.pads = io::read_pl(&self.design, text, Some(&self.pads))?;
        Ok(self)
    }

    /// Validates the design and builds the shared timing infrastructure —
    /// the one-time setup every subsequent [`Session::run`] reuses.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Graph`] if the design's combinational logic is
    /// cyclic.
    pub fn build(self) -> Result<Session, FlowError> {
        let graph = Arc::new(TimingGraph::build(&self.design)?);
        let skeleton = Arc::new(RcSkeleton::build(&self.design));
        Ok(Session {
            design: self.design,
            pads: self.pads,
            graph,
            skeleton,
            eval: None,
            route_eval: None,
        })
    }
}

impl Session {
    /// Starts building a session around `design`; `pads` must carry the
    /// fixed-cell positions.
    pub fn builder(design: Design, pads: Placement) -> SessionBuilder {
        SessionBuilder { design, pads }
    }

    /// The owned design.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The pad (fixed-cell) placement every run starts from.
    pub fn pads(&self) -> &Placement {
        &self.pads
    }

    /// The shared timing graph (built exactly once, at
    /// [`SessionBuilder::build`]).
    pub fn graph(&self) -> &TimingGraph {
        &self.graph
    }

    /// Shared handle to the timing graph, for building auxiliary
    /// analyzers via [`Sta::from_parts`] without reconstruction.
    pub fn graph_handle(&self) -> Arc<TimingGraph> {
        Arc::clone(&self.graph)
    }

    /// Shared handle to the placement-independent RC data.
    pub fn skeleton_handle(&self) -> Arc<RcSkeleton> {
        Arc::clone(&self.skeleton)
    }

    /// Applies a batch of cell moves to `placement` and reports exactly
    /// what was dirtied — the single shared path between the optimizer's
    /// `MoveTracker` plumbing and external ECO callers.
    ///
    /// Moves are applied in batch order (a later move of the same cell
    /// wins); the returned [`DirtySummary`] lists the moved cells and
    /// their incident nets, both sorted by index and deduplicated — the
    /// exact shape `Sta::analyze_incremental` and
    /// `CongestionAnalyzer::analyze_incremental` expect.
    pub fn apply_moves(&self, placement: &mut Placement, moves: &[CellMove]) -> DirtySummary {
        let cells: Vec<netlist::CellId> = moves.iter().map(|m| m.cell).collect();
        for m in moves {
            placement.set(m.cell, m.x, m.y);
        }
        DirtySummary::from_moved_cells(&self.design, &cells)
    }

    /// Runs one flow. Callable any number of times; runs never observe
    /// each other's state.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] if the spec's objective fails to build.
    pub fn run(&mut self, spec: &FlowSpec) -> Result<FlowOutcome, FlowError> {
        self.run_with_observer(spec, &mut NullObserver)
    }

    /// [`Session::run`] with a streaming [`Observer`]: per-iteration rows,
    /// timing analyses and phase changes arrive during the run, and any
    /// callback may cancel it early — the returned outcome is then the
    /// legalized, evaluated partial result with
    /// [`FlowOutcome::canceled`](crate::FlowOutcome) set.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] if the spec's objective fails to build.
    pub fn run_with_observer(
        &mut self,
        spec: &FlowSpec,
        observer: &mut dyn Observer,
    ) -> Result<FlowOutcome, FlowError> {
        let cfg = &spec.config;
        let _flow_span = tdp_trace::span("flow.run", "flow");
        let t_total = Instant::now();
        let mut tracer = TraceObserver::new();

        // Everything that needs the observer hub lives in this block so
        // the borrows on `tracer` and `observer` end before we assemble
        // the outcome.
        let (result, io, sta_time, weighting_time, objective_congestion, objective_rc, canceled) = {
            let hub = Rc::new(RefCell::new(Hub {
                observers: vec![&mut tracer, observer],
                last_tns: f64::NAN,
                last_wns: f64::NAN,
                canceled: false,
            }));
            hub.borrow_mut().phase(FlowPhase::Setup);

            let t_io = Instant::now();
            let setup_span = tdp_trace::span("flow.setup", "flow");
            let mut placer_cfg = cfg.placer;
            // One knob drives every parallel kernel in the run.
            placer_cfg.threads = cfg.threads;
            if hub.borrow().canceled {
                // Stop during Setup: skip the placement loop entirely —
                // the engine's initial placement becomes the partial
                // result, still legalized and evaluated below.
                placer_cfg.max_iterations = 0;
            }
            if spec.objective.is_timing_driven() {
                // Timing-driven objectives must keep iterating past the
                // timing start.
                placer_cfg.min_iterations =
                    placer_cfg.min_iterations.max(cfg.timing_iteration_floor());
            } else if matches!(spec.objective, ObjectiveSpec::DreamPlace) {
                // Pure wirelength placement stops at density convergence,
                // as the original DREAMPlace does (Table 4's runtime gap);
                // documented on the `DreamPlace` variant.
                placer_cfg.min_iterations = placer_cfg.min_iterations.min(150);
            }
            // Custom non-timing objectives keep their configured schedule.
            let mut engine = GlobalPlacer::new(&self.design, self.pads.clone(), placer_cfg);
            let io = t_io.elapsed();
            drop(setup_span);

            let inner = {
                let ctx = ObjectiveContext {
                    design: &self.design,
                    config: cfg,
                    graph: &self.graph,
                    skeleton: &self.skeleton,
                };
                spec.objective.build(&ctx)?
            };
            let mut wrapped = Instrumented {
                inner,
                hub: Rc::clone(&hub),
                reported: 0,
                reported_congestion: 0,
            };

            hub.borrow_mut().phase(FlowPhase::GlobalPlacement);
            let cb_hub = Rc::clone(&hub);
            let mut on_iteration = move |stats: &IterationStats| -> bool {
                let mut h = cb_hub.borrow_mut();
                let row = FlowTraceRow {
                    iter: stats.iter,
                    hpwl: stats.hpwl,
                    overflow: stats.overflow,
                    tns: h.last_tns,
                    wns: h.last_wns,
                };
                h.iteration(&row)
            };
            let place_span = tdp_trace::span("flow.place", "flow");
            let result = engine.run_observed(&self.design, &mut wrapped, &mut on_iteration);
            drop(place_span);
            let (sta_time, weighting_time) = wrapped.inner.runtimes();
            let objective_congestion = wrapped.inner.congestion_time();
            let objective_rc = wrapped.inner.rc_stats();
            let canceled = hub.borrow().canceled;
            (
                result,
                io,
                sta_time,
                weighting_time,
                objective_congestion,
                objective_rc,
                canceled,
            )
        };

        let _ = observer.on_phase_change(FlowPhase::Legalization);
        let iterations = result.iterations;
        let t_leg = Instant::now();
        let mut placement = result.placement;
        {
            let _span = tdp_trace::span("flow.legalize", "flow");
            abacus_legalize(&self.design, &mut placement);
        }
        let legalization = t_leg.elapsed();

        let _ = observer.on_phase_change(FlowPhase::Evaluation);
        let eval_span = tdp_trace::span("flow.evaluate", "flow");
        let (metrics, eval_rc) = self.evaluate_metrics(cfg.rc, &placement);
        // Routability is part of the shared evaluation kit: every run —
        // congestion-aware or not — reports the RUDY summary of its
        // legalized placement. The analyzer (and its design-only
        // cell→nets index) is cached on the session like the STA
        // evaluation analyzer; a full analysis depends only on the
        // placement, so reuse is state-free.
        let t_route = Instant::now();
        let congestion = {
            let Session {
                design, route_eval, ..
            } = self;
            if route_eval.as_ref().is_none_or(|c| c.config != cfg.route) {
                *route_eval = Some(RouteEvalCache {
                    config: cfg.route,
                    analyzer: tdp_route::CongestionAnalyzer::new(design, cfg.route),
                });
            }
            let cache = route_eval.as_mut().expect("cache populated above");
            cache.analyzer.set_threads(cfg.threads);
            cache.analyzer.analyze(design, &placement);
            cache.analyzer.summary()
        };
        let congestion_time = objective_congestion + t_route.elapsed();
        drop(eval_span);

        let total = t_total.elapsed();
        let accounted = io + sta_time + weighting_time + legalization + congestion_time;
        let runtime = RuntimeBreakdown {
            io,
            timing_analysis: sta_time,
            weighting: weighting_time,
            legalization,
            congestion: congestion_time,
            gradient_and_others: total.saturating_sub(accounted),
            total,
            threads: parx::resolve_threads(cfg.threads),
            rc: objective_rc.merged(eval_rc),
            eco: crate::flow::EcoStats::default(),
        };
        runtime.debug_assert_consistent();

        Ok(FlowOutcome {
            method: spec.objective.label(),
            placement,
            metrics,
            runtime,
            trace: tracer.take_rows(),
            congestion,
            iterations,
            canceled,
        })
    }

    /// Evaluates a legalized placement with the shared kit, reusing the
    /// cached evaluation analyzer. The analyzer is rolled back to its
    /// pristine checkpoint first, so no state survives from run to run.
    /// Also returns the RC op stats this evaluation accumulated on the
    /// cached analyzer (for [`RuntimeBreakdown::rc`]).
    fn evaluate_metrics(
        &mut self,
        rc: RcParams,
        placement: &Placement,
    ) -> (Metrics, sta::RcOpStats) {
        let Session {
            design,
            graph,
            skeleton,
            eval,
            ..
        } = self;
        let eval_rc = rc.with_topology(NetTopology::SteinerMst);
        if eval.as_ref().is_none_or(|c| c.params != eval_rc) {
            let sta = Sta::from_parts(Arc::clone(graph), Arc::clone(skeleton), design, eval_rc);
            let pristine = sta.checkpoint();
            *eval = Some(EvalCache {
                params: eval_rc,
                sta,
                pristine,
            });
        }
        let cache = eval.as_mut().expect("cache populated above");
        // Belt and braces: `Sta::analyze` already recomputes every value
        // it reads (see `evaluate_with`), but rolling back to the pristine
        // checkpoint makes run isolation structural — true by
        // construction, not by auditing what analyze() overwrites.
        cache.sta.restore(&cache.pristine);
        let before = cache.sta.rc_stats();
        let metrics = evaluate_with(&mut cache.sta, design, placement);
        (metrics, cache.sta.rc_stats().since(before))
    }
}

/// Shared observer state for one run: fans events out to the builtin
/// trace collector and the user observer, tracks the latest timing values
/// for trace rows, and latches cancellation.
struct Hub<'a> {
    observers: Vec<&'a mut dyn Observer>,
    last_tns: f64,
    last_wns: f64,
    canceled: bool,
}

impl Hub<'_> {
    fn phase(&mut self, phase: FlowPhase) {
        for obs in self.observers.iter_mut() {
            if obs.on_phase_change(phase) == ObserverAction::Stop {
                self.canceled = true;
            }
        }
    }

    fn timing(&mut self, iter: usize, tns: f64, wns: f64) {
        self.last_tns = tns;
        self.last_wns = wns;
        for obs in self.observers.iter_mut() {
            if obs.on_timing_analysis(iter, tns, wns) == ObserverAction::Stop {
                self.canceled = true;
            }
        }
    }

    fn congestion(&mut self, iter: usize, report: &tdp_route::CongestionReport) {
        for obs in self.observers.iter_mut() {
            if obs.on_congestion_update(iter, report) == ObserverAction::Stop {
                self.canceled = true;
            }
        }
    }

    /// Emits one iteration row; returns whether the engine should keep
    /// going.
    fn iteration(&mut self, row: &FlowTraceRow) -> bool {
        for obs in self.observers.iter_mut() {
            if obs.on_iteration(row) == ObserverAction::Stop {
                self.canceled = true;
            }
        }
        !self.canceled
    }
}

/// Wraps the run's objective so newly recorded timing analyses stream to
/// the hub (and from there to the observers) as they happen.
struct Instrumented<'a> {
    inner: Box<dyn SessionObjective>,
    hub: Rc<RefCell<Hub<'a>>>,
    reported: usize,
    reported_congestion: usize,
}

impl TimingObjective for Instrumented<'_> {
    fn begin_iteration(
        &mut self,
        iter: usize,
        design: &Design,
        placement: &Placement,
        moves: &mut netlist::MoveTracker,
    ) {
        self.inner.begin_iteration(iter, design, placement, moves);
        let trace = self.inner.timing_trace();
        if trace.len() > self.reported {
            let mut hub = self.hub.borrow_mut();
            for &(i, tns, wns) in &trace[self.reported..] {
                hub.timing(i, tns, wns);
            }
        }
        self.reported = self.inner.timing_trace().len();
        let congestion = self.inner.congestion_trace();
        if congestion.len() > self.reported_congestion {
            let mut hub = self.hub.borrow_mut();
            for (i, report) in &congestion[self.reported_congestion..] {
                hub.congestion(*i, report);
            }
        }
        self.reported_congestion = self.inner.congestion_trace().len();
    }

    fn net_weights(&mut self, design: &Design) -> Option<&[f64]> {
        self.inner.net_weights(design)
    }

    fn accumulate_gradient(
        &mut self,
        design: &Design,
        placement: &Placement,
        grad_x: &mut [f64],
        grad_y: &mut [f64],
    ) -> f64 {
        self.inner
            .accumulate_gradient(design, placement, grad_x, grad_y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchgen::{generate, CircuitParams};

    fn quick_builder() -> FlowBuilder {
        FlowBuilder::new()
            .iterations(60, 200)
            .timing_start(100)
            .timing_interval(10)
    }

    #[test]
    fn builder_rejects_bad_grid() {
        let mut cfg = FlowConfig::default();
        cfg.placer.grid = 33;
        let err = FlowBuilder::from_config(cfg).build().unwrap_err();
        assert!(matches!(err, FlowError::Config(_)), "{err}");
        assert!(err.to_string().contains("power of two"));
    }

    #[test]
    fn builder_rejects_non_finite_beta_and_zero_interval() {
        assert!(FlowBuilder::new().beta(f64::NAN).build().is_err());
        assert!(FlowBuilder::new().beta(-1.0).build().is_err());
        assert!(FlowBuilder::new().timing_interval(0).build().is_err());
        assert!(FlowBuilder::new()
            .iterations(500, 100)
            .build()
            .unwrap_err()
            .to_string()
            .contains("min_iterations"));
    }

    #[test]
    fn builder_rejects_timing_schedule_that_cannot_fit() {
        // 90 + 6*10 = 150 > max_iterations 100: the timing-driven run
        // would silently truncate, so the builder must reject it…
        let unfitting = FlowBuilder::new()
            .iterations(50, 100)
            .timing_start(90)
            .timing_interval(10);
        let err = unfitting.clone().build().unwrap_err();
        assert!(err.to_string().contains("timing schedule"), "{err}");
        // …but the same budget is fine for the non-timing baseline.
        assert!(unfitting
            .objective(ObjectiveSpec::DreamPlace)
            .build()
            .is_ok());
    }

    #[test]
    fn non_timing_custom_objectives_skip_the_schedule_check() {
        struct Noop;
        impl crate::session::ObjectiveFactory for Noop {
            fn label(&self) -> String {
                "noop".into()
            }
            fn build(
                &self,
                _ctx: &ObjectiveContext<'_>,
            ) -> Result<Box<dyn SessionObjective>, FlowError> {
                Ok(Box::new(placer::NoTimingObjective))
            }
            fn is_timing_driven(&self) -> bool {
                false
            }
        }
        // 90 + 60 > 100 would fail for a timing-driven objective, but a
        // custom factory that declares itself non-timing is exempt.
        let spec = FlowBuilder::new()
            .objective(ObjectiveSpec::custom(Noop))
            .iterations(50, 100)
            .timing_start(90)
            .timing_interval(10)
            .build();
        assert!(spec.is_ok());
    }

    #[test]
    fn flow_specs_are_send_and_sync() {
        // Batch executors ship specs across worker threads; this must
        // hold for every variant, including `Custom` (whose factory trait
        // object carries the `Send + Sync` bound).
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ObjectiveSpec>();
        assert_send_sync::<FlowSpec>();
    }

    #[test]
    fn sessions_are_send_and_sync() {
        // The serve daemon parks sessions in an `Arc<Mutex<Session>>`
        // cache and hands them to whichever worker thread picks up the
        // next request for the same design. If a future change smuggles
        // an `Rc`/raw pointer into the session (or anything it owns,
        // including the cached evaluation analyzer), this stops
        // compiling — by design.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
    }

    #[test]
    fn builder_accepts_the_defaults() {
        let spec = FlowBuilder::new().build().unwrap();
        assert!(matches!(spec.objective(), ObjectiveSpec::EfficientTdp));
        assert_eq!(spec.config().beta, FlowConfig::default().beta);
    }

    #[test]
    fn observer_sees_every_iteration_and_all_phases() {
        #[derive(Default)]
        struct Counter {
            iterations: usize,
            phases: Vec<FlowPhase>,
            analyses: usize,
        }
        impl Observer for Counter {
            fn on_phase_change(&mut self, phase: FlowPhase) -> ObserverAction {
                self.phases.push(phase);
                ObserverAction::Continue
            }
            fn on_iteration(&mut self, _row: &FlowTraceRow) -> ObserverAction {
                self.iterations += 1;
                ObserverAction::Continue
            }
            fn on_timing_analysis(&mut self, _i: usize, _t: f64, _w: f64) -> ObserverAction {
                self.analyses += 1;
                ObserverAction::Continue
            }
        }
        let (design, pads) = generate(&CircuitParams::small("obs", 41));
        let mut session = Session::builder(design, pads).build().unwrap();
        let spec = quick_builder().build().unwrap();
        let mut counter = Counter::default();
        let out = session.run_with_observer(&spec, &mut counter).unwrap();
        assert_eq!(counter.iterations, out.iterations);
        assert_eq!(out.trace.len(), out.iterations);
        assert!(counter.analyses > 0, "timing analyses must stream");
        assert_eq!(
            counter.phases,
            vec![
                FlowPhase::Setup,
                FlowPhase::GlobalPlacement,
                FlowPhase::Legalization,
                FlowPhase::Evaluation
            ]
        );
        assert!(!out.canceled);
    }

    #[test]
    fn observer_streams_congestion_updates_for_congestion_aware_runs() {
        #[derive(Default)]
        struct CongWatcher {
            updates: Vec<(usize, f64)>,
        }
        impl Observer for CongWatcher {
            fn on_congestion_update(
                &mut self,
                iter: usize,
                report: &tdp_route::CongestionReport,
            ) -> ObserverAction {
                self.updates.push((iter, report.peak));
                ObserverAction::Continue
            }
        }
        let (design, pads) = generate(&CircuitParams::small("congobs", 44));
        let mut session = Session::builder(design, pads).build().unwrap();
        let spec = quick_builder()
            .objective(ObjectiveSpec::congestion_aware())
            .build()
            .unwrap();
        let mut watcher = CongWatcher::default();
        let out = session.run_with_observer(&spec, &mut watcher).unwrap();
        assert!(
            !watcher.updates.is_empty(),
            "congestion refreshes must stream"
        );
        assert!(
            watcher.updates.windows(2).all(|w| w[0].0 < w[1].0),
            "updates arrive in iteration order"
        );
        assert!(watcher
            .updates
            .iter()
            .all(|&(_, p)| p.is_finite() && p >= 0.0));
        // The outcome's evaluation-time report exists alongside.
        assert!(out.congestion.peak > 0.0);
        assert!(out.runtime.congestion > Duration::ZERO);

        // Objectives without a congestion estimator never call the hook
        // but still get an evaluation-time report.
        let spec = quick_builder().build().unwrap();
        let mut watcher = CongWatcher::default();
        let out = session.run_with_observer(&spec, &mut watcher).unwrap();
        assert!(watcher.updates.is_empty());
        assert!(out.congestion.peak > 0.0);
    }

    #[test]
    fn congestion_weight_is_validated() {
        let err = quick_builder()
            .objective(ObjectiveSpec::CongestionAware { weight: f64::NAN })
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("congestion weight"), "{err}");
        assert!(quick_builder()
            .objective(ObjectiveSpec::CongestionAware { weight: -1.0 })
            .build()
            .is_err());
        // The weight setter adjusts a congestion-aware objective in
        // place…
        let spec = quick_builder()
            .objective(ObjectiveSpec::congestion_aware())
            .congestion_weight(0.5)
            .build()
            .unwrap();
        assert!(
            matches!(spec.objective(), ObjectiveSpec::CongestionAware { weight } if *weight == 0.5)
        );
        // …and never hijacks another objective (so an `all` sweep can
        // carry the override harmlessly).
        let spec = quick_builder().congestion_weight(0.5).build().unwrap();
        assert!(matches!(spec.objective(), ObjectiveSpec::EfficientTdp));
    }

    #[test]
    fn observer_can_cancel_with_a_well_formed_partial_outcome() {
        struct StopAfter(usize);
        impl Observer for StopAfter {
            fn on_iteration(&mut self, row: &FlowTraceRow) -> ObserverAction {
                if row.iter + 1 >= self.0 {
                    ObserverAction::Stop
                } else {
                    ObserverAction::Continue
                }
            }
        }
        let (design, pads) = generate(&CircuitParams::small("stop", 42));
        let mut session = Session::builder(design, pads).build().unwrap();
        let spec = quick_builder().build().unwrap();
        let out = session
            .run_with_observer(&spec, &mut StopAfter(25))
            .unwrap();
        assert!(out.canceled);
        assert_eq!(out.iterations, 25);
        assert_eq!(out.trace.len(), 25);
        placer::legalize::check_legal(session.design(), &out.placement).unwrap();
        assert!(out.metrics.hpwl.is_finite() && out.metrics.hpwl > 0.0);
    }

    #[test]
    fn stop_during_setup_skips_the_placement_loop() {
        struct StopAtSetup;
        impl Observer for StopAtSetup {
            fn on_phase_change(&mut self, phase: FlowPhase) -> ObserverAction {
                if phase == FlowPhase::Setup {
                    ObserverAction::Stop
                } else {
                    ObserverAction::Continue
                }
            }
        }
        let (design, pads) = generate(&CircuitParams::small("setupstop", 43));
        let mut session = Session::builder(design, pads).build().unwrap();
        let spec = quick_builder().build().unwrap();
        let out = session.run_with_observer(&spec, &mut StopAtSetup).unwrap();
        assert!(out.canceled);
        assert_eq!(out.iterations, 0, "no placement iteration may run");
        assert!(out.trace.is_empty());
        // The initial placement is still legalized and evaluated.
        placer::legalize::check_legal(session.design(), &out.placement).unwrap();
        assert!(out.metrics.hpwl.is_finite() && out.metrics.hpwl > 0.0);
    }

    #[test]
    fn apply_moves_reports_sorted_deduped_dirty_state() {
        let (design, pads) = generate(&CircuitParams::small("ecomoves", 11));
        let session = Session::builder(design, pads).build().unwrap();
        let mut placement = session.pads().clone();
        // Pick three movable cells out of index order, with a repeat, so
        // both dedup and sort are exercised.
        let movable: Vec<netlist::CellId> = session
            .design()
            .cell_ids()
            .filter(|&c| !session.design().cell(c).fixed)
            .collect();
        assert!(movable.len() >= 3);
        let (a, b, c) = (movable[2], movable[0], movable[1]);
        let moves = [
            CellMove {
                cell: a,
                x: 10.0,
                y: 20.0,
            },
            CellMove {
                cell: b,
                x: 30.0,
                y: 40.0,
            },
            CellMove {
                cell: a,
                x: 12.0,
                y: 22.0,
            },
            CellMove {
                cell: c,
                x: 50.0,
                y: 60.0,
            },
        ];
        let dirty = session.apply_moves(&mut placement, &moves);
        // The later duplicate move wins.
        assert_eq!(placement.get(a), (12.0, 22.0));
        assert_eq!(placement.get(b), (30.0, 40.0));
        // Cells: sorted by index, deduplicated.
        assert_eq!(dirty.moved_cells, {
            let mut v = vec![a, b, c];
            v.sort_unstable();
            v
        });
        // Nets: sorted, deduplicated, and exactly the incident set.
        let mut expect = Vec::new();
        for &cell in &dirty.moved_cells {
            for &pin in &session.design().cell(cell).pins {
                if let Some(net) = session.design().pin(pin).net {
                    expect.push(net);
                }
            }
        }
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(dirty.dirty_nets, expect);
        assert!(dirty.dirty_nets.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn pads_from_pl_surfaces_parse_errors() {
        let (design, pads) = generate(&CircuitParams::small("plerr", 7));
        let err = Session::builder(design, pads)
            .pads_from_pl("ghost_cell 1.0 2.0 : N")
            .unwrap_err();
        assert!(matches!(err, FlowError::Parse(_)), "{err}");
        assert!(err.to_string().contains("ghost_cell"));
    }
}
