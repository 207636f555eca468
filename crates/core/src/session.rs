//! The reusable flow front door: a [`Session`] owns one design's timing
//! infrastructure and runs any number of [`FlowSpec`]s against it.
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

use crate::error::FlowError;
use crate::flow::{FlowOutcome, RuntimeBreakdown};
use crate::metrics::{evaluate_with, Metrics};
use crate::objective::{ObjectiveContext, ObjectiveSpec};
use crate::observer::{FlowPhase, Hub, Instrumented, NullObserver, Observer};
use crate::spec::FlowSpec;
use netlist::{io, Design, Placement};
use placer::{abacus_legalize, GlobalPlacer};
use sta::{NetTopology, RcParams, RcSkeleton, Sta, StaCheckpoint, TimingGraph};
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

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
        let (graph, skeleton) = Sta::build_parts(&self.design)?;
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
        let cfg = spec.config();
        let _flow_span = tdp_trace::span("flow.run", "flow");
        let t_total = Instant::now();
        let hub = RefCell::new(Hub::new(observer));
        hub.borrow_mut().phase(FlowPhase::Setup);

        let t_io = Instant::now();
        let setup_span = tdp_trace::span("flow.setup", "flow");
        let mut placer_cfg = cfg.placer;
        // One knob drives every parallel kernel in the run.
        placer_cfg.threads = cfg.threads;
        if spec.objective().is_timing_driven() {
            // Timing-driven objectives must keep iterating past the
            // timing start.
            placer_cfg.min_iterations = placer_cfg.min_iterations.max(cfg.timing_iteration_floor());
        } else if matches!(spec.objective(), ObjectiveSpec::DreamPlace) {
            // Pure wirelength placement stops at density convergence,
            // as the original DREAMPlace does (Table 4's runtime gap);
            // documented on the `DreamPlace` variant.
            placer_cfg.min_iterations = placer_cfg.min_iterations.min(150);
        }
        // Custom non-timing objectives keep their configured schedule.
        let mut engine = GlobalPlacer::new(&self.design, self.pads.clone(), placer_cfg);
        let io = t_io.elapsed();
        drop(setup_span);

        let ctx = ObjectiveContext {
            design: &self.design,
            config: cfg,
            graph: &self.graph,
            skeleton: &self.skeleton,
        };
        let mut objective = Instrumented::new(spec.objective().build(&ctx)?, &hub);

        hub.borrow_mut().phase(FlowPhase::GlobalPlacement);
        let (mut placement, iterations) = if hub.borrow().canceled {
            // A Stop during Setup or GlobalPlacement skips the placement
            // loop: the engine's initial placement becomes the partial
            // result, still legalized and evaluated below.
            (engine.placement().clone(), 0)
        } else {
            let _span = tdp_trace::span("flow.place", "flow");
            let result = engine.run_observed(&self.design, &mut objective, &mut |stats| {
                hub.borrow_mut().iteration(stats)
            });
            (result.placement, result.iterations)
        };
        let objective = objective.into_inner();
        let Hub {
            observer,
            rows: trace,
            canceled,
            ..
        } = hub.into_inner();

        let _ = observer.on_phase_change(FlowPhase::Legalization);
        let t_leg = Instant::now();
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
        let congestion_time = objective.congestion_time() + t_route.elapsed();
        drop(eval_span);

        let total = t_total.elapsed();
        let (sta_time, weighting_time) = objective.runtimes();
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
            rc: objective.rc_stats().merged(eval_rc),
            eco: crate::flow::EcoStats::default(),
        };
        runtime.debug_assert_consistent();

        Ok(FlowOutcome {
            method: spec.objective().label(),
            placement,
            metrics,
            runtime,
            trace,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowTraceRow;
    use crate::observer::ObserverAction;
    use crate::spec::FlowBuilder;
    use benchgen::{generate, CircuitParams};
    use std::time::Duration;

    fn quick_builder() -> FlowBuilder {
        FlowBuilder::new()
            .iterations(60, 200)
            .timing_start(100)
            .timing_interval(10)
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
    fn pads_from_pl_surfaces_parse_errors() {
        let (design, pads) = generate(&CircuitParams::small("plerr", 7));
        let err = Session::builder(design, pads)
            .pads_from_pl("ghost_cell 1.0 2.0 : N")
            .unwrap_err();
        assert!(matches!(err, FlowError::Parse(_)), "{err}");
        assert!(err.to_string().contains("ghost_cell"));
    }
}
