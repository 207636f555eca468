//! Streaming observation of a running flow.
//!
//! A [`Session`](crate::Session) run used to be a black box that returned
//! its per-iteration trace only after the last iteration. An [`Observer`]
//! instead receives events *while the flow runs* — every placement
//! iteration, every timing analysis, every phase transition — and each
//! callback can return [`ObserverAction::Stop`] to cancel the run early.
//! A canceled run still legalizes and evaluates whatever placement it
//! reached, so the caller always gets a well-formed (partial)
//! [`FlowOutcome`](crate::FlowOutcome) with
//! [`canceled`](crate::FlowOutcome::canceled) set.
//!
//! Inside a run, a `Hub` forwards every event to the user's observer and
//! collects the [`FlowTraceRow`]s behind
//! [`FlowOutcome::trace`](crate::FlowOutcome::trace); an `Instrumented`
//! wrapper around the run's objective streams its timing analyses and
//! congestion refreshes to the hub as they happen.

use crate::flow::FlowTraceRow;
use crate::objective::SessionObjective;
use netlist::{Design, MoveTracker, Placement};
use placer::{IterationStats, TimingObjective};
use std::cell::RefCell;

/// The coarse phases of one flow run, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPhase {
    /// Engine and objective construction.
    Setup,
    /// The Nesterov global-placement loop.
    GlobalPlacement,
    /// Abacus legalization of the global placement.
    Legalization,
    /// Shared-kit evaluation of the legalized placement.
    Evaluation,
}

/// What an observer callback wants the flow to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserverAction {
    /// Keep running.
    Continue,
    /// Stop the placement loop as soon as possible. Legalization and
    /// evaluation still run, so the outcome is well-formed.
    Stop,
}

/// Callbacks streamed from a running flow.
///
/// All methods default to doing nothing and continuing, so implementors
/// override only what they care about. Callbacks run on the flow's thread
/// between iterations; keep them cheap.
pub trait Observer {
    /// The flow entered a new [`FlowPhase`]. A `Stop` during [`FlowPhase::Setup`]
    /// or [`FlowPhase::GlobalPlacement`] cancels the placement loop before
    /// its first iteration; during the later phases it has no effect (the
    /// run is already finishing).
    fn on_phase_change(&mut self, _phase: FlowPhase) -> ObserverAction {
        ObserverAction::Continue
    }

    /// One placement iteration finished; `row` carries the same values the
    /// final trace will.
    fn on_iteration(&mut self, _row: &FlowTraceRow) -> ObserverAction {
        ObserverAction::Continue
    }

    /// A timing analysis ran inside the objective at iteration `iter`,
    /// reporting the design's current total and worst negative slack.
    fn on_timing_analysis(&mut self, _iter: usize, _tns: f64, _wns: f64) -> ObserverAction {
        ObserverAction::Continue
    }

    /// The objective refreshed its congestion map at iteration `iter`
    /// (congestion-aware objectives do this on the timing schedule;
    /// other objectives never call it). `report` is the refreshed map's
    /// summary.
    fn on_congestion_update(
        &mut self,
        _iter: usize,
        _report: &tdp_route::CongestionReport,
    ) -> ObserverAction {
        ObserverAction::Continue
    }
}

/// The do-nothing observer used by `Session::run`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NullObserver;

impl Observer for NullObserver {}

/// One run's event fan-in: forwards every event to the user observer,
/// collects the trace rows (stamped with the latest timing values) and
/// latches cancellation.
pub(crate) struct Hub<'a> {
    pub(crate) observer: &'a mut dyn Observer,
    pub(crate) rows: Vec<FlowTraceRow>,
    last_tns: f64,
    last_wns: f64,
    pub(crate) canceled: bool,
}

impl<'a> Hub<'a> {
    pub(crate) fn new(observer: &'a mut dyn Observer) -> Self {
        Self {
            observer,
            rows: Vec::new(),
            last_tns: f64::NAN,
            last_wns: f64::NAN,
            canceled: false,
        }
    }

    fn latch(&mut self, action: ObserverAction) {
        self.canceled |= action == ObserverAction::Stop;
    }

    pub(crate) fn phase(&mut self, phase: FlowPhase) {
        let action = self.observer.on_phase_change(phase);
        self.latch(action);
    }

    fn timing(&mut self, iter: usize, tns: f64, wns: f64) {
        self.last_tns = tns;
        self.last_wns = wns;
        let action = self.observer.on_timing_analysis(iter, tns, wns);
        self.latch(action);
    }

    fn congestion(&mut self, iter: usize, report: &tdp_route::CongestionReport) {
        let action = self.observer.on_congestion_update(iter, report);
        self.latch(action);
    }

    /// Records and emits one iteration row; returns whether the engine
    /// should keep going.
    pub(crate) fn iteration(&mut self, stats: &IterationStats) -> bool {
        let row = FlowTraceRow {
            iter: stats.iter,
            hpwl: stats.hpwl,
            overflow: stats.overflow,
            tns: self.last_tns,
            wns: self.last_wns,
        };
        self.rows.push(row);
        let action = self.observer.on_iteration(&row);
        self.latch(action);
        !self.canceled
    }
}

/// Wraps the run's objective so newly recorded timing analyses and
/// congestion refreshes stream to the hub as they happen.
pub(crate) struct Instrumented<'h, 'o> {
    inner: Box<dyn SessionObjective>,
    hub: &'h RefCell<Hub<'o>>,
    reported: usize,
    reported_congestion: usize,
}

impl<'h, 'o> Instrumented<'h, 'o> {
    pub(crate) fn new(inner: Box<dyn SessionObjective>, hub: &'h RefCell<Hub<'o>>) -> Self {
        Self {
            inner,
            hub,
            reported: 0,
            reported_congestion: 0,
        }
    }

    pub(crate) fn into_inner(self) -> Box<dyn SessionObjective> {
        self.inner
    }
}

impl TimingObjective for Instrumented<'_, '_> {
    fn begin_iteration(
        &mut self,
        iter: usize,
        design: &Design,
        placement: &Placement,
        moves: &mut MoveTracker,
    ) {
        self.inner.begin_iteration(iter, design, placement, moves);
        let mut hub = self.hub.borrow_mut();
        let timing = self.inner.timing_trace();
        for &(i, tns, wns) in &timing[self.reported..] {
            hub.timing(i, tns, wns);
        }
        self.reported = timing.len();
        let congestion = self.inner.congestion_trace();
        for (i, report) in &congestion[self.reported_congestion..] {
            hub.congestion(*i, report);
        }
        self.reported_congestion = congestion.len();
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

    #[test]
    fn default_observer_methods_continue() {
        struct Noop;
        impl Observer for Noop {}
        let mut n = Noop;
        assert_eq!(
            n.on_phase_change(FlowPhase::Setup),
            ObserverAction::Continue
        );
        assert_eq!(
            n.on_timing_analysis(3, -1.0, -0.5),
            ObserverAction::Continue
        );
    }
}
