//! The timing-driven placement flow (Fig. 1): the paper's objective and
//! the types a flow run produces.
//!
//! [`Session::run`](crate::Session::run) executes one complete flow —
//! global placement with the selected timing mechanism, Abacus
//! legalization, shared evaluation — and returns a [`FlowOutcome`] with
//! metrics, a per-iteration trace (Fig. 5) and a runtime breakdown
//! (Table 4 / Fig. 4).
//!
//! The paper's method ([`EfficientTdpObjective`]) runs one full STA at
//! its first timing iteration and **incremental** analyses afterwards:
//! the placement engine's [`netlist::MoveTracker`] hands over the cells
//! moved since the previous timing call and the nets they touch as one
//! [`netlist::DirtySummary`], and only those nets get their RC trees
//! rebuilt. The tracker reports every nonzero move, so the incremental
//! results are bit-identical to a full analysis, a pure runtime
//! optimization. RC refresh, both propagation passes and the pin-pair
//! gradient all parallelize across [`FlowConfig::threads`] workers with
//! thread-count-invariant results.

use crate::config::FlowConfig;
use crate::extraction::extract_pin_pairs;
use crate::metrics::Metrics;
use crate::objective::SessionObjective;
use crate::pinpair::PinPairSet;
use netlist::{Design, DirtySummary, MoveTracker, PinId, Placement};
use parx::UnsafeSlice;
use placer::TimingObjective;
use sta::Sta;
use std::time::{Duration, Instant};

/// Wall-clock decomposition of one flow run (Fig. 4 categories).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RuntimeBreakdown {
    /// Setup: timing-graph construction, engine initialization.
    pub io: Duration,
    /// Static timing analysis inside the loop.
    pub timing_analysis: Duration,
    /// Path extraction and weight updates.
    pub weighting: Duration,
    /// Legalization.
    pub legalization: Duration,
    /// Congestion-map construction: the RUDY rasterization/reduction
    /// kernels — the in-loop updates a congestion-aware objective runs
    /// plus the evaluation-time map every run computes.
    pub congestion: Duration,
    /// Everything not explicitly timed by the other categories. Concretely
    /// this absorbs: the wirelength and density gradient kernels, the
    /// Nesterov optimizer updates and preconditioning, per-iteration
    /// trace/observer bookkeeping, objective construction, and the
    /// shared-kit evaluation at the end of the run. Computed as
    /// `total − (io + timing_analysis + weighting + legalization +
    /// congestion)`.
    pub gradient_and_others: Duration,
    /// Total flow time.
    pub total: Duration,
    /// Resolved worker count the run used (`FlowConfig::threads` after
    /// 0-means-auto resolution).
    pub threads: usize,
    /// Op counters from the run's RC work (objective plus evaluation
    /// analyzers): refresh passes, nets refreshed and scratch reuses.
    /// Not a wall-clock category — it
    /// does not participate in [`RuntimeBreakdown::accounted`].
    pub rc: sta::RcOpStats,
    /// ECO delta-query counters, populated only by interactive sessions
    /// (`crates/eco`); zero for batch flow runs. Like `rc`, not a
    /// wall-clock category and excluded from
    /// [`RuntimeBreakdown::accounted`].
    pub eco: EcoStats,
}

/// Counters for ECO delta-query work against a resident design.
///
/// Accumulated by an `EcoSession` (`crates/eco`) and threaded through
/// [`RuntimeBreakdown`], the serve daemon's `metrics` verb, and JSONL
/// reports, so the interactive workload is observable with the same
/// plumbing as the batch flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EcoStats {
    /// Delta queries answered (one per applied batch or revert).
    pub queries: u64,
    /// Cells moved across all applied deltas (resizes and retargets not
    /// included).
    pub cells_moved: u64,
    /// Dirty nets handed to the incremental analyses, summed over queries.
    pub dirty_nets: u64,
    /// Wall-clock nanoseconds spent answering queries incrementally.
    pub incremental_ns: u64,
    /// Wall-clock nanoseconds spent in full (from-scratch) reanalyses —
    /// the comparison runs an `EcoSession` is asked to perform.
    pub full_ns: u64,
}

impl EcoStats {
    /// Combines two counter sets (field-wise sums).
    #[must_use]
    pub fn merged(self, other: EcoStats) -> EcoStats {
        EcoStats {
            queries: self.queries + other.queries,
            cells_moved: self.cells_moved + other.cells_moved,
            dirty_nets: self.dirty_nets + other.dirty_nets,
            incremental_ns: self.incremental_ns + other.incremental_ns,
            full_ns: self.full_ns + other.full_ns,
        }
    }
}

impl RuntimeBreakdown {
    /// Tolerance for [`RuntimeBreakdown::consistency_error`]: the category
    /// sum and `total` come from separate `Instant` reads, so they can
    /// disagree by scheduling noise but never by more than this.
    pub const CONSISTENCY_TOLERANCE: Duration = Duration::from_millis(5);

    /// Sum of the six wall-clock categories.
    pub fn accounted(&self) -> Duration {
        self.io
            + self.timing_analysis
            + self.weighting
            + self.legalization
            + self.congestion
            + self.gradient_and_others
    }

    /// Absolute difference between the category sum and `total`. Because
    /// `gradient_and_others` is defined as the remainder, this is zero
    /// unless the explicitly timed categories overshot `total` (clock
    /// skew), which the saturating remainder clamps.
    pub fn consistency_error(&self) -> Duration {
        self.total.abs_diff(self.accounted())
    }

    /// Debug-asserts the breakdown is self-consistent: the categories sum
    /// to `total` within [`RuntimeBreakdown::CONSISTENCY_TOLERANCE`].
    pub fn debug_assert_consistent(&self) {
        debug_assert!(
            self.consistency_error() <= Self::CONSISTENCY_TOLERANCE,
            "runtime breakdown off by {:?}: {self:?}",
            self.consistency_error()
        );
    }
}

/// Per-iteration trace row for the Fig. 5 curves. TNS/WNS carry the value
/// of the most recent timing analysis (NaN before the first one).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowTraceRow {
    /// Iteration index.
    pub iter: usize,
    /// Exact HPWL.
    pub hpwl: f64,
    /// Density overflow.
    pub overflow: f64,
    /// Last known TNS.
    pub tns: f64,
    /// Last known WNS.
    pub wns: f64,
}

/// Everything a flow run produces.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// Label of the objective that ran (see
    /// [`ObjectiveSpec::label`](crate::ObjectiveSpec::label)).
    pub method: String,
    /// Legalized placement.
    pub placement: Placement,
    /// Shared evaluation-kit metrics of the legalized placement.
    pub metrics: Metrics,
    /// Runtime decomposition.
    pub runtime: RuntimeBreakdown,
    /// Per-iteration trace: one row per placement iteration, the same
    /// rows [`Observer::on_iteration`](crate::Observer::on_iteration)
    /// streams.
    pub trace: Vec<FlowTraceRow>,
    /// Routability summary of the legalized placement: the RUDY
    /// congestion map's statistics, computed by the shared evaluation
    /// step with the run's [`FlowConfig::route`] knobs — present for
    /// every objective, exactly like [`FlowOutcome::metrics`].
    pub congestion: tdp_route::CongestionReport,
    /// Iterations executed by the global placer.
    pub iterations: usize,
    /// Whether an [`Observer`](crate::Observer) stopped the placement loop
    /// early. The placement is still legalized and evaluated.
    pub canceled: bool,
}

/// The paper's objective: pin-to-pin attraction over extracted paths.
///
/// Every timing iteration takes its change set from the engine's
/// [`MoveTracker`]; the first then runs a full [`Sta::analyze`], every
/// later one [`Sta::analyze_changes`] over that set. The pin-pair gradient
/// is evaluated through a cell-incidence index so each cell accumulates
/// its own contributions — deterministic for any worker count.
pub struct EfficientTdpObjective {
    sta: Sta,
    /// The change set of the latest timing iteration, rebuilt in place.
    changes: DirtySummary,
    pub(crate) cfg: FlowConfig,
    pairs: PinPairSet,
    /// Pin-pair snapshot + cell incidence, rebuilt when `pairs` changes.
    grad_index: PairGradIndex,
    pairs_dirty: bool,
    sta_time: Duration,
    weighting_time: Duration,
    timing_trace: Vec<(usize, f64, f64)>,
    /// Number of timing iterations served incrementally (diagnostics).
    incremental_analyses: usize,
}

impl EfficientTdpObjective {
    /// Creates the objective around an existing analyzer (no graph
    /// construction).
    pub fn new(sta: Sta, cfg: FlowConfig) -> Self {
        Self {
            sta,
            changes: DirtySummary::default(),
            cfg,
            pairs: PinPairSet::new(),
            grad_index: PairGradIndex::default(),
            pairs_dirty: false,
            sta_time: Duration::ZERO,
            weighting_time: Duration::ZERO,
            timing_trace: Vec::new(),
            incremental_analyses: 0,
        }
    }

    /// How many timing iterations used the incremental path (all but the
    /// first, unless analyses never ran).
    pub fn incremental_analyses(&self) -> usize {
        self.incremental_analyses
    }

    /// The change set the latest timing iteration took from the tracker.
    pub(crate) fn changes(&self) -> &DirtySummary {
        &self.changes
    }
}

impl SessionObjective for EfficientTdpObjective {
    fn timing_trace(&self) -> &[(usize, f64, f64)] {
        &self.timing_trace
    }

    fn runtimes(&self) -> (Duration, Duration) {
        (self.sta_time, self.weighting_time)
    }

    fn rc_stats(&self) -> sta::RcOpStats {
        self.sta.rc_stats()
    }
}

impl TimingObjective for EfficientTdpObjective {
    fn begin_iteration(
        &mut self,
        iter: usize,
        design: &Design,
        placement: &Placement,
        moves: &mut MoveTracker,
    ) {
        if !self.cfg.is_timing_iteration(iter) {
            return;
        }
        let t = Instant::now();
        moves.take_changes(design, placement, &mut self.changes);
        if self.sta.is_analyzed() {
            self.sta.analyze_changes(design, placement, &self.changes);
            self.incremental_analyses += 1;
        } else {
            self.sta.analyze(design, placement);
        }
        self.sta_time += t.elapsed();
        let summary = self.sta.summary();
        self.timing_trace.push((iter, summary.tns, summary.wns));
        if summary.wns >= 0.0 {
            return;
        }
        let t = Instant::now();
        let tuples = extract_pin_pairs(&self.sta, design, self.cfg.extraction);
        for (pairs, slack) in &tuples {
            self.pairs
                .update_path(pairs, *slack, summary.wns, self.cfg.w0, self.cfg.w1);
        }
        self.pairs_dirty = true;
        self.weighting_time += t.elapsed();
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
        if self.pairs.is_empty() {
            return 0.0;
        }
        if self.pairs_dirty {
            self.grad_index.rebuild(design, &self.pairs);
            self.pairs_dirty = false;
        }
        self.grad_index.accumulate(
            design,
            placement,
            self.cfg.beta,
            self.cfg.loss,
            grad_x,
            grad_y,
            self.cfg.threads,
        )
    }
}

/// Pin-pair gradient evaluator: a snapshot of the pair set plus a
/// cell → incident-pair index (CSR), so the gradient becomes two
/// slot-disjoint parallel phases — per pair, then per cell — instead of
/// a serial scatter loop.
#[derive(Debug, Default)]
struct PairGradIndex {
    /// `(i, j, weight)` snapshot in the set's deterministic order.
    pairs: Vec<(PinId, PinId, f64)>,
    /// CSR offsets per cell into `incidence`.
    cell_start: Vec<u32>,
    /// Cells with at least one incident pair, sorted; phase 2 iterates
    /// these instead of scanning every cell in the design.
    touched_cells: Vec<u32>,
    /// `(pair index << 1) | side` — side 0 carries `+grad`, 1 `−grad`.
    incidence: Vec<u32>,
    /// Phase-1 scratch: `(gx, gy)` per pair (β·w folded in).
    scratch: Vec<(f64, f64)>,
}

impl PairGradIndex {
    /// Rebuilds the snapshot and the cell incidence from `pairs`.
    fn rebuild(&mut self, design: &Design, pairs: &PinPairSet) {
        self.pairs.clear();
        self.pairs
            .extend(pairs.iter().map(|(&(i, j), &w)| (i, j, w)));
        let num_cells = design.num_cells();
        self.cell_start.clear();
        self.cell_start.resize(num_cells + 1, 0);
        for &(i, j, _) in &self.pairs {
            self.cell_start[design.pin(i).cell.index() + 1] += 1;
            self.cell_start[design.pin(j).cell.index() + 1] += 1;
        }
        for c in 0..num_cells {
            self.cell_start[c + 1] += self.cell_start[c];
        }
        let mut cursor = self.cell_start.clone();
        self.incidence.clear();
        self.incidence.resize(2 * self.pairs.len(), 0);
        for (k, &(i, j, _)) in self.pairs.iter().enumerate() {
            let ci = design.pin(i).cell.index();
            let cj = design.pin(j).cell.index();
            self.incidence[cursor[ci] as usize] = (k as u32) << 1;
            cursor[ci] += 1;
            self.incidence[cursor[cj] as usize] = ((k as u32) << 1) | 1;
            cursor[cj] += 1;
        }
        self.scratch.clear();
        self.scratch.resize(self.pairs.len(), (0.0, 0.0));
        self.touched_cells.clear();
        for c in 0..num_cells {
            if self.cell_start[c] != self.cell_start[c + 1] {
                self.touched_cells.push(c as u32);
            }
        }
    }

    /// Evaluates `β·Σ w·L` and its gradient. Phase 1 computes each pair's
    /// loss and gradient into the pair's own slot; phase 2 lets each cell
    /// pull its incident pairs in index order. Both phases are
    /// slot-disjoint and the value reduction is chunk-ordered, so the
    /// result is bit-identical for every thread count.
    #[allow(clippy::too_many_arguments)]
    fn accumulate(
        &mut self,
        design: &Design,
        placement: &Placement,
        beta: f64,
        loss_fn: crate::loss::PinPairLoss,
        grad_x: &mut [f64],
        grad_y: &mut [f64],
        threads: usize,
    ) -> f64 {
        let workers = if self.pairs.len() < 512 {
            1
        } else {
            parx::resolve_threads(threads)
        };
        let mut total = 0.0f64;
        {
            let pairs = &self.pairs;
            let slots = UnsafeSlice::new(&mut self.scratch);
            parx::par_map_reduce(
                workers,
                pairs.len(),
                64,
                |range| {
                    let mut partial = 0.0f64;
                    for k in range {
                        let (i, j, w) = pairs[k];
                        let (xi, yi) = placement.pin_position(design, i);
                        let (xj, yj) = placement.pin_position(design, j);
                        let (dx, dy) = (xi - xj, yi - yj);
                        partial += beta * w * loss_fn.value(dx, dy);
                        let (gx, gy) = loss_fn.gradient(dx, dy);
                        // SAFETY: slot `k` is written by this chunk alone.
                        unsafe { slots.write(k, (beta * w * gx, beta * w * gy)) };
                    }
                    partial
                },
                |partial| total += partial,
            );
        }
        {
            let gx_slots = UnsafeSlice::new(grad_x);
            let gy_slots = UnsafeSlice::new(grad_y);
            let scratch = &self.scratch;
            let cell_start = &self.cell_start;
            let incidence = &self.incidence;
            let touched = &self.touched_cells;
            parx::par_for(workers, touched.len(), 128, |range| {
                for t in range {
                    let c = touched[t] as usize;
                    let lo = cell_start[c] as usize;
                    let hi = cell_start[c + 1] as usize;
                    let mut sx = 0.0;
                    let mut sy = 0.0;
                    for &entry in &incidence[lo..hi] {
                        let (gx, gy) = scratch[(entry >> 1) as usize];
                        if entry & 1 == 0 {
                            sx += gx;
                            sy += gy;
                        } else {
                            sx -= gx;
                            sy -= gy;
                        }
                    }
                    // SAFETY: cell slot `c` is written by this chunk alone.
                    unsafe {
                        gx_slots.write(c, gx_slots.read(c) + sx);
                        gy_slots.write(c, gy_slots.read(c) + sy);
                    }
                }
            });
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowBuilder, ObjectiveSpec, Session};
    use benchgen::{generate, CircuitParams};
    use placer::GlobalPlacer;

    fn quick_config() -> FlowConfig {
        let mut cfg = FlowConfig::default();
        cfg.placer.max_iterations = 260;
        cfg.placer.min_iterations = 60;
        cfg.timing_start = 120;
        cfg.timing_interval = 10;
        cfg
    }

    /// One cold flow through a fresh session.
    fn run_cold(
        design: &Design,
        pads: &Placement,
        objective: ObjectiveSpec,
        cfg: &FlowConfig,
    ) -> FlowOutcome {
        let mut session = Session::builder(design.clone(), pads.clone())
            .build()
            .expect("acyclic design");
        let spec = FlowBuilder::from_config(cfg.clone())
            .objective(objective)
            .build()
            .expect("quick config is valid");
        session.run(&spec).expect("builtin objectives build")
    }

    #[test]
    fn runtime_breakdown_sums_to_total() {
        let (design, pads) = generate(&CircuitParams::small("f", 22));
        let cfg = quick_config();
        let out = run_cold(&design, &pads, ObjectiveSpec::EfficientTdp, &cfg);
        let r = out.runtime;
        let sum = r.io
            + r.timing_analysis
            + r.weighting
            + r.legalization
            + r.congestion
            + r.gradient_and_others;
        let diff = r.total.abs_diff(sum);
        assert!(diff < Duration::from_millis(5), "breakdown off by {diff:?}");
        assert!(r.timing_analysis > Duration::ZERO);
    }

    #[test]
    fn dreamplace_has_no_timing_overhead() {
        let (design, pads) = generate(&CircuitParams::small("f", 23));
        let cfg = quick_config();
        let out = run_cold(&design, &pads, ObjectiveSpec::DreamPlace, &cfg);
        assert_eq!(out.runtime.timing_analysis, Duration::ZERO);
        assert_eq!(out.runtime.weighting, Duration::ZERO);
        assert!(out.trace.iter().all(|r| r.tns.is_nan()));
    }

    #[test]
    fn default_flow_uses_incremental_sta_after_first_analysis() {
        let (design, pads) = generate(&CircuitParams::small("f", 26));
        let cfg = quick_config();
        let mut placer_cfg = cfg.placer;
        placer_cfg.min_iterations = placer_cfg
            .min_iterations
            .max(cfg.timing_start + 6 * cfg.timing_interval);
        let mut engine = GlobalPlacer::new(&design, pads, placer_cfg);
        let sta = Sta::new(&design, cfg.rc).expect("acyclic design");
        let mut obj = EfficientTdpObjective::new(sta, cfg.clone());
        engine.run_with(&design, &mut obj);
        let analyses = obj.timing_trace().len();
        assert!(analyses >= 2, "expected several timing iterations");
        // Every analysis after the first full one took the incremental path.
        assert_eq!(obj.incremental_analyses(), analyses - 1);
    }
}
