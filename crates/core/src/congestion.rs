//! The congestion-aware placement objective.
//!
//! [`CongestionAwareObjective`] layers a differentiable routability
//! penalty on top of the paper's [`EfficientTdpObjective`]: on the same
//! schedule the timing analyses run, it refreshes a RUDY
//! [`CongestionAnalyzer`] — incrementally, re-rasterizing only the dirty
//! nets of the change set the inner objective took from the engine's
//! [`netlist::MoveTracker`] — and freezes each net's **exposure** (the
//! smoothed per-bin overflow its bounding box overlaps, see
//! [`CongestionAnalyzer::exposures`]). Between refreshes,
//! [`TimingObjective::accumulate_gradient`] adds a bounding-box shrink
//! force: for every exposed net the penalty `weight · exposure · (w + h)`
//! pulls the bbox-extreme pins inward, draining wire demand out of
//! overflowing bins while leaving congestion-free nets untouched.
//!
//! Determinism matches the rest of the flow: the per-net penalty phase
//! partitions work into thread-count-independent chunks with an ordered
//! reduction, and the scatter onto cell gradients walks nets in id order
//! on one thread — bit-identical results for every worker count.

use crate::config::FlowConfig;
use crate::flow::EfficientTdpObjective;
use crate::objective::SessionObjective;
use netlist::{Design, MoveTracker, NetId, PinId, Placement};
use parx::UnsafeSlice;
use placer::TimingObjective;
use sta::Sta;
use std::time::{Duration, Instant};
use tdp_route::{CongestionAnalyzer, CongestionReport};

/// Default congestion penalty multiplier for
/// [`ObjectiveSpec::CongestionAware`](crate::ObjectiveSpec) — calibrated
/// on the congestion-stress suite cases (`cg1`/`cg2`): across seeds it
/// cuts peak utilization 14–36% below `EfficientTdp` while keeping the
/// timing force competitive. Larger weights keep reducing congestion
/// but increasingly trade away TNS.
pub const DEFAULT_CONGESTION_WEIGHT: f64 = 0.3;

/// One net's frozen pull for the penalty scatter phase: the per-edge
/// gradient components plus the four bbox-extreme pins they act on.
#[derive(Debug, Clone, Copy, Default)]
struct NetPull {
    /// Whether the net contributes this round.
    active: bool,
    /// `∂P/∂(edge)` for the left / right / bottom / top box edges.
    gx0: f64,
    gx1: f64,
    gy0: f64,
    gy1: f64,
    /// Pin indices realizing the box edges (ties: first pin in net
    /// order).
    x_min: u32,
    x_max: u32,
    y_min: u32,
    y_max: u32,
}

/// [`EfficientTdpObjective`] plus the congestion penalty: timing-driven
/// placement that also optimizes routability.
pub struct CongestionAwareObjective {
    inner: EfficientTdpObjective,
    analyzer: CongestionAnalyzer,
    weight: f64,
    congestion_time: Duration,
    congestion_trace: Vec<(usize, CongestionReport)>,
    /// Whether the latest map has any overflowed bin (gates the whole
    /// penalty phase — a clean map contributes zero everywhere).
    map_has_overflow: bool,
    /// Per-net scratch for the penalty phase (slot-disjoint writes).
    pulls: Vec<NetPull>,
    /// Number of map refreshes served by the incremental path.
    incremental_updates: usize,
}

impl CongestionAwareObjective {
    /// Creates the objective around an existing analyzer (no timing
    /// graph construction).
    pub fn new(sta: Sta, design: &Design, cfg: FlowConfig, weight: f64) -> Self {
        let analyzer = CongestionAnalyzer::new(design, cfg.route).with_threads(cfg.threads);
        Self {
            inner: EfficientTdpObjective::new(sta, cfg),
            analyzer,
            weight,
            congestion_time: Duration::ZERO,
            congestion_trace: Vec::new(),
            map_has_overflow: false,
            pulls: Vec::new(),
            incremental_updates: 0,
        }
    }

    /// How many map refreshes used the incremental path (all but the
    /// first).
    pub fn incremental_updates(&self) -> usize {
        self.incremental_updates
    }
}

impl SessionObjective for CongestionAwareObjective {
    fn timing_trace(&self) -> &[(usize, f64, f64)] {
        self.inner.timing_trace()
    }

    fn runtimes(&self) -> (Duration, Duration) {
        self.inner.runtimes()
    }

    fn congestion_trace(&self) -> &[(usize, CongestionReport)] {
        &self.congestion_trace
    }

    fn congestion_time(&self) -> Duration {
        self.congestion_time
    }

    fn rc_stats(&self) -> sta::RcOpStats {
        self.inner.rc_stats()
    }
}

impl TimingObjective for CongestionAwareObjective {
    fn begin_iteration(
        &mut self,
        iter: usize,
        design: &Design,
        placement: &Placement,
        moves: &mut MoveTracker,
    ) {
        self.inner.begin_iteration(iter, design, placement, moves);
        if self.inner.cfg.is_timing_iteration(iter) {
            // The inner objective took this iteration's change set from
            // the tracker: both estimators see the identical one.
            let t = Instant::now();
            if self.analyzer.is_analyzed() {
                self.analyzer
                    .analyze_changes(design, placement, self.inner.changes());
                self.incremental_updates += 1;
            } else {
                self.analyzer.analyze(design, placement);
            }
            self.congestion_time += t.elapsed();
            let report = self.analyzer.summary();
            self.map_has_overflow = report.overflow_bins > 0;
            self.congestion_trace.push((iter, report));
        }
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
        let mut loss = self
            .inner
            .accumulate_gradient(design, placement, grad_x, grad_y);
        if !self.analyzer.is_analyzed() || self.weight == 0.0 || !self.map_has_overflow {
            return loss;
        }
        let map = self.analyzer.map();
        let min_extent = self.analyzer.config().min_extent;
        let num_nets = design.num_nets();
        self.pulls.resize(num_nets, NetPull::default());
        let workers = if num_nets < 512 {
            1
        } else {
            parx::resolve_threads(self.inner.cfg.threads)
        };
        // Phase 1: per-net pulls into slot-disjoint scratch, with the
        // penalty value reduced in chunk order (thread-count invariant).
        // Per net `e` the penalty is `weight · mean_e · (w + h)`: the
        // overflow its box's demand lands on (against the frozen map),
        // scaled by the demand itself. Differentiating moves each box
        // edge by the strip-vs-dilution balance of `box_overflow` plus
        // the plain perimeter shrink — hot edges retreat, boxes migrate
        // off hot spots, and uniformly-hot boxes shrink.
        {
            let weight = self.weight;
            let slots = UnsafeSlice::new(&mut self.pulls);
            parx::par_map_reduce(
                workers,
                num_nets,
                64,
                |range| {
                    let mut partial = 0.0f64;
                    for e in range {
                        let mut pull = NetPull::default();
                        let pins = design.net_pins(NetId::new(e));
                        if pins.len() >= 2 {
                            // Bbox extremes at the query point; ties
                            // resolve to the first pin in net order.
                            let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
                            let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
                            for &p in pins {
                                let (px, py) = placement.pin_position(design, p);
                                if px < x0 {
                                    x0 = px;
                                    pull.x_min = p.index() as u32;
                                }
                                if px > x1 {
                                    x1 = px;
                                    pull.x_max = p.index() as u32;
                                }
                                if py < y0 {
                                    y0 = py;
                                    pull.y_min = p.index() as u32;
                                }
                                if py > y1 {
                                    y1 = py;
                                    pull.y_max = p.index() as u32;
                                }
                            }
                            let b = map.box_overflow(x0, y0, x1, y1, min_extent);
                            if b.mean > 0.0 {
                                let size = b.w + b.h;
                                partial += weight * b.mean * size;
                                let dx = if b.x_live { b.mean } else { 0.0 };
                                let dy = if b.y_live { b.mean } else { 0.0 };
                                pull.gx0 = weight * (b.d_x0 * size - dx);
                                pull.gx1 = weight * (b.d_x1 * size + dx);
                                pull.gy0 = weight * (b.d_y0 * size - dy);
                                pull.gy1 = weight * (b.d_y1 * size + dy);
                                pull.active = true;
                            }
                        }
                        // SAFETY: slot `e` is written by this chunk alone.
                        unsafe { slots.write(e, pull) };
                    }
                    partial
                },
                |partial| loss += partial,
            );
        }
        // Phase 2: scatter in net order on one thread — deterministic
        // accumulation onto the cell gradients.
        for pull in &self.pulls {
            if !pull.active {
                continue;
            }
            let cell_of = |pin: u32| design.pin(PinId::new(pin as usize)).cell.index();
            grad_x[cell_of(pull.x_min)] += pull.gx0;
            grad_x[cell_of(pull.x_max)] += pull.gx1;
            grad_y[cell_of(pull.y_min)] += pull.gy0;
            grad_y[cell_of(pull.y_max)] += pull.gy1;
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchgen::{generate, CircuitParams};
    use placer::GlobalPlacer;

    fn quick_config() -> FlowConfig {
        let mut cfg = FlowConfig::default();
        cfg.placer.max_iterations = 200;
        cfg.placer.min_iterations = 60;
        cfg.timing_start = 100;
        cfg.timing_interval = 10;
        cfg.threads = 1;
        cfg
    }

    fn fresh(design: &Design, cfg: &FlowConfig) -> CongestionAwareObjective {
        let sta = Sta::new(design, cfg.rc)
            .expect("acyclic design")
            .with_threads(cfg.threads);
        CongestionAwareObjective::new(sta, design, cfg.clone(), DEFAULT_CONGESTION_WEIGHT)
    }

    #[test]
    fn refreshes_on_the_timing_schedule_and_uses_the_incremental_path() {
        let (design, pads) = generate(&CircuitParams::small("cg", 31));
        let mut cfg = quick_config();
        // Keep the loop alive past the timing start (the session does
        // this for timing-driven specs; here we drive the engine raw).
        cfg.placer.min_iterations = cfg.timing_iteration_floor();
        let mut engine = GlobalPlacer::new(&design, pads, cfg.placer);
        let mut obj = fresh(&design, &cfg);
        engine.run_with(&design, &mut obj);
        let updates = obj.congestion_trace().len();
        assert!(updates >= 2, "several congestion refreshes expected");
        assert_eq!(
            obj.incremental_updates(),
            updates - 1,
            "every refresh after the first takes the incremental path"
        );
        assert!(obj.congestion_time() > Duration::ZERO);
        // The trace iterations sit on the timing schedule.
        for &(iter, report) in obj.congestion_trace() {
            assert!(iter >= cfg.timing_start);
            assert!((iter - cfg.timing_start).is_multiple_of(cfg.timing_interval));
            assert!(report.peak.is_finite() && report.peak >= 0.0);
        }
    }

    #[test]
    fn penalty_gradient_is_thread_count_invariant() {
        let (design, pads) = generate(&CircuitParams::small("cg", 32));
        let mut cfg = quick_config();
        // Tight capacity so exposures are certainly nonzero.
        cfg.route.capacity = 0.2;
        let placement = {
            let mut engine = GlobalPlacer::new(&design, pads, cfg.placer);
            let mut warm = fresh(&design, &cfg);
            engine.run_with(&design, &mut warm);
            engine.placement().clone()
        };
        let grads = |threads: usize| {
            let mut cfg = cfg.clone();
            cfg.threads = threads;
            let mut obj = fresh(&design, &cfg);
            let mut moves = MoveTracker::new(&placement);
            obj.begin_iteration(cfg.timing_start, &design, &placement, &mut moves);
            let mut gx = vec![0.0; design.num_cells()];
            let mut gy = vec![0.0; design.num_cells()];
            let loss = obj.accumulate_gradient(&design, &placement, &mut gx, &mut gy);
            (loss, gx, gy)
        };
        let (l1, gx1, gy1) = grads(1);
        let (l8, gx8, gy8) = grads(8);
        assert!(l1 > 0.0, "penalty must be active under tight capacity");
        assert_eq!(l1.to_bits(), l8.to_bits());
        for (a, b) in gx1.iter().zip(&gx8).chain(gy1.iter().zip(&gy8)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn zero_weight_reduces_to_the_inner_objective() {
        let (design, pads) = generate(&CircuitParams::small("cg", 33));
        let cfg = quick_config();
        let placement = {
            let mut engine = GlobalPlacer::new(&design, pads, cfg.placer);
            engine.run(&design);
            engine.placement().clone()
        };
        let sta = Sta::new(&design, cfg.rc).expect("acyclic");
        let mut zero = CongestionAwareObjective::new(sta, &design, cfg.clone(), 0.0);
        let mut moves = MoveTracker::new(&placement);
        zero.begin_iteration(cfg.timing_start, &design, &placement, &mut moves);
        let mut gx0 = vec![0.0; design.num_cells()];
        let mut gy0 = vec![0.0; design.num_cells()];
        let zl = zero.accumulate_gradient(&design, &placement, &mut gx0, &mut gy0);

        let sta = Sta::new(&design, cfg.rc).expect("acyclic");
        let mut inner = EfficientTdpObjective::new(sta, cfg.clone());
        let mut moves = MoveTracker::new(&placement);
        inner.begin_iteration(cfg.timing_start, &design, &placement, &mut moves);
        let mut gx1 = vec![0.0; design.num_cells()];
        let mut gy1 = vec![0.0; design.num_cells()];
        let il = inner.accumulate_gradient(&design, &placement, &mut gx1, &mut gy1);

        assert_eq!(zl.to_bits(), il.to_bits());
        for (a, b) in gx0.iter().zip(&gx1).chain(gy0.iter().zip(&gy1)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
