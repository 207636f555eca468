//! Net-weighting baselines.
//!
//! Two of the paper's comparison methods translate timing into *net*
//! weights on the wirelength term (Eq. 5) instead of pin-pair attraction:
//!
//! * [`MomentumNetWeighting`] — DREAMPlace 4.0's momentum-guided net
//!   weighting: per net, a criticality from the worst pin slack, blended
//!   into the running weight with a decay factor.
//! * [`DifferentiableTdpWeighting`] — a Differentiable-TDP-style scheme:
//!   per-arc slacks (a smoothed path view) drive instantaneous net
//!   weights; this is the reproduction's stand-in for Guo & Lin's
//!   backpropagated timing engine (see DESIGN.md for the substitution
//!   argument).

use crate::session::SessionObjective;
use netlist::{Design, MoveTracker, Placement};
use placer::TimingObjective;
use sta::{ArcKind, Sta};
use std::time::{Duration, Instant};

/// Shared state for both net-weighting baselines.
#[derive(Debug)]
struct NetWeightBase {
    sta: Sta,
    weights: Vec<f64>,
    timing_start: usize,
    interval: usize,
    alpha: f64,
    /// Accumulated STA wall-clock (for the runtime breakdown).
    sta_time: Duration,
    /// Accumulated weighting wall-clock.
    weighting_time: Duration,
    /// `(iteration, tns, wns)` at every timing iteration.
    timing_trace: Vec<(usize, f64, f64)>,
}

impl NetWeightBase {
    fn new(sta: Sta, design: &Design, timing_start: usize, interval: usize, alpha: f64) -> Self {
        Self {
            sta,
            weights: vec![1.0; design.num_nets()],
            timing_start,
            interval,
            alpha,
            sta_time: Duration::ZERO,
            weighting_time: Duration::ZERO,
            timing_trace: Vec::new(),
        }
    }

    fn timing_iteration(&self, iter: usize) -> bool {
        iter >= self.timing_start && (iter - self.timing_start).is_multiple_of(self.interval)
    }

    fn analyze(&mut self, iter: usize, design: &Design, placement: &Placement) {
        let t = Instant::now();
        self.sta.analyze(design, placement);
        self.sta_time += t.elapsed();
        let s = self.sta.summary();
        self.timing_trace.push((iter, s.tns, s.wns));
    }
}

/// DREAMPlace 4.0 momentum-based net weighting.
#[derive(Debug)]
pub struct MomentumNetWeighting {
    base: NetWeightBase,
    decay: f64,
}

impl MomentumNetWeighting {
    /// Creates the baseline objective around an existing analyzer (no
    /// graph construction).
    pub fn new(
        sta: Sta,
        design: &Design,
        timing_start: usize,
        interval: usize,
        alpha: f64,
        decay: f64,
    ) -> Self {
        Self {
            base: NetWeightBase::new(sta, design, timing_start, interval, alpha),
            decay,
        }
    }

    /// Current per-net weights (diagnostics).
    pub fn weights(&self) -> &[f64] {
        &self.base.weights
    }
}

impl SessionObjective for MomentumNetWeighting {
    fn timing_trace(&self) -> &[(usize, f64, f64)] {
        &self.base.timing_trace
    }

    fn runtimes(&self) -> (Duration, Duration) {
        (self.base.sta_time, self.base.weighting_time)
    }

    fn rc_stats(&self) -> sta::RcOpStats {
        self.base.sta.rc_stats()
    }
}

impl TimingObjective for MomentumNetWeighting {
    fn begin_iteration(
        &mut self,
        iter: usize,
        design: &Design,
        placement: &Placement,
        _moves: &mut MoveTracker,
    ) {
        // The net-weighting baselines deliberately run a full STA every
        // timing iteration (that is the cost the paper compares against),
        // so the move tracker is left untouched.
        if !self.base.timing_iteration(iter) {
            return;
        }
        self.base.analyze(iter, design, placement);
        let t = Instant::now();
        let wns = self.base.sta.summary().wns;
        for net in design.net_ids() {
            // Net criticality: worst pin slack on the net (the pin-level
            // view the paper contrasts with in Fig. 2).
            let mut worst = f64::INFINITY;
            for &p in &design.net(net).pins {
                if let Some(s) = self.base.sta.slack(p) {
                    worst = worst.min(s);
                }
            }
            let crit = if worst < 0.0 && wns < 0.0 {
                (worst / wns).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let target = 1.0 + self.base.alpha * crit;
            let w = &mut self.base.weights[net.index()];
            // Momentum blend toward the new target.
            *w = self.decay * *w + (1.0 - self.decay) * target;
        }
        self.base.weighting_time += t.elapsed();
    }

    fn net_weights(&mut self, _design: &Design) -> Option<&[f64]> {
        Some(&self.base.weights)
    }

    fn accumulate_gradient(
        &mut self,
        _design: &Design,
        _placement: &Placement,
        _gx: &mut [f64],
        _gy: &mut [f64],
    ) -> f64 {
        0.0
    }
}

/// Differentiable-TDP-style smoothed arc-slack net weighting.
#[derive(Debug)]
pub struct DifferentiableTdpWeighting {
    base: NetWeightBase,
}

impl DifferentiableTdpWeighting {
    /// Creates the baseline objective around an existing analyzer (no
    /// graph construction).
    pub fn new(
        sta: Sta,
        design: &Design,
        timing_start: usize,
        interval: usize,
        alpha: f64,
    ) -> Self {
        Self {
            base: NetWeightBase::new(sta, design, timing_start, interval, alpha),
        }
    }

    /// Current per-net weights (diagnostics).
    pub fn weights(&self) -> &[f64] {
        &self.base.weights
    }
}

impl SessionObjective for DifferentiableTdpWeighting {
    fn timing_trace(&self) -> &[(usize, f64, f64)] {
        &self.base.timing_trace
    }

    fn runtimes(&self) -> (Duration, Duration) {
        (self.base.sta_time, self.base.weighting_time)
    }

    fn rc_stats(&self) -> sta::RcOpStats {
        self.base.sta.rc_stats()
    }
}

impl TimingObjective for DifferentiableTdpWeighting {
    fn begin_iteration(
        &mut self,
        iter: usize,
        design: &Design,
        placement: &Placement,
        _moves: &mut MoveTracker,
    ) {
        // The net-weighting baselines deliberately run a full STA every
        // timing iteration (that is the cost the paper compares against),
        // so the move tracker is left untouched.
        if !self.base.timing_iteration(iter) {
            return;
        }
        self.base.analyze(iter, design, placement);
        let t = Instant::now();
        let wns = self.base.sta.summary().wns;
        // Arc slack: required(to) − arrival(from) − delay — the slack of
        // the most critical path *through* the arc. Smoother than the pin
        // view (every arc of a shared segment sees its own criticality)
        // but still a lumped, differentiable quantity, like the smoothed
        // timing metrics of Differentiable-TDP.
        let mut crit = vec![0.0f64; design.num_nets()];
        if wns < 0.0 {
            let graph = self.base.sta.graph();
            for (i, arc) in graph.arcs().enumerate() {
                let ArcKind::Net { net, .. } = arc.kind else {
                    continue;
                };
                let (Some(arr), Some(req)) = (
                    self.base.sta.arrival(arc.from),
                    self.base.sta.required(arc.to),
                ) else {
                    continue;
                };
                let slack = req - arr - self.base.sta.arc_delay(sta::ArcId::new(i));
                if slack < 0.0 {
                    let c = (slack / wns).clamp(0.0, 1.0);
                    let e = &mut crit[net.index()];
                    *e = e.max(c);
                }
            }
        }
        for net in design.net_ids() {
            // A differentiable TNS objective distributes gradient over all
            // violating paths; the per-arc criticality (linear, not
            // thresholded at the worst pin) is its lumped equivalent.
            let c = crit[net.index()];
            self.base.weights[net.index()] = 1.0 + self.base.alpha * c;
        }
        self.base.weighting_time += t.elapsed();
    }

    fn net_weights(&mut self, _design: &Design) -> Option<&[f64]> {
        Some(&self.base.weights)
    }

    fn accumulate_gradient(
        &mut self,
        _design: &Design,
        _placement: &Placement,
        _gx: &mut [f64],
        _gy: &mut [f64],
    ) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchgen::{generate, CircuitParams};
    use sta::RcParams;

    fn scattered(design: &Design, placement: &mut Placement) {
        let die = design.die();
        let mut s = 11u64;
        for c in design.cell_ids() {
            if design.cell(c).fixed {
                continue;
            }
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let x = (s % 997) as f64 / 997.0 * (die.width() - 8.0);
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let y = (s % 997) as f64 / 997.0 * (die.height() - 10.0);
            placement.set(c, x, y);
        }
    }

    fn sta(design: &Design) -> Sta {
        let rc = RcParams {
            res_per_unit: 0.01,
            cap_per_unit: 0.04,
            ..RcParams::default()
        };
        Sta::new(design, rc).expect("acyclic design")
    }

    #[test]
    fn momentum_weights_rise_on_critical_nets() {
        let (design, mut placement) = generate(&CircuitParams::small("w", 9));
        scattered(&design, &mut placement);
        let mut obj = MomentumNetWeighting::new(sta(&design), &design, 0, 1, 4.0, 0.5);
        let mut moves = MoveTracker::new(&placement, 0.0);
        obj.begin_iteration(0, &design, &placement, &mut moves);
        let w = obj.weights();
        let max = w.iter().cloned().fold(0.0, f64::max);
        let min = w.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > 1.0, "no net was weighted up (max {max})");
        assert!(min >= 1.0 - 1e-12);
        assert_eq!(obj.timing_trace().len(), 1);
        assert!(obj.timing_trace()[0].1 < 0.0, "case must fail timing");
    }

    #[test]
    fn momentum_blends_rather_than_jumps() {
        let (design, mut placement) = generate(&CircuitParams::small("w", 9));
        scattered(&design, &mut placement);
        let mut obj = MomentumNetWeighting::new(sta(&design), &design, 0, 1, 4.0, 0.5);
        let mut moves = MoveTracker::new(&placement, 0.0);
        obj.begin_iteration(0, &design, &placement, &mut moves);
        let w1 = obj.weights().to_vec();
        obj.begin_iteration(1, &design, &placement, &mut moves);
        let w2 = obj.weights().to_vec();
        // Same placement, same target: weights keep moving toward it, so
        // the most critical net's weight must not decrease.
        let idx = w1
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(w2[idx] >= w1[idx]);
    }

    #[test]
    fn differentiable_weights_are_instantaneous_and_bounded() {
        let (design, mut placement) = generate(&CircuitParams::small("w", 10));
        scattered(&design, &mut placement);
        let alpha = 4.0;
        let mut obj = DifferentiableTdpWeighting::new(sta(&design), &design, 0, 1, alpha);
        let mut moves = MoveTracker::new(&placement, 0.0);
        obj.begin_iteration(0, &design, &placement, &mut moves);
        for &w in obj.weights() {
            assert!((1.0..=1.0 + alpha).contains(&w), "weight {w} out of range");
        }
        let boosted = obj.weights().iter().filter(|&&w| w > 1.0).count();
        assert!(boosted > 0, "no nets boosted");
    }

    #[test]
    fn non_timing_iterations_are_free() {
        let (design, mut placement) = generate(&CircuitParams::small("w", 12));
        scattered(&design, &mut placement);
        let mut obj = MomentumNetWeighting::new(sta(&design), &design, 100, 15, 4.0, 0.5);
        let mut moves = MoveTracker::new(&placement, 0.0);
        obj.begin_iteration(0, &design, &placement, &mut moves);
        obj.begin_iteration(99, &design, &placement, &mut moves);
        obj.begin_iteration(101, &design, &placement, &mut moves);
        assert!(obj.timing_trace().is_empty());
        obj.begin_iteration(100, &design, &placement, &mut moves);
        obj.begin_iteration(115, &design, &placement, &mut moves);
        assert_eq!(obj.timing_trace().len(), 2);
    }
}
