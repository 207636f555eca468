//! Smoothed wirelength models and gradients.
//!
//! The weighted-average (WA) model approximates the max (and min) pin
//! coordinate of a net with a softmax:
//!
//! ```text
//! max_e(x) ≈ Σ_i x_i·exp(x_i/γ) / Σ_i exp(x_i/γ)
//! ```
//!
//! so that `WL_e = (max_e − min_e)` in x plus the same in y is smooth, with
//! the exact HPWL recovered as γ→0. Gradients are analytic and accumulate
//! onto cell coordinates (pin offsets are rigid).
//!
//! The gradient kernel runs on the design's frozen net-major pin layout
//! ([`netlist::Topology`]) in two data-parallel phases, so it can use
//! every core without giving up reproducibility:
//!
//! 1. **per net** — gather the net's pin coordinates from its slots,
//!    form the WA softmax sums (keeping each pin's two `exp` weights per
//!    axis), and write each pin's weighted analytic gradient into its
//!    slot of [`WaScratch`];
//! 2. **per cell** — a gather: each cell sums the values of its own
//!    slots in `Design::cell_pins` order. No `exp` is evaluated twice and no pin
//!    position is looked up twice.
//!
//! Every slot is written by exactly one task and the value reduction
//! folds fixed-size chunks in order, so the result is bit-identical for
//! any thread count (see the `parx` crate docs).

use netlist::{CellId, Design, NetId, Placement};
use parx::UnsafeSlice;

/// Weighted-average wirelength evaluator.
#[derive(Debug, Clone)]
pub struct WaWirelength {
    /// Smoothing parameter γ; smaller is sharper (closer to HPWL).
    pub gamma: f64,
}

impl WaWirelength {
    /// Creates the evaluator with the given smoothing γ.
    pub fn new(gamma: f64) -> Self {
        assert!(gamma > 0.0, "gamma must be positive");
        Self { gamma }
    }

    /// Total smoothed wirelength with per-net weights, accumulating the
    /// gradient with respect to cell positions into `grad_x` / `grad_y`
    /// (indexed by cell). Returns the weighted objective value.
    ///
    /// Serial convenience wrapper over
    /// [`WaWirelength::accumulate_gradient_threads`] — same kernel, one
    /// worker, so the two entry points agree bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `net_weights` (when non-empty) or the gradient buffers are
    /// sized inconsistently with the design.
    pub fn accumulate_gradient(
        &self,
        design: &Design,
        placement: &Placement,
        net_weights: &[f64],
        grad_x: &mut [f64],
        grad_y: &mut [f64],
    ) -> f64 {
        let mut scratch = WaScratch::default();
        self.accumulate_gradient_threads(
            design,
            placement,
            net_weights,
            grad_x,
            grad_y,
            1,
            &mut scratch,
        )
    }

    /// [`WaWirelength::accumulate_gradient`] on up to `threads` workers
    /// (0 = auto). Bit-identical for every thread count. `scratch` holds
    /// the per-slot gradient buffers; callers in a loop (the placement
    /// engine) keep one across iterations so the hot path does not
    /// allocate.
    #[allow(clippy::too_many_arguments)]
    pub fn accumulate_gradient_threads(
        &self,
        design: &Design,
        placement: &Placement,
        net_weights: &[f64],
        grad_x: &mut [f64],
        grad_y: &mut [f64],
        threads: usize,
        scratch: &mut WaScratch,
    ) -> f64 {
        assert_eq!(grad_x.len(), design.num_cells());
        assert_eq!(grad_y.len(), design.num_cells());
        if !net_weights.is_empty() {
            assert_eq!(net_weights.len(), design.num_nets());
        }
        let workers = parx::resolve_threads(threads);
        let gamma = self.gamma;
        let topology = design.topology();
        let (slot_cell, slot_dx, slot_dy) =
            (topology.slot_cell(), topology.slot_dx(), topology.slot_dy());
        let (cell_x, cell_y) = (placement.xs(), placement.ys());

        // Phase 1: per net, the weighted gradient of every pin into its
        // slot, plus the weighted objective value reduced in chunk order.
        scratch.grad_x.resize(topology.num_slots(), 0.0);
        scratch.grad_y.resize(topology.num_slots(), 0.0);
        let mut total = 0.0f64;
        {
            let slot_gx = UnsafeSlice::new(&mut scratch.grad_x);
            let slot_gy = UnsafeSlice::new(&mut scratch.grad_y);
            parx::par_map_reduce_with_state_named(
                workers,
                design.num_nets(),
                64,
                "placer.wl.net_coeffs",
                &mut scratch.nets,
                |state, range| {
                    let mut partial = 0.0f64;
                    // Work on the chunk's buffers by value: the states of
                    // neighbouring chunks share cache lines.
                    let mut bufs = std::mem::take(state);
                    let NetBufs {
                        xs,
                        ys,
                        ep_x,
                        en_x,
                        ep_y,
                        en_y,
                    } = &mut bufs;
                    for n in range {
                        let slots = topology.net_slots(NetId::new(n));
                        if slots.len() < 2 {
                            // A sub-2-pin net exerts no force. Its slots
                            // hold +0.0: phase 2 adds them to per-cell
                            // sums that start at +0.0 and so are never
                            // −0.0, which leaves every sum's bits as if
                            // the pin were skipped.
                            for s in slots {
                                // SAFETY: the slots of net `n` are written
                                // by this chunk alone.
                                unsafe {
                                    slot_gx.write(s, 0.0);
                                    slot_gy.write(s, 0.0);
                                }
                            }
                            continue;
                        }
                        let w = if net_weights.is_empty() {
                            1.0
                        } else {
                            net_weights[n]
                        };
                        xs.clear();
                        ys.clear();
                        for s in slots.clone() {
                            let c = slot_cell[s] as usize;
                            xs.push(cell_x[c] + slot_dx[s]);
                            ys.push(cell_y[c] + slot_dy[s]);
                        }
                        let ax = AxisWa::compute(xs, gamma, ep_x, en_x);
                        let ay = AxisWa::compute(ys, gamma, ep_y, en_y);
                        partial += w * (ax.value() + ay.value());
                        for (k, s) in slots.enumerate() {
                            let gx = w * ax.pin_gradient(xs[k], ep_x[k], en_x[k], gamma);
                            let gy = w * ay.pin_gradient(ys[k], ep_y[k], en_y[k], gamma);
                            // SAFETY: the slots of net `n` are written by
                            // this chunk alone.
                            unsafe {
                                slot_gx.write(s, gx);
                                slot_gy.write(s, gy);
                            }
                        }
                    }
                    *state = bufs;
                    partial
                },
                |partial| total += partial,
            );
        }

        // Phase 2: per-cell gather. Each cell sums its own slots (in pin
        // order) and adds the sum to its gradient entry; no other task
        // touches that entry.
        {
            let gx = UnsafeSlice::new(grad_x);
            let gy = UnsafeSlice::new(grad_y);
            let (slot_gx, slot_gy) = (&scratch.grad_x, &scratch.grad_y);
            parx::par_for_named(
                workers,
                design.num_cells(),
                64,
                "placer.wl.cell_pull",
                |range| {
                    for c in range {
                        let mut sx = 0.0;
                        let mut sy = 0.0;
                        for &s in topology.cell_slots(CellId::new(c)) {
                            sx += slot_gx[s as usize];
                            sy += slot_gy[s as usize];
                        }
                        // SAFETY: cell slot `c` is written by this chunk alone.
                        unsafe {
                            gx.write(c, gx.read(c) + sx);
                            gy.write(c, gy.read(c) + sy);
                        }
                    }
                },
            );
        }
        total
    }
}

/// WA softmax sums of one coordinate axis of one net.
#[derive(Debug, Clone, Copy)]
struct AxisWa {
    s_pos: f64,
    s_neg: f64,
    wa_max: f64,
    wa_min: f64,
}

impl AxisWa {
    /// The sums over `coords`, overwriting `ep`/`en` with each
    /// coordinate's soft-max and soft-min exp weights. Numerically
    /// stabilized by shifting coordinates by their extrema before
    /// exponentiation.
    fn compute(coords: &[f64], gamma: f64, ep: &mut Vec<f64>, en: &mut Vec<f64>) -> Self {
        let mut max = f64::NEG_INFINITY;
        let mut min = f64::INFINITY;
        for &x in coords {
            max = max.max(x);
            min = min.min(x);
        }
        ep.clear();
        en.clear();
        let mut s_pos = 0.0;
        let mut sx_pos = 0.0;
        let mut s_neg = 0.0;
        let mut sx_neg = 0.0;
        for &x in coords {
            let p = ((x - max) / gamma).exp();
            let n = (-(x - min) / gamma).exp();
            s_pos += p;
            sx_pos += x * p;
            s_neg += n;
            sx_neg += x * n;
            ep.push(p);
            en.push(n);
        }
        Self {
            s_pos,
            s_neg,
            wa_max: sx_pos / s_pos,
            wa_min: sx_neg / s_neg,
        }
    }

    /// The smoothed span of this axis.
    fn value(&self) -> f64 {
        self.wa_max - self.wa_min
    }

    /// Analytic span derivative with respect to one pin at `x` whose exp
    /// weights [`AxisWa::compute`] recorded as `ep`/`en`.
    fn pin_gradient(&self, x: f64, ep: f64, en: f64, gamma: f64) -> f64 {
        let d_max = ep * (1.0 + (x - self.wa_max) / gamma) / self.s_pos;
        let d_min = en * (1.0 - (x - self.wa_min) / gamma) / self.s_neg;
        d_max - d_min
    }
}

/// Reusable buffers for [`WaWirelength::accumulate_gradient_threads`]:
/// the per-slot gradients (16 B per connected pin) and one set of net
/// buffers per net chunk. Opaque; create once with `Default` and pass it
/// to every call in a loop, and the calls after the first allocate
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct WaScratch {
    grad_x: Vec<f64>,
    grad_y: Vec<f64>,
    nets: Vec<NetBufs>,
}

/// One net chunk's buffers, reused across its nets: each pin's
/// coordinates and its two exp weights per axis.
#[derive(Debug, Clone, Default)]
struct NetBufs {
    xs: Vec<f64>,
    ys: Vec<f64>,
    ep_x: Vec<f64>,
    en_x: Vec<f64>,
    ep_y: Vec<f64>,
    en_y: Vec<f64>,
}

/// WA span (soft max − soft min) of a coordinate set with its gradient.
/// `grad` must have `coords.len()` entries and is **overwritten** with
/// the partial derivatives. Returns the span.
pub fn wa_span_grad(coords: &[f64], gamma: f64, grad: &mut [f64]) -> f64 {
    debug_assert_eq!(coords.len(), grad.len());
    let (mut ep, mut en) = (Vec::new(), Vec::new());
    let axis = AxisWa::compute(coords, gamma, &mut ep, &mut en);
    for (k, g) in grad.iter_mut().enumerate() {
        *g = axis.pin_gradient(coords[k], ep[k], en[k], gamma);
    }
    axis.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{CellLibrary, DesignBuilder, Rect};

    #[test]
    fn wa_bounds_hpwl_from_below_and_converges() {
        let coords = [0.0, 3.0, 10.0, 4.5];
        let hpwl = 10.0;
        let mut grad = vec![0.0; coords.len()];
        // WA underestimates the true span and tightens as gamma shrinks.
        let loose = wa_span_grad(&coords, 5.0, &mut grad);
        let tight = wa_span_grad(&coords, 0.05, &mut grad);
        assert!(loose <= hpwl + 1e-9);
        assert!(tight <= hpwl + 1e-9);
        assert!(tight > loose);
        assert!((tight - hpwl).abs() < 1e-6);
    }

    #[test]
    fn wa_gradient_matches_finite_difference() {
        let coords = vec![1.0, -2.0, 5.0, 4.9, 0.3];
        let gamma = 0.8;
        let mut grad = vec![0.0; coords.len()];
        wa_span_grad(&coords, gamma, &mut grad);
        let h = 1e-6;
        for i in 0..coords.len() {
            let mut plus = coords.clone();
            plus[i] += h;
            let mut minus = coords.clone();
            minus[i] -= h;
            let mut scratch = vec![0.0; coords.len()];
            let vp = wa_span_grad(&plus, gamma, &mut scratch);
            let vm = wa_span_grad(&minus, gamma, &mut scratch);
            let fd = (vp - vm) / (2.0 * h);
            assert!(
                (grad[i] - fd).abs() < 1e-5,
                "grad[{i}] = {} vs fd {}",
                grad[i],
                fd
            );
        }
    }

    #[test]
    fn wa_gradient_sums_to_zero() {
        // The span is translation invariant, so gradients must sum to ~0.
        let coords = vec![3.0, 1.0, 7.5, 2.2, 2.2];
        let mut grad = vec![0.0; coords.len()];
        wa_span_grad(&coords, 1.3, &mut grad);
        let sum: f64 = grad.iter().sum();
        assert!(sum.abs() < 1e-9, "gradient sum {sum}");
    }

    #[test]
    fn degenerate_net_is_zero() {
        let coords = [5.0, 5.0, 5.0];
        let mut grad = vec![0.0; 3];
        let v = wa_span_grad(&coords, 1.0, &mut grad);
        assert!(v.abs() < 1e-12);
    }

    fn chain_design() -> (netlist::Design, Placement) {
        let mut b = DesignBuilder::new(
            "t",
            CellLibrary::standard(),
            Rect::new(0.0, 0.0, 100.0, 100.0),
            10.0,
        );
        let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 50.0).unwrap();
        let u1 = b.add_cell("u1", "INV_X1").unwrap();
        let u2 = b.add_cell("u2", "INV_X1").unwrap();
        let po = b.add_fixed_cell("po", "IOPAD_OUT", 96.0, 50.0).unwrap();
        b.add_net("n0", &[(pi, "PAD"), (u1, "A")]).unwrap();
        b.add_net("n1", &[(u1, "Y"), (u2, "A")]).unwrap();
        b.add_net("n2", &[(u2, "Y"), (po, "PAD")]).unwrap();
        let d = b.finish().unwrap();
        let mut p = Placement::new(&d);
        p.set(d.find_cell("pi").unwrap(), 0.0, 50.0);
        p.set(d.find_cell("u1").unwrap(), 30.0, 40.0);
        p.set(d.find_cell("u2").unwrap(), 70.0, 60.0);
        p.set(d.find_cell("po").unwrap(), 96.0, 50.0);
        (d, p)
    }

    #[test]
    fn total_wa_close_to_total_hpwl_for_small_gamma() {
        let (d, p) = chain_design();
        let wl = WaWirelength::new(0.01);
        let mut gx = vec![0.0; d.num_cells()];
        let mut gy = vec![0.0; d.num_cells()];
        let wa = wl.accumulate_gradient(&d, &p, &[], &mut gx, &mut gy);
        let hpwl = p.total_hpwl(&d);
        assert!((wa - hpwl).abs() / hpwl < 1e-3, "wa {wa} vs hpwl {hpwl}");
    }

    #[test]
    fn cell_gradient_matches_finite_difference() {
        let (d, p) = chain_design();
        let wl = WaWirelength::new(2.0);
        let mut gx = vec![0.0; d.num_cells()];
        let mut gy = vec![0.0; d.num_cells()];
        wl.accumulate_gradient(&d, &p, &[], &mut gx, &mut gy);
        let u1 = d.find_cell("u1").unwrap();
        let h = 1e-6;
        let eval = |px: f64, py: f64| {
            let mut q = p.clone();
            q.set(u1, px, py);
            let mut sx = vec![0.0; d.num_cells()];
            let mut sy = vec![0.0; d.num_cells()];
            wl.accumulate_gradient(&d, &q, &[], &mut sx, &mut sy)
        };
        let (x0, y0) = p.get(u1);
        let fdx = (eval(x0 + h, y0) - eval(x0 - h, y0)) / (2.0 * h);
        let fdy = (eval(x0, y0 + h) - eval(x0, y0 - h)) / (2.0 * h);
        assert!((gx[u1.index()] - fdx).abs() < 1e-5);
        assert!((gy[u1.index()] - fdy).abs() < 1e-5);
    }

    #[test]
    fn net_weights_scale_gradients() {
        let (d, p) = chain_design();
        let wl = WaWirelength::new(1.0);
        let mut gx1 = vec![0.0; d.num_cells()];
        let mut gy1 = vec![0.0; d.num_cells()];
        let v1 = wl.accumulate_gradient(&d, &p, &[], &mut gx1, &mut gy1);
        let weights = vec![2.0; d.num_nets()];
        let mut gx2 = vec![0.0; d.num_cells()];
        let mut gy2 = vec![0.0; d.num_cells()];
        let v2 = wl.accumulate_gradient(&d, &p, &weights, &mut gx2, &mut gy2);
        assert!((v2 - 2.0 * v1).abs() < 1e-9);
        for i in 0..gx1.len() {
            assert!((gx2[i] - 2.0 * gx1[i]).abs() < 1e-9);
        }
    }
}
