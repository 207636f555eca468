//! The bin grid over the die, and the one way a box meets it.
//!
//! Net demand, macro blockage and the penalty gradient
//! ([`CongestionMap::box_overflow`](crate::CongestionMap::box_overflow))
//! all clamp boxes with [`Geom::clamp_box`], find bins with
//! [`Geom::ix`]/[`Geom::iy`] and walk a box's bins with
//! [`Geom::for_each_overlap`], so they agree bit for bit on where a box
//! lies. Each caller keeps its own accumulation expression.

use crate::RouteConfig;
use netlist::{Design, NetId, Placement};

/// Clamps one 1-D span into `[bound_lo, bound_hi]` and floors its extent
/// at `ext` (recentered, re-clamped). Returns `(lo, hi, live)` where
/// `live` says the span still tracks its inputs (false once floored).
fn clamp_floor_span(lo: f64, hi: f64, bound_lo: f64, bound_hi: f64, ext: f64) -> (f64, f64, bool) {
    let ext = ext.min(bound_hi - bound_lo);
    let lo = lo.clamp(bound_lo, bound_hi);
    let hi = hi.clamp(bound_lo, bound_hi);
    if hi - lo >= ext {
        (lo, hi, true)
    } else {
        let c = 0.5 * (lo + hi);
        let lo = (c - 0.5 * ext).clamp(bound_lo, bound_hi - ext);
        (lo, lo + ext, false)
    }
}

/// Bin-grid geometry, derived once from the die and the config.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Geom {
    pub(crate) lx: f64,
    pub(crate) ly: f64,
    /// Upper die bounds (`lx + width`, `ly + height`): the edges every
    /// box is clamped to.
    pub(crate) ux: f64,
    pub(crate) uy: f64,
    pub(crate) bin_w: f64,
    pub(crate) bin_h: f64,
    pub(crate) bins_x: usize,
    pub(crate) bins_y: usize,
}

impl Geom {
    pub(crate) fn new(design: &Design, cfg: &RouteConfig) -> Self {
        let die = design.die();
        Self {
            lx: die.lx,
            ly: die.ly,
            ux: die.lx + die.width(),
            uy: die.ly + die.height(),
            bin_w: die.width() / cfg.bins_x as f64,
            bin_h: die.height() / cfg.bins_y as f64,
            bins_x: cfg.bins_x,
            bins_y: cfg.bins_y,
        }
    }

    pub(crate) fn num_bins(&self) -> usize {
        self.bins_x * self.bins_y
    }

    /// Column containing `x`, clamped into the grid.
    pub(crate) fn ix(&self, x: f64) -> usize {
        (((x - self.lx) / self.bin_w) as isize).clamp(0, self.bins_x as isize - 1) as usize
    }

    /// Row containing `y`, clamped into the grid.
    pub(crate) fn iy(&self, y: f64) -> usize {
        (((y - self.ly) / self.bin_h) as isize).clamp(0, self.bins_y as isize - 1) as usize
    }

    /// **The** box rule of the congestion model: clamps `[x0, x1] ×
    /// [y0, y1]` into the die and floors each extent at `min_extent`
    /// (recentered, re-clamped). Returns `(lo, hi, live)` per axis, where
    /// `live` says the span still tracks its inputs (false once floored).
    pub(crate) fn clamp_box(
        &self,
        x0: f64,
        y0: f64,
        x1: f64,
        y1: f64,
        min_extent: f64,
    ) -> [(f64, f64, bool); 2] {
        [
            clamp_floor_span(x0, x1, self.lx, self.ux, min_extent),
            clamp_floor_span(y0, y1, self.ly, self.uy, min_extent),
        ]
    }

    /// Visits every bin the in-die box `[x0, x1] × [y0, y1]` touches, row
    /// by row, as `(bin, ix, iy, ox, oy)`: the row-major bin index, its
    /// column and row, and the box's overlap with the bin along x and y
    /// (zero where the box only touches the bin's edge).
    pub(crate) fn for_each_overlap(
        &self,
        x0: f64,
        y0: f64,
        x1: f64,
        y1: f64,
        mut f: impl FnMut(usize, usize, usize, f64, f64),
    ) {
        let (ix0, ix1) = (self.ix(x0), self.ix(x1));
        for iy in self.iy(y0)..=self.iy(y1) {
            let by = self.ly + iy as f64 * self.bin_h;
            let oy = (y1.min(by + self.bin_h) - y0.max(by)).max(0.0);
            for ix in ix0..=ix1 {
                let bx = self.lx + ix as f64 * self.bin_w;
                let ox = (x1.min(bx + self.bin_w) - x0.max(bx)).max(0.0);
                f(iy * self.bins_x + ix, ix, iy, ox, oy);
            }
        }
    }

    /// Bin containing the point `(x, y)`, row-major.
    pub(crate) fn bin_of(&self, x: f64, y: f64) -> u32 {
        (self.iy(y) * self.bins_x + self.ix(x)) as u32
    }

    /// The clamped, extent-floored bounding box of `net`'s pins, or
    /// `None` for a net with fewer than two. Pin positions are read from
    /// the design's topology slots (`x[slot_cell] + slot_dx`, the float
    /// operations of [`Placement::pin_position`]).
    pub(crate) fn net_box(
        &self,
        min_extent: f64,
        design: &Design,
        placement: &Placement,
        net: NetId,
    ) -> Option<NetBox> {
        let topology = design.topology();
        let slots = topology.net_slots(net);
        if slots.len() < 2 {
            return None;
        }
        let (cell, dx, dy) = (topology.slot_cell(), topology.slot_dx(), topology.slot_dy());
        let (xs, ys) = (placement.xs(), placement.ys());
        let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in slots {
            let c = cell[s] as usize;
            let (px, py) = (xs[c] + dx[s], ys[c] + dy[s]);
            x0 = x0.min(px);
            x1 = x1.max(px);
            y0 = y0.min(py);
            y1 = y1.max(py);
        }
        // Floored extents keep a collinear net on a finite area.
        let [(x0, x1, _), (y0, y1, _)] = self.clamp_box(x0, y0, x1, y1, min_extent);
        Some([x0, y0, x1, y1])
    }

    /// Visits the RUDY demand of one net box as `(bin, amount)` for every
    /// bin it puts a positive amount on, row by row. Demand per unit area
    /// is `(w + h) / (w · h)`, so the amounts over a fully interior box
    /// sum to the half-perimeter `w + h`. The same box always yields the
    /// same amounts, bit for bit.
    pub(crate) fn for_each_demand(&self, net_box: &NetBox, mut f: impl FnMut(usize, f64)) {
        let [x0, y0, x1, y1] = *net_box;
        let density = half_perimeter(net_box) / ((x1 - x0) * (y1 - y0));
        self.for_each_overlap(x0, y0, x1, y1, |bin, _, _, ox, oy| {
            let amount = density * ox * oy;
            if amount > 0.0 {
                f(bin, amount);
            }
        });
    }
}

/// A net's clamped, extent-floored bounding box `[x0, y0, x1, y1]`.
pub(crate) type NetBox = [f64; 4];

/// The half-perimeter `w + h` of a net box.
pub(crate) fn half_perimeter(&[x0, y0, x1, y1]: &NetBox) -> f64 {
    (x1 - x0) + (y1 - y0)
}
