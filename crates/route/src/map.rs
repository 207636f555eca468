//! The binned congestion snapshot ([`CongestionMap`]) and what reads it:
//! the summary, the fingerprint, the heatmap renderers and the
//! per-box overflow the congestion-aware gradient is built from.
//!
//! [`CongestionMap::content_hash`] fingerprints the map exactly like
//! [`netlist::Placement::content_hash`] fingerprints a placement, so
//! differential guarantees ("the daemon computed the same congestion as
//! a local run") can ship a `u64` instead of the grid.

use crate::geom::Geom;
use crate::CongestionReport;
use netlist::fnv;
use tdp_jsonio::JsonValue;

/// A binned congestion snapshot: per-bin routing demand over the die,
/// plus the capacity that turns demand into utilization.
///
/// Produced by a [`CongestionAnalyzer`](crate::CongestionAnalyzer);
/// consumed by reports ([`CongestionMap::summary`]), renderers
/// ([`CongestionMap::ascii`]) and the heatmap JSON encoder
/// ([`CongestionMap::heatmap_json`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionMap {
    pub(crate) geom: Geom,
    /// Unblocked per-bin capacity (`capacity · bin_area`).
    pub(crate) base_capacity: f64,
    /// Effective per-bin capacity after macro blockage.
    pub(crate) cap: Vec<f64>,
    pub(crate) demand: Vec<f64>,
}

/// The overflow an axis-aligned box sees against a frozen
/// [`CongestionMap`], with the analytic derivatives of the mean w.r.t.
/// the four box edges — the building block of the congestion-aware
/// gradient (see [`CongestionMap::box_overflow`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct BoxOverflow {
    /// Area-weighted mean overflow ratio over the box:
    /// `Σ_b max(0, util_b − 1) · overlap(b) / (w · h)`.
    pub mean: f64,
    /// Effective box width after clamping and extent flooring.
    pub w: f64,
    /// Effective box height after clamping and extent flooring.
    pub h: f64,
    /// `∂mean/∂x0` (left edge); zero when the x extent was floored (the
    /// box no longer tracks the pins on that axis).
    pub d_x0: f64,
    /// `∂mean/∂x1` (right edge).
    pub d_x1: f64,
    /// `∂mean/∂y0` (bottom edge).
    pub d_y0: f64,
    /// `∂mean/∂y1` (top edge).
    pub d_y1: f64,
    /// Whether the x extent tracks the pins (false when floored).
    pub x_live: bool,
    /// Whether the y extent tracks the pins (false when floored).
    pub y_live: bool,
}

impl CongestionMap {
    pub(crate) fn empty(geom: Geom, capacity: f64) -> Self {
        let base = capacity * geom.bin_w * geom.bin_h;
        Self {
            geom,
            base_capacity: base,
            cap: vec![base; geom.num_bins()],
            demand: vec![0.0; geom.num_bins()],
        }
    }

    /// Grid bins along x.
    pub fn bins_x(&self) -> usize {
        self.geom.bins_x
    }

    /// Grid bins along y.
    pub fn bins_y(&self) -> usize {
        self.geom.bins_y
    }

    /// Routing capacity of one *unblocked* bin (wirelength units).
    pub fn capacity_per_bin(&self) -> f64 {
        self.base_capacity
    }

    /// Effective routing capacity of bin `(ix, iy)` after macro
    /// blockage (wirelength units).
    pub fn capacity(&self, ix: usize, iy: usize) -> f64 {
        self.cap[iy * self.geom.bins_x + ix]
    }

    /// Raw demand of bin `(ix, iy)` (wirelength units).
    pub fn demand(&self, ix: usize, iy: usize) -> f64 {
        self.demand[iy * self.geom.bins_x + ix]
    }

    /// Utilization of bin `(ix, iy)`: demand over effective capacity.
    pub fn utilization(&self, ix: usize, iy: usize) -> f64 {
        self.demand(ix, iy) / self.capacity(ix, iy)
    }

    /// Sum of demand over every bin (wirelength units) — conserved: it
    /// equals the sum of per-net half-perimeters plus the pin overlay, up
    /// to the rounding of each amount to the fixed-point unit and of this
    /// sum.
    pub fn total_demand(&self) -> f64 {
        self.demand.iter().sum()
    }

    /// A bitwise fingerprint: FNV-1a over the grid dimensions and the
    /// IEEE-754 bit patterns of every bin's demand in row-major order.
    /// Two maps hash equal iff they are bit-identical (modulo hash
    /// collisions) — the same contract as
    /// [`netlist::Placement::content_hash`].
    pub fn content_hash(&self) -> u64 {
        let h = fnv::mix_u64(fnv::OFFSET, self.geom.bins_x as u64);
        let h = fnv::mix_u64(h, self.geom.bins_y as u64);
        self.demand.iter().fold(h, |h, &d| fnv::mix_f64(h, d))
    }

    /// Reduces the map to its [`CongestionReport`] using up to `threads`
    /// workers. Chunk boundaries and the fold order depend only on the
    /// bin count, so the report is bit-identical for every thread count
    /// (the [`parx::par_map_reduce`] guarantee).
    pub fn summary_with_threads(&self, threads: usize) -> CongestionReport {
        let cap = &self.cap;
        let demand = &self.demand;
        let mut peak = 0.0f64;
        let mut util_sum = 0.0f64;
        let mut overflow = 0.0f64;
        let mut overflow_bins = 0usize;
        parx::par_map_reduce(
            threads,
            demand.len(),
            64,
            |range| {
                let mut p = 0.0f64;
                let mut us = 0.0f64;
                let mut ov = 0.0f64;
                let mut nb = 0usize;
                for b in range {
                    let util = demand[b] / cap[b];
                    p = p.max(util);
                    us += util;
                    let over = util - 1.0;
                    if over > 0.0 {
                        ov += over;
                        nb += 1;
                    }
                }
                (p, us, ov, nb)
            },
            |(p, us, ov, nb): (f64, f64, f64, usize)| {
                peak = peak.max(p);
                util_sum += us;
                overflow += ov;
                overflow_bins += nb;
            },
        );
        CongestionReport {
            bins_x: self.geom.bins_x,
            bins_y: self.geom.bins_y,
            peak,
            average: util_sum / self.demand.len() as f64,
            overflow,
            overflow_bins,
            map_hash: self.content_hash(),
        }
    }

    /// [`CongestionMap::summary_with_threads`] on one worker (identical
    /// bits, by the parx determinism contract).
    pub fn summary(&self) -> CongestionReport {
        self.summary_with_threads(1)
    }

    /// The heatmap as a JSON object: grid dimensions, capacity, the
    /// summary statistics, the hex `map_hash`, and `rows` — an array of
    /// `bins_y` arrays of `bins_x` utilization values, bottom row first
    /// (row-major, like the map itself).
    ///
    /// Encoded through [`tdp_jsonio`], so
    /// `encode(parse(encode(map))) == encode(map)` holds (the fixpoint
    /// the route CI smoke asserts).
    pub fn heatmap_json(&self) -> JsonValue {
        let s = self.summary();
        let g = &self.geom;
        let rows: Vec<JsonValue> = (0..g.bins_y)
            .map(|iy| {
                JsonValue::Arr(
                    (0..g.bins_x)
                        .map(|ix| JsonValue::Num(self.utilization(ix, iy)))
                        .collect(),
                )
            })
            .collect();
        JsonValue::Obj(vec![
            ("bins_x".into(), g.bins_x.into()),
            ("bins_y".into(), g.bins_y.into()),
            ("bin_w".into(), JsonValue::Num(g.bin_w)),
            ("bin_h".into(), JsonValue::Num(g.bin_h)),
            (
                "capacity_per_bin".into(),
                JsonValue::Num(self.base_capacity),
            ),
            ("peak".into(), JsonValue::Num(s.peak)),
            ("average".into(), JsonValue::Num(s.average)),
            ("overflow".into(), JsonValue::Num(s.overflow)),
            ("overflow_bins".into(), s.overflow_bins.into()),
            (
                "map_hash".into(),
                JsonValue::Str(format!("{:#018x}", s.map_hash)),
            ),
            ("rows".into(), JsonValue::Arr(rows)),
        ])
    }

    /// Overflow ratio of bin index `b`: `max(0, demand_b / cap_b − 1)`.
    fn overflow_ratio(&self, b: usize) -> f64 {
        (self.demand[b] / self.cap[b] - 1.0).max(0.0)
    }

    /// Evaluates the overflow an axis-aligned box `[x0, x1] × [y0, y1]`
    /// sees against this (frozen) map: the area-weighted mean overflow
    /// ratio plus its analytic derivatives with respect to the four box
    /// edges. The box is clamped into the die and its extents floored at
    /// `min_extent` by the rule net rasterization applies, so the value
    /// is consistent with the demand model bit for bit.
    ///
    /// The derivatives decompose into an *edge-strip* term (the overflow
    /// the moving edge sweeps) and a *dilution* term (`mean / extent`):
    /// an edge sitting in hot bins is pulled inward, while a box whose
    /// interior is hotter than its edges is pushed to grow — both moves
    /// reduce the mean overflow its demand lands on.
    pub fn box_overflow(&self, x0: f64, y0: f64, x1: f64, y1: f64, min_extent: f64) -> BoxOverflow {
        let g = &self.geom;
        let [(x0, x1, x_live), (y0, y1, y_live)] = g.clamp_box(x0, y0, x1, y1, min_extent);
        let (w, h) = (x1 - x0, y1 - y0);
        let (ix0, ix1, iy0, iy1) = (g.ix(x0), g.ix(x1), g.iy(y0), g.iy(y1));
        let mut area_sum = 0.0f64; // Σ c_b · overlap_b
        let mut left = 0.0f64; // Σ over the x0 strip: c_b · oy_b
        let mut right = 0.0f64;
        let mut bottom = 0.0f64; // Σ over the y0 strip: c_b · ox_b
        let mut top = 0.0f64;
        g.for_each_overlap(x0, y0, x1, y1, |b, ix, iy, ox, oy| {
            let c = self.overflow_ratio(b);
            if c == 0.0 {
                return;
            }
            area_sum += c * ox * oy;
            if ix == ix0 {
                left += c * oy;
            }
            if ix == ix1 {
                right += c * oy;
            }
            if iy == iy0 {
                bottom += c * ox;
            }
            if iy == iy1 {
                top += c * ox;
            }
        });
        let inv_area = 1.0 / (w * h);
        let mean = area_sum * inv_area;
        BoxOverflow {
            mean,
            w,
            h,
            d_x0: if x_live {
                -left * inv_area + mean / w
            } else {
                0.0
            },
            d_x1: if x_live {
                right * inv_area - mean / w
            } else {
                0.0
            },
            d_y0: if y_live {
                -bottom * inv_area + mean / h
            } else {
                0.0
            },
            d_y1: if y_live {
                top * inv_area - mean / h
            } else {
                0.0
            },
            x_live,
            y_live,
        }
    }

    /// Renders the map as an ASCII heatmap (top row first, one character
    /// per bin, darker ramp = higher utilization; bins in overflow use
    /// the top ramp characters).
    pub fn ascii(&self) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let (bins_x, bins_y) = (self.geom.bins_x, self.geom.bins_y);
        let mut out = String::with_capacity((bins_x + 3) * (bins_y + 2));
        let border = |out: &mut String| {
            out.push('+');
            for _ in 0..bins_x {
                out.push('-');
            }
            out.push_str("+\n");
        };
        border(&mut out);
        for iy in (0..bins_y).rev() {
            out.push('|');
            for ix in 0..bins_x {
                let util = self.utilization(ix, iy);
                let idx = ((util * 4.5) as usize).min(RAMP.len() - 1);
                out.push(RAMP[idx] as char);
            }
            out.push_str("|\n");
        }
        border(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::fixture::{map_of, toy};
    use tdp_jsonio::JsonValue;

    #[test]
    fn content_hash_tracks_bit_level_changes() {
        let (d, mut p, movable) = toy();
        let h0 = map_of(&d, &p).content_hash();
        assert_eq!(h0, map_of(&d, &p).content_hash());
        let (x, y) = p.get(movable[0]);
        p.set(movable[0], f64::from_bits(x.to_bits() + 1), y);
        assert_ne!(h0, map_of(&d, &p).content_hash());
    }

    #[test]
    fn heatmap_json_round_trips_through_jsonio() {
        let (d, p, _) = toy();
        let doc = map_of(&d, &p).heatmap_json();
        let text = doc.encode();
        let back = tdp_jsonio::parse(&text).expect("self-emitted JSON parses");
        assert_eq!(back.encode(), text, "encode→parse→encode fixpoint");
        assert_eq!(back.get("bins_x").and_then(JsonValue::as_usize), Some(8));
        let rows = back.get("rows").and_then(JsonValue::as_array).unwrap();
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().all(|r| r.as_array().unwrap().len() == 8));
    }

    #[test]
    fn ascii_heatmap_has_one_row_per_bin_row() {
        let (d, p, _) = toy();
        let art = map_of(&d, &p).ascii();
        assert_eq!(art.lines().count(), 8 + 2, "bins_y rows plus borders");
        assert!(art.lines().all(|l| l.len() == 8 + 2));
    }
}
